"""The traced pass: replays a workload's elements serially, calling the same
public functions as `harness._sd_predicates` or `harness.analyze`, in the
same order, with one span around each call into a layer.

Spans live in memory until the run ends.  `permutations` and `signed` get no
spans of their own: they run inside every other layer.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Optional

from bruhatdual.duality import (
    bipartite_isomorphic,
    certify_self_dual,
    gamma_lower,
    gamma_upper,
)
from bruhatdual.harness import gamma_graphs_direct
from bruhatdual.intervals import build_interval, degree_extremes, rank_profile
from bruhatdual.permutations import Permutation
from bruhatdual.polished import (
    NotPolishedError,
    assemble_decomposition,
    avoids_selfdual_patterns,
    avoids_smooth_patterns,
    selfdual_pattern_witness,
)
from bruhatdual.serialize import decomposition_to_dict

# Spans around calls into a layer; the structural spans ("harness.chunk",
# "harness.element", "harness.analyze") only group them.
LAYERS = (
    "intervals.build_interval",
    "duality.certify_hinted",
    "duality.certify_search",
    "duality.bipartite_isomorphic",
    "duality.gamma_levels",
    "harness.gamma_graphs_direct",
    "polished.pattern_scan",
    "polished.assemble_decomposition",
)


class Tracer:
    """Span recorder: each span holds its name, start, end, parent span and
    the id of the element it belongs to.  `counts` holds the counters taken
    at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.element: Optional[str] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.element]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name, duration minus the time its child spans cover.  One
        thread records every span, so children never overlap and their
        durations add up to the time they cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def calls(self) -> Counter[str]:
        return Counter(record[0] for record in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, element) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "element": element}
                fh.write(json.dumps(row) + "\n")


def _build(tr: Tracer, w: Permutation):
    with tr.span("intervals.build_interval"):
        interval = build_interval(w)
    tr.counts["intervals.build_interval.nodes"] += interval.size
    tr.counts["intervals.build_interval.max_nodes"] = max(
        tr.counts["intervals.build_interval.max_nodes"], interval.size
    )
    return interval


def _certify_search(tr: Tracer, interval) -> bool:
    with tr.span("duality.certify_search"):
        cert = certify_self_dual(interval)
    if cert.is_self_dual:
        tr.counts["duality.certify_search.bijections"] += 1
    else:
        ranks = Counter(interval.rank)
        symmetric = all(ranks[k] == ranks[interval.top_rank - k] for k in ranks)
        outcome = "refuted_by_search" if symmetric else "refuted_by_profile"
        tr.counts[f"duality.certify_search.{outcome}"] += 1
    return cert.is_self_dual


def _bipartite(tr: Tracer, lower, upper) -> bool:
    with tr.span("duality.bipartite_isomorphic"):
        iso = bipartite_isomorphic(lower, upper) is not None
    tr.counts["duality.bipartite_isomorphic.iso"] += iso
    return iso


def _sd_predicates(tr: Tracer, w: Permutation, sd4_mode: str) -> dict:
    """`harness._sd_predicates`, call for call."""
    if w.length() < 2:
        sd1 = True
    else:
        with tr.span("harness.gamma_graphs_direct"):
            lower, upper = gamma_graphs_direct(w)
        sd1 = _bipartite(tr, lower, upper)

    with tr.span("polished.pattern_scan"):
        sd2 = avoids_selfdual_patterns(w)

    with tr.span("polished.assemble_decomposition"):
        try:
            decomp = assemble_decomposition(w)
            sd3 = True
        except NotPolishedError:
            decomp = None
            sd3 = False
    tr.counts["polished.assemble_decomposition.success"] += sd3

    sd4: Optional[bool] = None
    if sd4_mode == "full":
        sd4 = _certify_search(tr, _build(tr, w))
    elif sd3:
        interval = _build(tr, w)
        with tr.span("duality.certify_hinted"):
            try:
                certify_self_dual(interval, decomp)
                sd4 = True
            except ValueError:
                sd4 = False
        tr.counts["duality.certify_hinted.nodes"] += interval.size

    with tr.span("polished.pattern_scan"):
        smooth = avoids_smooth_patterns(w)
    return {"smooth": smooth, "sd1": sd1, "sd2": sd2, "sd3": sd3, "sd4": sd4}


def replay_sweep(tr: Tracer, n_max: int, sd4_mode: str) -> dict:
    """Every element of S_1..S_{n_max} in the harness's chunk order.

    Returns the per-n tallies, the elements whose predicates disagree, and
    the traced seconds of each chunk of S_{n_max} by first value."""
    tallies: dict[str, dict[str, int]] = {}
    disagreements: list[str] = []
    chunk_s: dict[int, float] = {}
    for n in range(1, n_max + 1):
        tally = {"smooth": 0, "polished": 0, "self_dual": 0}
        for first in range(1, n + 1):
            tr.element = None
            with tr.span("harness.chunk") as chunk:
                rest = [v for v in range(1, n + 1) if v != first]
                for tail in itertools.permutations(rest):
                    w = Permutation((first,) + tail)
                    tr.element = f"{n}:{w.one_line()}"
                    with tr.span("harness.element"):
                        row = _sd_predicates(tr, w, sd4_mode)
                    tally["smooth"] += row["smooth"]
                    tally["polished"] += row["sd3"]
                    tally["self_dual"] += bool(row["sd4"])
                    verdicts = {row["sd1"], row["sd2"], row["sd3"]} | (
                        set() if row["sd4"] is None else {row["sd4"]}
                    )
                    if len(verdicts) != 1:
                        disagreements.append(tr.element)
            if n == n_max:
                chunk_s[first] = chunk[2] - chunk[1]
        tallies[str(n)] = tally
    return {"tallies": tallies, "disagreements": disagreements, "chunk_s": chunk_s}


def traced_analyze(tr: Tracer, w: Permutation) -> dict:
    """`harness.analyze`, call for call; returns its verdict fields."""
    lw = w.length()
    interval = _build(tr, w)
    rank_profile(interval)
    with tr.span("polished.pattern_scan"):
        smooth = avoids_smooth_patterns(w)
    with tr.span("polished.pattern_scan"):
        six = avoids_selfdual_patterns(w)
    with tr.span("polished.pattern_scan"):
        witness = selfdual_pattern_witness(w)
    if witness is None:
        with tr.span("polished.assemble_decomposition"):
            decomp = assemble_decomposition(w)
        tr.counts["polished.assemble_decomposition.success"] += 1
        decomposition_to_dict(decomp)
        with tr.span("duality.certify_hinted"):
            self_dual = certify_self_dual(interval, decomp).is_self_dual
        tr.counts["duality.certify_hinted.nodes"] += interval.size
    else:
        self_dual = _certify_search(tr, interval)
    if lw >= 2:
        with tr.span("duality.gamma_levels"):
            lower, upper = gamma_lower(interval), gamma_upper(interval)
        gamma_iso = _bipartite(tr, lower, upper)
        degree_extremes(interval)
    else:
        gamma_iso = True
    return {
        "smooth": smooth,
        "six_avoiding": six,
        "polished": witness is None,
        "self_dual": self_dual,
        "gamma_isomorphic": gamma_iso,
    }


def layer_metrics(tr: Tracer, traced_wall: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    busy = tr.self_times()
    calls = tr.calls()
    c = tr.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    build, hinted, search = (
        "intervals.build_interval", "duality.certify_hinted", "duality.certify_search"
    )
    bip, assemble = "duality.bipartite_isomorphic", "polished.assemble_decomposition"
    out = {}
    for layer in LAYERS:
        if layer != "duality.gamma_levels":
            out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.busy_s"] = (busy[layer], "s")
    out.update({
        f"{build}.nodes": (c[f"{build}.nodes"], "count"),
        f"{build}.max_nodes": (c[f"{build}.max_nodes"], "count"),
        f"{build}.us_per_node": (1e6 * ratio(busy[build], c[f"{build}.nodes"]), "us"),
        f"{hinted}.us_per_node": (1e6 * ratio(busy[hinted], c[f"{hinted}.nodes"]), "us"),
        f"{search}.refuted_by_profile": (c[f"{search}.refuted_by_profile"], "count"),
        f"{search}.refuted_by_search": (c[f"{search}.refuted_by_search"], "count"),
        f"{search}.bijections": (c[f"{search}.bijections"], "count"),
        f"{bip}.iso_ratio": (ratio(c[f"{bip}.iso"], calls[bip]), "ratio"),
        f"{assemble}.success_ratio": (ratio(c[f"{assemble}.success"], calls[assemble]), "ratio"),
        "trace.coverage": (ratio(sum(busy[layer] for layer in LAYERS), traced_wall), "ratio"),
    })
    return out
