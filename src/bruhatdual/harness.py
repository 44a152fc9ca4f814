"""Theorem-verification sweeps: the four-way equivalence for self-duality,
cover-degree top-heaviness, rank top-heaviness, and the type-B
counterexamples, with per-degree tallies and violation records.

Sweeps over S_n partition the group by the first image value, so chunks can
run in parallel and still merge deterministically.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .duality import (
    LevelGraph,
    bipartite_isomorphic,
    certify_self_dual,
    gamma_lower,
    gamma_upper,
)
from .intervals import (
    BruhatInterval,
    bruhat_leq,
    build_interval,
    degree_extremes,
    rank_profile,
)
from .permutations import Permutation, simple_transposition
from .polished import (
    NotPolishedError,
    PolishedDecomposition,
    assemble_decomposition,
    avoids_selfdual_patterns,
    avoids_smooth_patterns,
    is_polished_bruteforce,
    selfdual_pattern_witness,
)
from .signed import CoxeterPresentation, evaluate_word, group_elements
from .diagrams import type_b_diagram


@dataclass
class VerificationReport:
    theorem: str
    n_range: list[int]
    checked: int
    violations: list[dict]
    wall_time: float
    tallies: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_range": self.n_range,
            "checked": self.checked,
            "violations": self.violations,
            "tallies": self.tallies,
            "wall_time": self.wall_time,
        }


# -- fast level graphs (no full interval) ----------------------------------------


def gamma_graphs_direct(w: Permutation) -> tuple[LevelGraph, LevelGraph]:
    """Both level graphs of [e, w] built without constructing the interval:
    the bottom pair from the simple transpositions in supp(w) and their
    pairwise products filtered by Bruhat comparison (every element of
    length 2 is some s_i s_j with i != j, and lies below w only if its
    support does), the top pair from iterated cover moves below w.

    Agrees with the interval route as labeled graphs (property-tested).
    """
    if w.length() < 2:
        raise ValueError("level graphs need length >= 2")
    n = w.n
    atoms = sorted(
        (simple_transposition(n, i) for i in sorted(w.support())), key=lambda x: x.images
    )
    rank2 = sorted(
        (x for x in {a * b for a in atoms for b in atoms if a != b} if bruhat_leq(x, w)),
        key=lambda x: x.images,
    )
    lower_edges = []
    for si, a in enumerate(atoms):
        for bi, v in enumerate(rank2):
            if bruhat_leq(a, v):
                lower_edges.append((si, bi))
    lower = LevelGraph("lower", tuple(atoms), tuple(rank2), tuple(sorted(lower_edges)))

    coatoms = sorted(w.down_covers(), key=lambda x: x.images)
    upper_edges = []
    corank2_list: list[Permutation] = []
    seen: dict[Permutation, int] = {}
    for si, c in enumerate(coatoms):
        for d in c.down_covers():
            bi = seen.get(d)
            if bi is None:
                bi = len(corank2_list)
                seen[d] = bi
                corank2_list.append(d)
            upper_edges.append((si, bi))
    order = sorted(range(len(corank2_list)), key=lambda i: corank2_list[i].images)
    renumber = {old: new for new, old in enumerate(order)}
    upper_edges = [(si, renumber[bi]) for si, bi in upper_edges]
    upper = LevelGraph(
        "upper",
        tuple(coatoms),
        tuple(corank2_list[i] for i in order),
        tuple(sorted(upper_edges)),
    )
    return lower, upper


# -- per-element predicate rows -----------------------------------------------------


class _ElementFailure(Exception):
    """An unexpected exception while checking one element, tagged with the
    stage (the harness call) that raised it; sweeps record it as a violation
    instead of dying."""

    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.error = f"{type(error).__name__}: {error}"
        super().__init__(f"{stage}: {self.error}")

    def record(self, n: int, w: Permutation) -> dict:
        return {"n": n, "w": w.one_line(), "stage": self.stage, "error": self.error}


def _sd_predicates(w: Permutation, sd4_mode: str) -> dict:
    """The four self-duality predicates, computed as independently as the
    modes allow: graph isomorphism, pattern scan, constructive decomposition,
    and interval-level certification.

    Raises _ElementFailure, naming the stage, on any exception other than
    the NotPolishedError and hinted-certification ValueError that decide a
    predicate."""
    stage = "gamma_graphs_direct"
    try:
        lw = w.length()
        if lw < 2:
            sd1 = True
        else:
            lower, upper = gamma_graphs_direct(w)
            stage = "bipartite_isomorphic"
            sd1 = bipartite_isomorphic(lower, upper) is not None

        stage = "avoids_selfdual_patterns"
        sd2 = avoids_selfdual_patterns(w)

        stage = "assemble_decomposition"
        decomp: Optional[PolishedDecomposition]
        try:
            decomp = assemble_decomposition(w)
            sd3 = True
        except NotPolishedError:
            decomp = None
            sd3 = False

        sd4: Optional[bool] = None
        if sd4_mode == "full" or sd3:
            stage = "build_interval"
            interval = build_interval(w)
            stage = "certify_self_dual"
            if sd4_mode == "full":
                sd4 = certify_self_dual(interval).is_self_dual
            else:
                # constructive-only: verify the explicit map reverses every cover
                try:
                    certify_self_dual(interval, decomp)
                    sd4 = True
                except ValueError:
                    sd4 = False

        stage = "avoids_smooth_patterns"
        smooth = avoids_smooth_patterns(w)
    except Exception as exc:
        raise _ElementFailure(stage, exc) from exc

    return {
        "smooth": smooth,
        "sd1_gamma_iso": sd1,
        "sd2_patterns": sd2,
        "sd3_polished": sd3,
        "sd4_self_dual": sd4,
    }


def _perms_first_value(n: int, first: int) -> Iterator[Permutation]:
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        yield Permutation((first,) + tail)


def _main_chunk(args: tuple[int, int, str]) -> dict:
    n, first, sd4_mode = args
    violations = []
    checked = 0
    tally = {"smooth": 0, "polished": 0, "self_dual": 0}
    for w in _perms_first_value(n, first):
        checked += 1
        try:
            row = _sd_predicates(w, sd4_mode)
        except _ElementFailure as fail:
            violations.append(fail.record(n, w))
            continue
        if row["smooth"]:
            tally["smooth"] += 1
        if row["sd3_polished"]:
            tally["polished"] += 1
        if row["sd4_self_dual"]:
            tally["self_dual"] += 1
        verdicts = {row["sd1_gamma_iso"], row["sd2_patterns"], row["sd3_polished"]}
        if row["sd4_self_dual"] is not None:
            verdicts.add(row["sd4_self_dual"])
        if len(verdicts) != 1:
            violations.append({"n": n, "w": w.one_line(), "predicates": dict(row)})
    return {"n": n, "first": first, "checked": checked, "tally": tally, "violations": violations}


def _worker_count(jobs: int, n_chunks: int) -> int:
    """Worker processes for one sweep step: ``jobs``, but never more than
    there are chunks to hand out."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_chunks)


def _run_chunks(worker, chunk_args: list, jobs: int) -> list[dict]:
    workers = _worker_count(jobs, len(chunk_args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, chunk_args))
    return [worker(a) for a in chunk_args]


def _sweep(theorem: str, ns: range, worker, mode, jobs: int) -> VerificationReport:
    """Run ``worker`` on the chunks (n, first value, mode) of each S_n with n
    in ``ns`` and merge their counts in chunk order, tallies in the key
    order of the chunks' tally dicts."""
    start = time.perf_counter()
    violations: list[dict] = []
    tallies: dict[str, dict[str, int]] = {}
    checked = 0
    for n in ns:
        results = _run_chunks(worker, [(n, first, mode) for first in range(1, n + 1)], jobs)
        tally: Counter[str] = Counter()
        for res in results:
            checked += res["checked"]
            violations.extend(res["violations"])
            tally.update(res["tally"])  # keeps zero counts, in the chunks' key order
        tallies[str(n)] = dict(tally)
    return VerificationReport(
        theorem=theorem,
        n_range=list(ns),
        checked=checked,
        violations=violations,
        wall_time=time.perf_counter() - start,
        tallies=tallies,
    )


def verify_main(
    n_max: int, sd4_mode: str = "full", jobs: int = 1, force_full: bool = False
) -> VerificationReport:
    """Sweep every w in S_1..S_{n_max} and assert the four self-duality
    predicates agree.  ``sd4_mode`` applies at every n.  ``force_full`` is
    accepted and ignored: full mode always runs the refutation search."""
    if not 1 <= n_max <= 8:
        raise ValueError("n_max must be between 1 and 8")
    if sd4_mode not in ("full", "constructive-only"):
        raise ValueError(f"unknown sd4 mode {sd4_mode!r}")
    return _sweep("thm-main", range(1, n_max + 1), _main_chunk, sd4_mode, jobs)


def _topheavy_checks(
    n: int, w: Permutation, do_ranks: bool
) -> tuple[bool, Optional[str], list[dict]]:
    """One element's top-heaviness checks: whether it counts as checked, its
    degree tally ("degree_equal" / "degree_strict", or None when it is not
    smooth of length >= 2), and its violations.

    Raises _ElementFailure, naming the stage, on any exception."""
    violations = []
    stage = "avoids_smooth_patterns"
    try:
        lw = w.length()
        smooth = avoids_smooth_patterns(w)
        interval: Optional[BruhatInterval] = None
        if do_ranks:
            stage = "build_interval"
            interval = build_interval(w)
            stage = "rank_profile"
            profile = rank_profile(interval)
            for k in range(lw // 2 + 1):
                if profile[k] > profile[lw - k]:
                    violations.append(
                        {"n": n, "w": w.one_line(), "check": "rank-top-heavy", "profile": profile}
                    )
                    break
        if not (smooth and lw >= 2):
            return do_ranks, None, violations
        if interval is None:
            stage = "build_interval"
            interval = build_interval(w)
        stage = "degree_extremes"
        atom_up, coatom_down = degree_extremes(interval)
        stage = "avoids_selfdual_patterns"
        six = avoids_selfdual_patterns(w)
    except Exception as exc:
        raise _ElementFailure(stage, exc) from exc
    if atom_up > coatom_down:
        violations.append(
            {"n": n, "w": w.one_line(), "check": "degree-top-heavy",
             "extremes": [atom_up, coatom_down]}
        )
    if (atom_up == coatom_down) != six:
        violations.append(
            {"n": n, "w": w.one_line(), "check": "degree-equality-vs-patterns",
             "extremes": [atom_up, coatom_down], "six_avoiding": six}
        )
    return True, "degree_equal" if atom_up == coatom_down else "degree_strict", violations


def _topheavy_chunk(args: tuple[int, int, int]) -> dict:
    n, first, rank_n_max = args
    violations = []
    checked = 0
    tally = {"smooth": 0, "degree_equal": 0, "degree_strict": 0}
    for w in _perms_first_value(n, first):
        try:
            counted, degree, found = _topheavy_checks(n, w, n <= rank_n_max)
        except _ElementFailure as fail:
            # a failed element counts as checked: it was attempted and reported
            checked += 1
            violations.append(fail.record(n, w))
            continue
        checked += counted
        if degree is not None:
            tally["smooth"] += 1
            tally[degree] += 1
        violations.extend(found)
    return {"n": n, "first": first, "checked": checked, "tally": tally, "violations": violations}


def verify_topheavy(n_max: int, jobs: int = 1) -> VerificationReport:
    """For smooth w of length >= 2: max atom up-degree <= max coatom
    down-degree, with equality exactly on the six-pattern avoiders.  Also
    sweeps the rank inequality |P_k| <= |P_{l-k}| for every w up to
    min(n_max, 6)."""
    if not 2 <= n_max <= 7:
        raise ValueError("n_max must be between 2 and 7")
    return _sweep("thm-topheavy", range(2, n_max + 1), _topheavy_chunk, 6, jobs)  # ranks to S_6


def verify_counterexamples() -> VerificationReport:
    """The two general-Coxeter failures: a B_3 element whose level graphs
    match although its interval is not self-dual, and the two length-3
    elements of B_2 with self-dual intervals that admit no block data."""
    start = time.perf_counter()
    violations: list[dict] = []
    checked = 0

    b3 = CoxeterPresentation("B", 3)
    word = (3, 2, 3, 1, 2, 3, 1, 2)
    el, reduced = evaluate_word(word, b3)
    checked += 1
    if not reduced or el.length() != 8:
        violations.append({"check": "b3-word-reduced", "word": list(word), "length": el.length()})
    interval = build_interval(el)
    lower, upper = gamma_lower(interval), gamma_upper(interval)
    if bipartite_isomorphic(lower, upper) is None:
        violations.append({"check": "b3-gamma-iso", "w": el.one_line()})
    cert = certify_self_dual(interval)
    if cert.is_self_dual:
        violations.append({"check": "b3-not-self-dual", "w": el.one_line(), "kind": cert.kind})

    b2 = CoxeterPresentation("B", 2)
    length3 = [x for x in group_elements(b2) if x.length() == 3]
    if len(length3) != 2:
        violations.append({"check": "b2-length3-count", "count": len(length3)})
    for x in sorted(length3, key=lambda e: e.images):
        checked += 1
        cert = certify_self_dual(build_interval(x))
        if not cert.is_self_dual:
            violations.append({"check": "b2-self-dual", "w": x.one_line()})
        if is_polished_bruteforce(x, type_b_diagram(2)):
            violations.append({"check": "b2-not-polished", "w": x.one_line()})

    return VerificationReport(
        theorem="counterexamples-B",
        n_range=[],
        checked=checked,
        violations=violations,
        wall_time=time.perf_counter() - start,
        tallies={},
    )


# -- single-element analysis ------------------------------------------------------


def analyze(w: Permutation) -> dict:
    """Every predicate of interest for one permutation, as a JSON-ready dict."""
    from .serialize import decomposition_to_dict

    lw = w.length()
    interval = build_interval(w)
    out: dict = {
        "permutation": w.one_line(),
        "n": w.n,
        "length": lw,
        "rank_profile": list(rank_profile(interval)),
        "smooth": avoids_smooth_patterns(w),
    }
    witness = selfdual_pattern_witness(w)
    out["six_avoiding"] = witness is None
    if witness is None:
        decomp = assemble_decomposition(w)
        out["polished"] = True
        out["decomposition"] = decomposition_to_dict(decomp)
        out["pattern_witness"] = None
        cert = certify_self_dual(interval, decomp)
    else:
        out["polished"] = False
        out["decomposition"] = None
        out["pattern_witness"] = {
            "pattern": witness.pattern.one_line(),
            "indices": list(witness.indices),
        }
        cert = certify_self_dual(interval)
    if lw >= 2:
        lower, upper = gamma_lower(interval), gamma_upper(interval)
        out["gamma_isomorphic"] = bipartite_isomorphic(lower, upper) is not None
        out["degree_extremes"] = list(degree_extremes(interval))
    else:
        out["gamma_isomorphic"] = True
        out["degree_extremes"] = None
    out["self_dual"] = cert.is_self_dual
    out["self_dual_certificate"] = cert.kind
    return out
