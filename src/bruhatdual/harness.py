"""Theorem-verification sweeps: the four-way equivalence for self-duality,
cover-degree top-heaviness, rank top-heaviness, and the type-B
counterexamples, with per-degree tallies and violation records.

A sweep runs one per-element check over S_n for every n in its range.
Inversion and conjugation by w0 are automorphisms of Bruhat order
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.3), so the four images
of w under the Klein group they generate have isomorphic intervals.  Each
S_n is split into (n, first value) chunks: the orbits whose lexicographically
least member, the owner, has that first value.  A chunk checks every member
of its orbits, owner first, and a bijection the owner's search found is
carried to the other members and verified on their own intervals; no verdict
is ever carried.  The chunks of every n go to one worker pool per sweep,
largest n first, and violations are merged in (n, one-line) order, so
reports do not depend on the number of workers.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .duality import (
    DualityCertificate,
    bipartite_isomorphic,
    certify_self_dual,
    gamma_graphs_direct,
    gamma_lower,
    gamma_upper,
    profile_refutation,
    rank_one_counts,
    transport_certificate,
)
from .intervals import build_interval
from .permutations import KLEIN_INVOLUTIONS, Permutation, lower_rank_profile, parse_permutation
from .polished import (
    NotPolishedError,
    PolishedDecomposition,
    assemble_decomposition,
    is_polished_bruteforce,
    selfdual_pattern_witness,
)
from .signed import CoxeterPresentation, evaluate_word, group_elements


# the largest n the S_n sweeps take; the CLI's --n-max options read it too
MAX_SWEEP_DEGREE = 8


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


# -- per-element predicate rows -----------------------------------------------------


class _ElementFailure(Exception):
    """An unexpected exception while checking one element, tagged with the
    stage (the harness call) that raised it; sweeps record it as a violation
    instead of dying."""

    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.error = f"{type(error).__name__}: {error}"
        super().__init__(f"{stage}: {self.error}")

    def record(self, w: Permutation) -> dict:
        return {"n": w.n, "w": w.one_line(), "stage": self.stage, "error": self.error}


# A Klein map taking an orbit's owner to another member, on one-line tuples,
# and the self-duality certificate the owner's search found
_Transport = tuple[Callable[[tuple[int, ...]], tuple[int, ...]], DualityCertificate]


def _sd_predicates(
    w: Permutation, sd4_mode: str, transport: Optional[_Transport] = None
) -> tuple[dict, Optional[DualityCertificate]]:
    """The four self-duality predicates, computed as independently as the
    modes allow: graph isomorphism, pattern scan, constructive decomposition,
    and interval-level certification; and the full-mode certificate, when
    one was made.

    SD1 is False, without building the level graphs' big sides, when their
    small sides, the atoms and the coatoms of [e, w], differ in size.  Full
    mode refutes SD4 from its own call for the same rank-1 counts, without
    building [e, w].  Otherwise, given ``transport`` = (g, certificate of
    [e, v]) with g(v) = w, it carries that bijection to [e, w] and verifies
    it there; without one it runs the search.

    Raises _ElementFailure, naming the stage, on any exception other than
    the NotPolishedError and hinted-certification ValueError that decide a
    predicate; a carried bijection that fails verification is one, at stage
    transport_certificate."""
    stage = "rank_one_counts"
    try:
        sd1 = True
        if w.length() >= 2:
            # the level graphs' small sides: no isomorphism when their sizes differ
            atoms, coatoms = rank_one_counts(w)
            sd1 = False
            if atoms == coatoms:
                stage = "gamma_graphs_direct"
                lower, upper = gamma_graphs_direct(w)
                stage = "bipartite_isomorphic"
                sd1 = bipartite_isomorphic(lower, upper) is not None

        stage = "selfdual_pattern_witness"
        witness = selfdual_pattern_witness(w)
        sd2 = witness is None
        smooth = sd2 or witness.pattern.n == 5

        stage = "assemble_decomposition"
        decomp: Optional[PolishedDecomposition]
        try:
            decomp = assemble_decomposition(w)
            sd3 = True
        except NotPolishedError:
            decomp = None
            sd3 = False

        sd4: Optional[bool] = None
        cert: Optional[DualityCertificate] = None
        if sd4_mode == "full":
            stage = "rank_one_counts"
            atoms, coatoms = rank_one_counts(w)
            sd4 = False
            if atoms == coatoms:
                stage = "build_interval"
                interval = build_interval(w)
                if transport is None:
                    stage = "certify_self_dual"
                    cert = certify_self_dual(interval)
                else:
                    stage = "transport_certificate"
                    g, source = transport
                    cert = transport_certificate(source, interval, g)
                sd4 = cert.is_self_dual
        elif sd3:
            stage = "build_interval"
            interval = build_interval(w)
            stage = "certify_self_dual"
            # constructive-only: verify the explicit map reverses every cover
            try:
                certify_self_dual(interval, decomp)
                sd4 = True
            except ValueError:
                sd4 = False
    except Exception as exc:
        raise _ElementFailure(stage, exc) from exc

    row = {
        "smooth": smooth,
        "sd1_gamma_iso": sd1,
        "sd2_patterns": sd2,
        "sd3_polished": sd3,
        "sd4_self_dual": sd4,
    }
    return row, cert


# (tally key, predicate counted under it) for the self-duality sweep
_MAIN_TALLY = (("smooth", "smooth"), ("polished", "sd3_polished"), ("self_dual", "sd4_self_dual"))


def _main_checks(
    w: Permutation, sd4_mode: str, transport: Optional[_Transport] = None
) -> tuple[list[str], list[dict], Optional[DualityCertificate]]:
    """One element's self-duality tally keys, a violation when its
    predicates disagree, and its full-mode bijection, if the search or the
    carried one certified it, for the rest of its orbit."""
    row, cert = _sd_predicates(w, sd4_mode, transport)
    keys = [key for key, pred in _MAIN_TALLY if row[pred]]
    verdicts = {row["sd1_gamma_iso"], row["sd2_patterns"], row["sd3_polished"]}
    if row["sd4_self_dual"] is not None:
        verdicts.add(row["sd4_self_dual"])
    violations = [] if len(verdicts) == 1 else [{"n": w.n, "w": w.one_line(), "predicates": row}]
    return keys, violations, cert if cert is not None and cert.is_self_dual else None


def _topheavy_checks(w: Permutation) -> tuple[tuple[str, ...], list[dict], None]:
    """One element's top-heaviness checks, read off w without building
    [e, w]: the rank inequality on every w, on the rank sizes the tableau
    criterion gives; then, when w is smooth of length >= 2, the majorization
    and the equality case of the maxima of the level graphs' small-side
    degrees.  Returns the tally keys ("smooth" on every smooth w, with
    "degree_equal" or "degree_strict", from the maxima, when its length is
    >= 2), the violations, and no certificate.

    Majorization: sorted decreasingly, every prefix sum of the coatoms'
    down-degrees is at least the atoms' up-degrees' one, with the same total
    (each rank-2 and corank-2 element counts twice).  It is the strongest
    form measured to hold on the smooth w of S_2..S_8, with equal sequences
    exactly on the six-avoiders, not the paper's statement: its abstract
    says only that covers between ranks are top-heavy.

    Raises _ElementFailure, naming the stage, on any exception."""
    violations = []
    stage = "lower_rank_profile"
    try:
        lw = w.length()
        profile = lower_rank_profile(w.images)
        if any(profile[k] > profile[lw - k] for k in range(lw // 2 + 1)):
            violations.append(
                {"n": w.n, "w": w.one_line(), "check": "rank-top-heavy", "profile": profile}
            )
        stage = "selfdual_pattern_witness"
        witness = selfdual_pattern_witness(w)
        six = witness is None
        if not (six or witness.pattern.n == 5):
            return (), violations, None
        if lw < 2:
            return ("smooth",), violations, None
        stage = "gamma_graphs_direct"
        atom_up, coatom_down = (sorted(g.small_degrees())[::-1] for g in gamma_graphs_direct(w))
    except Exception as exc:
        raise _ElementFailure(stage, exc) from exc
    prefixes = zip(itertools.accumulate(atom_up), itertools.accumulate(coatom_down))
    if sum(atom_up) != sum(coatom_down) or any(a > c for a, c in prefixes):
        violations.append(
            {"n": w.n, "w": w.one_line(), "check": "degree-majorization",
             "atom_up": atom_up, "coatom_down": coatom_down}
        )
    equal = atom_up[0] == coatom_down[0]
    if equal != six:
        violations.append(
            {"n": w.n, "w": w.one_line(), "check": "degree-equality-vs-patterns",
             "extremes": [atom_up[0], coatom_down[0]], "six_avoiding": six}
        )
    return ("smooth", "degree_equal" if equal else "degree_strict"), violations, None


def _orbits(n: int, first: int):
    """The Klein orbits of S_n whose lexicographically least member, the
    owner, has w(1) = first, in the owner's one-line order.  Each comes as
    the owner and its other members as sorted (g(owner), g) pairs, g the
    first Klein map reaching that member."""
    others = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(others):
        owner = (first,) + tail
        members: dict[tuple[int, ...], Callable] = {}
        for g in KLEIN_INVOLUTIONS:
            x = g(owner)
            if x < owner:
                break
            if x != owner:
                members.setdefault(x, g)
        else:
            yield owner, sorted(members.items())


def _chunk(check, args: tuple) -> tuple[int, Counter, list[dict]]:
    """Run ``check(w, *rest)``, which returns (keys, violations,
    certificate), on every member of the Klein orbits of the chunk
    ``args = (n, first, *rest)``, owner first.  When the owner's check
    returns a certificate, each other member g(owner) is checked with
    ``transport=(g, certificate)``.  Returns the elements checked (a failed
    element counts: it was attempted and reported), the tally keys counted
    and the violations, failures recorded in the order met."""
    n, first, *rest = args
    checked = 0
    tally: Counter[str] = Counter()
    violations: list[dict] = []
    for owner, members in _orbits(n, first):
        source = None
        for x, g in [(owner, None), *members]:
            w = Permutation(x)
            checked += 1
            carried = {} if source is None else {"transport": (g, source)}
            try:
                keys, found, cert = check(w, *rest, **carried)
            except _ElementFailure as fail:
                violations.append(fail.record(w))
                continue
            if g is None:
                source = cert
            tally.update(keys)
            violations.extend(found)
    return checked, tally, violations


def _worker_count(jobs: int, n_chunks: int) -> int:
    """Worker processes for one sweep: ``jobs``, but never more than there
    are chunks to hand out."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_chunks)


def _run_chunks(worker, chunk_args: list, jobs: int) -> list:
    workers = _worker_count(jobs, len(chunk_args))
    if workers > 1:
        # imported here: a serial run or an analyze call loads no pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, chunk_args))
    return [worker(a) for a in chunk_args]


def _sweep(
    theorem: str, ns: range, check, keys: tuple[str, ...], rest: tuple, jobs: int
) -> VerificationReport:
    """Run ``check`` on every element of S_n for n in ``ns``: one
    (n, first value, *rest) chunk of Klein orbits per first value of every
    n, all handed to one pool, largest n first, so the longest chunks do not
    run last while a worker idles.  Violations are sorted by n and one-line
    tuple, those of one element kept in the order found, and each n's
    tallies list ``keys`` in order, zeros included, so the report does not
    depend on ``jobs``.

    Orbit chunks are uneven: chunk (n, 2) holds 36% of S_7 and 34% of S_8,
    so ``jobs`` beyond 3 shortens no sweep, and at ``jobs`` >= 3 a sweep
    whose checks share no work across an orbit waits on that chunk."""
    start = time.perf_counter()
    chunks = [(n, first, *rest) for n in reversed(ns) for first in range(1, n + 1)]
    checked = 0
    violations: list[dict] = []
    totals: dict[int, Counter[str]] = {n: Counter() for n in ns}
    for (n, *_), (count, tally, found) in zip(
        chunks, _run_chunks(functools.partial(_chunk, check), chunks, jobs)
    ):
        checked += count
        totals[n].update(tally)
        violations.extend(found)
    violations.sort(key=lambda v: (v["n"], parse_permutation(v["w"]).images))
    return VerificationReport(
        theorem=theorem,
        n_range=list(ns),
        checked=checked,
        violations=violations,
        wall_time=time.perf_counter() - start,
        tallies={str(n): {key: totals[n][key] for key in keys} for n in ns},
    )


def verify_main(
    n_max: int, sd4_mode: str = "full", jobs: int = 1, force_full: bool = False
) -> VerificationReport:
    """Sweep every w in S_1..S_{n_max} and assert the four self-duality
    predicates agree.  ``sd4_mode`` applies at every n.  In full mode each
    element is refuted by its own rank-1 counts or certification, or
    certified by a bijection verified on its own interval.  ``force_full``
    is accepted and ignored."""
    if not 1 <= n_max <= MAX_SWEEP_DEGREE:
        raise ValueError(f"n_max must be between 1 and {MAX_SWEEP_DEGREE}")
    if sd4_mode not in ("full", "constructive-only"):
        raise ValueError(f"unknown sd4 mode {sd4_mode!r}")
    keys = tuple(key for key, _ in _MAIN_TALLY)
    return _sweep("thm-main", range(1, n_max + 1), _main_checks, keys, (sd4_mode,), jobs)


def verify_topheavy(n_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep every w in S_2..S_{n_max}: the rank inequality
    |P_k| <= |P_{l-k}| on every interval [e, w], at every n; and for smooth
    w of length >= 2, the coatoms' down-degrees majorize the atoms'
    up-degrees, with equal maxima exactly on the six-pattern avoiders (see
    _topheavy_checks).  The ``smooth`` tally counts every smooth w, as in
    verify_main; ``degree_equal`` plus ``degree_strict`` counts those of
    length >= 2.

    The sweep builds no interval.  It shares verify_main's orbit chunks but
    checks every element on its own, so its longest chunk, (n_max, 2), is
    about a third of the work: with ``jobs`` >= 3 it runs slower than an
    even split by first value would (see _sweep)."""
    if not 2 <= n_max <= MAX_SWEEP_DEGREE:
        raise ValueError(f"n_max must be between 2 and {MAX_SWEEP_DEGREE}")
    keys = ("smooth", "degree_equal", "degree_strict")
    return _sweep("thm-topheavy", range(2, n_max + 1), _topheavy_checks, keys, (), jobs)


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
        if is_polished_bruteforce(x, b2):
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
    """Every predicate of interest for one permutation, as a JSON-ready dict.
    ``polished`` is SD3, the assembly of a polished decomposition tried on
    every w as in the sweeps.  The rank sizes come from w by the tableau
    criterion, and the level graphs are built straight from w; the atoms'
    up-degrees and the coatoms' down-degrees are their small sides' degrees.
    [e, w] is built only when its rank profile is symmetric, that is, when
    w is smooth: then the decomposition, when there is one, is the hint that
    certifies self-duality, and the search certifies the rest.  Otherwise
    the profile alone refutes it."""
    from .serialize import decomposition_to_dict

    lw = w.length()
    profile = lower_rank_profile(w.images)
    witness = selfdual_pattern_witness(w)
    out: dict = {
        "permutation": w.one_line(),
        "n": w.n,
        "length": lw,
        "rank_profile": list(profile),
        "smooth": witness is None or witness.pattern.n == 5,
    }
    out["six_avoiding"] = witness is None
    decomp: Optional[PolishedDecomposition]
    try:
        decomp = assemble_decomposition(w)
    except NotPolishedError:
        decomp = None
    out["polished"] = decomp is not None
    out["decomposition"] = None if decomp is None else decomposition_to_dict(decomp)
    out["pattern_witness"] = None if witness is None else {
        "pattern": witness.pattern.one_line(),
        "indices": list(witness.indices),
    }
    if lw >= 2:
        lower, upper = gamma_graphs_direct(w)
        out["gamma_isomorphic"] = bipartite_isomorphic(lower, upper) is not None
        out["degree_extremes"] = [max(lower.small_degrees()), max(upper.small_degrees())]
    else:
        out["gamma_isomorphic"] = True
        out["degree_extremes"] = None
    kind = "refuted"
    if profile_refutation(profile) is None:
        kind = certify_self_dual(build_interval(w), decomp).kind
    out["self_dual"] = kind != "refuted"
    out["self_dual_certificate"] = kind
    return out
