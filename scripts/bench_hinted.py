#!/usr/bin/env python3
"""Time the hinted (constructive-map) path of self-duality certification
and the cover graph under it: one part per run, printed as one JSON line.

- s9-sample: 40 six-pattern avoiders of S_9, drawn by shuffling with
  random.Random(SEED) and kept by the package-free brute-force pattern
  check of scripts/census_bruteforce.py; times build_interval and
  certify_self_dual with the assembled decomposition as hint, in one fresh
  interpreter;
- s8-closure: build_interval of S_8's w0 from an empty cover graph, in one
  fresh interpreter: the cover kernel run on every node of S_8 once;
- s8-profile: permutations.lower_rank_profile on every element of S_8, in
  one fresh interpreter, then the profiles of 200 of them, drawn with
  random.Random(PROFILE_SEED), against rank_profile(build_interval(w));
- main-n7, main-n8: verify_main(n, sd4_mode="constructive-only", jobs=2),
  whose six-avoiders all take the hinted path;
- s9-uniform: 2,000 uniform elements of S_9, drawn with random.Random(5);
  runs harness._sd_predicates(w, "constructive-only") on each, keeping its
  row of predicates (that mode makes no certificate), in one fresh
  interpreter, with a timer around each stage it calls, and gives the
  mean time per element for the six-pattern avoiders and for the rest, the
  per-element cost of an exhaustive constructive-only S_9 sweep.

The script exits 1 when a part's result is wrong: an s9-sample certificate
that is not constructive; an s8-closure graph that did not start empty or
does not hold the 40,320 elements of S_8 and their 341,136 covers; an
s8-profile run whose asymmetric profiles are not exactly the 33,668
singular elements of S_8, or whose sample differs from the interval; a main
sweep with violations, or whose `checked` is not the sum of k! for
k = 1..n; an s9-uniform row whose SD1-SD3, and SD4 where it is set,
disagree.

The package is imported from the environment, so point PYTHONPATH at the
checkout to time, and alternate two checkouts to compare them:

    PYTHONPATH=src python3 scripts/bench_hinted.py s9-sample
"""

import argparse
import itertools
import json
import math
import random
import sys
import time
from collections import Counter

from census_bruteforce import SIX_PATTERNS, contains

SEED = 9
SAMPLE = 40


def six_avoiders(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    found: list[tuple[int, ...]] = []
    while len(found) < count:
        w = list(range(1, n + 1))
        rng.shuffle(w)
        if not any(contains(tuple(w), p) for p in SIX_PATTERNS) and tuple(w) not in found:
            found.append(tuple(w))
    return found


def s9_sample() -> dict:
    from bruhatdual.duality import certify_self_dual
    from bruhatdual.intervals import build_interval
    from bruhatdual.permutations import Permutation
    from bruhatdual.polished import assemble_decomposition

    ws = [Permutation(w) for w in six_avoiders(9, SAMPLE, SEED)]
    decomps = [assemble_decomposition(w) for w in ws]
    start = time.perf_counter()
    intervals = [build_interval(w) for w in ws]
    built = time.perf_counter()
    certs = [certify_self_dual(iv, d) for iv, d in zip(intervals, decomps)]
    done = time.perf_counter()
    return {
        "elements": len(ws),
        "build_interval_s": round(built - start, 4),
        "hinted_s": round(done - built, 4),
        "mean_size": round(sum(iv.size for iv in intervals) / len(ws), 1),
        "all_constructive": all(c.kind == "constructive-map" for c in certs),
    }


S8_ELEMENTS = 40320
S8_COVERS = 341136  # Bruhat covers in S_8, as the brute-force tests/oracle_utils.brute_covers counts them


def s8_closure() -> dict:
    from bruhatdual import intervals
    from bruhatdual.permutations import Permutation

    empty = Permutation not in intervals._COVER_GRAPHS
    start = time.perf_counter()
    intervals.build_interval(Permutation(tuple(range(8, 0, -1))))
    elapsed = time.perf_counter() - start
    graph = intervals._COVER_GRAPHS[Permutation]
    return {
        "build_interval_s": round(elapsed, 4),
        "started_empty": empty,
        "nodes": len(graph.images),
        "covers": sum(map(len, graph.covers)),
    }


S8_SINGULAR = 33668  # 40,320 less the 6,652 smooth elements of S_8 (OEIS A032351)
PROFILE_SEED = 8
PROFILE_SAMPLE = 200


def s8_profile() -> dict:
    from bruhatdual.intervals import build_interval, rank_profile
    from bruhatdual.permutations import Permutation, lower_rank_profile

    ws = list(itertools.permutations(range(1, 9)))
    start = time.perf_counter()
    profiles = [lower_rank_profile(w) for w in ws]
    elapsed = time.perf_counter() - start
    sample = random.Random(PROFILE_SEED).sample(range(len(ws)), PROFILE_SAMPLE)
    return {
        "profile_s": round(elapsed, 4),
        "us_per_element": round(1e6 * elapsed / len(ws), 1),
        "asymmetric": sum(p != p[::-1] for p in profiles),
        "sample_mismatches": sum(
            profiles[i] != rank_profile(build_interval(Permutation(ws[i]))) for i in sample
        ),
    }


def main_sweep(n: int) -> dict:
    from bruhatdual.harness import verify_main

    start = time.perf_counter()
    report = verify_main(n, sd4_mode="constructive-only", jobs=2)
    return {
        "wall_s": round(time.perf_counter() - start, 3),
        "checked": report.checked,
        "violations": len(report.violations),
    }


UNIFORM_SEED = 5
UNIFORM_SAMPLE = 2000
# the stages harness._sd_predicates calls, as names in the harness module
SD_STAGES = (
    "rank_one_counts",
    "gamma_graphs_direct",
    "bipartite_isomorphic",
    "selfdual_pattern_witness",
    "assemble_decomposition",
    "build_interval",
    "certify_self_dual",
)
SD_KEYS = ("sd1_gamma_iso", "sd2_patterns", "sd3_polished", "sd4_self_dual")


def s9_uniform() -> dict:
    from bruhatdual import harness
    from bruhatdual.permutations import Permutation

    busy: Counter[str] = Counter()

    def timed(stage, fn):
        def run(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                busy[stage] += time.perf_counter() - start

        return run

    for stage in SD_STAGES:
        setattr(harness, stage, timed(stage, getattr(harness, stage)))
    rng = random.Random(UNIFORM_SEED)
    ws = []
    for _ in range(UNIFORM_SAMPLE):
        w = list(range(1, 10))
        rng.shuffle(w)
        ws.append(Permutation(tuple(w)))
    spent = {True: [], False: []}  # six-avoiding or not: per-element seconds
    disagreeing = 0
    for w in ws:
        start = time.perf_counter()
        row, _ = harness._sd_predicates(w, "constructive-only")
        spent[row["sd2_patterns"]].append(time.perf_counter() - start)
        # SD4 is None where constructive-only mode leaves it unset
        disagreeing += len({row[key] for key in SD_KEYS} - {None}) > 1
    total = sum(map(sum, spent.values()))
    return {
        "elements": len(ws),
        "six_avoiding": len(spent[True]),
        "total_s": round(total, 3),
        "ms_per_element": round(1000 * total / len(ws), 3),
        "ms_per_six_avoider": round(1000 * sum(spent[True]) / len(spent[True]), 3),
        "ms_per_other": round(1000 * sum(spent[False]) / len(spent[False]), 3),
        "stage_s": {stage: round(busy[stage], 3) for stage in SD_STAGES},
        "disagreeing": disagreeing,
    }


def sweep_correct(n: int):
    expected = sum(math.factorial(k) for k in range(1, n + 1))
    return lambda r: r["violations"] == 0 and r["checked"] == expected


# part -> (run, whether its result is correct)
PARTS = {
    "s9-sample": (s9_sample, lambda r: r["all_constructive"]),
    "s8-closure": (
        s8_closure,
        lambda r: r["started_empty"] and (r["nodes"], r["covers"]) == (S8_ELEMENTS, S8_COVERS),
    ),
    "s8-profile": (
        s8_profile,
        lambda r: r["asymmetric"] == S8_SINGULAR and r["sample_mismatches"] == 0,
    ),
    "s9-uniform": (s9_uniform, lambda r: r["disagreeing"] == 0),
    "main-n7": (lambda: main_sweep(7), sweep_correct(7)),
    "main-n8": (lambda: main_sweep(8), sweep_correct(8)),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("part", choices=sorted(PARTS))
    part = ap.parse_args().part
    run, correct = PARTS[part]
    result = run()
    print(json.dumps({"part": part, **result}))
    if not correct(result):
        sys.exit(f"{part}: wrong result")


if __name__ == "__main__":
    main()
