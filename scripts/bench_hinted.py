#!/usr/bin/env python3
"""Time the hinted (constructive-map) path of self-duality certification:
one part per run, printed as one JSON line.

- s9-sample: 40 six-pattern avoiders of S_9, drawn by shuffling with
  random.Random(SEED) and kept by this script's own brute-force pattern
  check; times build_interval and certify_self_dual with the assembled
  decomposition as hint, in one fresh interpreter;
- main-n7, main-n8: verify_main(n, sd4_mode="constructive-only", jobs=2),
  whose six-avoiders all take the hinted path.

The package is imported from the environment, so point PYTHONPATH at the
checkout to time, and alternate two checkouts to compare them:

    PYTHONPATH=src python3 scripts/bench_hinted.py s9-sample
"""

import argparse
import json
import random
import time
from itertools import combinations

SEED = 9
SAMPLE = 40
SIX_PATTERNS = [(3, 4, 1, 2), (4, 2, 3, 1), (3, 4, 5, 2, 1), (4, 5, 3, 2, 1), (5, 4, 1, 2, 3), (5, 4, 3, 1, 2)]


def contains(w: tuple[int, ...], p: tuple[int, ...]) -> bool:
    k = len(p)
    for idx in combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        if all((vals[a] < vals[b]) == (p[a] < p[b]) for a in range(k) for b in range(a + 1, k)):
            return True
    return False


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


def main_sweep(n: int) -> dict:
    from bruhatdual.harness import verify_main

    start = time.perf_counter()
    report = verify_main(n, sd4_mode="constructive-only", jobs=2)
    return {
        "wall_s": round(time.perf_counter() - start, 3),
        "checked": report.checked,
        "violations": len(report.violations),
    }


PARTS = {"s9-sample": s9_sample, "main-n7": lambda: main_sweep(7), "main-n8": lambda: main_sweep(8)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("part", choices=sorted(PARTS))
    part = ap.parse_args().part
    print(json.dumps({"part": part, **PARTS[part]()}))


if __name__ == "__main__":
    main()
