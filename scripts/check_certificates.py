#!/usr/bin/env python3
"""Standalone check of the S_n self-duality certificates that
scripts/snapshot_outputs.py writes to DIR/certify/S1.json .. S6.json.

Deliberately independent of the main package: [e, w], its covers and its
rank counts are computed here straight from definitions.  y is covered by x
when the two are one transposition apart and x has exactly one inversion
more; [e, w] is everything reached from w by going down covers, since
Bruhat order is graded with saturated chains.  For every certificate it
verifies that

- a pairing is a bijection of [e, w] that reverses every cover;
- a "rank profile ... is asymmetric" refutation names the rank counts of
  [e, w], and they are asymmetric;
- a "degree/rank color multisets ... differ" refutation holds: the
  multiset of (rank, up-degree, down-degree) over [e, w] differs from that
  of the dual, (top rank - rank, down-degree, up-degree);
- no other kind of refutation appears, and each file covers all of S_n.

Run:  python3 scripts/check_certificates.py DIR
"""

import argparse
import json
import pathlib
import sys
from collections import Counter
from itertools import combinations, permutations

PROFILE_PREFIX = "rank profile "
PROFILE_SUFFIX = " is asymmetric"
COLORS_DIFFER = "degree/rank color multisets of the interval and its dual differ"


def parse(one_line):
    return tuple(int(v) for v in (one_line.split(",") if "," in one_line else one_line))


def one_line(w):
    return ("," if len(w) > 9 else "").join(map(str, w))


def inversions(w):
    return sum(1 for i, j in combinations(range(len(w)), 2) if w[i] > w[j])


def swap(w, i, j):
    x = list(w)
    x[i], x[j] = x[j], x[i]
    return tuple(x)


COVERED_BY = {}


def covered_by(w):
    """Every y that w covers: one transposition apart, one inversion fewer."""
    if w not in COVERED_BY:
        k = inversions(w)
        ys = (swap(w, i, j) for i, j in combinations(range(len(w)), 2) if w[i] > w[j])
        COVERED_BY[w] = [y for y in ys if inversions(y) == k - 1]
    return COVERED_BY[w]


def downset(w):
    seen, frontier = {w}, [w]
    while frontier:
        frontier = [y for x in frontier for y in covered_by(x) if y not in seen and not seen.add(y)]
    return seen


def check_pairing(w, lower, pairs):
    pairing = dict(pairs)
    if len(pairing) != len(pairs) or set(pairing) != lower or set(pairing.values()) != lower:
        return "pairing is not a bijection of [e, w]"
    for x in lower:
        for y in covered_by(x):
            if pairing[x] not in covered_by(pairing[y]):
                return f"pairing does not reverse the cover {one_line(y)} < {one_line(x)}"
    return None


def check_refutation(w, lower, trace):
    top = inversions(w)
    counts = Counter(map(inversions, lower))
    profile = tuple(counts[k] for k in range(top + 1))
    if trace.startswith(PROFILE_PREFIX) and trace.endswith(PROFILE_SUFFIX):
        named = trace[len(PROFILE_PREFIX) : -len(PROFILE_SUFFIX)]
        if named != str(profile):
            return f"trace names rank profile {named}, [e, w] has {profile}"
        if profile == profile[::-1]:
            return f"rank profile {profile} is symmetric"
        return None
    if trace == COLORS_DIFFER:
        up = Counter(y for x in lower for y in covered_by(x))
        colors = Counter((inversions(x), up[x], len(covered_by(x))) for x in lower)
        dual = Counter((top - r, d, u) for (r, u, d), m in colors.items() for _ in range(m))
        return "color multisets agree" if colors == dual else None
    return f"unknown refutation {trace!r}"


def check_certificate(w, lower, cert):
    if cert["kind"] == "refuted":
        if cert["pairing"] is not None:
            return "refutation carries a pairing"
        return check_refutation(w, lower, cert["trace"])
    if cert["kind"] not in ("explicit-bijection", "constructive-map"):
        return f"unknown kind {cert['kind']!r}"
    if cert["pairing"] is None:
        return "certificate carries no pairing"
    return check_pairing(w, lower, [tuple(map(parse, p.split())) for p in cert["pairing"]])


def check_file(path, n):
    docs = json.loads(path.read_text())
    problems = []
    if sorted(parse(doc["w"]) for doc in docs) != list(permutations(range(1, n + 1))):
        problems.append(f"{path.name}: does not list each element of S_{n} once")
    tally = Counter()
    for doc in docs:
        w = parse(doc["w"])
        lower = downset(w)
        for path_name in ("search", "hinted"):
            if path_name not in doc:
                continue
            cert = doc[path_name]
            problem = check_certificate(w, lower, cert)
            if problem:
                problems.append(f"{path.name}: {doc['w']} {path_name}: {problem}")
            tally[path_name, cert["kind"]] += 1
    return problems, tally


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("snapshot_dir")
    root = pathlib.Path(ap.parse_args().snapshot_dir) / "certify"
    failed = False
    for n in range(1, 7):
        problems, tally = check_file(root / f"S{n}.json", n)
        print(f"S{n}: " + ", ".join(f"{p} {k} {c}" for (p, k), c in sorted(tally.items())))
        for problem in problems:
            print("  FAIL", problem)
        failed = failed or bool(problems)
    print("FAILED" if failed else "all certificates hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
