#!/usr/bin/env python3
"""Standalone check of the self-duality certificates that
scripts/snapshot_outputs.py writes to DIR/certify/S1.json .. S6.json and
B3.json.

Deliberately independent of the main package: [e, w], its covers and its
rank counts are computed here straight from definitions, on signed one-line
tuples (a permutation is one without signs).  The simple generators s_i,
i < n, swap positions i and i + 1, and in B_3 s_3 negates the last entry.
Lengths come from a breadth-first search of the Cayley graph, and the
reflections are the conjugates of the generators.  y is covered by x when
y = x t for a reflection t and y is exactly one shorter; [e, w] is
everything reached from w by going down covers, since Bruhat order is
graded with saturated chains.  For every certificate it verifies that

- a pairing is a bijection of [e, w] that reverses every cover;
- a "rank profile ... is asymmetric" refutation names the rank counts of
  [e, w], and they are asymmetric;
- a "degree/rank color multisets ... differ" refutation holds: the
  multiset of (rank, up-degree, down-degree) over [e, w] differs from that
  of the dual, (top rank - rank, down-degree, up-degree);
- no other kind of refutation appears, and each file lists every element of
  its group once (n! for S_n, 48 for B_3).

Run:  python3 scripts/check_certificates.py DIR
"""

import argparse
import json
import pathlib
import sys
from collections import Counter

PROFILE_PREFIX = "rank profile "
PROFILE_SUFFIX = " is asymmetric"
COLORS_DIFFER = "degree/rank color multisets of the interval and its dual differ"


def parse(one_line):
    return tuple(int(v) for v in (one_line.split(",") if "," in one_line else one_line))


def compose(u, v):
    """The product u v of two signed one-line tuples: (u v)(i) = u(v(i)),
    with u(-i) = -u(i)."""
    return tuple(u[a - 1] if a > 0 else -u[-a - 1] for a in v)


def inverse(w):
    out = [0] * len(w)
    for i, v in enumerate(w, 1):
        out[abs(v) - 1] = i if v > 0 else -i
    return tuple(out)


class Group:
    """S_n, or B_n when signed, with its lengths, its reflections and the
    covers of its Bruhat order, as the module docstring defines them."""

    def __init__(self, n, signed):
        e = tuple(range(1, n + 1))
        gens = [e[:i] + (i + 2, i + 1) + e[i + 2 :] for i in range(n - 1)]
        gens += [e[:-1] + (-n,)] if signed else []
        self.length, frontier = {e: 0}, [e]
        while frontier:
            nxt = []
            for w in frontier:
                for x in (compose(w, s) for s in gens):
                    if x not in self.length:
                        self.length[x] = self.length[w] + 1
                        nxt.append(x)
            frontier = nxt
        self.reflections = {compose(compose(g, s), inverse(g)) for g in self.length for s in gens}
        self.covers = {}

    def covered_by(self, w):
        """Every y that w covers."""
        if w not in self.covers:
            ys = (compose(w, t) for t in self.reflections)
            self.covers[w] = [y for y in ys if self.length[y] == self.length[w] - 1]
        return self.covers[w]

    def downset(self, w):
        seen, frontier = {w}, [w]
        while frontier:
            ys = (y for x in frontier for y in self.covered_by(x))
            frontier = [y for y in ys if y not in seen and not seen.add(y)]
        return seen


def check_pairing(group, lower, pairs):
    pairing = dict(pairs)
    if len(pairing) != len(pairs) or set(pairing) != lower or set(pairing.values()) != lower:
        return "pairing is not a bijection of [e, w]"
    for x in lower:
        for y in group.covered_by(x):
            if pairing[x] not in group.covered_by(pairing[y]):
                return f"pairing does not reverse the cover {y} < {x}"
    return None


def check_refutation(group, w, lower, trace):
    top = group.length[w]
    counts = Counter(group.length[x] for x in lower)
    profile = tuple(counts[k] for k in range(top + 1))
    if trace.startswith(PROFILE_PREFIX) and trace.endswith(PROFILE_SUFFIX):
        named = trace[len(PROFILE_PREFIX) : -len(PROFILE_SUFFIX)]
        if named != str(profile):
            return f"trace names rank profile {named}, [e, w] has {profile}"
        if profile == profile[::-1]:
            return f"rank profile {profile} is symmetric"
        return None
    if trace == COLORS_DIFFER:
        up = Counter(y for x in lower for y in group.covered_by(x))
        colors = Counter((group.length[x], up[x], len(group.covered_by(x))) for x in lower)
        dual = Counter((top - r, d, u) for (r, u, d), m in colors.items() for _ in range(m))
        return "color multisets agree" if colors == dual else None
    return f"unknown refutation {trace!r}"


def check_certificate(group, w, lower, cert):
    if cert["kind"] == "refuted":
        if cert["pairing"] is not None:
            return "refutation carries a pairing"
        return check_refutation(group, w, lower, cert["trace"])
    if cert["kind"] not in ("explicit-bijection", "constructive-map"):
        return f"unknown kind {cert['kind']!r}"
    if cert["pairing"] is None:
        return "certificate carries no pairing"
    return check_pairing(group, lower, [tuple(map(parse, p.split())) for p in cert["pairing"]])


def check_file(path, group):
    docs = json.loads(path.read_text())
    problems = []
    if sorted(parse(doc["w"]) for doc in docs) != sorted(group.length):
        problems.append(f"{path.name}: does not list each element of the group once")
    tally = Counter()
    for doc in docs:
        w = parse(doc["w"])
        lower = group.downset(w)
        for path_name in ("search", "hinted"):
            if path_name not in doc:
                continue
            cert = doc[path_name]
            problem = check_certificate(group, w, lower, cert)
            if problem:
                problems.append(f"{path.name}: {doc['w']} {path_name}: {problem}")
            tally[path_name, cert["kind"]] += 1
    return problems, tally


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("snapshot_dir")
    root = pathlib.Path(ap.parse_args().snapshot_dir) / "certify"
    failed = False
    groups = [(f"S{n}", Group(n, signed=False)) for n in range(1, 7)]
    groups.append(("B3", Group(3, signed=True)))
    for name, group in groups:
        problems, tally = check_file(root / f"{name}.json", group)
        counts = ", ".join(f"{p} {k} {c}" for (p, k), c in sorted(tally.items()))
        print(f"{name}: {len(group.length)} elements; {counts}")
        for problem in problems:
            print("  FAIL", problem)
        failed = failed or bool(problems)
    print("FAILED" if failed else "all certificates hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
