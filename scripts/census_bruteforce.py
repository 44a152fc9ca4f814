#!/usr/bin/env python3
"""Standalone brute-force census of pattern-avoidance classes.

Deliberately independent of the main package: everything here is computed
straight from definitions with itertools, so the numbers it prints can be
frozen into the regression tests as external ground truth.

Run:  python3 scripts/census_bruteforce.py
"""

from itertools import combinations, permutations

SMOOTH_PATTERNS = [(3, 4, 1, 2), (4, 2, 3, 1)]
EXTRA_PATTERNS = [(3, 4, 5, 2, 1), (4, 5, 3, 2, 1), (5, 4, 1, 2, 3), (5, 4, 3, 1, 2)]
SIX_PATTERNS = SMOOTH_PATTERNS + EXTRA_PATTERNS


def contains(w, p):
    k = len(p)
    for idx in combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        if all((vals[a] < vals[b]) == (p[a] < p[b]) for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def avoids_all(w, pats):
    return not any(contains(w, p) for p in pats)


def compose(u, v):
    # (u*v)(i) = u(v(i)), one-line 1-based tuples
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def main():
    print("n   total  smooth  six-avoiding")
    for n in range(1, 10):
        total = smooth = six = 0
        for w in permutations(range(1, n + 1)):
            total += 1
            if avoids_all(w, SMOOTH_PATTERNS):
                smooth += 1
                if avoids_all(w, EXTRA_PATTERNS):
                    six += 1
        print(f"{n}  {total:>6}  {smooth:>6}  {six:>6}")

    print()
    print("smooth-but-not-six elements of S_5:")
    for w in permutations(range(1, 6)):
        if avoids_all(w, SMOOTH_PATTERNS) and not avoids_all(w, EXTRA_PATTERNS):
            print("  ", "".join(map(str, w)))

    # Product of the five one-line factors from the worked example in S_9,
    # to settle which of the two printed strings is correct.
    factors = [
        (1, 2, 3, 4, 5, 6, 7, 9, 8),
        (1, 5, 4, 3, 2, 8, 7, 6, 9),
        (1, 2, 3, 5, 4, 6, 7, 8, 9),
        (1, 2, 3, 4, 5, 7, 6, 8, 9),
        (1, 2, 3, 7, 6, 5, 4, 8, 9),
    ]
    prod = factors[0]
    for f in factors[1:]:
        prod = compose(prod, f)
    print()
    print("five-factor product:", "".join(map(str, prod)), " length:", inversions(prod))

    # Rank profile of [e, 34521] by brute membership (dominance-free: direct
    # transitive closure of the cover relation inside S_5).
    n = 5
    elems = list(permutations(range(1, n + 1)))
    lens = {w: inversions(w) for w in elems}

    def covers_down(w):
        out = []
        lw = lens[w]
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] > w[j]:
                    v = list(w)
                    v[i], v[j] = v[j], v[i]
                    v = tuple(v)
                    if lens[v] == lw - 1:
                        out.append(v)
        return out

    top = (3, 4, 5, 2, 1)
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for w in frontier:
            for v in covers_down(w):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    profile = [0] * (lens[top] + 1)
    for w in seen:
        profile[lens[w]] += 1
    print()
    print("rank profile of [e,34521]:", tuple(profile))
    coatoms = sorted("".join(map(str, v)) for v in covers_down(top))
    print("coatoms of 34521:", coatoms)


if __name__ == "__main__":
    main()
