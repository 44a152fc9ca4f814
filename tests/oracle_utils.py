"""Independent brute-force oracles for the test suite.

Everything here works on plain one-line tuples with itertools, straight from
definitions, deliberately sharing no code with the package under test.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# frozen regression values, computed by scripts/census_bruteforce.py (n <= 7
# before the package was written); the smooth counts are OEIS A032351
SMOOTH_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 88, 6: 366, 7: 1552, 8: 6652, 9: 28696}
SIX_AVOIDING_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 84, 6: 322, 7: 1234, 8: 4728, 9: 18114}

SMOOTH_PATTERNS = ((3, 4, 1, 2), (4, 2, 3, 1))
SIX_PATTERNS = SMOOTH_PATTERNS + (
    (3, 4, 5, 2, 1),
    (4, 5, 3, 2, 1),
    (5, 4, 1, 2, 3),
    (5, 4, 3, 1, 2),
)


def brute_length(w: tuple[int, ...]) -> int:
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def brute_contains(w: tuple[int, ...], p: tuple[int, ...]) -> bool:
    k = len(p)
    for idx in itertools.combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        if all(
            (vals[a] < vals[b]) == (p[a] < p[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def brute_occurrences(w: tuple[int, ...], p: tuple[int, ...]):
    k = len(p)
    for idx in itertools.combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        if all(
            (vals[a] < vals[b]) == (p[a] < p[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            yield tuple(i + 1 for i in idx)


def brute_avoids_all(w: tuple[int, ...], pats=SIX_PATTERNS) -> bool:
    return not any(brute_contains(w, p) for p in pats)


@lru_cache(maxsize=64)
def brute_interval(top: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """[e, top] as tuples: transitive closure of single-rank-drop
    transposition moves."""
    n = len(top)
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for w in frontier:
            lw = brute_length(w)
            for i in range(n):
                for j in range(i + 1, n):
                    if w[i] > w[j]:
                        v = list(w)
                        v[i], v[j] = v[j], v[i]
                        vt = tuple(v)
                        if brute_length(vt) == lw - 1 and vt not in seen:
                            seen.add(vt)
                            nxt.append(vt)
        frontier = nxt
    return frozenset(seen)


def brute_rank_profile(top: tuple[int, ...]) -> tuple[int, ...]:
    profile = [0] * (brute_length(top) + 1)
    for u in brute_interval(top):
        profile[brute_length(u)] += 1
    return tuple(profile)


def gasharov_rank_profile(w: tuple[int, ...]) -> tuple[int, ...] | None:
    """Rank generating function of [e, w] for smooth w, by Gasharov's
    factorization (Gasharov 1998, JCTA 83); None for singular w.

    When n sits at position d of w, or of w^{-1} (which has the same rank
    generating function), with every later entry smaller than the one
    before, deleting it divides the polynomial by [n - d + 1]_q.  A smooth w
    always admits one of the two deletions.  A deletion keeps every
    occurrence of 3412 and 4231, whose top value is followed by a rise, so
    singular w get stuck.
    """
    poly = [1]
    while len(w) > 1:
        n = len(w)
        inverse = tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))
        for v in (w, inverse):
            tail = v[v.index(n):]
            if all(a > b for a, b in zip(tail, tail[1:])):
                break
        else:
            return None
        factor = len(tail)  # [n - d + 1]_q = 1 + q + ... + q^(n - d)
        poly = [
            sum(poly[i - j] for j in range(factor) if 0 <= i - j < len(poly))
            for i in range(len(poly) + factor - 1)
        ]
        w = tuple(x for x in v if x != n)
    return tuple(poly)


def brute_leq(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    return u in brute_interval(w)


def all_one_lines(n: int):
    return itertools.permutations(range(1, n + 1))
