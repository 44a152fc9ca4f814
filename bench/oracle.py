"""Ground truth for the benchmark, independent of the package under test.

Pattern containment is decided here by brute force on plain one-line tuples,
and the census values are frozen from `scripts/census_bruteforce.py`, so no
verdict is ever checked against package output.  The seeded S_8 stream for
`analyze-s8` is drawn here too; the package receives only the tuples.

Run `python3 bench/oracle.py` to recount the frozen S_8 census (about 10 s).
"""

from __future__ import annotations

import hashlib
import itertools
import random

SMOOTH_PATTERNS = ((3, 4, 1, 2), (4, 2, 3, 1))
EXTRA_PATTERNS = ((3, 4, 5, 2, 1), (4, 5, 3, 2, 1), (5, 4, 1, 2, 3), (5, 4, 3, 1, 2))

# Frozen from scripts/census_bruteforce.py: elements of S_n avoiding 3412 and
# 4231, and those avoiding all six patterns.  By the paper's main theorem the
# six-avoiders are exactly the polished and the self-dual elements.
SMOOTH_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 88, 6: 366, 7: 1552}
SIX_AVOIDING_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 84, 6: 322, 7: 1234}

# The three strata of the S_8 stream.
SIX_AVOIDING = "six-avoiding"
SMOOTH_WITH_PATTERN = "smooth-with-pattern"
SINGULAR = "singular"
STRATA = (SIX_AVOIDING, SMOOTH_WITH_PATTERN, SINGULAR)

# Elements of S_8 per stratum and length, counted with `stratum` below over
# all 40,320 elements (4728 + 1924 + 33668).
S8_LENGTH_CENSUS = {
    SIX_AVOIDING: {
        0: 1, 1: 7, 2: 27, 3: 76, 4: 169, 5: 310, 6: 483, 7: 637, 8: 711, 9: 678,
        10: 550, 11: 400, 12: 253, 13: 166, 14: 116, 15: 45, 16: 32, 17: 28,
        18: 20, 19: 4, 20: 4, 21: 2, 22: 4, 23: 4, 28: 1,
    },
    SMOOTH_WITH_PATTERN: {
        7: 8, 8: 36, 9: 86, 10: 158, 11: 220, 12: 258, 13: 234, 14: 194, 15: 200,
        16: 152, 17: 102, 18: 76, 19: 66, 20: 48, 21: 36, 22: 18, 23: 10, 24: 10,
        25: 6, 26: 4, 27: 2,
    },
    SINGULAR: {
        4: 5, 5: 33, 6: 119, 7: 316, 8: 668, 9: 1176, 10: 1785, 11: 2397,
        12: 2939, 13: 3336, 14: 3526, 15: 3491, 16: 3266, 17: 2887, 18: 2397,
        19: 1870, 20: 1363, 21: 923, 22: 580, 23: 329, 24: 164, 25: 70, 26: 23,
        27: 5,
    },
}


def contains(w: tuple[int, ...], p: tuple[int, ...]) -> bool:
    k = len(p)
    for idx in itertools.combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        if all((vals[a] < vals[b]) == (p[a] < p[b]) for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def length(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def down_degree(w: tuple[int, ...]) -> int:
    """Bruhat covers below w: inversions (i, j) with no value of w strictly
    between w(j) and w(i) at a position between them."""
    n = len(w)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if w[i] > w[j] and not any(w[j] < w[k] < w[i] for k in range(i + 1, j))
    )


def stratum(w: tuple[int, ...]) -> str:
    if any(contains(w, p) for p in SMOOTH_PATTERNS):
        return SINGULAR
    if any(contains(w, p) for p in EXTRA_PATTERNS):
        return SMOOTH_WITH_PATTERN
    return SIX_AVOIDING


def expected_tallies(n_max: int) -> dict[str, dict[str, int]]:
    """Per-n tallies a correct `verify_main(n_max)` report must carry."""
    return {
        str(n): {
            "smooth": SMOOTH_COUNTS[n],
            "polished": SIX_AVOIDING_COUNTS[n],
            "self_dual": SIX_AVOIDING_COUNTS[n],
        }
        for n in range(1, n_max + 1)
    }


def length_quotas(per_stratum: int) -> dict[str, dict[int, int]]:
    """Elements to draw per stratum and length: `per_stratum` split over the
    lengths in proportion to the census, by largest remainder.

    Latency grows steeply with length, so a fixed length mix keeps the
    seed from moving the latency percentiles."""
    quotas = {}
    for name, census in S8_LENGTH_CENSUS.items():
        total = sum(census.values())
        exact = {k: per_stratum * c / total for k, c in census.items()}
        q = {k: int(v) for k, v in exact.items()}
        by_remainder = sorted(census, key=lambda k: (q[k] - exact[k], k))
        for k in by_remainder[: per_stratum - sum(q.values())]:
            q[k] += 1
        quotas[name] = {k: v for k, v in q.items() if v}
    return quotas


class StreamSampler:
    """Seeded source of S_8 batches, equal thirds per stratum with a fixed
    length mix, filled by rejection sampling of uniform draws.  Elements are
    distinct within a batch.

    Each slot draws POOL candidates of its stratum and length and keeps the
    middle one by down-degree, which tracks interval size at a fixed length;
    heavy elements then cost about the same whatever the seed."""

    POOL = 5

    def __init__(self, seed: int, per_stratum: int):
        self.rng = random.Random(seed)
        self.quotas = length_quotas(per_stratum)

    def next_batch(self) -> list[tuple[tuple[int, ...], str]]:
        wanted = {
            name: {k: min(self.POOL * q, S8_LENGTH_CENSUS[name][k]) for k, q in quotas.items()}
            for name, quotas in self.quotas.items()
        }
        pools: dict[str, dict[int, list]] = {name: {k: [] for k in wanted[name]} for name in STRATA}
        seen: set[tuple[int, ...]] = set()
        remaining = sum(sum(cells.values()) for cells in wanted.values())
        while remaining:
            w = tuple(self.rng.sample(range(1, 9), 8))
            lw = length(w)
            if w in seen or not any(wanted[name].get(lw) for name in STRATA):
                continue
            name = stratum(w)
            if wanted[name].get(lw):
                wanted[name][lw] -= 1
                pools[name][lw].append(w)
                seen.add(w)
                remaining -= 1
        drawn: dict[str, list[tuple[int, ...]]] = {}
        for name in STRATA:
            drawn[name] = []
            for k, q in self.quotas[name].items():
                pool = sorted(pools[name][k], key=down_degree)
                drawn[name] += [pool[(2 * i + 1) * len(pool) // (2 * q)] for i in range(q)]
            self.rng.shuffle(drawn[name])
        # round-robin over the strata, so every stretch of the stream mixes them
        batch = []
        for row in zip(*(drawn[name] for name in STRATA)):
            batch.extend(zip(row, STRATA))
        return batch


def digest(elements: list[tuple[int, ...]]) -> str:
    text = ",".join("".join(map(str, w)) for w in elements)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    census: dict[str, dict[int, int]] = {name: {} for name in STRATA}
    for w in itertools.permutations(range(1, 9)):
        cell = census[stratum(w)]
        cell[length(w)] = cell.get(length(w), 0) + 1
    print("S_8 census matches the frozen table:", census == S8_LENGTH_CENSUS)
