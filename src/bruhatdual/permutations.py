"""Permutations of {1..n} in one-line notation, with the combinatorics needed
for Bruhat-order work: inversions, descents, support, pattern containment,
minimal inversions, and the tableau criterion with the rank sizes of [e, w]
it gives.

`CoxeterElement` is the frozen-dataclass base of `Permutation` and
`signed.SignedPermutation`, with the group operations both share (the
`intervals` docstring lists them).  `Permutation` supplies validation,
one_line, simple_indices, times_simple_right, length, right_descents,
support, its cover kernel down_cover_ids, times_transposition_right and
minimal_inversions.

Conventions:
- One-line notation is 1-based: ``w.images[i-1] == w(i)``.
- Composition is functional, ``(u * v)(i) == u(v(i))``.
- Simple generators are the adjacent transpositions ``s_i = (i, i+1)`` for
  ``i = 1 .. n-1``; multiplying by ``s_i`` on the right swaps positions,
  on the left swaps values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Self


class ParseError(ValueError):
    """Malformed permutation text."""


@dataclass(frozen=True)
class CoxeterElement:
    """An element of S_n or B_n in one-line (window) notation, with the group
    operations the two classes share.  A subclass validates ``images`` in
    ``__post_init__`` and supplies the operations that depend on its group."""

    images: tuple[int, ...]

    def __post_init__(self):
        raise NotImplementedError("each element class validates its own images")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """w(i), with w(-i) = -w(i)."""
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.images})"

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def identity_like(self) -> Self:
        return type(self)(tuple(range(1, self.n + 1)))

    def __mul__(self, other: Self) -> Self:
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        u = self.images
        return type(self)(tuple(u[j - 1] if j > 0 else -u[-j - 1] for j in other.images))

    def inverse(self) -> Self:
        """
        >>> Permutation((3, 4, 5, 2, 1)).inverse().one_line()
        '54123'
        """
        inv = [0] * self.n
        for i, v in enumerate(self.images, 1):
            inv[abs(v) - 1] = i if v > 0 else -i
        return type(self)(tuple(inv))

    def times_simple_left(self, i: int) -> Self:
        """Multiply by s_i on the left (act on values): s_i w = (w^-1 s_i)^-1."""
        return self.inverse().times_simple_right(i).inverse()

    def left_descents(self) -> frozenset[int]:
        return self.inverse().right_descents()

    @classmethod
    def down_cover_images(cls, im: tuple[int, ...]) -> list[tuple[int, ...]]:
        """One-line tuples of the elements that ``im`` covers, in the order of
        the class's cover kernel ``down_cover_ids``, listed without interning.

        >>> Permutation.down_cover_images((3, 1, 2))
        [(1, 3, 2), (2, 1, 3)]
        """
        images: list[tuple[int, ...]] = []
        cls.down_cover_ids(im, None, images)
        return images


class Permutation(CoxeterElement):
    """A permutation of {1..n} in one-line notation.

    >>> w = Permutation((3, 4, 5, 2, 1))
    >>> w(1), w.n, w.length()
    (3, 5, 7)
    """

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    def one_line(self) -> str:
        """Compact one-line string, digits if n <= 9 else comma-separated."""
        if self.n <= 9:
            return "".join(str(v) for v in self.images)
        return ",".join(str(v) for v in self.images)

    def simple_indices(self) -> range:
        """Indices of the simple generators of the ambient group."""
        return range(1, self.n)

    def times_simple_right(self, i: int) -> Permutation:
        """Multiply by s_i on the right (swap positions i, i+1)."""
        im = list(self.images)
        im[i - 1], im[i] = im[i], im[i - 1]
        return Permutation(tuple(im))

    def times_transposition_right(self, i: int, j: int) -> Permutation:
        im = list(self.images)
        im[i - 1], im[j - 1] = im[j - 1], im[i - 1]
        return Permutation(tuple(im))

    # -- length, descents, support -------------------------------------------

    def length(self) -> int:
        """Number of inversion pairs (i < j with w(i) > w(j)).

        >>> Permutation((4, 3, 2, 1)).length()
        6
        """
        im = self.images
        n = self.n
        return sum(1 for i in range(n) for j in range(i + 1, n) if im[i] > im[j])

    def right_descents(self) -> frozenset[int]:
        im = self.images
        return frozenset(i + 1 for i in range(self.n - 1) if im[i] > im[i + 1])

    def support(self) -> frozenset[int]:
        """Simple generators appearing in any reduced expression.

        s_i lies in the support exactly when w does not stabilize {1..i}.
        """
        seen_max = 0
        out = []
        for i in range(1, self.n):
            seen_max = max(seen_max, self.images[i - 1])
            if seen_max != i:
                out.append(i)
        return frozenset(out)

    # -- cover moves -----------------------------------------------------------

    def minimal_inversions(self) -> list[tuple[int, int]]:
        """Inversions (i, j) with no straddling value in between; multiplying
        by t_ij on the right steps down one rank in Bruhat order.  Read off
        down_cover_images: each cover differs from w at exactly i and j.

        >>> Permutation((3, 4, 5, 2, 1)).minimal_inversions()
        [(1, 4), (2, 4), (3, 4), (4, 5)]
        """
        im = self.images
        return [
            tuple(k + 1 for k in range(self.n) if v[k] != im[k])
            for v in self.down_cover_images(im)
        ]

    @staticmethod
    def down_cover_ids(
        im: tuple[int, ...], ids: Optional[dict[tuple[int, ...], int]], images: list[tuple[int, ...]]
    ) -> tuple[int, ...]:
        """The cover kernel of S_n: the ids of the permutations that ``im``
        covers, in minimal-inversion order.  A cover swaps positions i < j
        whenever w(j) < w(i) and no value between them sits at a position
        between them.  Each cover is interned as it is found: looked up in
        ``ids`` once, and on a miss given the id len(images) and appended to
        ``images``.  With ``ids`` None every cover is appended and the result
        is empty.  Works on raw tuples, so nothing here is validated.

        >>> images = [(3, 1, 2), (2, 1, 3)]
        >>> Permutation.down_cover_ids(images[0], {(3, 1, 2): 0, (2, 1, 3): 1}, images)
        (2, 1)
        >>> images
        [(3, 1, 2), (2, 1, 3), (1, 3, 2)]
        """
        swapped = list(im)  # im with positions i and j swapped, restored after each cover
        found = []
        for i, later in enumerate(_later_positions(len(im))):
            wi = im[i]
            best = 0  # largest value < wi seen strictly between i and j
            for j in later:
                wj = im[j]
                if best < wj < wi:
                    best = wj
                    swapped[i] = wj
                    swapped[j] = wi
                    y = tuple(swapped)
                    swapped[j] = wj
                    if ids is None:
                        images.append(y)
                    else:
                        g = ids.get(y)
                        if g is None:
                            g = ids[y] = len(images)
                            images.append(y)
                        found.append(g)
                    if wj == wi - 1:  # no value left between wj and wi
                        break
            swapped[i] = wi
        return tuple(found)


@functools.cache
def _later_positions(n: int) -> tuple[tuple[int, ...], ...]:
    """For each position i < n - 1 of an n-tuple, the positions after it, in
    order: the cover kernel's scan, built once per n."""
    return tuple(tuple(range(i + 1, n)) for i in range(n - 1))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def tableau_leq(u: tuple[int, ...], w: tuple[int, ...], prefixes: Iterable[int]) -> bool:
    """The tableau criterion for Bruhat order on S_n (Bjorner-Brenti,
    Thm 2.6.3), on one-line tuples and at the given prefix lengths: every
    sorted prefix of u is entrywise at most the sorted prefix of w of the
    same length.  Checked at every length 1..n-1 it decides u <= w; a caller
    may pass fewer lengths when u's other prefixes are known to pass.

    >>> tableau_leq((2, 1, 3), (3, 1, 2), range(1, 3))
    True
    >>> tableau_leq((2, 3, 1), (3, 1, 2), range(1, 3))
    False
    """
    return all(all(map(operator.le, sorted(u[:k]), sorted(w[:k]))) for k in prefixes)


def lower_rank_profile(im: tuple[int, ...]) -> tuple[int, ...]:
    """The rank sizes |P_0|, ..., |P_l| of [e, w], read off w's one-line
    tuple without building the interval.

    By the tableau criterion, u <= w exactly when, for every k, the set of
    u's first k values lies Gale-below w's: for every threshold j it holds
    at most as many values >= j.  A DP over those prefix sets, as bitmasks
    (bit v for value v), sums q^l(u) over u <= w.  Given a valid set of
    size k - 1, adding a value v <= w(k) keeps it valid; adding v > w(k)
    does unless some threshold j in (w(k), v] finds the set already holding
    as many values >= j as w(1..k-1).  Placing v at position k adds the
    inversions with the values in the set above v.  Each polynomial is one
    int, coefficient i in field i; no coefficient exceeds n!, so a field
    n!.bit_length() bits wide never carries.

    >>> lower_rank_profile((3, 4, 1, 2))
    (1, 3, 5, 4, 1)
    >>> lower_rank_profile((1, 2))
    (1,)
    """
    n = len(im)
    width = math.factorial(n).bit_length()
    above_w = [0] * (n + 2)  # above_w[j]: values >= j among w(1..k-1)
    layer = {0: 1}  # prefix-set mask -> its polynomial
    for wk in im:
        grown: dict[int, int] = {}
        for mask, poly in layer.items():
            for v in range(1, n + 1):
                above = (mask >> v).bit_count()  # values >= v in the set
                if v > wk and above == above_w[v]:
                    break  # threshold v is tight: no larger value fits either
                bit = 1 << v
                if not mask & bit:
                    key = mask | bit
                    grown[key] = grown.get(key, 0) + (poly << width * above)
        layer = grown
        for j in range(1, wk + 1):
            above_w[j] += 1
    (poly,) = layer.values()
    field = (1 << width) - 1
    sizes = []
    while poly:
        sizes.append(poly & field)
        poly >>= width
    return tuple(sizes)


def inverse_indices(x: tuple[int, ...]) -> tuple[int, ...]:
    """The 0-based positions of x's entries in increasing order of value:
    the inverse of a 0-based tuple, and that of a one-line tuple with each
    entry less 1.

    >>> inverse_indices((3, 1, 2))
    (1, 2, 0)
    """
    return tuple(sorted(range(len(x)), key=x.__getitem__))


def inverse_images(x: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line tuple of x^-1.

    >>> inverse_images((3, 4, 5, 2, 1))
    (5, 4, 1, 2, 3)
    """
    return tuple([i + 1 for i in inverse_indices(x)])


def w0_conjugate_images(x: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line tuple of w0 x w0: positions and values both reversed.

    >>> w0_conjugate_images((2, 3, 1))
    (3, 1, 2)
    """
    top = len(x) + 1
    return tuple([top - v for v in reversed(x)])


def inverse_w0_conjugate_images(x: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line tuple of w0 x^-1 w0."""
    return w0_conjugate_images(inverse_images(x))


# The three involutions of the Klein group generated by inversion and
# conjugation by w0, on one-line tuples; each is an automorphism of Bruhat
# order (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.3), so it maps
# [e, x] onto [e, g(x)].
KLEIN_INVOLUTIONS = (inverse_images, w0_conjugate_images, inverse_w0_conjugate_images)


def young_windows(gens: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Position slices [lo, hi) (0-based) of the Young subgroup of S_n
    generated by ``gens``: a run a..b of consecutive generators moves
    positions a..b+1.

    >>> young_windows({1, 2, 4})
    ((0, 3), (3, 5))
    """
    out: list[tuple[int, int]] = []
    for i in sorted(gens):
        if out and out[-1][1] == i:
            out[-1] = (out[-1][0], i + 1)
        else:
            out.append((i - 1, i + 1))
    return tuple(out)


def young_reversal(n: int, gens: Iterable[int]) -> tuple[int, ...]:
    """w_0 of the Young subgroup of S_n generated by ``gens``, as a 0-based
    tuple r with each window reversed.  For a one-line tuple x,
    ``tuple(x[j] for j in r)`` is x w_0 (positions reversed) and
    ``tuple(r[v - 1] + 1 for v in x)`` is w_0 x (values reversed).

    >>> young_reversal(5, {1, 2, 4})
    (2, 1, 0, 4, 3)
    """
    im = list(range(n))
    for lo, hi in young_windows(gens):
        im[lo:hi] = im[lo:hi][::-1]
    return tuple(im)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    for im in itertools.permutations(range(1, n + 1)):
        yield Permutation(im)


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, either a digit string (n <= 9) or
    comma-separated integers.

    >>> parse_permutation("34521").images
    (3, 4, 5, 2, 1)
    >>> parse_permutation("1,2,3").images
    (1, 2, 3)
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation text")
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
        values = []
        for t in tokens:
            if not t or not (t.isdecimal() or (t[0] == "-" and t[1:].isdecimal())):
                raise ParseError(f"bad token {t!r} in permutation text")
            values.append(int(t))
    else:
        if not text.isdecimal():
            raise ParseError(f"bad token {text!r}: expected digits or comma-separated integers")
        values = [int(c) for c in text]
    n = len(values)
    for v in values:
        if not 1 <= v <= n:
            raise ParseError(f"value {v} out of range 1..{n}")
    if len(set(values)) != n:
        dup = next(v for v in values if values.count(v) > 1)
        raise ParseError(f"repeated value {dup}: input is not a bijection")
    return Permutation(tuple(values))


# -- pattern containment -------------------------------------------------------


@dataclass(frozen=True)
class PatternOccurrence:
    """An occurrence of ``pattern`` in some permutation at ``indices``
    (strictly increasing positions)."""

    pattern: Permutation
    indices: tuple[int, ...]


def contains_pattern(w: Permutation, p: Permutation) -> Optional[PatternOccurrence]:
    """Lexicographically least occurrence of p in w, or None if w avoids p.

    An iterative scan over positions, tried in increasing order at each
    depth, backing up when a depth runs out of room.  The pattern's order
    relations are compiled once: an entry fits at depth d when it lies
    strictly between the entries chosen at the depths nearest to p's d-th
    value from below and above, so each candidate costs two comparisons.

    >>> contains_pattern(Permutation((4, 5, 3, 2, 1)), Permutation((3, 4, 2, 1))).indices
    (1, 2, 3, 4)
    """
    im = w.images
    n, k = len(im), p.n
    if k > n:
        return None
    bounds = _pattern_bounds(p.images)
    chosen = [0] * k  # positions picked at depths 0 .. depth-1
    values = [0] * k
    depth, i = 0, 0
    while depth < k:
        lo, hi = bounds[depth]
        floor = values[lo] if lo >= 0 else 0
        ceil = values[hi] if hi >= 0 else n + 1
        last = n - k + depth  # leave room for the deeper entries
        while i <= last and not floor < im[i] < ceil:
            i += 1
        if i > last:
            if not depth:
                return None
            depth -= 1
            i = chosen[depth] + 1
            continue
        chosen[depth], values[depth] = i, im[i]
        depth += 1
        i += 1
    return PatternOccurrence(p, tuple(c + 1 for c in chosen))


@functools.lru_cache(maxsize=64)
def _pattern_bounds(pat: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Per depth d, the earlier depths whose values in ``pat`` are nearest
    below and above pat[d], or -1 where there is none."""
    out = []
    for d, v in enumerate(pat):
        below = [c for c in range(d) if pat[c] < v]
        above = [c for c in range(d) if pat[c] > v]
        out.append((
            max(below, key=pat.__getitem__) if below else -1,
            min(above, key=pat.__getitem__) if above else -1,
        ))
    return tuple(out)
