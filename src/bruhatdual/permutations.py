"""Permutations of {1..n} in one-line notation, with the combinatorics needed
for Bruhat-order work: inversions, descents, support, pattern containment
and minimal inversions.

Conventions:
- One-line notation is 1-based: ``w.images[i-1] == w(i)``.
- Composition is functional, ``(u * v)(i) == u(v(i))``.
- Simple generators are the adjacent transpositions ``s_i = (i, i+1)`` for
  ``i = 1 .. n-1``; multiplying by ``s_i`` on the right swaps positions,
  on the left swaps values.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class ParseError(ValueError):
    """Malformed permutation text."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> w = Permutation((3, 4, 5, 2, 1))
    >>> w(1), w.n, w.length()
    (3, 5, 7)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({self.images})"

    def one_line(self) -> str:
        """Compact one-line string, digits if n <= 9 else comma-separated."""
        if self.n <= 9:
            return "".join(str(v) for v in self.images)
        return ",".join(str(v) for v in self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def identity_like(self) -> Permutation:
        return identity(self.n)

    def simple_indices(self) -> range:
        """Indices of the simple generators of the ambient group."""
        return range(1, self.n)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        """
        >>> Permutation((3, 4, 5, 2, 1)).inverse().one_line()
        '54123'
        """
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def times_simple_right(self, i: int) -> Permutation:
        """Multiply by s_i on the right (swap positions i, i+1)."""
        im = list(self.images)
        im[i - 1], im[i] = im[i], im[i - 1]
        return Permutation(tuple(im))

    def times_simple_left(self, i: int) -> Permutation:
        """Multiply by s_i on the left (swap values i, i+1)."""
        im = list(self.images)
        p, q = im.index(i), im.index(i + 1)
        im[p], im[q] = im[q], im[p]
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

    def left_descents(self) -> frozenset[int]:
        return self.inverse().right_descents()

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
    def down_cover_images(im: tuple[int, ...]) -> list[tuple[int, ...]]:
        """One-line tuples of the elements covered by the permutation ``im``,
        in minimal-inversion order: swap positions i < j whenever
        w(j) < w(i) and no value between them sits at a position between
        them.  Works on raw tuples, so nothing here is validated.

        >>> Permutation.down_cover_images((3, 1, 2))
        [(1, 3, 2), (2, 1, 3)]
        """
        n = len(im)
        out = []
        for i in range(n - 1):
            wi = im[i]
            best = 0  # largest value < wi seen strictly between i and j
            for j in range(i + 1, n):
                wj = im[j]
                if best < wj < wi:
                    best = wj
                    swapped = list(im)
                    swapped[i] = wj
                    swapped[j] = wi
                    out.append(tuple(swapped))
                    if wj == wi - 1:  # no value left between wj and wi
                        break
        return out


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
            if not t or not (t.isdigit() or (t[0] == "-" and t[1:].isdigit())):
                raise ParseError(f"bad token {t!r} in permutation text")
            values.append(int(t))
    else:
        if not text.isdigit():
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

    Plain DFS over index tuples with pruning by partial relative order;
    patterns here never exceed degree 5, so nothing fancier is warranted.
    """
    k = p.n
    if k > w.n:
        return None
    pat = p.images
    im = w.images
    n = w.n
    chosen: list[int] = []

    def extend(start: int) -> Optional[tuple[int, ...]]:
        depth = len(chosen)
        if depth == k:
            return tuple(i + 1 for i in chosen)
        for i in range(start, n - (k - depth) + 1):
            v = im[i]
            ok = all((im[c] < v) == (pat[d] < pat[depth]) for d, c in enumerate(chosen))
            if ok:
                chosen.append(i)
                hit = extend(i + 1)
                if hit is not None:
                    return hit
                chosen.pop()
        return None

    found = extend(0)
    if found is None:
        return None
    return PatternOccurrence(p, found)
