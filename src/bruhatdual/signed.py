"""Signed permutations (hyperoctahedral groups B_n) and a small Coxeter
presentation covering the two types this package works in.  A presentation
names its group and answers the Dynkin-diagram queries the polished block
data needs: in both types the diagram is the path 1 - 2 - ... - rank.

Generator conventions match the relations (s_1 s_2)^3 = e, (s_2 s_3)^4 = e:
s_i for i < n is the adjacent transposition of positions (i, i+1) and s_n is
the sign change at the last position, so the label-4 diagram edge sits at the
s_n end of the path.  Right multiplication acts on positions, left
multiplication on values, and (u * v)(i) = u(v(i)) with u(-x) = -u(x).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Union

from .permutations import Permutation, identity as perm_identity


@dataclass(frozen=True)
class SignedPermutation:
    """Window notation: images[i-1] = w(i), absolute values a permutation of
    1..n, each entry carrying its own sign."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise ValueError(f"not a signed permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if i < 0:
            return -self.images[-i - 1]
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"SignedPermutation({self.images})"

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def identity_like(self) -> SignedPermutation:
        return signed_identity(self.n)

    def simple_indices(self) -> range:
        return range(1, self.n + 1)

    # -- group operations ------------------------------------------------------

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return SignedPermutation(tuple(self(v) for v in other.images))

    def inverse(self) -> SignedPermutation:
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            if v > 0:
                inv[v - 1] = i + 1
            else:
                inv[-v - 1] = -(i + 1)
        return SignedPermutation(tuple(inv))

    def times_simple_right(self, i: int) -> SignedPermutation:
        im = list(self.images)
        if i == self.n:
            im[-1] = -im[-1]
        else:
            im[i - 1], im[i] = im[i], im[i - 1]
        return SignedPermutation(tuple(im))

    def times_simple_left(self, i: int) -> SignedPermutation:
        def act(v: int) -> int:
            a = abs(v)
            if i == self.n:
                return -v if a == self.n else v
            if a == i:
                return (i + 1) * (1 if v > 0 else -1)
            if a == i + 1:
                return i * (1 if v > 0 else -1)
            return v

        return SignedPermutation(tuple(act(v) for v in self.images))

    # -- length and descents -----------------------------------------------------

    def length(self) -> int:
        return _signed_length(self.images)

    def right_descents(self) -> frozenset[int]:
        lw = self.length()
        return frozenset(
            i for i in self.simple_indices() if self.times_simple_right(i).length() < lw
        )

    def left_descents(self) -> frozenset[int]:
        lw = self.length()
        return frozenset(
            i for i in self.simple_indices() if self.times_simple_left(i).length() < lw
        )

    def support(self) -> frozenset[int]:
        # letters of one reduced word; support is expression-independent
        out: set[int] = set()
        x = self
        while not x.is_identity():
            i = min(x.right_descents())
            out.add(i)
            x = x.times_simple_right(i)
        return frozenset(out)

    # -- cover moves ----------------------------------------------------------------

    @staticmethod
    def down_cover_images(im: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Window tuples of the elements covered by ``im``: the products
        ``im * t`` over the reflections t of B_n that drop the length by one,
        in reflection order.  Works on raw tuples, so nothing is validated."""
        lw = _signed_length(im)
        out = []
        for t in reflections_b(len(im)):
            v = tuple(im[a - 1] if a > 0 else -im[-a - 1] for a in t.images)
            if _signed_length(v) == lw - 1:
                out.append(v)
        return out


def _signed_length(im: tuple[int, ...]) -> int:
    """Positive roots sent negative: pair roots e_i - e_j and e_i + e_j
    plus the short roots e_i, under the sign-change-at-the-end convention."""
    n = len(im)
    total = sum(1 for v in im if v < 0)
    for a in range(n):
        x = im[a]
        for b in range(a + 1, n):
            y = im[b]
            # e_a - e_b root: inverted when same-sign descent or x < 0 < y
            if (x > y and (x > 0) == (y > 0)) or (x < 0 < y):
                total += 1
            # e_a + e_b root: inverted when both negative, or the positive
            # one is dominated by the absolute value of the negative one
            if x < 0 and y < 0:
                total += 1
            elif x < 0 < y and y > -x:
                total += 1
            elif y < 0 < x and x > -y:
                total += 1
    return total


def signed_identity(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def reflections_b(n: int) -> tuple[SignedPermutation, ...]:
    """The n^2 reflections of B_n: transpositions, sign-swapping
    transpositions, and single sign changes."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            im = list(range(1, n + 1))
            im[i - 1], im[j - 1] = j, i
            out.append(SignedPermutation(tuple(im)))
            im = list(range(1, n + 1))
            im[i - 1], im[j - 1] = -j, -i
            out.append(SignedPermutation(tuple(im)))
    for i in range(1, n + 1):
        im = list(range(1, n + 1))
        im[i - 1] = -i
        out.append(SignedPermutation(tuple(im)))
    return tuple(out)


Element = Union[Permutation, SignedPermutation]


# -- Coxeter presentations ------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterPresentation:
    """Finite Coxeter system of type A or B, by rank (number of generators)."""

    kind: str  # "A" or "B"
    rank: int

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ValueError(f"unsupported Coxeter type {self.kind!r}: only A and B")
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def identity(self) -> Element:
        if self.kind == "A":
            return perm_identity(self.rank + 1)
        return signed_identity(self.rank)

    # -- Dynkin diagram: the path 1 - 2 - ... - rank ----------------------------------
    # B's label-4 edge (rank - 1, rank) is still an edge: labels change no adjacency.

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def adjacent(self, s: int, t: int) -> bool:
        return abs(s - t) == 1

    def is_connected(self, subset: frozenset[int]) -> bool:
        """Connectedness of the induced subpath; empty sets count as connected."""
        return not subset or max(subset) - min(subset) + 1 == len(subset)

    def is_totally_disconnected(self, subset: frozenset[int]) -> bool:
        return not any(s + 1 in subset for s in subset)


class WordResult(NamedTuple):
    element: Element
    reduced: bool


def evaluate_word(word: Sequence[int], group: CoxeterPresentation) -> WordResult:
    """Multiply out a word in the simple generators; reports whether the word
    was a reduced expression for its product."""
    x = group.identity()
    for i in word:
        if not 1 <= i <= group.rank:
            raise ValueError(f"unknown generator s_{i} for {group.kind}_{group.rank}")
        x = x.times_simple_right(i)
    return WordResult(x, x.length() == len(word))


def group_elements(group: CoxeterPresentation) -> Iterator[Element]:
    """BFS enumeration of the whole group from the identity."""
    start = group.identity()
    return _walk(start, start.simple_indices())


def _walk(start: Element, gens: Sequence[int]) -> Iterator[Element]:
    """The coset of start by the subgroup that the simple reflections
    ``gens`` generate: BFS by right multiplication, one frontier at a time,
    each generator in the order given."""
    seen = {start}
    frontier = [start]
    while frontier:
        yield from frontier
        nxt = []
        for x in frontier:
            for i in gens:
                y = x.times_simple_right(i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
