"""Signed permutations (hyperoctahedral groups B_n) and a small Coxeter
presentation covering the two types this package works in.  A presentation
names its group and answers the Dynkin-diagram queries the polished block
data needs: in both types the diagram is the path 1 - 2 - ... - rank.

`SignedPermutation` builds on the shared base `permutations.CoxeterElement`,
which ``Element`` names, and supplies validation, one_line, simple_indices,
times_simple_right, length, right_descents, support and its cover kernel
down_cover_ids.

Generator conventions match the relations (s_1 s_2)^3 = e, (s_2 s_3)^4 = e:
s_i for i < n is the adjacent transposition of positions (i, i+1) and s_n is
the sign change at the last position, so the label-4 diagram edge sits at the
s_n end of the path.  Right multiplication acts on positions, left
multiplication on values, and (u * v)(i) = u(v(i)) with u(-x) = -u(x).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .permutations import CoxeterElement, identity as perm_identity


class SignedPermutation(CoxeterElement):
    """Window notation: images[i-1] = w(i), absolute values a permutation of
    1..n, each entry carrying its own sign."""

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise ValueError(f"not a signed permutation of 1..{n}: {self.images}")

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    def simple_indices(self) -> range:
        return range(1, self.n + 1)

    def times_simple_right(self, i: int) -> SignedPermutation:
        im = list(self.images)
        if i == self.n:
            im[-1] = -im[-1]
        else:
            im[i - 1], im[i] = im[i], im[i - 1]
        return SignedPermutation(tuple(im))

    # -- length and descents -----------------------------------------------------

    def length(self) -> int:
        return _signed_length(self.images)

    def right_descents(self) -> frozenset[int]:
        lw = self.length()
        return frozenset(
            i for i in self.simple_indices() if self.times_simple_right(i).length() < lw
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
    def down_cover_ids(
        im: tuple[int, ...], ids: Optional[dict[tuple[int, ...], int]], images: list[tuple[int, ...]]
    ) -> tuple[int, ...]:
        """The cover kernel of B_n: the ids of the products ``im * t`` over the
        reflections t of B_n that drop the length by one, in reflection
        order, each interned as it is found, as Permutation.down_cover_ids
        interns.  With ``ids`` None every cover is appended to ``images`` and
        the result is empty.  Works on raw tuples, so nothing is validated."""
        lw = _signed_length(im)
        found = []
        for t in reflections_b(len(im)):
            y = tuple(im[a - 1] if a > 0 else -im[-a - 1] for a in t.images)
            if _signed_length(y) != lw - 1:
                continue
            if ids is None:
                images.append(y)
            else:
                g = ids.get(y)
                if g is None:
                    g = ids[y] = len(images)
                    images.append(y)
                found.append(g)
        return tuple(found)


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


Element = CoxeterElement


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
