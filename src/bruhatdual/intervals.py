"""Bruhat order: comparison, lower intervals [e, w] with their cover
relations, and parabolic machinery (quotients, BP decompositions, m(u, J)).

Everything here is generic over the two element classes, Permutation and
SignedPermutation, through what their base permutations.CoxeterElement
(signed.Element) exposes.  The base gives ``images``, ``n``, ``w(i)``,
is_identity(), identity_like(), multiplication, inverse(),
times_simple_left(), left_descents() and down_cover_images(images), the
tuples a raw one-line tuple covers; each class supplies one_line(),
simple_indices(), times_simple_right(), length(), right_descents(),
support() and its cover kernel, a static down_cover_ids(images, ids, out)
that finds the tuples ``images`` covers and interns each as it is found,
the one place its class's cover rule is written.

build_interval is the only constructor of BruhatInterval.  It reads covers
from one cover graph per element class, kept for the life of the process and
closed downward: each one-line tuple is interned to an integer id, and the
first interval to reach it computes its covers and those of every new node
below it, once, one kernel call per new node.  The graph holds tuples and
ids only and never enumerates a group up front, so its memory is bounded by
the distinct elements the process has touched.  An interval holds graph ids
in rank layers and builds its element objects, ranks and sorted down lists
on first read.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise, repeat
from typing import Iterable

from .permutations import Permutation, tableau_leq
from .signed import Element, _walk


# -- comparison ----------------------------------------------------------------


def bruhat_leq(u: Element, w: Element) -> bool:
    """u <= w in Bruhat order.

    S_n uses the tableau criterion at every prefix length; signed
    permutations look u up in [e, w] as build_interval builds it.  Both
    agree with the subword oracle (tested exhaustively).
    """
    if type(u) is not type(w) or u.n != w.n:
        raise ValueError(f"cannot compare {u!r} and {w!r}")
    if isinstance(u, Permutation):
        return tableau_leq(u.images, w.images, range(1, u.n))
    if u.length() > w.length():
        return False
    return build_interval(w).contains(u)


def reduced_word(w: Element) -> tuple[int, ...]:
    """One reduced expression, built by stripping minimal left descents."""
    word = []
    x = w
    while not x.is_identity():
        i = min(x.left_descents())
        word.append(i)
        x = x.times_simple_left(i)
    return tuple(word)


def subword_downset(w: Element) -> frozenset[Element]:
    """All products of reduced subwords of one fixed reduced word for w,
    which by the subword property is exactly [e, w].

    Kept deliberately independent of bruhat_leq as the reference oracle.
    """
    reachable = {w.identity_like()}
    for i in reduced_word(w):
        new = set(reachable)
        for x in reachable:
            y = x.times_simple_right(i)
            if y.length() > x.length():
                new.add(y)
        reachable = new
    return frozenset(reachable)


def subword_leq(u: Element, w: Element) -> bool:
    """Subword-property oracle for u <= w."""
    if u.length() > w.length():
        return False
    return u in subword_downset(w)


# -- intervals -----------------------------------------------------------------


@dataclass
class BruhatInterval:
    """The lower interval [e, w] as rank layers of its class's cover graph:
    id i, in BFS discovery order from the top, is node ``gids[i]`` of
    ``graph``, and layer j, of rank top_rank - j, is the id range
    ``offsets[j]:offsets[j + 1]``.  ``rank``, the sorted down lists
    ``down``, ``index`` and ``elements``, the one place its ids become
    element objects (through the class constructor, which validates them),
    are built on first read; ``atom_coatom_degrees`` and ``gids_at_rank``
    need no ``down``.  Immutable apart from those caches; safe to share
    between threads.
    """

    top: Element
    graph: _CoverGraph
    gids: list[int]
    offsets: list[int]

    @property
    def size(self) -> int:
        return self.offsets[-1]

    @property
    def top_rank(self) -> int:
        return len(self.offsets) - 2

    def _bounds(self, k: int) -> tuple[int, int]:
        j = self.top_rank - k  # rank k is layer j; no ids outside 0..top_rank
        return (self.offsets[j], self.offsets[j + 1]) if 0 <= k and 0 <= j else (0, 0)

    def ids_at_rank(self, k: int) -> list[int]:
        return list(range(*self._bounds(k)))

    def gids_at_rank(self, k: int) -> list[int]:
        return self.gids[slice(*self._bounds(k))]

    @cached_property
    def rank(self) -> list[int]:
        return [k for k in range(self.top_rank, -1, -1) for _ in range(*self._bounds(k))]

    @cached_property
    def elements(self) -> list[Element]:
        return list(map(self.graph.cls, map(self.graph.images.__getitem__, self.gids)))

    @cached_property
    def down(self) -> list[list[int]]:
        position, covers = self._position.__getitem__, self.graph.covers
        return [sorted(map(position, covers[g])) for g in self.gids]

    def atom_coatom_degrees(self) -> tuple[list[int], list[int]]:
        """The atoms' up-degrees and the coatoms' down-degrees, off the cover graph."""
        covers, coatoms = self.graph.covers, self.gids_at_rank(self.top_rank - 1)
        up = Counter(chain.from_iterable(map(covers.__getitem__, self.gids_at_rank(2))))
        return [up[g] for g in self.gids_at_rank(1)], [len(covers[g]) for g in coatoms]

    @cached_property
    def index(self) -> dict[Element, int]:
        return dict(zip(self.elements, range(self.size)))

    @cached_property
    def _position(self) -> dict[int, int]:
        return dict(zip(self.gids, range(self.size)))

    def ids_of(self, images: Iterable[tuple[int, ...]]) -> list[int]:
        """The ids of one-line tuples, -1 for a tuple outside [e, w]."""
        return list(map(self._position.get, map(self.graph.ids.get, images), repeat(-1)))

    def contains(self, u: Element) -> bool:
        return type(u) is self.graph.cls and self.ids_of([u.images])[0] >= 0


class _CoverGraph:
    """The Bruhat cover graph of one element class, grown on demand and kept
    closed downward: every id has its covers.

    A one-line tuple gets the next integer id g the first time it is met and
    is kept as ``images[g]``; ``covers[g]`` is the tuple of ids that the
    class's cover kernel ``cls.down_cover_ids`` returns for ``images[g]``,
    interning into ``ids`` and ``images`` each cover not met before.  The
    graph holds no element objects.  Growth takes the lock; reads of
    ``covers`` do not need it, because the lists only grow and a build reads
    only ids below a top its own ``close_below`` has closed.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.ids: dict[tuple[int, ...], int] = {}
        self.images: list[tuple[int, ...]] = []
        self.covers: list[tuple[int, ...]] = []
        self._lock = threading.Lock()

    def close_below(self, top: tuple[int, ...]) -> int:
        """Intern the one-line tuple top and return its id.  Under one hold
        of the lock, run the cover kernel in id order on every node that has
        no covers yet: all lie below top, since every other node was closed
        below when the call that met it returned."""
        with self._lock:
            ids, images, covers = self.ids, self.images, self.covers
            gid = ids.setdefault(top, len(ids))
            if gid == len(images):
                images.append(top)
            kernel = self.cls.down_cover_ids
            while len(covers) < len(images):
                covers.append(kernel(images[len(covers)], ids, images))
            return gid


# one per element class, so Permutation and SignedPermutation never share ids
_COVER_GRAPHS: dict[type, _CoverGraph] = {}


def build_interval(w: Element) -> BruhatInterval:
    """Downward BFS from w along cover moves, one layer per rank.  Every
    u <= w is reached because Bruhat order is graded with saturated chains,
    and the covers of rank r all have rank r - 1, so each layer is the
    covers of the one before, first occurrences kept in order.

    The search runs on the integer ids of the class's cover graph, closed
    below w first, so each element's covers are computed once per process
    however many intervals contain it; the graph grows only by the elements
    below some w built.  The lists an interval builds are its own.
    """
    graph = _COVER_GRAPHS.get(type(w)) or _COVER_GRAPHS.setdefault(type(w), _CoverGraph(type(w)))
    covers = graph.covers.__getitem__
    gids: list[int] = []
    offsets = [0]
    layer = [graph.close_below(w.images)]
    while layer:
        gids += layer
        offsets.append(len(gids))
        layer = list(dict.fromkeys(chain.from_iterable(map(covers, layer))))
    bottom_is_identity = graph.images[gids[-1]] == tuple(range(1, w.n + 1))
    if len(offsets) != w.length() + 2 or offsets[-2] != len(gids) - 1 or not bottom_is_identity:
        raise AssertionError("interval lacks a unique identity minimum")
    return BruhatInterval(w, graph, gids, offsets)


def rank_profile(interval: BruhatInterval) -> tuple[int, ...]:
    return tuple(b - a for a, b in pairwise(interval.offsets))[::-1]


def degree_extremes(interval: BruhatInterval) -> tuple[int, int]:
    """(max up-degree over atoms, max down-degree over coatoms), the two cover
    statistics compared by the top-heaviness theorem."""
    if interval.top_rank < 2:
        raise ValueError("degree extremes need an interval of rank >= 2")
    atom_up, coatom_down = interval.atom_coatom_degrees()
    return max(atom_up), max(coatom_down)


# -- parabolic machinery ----------------------------------------------------------


@dataclass(frozen=True)
class ParabolicDecomposition:
    J: frozenset[int]
    quotient_part: Element  # no descents into J on the split side
    parabolic_part: Element  # lies in W_J
    side: str  # "right": w = quotient * parabolic; "left": w = parabolic * quotient


def parabolic_decompose(w: Element, J: Iterable[int], side: str = "right") -> ParabolicDecomposition:
    """The unique length-additive factorization across W^J x W_J.

    Right side strips right descents lying in J; the left side is the mirror
    through inverses.
    """
    Jset = frozenset(J)
    bad = [i for i in Jset if i not in w.simple_indices()]
    if bad:
        raise ValueError(f"generator indices {sorted(bad)} outside the group rank")
    if side == "right":
        quotient = w
        parabolic = w.identity_like()
        while True:
            ds = quotient.right_descents() & Jset
            if not ds:
                break
            i = min(ds)
            quotient = quotient.times_simple_right(i)
            parabolic = parabolic.times_simple_left(i)
        return ParabolicDecomposition(Jset, quotient, parabolic, "right")
    if side == "left":
        mirror = parabolic_decompose(w.inverse(), Jset, "right")
        return ParabolicDecomposition(
            Jset, mirror.quotient_part.inverse(), mirror.parabolic_part.inverse(), "left"
        )
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def longest_parabolic(identity_el: Element, J: Iterable[int]) -> Element:
    """w_0(J): greedy ascent in right weak order inside W_J."""
    Jset = frozenset(J)
    x = identity_el
    while True:
        ds = x.right_descents()
        free = [i for i in Jset if i not in ds]
        if not free:
            return x
        x = x.times_simple_right(min(free))


def enumerate_parabolic(identity_el: Element, J: Iterable[int]) -> list[Element]:
    """All of W_J, by BFS over the J-generators, sorted by length, then one-line."""
    return sorted(_walk(identity_el, sorted(frozenset(J))), key=lambda e: (e.length(), e.images))


def is_bp_decomposition(w: Element, J: Iterable[int]) -> bool:
    """Billey-Postnikov condition on the right parabolic decomposition:
    supp(w^J) touches J only inside the left descents of w_J."""
    d = parabolic_decompose(w, J, "right")
    touching = d.quotient_part.support() & d.J
    return touching <= d.parabolic_part.left_descents()


def max_parabolic_below(u: Element, J: Iterable[int]) -> Element:
    """m(u, J): the maximum of [e, u] intersected with W_J.

    Existence is a theorem; uniqueness is verified here and a failure raises,
    since it would mean a bug in the order computations.
    """
    Jset = frozenset(J)
    candidates = [x for x in enumerate_parabolic(u.identity_like(), Jset) if bruhat_leq(x, u)]
    best = max(candidates, key=lambda x: x.length())
    for x in candidates:
        if not bruhat_leq(x, best):
            raise AssertionError(f"[e,u] also contains W_J element {x!r} above {best!r}")
    return best
