"""Level graphs between the extreme rank pairs of [e, w], read off the
interval or, for a permutation, built straight from w, and their isomorphism,
matched on the pair of small vertices each big one touches; the explicit
duality map coming from a polished decomposition, and poset self-duality
certification.  One verifier checks the hinted path's images, each looked
up once in the cover graph's ids, every found bijection and every
transported one: a pass over graph ids that checks membership in [e, w],
bijectivity and cover reversal against the graph's own cover tuples.  The
search looks for an isomorphism from [e, w] to its dual by refining one
color array over both, which share one undirected Hasse diagram
(McKay-Piperno 2014).  Refinement
runs a worklist of splitter cells (Paige-Tarjan 1987) and revisits only the
cells next to a split.  It starts from (rank, down-degree, up-degree)
colors: the rank cells split once by every rank cell, which then count as
processed splitters, so all but the largest part of each are queued
(Hopcroft's rule), and that first splitting pass is not repeated.  After an
individualization the new two-vertex cell is the only splitter, and the
cell map is carried from level to level, not rebuilt from the colors.  The
halves' color multisets are compared once, on the stable partition.  Two
shortcuts serve the sweeps: the rank-1 counts of [e, w] read off w alone,
and a found bijection carried through an automorphism of Bruhat order to
the interval of the image of w, verified there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .intervals import BruhatInterval, bruhat_leq, rank_profile
from .permutations import (
    Permutation,
    inverse_indices,
    tableau_leq,
    young_reversal,
    young_windows,
)
from .polished import PolishedBlock, PolishedDecomposition
from .signed import Element


# -- level graphs -----------------------------------------------------------------


@dataclass(frozen=True)
class LevelGraph:
    """Bipartite cover graph between two adjacent ranks of an interval, its
    vertices held as one-line tuples; ``type(w)(x)`` makes one an element of
    the class of the top w.

    For the lower graph the small side is rank 1 and the big side rank 2; for
    the upper graph the small side is corank 1 and the big side corank 2.
    Edges hold (small index, big index) pairs.  A big vertex spans a length-2
    interval with the bottom (lower) or the top (upper), and such an interval
    has four elements (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.7),
    so it has exactly two small neighbours (``big_pairs``).  Vertex order is
    deterministic: interval BFS ids on the interval route (``gamma_lower``,
    ``gamma_upper``), one-line order on the direct one (``gamma_graphs_direct``).
    """

    side: str  # "lower" or "upper"
    small: tuple[tuple[int, ...], ...]
    big: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def small_degrees(self) -> tuple[int, ...]:
        deg = [0] * len(self.small)
        for si, _ in self.edges:
            deg[si] += 1
        return tuple(deg)

    def big_pairs(self) -> list[tuple[int, int]]:
        """The two small neighbours of each big vertex; ValueError if a big
        vertex has any other number, which only a broken graph can have."""
        nbhd: list[list[int]] = [[] for _ in self.big]
        for si, bi in self.edges:
            nbhd[bi].append(si)
        if any(len(nb) != 2 or nb[0] == nb[1] for nb in nbhd):
            raise ValueError("a big vertex does not have exactly two small neighbours")
        return [tuple(nb) for nb in nbhd]


def _assemble(side: str, high: Iterable, low: Iterable, covers: list) -> LevelGraph:
    """The level graph on two adjacent ranks, from the one-line tuples of the
    higher rank and of the lower one and the covers between them as
    (higher index, lower index) pairs.  The lower graph's small side is its
    lower rank, the upper graph's its higher rank; edges are sorted
    (small index, big index) pairs."""
    if side == "lower":
        return LevelGraph(side, tuple(low), tuple(high), tuple(sorted((j, i) for i, j in covers)))
    return LevelGraph(side, tuple(high), tuple(low), tuple(sorted(covers)))


def _level_graph(interval: BruhatInterval, side: str) -> LevelGraph:
    """The covers between ranks 1 and 2 (lower) or coranks 1 and 2 (upper),
    read off the cover graph at the graph ids of the higher rank, each vertex
    indexed by its place in its rank."""
    if interval.top_rank < 2:
        raise ValueError("level graphs need an interval of rank >= 2")
    rank = 2 if side == "lower" else interval.top_rank - 1
    graph = interval.graph
    high, low = interval.gids_at_rank(rank), interval.gids_at_rank(rank - 1)
    position = dict(zip(low, range(len(low))))
    covers = [(i, position[y]) for i, g in enumerate(high) for y in graph.covers[g]]
    image = graph.images.__getitem__
    return _assemble(side, map(image, high), map(image, low), covers)


def gamma_lower(interval: BruhatInterval) -> LevelGraph:
    """Cover graph between ranks 1 and 2 of [e, w]."""
    return _level_graph(interval, "lower")


def gamma_upper(interval: BruhatInterval) -> LevelGraph:
    """Cover graph between coranks 1 and 2 of [e, w]."""
    return _level_graph(interval, "upper")


def gamma_graphs_direct(w: Permutation) -> tuple[LevelGraph, LevelGraph]:
    """Both level graphs of [e, w] on one-line tuples, built without the
    interval and without element objects.

    Lower: the atoms are the s_i with i in supp(w).  Every element of length
    2 is s_i s_j with i != j; it lies below w only if i and j are both in
    supp(w), and then it covers exactly s_i and s_j.  A commuting pair
    (|i - j| >= 2) gives one product, below w by the subword property.  An
    adjacent pair gives s_i s_{i+1} and s_{i+1} s_i, each kept by the
    tableau criterion on the two prefixes (lengths i and i + 1) where it can
    differ from e.  Upper: iterated cover moves below w, each corank-2
    element interned once by the cover kernel across all the coatoms and
    then ranked by one-line tuple.  Each side is sorted by one-line tuple;
    the graphs equal the interval route's vertex for vertex and edge for
    edge (tested).
    """
    im = w.images
    support = sorted(w.support())
    if len(support) < 2:  # |supp(w)| < 2 exactly when w is e or a simple s_i
        raise ValueError("level graphs need length >= 2")
    e = tuple(range(1, len(im) + 1))
    rank2 = []
    for k, i in enumerate(support):
        for j in support[k + 1 :]:
            if j > i + 1:
                x = e[: i - 1] + (i + 1, i) + e[i + 1 : j - 1] + (j + 1, j) + e[j + 1 :]
                rank2.append((x, i, j))
                continue
            for window in ((i + 1, i + 2, i), (i + 2, i, i + 1)):  # s_i s_j, s_j s_i
                x = e[: i - 1] + window + e[i + 2 :]
                if tableau_leq(x, im, (i, i + 1)):
                    rank2.append((x, i, j))
    rank2.sort()
    support.reverse()  # s_i's one-line tuple falls as i grows
    atom_id = {i: si for si, i in enumerate(support)}
    lower = _assemble(
        "lower",
        [x for x, _, _ in rank2],
        [e[: i - 1] + (i + 1, i) + e[i + 1 :] for i in support],
        [(bi, atom_id[a]) for bi, (_, i, j) in enumerate(rank2) for a in (i, j)],
    )

    coatoms = sorted(Permutation.down_cover_images(im))
    corank2: list[tuple[int, ...]] = []  # each interned once, across all the coatoms
    ids: dict[tuple[int, ...], int] = {}
    below = [Permutation.down_cover_ids(c, ids, corank2) for c in coatoms]
    order = sorted(range(len(corank2)), key=corank2.__getitem__)
    big_id = [0] * len(order)
    for bi, d in enumerate(order):
        big_id[d] = bi
    covers = [(si, big_id[d]) for si, ds in enumerate(below) for d in ds]
    return lower, _assemble("upper", coatoms, map(corank2.__getitem__, order), covers)


def bipartite_isomorphic(
    g: LevelGraph, h: LevelGraph
) -> Optional[dict[tuple[int, ...], tuple[int, ...]]]:
    """A side-respecting isomorphism g -> h as a map between one-line tuples,
    or None.

    Each graph is read as a multigraph on its small side, one edge per big
    vertex: the pair it touches.  Small vertices are matched by backtracking,
    highest degree first and then always one with the most pairs into those
    placed; a partial assignment stands only while the pair multiplicities
    among the placed vertices agree.  Each big vertex of g then goes to an
    unused big vertex of h with the image pair.
    """
    if len(g.small) != len(h.small) or len(g.big) != len(h.big):
        return None
    n, gpairs, hpairs = len(g.small), g.big_pairs(), h.big_pairs()
    gdeg, hdeg = g.small_degrees(), h.small_degrees()
    if sorted(gdeg) != sorted(hdeg):
        return None
    gm, hm = [[0] * n for _ in gdeg], [[0] * n for _ in gdeg]
    for m, pairs in ((gm, gpairs), (hm, hpairs)):
        for a, b in pairs:
            m[a][b] += 1
            m[b][a] += 1
    order, links = [], [0] * n  # links: pairs into the vertices in order
    rest = sorted(range(n), key=gdeg.__getitem__, reverse=True)
    while rest:
        i = max(rest, key=links.__getitem__)
        rest.remove(i)
        order.append(i)
        for a in rest:
            links[a] += gm[i][a]
    image, used = [-1] * n, [False] * n  # image: small index of g -> of h

    def assign(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in range(n):
            if used[j] or hdeg[j] != gdeg[i] or any(gm[i][a] != hm[j][image[a]] for a in order[:k]):
                continue
            image[i], used[j] = j, True
            if assign(k + 1):
                return True
            used[j] = False
        return False

    if not assign(0):
        return None
    mapping = {x: h.small[j] for x, j in zip(g.small, image)}
    pool: dict[frozenset[int], list[int]] = {}
    for bj, pair in enumerate(hpairs):
        pool.setdefault(frozenset(pair), []).append(bj)
    for x, (a, b) in zip(g.big, gpairs):
        mapping[x] = h.big[pool[frozenset((image[a], image[b]))].pop()]
    return mapping


# -- duality map -------------------------------------------------------------------


class DualityMap:
    """The antiautomorphism candidate u -> w_0(J) u^{J'} w_0(J and J') u_{J'} w_0(J')
    of a polished decomposition of w, applied blockwise through the
    support-disjoint product structure, compiled once per (w, decomposition).

    Type A only: every parabolic subgroup involved is then a Young subgroup,
    held as its position windows, w_0(J) reverses the windows of J, and the
    map takes and returns raw one-line tuples.  It factors level by level:
    with x = q u_k split across W_S of block k, map_k(x) = map_{k-1}(q)
    g_k(u_k), where g_k is block k's five-factor product and map_0 maps only
    the identity.  A block's support S is connected, so W_S is one window
    [lo, hi) of positions: q is x with that slice sorted, fixed by x's
    entries outside the window, and u_k is fixed by the window's argsort.
    With u = q' p' across J', g_k(u) is the product of two halves,
    w_0(J) q' w_0(J and J') and p' w_0(J').  Each block compiles to one
    function, map_k, calling map_{k-1}, with memos in dicts it owns and
    fills from the decomposition alone, each key fixing its one value:
    map_{k-1}(q) on x's entries outside the window, which fix q; g_k on the
    raw window slice x[lo:hi], which fixes the argsort; g_k again on the
    argsort, which fixes u_k; the left half on the J' window of each value,
    which fixes q'; the right half on p'^{-1}.  A write stores the one value
    its key has, so threads sharing an instance need no lock.  g_k and the
    right halves are kept as ``operator.itemgetter``s, built once per memo
    entry, so composing one onto a tuple runs in C; the argsort then runs
    once per distinct window slice, not once per tuple.

    ``graph_ids`` maps every one-line tuple of an interval straight to
    cover-graph ids in one pass through the top block's function, the one
    that calling the map on one tuple runs, and ``interval_ids`` turns
    those into interval ids.  Neither makes a Bruhat comparison:
    duality_map checks one image, certify_self_dual a whole interval's on
    graph ids.
    """

    def __init__(self, w: Element, decomp: PolishedDecomposition):
        if not isinstance(w, Permutation):
            raise ValueError(f"the compiled duality map is type A only, got {w!r}")
        n = w.n
        self.w = w
        identity = tuple(range(1, n + 1))

        def map_0(x: tuple[int, ...]) -> tuple[int, ...]:
            if x != identity:
                raise ValueError(
                    f"decomposition does not account for {Permutation(x)!r}: invalid for {w!r}"
                )
            return x

        self._map = map_0
        for block in decomp.blocks:
            self._map = self._level(n, block, self._map)

    @staticmethod
    def _level(
        n: int, block: PolishedBlock, below: Callable[[tuple[int, ...]], tuple[int, ...]]
    ) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """map_k for one block, given ``below`` = map_{k-1}.  It holds the
        block's S window [lo, hi), the slot of each position (the start of
        its J' window, or the position itself outside J'), the three w_0 as
        0-based index tuples, and the memos of map_{k-1}, of g_k by window
        slice and by argsort, and of g_k's two halves.  ValueError unless S
        is one window of generators of S_n, covered by J and J'."""
        windows = young_windows(block.S)
        if len(windows) != 1 or block.J | block.Jp != block.S:
            raise ValueError(f"block support {sorted(block.S)} is not one window covered by J and J'")
        ((lo, hi),) = windows
        if lo < 0 or hi > n:
            raise ValueError(f"generator indices {sorted(block.S)} outside the group rank")
        positions = range(lo, hi)
        slot = list(range(n))
        for a, b in young_windows(block.Jp):
            slot[a:b] = [a] * (b - a)
        w0_j, w0_meet, w0_jp = (young_reversal(n, J) for J in (block.J, block.J & block.Jp, block.Jp))
        meet, jp = itemgetter(*w0_meet), itemgetter(*w0_jp)
        heads: dict[tuple[int, ...], tuple[int, ...]] = {}
        slices: dict[tuple[int, ...], itemgetter] = {}
        factors: dict[tuple[int, ...], itemgetter] = {}
        lefts: dict[tuple[int, ...], tuple[int, ...]] = {}
        rights: dict[tuple[int, ...], itemgetter] = {}

        def factor(key: tuple[int, ...]) -> itemgetter:
            # g_k(u) as a getter of 0-based indices, for the u in W_S fixed by
            # key, the window's positions in increasing order of value.  The
            # slots of key's positions say which J' window holds each value,
            # which fixes q', and key stably sorted by slot is p'^{-1}.
            g = factors.get(key)
            if g is None:
                value_slots = itemgetter(*key)(slot)
                left = lefts.get(value_slots)
                if left is None:
                    ranks = sorted(range(hi - lo), key=value_slots.__getitem__)
                    quotient = (*range(lo), *[lo + r for r in ranks], *range(hi, n))
                    left = lefts[value_slots] = itemgetter(*meet(quotient))(w0_j)
                p_inverse = tuple(sorted(key, key=slot.__getitem__))
                right = rights.get(p_inverse)
                if right is None:
                    p = inverse_indices((*range(lo), *p_inverse, *range(hi, n)))
                    right = rights[p_inverse] = itemgetter(*jp(p))
                g = factors[key] = itemgetter(*right(left))
            return g

        def map_k(x: tuple[int, ...]) -> tuple[int, ...]:
            rest = x[:lo] + x[hi:]
            head = heads.get(rest)
            if head is None:
                head = heads[rest] = below(x[:lo] + tuple(sorted(x[lo:hi])) + x[hi:])
            window = x[lo:hi]
            g = slices.get(window)
            if g is None:
                g = slices[window] = factor(tuple(sorted(positions, key=x.__getitem__)))
            return g(head)

        return map_k

    def __call__(self, images: tuple[int, ...]) -> tuple[int, ...]:
        return self._map(images)

    def graph_ids(self, interval: BruhatInterval) -> list[Optional[int]]:
        """The cover-graph ids of the images of ``interval``'s elements, in
        id order, None for an image the graph has not met, in one pass over
        the graph's one-line tuples, so no list of a whole interval's images
        is held."""
        graph = interval.graph
        return list(map(graph.ids.get, map(self._map, map(graph.images.__getitem__, interval.gids))))

    def interval_ids(self, interval: BruhatInterval) -> list[int]:
        """The ids in ``interval`` of the images of its elements, in id order,
        -1 for an image outside it."""
        return interval.positions(self.graph_ids(interval))


def duality_map(w: Element, decomp: PolishedDecomposition, u: Element) -> Element:
    """The duality map of ``decomp`` applied to one u <= w, checked at both
    ends.  Callers mapping a whole interval compile a DualityMap once and
    check its images against the interval, as certify_self_dual does.

    Raises ValueError when u is not below w or the decomposition does not
    account for u, AssertionError when the image escapes [e, w].
    """
    dual = DualityMap(w, decomp)
    if not bruhat_leq(u, w):
        raise ValueError(f"{u!r} is not below {w!r}")
    out = Permutation(dual(u.images))
    if not bruhat_leq(out, w):
        raise AssertionError(f"duality image {out!r} escaped [e, {w!r}]")
    return out


# -- self-duality certification ----------------------------------------------------


@dataclass(frozen=True)
class DualityCertificate:
    """Outcome of a self-duality check on ``interval``.  When kind is not
    'refuted', ``image`` maps each interval id x to image[x] under an
    order-reversing bijection, and ``pairing`` builds that bijection on
    elements each time it is read; otherwise ``image`` and ``pairing`` are
    None and ``refinement_trace`` summarizes the invariant that rules every
    pairing out."""

    kind: str  # "constructive-map" | "explicit-bijection" | "refuted"
    refinement_trace: Optional[str]
    interval: BruhatInterval = field(repr=False)
    image: Optional[list[int]]

    @property
    def is_self_dual(self) -> bool:
        return self.kind != "refuted"

    @property
    def pairing(self) -> Optional[dict[Element, Element]]:
        if self.image is None:
            return None
        elements = self.interval.elements
        return {x: elements[y] for x, y in zip(elements, self.image)}


def _reverses_order(interval: BruhatInterval, targets: list[Optional[int]]) -> bool:
    """Whether phi, sending graph id gids[x] to targets[x] for each
    interval id x, is an order-reversing bijection of [e, w]: the targets
    are the interval's own graph ids, each taken once (None, a tuple the
    graph has not met, is not one), and every cover y < x becomes a cover
    phi(x) < phi(y).  A bijection that turns every cover around carries the
    cover relation onto its reverse, so it reverses the order.  The check
    runs on graph ids, against the cover graph's own cover tuples, so it
    needs no ``down`` lists and no interval ids.  It is the one check behind
    every certificate: hinted, found by the search, or transported."""
    covers = interval.graph.covers
    phi = dict(zip(interval.gids, targets))
    if phi.keys() != set(targets):
        return False
    for g, pg in phi.items():
        for y in covers[g]:
            if pg not in covers[phi[y]]:
                return False
    return True


def _reverses_covers(interval: BruhatInterval, image: list[int]) -> bool:
    """``_reverses_order`` on interval ids: whether ids ``image``, -1
    marking a point outside [e, w], form an order-reversing bijection."""
    gids = interval.gids
    return -1 not in image and _reverses_order(interval, list(map(gids.__getitem__, image)))


def rank_one_counts(w: Element) -> tuple[int, int]:
    """|P_1| and |P_{l-1}| of [e, w], read off w without building the
    interval: the atoms are the simple reflections in supp(w), in any
    Coxeter group, and the coatoms are the elements w covers.  When the two
    differ the rank profile is asymmetric, so [e, w] is not self-dual.

    >>> rank_one_counts(Permutation((3, 4, 1, 2)))
    (3, 4)
    """
    return len(w.support()), len(type(w).down_cover_images(w.images))


def profile_refutation(profile: tuple[int, ...]) -> Optional[str]:
    """The refutation trace of an asymmetric rank profile of [e, w], which
    rules out every order-reversing bijection; None when it is symmetric.

    >>> profile_refutation((1, 3, 5, 4, 1))
    'rank profile (1, 3, 5, 4, 1) is asymmetric'
    """
    return None if profile == profile[::-1] else f"rank profile {profile} is asymmetric"


# the trace when the degree/rank colors part, at the atoms or after refinement
_COLORS_DIFFER = "degree/rank color multisets of the interval and its dual differ"


def degree_refutation(atom_up: Iterable[int], coatom_down: Iterable[int]) -> Optional[str]:
    """The refutation trace of [e, w] whose atoms' up-degrees and coatoms'
    down-degrees form different multisets, which rules out every
    order-reversing bijection: one takes each atom to a coatom whose
    down-degree is the atom's up-degree.  None when the multisets agree.

    >>> degree_refutation((5, 5, 4, 4), (6, 4, 4, 4))
    'degree/rank color multisets of the interval and its dual differ'
    """
    return None if sorted(atom_up) == sorted(coatom_down) else _COLORS_DIFFER


def certify_self_dual(
    interval: BruhatInterval, decomp_hint: Optional[PolishedDecomposition] = None
) -> DualityCertificate:
    """Decide whether [e, w] is self-dual.

    With a decomposition hint, apply the explicit duality map everywhere and
    verify by id that the images lie in [e, w], form a bijection and reverse
    the covers; a hint failing any of these raises ValueError.  Without one,
    refute at the first failing check of three: a symmetric rank profile;
    equal multisets of atom up-degrees and coatom down-degrees; equal color
    multisets of [e, w] and its dual once their rank colors are refined to
    the coarsest equitable partition over their shared undirected Hasse
    diagram.  That partition separates vertices by up- and down-degree,
    their neighbor counts in the rank cells above and below, so the second
    check is its rank-1 slice.  Then search for an order-reversing bijection
    by individualization and refinement; refutation means the search space
    is exhausted.
    """
    if decomp_hint is not None:
        targets = DualityMap(interval.top, decomp_hint).graph_ids(interval)
        if not _reverses_order(interval, targets):
            raise ValueError("decomposition hint does not induce an antiautomorphism")
        return DualityCertificate("constructive-map", None, interval, interval.positions(targets))

    trace = profile_refutation(rank_profile(interval))
    if trace is not None:
        return DualityCertificate("refuted", trace, interval, None)

    trace = degree_refutation(*interval.atom_coatom_degrees())
    if trace is None:
        hasse = _hasse_diagram(interval)
        colors, splitters, cells = _degree_start(interval, hasse)
        colors = _refine_to_stable(hasse, colors, splitters, cells)
        image = _search_antiautomorphism(interval, hasse, colors, cells)
        if image is not None:
            return DualityCertificate("explicit-bijection", None, interval, image)
        trace = _refinement_summary(colors)
    return DualityCertificate("refuted", trace, interval, None)


def transport_certificate(
    cert: DualityCertificate, interval: BruhatInterval, g: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> DualityCertificate:
    """Carry the order-reversing bijection phi of ``cert``'s interval [e, w]
    to ``interval`` = [e, g(w)], as psi = g phi g, and verify psi there.

    ``g`` acts on one-line tuples as an involutive automorphism of Bruhat
    order, one of ``permutations.KLEIN_INVOLUTIONS``, so it maps [e, w]
    onto [e, g(w)] and psi is order-reversing whenever phi is.  psi is
    still checked by id on [e, g(w)] as the hinted path checks its map: its
    images lie in the interval, form a bijection and reverse every cover.
    Raises ValueError when any of these fails.
    """
    source, phi = cert.interval, cert.image
    images = source.graph.images
    moved = interval.ids_of(g(images[gid]) for gid in source.gids)  # id of g(u), u in [e, w]
    if phi is None or -1 in moved:
        raise ValueError(f"cannot carry a bijection of [e, {source.top!r}] to [e, {interval.top!r}]")
    image = [-1] * interval.size
    for x, y in enumerate(moved):
        image[y] = moved[phi[x]]  # psi(g(u)) = g(phi(u))
    if not _reverses_covers(interval, image):
        raise ValueError(f"transported bijection does not reverse the covers of [e, {interval.top!r}]")
    return DualityCertificate("explicit-bijection", None, interval, image)


def _hasse_diagram(interval: BruhatInterval) -> list[list[int]]:
    """The undirected Hasse diagram that [e, w] and its dual share: each id's
    down list followed by the ids covering it, in one pass over ``down``."""
    hasse = [list(ys) for ys in interval.down]
    for x, ys in enumerate(interval.down):
        for y in ys:
            hasse[y].append(x)
    return hasse


def _degree_start(
    interval: BruhatInterval, hasse: list[list[int]]
) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """The search's root colors, splitters and cells: the rank cells of
    [e, w] and its dual, already split by one splitting pass over every rank
    cell.  Within rank cells, neighbor counts are down- and up-degrees, so x
    takes the color of (rank, down, up) and its dual vertex size + x that of
    (top - rank, up, down).  Every rank cell counts as a splitter already
    processed: each keeps its largest part unqueued (Hopcroft's rule), and
    the other parts are the splitters."""
    top, downs = interval.top_rank, list(map(len, interval.down))
    keys = [(r, d, len(nb) - d) for r, d, nb in zip(interval.rank, downs, hasse)]
    keys += [(top - r, u, d) for r, d, u in keys]
    table: dict[tuple[int, int, int], int] = {}
    colors = [table.setdefault(key, len(table)) for key in keys]
    cells: dict[int, list[int]] = {c: [] for c in table.values()}
    for v, c in enumerate(colors):
        cells[c].append(v)
    largest: dict[int, int] = {}  # rank -> color of its largest part
    for (r, _, _), c in table.items():
        if len(cells[c]) > len(cells[largest.setdefault(r, c)]):
            largest[r] = c
    kept = set(largest.values())
    return colors, [c for c in cells if c not in kept], cells


def _refine_to_stable(
    hasse: list[list[int]],
    colors: list[int],
    splitters: Optional[list[int]] = None,
    cells: Optional[dict[int, list[int]]] = None,
) -> Optional[list[int]]:
    """Refine, in place, the colors of [e, w] (ids x) and its dual (ids
    size + x) to the coarsest equitable partition below them, over the
    Hasse diagram ``hasse`` both halves share.  Each color keeps one rank,
    so neighbor counts tell covers from covered.

    A worklist of splitter colors drives it (Paige-Tarjan 1987,
    McKay-Piperno 2014): a splitter's cell splits every cell by how many
    neighbors each vertex has inside it.  The largest part keeps the old
    color, and with it the old cell's place in the worklist or its absence
    (Hopcroft's rule); the other parts take fresh colors and join the
    worklist.  Counts into the largest part are counts into the old cell,
    already uniform or still to come, less counts into the queued parts.
    ``splitters`` None queues every color.  Otherwise each color left out
    must be a cell the partition is already equitable with respect to, or
    the largest part of one (Hopcroft's start).  ``_degree_start`` passes
    all but the largest part of each rank cell, since its colors are the
    rank cells split by every rank cell; queueing every part would reach
    the same partition with one more splitting pass.  A caller that
    individualized a vertex pair of an equitable partition passes only the
    pair's color.

    ``cells`` maps each color to its vertices and is refined in place with
    ``colors``; None builds it from ``colors``.  A split replaces cell lists
    and never mutates one, so a caller may hand in a shallow copy of a map
    whose lists it still reads.

    None when the two halves' color multisets part.  Checking once, at the
    end, is sound: cells only split, so a cell whose halves part leaves a
    part-wise mismatch in some cell below it.  No isomorphism respects it.
    """
    size = len(hasse)
    if cells is None:
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
    queue = list(cells) if splitters is None else list(splitters)
    fresh = max(cells) + 1
    while queue:
        counts: dict[int, int] = {}
        for v in cells[queue.pop()]:
            offset = size if v >= size else 0
            for y in hasse[v - offset]:
                y += offset
                counts[y] = counts.get(y, 0) + 1
        touched: dict[int, list[int]] = {}
        for y in counts:
            touched.setdefault(colors[y], []).append(y)
        for c, ys in touched.items():
            cell = cells[c]
            parts: dict[int, list[int]] = {}
            for y in ys:
                parts.setdefault(counts[y], []).append(y)
            if len(ys) < len(cell):
                parts[0] = [v for v in cell if v not in counts]
            elif len(parts) == 1:
                continue
            ordered = sorted(parts.values(), key=len)
            cells[c] = ordered.pop()
            for part in ordered:
                cells[fresh] = part
                for v in part:
                    colors[v] = fresh
                queue.append(fresh)
                fresh += 1
    return colors if Counter(colors[:size]) == Counter(colors[size:]) else None


def _search_antiautomorphism(
    interval: BruhatInterval,
    hasse: list[list[int]],
    colors: Optional[list[int]],
    cells: dict[int, list[int]],
) -> Optional[list[int]]:
    """Backtracking individualization-refinement from stable ``colors`` of
    [e, w] and its dual over ``hasse``, with ``cells`` their cell map;
    returns ids mapping x to its image under some order-reversing
    bijection, or None (at once when ``colors`` is None).  x is the least
    vertex of the smallest nontrivial cell, the one holding the least
    vertex among ties, and its candidate images are that cell's dual
    vertices in increasing order, so the choice depends on the partition
    alone, not on its labels.  x and each candidate share a fresh color in
    a copy of the cell map.  That two-vertex cell is the only splitter the
    refinement needs: every other cell was already equitable, and the rest
    of the old cell counts as the old cell less the new one."""
    if colors is None:
        return None
    size = interval.size
    if len(cells) == size:
        # the halves share one multiset, so every cell is one vertex of each
        dual_of = {colors[size + y]: y for y in range(size)}
        mapping = [dual_of[colors[x]] for x in range(size)]
        return mapping if _reverses_covers(interval, mapping) else None
    cell = min((c for c in cells.values() if len(c) > 2), key=lambda c: (len(c), min(c)))
    x, c = min(cell), colors[cell[0]]
    fresh = max(cells) + 1
    for y in sorted(v for v in cell if v >= size):
        trial = list(colors)
        trial[x] = trial[y] = fresh
        split = dict(cells)
        split[c] = [v for v in cell if v != x and v != y]
        split[fresh] = [x, y]
        refined = _refine_to_stable(hasse, trial, [fresh], split)
        hit = _search_antiautomorphism(interval, hasse, refined, split)
        if hit is not None:
            return hit
    return None


def _refinement_summary(colors: Optional[list[int]]) -> str:
    """Why the search refuted: the shape of the stable root refinement, or the
    root color multisets parting."""
    if colors is None:
        return _COLORS_DIFFER
    cells = Counter(Counter(colors[: len(colors) // 2]).values())
    shape = ", ".join(f"{count} cells of size {size}" for size, count in sorted(cells.items()))
    return f"stable refinement reached ({shape}) but every pairing fails cover reversal"


def exhaustive_antiautomorphism_exists(interval: BruhatInterval, cap: int = 10) -> Optional[bool]:
    """Brute-force existence check for an order-reversing bijection, placing
    vertices one at a time in rank order; independent of the refinement
    search, usable as an oracle on small intervals.  None when some rank
    exceeds the cap."""
    profile = rank_profile(interval)
    if profile != profile[::-1]:
        return False
    if max(profile) > cap:
        return None
    top = interval.top_rank
    order = [x for k in range(top + 1) for x in interval.ids_at_rank(k)]
    edge_set = {(x, y) for x, ys in enumerate(interval.down) for y in ys}
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def place(pos: int) -> bool:
        if pos == len(order):
            return True
        x = order[pos]
        for img in interval.ids_at_rank(top - interval.rank[x]):
            if img in used:
                continue
            # every down-neighbor sits in an earlier rank, hence is placed
            if all((mapping[y], img) in edge_set for y in interval.down[x]):
                mapping[x] = img
                used.add(img)
                if place(pos + 1):
                    return True
                used.discard(img)
                del mapping[x]
        return False

    return place(0)
