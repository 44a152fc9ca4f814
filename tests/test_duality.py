import random
import sys
import threading
from collections import Counter

import pytest

from conftest import longest_permutation
from oracle_utils import (
    SIX_AVOIDING_COUNTS,
    SMOOTH_PATTERNS,
    all_one_lines,
    brute_avoids_all,
    brute_rank_profile,
)

from bruhatdual import duality
from bruhatdual.duality import (
    DualityCertificate,
    DualityMap,
    LevelGraph,
    _degree_start,
    _hasse_diagram,
    _refine_to_stable,
    _reverses_covers,
    bipartite_isomorphic,
    certify_self_dual,
    duality_map,
    exhaustive_antiautomorphism_exists,
    gamma_graphs_direct,
    gamma_lower,
    gamma_upper,
    rank_one_counts,
    transport_certificate,
)
from bruhatdual.intervals import (
    build_interval,
    degree_extremes,
    rank_profile,
    longest_parabolic,
    parabolic_decompose,
)
from bruhatdual.permutations import KLEIN_INVOLUTIONS, Permutation, identity, parse_permutation
from bruhatdual.polished import polished_decompose
from bruhatdual.signed import (
    CoxeterPresentation,
    SignedPermutation,
    evaluate_word,
    group_elements,
)

# the two level graphs of [e, 34521], transcribed as labeled edge sets
GAMMA_LOWER_34521 = {
    "21345": {"23145", "31245", "21435", "21354"},
    "13245": {"23145", "31245", "13425", "14235", "13254"},
    "12435": {"13425", "14235", "21435", "12453", "12534"},
    "12354": {"12453", "12534", "13254", "21354"},
}
GAMMA_UPPER_34521 = {
    "34251": {"34215", "34152", "32451", "24351"},
    "32541": {"32514", "32451", "31542", "23541"},
    "24531": {"24513", "24351", "23541", "14532"},
    "34512": {"34215", "34152", "32514", "31542", "24513", "14532"},
}


def reference_dual(w, decomp, u):
    """The paper's map u -> w_0(J) u^{J'} w_0(J and J') u_{J'} w_0(J'), block by
    block, on Permutation objects: descent stripping, greedy longest
    elements and Permutation.__mul__, sharing nothing with the compiled map."""
    e = w.identity_like()
    parts = []
    rem = u
    for block in reversed(decomp.blocks):
        d = parabolic_decompose(rem, block.S, "right")
        parts.append(d.parabolic_part)
        rem = d.quotient_part
    assert rem.is_identity()
    out = e
    for block, ui in zip(decomp.blocks, reversed(parts)):
        d = parabolic_decompose(ui, block.Jp, "right")
        out = (
            out
            * longest_parabolic(e, block.J)
            * d.quotient_part
            * longest_parabolic(e, block.J & block.Jp)
            * d.parabolic_part
            * longest_parabolic(e, block.Jp)
        )
    return out


# S_7 and S_8 six-avoiders compared node by node with reference_dual, at
# about 0.3 ms a node: of each decomposition shape, the first a seeded
# shuffle meets with |[e, w]| in the size range; "full" is one block over
# every position
REFERENCE_SHAPES = ("full", 2, 3, 4, 5)
REFERENCE_SIZES = {7: range(50, 1501), 8: range(150, 4501)}


def reference_sample(n):
    ims = list(all_one_lines(n))
    random.Random(n).shuffle(ims)
    picked = {}
    for im in ims:
        if not brute_avoids_all(im):
            continue
        w = Permutation(im)
        d = polished_decompose(w)
        shape = "full" if [len(b.S) for b in d.blocks] == [n - 1] else len(d.blocks)
        if shape in picked or shape not in REFERENCE_SHAPES:
            continue
        if build_interval(w).size in REFERENCE_SIZES[n]:
            picked[shape] = w
            if len(picked) == len(REFERENCE_SHAPES):
                break
    assert set(picked) == set(REFERENCE_SHAPES)
    return list(picked.values())


def graph_as_dict(g):
    word = lambda x: "".join(map(str, x))
    out = {word(x): set() for x in g.small}
    for si, bi in g.edges:
        out[word(g.small[si])].add(word(g.big[bi]))
    return out


def labeled_edges(g):
    return {(g.small[si], g.big[bi]) for si, bi in g.edges}


def pair_graph(pairs):
    """A lower LevelGraph whose big vertex k touches the small vertices in
    ``pairs[k]``; small vertices are (0, i), big ones (1, k)."""
    small = tuple((0, i) for i in range(1 + max(a for pair in pairs for a in pair)))
    big = tuple((1, k) for k in range(len(pairs)))
    edges = tuple(sorted((a, k) for k, pair in enumerate(pairs) for a in pair))
    return LevelGraph("lower", small, big, edges)


def check_isomorphism(g, h, mapping):
    """``mapping`` is a side-respecting isomorphism g -> h between the one-line
    tuples the level graphs hold."""
    assert all(type(x) is tuple for x in (*g.small, *g.big, *h.small, *h.big))
    assert set(mapping.keys()) == set(g.small) | set(g.big)
    assert set(mapping.values()) == set(h.small) | set(h.big)
    assert all(mapping[x] in set(h.small) for x in g.small)
    assert {(mapping[a], mapping[b]) for a, b in labeled_edges(g)} == labeled_edges(h)


def up_route(interval):
    """gamma_lower, gamma_upper and degree_extremes of a rank >= 2 interval,
    computed from up lists, the transpose of its down lists, with an explicit
    rank filter."""
    up = [[] for _ in interval.elements]
    for x, ys in enumerate(interval.down):
        for y in ys:
            up[y].append(x)

    def level(small_rank, big_rank, side):
        small_ids, big_ids = interval.ids_at_rank(small_rank), interval.ids_at_rank(big_rank)
        adjacency = up if big_rank > small_rank else interval.down
        edges = sorted(
            (si, big_ids.index(nid))
            for si, sid in enumerate(small_ids)
            for nid in adjacency[sid]
            if interval.rank[nid] == big_rank
        )
        return LevelGraph(
            side,
            tuple(interval.elements[i].images for i in small_ids),
            tuple(interval.elements[i].images for i in big_ids),
            tuple(edges),
        )

    top = interval.top_rank
    extremes = (
        max(len(up[i]) for i in interval.ids_at_rank(1)),
        max(len(interval.down[i]) for i in interval.ids_at_rank(top - 1)),
    )
    return level(1, 2, "lower"), level(top - 1, top - 2, "upper"), extremes


def full_route(interval, rank, side):
    """The level graph between ranks rank - 1 and rank, read off the full
    down lists and element list of the interval."""
    high, low = interval.ids_at_rank(rank), interval.ids_at_rank(rank - 1)
    covers = [(i, low.index(y)) for i, x in enumerate(high) for y in interval.down[x]]
    small, big = high, low
    if side == "lower":
        small, big, covers = low, high, [(j, i) for i, j in covers]
    return LevelGraph(
        side,
        tuple(interval.elements[i].images for i in small),
        tuple(interval.elements[i].images for i in big),
        tuple(sorted(covers)),
    )


def round_refine(hasse, colors):
    """1-WL reference refinement: each round joins a vertex's color with the
    sorted colors of its Hasse neighbors in its own half, interned in id
    order, until the number of colors stops growing; None as soon as the
    halves' multisets part."""
    size = len(hasse)
    count = len(set(colors))
    while True:
        table = {}
        new = [
            table.setdefault((c, tuple(sorted([half[y] for y in ys]))), len(table))
            for half in (colors[:size], colors[size:])
            for c, ys in zip(half, hasse)
        ]
        if Counter(new[:size]) != Counter(new[size:]):
            return None
        if len(table) == count:
            return new
        colors, count = new, len(table)


def rank_colors(interval):
    """The search's root colors: the ranks of [e, w] (ids x) and of its dual
    (ids size + x), where x takes rank top_rank - rank[x]."""
    return interval.rank + [interval.top_rank - r for r in interval.rank]


def degree_colors(interval):
    """Reference root colors read off ``down``: (rank, up-degree, down-degree)
    of [e, w] and its dual, a dual vertex taking its rank in the dual and its
    degrees swapped; None when the halves' multisets part."""
    colors = degree_start_colors(interval)
    size = interval.size
    return colors if Counter(colors[:size]) == Counter(colors[size:]) else None


def degree_start_colors(interval):
    """degree_colors without the multiset check."""
    size, down = interval.size, interval.down
    downs = list(map(len, down))
    ups = [0] * size
    for ys in down:
        for y in ys:
            ups[y] += 1
    table = {}
    keys = zip(rank_colors(interval), ups + downs, downs + ups)
    return [table.setdefault(key, len(table)) for key in keys]


def first_occurrence(colors):
    """A coloring relabeled 0, 1, ... in id order: equal exactly when two
    colorings give the same partition."""
    if colors is None:
        return None
    table = {}
    return [table.setdefault(c, len(table)) for c in colors]


def first_level_trials(colors, size):
    """The search's first-level individualizations of stable ``colors``: the
    first vertex x of the first smallest nontrivial cell of [e, w] and each
    candidate image size + y take the fresh color, returned with it."""
    cells = {}
    for x in range(size):
        cells.setdefault(colors[x], []).append(x)
    nontrivial = [cell for cell in cells.values() if len(cell) > 1]
    if not nontrivial:
        return []
    x = min(nontrivial, key=len)[0]
    fresh = max(colors) + 1
    trials = []
    for y in range(size):
        if colors[size + y] == colors[x]:
            trial = list(colors)
            trial[x] = trial[size + y] = fresh
            trials.append((trial, fresh))
    return trials


class TestLevelGraphs:
    def test_figure_lower(self):
        interval = build_interval(parse_permutation("34521"))
        g = gamma_lower(interval)
        assert len(g.small) == 4 and len(g.big) == 9 and len(g.edges) == 18
        assert sorted(g.small_degrees()) == [4, 4, 5, 5]
        assert graph_as_dict(g) == GAMMA_LOWER_34521

    def test_figure_upper(self):
        interval = build_interval(parse_permutation("34521"))
        g = gamma_upper(interval)
        assert len(g.small) == 4 and len(g.big) == 9 and len(g.edges) == 18
        assert sorted(g.small_degrees()) == [4, 4, 4, 6]
        assert graph_as_dict(g) == GAMMA_UPPER_34521

    def test_small_interval(self):
        # [e, 231]: two atoms joined to one rank-2 vertex
        g = gamma_lower(build_interval(parse_permutation("231")))
        assert len(g.small) == 2 and len(g.big) == 1 and len(g.edges) == 2

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            gamma_lower(build_interval(parse_permutation("213")))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_direct_route_matches_interval_route(self, n):
        # every w of length >= 2 (S_2 has none), and of S_7 and S_8 a seeded
        # sample of 200: the same vertices, sorted by one-line tuple on the
        # direct route, and the same labeled edges
        ims = list(all_one_lines(n))
        for im in ims if n <= 6 else random.Random(n).sample(ims, 200):
            w = Permutation(im)
            if w.length() < 2:
                continue
            interval = build_interval(w)
            for fast, slow in zip(gamma_graphs_direct(w), (gamma_lower(interval), gamma_upper(interval))):
                assert fast.side == slow.side
                assert fast.small == tuple(sorted(slow.small))
                assert fast.big == tuple(sorted(slow.big))
                assert list(fast.edges) == sorted(fast.edges)
                assert len(fast.edges) == len(slow.edges)
                assert labeled_edges(fast) == labeled_edges(slow)

    def test_two_rank_reads(self):
        # the level graphs and degree extremes read ranks off the cover graph
        # and build none of the interval's whole-interval lists
        for im in all_one_lines(5):
            w = Permutation(im)
            if w.length() < 2:
                continue
            interval = build_interval(w)
            lower, upper = gamma_lower(interval), gamma_upper(interval)
            degree_extremes(interval)
            assert {"elements", "_position", "down"}.isdisjoint(vars(interval))
            assert lower == full_route(interval, 2, "lower")
            assert upper == full_route(interval, interval.top_rank - 1, "upper")

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for im in all_one_lines(5)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S5", "B3"],
    )
    def test_down_lists_match_up_route(self, ws):
        # the level graphs and degree extremes read covers off the down lists
        # of the higher rank; the up route reads them from the lower rank
        checked = 0
        for w in ws:
            interval = build_interval(w)
            if interval.top_rank < 2:
                continue
            lower, upper, extremes = up_route(interval)
            assert gamma_lower(interval) == lower
            assert gamma_upper(interval) == upper
            assert degree_extremes(interval) == extremes
            checked += 1
        assert checked == len(ws) - 1 - len(w.simple_indices())


class TestBipartiteIso:
    def test_figure_graphs_not_isomorphic(self):
        interval = build_interval(parse_permutation("34521"))
        assert bipartite_isomorphic(gamma_lower(interval), gamma_upper(interval)) is None

    def test_self_isomorphic(self):
        g = gamma_lower(build_interval(parse_permutation("34521")))
        mapping = bipartite_isomorphic(g, g)
        assert mapping is not None
        check_isomorphism(g, g, mapping)

    def test_w0_graphs_isomorphic(self):
        interval = build_interval(longest_permutation(4))
        g, h = gamma_lower(interval), gamma_upper(interval)
        mapping = bipartite_isomorphic(g, h)
        assert mapping is not None
        check_isomorphism(g, h, mapping)

    def test_size_mismatch(self):
        g = gamma_lower(build_interval(parse_permutation("231")))
        h = gamma_lower(build_interval(longest_permutation(4)))
        assert bipartite_isomorphic(g, h) is None

    def test_cycle_against_two_cycles(self):
        # uniform degrees everywhere, so only the pair structure tells them apart
        cycle = pair_graph([(i, (i + 1) % 12) for i in range(12)])
        halves = pair_graph([(b + i, b + (i + 1) % 6) for b in (0, 6) for i in range(6)])
        assert sorted(cycle.small_degrees()) == sorted(halves.small_degrees())
        assert bipartite_isomorphic(cycle, halves) is None
        assert bipartite_isomorphic(halves, cycle) is None
        for g in (cycle, halves):
            mapping = bipartite_isomorphic(g, g)
            assert mapping is not None
            check_isomorphism(g, g, mapping)

    @pytest.mark.parametrize("pairs", [[(0, 1), (1,)], [(0, 1), (0, 1, 2)]], ids=["one", "three"])
    def test_big_vertex_without_two_neighbours_raises(self, pairs):
        g = pair_graph(pairs)
        with pytest.raises(ValueError):
            bipartite_isomorphic(g, g)

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for im in all_one_lines(5)],
            [Permutation(im) for im in all_one_lines(6)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S5", "S6", "B3"],
    )
    def test_agrees_with_networkx(self, ws):
        nx = pytest.importorskip("networkx")
        GraphMatcher = nx.algorithms.isomorphism.GraphMatcher

        def as_nx(g):
            graph = nx.Graph()
            graph.add_nodes_from((("small", i), {"side": "small"}) for i in range(len(g.small)))
            graph.add_nodes_from((("big", j), {"side": "big"}) for j in range(len(g.big)))
            graph.add_edges_from((("small", i), ("big", j)) for i, j in g.edges)
            return graph

        def same_side(a, b):
            return a["side"] == b["side"]

        outcomes = Counter()
        for w in ws:
            if w.length() < 2:
                continue
            interval = build_interval(w)
            g, h = gamma_lower(interval), gamma_upper(interval)
            mapping = bipartite_isomorphic(g, h)
            matcher = GraphMatcher(as_nx(g), as_nx(h), node_match=same_side)
            assert (mapping is not None) == matcher.is_isomorphic(), w
            if mapping is not None:
                check_isomorphism(g, h, mapping)
            outcomes[mapping is not None] += 1
        assert outcomes[True] and outcomes[False]


class TestDualityMap:
    def test_identity_maps_to_top(self):
        w = parse_permutation("154973268")
        d = polished_decompose(w)
        assert duality_map(w, d, identity(9)) == w
        assert duality_map(w, d, w) == identity(9)

    def test_w0_twist(self):
        w0 = longest_permutation(4)
        d = polished_decompose(w0)
        for im in all_one_lines(4):
            u = Permutation(im)
            assert duality_map(w0, d, u) == w0 * u

    def test_not_below_rejected(self):
        w = parse_permutation("21345")
        d = polished_decompose(w)
        with pytest.raises(ValueError, match="not below"):
            duality_map(w, d, parse_permutation("54321"))

    def test_wrong_decomposition_rejected(self):
        w = parse_permutation("4321")
        other = polished_decompose(parse_permutation("2134"))
        with pytest.raises(ValueError, match="does not account"):
            duality_map(w, other, parse_permutation("4321"))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reverses_covers_and_involutive(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im):
                continue
            d = polished_decompose(w)
            interval = build_interval(w)
            dual = {x: duality_map(w, d, x) for x in interval.elements}
            assert set(dual.values()) == set(interval.elements)
            edges = {
                (interval.elements[x], interval.elements[y])
                for x, ys in enumerate(interval.down)
                for y in ys
            }
            assert {(dual[y], dual[x]) for x, y in edges} == edges
            # empirically the explicit map is an involution
            assert all(dual[dual[x]] == x for x in interval.elements)

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_reference_formula(self, n):
        for im in all_one_lines(n):
            if not brute_avoids_all(im):
                continue
            w = Permutation(im)
            d = polished_decompose(w)
            interval = build_interval(w)
            dual = {u: duality_map(w, d, u) for u in interval.elements}
            for u, v in dual.items():
                assert v == reference_dual(w, d, u)
                assert dual[v] == u

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_one_map_per_interval_matches_reference(self, n):
        # one compiled map shares its memos across all of [e, w]; every
        # six-avoider of S_5 and S_6, a seeded sample of S_7 and S_8
        if n <= 6:
            ws = [Permutation(im) for im in all_one_lines(n) if brute_avoids_all(im)]
        else:
            ws = reference_sample(n)
        for w in ws:
            d = polished_decompose(w)
            interval = build_interval(w)
            dual = DualityMap(w, d)
            expected = {u: reference_dual(w, d, u) for u in interval.elements}
            assert {u: Permutation(dual(u.images)) for u in interval.elements} == expected
            assert certify_self_dual(interval, d).pairing == expected

    def test_shared_map_across_threads(self):
        # threads filling one map's memos side by side store the values a
        # fresh map computes alone
        w = parse_permutation("154973268")
        d = polished_decompose(w)
        ones = [u.images for u in build_interval(w).elements]
        expected = [DualityMap(w, d)(x) for x in ones]
        shared = DualityMap(w, d)
        results: dict[int, list] = {}

        def work(t):
            results[t] = [shared(x) for x in ones[t::4] + ones]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        for t in range(4):
            assert results[t] == expected[t::4] + expected

    def test_warm_map_still_rejects(self):
        # a map whose memos hold the elements of [e, 2134], which its
        # decomposition accounts for, still rejects a tuple it does not
        w = parse_permutation("4321")
        other = polished_decompose(parse_permutation("2134"))
        dual = DualityMap(w, other)
        for u in build_interval(parse_permutation("2134")).elements:
            dual(u.images)
        for _ in range(2):
            with pytest.raises(ValueError, match="does not account"):
                dual(w.images)
        # 3421's map permutes all of [e, 4321] but reverses not every cover
        with pytest.raises(ValueError, match="does not induce an antiautomorphism"):
            certify_self_dual(build_interval(w), polished_decompose(parse_permutation("3421")))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_interval_pass_matches_per_tuple_map(self, n):
        # the pass runs the top block's function, as calling the map does;
        # its ids are those of the map applied one tuple at a time, on a
        # fresh map each
        avoiders = 0
        for im in all_one_lines(n):
            if not brute_avoids_all(im):
                continue
            w = Permutation(im)
            d = polished_decompose(w)
            interval = build_interval(w)
            ones = map(interval.graph.images.__getitem__, interval.gids)
            expected = interval.ids_of(map(DualityMap(w, d), ones))
            assert DualityMap(w, d).interval_ids(interval) == expected
            avoiders += 1
        assert avoiders == SIX_AVOIDING_COUNTS[n]

    def test_wrong_hints_raise(self):
        # on [e, w], the map of another element's decomposition either meets
        # an element it does not account for or sends e to v, not the top
        ones = [im for im in all_one_lines(4) if brute_avoids_all(im)]
        decomps = {im: polished_decompose(Permutation(im)) for im in ones}
        reasons = Counter()
        for im in ones:
            interval = build_interval(Permutation(im))
            for other in ones:
                if other == im:
                    continue
                with pytest.raises(ValueError) as caught:
                    certify_self_dual(interval, decomps[other])
                text = str(caught.value)
                reasons[next((r for r in ("does not account", "does not induce") if r in text), text)] += 1
        assert sorted(reasons) == ["does not account", "does not induce"]
        assert sum(reasons.values()) == 22 * 21

    def test_image_outside_interval_in_warm_graph_raises(self):
        # 4321's map sends [e, 2134] = {1234, 2134} to 4321 and 3421, and
        # 4321 covers 3421: a bijection between graph ids that reverses the
        # one cover, yet both images lie outside [e, 2134].  With [e, 4321]
        # built first, the graph knows both, so only the membership check
        # refuses them
        w0 = parse_permutation("4321")
        build_interval(w0)
        interval = build_interval(parse_permutation("2134"))
        dual = DualityMap(w0, polished_decompose(w0))
        images = [dual(u.images) for u in interval.elements]
        assert sorted(images) == [(3, 4, 2, 1), (4, 3, 2, 1)]
        assert all(x in interval.graph.ids for x in images)
        assert dual.interval_ids(interval) == [-1, -1]
        with pytest.raises(ValueError, match="does not induce an antiautomorphism"):
            certify_self_dual(interval, polished_decompose(w0))

    def test_unaccounted_element_raises_in_the_pass(self):
        # 2134's decomposition accounts for e and 2134 only
        w = parse_permutation("4321")
        dual = DualityMap(w, polished_decompose(parse_permutation("2134")))
        with pytest.raises(ValueError, match="does not account"):
            dual.interval_ids(build_interval(w))

    def test_type_b_rejected(self):
        w = SignedPermutation((-2, 1))
        with pytest.raises(ValueError, match="type A only"):
            DualityMap(w, polished_decompose(parse_permutation("21")))


class TestCertify:
    def test_34521_refuted(self):
        cert = certify_self_dual(build_interval(parse_permutation("34521")))
        assert cert.kind == "refuted" and not cert.is_self_dual
        assert cert.refinement_trace

    @pytest.mark.parametrize(
        "text,trace",
        [
            ("34521", "degree/rank color multisets of the interval and its dual differ"),
            ("3412", "rank profile (1, 3, 5, 4, 1) is asymmetric"),
        ],
    )
    def test_refinement_trace(self, text, trace):
        cert = certify_self_dual(build_interval(parse_permutation(text)))
        assert cert.refinement_trace == trace

    @pytest.mark.parametrize(
        "text,tried,shape",
        [
            ("2143", 2, "2 cells of size 1, 1 cells of size 2"),
            ("4321", 4, "6 cells of size 1, 5 cells of size 2, 2 cells of size 4"),
        ],
    )
    def test_exhausted_search_refutes(self, monkeypatch, text, tried, shape):
        # with every map rejected, the search tries each bijection its
        # individualizations leave and then refutes at the stable root shape
        maps = []

        def reject(interval, image):
            maps.append(image)
            return False

        monkeypatch.setattr(duality, "_reverses_covers", reject)
        cert = certify_self_dual(build_interval(parse_permutation(text)))
        assert cert.kind == "refuted" and cert.image is None
        assert len(maps) == tried and len({tuple(m) for m in maps}) == tried
        assert cert.refinement_trace == (
            f"stable refinement reached ({shape}) but every pairing fails cover reversal"
        )

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for n in range(1, 7) for im in all_one_lines(n)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S1-6", "B3"],
    )
    def test_atoms_check_within_root_colors(self, ws):
        # the atoms' up-degrees against the coatoms' down-degrees are the
        # rank-1 slice of the refined rank colors, so they never refute what
        # the refinement accepts
        differ = 0
        for w in ws:
            interval = build_interval(w)
            atom_up, coatom_down = interval.atom_coatom_degrees()
            if sorted(atom_up) != sorted(coatom_down):
                assert _refine_to_stable(_hasse_diagram(interval), rank_colors(interval)) is None
                differ += 1
        assert differ

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for n in range(1, 7) for im in all_one_lines(n)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S1-6", "B3"],
    )
    def test_rank_and_degree_starts_agree(self, ws):
        # an equitable partition finer than the ranks separates degrees, the
        # neighbor counts in the rank cells above and below, so refining the
        # rank colors reaches the partition the degree colors reach; so does
        # the package's degree start, which queues all but the largest part
        # of each rank cell
        parted = 0
        for w in ws:
            interval = build_interval(w)
            hasse = _hasse_diagram(interval)
            start = degree_colors(interval)
            refined = None if start is None else _refine_to_stable(hasse, start)
            expected = first_occurrence(refined)
            assert first_occurrence(_refine_to_stable(hasse, rank_colors(interval))) == expected
            colors, splitters, cells = _degree_start(interval, hasse)
            assert first_occurrence(colors) == first_occurrence(degree_start_colors(interval))
            seeded = _refine_to_stable(hasse, colors, splitters, cells)
            assert first_occurrence(seeded) == expected
            parted += start is None
        assert parted

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for n in range(1, 6) for im in all_one_lines(n)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S1-5", "B3"],
    )
    def test_carried_cells_match_colors(self, monkeypatch, ws):
        # the search carries one cell map from refinement to refinement and
        # never rebuilds it from colors: at the root and after every
        # individualization it holds the vertices of each color, in and out
        real = duality._refine_to_stable
        refinements = []

        def grouping(colors):
            cells = {}
            for v, c in enumerate(colors):
                cells.setdefault(c, []).append(v)
            return cells

        def checked(hasse, colors, splitters=None, cells=None):
            assert {c: sorted(cell) for c, cell in cells.items()} == grouping(colors)
            refined = real(hasse, colors, splitters, cells)
            if refined is not None:
                assert {c: sorted(cell) for c, cell in cells.items()} == grouping(refined)
            refinements.append(colors)
            return refined

        monkeypatch.setattr(duality, "_refine_to_stable", checked)
        roots = 0
        for w in ws:
            before = len(refinements)
            certify_self_dual(build_interval(w))
            roots += len(refinements) > before
        assert 0 < roots < len(refinements)

    def test_atoms_refutation_builds_no_whole_interval_lists(self):
        refuted = 0
        for n in (5, 6):
            for im in all_one_lines(n):
                if brute_avoids_all(im) or not brute_avoids_all(im, SMOOTH_PATTERNS):
                    continue
                interval = build_interval(Permutation(im))
                cert = certify_self_dual(interval)
                assert {"down", "rank", "elements", "_position"}.isdisjoint(vars(interval))
                assert cert.kind == "refuted"
                assert degree_colors(interval) is None
                assert cert.refinement_trace == (
                    "degree/rank color multisets of the interval and its dual differ"
                )
                refuted += 1
        assert refuted == 4 + 44

    def test_w0_constructive(self):
        w0 = longest_permutation(4)
        cert = certify_self_dual(build_interval(w0), polished_decompose(w0))
        assert cert.kind == "constructive-map"

    def test_two_chain(self):
        cert = certify_self_dual(build_interval(parse_permutation("213")))
        assert cert.kind == "explicit-bijection"

    def test_trivial_interval(self):
        cert = certify_self_dual(build_interval(identity(3)))
        assert cert.is_self_dual

    def test_wrong_hint_rejected(self):
        w = parse_permutation("4321")
        with pytest.raises(ValueError):
            certify_self_dual(build_interval(w), polished_decompose(parse_permutation("2134")))

    def test_escaping_hint_is_value_error(self):
        # the map of 3214's decomposition sends e to 3214, outside [e, 2134]
        w = parse_permutation("2134")
        with pytest.raises(ValueError, match="does not induce"):
            certify_self_dual(build_interval(w), polished_decompose(parse_permutation("3214")))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hint_and_search_agree(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im):
                continue
            interval = build_interval(w)
            assert certify_self_dual(interval, polished_decompose(w)).is_self_dual
            assert "down" not in vars(interval)  # the cover check reads the cover graph
            assert certify_self_dual(interval).is_self_dual

    @pytest.mark.parametrize("n", [4, 5])
    def test_verdict_matches_pattern_class(self, n):
        # the theorem this package exists to check, at small scale
        for im in all_one_lines(n):
            w = Permutation(im)
            cert = certify_self_dual(build_interval(w))
            assert cert.is_self_dual == brute_avoids_all(im)

    @pytest.mark.parametrize("n", [4, 5])
    def test_refutation_sound_on_small_intervals(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            interval = build_interval(w)
            cert = certify_self_dual(interval)
            brute = exhaustive_antiautomorphism_exists(interval, cap=10)
            if brute is not None:
                assert cert.is_self_dual == brute

    def test_pairing_is_built_from_the_stored_image(self):
        for text in ("4321", "34512", "45231", "34521", "3412"):
            w = parse_permutation(text)
            interval = build_interval(w)
            certs = [certify_self_dual(interval)]
            if brute_avoids_all(w.images):
                certs.append(certify_self_dual(interval, polished_decompose(w)))
            for cert in certs:
                if cert.kind == "refuted":
                    assert cert.image is None and cert.pairing is None
                    continue
                assert sorted(cert.image) == list(range(interval.size))
                elements = interval.elements
                assert cert.pairing == {elements[x]: elements[y] for x, y in enumerate(cert.image)}

    def test_pairing_reverses_covers_when_found(self):
        for text in ("4321", "34512", "45231"):
            w = parse_permutation(text)
            interval = build_interval(w)
            cert = certify_self_dual(interval)
            if not cert.is_self_dual:
                continue
            pairing = cert.pairing
            edges = {
                (interval.elements[x], interval.elements[y])
                for x, ys in enumerate(interval.down)
                for y in ys
            }
            assert {(pairing[y], pairing[x]) for x, y in edges} == edges

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for n in range(1, 6) for im in all_one_lines(n)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S1-5", "B3"],
    )
    def test_refined_colors_keep_one_rank(self, ws):
        # the refinement counts a vertex's Hasse neighbors in each cell, which
        # tells covers from covered only if no color spans two ranks of
        # [e, w] (ids x) and its dual (ids size + x)
        def assert_one_rank(colors, union_rank):
            rank_of = {}
            for c, r in zip(colors, union_rank):
                assert rank_of.setdefault(c, r) == r

        for w in ws:
            interval = build_interval(w)
            union_rank = rank_colors(interval)
            hasse = _hasse_diagram(interval)
            colors = _refine_to_stable(hasse, list(union_rank))
            if colors is None:
                continue
            assert_one_rank(colors, union_rank)
            for trial, fresh in first_level_trials(colors, interval.size):
                refined = _refine_to_stable(hasse, trial, [fresh])
                if refined is not None:
                    assert_one_rank(refined, union_rank)

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for n in range(1, 6) for im in all_one_lines(n)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S1-5", "B3"],
    )
    def test_refinement_matches_round_based(self, ws):
        # the worklist refinement reaches the partition of the round-based
        # reference at the root and after each first-level individualization,
        # and refining from the individualized cell alone equals refining
        # from every cell
        trials = 0
        for w in ws:
            interval = build_interval(w)
            hasse = _hasse_diagram(interval)
            colors = rank_colors(interval)
            expected = first_occurrence(round_refine(hasse, colors))
            colors = _refine_to_stable(hasse, list(colors))
            assert first_occurrence(colors) == expected
            if colors is None:
                continue
            for trial, fresh in first_level_trials(colors, interval.size):
                expected = first_occurrence(round_refine(hasse, trial))
                assert first_occurrence(_refine_to_stable(hasse, list(trial))) == expected
                assert first_occurrence(_refine_to_stable(hasse, list(trial), [fresh])) == expected
                trials += 1
        assert trials

    def test_refinement_halves_part(self):
        # the multisets agree at the start and part once vertex 0, a color-0
        # vertex with a color-1 neighbor, finds no match in the dual half,
        # whose two color-0 vertices are each other's neighbors
        hasse = [[1], [0], [], []]
        colors = [0, 1, 0, 1, 0, 0, 1, 1]
        assert Counter(colors[:4]) == Counter(colors[4:])
        assert round_refine(hasse, colors) is None
        assert _refine_to_stable(hasse, list(colors)) is None
        # B_3's counterexample passes the atoms check and parts here, from
        # its rank colors, whose multisets agree
        el = evaluate_word((3, 2, 3, 1, 2, 3, 1, 2), CoxeterPresentation("B", 3)).element
        interval = build_interval(el)
        atom_up, coatom_down = interval.atom_coatom_degrees()
        assert sorted(atom_up) == sorted(coatom_down)
        assert _refine_to_stable(_hasse_diagram(interval), rank_colors(interval)) is None

    @pytest.mark.parametrize("n", [4, 5])
    def test_self_dual_implies_gamma_iso(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            if w.length() < 2:
                continue
            interval = build_interval(w)
            if certify_self_dual(interval).is_self_dual:
                assert bipartite_isomorphic(gamma_lower(interval), gamma_upper(interval))


class TestRankOneCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_refutes_exactly_the_rank_one_asymmetric(self, n):
        # the counts are |P_1| and |P_{l-1}| of the built interval, so they
        # differ exactly when its profile parts at rank 1; in S_4 that is
        # 3412 and 4231, and most singular w of S_6 and S_7
        refuted = {1: 0, 2: 0, 3: 0, 4: 2, 6: 341, 7: 3379}.get(n)
        count = 0
        for im in all_one_lines(n):
            w = Permutation(im)
            profile = rank_profile(build_interval(w))
            atoms, coatoms = rank_one_counts(w)
            if len(profile) > 1:
                assert (atoms, coatoms) == (profile[1], profile[-2])
            else:
                assert (atoms, coatoms) == (0, 0)
            count += atoms != coatoms
        assert refuted is None or count == refuted

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_brute_profile(self, n):
        for im in all_one_lines(n):
            profile = brute_rank_profile(im)
            atoms, coatoms = rank_one_counts(Permutation(im))
            assert (atoms != coatoms) == (len(profile) > 1 and profile[1] != profile[-2])

    @pytest.mark.parametrize("rank", [2, 3])
    def test_matches_built_profile_in_type_b(self, rank):
        # the atoms are supp(w) and the coatoms w's covers in any Coxeter
        # group, so the counts read off w hold in B_n as well
        for w in group_elements(CoxeterPresentation("B", rank)):
            profile = rank_profile(build_interval(w))
            expected = (0, 0) if w.is_identity() else (profile[1], profile[-2])
            assert rank_one_counts(w) == expected, w


def reverses_order(interval, image):
    """The id map is a bijection taking each cover y < x to a cover image[x] < image[y]."""
    if sorted(image) != list(range(interval.size)):
        return False
    return all(image[x] in interval.down[image[y]] for x, ys in enumerate(interval.down) for y in ys)


class TestTransport:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_carried_bijection_verifies_on_every_image(self, n):
        carried = 0
        for im in all_one_lines(n):
            if not brute_avoids_all(im):
                continue
            cert = certify_self_dual(build_interval(Permutation(im)))
            assert cert.kind == "explicit-bijection"
            for g in KLEIN_INVOLUTIONS:
                if g(im) == im:
                    continue
                target = build_interval(Permutation(g(im)))
                moved = transport_certificate(cert, target, g)
                assert moved.kind == "explicit-bijection" and moved.interval is target
                assert "down" not in vars(target)
                assert reverses_order(target, moved.image)
                carried += 1
        assert carried > 0 or n < 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_graph_id_cover_check_matches_down_lists(self, n):
        # the cover check on graph ids agrees with one on the sorted down
        # lists for every search and hinted certificate, and rejects a found
        # bijection whose top and bottom images are swapped
        checked = 0
        for im in all_one_lines(n):
            w = Permutation(im)
            interval = build_interval(w)
            certs = [certify_self_dual(interval)]
            if brute_avoids_all(im):
                certs.append(certify_self_dual(interval, polished_decompose(w)))
            for cert in certs:
                if not cert.is_self_dual:
                    continue
                assert _reverses_covers(interval, cert.image) and reverses_order(interval, cert.image)
                checked += 1
                for i, j in ((0, -1), (1, 2)):
                    if interval.size > 2:
                        image = list(cert.image)
                        image[i], image[j] = image[j], image[i]
                        assert _reverses_covers(interval, image) == reverses_order(interval, image)
                        assert i or not _reverses_covers(interval, image)
        assert checked == 2 * SIX_AVOIDING_COUNTS[n]

    def test_corrupted_bijection_raises(self):
        cert = certify_self_dual(build_interval(parse_permutation("1342")))
        image = list(cert.image)
        image[0], image[-1] = image[-1], image[0]
        bad = DualityCertificate("explicit-bijection", None, cert.interval, image)
        target = build_interval(parse_permutation("1423"))
        with pytest.raises(ValueError, match="does not reverse the covers"):
            transport_certificate(bad, target, KLEIN_INVOLUTIONS[0])
        with pytest.raises(ValueError, match="cannot carry"):
            transport_certificate(certify_self_dual(build_interval(parse_permutation("3412"))), target, KLEIN_INVOLUTIONS[0])
