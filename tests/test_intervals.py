import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import longest_permutation, simple_transposition
from oracle_utils import (
    SMOOTH_COUNTS,
    SMOOTH_PATTERNS,
    all_one_lines,
    brute_avoids_all,
    brute_bfs_interval,
    brute_interval,
    brute_leq,
    brute_rank_profile,
    gasharov_rank_profile,
)

from bruhatdual import harness, intervals
from bruhatdual.duality import certify_self_dual, gamma_lower, gamma_upper
from bruhatdual.harness import analyze
from bruhatdual.intervals import (
    bruhat_leq,
    build_interval,
    degree_extremes,
    enumerate_parabolic,
    is_bp_decomposition,
    longest_parabolic,
    max_parabolic_below,
    parabolic_decompose,
    rank_profile,
    subword_downset,
    subword_leq,
)
from bruhatdual.permutations import Permutation, identity, parse_permutation
from bruhatdual.polished import polished_decompose
from bruhatdual.signed import CoxeterPresentation, SignedPermutation, group_elements

perms = lambda n: st.permutations(list(range(1, n + 1))).map(tuple).map(Permutation)


def reference_interval(w):
    """Downward BFS over Permutation objects, through minimal_inversions()
    and times_transposition_right(): (elements, rank, down) in the id order
    build_interval promises, each down list sorted."""
    elements, index, rank, down = [w], {w: 0}, [w.length()], [[]]
    frontier = [0]
    while frontier:
        nxt = []
        for xid in frontier:
            x = elements[xid]
            for i, j in x.minimal_inversions():
                y = x.times_transposition_right(i, j)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    rank.append(rank[xid] - 1)
                    down.append([])
                    nxt.append(index[y])
                down[xid].append(index[y])
        frontier = nxt
    for ys in down:
        ys.sort()
    return elements, rank, down


class TestBruhatLeq:
    def test_identity_minimum(self):
        assert bruhat_leq(identity(5), parse_permutation("34521"))

    def test_reflexive(self):
        w = parse_permutation("34521")
        assert bruhat_leq(w, w)

    def test_2143_below_34521(self):
        assert bruhat_leq(parse_permutation("21435"), parse_permutation("34521"))
        assert subword_leq(parse_permutation("21435"), parse_permutation("34521"))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq(identity(3), identity(4))

    def test_agrees_with_subword_oracle_s4(self):
        els = [Permutation(im) for im in all_one_lines(4)]
        for w in els:
            down = subword_downset(w)
            for u in els:
                assert bruhat_leq(u, w) == (u in down)

    @pytest.mark.parametrize("u,w", [("3124", "1243"), ("3412", "4123")])
    def test_longer_and_incomparable(self, u, w):
        u, w = parse_permutation(u), parse_permutation(w)
        assert u.length() > w.length()
        assert not bruhat_leq(u, w) and not bruhat_leq(w, u)
        assert not subword_leq(u, w) and not subword_leq(w, u)

    @given(perms(6), perms(6))
    @settings(max_examples=150)
    def test_agrees_with_brute_closure_s6(self, u, w):
        assert bruhat_leq(u, w) == brute_leq(u.images, w.images)


class TestInterval:
    def test_whole_group_for_w0(self):
        assert build_interval(longest_permutation(4)).size == 24

    def test_two_chain(self):
        interval = build_interval(simple_transposition(3, 1))
        assert interval.size == 2 and rank_profile(interval) == (1, 1)

    def test_identity_interval(self):
        assert rank_profile(build_interval(identity(4))) == (1,)

    def test_rank_profile_4321(self):
        assert rank_profile(build_interval(longest_permutation(4))) == (1, 3, 5, 6, 5, 3, 1)

    def test_rank_profile_34521(self):
        # start and end counts match the worked level graphs; middle values
        # frozen from the independent tuple-based closure oracle
        assert rank_profile(build_interval(parse_permutation("34521"))) == (1, 4, 9, 13, 13, 9, 4, 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_closure(self, n):
        for im in all_one_lines(n):
            interval = build_interval(Permutation(im))
            assert {x.images for x in interval.elements} == set(brute_interval(im))
            assert rank_profile(interval) == brute_rank_profile(im)

    @given(perms(5))
    @settings(max_examples=60)
    def test_matches_brute_closure_s5(self, w):
        interval = build_interval(w)
        assert {x.images for x in interval.elements} == set(brute_interval(w.images))

    @pytest.mark.parametrize("n", [3, 4])
    def test_cover_characterization(self, n):
        # u covered by v iff lengths differ by one and u = v t for a reflection
        for im in all_one_lines(n):
            interval = build_interval(Permutation(im))
            edges = {
                (interval.elements[x].images, interval.elements[y].images)
                for x, ys in enumerate(interval.down)
                for y in ys
            }
            for v in interval.elements:
                for u in interval.elements:
                    lv, lu = v.length(), u.length()
                    is_cover = (
                        lv == lu + 1
                        and (v.inverse() * u).support()
                        and sum(1 for a, b in zip(v.images, u.images) if a != b) == 2
                        and bruhat_leq(u, v)
                    )
                    assert ((v.images, u.images) in edges) == bool(is_cover)

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for im in all_one_lines(5)],
            [Permutation(im) for im in random.Random(7).sample(list(all_one_lines(7)), 30)],
        ],
        ids=["S5", "S7-sample"],
    )
    def test_matches_reference_bfs(self, ws):
        for w in ws:
            interval = build_interval(w)
            elements, rank, down = reference_interval(w)
            assert interval.elements == elements
            assert (interval.rank, interval.down) == (rank, down)
            assert interval.index == {x: i for i, x in enumerate(elements)}
            assert set(interval.elements) == subword_downset(w)

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for im in all_one_lines(5)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S5", "B3"],
    )
    def test_ids_at_rank_is_contiguous_layer(self, ws):
        for w in ws:
            interval = build_interval(w)
            assert all(a >= b for a, b in zip(interval.rank, interval.rank[1:]))
            for k in range(-1, interval.top_rank + 2):
                scan = [i for i in range(interval.size) if interval.rank[i] == k]
                assert interval.ids_at_rank(k) == scan
                assert interval.gids_at_rank(k) == [interval.gids[i] for i in scan]

    @pytest.mark.parametrize(
        "ws",
        [
            [Permutation(im) for im in all_one_lines(5)],
            list(group_elements(CoxeterPresentation("B", 3))),
        ],
        ids=["S5", "B3"],
    )
    def test_rank_reads_match_down(self, ws):
        for w in ws:
            interval = build_interval(w)
            down = interval.down
            assert all(interval.rank[y] == interval.rank[x] - 1 for x, ys in enumerate(down) for y in ys)

    def test_diamond_property(self):
        # every rank-2 subinterval has exactly two middle elements
        for im in all_one_lines(4):
            interval = build_interval(Permutation(im))
            for xid in range(interval.size):
                grandchildren = {}
                for mid in interval.down[xid]:
                    for low in interval.down[mid]:
                        grandchildren[low] = grandchildren.get(low, 0) + 1
                assert all(count == 2 for count in grandchildren.values())


class TestLaziness:
    """The rank layers answer the profile, level-graph and degree reads, and
    a refutation by rank profile or at the atoms, without building
    the full down lists or the index."""

    @pytest.mark.parametrize("text", ["3412", "4231", "34521", "4321"])
    def test_rank_reads_leave_down_unbuilt(self, text):
        interval = build_interval(parse_permutation(text))
        rank_profile(interval)
        gamma_lower(interval), gamma_upper(interval)
        degree_extremes(interval)
        if text != "4321":  # self-dual: the search reads the Hasse diagram
            assert certify_self_dual(interval).kind == "refuted"
        assert "down" not in vars(interval) and "index" not in vars(interval)

    def test_size_and_ranks_need_no_elements(self):
        interval = build_interval(parse_permutation("34521"))
        assert (interval.size, interval.top_rank, interval.ids_at_rank(7)) == (54, 7, [0])
        assert {"rank", "elements", "down", "index"}.isdisjoint(vars(interval))


class TestGasharovOracle:
    """Gasharov's factorization gives the rank profile of a smooth [e, w]
    without enumerating covers, the one layer-size check that shares no code
    with build_interval."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_oracle_matches_brute_closure(self, n):
        for im in all_one_lines(n):
            if brute_avoids_all(im, SMOOTH_PATTERNS):
                assert gasharov_rank_profile(im) == brute_rank_profile(im)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_smooth_rank_profiles(self, n):
        smooth = [im for im in all_one_lines(n) if gasharov_rank_profile(im) is not None]
        assert len(smooth) == SMOOTH_COUNTS[n]
        for im in smooth:
            assert rank_profile(build_interval(Permutation(im))) == gasharov_rank_profile(im)


def interval_fields(interval):
    return (
        interval.top,
        interval.elements,
        interval.index,
        interval.rank,
        interval.down,
    )


class TestCoverGraph:
    """build_interval reads covers from a per-class graph kept across calls;
    no interval may see another's state through it."""

    def test_interleaved_classes(self, monkeypatch):
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        groups = [
            [Permutation(im) for im in all_one_lines(3)],
            list(group_elements(CoxeterPresentation("B", 3))),
            [Permutation(im) for im in all_one_lines(4)],
            list(group_elements(CoxeterPresentation("B", 2))),
        ]
        for ws in itertools.zip_longest(*groups):
            for w in ws:
                if w is not None:
                    interval = build_interval(w)
                    assert set(interval.elements) == subword_downset(w)
                    assert all(type(x) is type(w) for x in interval.elements)
        assert set(intervals._COVER_GRAPHS) == {Permutation, SignedPermutation}

    def test_cold_and_warm_builds_agree(self, monkeypatch):
        ws = [Permutation(im) for im in random.Random(3).sample(list(all_one_lines(6)), 40)]
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        cold = [interval_fields(build_interval(w)) for w in ws]
        warm = [interval_fields(build_interval(w)) for w in reversed(ws)][::-1]
        assert warm == cold
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        assert [interval_fields(build_interval(w)) for w in reversed(ws)][::-1] == cold

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_order_matches_package_free_bfs(self, monkeypatch, warm):
        # ids, cover order and down lists against a BFS that shares no code
        # with the cover kernel; reference_interval reads covers through
        # minimal_inversions, which derives from the kernel
        ones = [im for n in range(1, 7) for im in all_one_lines(n)]
        ones += random.Random(27).sample(list(all_one_lines(7)), 200)
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        for im in ones:
            if not warm:
                monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
            top, elements, index, rank, down = interval_fields(build_interval(Permutation(im)))
            expected, expected_rank, expected_down = brute_bfs_interval(im)
            assert top.images == im
            assert [x.images for x in elements] == expected
            assert {x.images: i for x, i in index.items()} == {y: i for i, y in enumerate(expected)}
            assert (rank, down) == (expected_rank, expected_down)

    def test_down_cover_images_follow_graph_order(self):
        # minimal_inversions and gamma_graphs_direct read the kernel's cover
        # order through down_cover_images, so it must list the covers in the
        # order the closed graph stores them, not only the same set
        groups = [[Permutation(im) for im in all_one_lines(n)] for n in range(1, 7)]
        groups.append(list(group_elements(CoxeterPresentation("B", 3))))
        for ws in groups:
            top = max(ws, key=lambda w: w.length())
            build_interval(top)
            graph = intervals._COVER_GRAPHS[type(top)]
            for w in ws:
                covers = graph.covers[graph.ids[w.images]]
                assert type(w).down_cover_images(w.images) == [graph.images[g] for g in covers], w

    def test_returned_lists_are_fresh(self):
        w = parse_permutation("34521")
        first = build_interval(w)
        expected = interval_fields(build_interval(w))
        first.elements.reverse()
        first.elements.append(identity(5))
        first.down[0].clear()
        first.down.append([0])
        again = build_interval(w)
        assert interval_fields(again) == expected
        assert again.elements is not first.elements and again.down[0] is not first.down[0]

    def test_concurrent_growth(self, monkeypatch):
        ws = [Permutation(im) for im in random.Random(5).sample(list(all_one_lines(6)), 24)]
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        expected = [interval_fields(build_interval(w)) for w in ws]
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        results: dict[int, list] = {}

        def work(t):
            results[t] = [interval_fields(build_interval(w)) for w in ws[t:] + ws[:t]]

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
            assert results[t] == expected[t:] + expected[:t]
        graph = intervals._COVER_GRAPHS[Permutation]
        assert graph.ids == {im: g for g, im in enumerate(graph.images)}
        assert len(graph.covers) == len(graph.images)
        assert all(c < len(graph.images) for cs in graph.covers for c in cs)

    def test_graph_holds_no_elements(self, monkeypatch):
        # element objects are built only where a caller reads them: no build,
        # analysis or certification wraps the nodes of a whole interval
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        built = []

        def recording_build(w):
            built.append(build_interval(w))
            return built[-1]

        monkeypatch.setattr(harness, "build_interval", recording_build)
        w0, w = longest_permutation(5), parse_permutation("34521")
        hint = polished_decompose(w0)
        for x in (w0, w):
            interval = build_interval(x)
            analyze(x)
            assert certify_self_dual(interval).is_self_dual == (x == w0)
            if x == w0:
                assert certify_self_dual(interval, hint).kind == "constructive-map"
            else:
                with pytest.raises(ValueError):
                    certify_self_dual(interval, hint)
            built.append(interval)
        # analyze builds w0's interval only: it refutes 34521 from w
        assert len(built) == 3
        assert all("elements" not in vars(interval) for interval in built)
        assert not hasattr(intervals._COVER_GRAPHS[Permutation], "elements")

    def test_concurrent_reads(self, monkeypatch):
        ws = [Permutation(im) for im in random.Random(7).sample(list(all_one_lines(6)), 12)]
        monkeypatch.setattr(intervals, "_COVER_GRAPHS", {})
        for w in ws:
            build_interval(w)  # grow the graph
        results: dict[int, list] = {}

        def work(t):
            results[t] = [build_interval(w).elements for w in ws[t:] + ws[:t]]

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
        expected = [reference_interval(w)[0] for w in ws]
        for t in range(4):
            lists = results[t][len(ws) - t :] + results[t][: len(ws) - t]
            assert lists == expected


class TestDegreeExtremes:
    def test_34521(self):
        assert degree_extremes(build_interval(parse_permutation("34521"))) == (5, 6)

    def test_w0_equal_pair(self):
        a, b = degree_extremes(build_interval(longest_permutation(4)))
        assert a == b

    def test_diamond(self):
        # smallest admissible interval: a single diamond
        assert degree_extremes(build_interval(parse_permutation("231"))) == (1, 1)

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            degree_extremes(build_interval(simple_transposition(3, 1)))


class TestParabolic:
    def test_spec_example_321(self):
        d = parabolic_decompose(parse_permutation("321"), {2}, "right")
        assert d.quotient_part == parse_permutation("312")
        assert d.parabolic_part == simple_transposition(3, 2)

    def test_empty_j(self):
        w = parse_permutation("34521")
        d = parabolic_decompose(w, set(), "right")
        assert d.quotient_part == w and d.parabolic_part.is_identity()

    def test_longest_of_j(self):
        w0j = longest_parabolic(identity(5), {1, 2})
        d = parabolic_decompose(w0j, {1, 2}, "right")
        assert d.quotient_part.is_identity() and d.parabolic_part == w0j

    @given(perms(6), st.sets(st.integers(min_value=1, max_value=5)))
    @settings(max_examples=150)
    def test_length_additive_and_no_descents(self, w, J):
        d = parabolic_decompose(w, J, "right")
        assert d.quotient_part * d.parabolic_part == w
        assert d.quotient_part.length() + d.parabolic_part.length() == w.length()
        assert not (d.quotient_part.right_descents() & frozenset(J))
        assert d.parabolic_part.support() <= frozenset(J)

    @given(perms(6), st.sets(st.integers(min_value=1, max_value=5)))
    @settings(max_examples=80)
    def test_left_is_mirror(self, w, J):
        d = parabolic_decompose(w, J, "left")
        assert d.parabolic_part * d.quotient_part == w
        assert not (d.quotient_part.left_descents() & frozenset(J))
        assert d.parabolic_part.support() <= frozenset(J)
        mirror = parabolic_decompose(w.inverse(), J, "right")
        assert d.quotient_part == mirror.quotient_part.inverse()

    def test_monotone_projection(self):
        # the quotient map preserves Bruhat order
        els = [Permutation(im) for im in all_one_lines(4)]
        subsets = [set(c) for r in range(4) for c in itertools.combinations([1, 2, 3], r)]
        for J in subsets:
            proj = {w: parabolic_decompose(w, J, "right").quotient_part for w in els}
            for u in els:
                for w in els:
                    if bruhat_leq(u, w):
                        assert bruhat_leq(proj[u], proj[w])

    def test_longest_parabolic_is_reversal(self):
        # for an interval of generators, w_0(J) reverses the corresponding
        # window of positions
        w0 = longest_parabolic(identity(6), {2, 3, 4})
        assert w0.images == (1, 5, 4, 3, 2, 6)

    @given(st.sets(st.integers(min_value=1, max_value=5)))
    def test_longest_parabolic_descents(self, J):
        w0j = longest_parabolic(identity(6), J)
        assert w0j.right_descents() == frozenset(J)
        assert w0j.left_descents() == frozenset(J)


class TestBp:
    def test_empty_j_trivial(self):
        assert is_bp_decomposition(parse_permutation("34521"), set())

    def test_3412_direct_definition(self):
        w = parse_permutation("3412")
        for J in [{1}, {2}, {3}, {1, 3}]:
            d = parabolic_decompose(w, J, "right")
            expected = (d.quotient_part.support() & frozenset(J)) <= d.parabolic_part.left_descents()
            assert is_bp_decomposition(w, J) == expected

    def test_max_parabolic_spec_examples(self):
        assert max_parabolic_below(parse_permutation("321"), {1}) == simple_transposition(3, 1)
        assert max_parabolic_below(parse_permutation("34521"), set()).is_identity()

    def test_bp_implies_parabolic_is_maximal(self):
        for im in all_one_lines(4):
            w = Permutation(im)
            for r in range(4):
                for J in itertools.combinations([1, 2, 3], r):
                    if is_bp_decomposition(w, set(J)):
                        d = parabolic_decompose(w, set(J), "right")
                        assert max_parabolic_below(w, set(J)) == d.parabolic_part

    def test_max_parabolic_matches_brute_filter(self):
        for im in all_one_lines(4):
            w = Permutation(im)
            for J in [{1}, {2}, {3}, {1, 2}, {2, 3}, {1, 3}]:
                m = max_parabolic_below(w, J)
                members = [x for x in enumerate_parabolic(identity(4), J) if bruhat_leq(x, w)]
                assert m in members
                assert all(bruhat_leq(x, m) for x in members)


class TestOrderTheorems:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_top_heavy_ranks(self, n):
        for im in all_one_lines(n):
            profile = rank_profile(build_interval(Permutation(im)))
            l = len(profile) - 1
            for k in range(l // 2 + 1):
                assert profile[k] <= profile[l - k]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rank_symmetric_iff_smooth(self, n):
        from bruhatdual.polished import avoids_smooth_patterns

        for im in all_one_lines(n):
            w = Permutation(im)
            profile = rank_profile(build_interval(w))
            assert (profile == profile[::-1]) == avoids_smooth_patterns(w)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_count_is_degree_minus_atoms(self, n):
        # the atoms of [e, w] are the simple transpositions in supp(w)
        for im in all_one_lines(n):
            w = Permutation(im)
            interval = build_interval(w)
            atoms = len(interval.ids_at_rank(1)) if w.length() >= 1 else 0
            assert atoms == len(w.support())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_coatom_excess(self, n):
        from bruhatdual.permutations import contains_pattern

        p4231 = parse_permutation("4231")
        for im in all_one_lines(n):
            w = Permutation(im)
            if w.is_identity():
                continue
            atoms = len(w.support())
            coatoms = len(w.minimal_inversions())
            assert coatoms >= atoms
            if contains_pattern(w, p4231) is not None:
                assert coatoms > atoms

    @pytest.mark.parametrize("n", [4, 5])
    def test_diamond_lemma_adjacent_minimal_inversions(self, n):
        from bruhatdual.permutations import contains_pattern

        p4231 = parse_permutation("4231")
        for im in all_one_lines(n):
            w = Permutation(im)
            if contains_pattern(w, p4231) is not None:
                continue
            lw = w.length()
            inv = w.minimal_inversions()
            for (p, q1), (q2, r) in itertools.product(inv, inv):
                if q1 != q2:
                    continue
                a = w.times_transposition_right(p, q1).times_transposition_right(q1, r)
                b = w.times_transposition_right(q1, r).times_transposition_right(p, q1)
                for x in (a, b):
                    assert x.length() == lw - 2
                    assert bruhat_leq(x, w.times_transposition_right(p, q1))
                    assert bruhat_leq(x, w.times_transposition_right(q1, r))

    @pytest.mark.parametrize("n", [4, 5])
    def test_support_disjoint_product_factorization(self, n):
        for im_u in all_one_lines(n):
            u = Permutation(im_u)
            if u.is_identity():
                continue
            for im_v in all_one_lines(n):
                v = Permutation(im_v)
                if v.is_identity() or (u.support() & v.support()):
                    continue
                w = u * v
                iu, iv, iw = build_interval(u), build_interval(v), build_interval(w)
                assert iw.size == iu.size * iv.size
                # multiplication is a poset isomorphism from the product
                index = iw.index
                pairs = {}
                for x in iu.elements:
                    for y in iv.elements:
                        pairs[(x, y)] = index[x * y]
                down_w = {
                    (a, b) for a, bs in enumerate(iw.down) for b in bs
                }
                prod_edges = set()
                for x in iu.elements:
                    xid = iu.index[x]
                    for y in iv.elements:
                        yid = iv.index[y]
                        for x2 in iu.down[xid]:
                            prod_edges.add((pairs[(x, y)], pairs[(iu.elements[x2], y)]))
                        for y2 in iv.down[yid]:
                            prod_edges.add((pairs[(x, y)], pairs[(x, iv.elements[y2])]))
                assert prod_edges == down_w
