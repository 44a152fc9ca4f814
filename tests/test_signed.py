import itertools

import pytest

from bruhatdual.intervals import (
    bruhat_leq,
    build_interval,
    longest_parabolic,
    rank_profile,
    subword_downset,
)
from bruhatdual.permutations import Permutation
from bruhatdual.signed import (
    CoxeterPresentation,
    SignedPermutation,
    evaluate_word,
    group_elements,
    reflections_b,
    signed_identity,
)

B2 = CoxeterPresentation("B", 2)
B3 = CoxeterPresentation("B", 3)
A3 = CoxeterPresentation("A", 3)


class TestGroupStructure:
    def test_orders(self):
        assert len(list(group_elements(B2))) == 8
        assert len(list(group_elements(B3))) == 48
        assert len(list(group_elements(A3))) == 24

    def test_braid_relations(self):
        s1 = evaluate_word([1], B3).element
        s2 = evaluate_word([2], B3).element
        s3 = evaluate_word([3], B3).element

        def order(x):
            k, y = 1, x
            while not y.is_identity():
                y = y * x
                k += 1
            return k

        assert order(s1 * s2) == 3
        assert order(s2 * s3) == 4
        assert order(s1 * s3) == 2

    def test_unsupported_type_rejected(self):
        with pytest.raises(ValueError, match="only A and B"):
            CoxeterPresentation("D", 4)


class TestDiagramQueries:
    """The path predicates against the Dynkin diagram's explicit edge set;
    type B's label-4 edge (4, 5) is an edge like any other."""

    PATHS = [
        (CoxeterPresentation("A", 6), {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        (CoxeterPresentation("B", 5), {(1, 2), (2, 3), (3, 4), (4, 5)}),
    ]

    @staticmethod
    def bfs_connected(S, edges):
        if not S:
            return True
        start = min(S)
        seen, todo = {start}, [start]
        while todo:
            s = todo.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == s and y in S and y not in seen:
                        seen.add(y)
                        todo.append(y)
        return seen == set(S)

    @pytest.mark.parametrize("group,edges", PATHS, ids=["A6", "B5"])
    def test_subsets_match_edge_set(self, group, edges):
        nodes = list(group.nodes)
        assert nodes == list(range(1, group.rank + 1))
        for s in nodes:
            for t in nodes:
                assert group.adjacent(s, t) == ((s, t) in edges or (t, s) in edges)
        for r in range(len(nodes) + 1):
            for S in map(frozenset, itertools.combinations(nodes, r)):
                assert group.is_connected(S) == self.bfs_connected(S, edges), S
                inside = any(a in S and b in S for a, b in edges)
                assert group.is_totally_disconnected(S) == (not inside), S


class TestLength:
    def test_bfs_cross_check(self):
        # closed-form length equals Cayley-graph distance from the identity
        for group in (B2, B3):
            dist = {group.identity(): 0}
            frontier = [group.identity()]
            while frontier:
                nxt = []
                for x in frontier:
                    for i in x.simple_indices():
                        y = x.times_simple_right(i)
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            for x, d in dist.items():
                assert x.length() == d

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 9), (4, 16)])
    def test_longest_element_length(self, n, expected):
        group = CoxeterPresentation("B", n)
        w0 = longest_parabolic(group.identity(), range(1, n + 1))
        assert w0.length() == expected

    def test_descents_of_longest_parabolic(self):
        for group in (A3, B2, B3):
            gens = list(range(1, group.rank + 1))
            for r in range(len(gens) + 1):
                for J in itertools.combinations(gens, r):
                    w0j = longest_parabolic(group.identity(), J)
                    assert w0j.right_descents() == frozenset(J)
                    assert w0j.left_descents() == frozenset(J)


class TestReflections:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_conjugacy_closure(self, n):
        group = CoxeterPresentation("B", n)
        gens = [evaluate_word([i], group).element for i in range(1, n + 1)]
        conjugates = {
            w * s * w.inverse() for w in group_elements(group) for s in gens
        }
        assert set(reflections_b(n)) == conjugates

    def test_reflections_are_involutions(self):
        for t in reflections_b(3):
            assert (t * t).is_identity()
            assert t.length() % 2 == 1


class TestBruhatOrderB:
    @pytest.mark.parametrize("group", [B2, B3], ids=["B2", "B3"])
    def test_closure_agrees_with_subword(self, group):
        els = sorted(group_elements(group), key=lambda x: (x.length(), x.images))
        for w in els:
            down = subword_downset(w)
            for u in els:
                assert bruhat_leq(u, w) == (u in down)

    def test_covers_match_rank_difference(self):
        for group in (B2, B3):
            els = list(group_elements(group))
            order = {(u, w) for w in els for u in subword_downset(w)}
            for w in els:
                lw = w.length()
                covers = {
                    u for u in els if u.length() == lw - 1 and (u, w) in order
                }
                assert {SignedPermutation(v) for v in w.down_cover_images(w.images)} == covers

    def test_interval_matches_subword_downset_b3(self):
        for w in group_elements(B3):
            interval = build_interval(w)
            assert set(interval.elements) == subword_downset(w)
            assert interval.index == {x: i for i, x in enumerate(interval.elements)}

    def test_interval_of_w0_b2(self):
        w0 = longest_parabolic(B2.identity(), [1, 2])
        assert rank_profile(build_interval(w0)) == (1, 2, 2, 2, 1)


class TestWords:
    def test_empty_word(self):
        res = evaluate_word([], B3)
        assert res.element.is_identity() and res.reduced

    def test_counterexample_word(self):
        res = evaluate_word([3, 2, 3, 1, 2, 3, 1, 2], B3)
        assert res.element.length() == 8
        assert res.reduced

    def test_square_not_reduced(self):
        res = evaluate_word([1, 1], B3)
        assert res.element.is_identity() and not res.reduced

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            evaluate_word([4], B3)


class TestSignedPermutationOps:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignedPermutation((1, 1))
        with pytest.raises(ValueError):
            SignedPermutation((0, 2))

    def test_inverse_roundtrip(self):
        for x in group_elements(B3):
            assert (x * x.inverse()).is_identity()
            assert x.inverse().inverse() == x

    def test_generator_actions(self):
        e = signed_identity(3)
        assert e.times_simple_right(3).images == (1, 2, -3)
        assert e.times_simple_right(1).images == (2, 1, 3)
        x = SignedPermutation((3, -1, 2))
        # right action permutes positions, left action permutes values
        assert x.times_simple_right(1).images == (-1, 3, 2)
        assert x.times_simple_left(1).images == (3, -2, 1)
        assert x.times_simple_left(3).images == (-3, -1, 2)

    def test_support(self):
        w0 = longest_parabolic(B3.identity(), [1, 2, 3])
        assert w0.support() == {1, 2, 3}
        assert signed_identity(3).support() == frozenset()
        s3 = evaluate_word([3], B3).element
        assert s3.support() == {3}


@pytest.mark.parametrize("group", [A3, B3], ids=["S4", "B3"])
class TestSharedOperations:
    # the operations the element base supplies, against their definitions

    def test_left_multiplication(self, group):
        e = group.identity()
        simple = {i: e.times_simple_right(i) for i in e.simple_indices()}
        for x in group_elements(group):
            for i, s in simple.items():
                assert x.times_simple_left(i) == s * x

    def test_left_descents_drop_length(self, group):
        for x in group_elements(group):
            drops = {i for i in x.simple_indices() if x.times_simple_left(i).length() < x.length()}
            assert x.left_descents() == drops

    def test_action_and_inverse(self, group):
        for x in group_elements(group):
            assert all(x(-i) == -x(i) for i in range(1, x.n + 1))
            assert x * x.inverse() == group.identity()

    def test_repr_and_equality_name_the_class(self, group):
        kind, other = {
            "A": ("Permutation", SignedPermutation),
            "B": ("SignedPermutation", Permutation),
        }[group.kind]
        for x in group_elements(group):
            assert repr(x) == f"{kind}({x.images})"
            if all(v > 0 for v in x.images):
                assert x != other(x.images) and other(x.images) != x


class TestLongestElement:
    def test_type_a_full(self):
        from conftest import longest_permutation

        assert longest_parabolic(A3.identity(), [1, 2, 3]) == longest_permutation(4)

    def test_empty_subset(self):
        assert longest_parabolic(B3.identity(), []).is_identity()

    def test_b2_full(self):
        w0 = longest_parabolic(B2.identity(), [1, 2])
        assert w0.images == (-1, -2) and w0.length() == 4
