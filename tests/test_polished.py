import pytest

from conftest import longest_permutation
from oracle_utils import all_one_lines, brute_avoids_all

from bruhatdual.diagrams import type_a_diagram, type_b_diagram
from bruhatdual.intervals import (
    is_bp_decomposition,
    longest_parabolic,
    parabolic_decompose,
)
from bruhatdual.permutations import Permutation, identity, parse_permutation
from bruhatdual.polished import (
    NotPolishedError,
    PatternWitnessError,
    PolishedBlock,
    PolishedDecomposition,
    assemble_decomposition,
    avoids_selfdual_patterns,
    avoids_smooth_patterns,
    classify_type,
    decompose_step,
    is_polished_bruteforce,
    polished_decompose,
    reconstruct,
)
from bruhatdual.signed import CoxeterPresentation, group_elements


class TestPatternPredicates:
    def test_34521_smooth_but_not_six(self):
        w = parse_permutation("34521")
        assert avoids_smooth_patterns(w)
        assert not avoids_selfdual_patterns(w)

    def test_self_containment(self):
        assert not avoids_smooth_patterns(parse_permutation("4231"))
        assert not avoids_smooth_patterns(parse_permutation("3412"))

    def test_identity(self):
        assert avoids_selfdual_patterns(identity(6))

    def test_worked_example_s9(self):
        assert avoids_selfdual_patterns(parse_permutation("154973268"))

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_bruteforce(self, n):
        for im in all_one_lines(n):
            assert avoids_selfdual_patterns(Permutation(im)) == brute_avoids_all(im)


class TestClassifyType:
    def test_34521(self):
        tag = classify_type(parse_permutation("34521"))
        assert (tag.tag, tag.t, tag.c_chain) == ("r1", 2, (1, 4, 5))

    def test_reversal_is_type_n(self):
        tag = classify_type(longest_permutation(4))
        assert (tag.tag, tag.t) == ("n", 3)

    def test_first_entry_fixed(self):
        tag = classify_type(parse_permutation("14325"))
        assert (tag.tag, tag.t, tag.c_chain) == ("n", 0, (1,))

    def test_type_r0(self):
        assert classify_type(parse_permutation("23451")).tag == "r0"

    def test_type_l_mirrors_inverse(self):
        w = parse_permutation("31245")
        tag = classify_type(w)
        mirror = classify_type(w.inverse())
        assert tag.tag == "l0" and mirror.tag == "r0" and tag.t == mirror.t

    def test_3412_rejected(self):
        with pytest.raises(NotPolishedError, match="3412"):
            classify_type(parse_permutation("3412"))

    def test_4231_rejected(self):
        with pytest.raises(NotPolishedError, match="4231"):
            classify_type(parse_permutation("4231"))

    def test_45321_refinement_rejected(self):
        with pytest.raises(NotPolishedError, match="45321"):
            classify_type(parse_permutation("45321"))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_total_on_six_avoiders(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            if brute_avoids_all(im) and not w.is_identity():
                tag = classify_type(w)
                assert tag.tag in ("n", "r0", "r1", "l0", "l1")
                chain_vals = [w(c) for c in tag.c_chain]
                assert chain_vals == sorted(chain_vals, reverse=True)
                assert w(tag.c_chain[-1]) == 1 or w(1) == 1


class TestDecomposeStep:
    def test_reversal(self):
        w1, K, tag = decompose_step(longest_permutation(4))
        assert w1.is_identity() and K == (1, 2, 3) and tag.tag == "n"

    def test_s1(self):
        w1, K, tag = decompose_step(parse_permutation("21"))
        assert w1.is_identity() and K == (1,) and tag.tag == "n" and tag.t == 1

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            decompose_step(identity(3))

    @pytest.mark.parametrize("n", [5, 6])
    def test_step_preserves_avoidance(self, n):
        # each reduction step keeps the permutation inside the avoidance class
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im) or w.is_identity():
                continue
            w1, _, _ = decompose_step(w)
            assert brute_avoids_all(w1.images)

    @pytest.mark.parametrize("n", [5, 6])
    def test_r1_step_statistics(self, n):
        # after an r1 step: new t is one more than the size of the middle
        # region, and the result is not of type r1 again
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im) or w.is_identity():
                continue
            if w(1) != 1:
                tag = classify_type(w)
                if tag.tag != "r1":
                    continue
                chain = tag.c_chain
                r1_size = sum(
                    1 for a in range(chain[tag.t - 2] + 1, chain[tag.t - 1]) if w(a) > w(1)
                )
                w1, _, _ = decompose_step(w)
                if not w1.is_identity():
                    tag1 = classify_type(_strip(w1))
                    assert tag1.tag != "r1"
                    assert tag1.t == r1_size + 1


def _strip(w: Permutation) -> Permutation:
    m = 0
    while m < w.n and w(m + 1) == m + 1:
        m += 1
    return Permutation(tuple(w(i) - m for i in range(m + 1, w.n + 1)))


class TestPolishedDecompose:
    def test_worked_example_s9(self):
        d = polished_decompose(parse_permutation("154973268"))
        assert len(d.blocks) == 2
        first, second = d.blocks
        assert (sorted(first.S), sorted(first.J), sorted(first.Jp)) == ([8], [8], [])
        assert sorted(second.S) == [2, 3, 4, 5, 6, 7]
        assert sorted(second.J) == [2, 3, 4, 6, 7]
        assert sorted(second.Jp) == [4, 5, 6]
        assert sorted(second.J & second.Jp) == [4, 6]

    def test_reversal_single_block(self):
        d = polished_decompose(longest_permutation(4))
        assert d.blocks == (PolishedBlock(frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset()),)

    def test_identity_empty(self):
        assert polished_decompose(identity(5)).blocks == ()

    def test_pattern_witness_error(self):
        with pytest.raises(PatternWitnessError, match="34521"):
            polished_decompose(parse_permutation("34521"))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_roundtrip(self, n):
        diagram = type_a_diagram(n - 1)
        for im in all_one_lines(n):
            w = Permutation(im)
            if brute_avoids_all(im):
                d = polished_decompose(w)
                assert reconstruct(d, diagram) == w

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equivalence_with_bruteforce(self, n):
        diagram = type_a_diagram(n - 1)
        for im in all_one_lines(n):
            w = Permutation(im)
            try:
                assemble_decomposition(w)
                ok = True
            except NotPolishedError:
                ok = False
            assert ok == is_polished_bruteforce(w, diagram)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_block_length_additivity(self, n):
        e = identity(n)
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im):
                continue
            for b in polished_decompose(w).blocks:
                nj = longest_parabolic(e, b.J).length()
                njp = longest_parabolic(e, b.Jp).length()
                nmeet = longest_parabolic(e, b.J & b.Jp).length()
                triple = (
                    longest_parabolic(e, b.J)
                    * longest_parabolic(e, b.J & b.Jp)
                    * longest_parabolic(e, b.Jp)
                )
                assert triple.length() == nj + njp - nmeet

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_single_block_bp_structure(self, n):
        # for a one-block decomposition: the J' parabolic part is w_0(J'),
        # the quotient is w_0(J) w_0(J and J'), and the split satisfies the
        # support condition
        e = identity(n)
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im):
                continue
            d = polished_decompose(w)
            if len(d.blocks) != 1:
                continue
            b = d.blocks[0]
            pd = parabolic_decompose(w, b.Jp, "right")
            assert pd.parabolic_part == longest_parabolic(e, b.Jp)
            assert pd.quotient_part == longest_parabolic(e, b.J) * longest_parabolic(
                e, b.J & b.Jp
            )
            assert is_bp_decomposition(w, b.Jp)


class TestReconstruct:
    def test_worked_example_vs_caption(self):
        # the inline product of the five factors is the ground truth; the
        # figure caption's string differs in two positions and is a typo
        blocks = (
            PolishedBlock(frozenset({8}), frozenset({8}), frozenset()),
            PolishedBlock(
                frozenset({2, 3, 4, 5, 6, 7}),
                frozenset({2, 3, 4, 6, 7}),
                frozenset({4, 5, 6}),
            ),
        )
        w = reconstruct(PolishedDecomposition(blocks), type_a_diagram(8))
        assert w.one_line() == "154973268"
        assert w.one_line() != "154963287"

    def test_single_generator(self):
        d = PolishedDecomposition((PolishedBlock(frozenset({1}), frozenset({1}), frozenset()),))
        assert reconstruct(d, type_a_diagram(1)) == parse_permutation("21")

    def test_adjacent_singletons(self):
        d = PolishedDecomposition(
            (
                PolishedBlock(frozenset({1}), frozenset({1}), frozenset()),
                PolishedBlock(frozenset({2}), frozenset({2}), frozenset()),
            )
        )
        assert reconstruct(d, type_a_diagram(2)) == parse_permutation("231")

    def test_disconnected_block_rejected(self):
        d = PolishedDecomposition(
            (PolishedBlock(frozenset({1, 3}), frozenset({1, 3}), frozenset()),)
        )
        with pytest.raises(ValueError, match="not connected"):
            reconstruct(d, type_a_diagram(3))

    def test_connected_overlap_rejected(self):
        d = PolishedDecomposition(
            (
                PolishedBlock(
                    frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1, 2})
                ),
            )
        )
        with pytest.raises(ValueError, match="totally disconnected"):
            reconstruct(d, type_a_diagram(3))

    def test_overlapping_blocks_rejected(self):
        d = PolishedDecomposition(
            (
                PolishedBlock(frozenset({1}), frozenset({1}), frozenset()),
                PolishedBlock(frozenset({1, 2}), frozenset({1, 2}), frozenset()),
            )
        )
        with pytest.raises(ValueError, match="overlap"):
            reconstruct(d, type_a_diagram(2))

    def test_uncovered_block_rejected(self):
        d = PolishedDecomposition(
            (PolishedBlock(frozenset({1, 2}), frozenset({1}), frozenset()),)
        )
        with pytest.raises(ValueError, match="cover"):
            reconstruct(d, type_a_diagram(2))


class TestBruteforcePolished:
    def test_w0_always_polished(self):
        assert is_polished_bruteforce(longest_permutation(5), type_a_diagram(4))
        b3 = CoxeterPresentation("B", 3)
        w0 = longest_parabolic(b3.identity(), [1, 2, 3])
        assert is_polished_bruteforce(w0, type_b_diagram(3))

    def test_34521_not_polished(self):
        assert not is_polished_bruteforce(parse_permutation("34521"), type_a_diagram(4))

    def test_b2_length_three_not_polished(self):
        b2 = CoxeterPresentation("B", 2)
        diagram = type_b_diagram(2)
        length3 = [x for x in group_elements(b2) if x.length() == 3]
        assert len(length3) == 2
        for x in length3:
            assert not is_polished_bruteforce(x, diagram)

    def test_b2_census(self):
        # every element of B_2 except the two of length 3 is polished
        b2 = CoxeterPresentation("B", 2)
        diagram = type_b_diagram(2)
        verdicts = {x: is_polished_bruteforce(x, diagram) for x in group_elements(b2)}
        assert sum(verdicts.values()) == 6
        assert all(ok == (x.length() != 3) for x, ok in verdicts.items())

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="bound 8"):
            is_polished_bruteforce(identity(10), type_a_diagram(9))
