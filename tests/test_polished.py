import pathlib
import runpy

import pytest

from conftest import longest_permutation
from oracle_utils import (
    SIX_AVOIDING_COUNTS,
    SIX_PATTERNS,
    SMOOTH_COUNTS,
    all_one_lines,
    brute_avoids_all,
    brute_occurrences,
)

from bruhatdual.diagrams import type_a_diagram
from bruhatdual.intervals import (
    is_bp_decomposition,
    longest_parabolic,
    parabolic_decompose,
)
from bruhatdual.permutations import Permutation, identity, parse_permutation
from bruhatdual.polished import (
    SELFDUAL_PATTERNS,
    NotPolishedError,
    PatternWitnessError,
    PolishedBlock,
    PolishedDecomposition,
    _classify,
    _step,
    assemble_decomposition,
    avoids_selfdual_patterns,
    avoids_smooth_patterns,
    is_polished_bruteforce,
    polished_decompose,
    reconstruct,
    selfdual_pattern_witness,
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


    def test_witness_matches_bruteforce_s7(self):
        # the witness analyze reports: the first of the six patterns, in this
        # order, that occurs at all, at its lexicographically least indices
        assert [p.images for p in SELFDUAL_PATTERNS] == list(SIX_PATTERNS)
        for n in range(1, 8):
            for im in all_one_lines(n):
                expected = None
                for pat in SIX_PATTERNS:
                    hits = list(brute_occurrences(im, pat))
                    if hits:
                        expected = (pat, min(hits))
                        break
                occ = selfdual_pattern_witness(Permutation(im))
                got = None if occ is None else (occ.pattern.images, occ.indices)
                assert got == expected, im


class TestNotPolishedText:
    # the full NotPolishedError text of each kind that fires on S_<=7; texts
    # raised while classifying name the permutation classified, which is the
    # renormalized tail after leading fixed points and, for l types, the
    # inverse
    @pytest.mark.parametrize(
        "w, text",
        [
            ("4231", "staircase of 4231 not decreasing: contains 4231"),
            ("3412", "3412 has both side regions nonempty: contains 3412"),
            ("45321", "region below the staircase head of 45321 nonempty: contains 45321"),
            ("34521", "overlapping steps fail to alternate: ['r1', 'r1']"),
            ("54123", "overlapping steps fail to alternate: ['l1', 'l1']"),
            ("15342", "staircase of 4231 not decreasing: contains 4231"),
            ("14523", "3412 has both side regions nonempty: contains 3412"),
            ("54312", "region below the staircase head of 45321 nonempty: contains 45321"),
        ],
    )
    def test_assembly_text(self, w, text):
        with pytest.raises(NotPolishedError) as info:
            assemble_decomposition(parse_permutation(w))
        assert str(info.value) == text

    def test_step_text_names_renormalized_tail(self):
        with pytest.raises(NotPolishedError) as info:
            _step(parse_permutation("1265734").images)
        assert str(info.value) == "43512 has both side regions nonempty: contains 3412"

    def test_failed_assembly_names_classified_tail(self):
        with pytest.raises(NotPolishedError) as info:
            assemble_decomposition(parse_permutation("15342"))
        assert str(info.value) == "staircase of 4231 not decreasing: contains 4231"


def _one_line(text: str) -> tuple[int, ...]:
    return parse_permutation(text).images


def _window(m: int, t: int) -> tuple[int, ...]:
    # the generators K = m+1 .. m+t that a reduction step multiplies away
    return tuple(range(m + 1, m + t + 1))


class TestClassifyType:
    def test_34521(self):
        assert _classify(_one_line("34521")) == ("r1", 2, (1, 4, 5))

    def test_reversal_is_type_n(self):
        tag, t, _ = _classify(longest_permutation(4).images)
        assert (tag, t) == ("n", 3)

    def test_first_entry_fixed(self):
        assert _classify(_one_line("14325")) == ("n", 0, (1,))

    def test_type_r0(self):
        assert _classify(_one_line("23451"))[0] == "r0"

    def test_type_l_mirrors_inverse(self):
        w = parse_permutation("31245")
        tag, t, _ = _classify(w.images)
        mirror_tag, mirror_t, _ = _classify(w.inverse().images)
        assert tag == "l0" and mirror_tag == "r0" and t == mirror_t

    def test_3412_rejected(self):
        with pytest.raises(NotPolishedError, match="3412"):
            _classify(_one_line("3412"))

    def test_4231_rejected(self):
        with pytest.raises(NotPolishedError, match="4231"):
            _classify(_one_line("4231"))

    def test_45321_refinement_rejected(self):
        with pytest.raises(NotPolishedError, match="45321"):
            _classify(_one_line("45321"))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_total_on_six_avoiders(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            if brute_avoids_all(im) and not w.is_identity():
                tag, _, chain = _classify(im)
                assert tag in ("n", "r0", "r1", "l0", "l1")
                chain_vals = [w(c) for c in chain]
                assert chain_vals == sorted(chain_vals, reverse=True)
                assert w(chain[-1]) == 1 or w(1) == 1


class TestDecomposeStep:
    def test_reversal(self):
        x1, m, (tag, t, _) = _step(longest_permutation(4).images)
        assert Permutation(x1).is_identity() and _window(m, t) == (1, 2, 3) and tag == "n"

    def test_s1(self):
        x1, m, (tag, t, _) = _step(_one_line("21"))
        assert Permutation(x1).is_identity() and _window(m, t) == (1,) and tag == "n" and t == 1

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            _step(identity(3).images)

    def test_leading_fixed_points_stripped(self):
        # 125643 classifies as its tail 3421: an r1 step on the window 3, 4,
        # whose chain is reported in the tail's positions
        x1, m, local = _step(_one_line("125643"))
        assert (x1, _window(m, local[1]), local) == ((1, 2, 3, 6, 5, 4), (3, 4), ("r1", 2, (1, 3, 4)))

    @pytest.mark.parametrize("n", [5, 6])
    def test_step_preserves_avoidance(self, n):
        # each reduction step keeps the permutation inside the avoidance class
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im) or w.is_identity():
                continue
            x1, _, _ = _step(im)
            assert brute_avoids_all(x1)

    @pytest.mark.parametrize("n", [5, 6])
    def test_r1_step_statistics(self, n):
        # after an r1 step: new t is one more than the size of the middle
        # region, and the result is not of type r1 again
        for im in all_one_lines(n):
            w = Permutation(im)
            if not brute_avoids_all(im) or w.is_identity():
                continue
            if w(1) != 1:
                tag, t, chain = _classify(im)
                if tag != "r1":
                    continue
                r1_size = sum(1 for a in range(chain[t - 2] + 1, chain[t - 1]) if w(a) > w(1))
                x1, _, _ = _step(im)
                if not Permutation(x1).is_identity():
                    tag1, t1, _ = _classify(_strip(x1))
                    assert tag1 != "r1"
                    assert t1 == r1_size + 1


def _strip(x: tuple[int, ...]) -> tuple[int, ...]:
    m = 0
    while m < len(x) and x[m] == m + 1:
        m += 1
    return tuple(v - m for v in x[m:])


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
        assert is_polished_bruteforce(w0, b3)

    def test_34521_not_polished(self):
        assert not is_polished_bruteforce(parse_permutation("34521"), type_a_diagram(4))

    def test_b2_length_three_not_polished(self):
        b2 = CoxeterPresentation("B", 2)
        diagram = b2
        length3 = [x for x in group_elements(b2) if x.length() == 3]
        assert len(length3) == 2
        for x in length3:
            assert not is_polished_bruteforce(x, diagram)

    def test_b2_census(self):
        # every element of B_2 except the two of length 3 is polished
        b2 = CoxeterPresentation("B", 2)
        diagram = b2
        verdicts = {x: is_polished_bruteforce(x, diagram) for x in group_elements(b2)}
        assert sum(verdicts.values()) == 6
        assert all(ok == (x.length() != 3) for x, ok in verdicts.items())

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="bound 8"):
            is_polished_bruteforce(identity(10), type_a_diagram(9))


def test_s8_census_tables_agree():
    # the benchmark's S_8 split by length, frozen apart from the census of
    # oracle_utils, must add up to the same smooth and six-avoiding counts
    oracle = runpy.run_path(str(pathlib.Path(__file__).parents[1] / "bench" / "oracle.py"))
    census = {stratum: sum(c.values()) for stratum, c in oracle["S8_LENGTH_CENSUS"].items()}
    six, smooth_with_pattern = census[oracle["SIX_AVOIDING"]], census[oracle["SMOOTH_WITH_PATTERN"]]
    assert six == SIX_AVOIDING_COUNTS[8]
    assert six + smooth_with_pattern == SMOOTH_COUNTS[8]
