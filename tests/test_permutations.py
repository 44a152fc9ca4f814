import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import longest_permutation
from oracle_utils import (
    SIX_PATTERNS,
    all_one_lines,
    brute_contains,
    brute_length,
    brute_occurrences,
)

from bruhatdual.intervals import reduced_word
from bruhatdual.permutations import (
    ParseError,
    Permutation,
    contains_pattern,
    identity,
    parse_permutation,
)

perms = lambda n: st.permutations(list(range(1, n + 1))).map(tuple).map(Permutation)


class TestParse:
    def test_digit_string(self):
        assert parse_permutation("34521").images == (3, 4, 5, 2, 1)

    def test_comma_identity(self):
        assert parse_permutation("1,2,3") == identity(3)

    def test_comma_form_for_large_degree(self):
        w = parse_permutation("10,9,8,7,6,5,4,3,2,1")
        assert w == longest_permutation(10)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_permutation("")

    def test_bad_token_named(self):
        with pytest.raises(ParseError, match="x"):
            parse_permutation("1,x,3")

    def test_out_of_range_named(self):
        with pytest.raises(ParseError, match="9"):
            parse_permutation("129")

    def test_duplicate_named(self):
        with pytest.raises(ParseError, match="not a bijection"):
            parse_permutation("1123")


class TestBasics:
    def test_length_identity(self):
        assert identity(5).length() == 0

    def test_length_reversal(self):
        assert longest_permutation(4).length() == 6

    def test_length_34521(self):
        w = parse_permutation("34521")
        assert w.length() == 7 == brute_length(w.images)

    def test_inverse_of_34521(self):
        assert parse_permutation("34521").inverse() == parse_permutation("54123")

    def test_inverse_identity(self):
        assert identity(4).inverse() == identity(4)

    @given(perms(5))
    def test_compose_with_inverse(self, w):
        assert w * w.inverse() == identity(5)
        assert w.inverse() * w == identity(5)

    @given(perms(6))
    def test_length_inverse_symmetric(self, w):
        assert w.length() == w.inverse().length()

    def test_right_descents_34521(self):
        assert parse_permutation("34521").right_descents() == {3, 4}

    def test_descents_identity_empty(self):
        assert identity(4).right_descents() == frozenset()
        assert identity(4).left_descents() == frozenset()

    def test_descents_reversal(self):
        assert longest_permutation(4).right_descents() == {1, 2, 3}

    @given(perms(6))
    def test_left_descents_mirror(self, w):
        assert w.left_descents() == w.inverse().right_descents()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            identity(3) * identity(4)

    @given(perms(6))
    def test_support_matches_blocks(self, w):
        # s_i is in the support iff w does not stabilize {1..i}, iff it occurs
        # in a reduced word
        assert w.support() == set(reduced_word(w))


class TestPatterns:
    def test_paper_example_45321_contains_3421(self):
        occ = contains_pattern(parse_permutation("45321"), parse_permutation("3421"))
        assert occ is not None and occ.indices == (1, 2, 3, 4)

    def test_34521_avoids_4231(self):
        assert contains_pattern(parse_permutation("34521"), parse_permutation("4231")) is None

    def test_degree_one_pattern(self):
        occ = contains_pattern(parse_permutation("34521"), Permutation((1,)))
        assert occ is not None and occ.indices == (1,)

    def test_lex_least_occurrence(self):
        w, p = parse_permutation("45321"), parse_permutation("3421")
        occ = contains_pattern(w, p)
        assert occ.indices == min(brute_occurrences(w.images, p.images))

    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_bruteforce(self, n):
        pats = [Permutation(p) for p in SIX_PATTERNS]
        for im in all_one_lines(n):
            w = Permutation(im)
            for p in pats:
                assert (contains_pattern(w, p) is not None) == brute_contains(im, p.images)

    @given(perms(6))
    def test_avoidance_symmetric_under_inverse(self, w):
        for p in (parse_permutation("3412"), parse_permutation("34521")):
            direct = contains_pattern(w, p) is None
            mirrored = contains_pattern(w.inverse(), p.inverse()) is None
            assert direct == mirrored


class TestMinimalInversions:
    def test_34521_coatoms(self):
        w = parse_permutation("34521")
        assert len(w.minimal_inversions()) == 4
        coatoms = {Permutation(c).one_line() for c in Permutation.down_cover_images(w.images)}
        assert coatoms == {"34251", "32541", "24531", "34512"}

    def test_identity_empty(self):
        assert identity(5).minimal_inversions() == []

    def test_4231_excess(self):
        # brute force gives coatoms {2431, 3241, 4132, 4213}: more than the
        # 3 atoms, as the coatom-excess lemma demands for 4231-containing w
        w = parse_permutation("4231")
        assert len(w.minimal_inversions()) == 4
        assert len(w.minimal_inversions()) > len(w.support())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_rank_drop_definition(self, n):
        for im in all_one_lines(n):
            w = Permutation(im)
            lw = w.length()
            expected = set()
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    v = w.times_transposition_right(i, j)
                    if v.length() == lw - 1:
                        expected.add((i, j))
            assert set(w.minimal_inversions()) == expected
