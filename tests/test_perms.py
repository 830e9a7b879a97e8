from itertools import permutations as iter_perms

import pytest
from hypothesis import given, strategies as st

from splitpat import (
    BadInputError,
    Permutation,
    contains_split,
    format_permutation,
    is_avoider,
    parse_permutation,
    remove_max,
    rotate180,
)
from support import (
    PATTERN_3_12,
    PATTERNS,
    assert_valid_witness,
    oracle_first_witness,
    oracle_witnesses,
)


@st.composite
def perm_and_position(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    vals = tuple(draw(st.permutations(tuple(range(1, n + 1)))))
    r = draw(st.integers(0, n))
    return Permutation(vals), r


@st.composite
def long_perm_and_position(draw):
    """Permutations up to n = 40 with 0 < r < n, about half of them
    avoiders: both forced runs (right-block values below the left maximum,
    left-block values above the right minimum) are rearranged into
    decreasing order, or one of them, or neither.  The r = 0 and r = n
    ends are covered by the exhaustive tests."""
    n = draw(st.integers(2, 40))
    vals = draw(st.permutations(range(1, n + 1)))
    r = draw(st.integers(1, n - 1))
    top, bottom = max(vals[:r]), min(vals[r:])
    right = [p for p in range(r, n) if vals[p] < top]
    left = [p for p in range(r) if vals[p] > bottom]
    for run in draw(st.sampled_from([(right, left), (right,), (left,), ()])):
        for p, v in zip(run, sorted((vals[p] for p in run), reverse=True)):
            vals[p] = v
    return Permutation(vals), r


def all_perms(n):
    return [Permutation(vals) for vals in iter_perms(range(1, n + 1))]


class TestPermutation:
    def test_paper_example(self):
        w = Permutation((3, 1, 5, 6, 4, 2))
        assert w.n == 6
        assert w.w(1) == 3
        assert w.w(6) == 2

    def test_empty_allowed(self):
        assert Permutation(()).n == 0

    @pytest.mark.parametrize(
        "values",
        [(1, 1), (0,), (2,), (1, 3), (-1, 1), (2, 2, 1), (1.0, 2.0), (True,), (2, True)],
    )
    def test_rejects_non_rearrangements(self, values):
        with pytest.raises(ValueError):
            Permutation(values)

    def test_w_is_one_indexed(self):
        w = Permutation((2, 1))
        with pytest.raises(IndexError):
            w.w(0)
        with pytest.raises(IndexError):
            w.w(3)

    def test_accepts_any_iterable(self):
        assert Permutation([3, 1, 2]).values == (3, 1, 2)


class TestTextFormat:
    def test_compact_round_trip(self):
        w = parse_permutation("315642")
        assert w.values == (3, 1, 5, 6, 4, 2)
        assert format_permutation(w) == "315642"

    def test_comma_form(self):
        w = parse_permutation("3,1,5,6,4,2")
        assert w.values == (3, 1, 5, 6, 4, 2)

    def test_large_sizes_use_commas(self):
        w = Permutation(range(1, 11))
        text = str(w)
        assert text == "1,2,3,4,5,6,7,8,9,10"
        assert parse_permutation(text) == w

    def test_empty_string(self):
        assert parse_permutation("") == Permutation(())
        assert str(Permutation(())) == ""

    @pytest.mark.parametrize(
        "text",
        ["31x", "1,2,a", "0", "1,1", "１２", "1,２", "1,2,3,4,5,6,7,8,9,1_0", "1,+2"],
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text)


class TestContainsSplit:
    def test_paper_example_witness(self):
        w = parse_permutation("315642")
        witness = contains_split(w, 3)[1]
        assert witness == (1, 3, 6)
        assert [w.w(i) for i in witness] == [3, 5, 2]

    def test_paper_example_avoids_3_12(self):
        w = parse_permutation("315642")
        assert contains_split(w, 3)[0] is None

    def test_r_zero_and_r_n_are_vacuous(self):
        for w in all_perms(4):
            assert contains_split(w, 0) == contains_split(w, w.n) == (None, None)

    def test_position_out_of_range(self):
        w = parse_permutation("312")
        for check in (contains_split, is_avoider):
            with pytest.raises(BadInputError) as refused:
                check(w, 4)
            assert refused.value.argument == "r"
            with pytest.raises(ValueError):
                check(w, -1)
            # Bools and floats compare equal to ints but are not positions.
            with pytest.raises(ValueError):
                check(w, 1.5)
            with pytest.raises(ValueError):
                check(w, 2.0)
            with pytest.raises(ValueError):
                check(w, True)

    def test_312_has_unique_witness(self):
        w = parse_permutation("312")
        assert contains_split(w, 1) == ((1, 2, 3), None)
        assert list(oracle_witnesses(w, PATTERN_3_12, 1)) == [(1, 2, 3)]

    def test_agrees_with_subset_oracle_exhaustive(self):
        for n in range(6):
            for w in all_perms(n):
                for r in range(n + 1):
                    for pattern, got in zip(PATTERNS, contains_split(w, r)):
                        expected = oracle_first_witness(w, pattern, r)
                        assert (got is None) == (expected is None), (w, r)

    @given(perm_and_position())
    def test_witnesses_are_valid_and_lex_smallest(self, wr):
        w, r = wr
        for pattern, witness in zip(PATTERNS, contains_split(w, r)):
            if witness is not None:
                assert_valid_witness(w, pattern, r, witness)
            assert witness == oracle_first_witness(w, pattern, r)


class TestAvoiderPredicate:
    def test_spec_examples(self):
        assert not is_avoider(parse_permutation("315642"), 3)
        assert is_avoider(parse_permutation("321"), 1)
        assert not is_avoider(parse_permutation("312"), 1)

    def test_matches_contains_split_definition_exhaustive(self):
        for n in range(8):
            for w in all_perms(n):
                for r in range(n + 1):
                    assert is_avoider(w, r) == (contains_split(w, r) == (None, None))

    @given(long_perm_and_position())
    def test_matches_contains_split_beyond_exhaustive_range(self, wr):
        w, r = wr
        assert is_avoider(w, r) == (contains_split(w, r) == (None, None))

    def test_avoidance_universal_at_ends(self):
        for n in range(8):
            for w in all_perms(n):
                assert is_avoider(w, 0)
                assert is_avoider(w, n)


class TestSplitWitnesses:
    """contains_split, the linear scan, must give the subset oracle's first
    witness of each pattern index for index."""

    @staticmethod
    def assert_equals_oracle(w, r):
        found = contains_split(w, r)
        for pattern, witness in zip(PATTERNS, found):
            if witness is not None:
                assert_valid_witness(w, pattern, r, witness)
        expected = tuple(oracle_first_witness(w, pattern, r) for pattern in PATTERNS)
        assert found == expected, (w, r)

    def test_equals_contains_split_exhaustive(self):
        for n in range(8):
            for w in all_perms(n):
                for r in range(n + 1):
                    self.assert_equals_oracle(w, r)

    @given(long_perm_and_position())
    def test_equals_contains_split_beyond_exhaustive_range(self, wr):
        self.assert_equals_oracle(*wr)


class TestStructuralMaps:
    def test_remove_max_examples(self):
        assert str(remove_max(parse_permutation("432615"))) == "43215"
        assert remove_max(Permutation((1,))) == Permutation(())
        assert str(remove_max(parse_permutation("315642"))) == "31542"

    def test_remove_max_empty(self):
        with pytest.raises(ValueError):
            remove_max(Permutation(()))

    @given(perm_and_position())
    def test_insert_then_remove_round_trip(self, wr):
        w, r = wr
        pos = r + 1 if r < w.n else w.n + 1
        inserted = Permutation(w.values[: pos - 1] + (w.n + 1,) + w.values[pos - 1 :])
        assert remove_max(inserted) == w

    def test_rotate180_examples(self):
        assert str(rotate180(parse_permutation("315642"))) == "531264"
        assert rotate180(Permutation(range(1, 6))) == Permutation(range(1, 6))
        assert rotate180(Permutation(())) == Permutation(())

    @given(perm_and_position())
    def test_rotate180_involution_and_formula(self, wr):
        w, _ = wr
        rotated = rotate180(w)
        assert rotate180(rotated) == w
        for k in range(1, w.n + 1):
            assert rotated.w(k) == w.n + 1 - w.w(w.n + 1 - k)

    def test_rotate_maps_classes(self):
        for n in range(6):
            for r in range(n + 1):
                image = {
                    rotate180(w) for w in all_perms(n) if is_avoider(w, r)
                }
                target = {w for w in all_perms(n) if is_avoider(w, n - r)}
                assert image == target

    def test_remove_max_keeps_avoidance(self):
        for n in range(1, 7):
            for w in all_perms(n):
                for r in range(n + 1):
                    if not is_avoider(w, r):
                        continue
                    if w.values.index(n) + 1 > r:
                        assert is_avoider(remove_max(w), r)
                    else:
                        assert is_avoider(remove_max(w), r - 1)
