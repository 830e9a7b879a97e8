import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings, strategies as st

import splitpat.counting

from splitpat import (
    BadInputError,
    Permutation,
    SearchLimitError,
    avoider_count,
    avoider_count_by_peeling,
    brute_count,
    build_count_table,
    check_excess_recursion,
    enumerate_avoiders,
    is_avoider,
    max_left_avoider_count,
    normalized_excess,
    parse_permutation,
    partition_by_smallest_right,
)
from support import TABLE1, closed_form_double_sum, filtered_class, swept_decreasing_orderings


class TestClosedForm:
    def test_full_published_table(self):
        for (r, n), expected in TABLE1.items():
            assert avoider_count(r, n) == expected

    def test_empty_case(self):
        assert avoider_count(0, 0) == 1

    def test_factorial_row(self):
        for n in range(13):
            assert avoider_count(0, n) == factorial(n)
            assert avoider_count(n, n) == factorial(n)

    def test_symmetry_up_to_30(self):
        for n in range(31):
            for r in range(n + 1):
                assert avoider_count(r, n) == avoider_count(n - r, n)

    def test_lower_bound_up_to_30(self):
        for n in range(31):
            for r in range(n + 1):
                assert avoider_count(r, n) >= factorial(r) * factorial(n - r)

    def test_exceeds_64_bit_range(self):
        assert avoider_count(0, 21) == factorial(21) > 2**63

    def test_matches_the_term_by_term_double_sum(self):
        for n in range(41):
            for r in range(n + 1):
                assert avoider_count(r, n) == closed_form_double_sum(r, n), (r, n)

    def test_every_prefix_of_a_column_is_a_count(self):
        # count --method formula keeps only a column's last value; every
        # earlier one is a count too, here up to r + s = 60.
        for s in range(31):
            column = list(splitpat.counting._count_column(s, 30))
            assert column == [closed_form_double_sum(r, r + s) for r in range(31)], s

    def test_column_matches_the_double_sum_up_to_60(self):
        for s in range(61):
            column = list(splitpat.counting._count_column(s, 60))
            assert column == [avoider_count(r, r + s) for r in range(61)], s

    def test_boundary_columns(self):
        # s = 0 is the column where the contiguous relation's true g(0) and
        # b(1) are 0; s = 1 is the published row of n - r = 1.
        assert list(splitpat.counting._count_column(0, 30)) == [factorial(r) for r in range(31)]
        ones = [k for (r, n), k in sorted(TABLE1.items()) if n - r == 1]
        assert list(splitpat.counting._count_column(1, len(ones) - 1)) == ones
        assert list(splitpat.counting._count_column(5, 0)) == [120]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 700).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_last_value_of_a_column_is_the_double_sum(self, cell):
        r, n = cell
        *_, last = splitpat.counting._count_column(n - r, r)
        assert last == avoider_count(r, n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            avoider_count(3, 2)
        with pytest.raises(ValueError):
            avoider_count(-1, 2)
        with pytest.raises(ValueError):
            avoider_count(True, 2)
        with pytest.raises(ValueError):
            avoider_count(1, 2.0)
        with pytest.raises(ValueError):
            avoider_count(1.0, 2)


class TestMaxLeftCount:
    def test_small_values(self):
        assert max_left_avoider_count(1, 3) == 1
        assert max_left_avoider_count(2, 4) == 4

    def test_equal_arguments_give_factorial(self):
        for r in range(1, 8):
            assert max_left_avoider_count(r, r) == factorial(r)

    def test_against_enumeration(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                observed = sum(
                    1
                    for w in enumerate_avoiders(r, n)
                    if n in w.values[:r]
                )
                assert max_left_avoider_count(r, n) == observed

    def test_rejects_r_zero(self):
        # Cells that both the max-left count and the peeling route refuse.
        for count in (max_left_avoider_count, avoider_count_by_peeling):
            for r, n in [(4, 3), (True, 3), (True, 2), (2.0, 3), (1, 3.0), (1, True)]:
                with pytest.raises(ValueError):
                    count(r, n)


class TestPeelingRoute:
    def test_example(self):
        assert avoider_count_by_peeling(1, 3) == 5

    def test_single_term_at_r_equals_n(self):
        for r in range(1, 8):
            assert avoider_count_by_peeling(r, r) == factorial(r)

    def test_matches_closed_form(self):
        for n in range(1, 13):
            for r in range(1, n + 1):
                assert avoider_count_by_peeling(r, n) == avoider_count(r, n)

    def test_table_value_via_alternative_route(self):
        assert avoider_count_by_peeling(2, 5) == 47

    def test_matches_the_literal_peeling_sum(self):
        for n in range(1, 31):
            for r in range(1, n + 1):
                literal = sum(
                    perm(n - r, j) * max_left_avoider_count(r, n - j)
                    for j in range(n - r + 1)
                )
                assert avoider_count_by_peeling(r, n) == literal, (r, n)


def _recurrence_rows(r_max, s_max):
    """Rows [K(a, b) for b <= s_max] for a = 0..r_max, K(a, b) =
    avoider_count(a, a + b), from the integer excess recursion, one row of
    fixed a at a time, with a fresh binomial per cell."""
    row = [factorial(b) for b in range(s_max + 1)]
    yield row
    for a in range(1, r_max + 1):
        new = [factorial(a)]
        for b in range(1, s_max + 1):
            new.append(b * new[b - 1] + a * row[b] - a * b * row[b - 1] + comb(a + b - 2, a - 1))
        row = new
        yield row


def _rolled_recurrence(r, s):
    *_, row = _recurrence_rows(r, s)
    return row[s]


class TestCountRoutesAgree:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))))
    def test_formula_corollary_and_recurrence_beyond_the_table(self, cell):
        r, n = cell
        expected = _rolled_recurrence(r, n - r)
        assert avoider_count(r, n) == expected
        assert avoider_count_by_peeling(r, n) == expected

    def test_table_matches_the_excess_recursion_up_to_100(self):
        entries = build_count_table(100).entries
        assert len(entries) == 101 * 102 // 2
        grid = list(_recurrence_rows(100, 100))
        for (r, n), k in entries.items():
            assert k == grid[r][n - r], (r, n)


class TestBruteForce:
    def test_enumeration_for_1_3(self):
        got = [str(w) for w in enumerate_avoiders(1, 3)]
        assert got == ["123", "132", "213", "231", "321"]

    def test_position_zero_keeps_everything(self):
        assert len(enumerate_avoiders(0, 3)) == 6

    def test_lexicographic_order(self):
        members = enumerate_avoiders(2, 5)
        assert members == sorted(members, key=lambda w: w.values)

    def test_counts_match_closed_form(self):
        for n in range(10):
            for r in range(n + 1):
                assert brute_count(r, n) == avoider_count(r, n), (r, n)

    def test_block_product_equals_the_full_sweep(self):
        # filtered_class tests every permutation of S_n with _avoids, a
        # different predicate from brute_count's per-block tests.
        for n in range(9):
            for r in range(n + 1):
                assert brute_count(r, n) == len(filtered_class(r, n)), (r, n)

    def test_pruned_block_count_equals_the_full_sweep(self):
        # Every left set S of every size up to 8, on both blocks, with the
        # thresholds brute_count uses: min(T) on the left, max(S) on the right.
        pruned = splitpat.counting._decreasing_orderings
        for n in range(9):
            values = range(1, n + 1)
            for r in range(n + 1):
                for left in combinations(values, r):
                    right = tuple(v for v in values if v not in left)
                    bottom, top = min(right, default=n + 1), max(left, default=0)
                    for block, keep in ((left, bottom.__lt__), (right, top.__gt__)):
                        assert pruned(block, keep) == swept_decreasing_orderings(block, keep), (block, keep)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(1, 30), unique=True, max_size=9).map(tuple),
        st.integers(0, 31),
        st.booleans(),
    )
    def test_pruned_block_count_matches_the_full_sweep_on_random_blocks(self, block, threshold, above):
        keep = threshold.__lt__ if above else threshold.__gt__
        assert splitpat.counting._decreasing_orderings(block, keep) == swept_decreasing_orderings(block, keep)

    def test_builder_equals_the_full_sweep_in_order(self):
        # Member for member and in lexicographic order, against the S_n
        # filter as the reference.
        for n in range(9):
            for r in range(n + 1):
                assert tuple(w.values for w in enumerate_avoiders(r, n)) == filtered_class(r, n), (r, n)

    def test_oracle_needs_no_predicate_formula_or_factorial(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("brute_count must stay an independent oracle")

        for name in (
            "_avoids",
            "_avoider_blocks",
            "_chain_orderings",
            "avoider_count",
            "avoider_count_by_peeling",
            "max_left_avoider_count",
            "_count_column",
            "_count_square",
            "comb",
            "factorial",
            "perm",
        ):
            monkeypatch.setattr(splitpat.counting, name, forbidden)
        for (r, n), expected in TABLE1.items():
            if n <= 7:
                assert brute_count(r, n) == brute_count(n - r, n) == expected, (r, n)
        assert brute_count(3, 7) == 676
        assert brute_count(2, 5) == 47

    def test_table_cardinality(self):
        assert len(enumerate_avoiders(2, 4)) == 14
        assert brute_count(3, 7) == 676

    def test_guard(self):
        with pytest.raises(SearchLimitError):
            brute_count(0, 11)
        with pytest.raises(SearchLimitError):
            enumerate_avoiders(2, 5, limit=4)
        assert brute_count(2, 5, limit=5) == 47

    def test_guard_refusal_carries_size_and_limit(self):
        with pytest.raises(SearchLimitError) as refused:
            enumerate_avoiders(2, 5, limit=4)
        assert (refused.value.size, refused.value.limit) == (5, 4)
        assert "S_5" not in str(refused.value)

    def test_guard_is_a_value_error(self):
        # Callers treating guard refusals as bad input keep working.
        with pytest.raises(ValueError):
            brute_count(0, 11)

    @pytest.mark.parametrize("limit", [-1, True, 2.0])
    def test_malformed_guard_is_bad_input(self, limit):
        # A guard that is not a nonnegative int is refused as such, not
        # read as a guard that every size exceeds.
        for sweep in (brute_count, enumerate_avoiders):
            with pytest.raises(BadInputError) as refused:
                sweep(1, 3, limit=limit)
            # An unbounded range reads ">= lo", never "lo..inf".
            assert str(refused.value) == f"limit must be an int >= 0, got {limit!r}"
            assert refused.value.argument == "limit"


class TestSmallestRightPartition:
    def test_sizes_for_2_4(self):
        groups = partition_by_smallest_right(2, 4)
        assert {i: len(g) for i, g in groups.items()} == {1: 2, 2: 2}

    def test_singleton_for_1_3(self):
        groups = partition_by_smallest_right(1, 3)
        assert set(groups) == {1}
        assert len(groups[1]) == max_left_avoider_count(1, 3) == 1

    def test_paper_example_membership(self):
        w = parse_permutation("391276854")
        assert is_avoider(w, 6)
        assert 9 in w.values[:6]
        assert min(w.values[6:]) == 4

    def test_classes_partition_the_max_left_side(self):
        for n in range(2, 7):
            for r in range(1, n):
                groups = partition_by_smallest_right(r, n)
                assert set(groups) <= set(range(1, r + 1))
                members = set().union(*groups.values())
                assert len(members) == sum(len(g) for g in groups.values())
                assert len(members) == max_left_avoider_count(r, n)

    def test_rejects_r_equal_n(self):
        with pytest.raises(ValueError):
            partition_by_smallest_right(3, 3)


class TestNormalizedExcess:
    def test_values_from_table(self):
        assert normalized_excess(1, 1) == 1
        assert normalized_excess(2, 2) == Fraction(5, 2)

    def test_axes_vanish(self):
        for t in range(8):
            assert normalized_excess(t, 0) == 0
            assert normalized_excess(0, t) == 0

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_symmetric(self, r, s):
        assert normalized_excess(r, s) == normalized_excess(s, r)

    def test_rejects_negative(self):
        for r, s in ((-1, 2), (2, -1), (1.0, 1), (1, True)):
            with pytest.raises(ValueError):
                normalized_excess(r, s)


class TestExcessRecursion:
    def test_holds_on_12_grid(self):
        assert check_excess_recursion(12) == []

    def test_cell_2_2_expansion(self):
        lhs = normalized_excess(2, 2)
        rhs = (
            normalized_excess(2, 1)
            + normalized_excess(1, 2)
            - normalized_excess(1, 1)
            + Fraction(comb(2, 1), factorial(2) * factorial(2))
        )
        assert lhs == rhs == Fraction(5, 2)
        assert normalized_excess(2, 1) == Fraction(3, 2)

    def test_cell_1_1_initial_conditions(self):
        assert normalized_excess(1, 1) == 0 + 0 - 0 + Fraction(comb(0, 0), 1)

    def test_integer_form_flags_the_rational_violations(self, monkeypatch):
        # Corrupt one count alike where each side reads it: the integer side
        # in the count columns, the rational side through avoider_count.  The
        # integer recursion must fail at exactly the cells where the rational
        # recursion on the normalized excess fails.
        exact = splitpat.counting._count_column
        single = splitpat.counting.avoider_count

        def corrupted(s, r_max):
            for r, k in enumerate(exact(s, r_max)):
                yield k + ((r, s) == (2, 3))

        monkeypatch.setattr(splitpat.counting, "_count_column", corrupted)
        monkeypatch.setattr(splitpat.counting, "avoider_count", lambda r, n: single(r, n) + ((r, n - r) == (2, 3)))
        rational = [
            (r, s)
            for r in range(1, 5)
            for s in range(1, 5)
            if normalized_excess(r, s)
            != normalized_excess(r, s - 1)
            + normalized_excess(r - 1, s)
            - normalized_excess(r - 1, s - 1)
            + Fraction(comb(r + s - 2, r - 1), factorial(r) * factorial(s))
        ]
        assert rational
        assert check_excess_recursion(4) == rational

    def test_rejects_bad_bounds(self):
        for order in (0, -1, True, 2.0):
            with pytest.raises(ValueError):
                check_excess_recursion(order)


class TestCountTable:
    def test_matches_published_values(self):
        table = build_count_table(9)
        for (r, n), expected in TABLE1.items():
            assert table.entries[(r, n)] == expected
        assert table.entries[(1, 9)] == 109601
        assert table.entries[(5, 9)] == table.entries[(4, 9)] == 14359

    def test_invariants(self):
        table = build_count_table(8)
        for (r, n), k in table.entries.items():
            assert table.entries[(n - r, n)] == k
        for n in range(9):
            assert table.entries[(0, n)] == factorial(n)
            assert table.entries[(n, n)] == factorial(n)

    def test_csv_layout(self):
        text = build_count_table(2).to_csv()
        assert text.splitlines() == [
            "r,n,k",
            "0,1,1",
            "1,1,1",
            "0,2,2",
            "1,2,2",
            "2,2,2",
        ]

    def test_json_uses_decimal_strings(self):
        data = json.loads(build_count_table(3).to_json())
        assert data[0] == {"r": 0, "n": 1, "k": "1"}
        assert all(isinstance(entry["k"], str) for entry in data)
        assert [entry["n"] for entry in data] == sorted(entry["n"] for entry in data)

    @pytest.mark.parametrize("n_max", [1, 2, 7, 12])
    def test_row_stream_is_the_double_sum_cut_at_r_max(self, monkeypatch, n_max):
        # Rows in (n, r) order, and each column stepped only for the rows
        # it gives: no count past r_max is computed.
        real, steps = splitpat.counting._count_column, []

        def counted(s, r_max):
            for k in real(s, r_max):
                steps.append(s)
                yield k

        monkeypatch.setattr(splitpat.counting, "_count_column", counted)
        for r_max in range(n_max + 3):
            steps.clear()
            expected = [(r, n, avoider_count(r, n)) for n in range(n_max + 1) for r in range(min(n, r_max) + 1)]
            assert list(splitpat.counting._count_rows(n_max, r_max)) == expected
            assert len(steps) == len(expected)

    @pytest.mark.parametrize("n_max", [1, 3, 100])
    def test_text_is_what_json_dumps_and_the_csv_layout_print(self, n_max):
        # At n_max = 100 the text spans several pieces of about 64 KB.
        table = build_count_table(n_max)
        rows = table.rows()
        pieces = list(splitpat.counting._table_text(rows, "json"))
        assert "".join(pieces) == table.to_json() == json.dumps([{"r": r, "n": n, "k": str(k)} for r, n, k in rows])
        assert max(map(len, pieces)) < (1 << 16) + 200
        assert table.to_csv() == "".join(f"{r},{n},{k}\n" for r, n, k in [("r", "n", "k"), *rows])
        assert (len(pieces) > 1) == (n_max == 100)

    def test_counts_print_past_the_int_str_digit_cap(self):
        digits = "1" + "0" * 5000
        table = splitpat.counting.CountTable({(0, 0): 1, (0, 1): 10**5000})
        assert (table.to_csv(), table.to_json()) == (f"r,n,k\n0,1,{digits}\n", f'[{{"r": 0, "n": 1, "k": "{digits}"}}]')

    def test_an_empty_table_prints_its_header_only(self):
        table = splitpat.counting.CountTable({(0, 0): 1})
        assert (table.to_csv(), table.to_json()) == ("r,n,k\n", "[]")

    def test_rejects_nonpositive_n_max(self):
        for n_max in (0, -1, True, 3.0):
            with pytest.raises(ValueError):
                build_count_table(n_max)


class TestFiberStructure:
    def test_split_and_fiber_sizes(self):
        # The avoidance class splits by the side holding the max; the
        # max-right side projects onto the class one size down with
        # constant fiber size n-r.
        from collections import Counter

        from splitpat import remove_max

        for n in range(1, 7):
            for r in range(n + 1):
                members = enumerate_avoiders(r, n)
                max_left = [w for w in members if n in w.values[:r]]
                max_right = [w for w in members if n in w.values[r:]]
                assert len(max_left) + len(max_right) == avoider_count(r, n)
                if r <= n - 1:
                    fibers = Counter(remove_max(w) for w in max_right)
                    smaller = enumerate_avoiders(r, n - 1)
                    assert set(fibers) == set(smaller)
                    assert all(fibers[w] == n - r for w in smaller)


def test_permutation_is_hashable_for_set_work():
    assert len({Permutation((1, 2)), Permutation((1, 2))}) == 1
