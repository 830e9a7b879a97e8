import json
import operator
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, strategies as st

import splitpat.counting
import splitpat.series
import splitpat.verify
from splitpat import (
    BivariateSeries,
    avoider_count,
    bessel_i0_series,
    binomial_egf_series,
    count_egf,
    diagonal_collapse,
    divide_by_unit,
    excess_ogf,
    exp_sum_series,
    geometric_series,
    integrate_xy,
    integrated_binomial_egf,
    normalized_excess,
    one_minus_x_minus_y_plus_xy,
    partial_xy,
    verify_identities,
)
from splitpat.cli import main
from splitpat.series import _compare, bessel_checks, main2_checks
from support import labelled_product, long_divide


def residual_json(monkeypatch, capsys, residual):
    """The boundary residual as the ``verify`` JSON report writes it, with
    ``residual`` in place of the one the suite computes."""
    monkeypatch.setattr(splitpat.verify, "run_target", lambda *args, **kwargs: ([], residual))
    assert main(["verify", "--target", "main2", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["boundary_residual"]


# Cells are r! s! times the coefficients, so small int cells already give
# rational coefficients with every factorial denominator.
small_cells = st.integers(min_value=-8, max_value=8)


@st.composite
def small_series(draw, max_order=4, min_order=0):
    n = draw(st.integers(min_order, max_order))
    return BivariateSeries(
        tuple(
            tuple(draw(small_cells) for _ in range(n + 1))
            for _ in range(n + 1)
        )
    )


# Two series of one order, as every binary operation requires.
series_pairs = st.integers(0, 4).flatmap(lambda n: st.tuples(small_series(n, n), small_series(n, n)))


def factors(n):
    """The series ``*`` accepts as a factor at order n: e^(x+y), and
    (1-x)(1-y) once the window reaches degree 1."""
    return [exp_sum_series(n), *([one_minus_x_minus_y_plus_xy(n)] if n else [])]


def monomial(r, s, n):
    """x^r y^s on the window [0,n]x[0,n]: cell r! s! at (r, s)."""
    return BivariateSeries.from_fn(lambda a, b: factorial(r) * factorial(s) * ((a, b) == (r, s)), n)


class TestSeriesBasics:
    def test_constant(self):
        one = BivariateSeries.constant(1, 3)
        assert one.coeff(0, 0) == 1
        assert all(
            one.coeff(r, s) == 0 for r in range(4) for s in range(4) if (r, s) != (0, 0)
        )

    def test_window_shape_validation(self):
        with pytest.raises(ValueError):
            BivariateSeries(())
        with pytest.raises(ValueError):
            BivariateSeries(((1,), (1, 2)))
        with pytest.raises(ValueError):
            BivariateSeries(((1, 2),))
        with pytest.raises(ValueError):
            BivariateSeries(((1,), (2,)))

    @pytest.mark.parametrize("cell", [0.5, 1.0, True, Fraction(1, 2), Fraction(1)])
    def test_cells_must_be_plain_ints(self, cell):
        # Floats, bools and Fractions compare equal to ints but are refused,
        # as a grid that is not square is, so no product ever mixes them in.
        for make in (lambda: BivariateSeries(((1, cell), (0, 1))), lambda: BivariateSeries.from_fn(lambda r, s: cell, 1)):
            with pytest.raises(ValueError, match="^coefficient grid must be a nonempty square of plain ints$"):
                make()

    def test_coeff_outside_window(self):
        s = geometric_series(2)
        with pytest.raises(IndexError):
            s.coeff(3, 0)

    def test_equality_compares_the_cells(self):
        assert geometric_series(2) == BivariateSeries(((1, 1, 2), (1, 1, 2), (2, 2, 4)))
        assert geometric_series(2) != exp_sum_series(2)
        assert BivariateSeries.constant(1, 2) != 1

    def test_two_orders_are_refused(self):
        # A cell outside either window is undefined, so no operation may
        # shrink to the overlap, and the orders tell two series apart.
        three, four = geometric_series(3), BivariateSeries.constant(1, 4)
        for op in (operator.add, operator.sub, operator.mul, divide_by_unit):
            with pytest.raises(ValueError, match="orders 3 and 4"):
                op(three, four)
        assert geometric_series(2) != geometric_series(5)

    def test_is_symmetric_sees_one_asymmetric_cell(self):
        assert not monomial(1, 0, 2).is_symmetric()
        assert (monomial(1, 0, 2) + monomial(0, 1, 2)).is_symmetric()

    def test_add_and_scale_identities(self):
        s = binomial_egf_series(3)
        zero = BivariateSeries.constant(0, 3)
        assert s + zero == s
        assert s - s == zero

    def test_mul_identities(self):
        # The tests' general product, the reference for the library's two.
        s = binomial_egf_series(3)
        one = BivariateSeries.constant(1, 3)
        assert labelled_product(s, one) == s
        assert labelled_product(monomial(1, 0, 3), monomial(0, 1, 3)) == monomial(1, 1, 3)
        assert labelled_product(monomial(2, 0, 3), monomial(0, 2, 3)) == monomial(2, 2, 3)

    @given(small_series(max_order=4))
    def test_mul_is_the_convolution_on_the_common_window(self, f):
        n = f.order
        for factor in factors(n):
            for a, b in ((factor, f), (f, factor)):
                product = a * b
                assert (product.nx, product.ny) == (n, n)
                for r in range(n + 1):
                    for s in range(n + 1):
                        assert product.coeff(r, s) == sum(
                            (a.coeff(p, q) * b.coeff(r - p, s - q) for p in range(r + 1) for q in range(s + 1)),
                            Fraction(0),
                        )

    @given(small_series(max_order=12))
    def test_mul_equals_the_labelled_product(self, f):
        for factor in factors(f.order):
            assert factor * f == f * factor == labelled_product(factor, f)

    def test_mul_equals_the_labelled_product_on_the_named_series(self):
        # The two products the identity checks take, exactly at order 40.
        order = 40
        exp, bessel = exp_sum_series(order), bessel_i0_series(order)
        unit, excess = one_minus_x_minus_y_plus_xy(order), excess_ogf(order)
        assert exp * bessel == labelled_product(exp, bessel) == binomial_egf_series(order)
        assert unit * excess == labelled_product(unit, excess) == integrated_binomial_egf(order)

    @given(series_pairs)
    def test_mul_refuses_every_other_pair(self, pair):
        # Neither operand is e^(x+y) or (1-x)(1-y): refused in both orders.
        a, b = pair
        assume(a not in factors(a.order) and b not in factors(b.order))
        constant = BivariateSeries.constant(1, 3)
        for left, right in ((a, b), (b, a), (constant, geometric_series(3)), (geometric_series(3), constant)):
            with pytest.raises(ValueError, match=r"^one factor must be e\^\(x\+y\) or \(1-x\)\(1-y\)$"):
                left * right

    def test_exp_square_doubles_the_rate(self):
        e = exp_sum_series(3)
        assert (e * e).coeff(1, 0) == 2  # e^(2(x+y))

    def test_json_shape(self, monkeypatch, capsys):
        data = residual_json(monkeypatch, capsys, integrated_binomial_egf(2))
        assert data["nx"] == 2 and data["ny"] == 2
        assert data["coeffs"][2][2] == ["1", "2"]
        assert data["coeffs"][1][1] == ["1", "1"]

    def test_json_prints_cells_past_the_int_str_digit_cap(self, monkeypatch, capsys):
        # 5001 digits, past CPython's default cap of 4300 on str(int).
        big = 10**5000
        data = residual_json(monkeypatch, capsys, BivariateSeries(((big, -big), (0, 6 * big))))
        digits = "1" + "0" * 5000
        assert data["coeffs"] == [[[digits, "1"], ["-" + digits, "1"]], [["0", "1"], ["6" + digits[1:], "1"]]]


class TestNamedSeries:
    def test_exp_sum_coefficients(self):
        s = exp_sum_series(3)
        assert s.coeff(0, 0) == 1
        assert s.coeff(2, 1) == Fraction(1, 2)
        assert s.coeff(3, 3) == Fraction(1, 36)

    def test_bessel_diagonal(self):
        s = bessel_i0_series(3)
        assert s.coeff(0, 0) == 1
        assert s.coeff(2, 2) == Fraction(1, 4)
        assert s.coeff(1, 2) == 0

    def test_binomial_egf_coefficients(self):
        s = binomial_egf_series(4)
        assert s.coeff(0, 0) == 1
        assert s.coeff(2, 1) == Fraction(3, 2)
        assert s.coeff(2, 2) == Fraction(3, 2)
        for r in range(5):
            assert s.coeff(r, 0) == Fraction(1, factorial(r))

    def test_geometric_all_ones(self):
        s = geometric_series(5)
        assert all(s.coeff(r, t) == 1 for r in range(6) for t in range(6))

    def test_geometric_inverts_the_polynomial(self):
        assert geometric_series(4) * one_minus_x_minus_y_plus_xy(4) == BivariateSeries.constant(1, 4)

    def test_integrated_binomial_egf_cells(self):
        s = integrated_binomial_egf(3)
        assert s.coeff(1, 1) == 1
        assert s.coeff(2, 2) == Fraction(1, 2)
        assert s.coeff(3, 0) == 0
        assert s.coeff(0, 2) == 0

    def test_count_egf_cells(self):
        s = count_egf(2)
        assert s.coeff(0, 0) == 1
        assert s.coeff(1, 1) == 2
        assert s.coeff(2, 2) == Fraction(7, 2)

    def test_excess_ogf_cells(self):
        s = excess_ogf(2)
        assert s.coeff(1, 1) == 1
        assert s.coeff(2, 2) == Fraction(5, 2)
        for r in range(3):
            assert s.coeff(r, 0) == 0

    @pytest.mark.parametrize(
        "factory",
        [
            exp_sum_series,
            bessel_i0_series,
            binomial_egf_series,
            geometric_series,
            integrated_binomial_egf,
            count_egf,
            excess_ogf,
        ],
    )
    def test_symmetry(self, factory):
        assert factory(8).is_symmetric()


class TestDivision:
    def test_inverse_of_polynomial_is_geometric(self):
        one = BivariateSeries.constant(1, 5)
        quotient = divide_by_unit(one, one_minus_x_minus_y_plus_xy(5))
        assert quotient == geometric_series(5)

    def test_only_the_unit_is_accepted(self):
        # divide_by_unit divides by (1-x)(1-y) alone: the constant 1, the
        # unit's negative, the unit plus x^2 and every order-0 series are
        # refused.  test_two_orders_are_refused shows the orders come first.
        unit = one_minus_x_minus_y_plus_xy(3)
        for den in (
            BivariateSeries.constant(1, 3),
            BivariateSeries.constant(0, 3) - unit,
            unit + monomial(2, 0, 3),
        ):
            with pytest.raises(ValueError, match=r"^denominator must be \(1-x\)\(1-y\)$"):
                divide_by_unit(geometric_series(3), den)
        for c in range(-8, 9):
            with pytest.raises(ValueError, match=r"^denominator must be \(1-x\)\(1-y\)$"):
                divide_by_unit(BivariateSeries.constant(1, 0), BivariateSeries.constant(c, 0))

    @given(small_series(max_order=12, min_order=1))
    def test_recurrence_equals_long_division(self, num):
        unit = one_minus_x_minus_y_plus_xy(num.order)
        assert divide_by_unit(num, unit) == long_divide(num, unit)

    def test_recurrence_equals_long_division_on_the_named_numerators(self):
        # The two numerators main2_checks divides, L + 1 and L plus
        # e^x + e^y - 1 on the axes plus 1, then the constant 1 and the
        # count EGF, exactly at order 40.
        order = 40
        unit = one_minus_x_minus_y_plus_xy(order)
        one = BivariateSeries.constant(1, order)
        integrated = integrated_binomial_egf(order)
        axes = BivariateSeries.from_fn(lambda r, s: int(r * s == 0), order)
        for num in (integrated + one, integrated + axes + one, one, count_egf(order)):
            assert divide_by_unit(num, unit) == long_divide(num, unit)
        assert divide_by_unit(integrated + one, unit) == count_egf(order)

    # The reference long division of the tests, on units other than (1-x)(1-y).
    def test_dividing_by_one(self):
        s = count_egf(4)
        assert long_divide(s, BivariateSeries.constant(1, 4)) == s

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant term 1, got 0"):
            long_divide(geometric_series(2), monomial(1, 0, 2))

    def test_non_unit_constant_term_rejected(self):
        for c in (2, -1):
            with pytest.raises(ValueError, match=f"constant term 1, got {c}"):
                long_divide(geometric_series(2), BivariateSeries.constant(c, 2))

    @given(series_pairs)
    def test_quotient_times_denominator_recovers(self, pair):
        num, den = pair
        den = BivariateSeries(((1, *den.coeffs[0][1:]), *den.coeffs[1:]))
        q = long_divide(num, den)
        assert all(type(c) is int for row in q.coeffs for c in row)
        assert labelled_product(q, den) == num


class TestCalculus:
    def test_integrate_constant(self):
        s = integrate_xy(BivariateSeries.constant(1, 3))
        assert s == monomial(1, 1, 3)

    def test_integrate_binomial_egf_cells(self):
        s = integrate_xy(binomial_egf_series(3))
        assert s.coeff(1, 1) == 1
        assert s.coeff(2, 2) == Fraction(1, 2)

    def test_partial_of_cross_term(self):
        assert partial_xy(monomial(1, 1, 2)) == BivariateSeries.constant(1, 1)

    def test_partial_of_constant_vanishes(self):
        c = BivariateSeries.constant(7, 3)
        assert partial_xy(c) == BivariateSeries.constant(0, 2)

    def test_partial_of_integral_identity(self):
        assert partial_xy(integrated_binomial_egf(6)) == binomial_egf_series(5)

    def test_partial_window_shrinks(self):
        s = partial_xy(geometric_series(4))
        assert (s.nx, s.ny) == (3, 3)
        with pytest.raises(ValueError):
            partial_xy(BivariateSeries.constant(1, 0))

    @given(small_series(min_order=1))
    def test_partial_inverts_integrate(self, s):
        # The derivative drops the top row and column of the window.
        assert partial_xy(integrate_xy(s)).coeffs == tuple(row[:-1] for row in s.coeffs[:-1])

    @given(small_series())
    def test_integrate_divides_the_shifted_coefficient(self, s):
        out = integrate_xy(s)
        assert (out.nx, out.ny) == (s.nx, s.ny)
        for r in range(s.nx + 1):
            for t in range(s.ny + 1):
                expected = s.coeff(r - 1, t - 1) / (r * t) if r and t else 0
                assert out.coeff(r, t) == expected

    @given(small_series(min_order=1))
    def test_partial_multiplies_the_shifted_coefficient(self, s):
        out = partial_xy(s)
        assert (out.nx, out.ny) == (s.nx - 1, s.ny - 1)
        for r in range(s.nx):
            for t in range(s.ny):
                assert out.coeff(r, t) == (r + 1) * (t + 1) * s.coeff(r + 1, t + 1)


class TestDiagonal:
    def test_binomial_diagonal_value(self):
        diag = diagonal_collapse(binomial_egf_series(4))
        assert diag[3] == Fraction(10, 3)
        for m in range(5):
            assert diag[m] == Fraction(comb(2 * m, m), factorial(m))

    def test_geometric_diagonal(self):
        assert diagonal_collapse(geometric_series(5)) == tuple(
            Fraction(m + 1) for m in range(6)
        )

    def test_constant_diagonal(self):
        assert diagonal_collapse(BivariateSeries.constant(1, 3)) == (
            Fraction(1),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )

    @given(small_series())
    def test_sums_the_coefficients_of_each_total_degree(self, s):
        diag = diagonal_collapse(s)
        assert len(diag) == s.nx + 1
        for m, c in enumerate(diag):
            assert c == sum(s.coeff(r, m - r) for r in range(m + 1))

    def test_requires_square_window(self):
        # The window is square by construction: a 2x3 window is refused
        # before diagonal_collapse could sum a total degree it cuts short.
        with pytest.raises(ValueError):
            diagonal_collapse(BivariateSeries(((1, 1, 2), (1, 1, 2))))


class TestVandermonde:
    def test_cells_up_to_10(self):
        for r in range(11):
            for s in range(11):
                total = sum(comb(r, m) * comb(s, s - m) for m in range(min(r, s) + 1))
                assert total == comb(r + s, s)


class TestVerifyIdentities:
    def test_all_pass_at_order_12(self):
        checks, _ = verify_identities(12)
        assert all(c.passed for c in checks)
        # The order of verify --target all: the bessel checks, then main2.
        assert [c.key for c in checks] == [
            "product",
            "diagonal",
            "derivative",
            "integral",
            "excess",
            "count",
            "boundary",
        ]

    def test_order_must_be_at_least_two(self):
        for check in (bessel_checks, main2_checks, verify_identities):
            for order in (-1, 0, 1, 2.0, True):
                with pytest.raises(ValueError):
                    check(order)

    def test_hand_expansion_at_low_order(self):
        # coefficient (1,1): left C(2,1)/(1!1!) = 2; right 1*1 + 1 = 2.
        left = binomial_egf_series(2)
        right = exp_sum_series(2) * bessel_i0_series(2)
        assert left.coeff(1, 1) == right.coeff(1, 1) == 2

    def test_residual_is_nonzero_everywhere(self):
        _, residual = verify_identities(4)
        assert residual == main2_checks(4)[1]
        assert residual.coeff(0, 0) == 1
        assert all(
            residual.coeff(r, s) != 0 for r in range(5) for s in range(5)
        )

    @pytest.mark.parametrize(
        "left, right, detail",
        [
            (
                BivariateSeries.constant(1, 0),
                geometric_series(5),
                "window [0,0]x[0,0] and [0,5]x[0,5], expected [0,5]x[0,5]",
            ),
            (
                geometric_series(5),
                geometric_series(6),
                "window [0,5]x[0,5] and [0,6]x[0,6], expected [0,5]x[0,5]",
            ),
            (
                geometric_series(5),
                BivariateSeries.constant(1, 5),
                "first mismatch at (0,1): 1 != 0",
            ),
        ],
        ids=["short-left", "long-right", "mismatch"],
    )
    def test_compare_fails_off_the_expected_window(self, left, right, detail):
        check = _compare("key", "name", 5, left, right)
        assert not check.passed
        assert check.detail == detail

    def test_mismatch_is_worded_past_the_int_str_digit_cap(self):
        big = 10**5000
        check = _compare("key", "name", 0, BivariateSeries(((big,),)), BivariateSeries(((big + 1,),)))
        digits = "1" + "0" * 5000
        assert check.detail == f"first mismatch at (0,0): {digits} != {digits[:-1]}1"

    def test_boundary_check_is_documentation_not_a_patch(self):
        checks, _ = verify_identities(3)
        (boundary,) = (c for c in checks if c.key == "boundary")
        assert boundary.passed
        assert "residual(0,0) = 1" in boundary.detail


class TestScaledCells:
    NAMED = (
        exp_sum_series,
        bessel_i0_series,
        binomial_egf_series,
        geometric_series,
        one_minus_x_minus_y_plus_xy,
        integrated_binomial_egf,
        count_egf,
        excess_ogf,
    )

    def test_cells_are_ints_and_the_count_grids_match_the_closed_form(self):
        order = 12
        _, residual = main2_checks(order)
        for series in (*(factory(order) for factory in self.NAMED), residual):
            assert all(type(c) is int for row in series.coeffs for c in row)
        counts, excess = count_egf(order), excess_ogf(order)
        for r in range(order + 1):
            for s in range(order + 1):
                assert counts.coeff(r, s) == Fraction(avoider_count(r, r + s), factorial(r) * factorial(s))
                assert excess.coeff(r, s) == normalized_excess(r, s)

    def test_main2_compares_with_the_closed_form(self, monkeypatch):
        # A wrong closed form at one cell must fail count and excess: those
        # checks do not read the counts off the recursion they check.
        real = splitpat.counting._count_column

        def corrupted(s, r_max):
            for r, k in enumerate(real(s, r_max)):
                yield k + ((r, s) == (2, 3))

        monkeypatch.setattr(splitpat.counting, "_count_column", corrupted)
        checks, _ = main2_checks(6)
        assert {c.key for c in checks if not c.passed} == {"count", "excess"}
        assert "first mismatch at (2,3)" in {c.key: c.detail for c in checks}["count"]
