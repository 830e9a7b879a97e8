"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact (integers or rationals, zero tolerance); the
stated runtime ceilings are asserted alongside the results, and each line
ends with the measured wall time of its criterion.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they print.
"""

import random
import time
from fractions import Fraction
from itertools import permutations as iter_perms
from math import comb, factorial

from splitpat import (
    BivariateSeries,
    Permutation,
    avoider_count,
    avoider_count_by_peeling,
    bessel_i0_series,
    binomial_egf_series,
    brute_count,
    check_excess_recursion,
    contains_split,
    count_egf,
    divide_by_unit,
    excess_ogf,
    exp_sum_series,
    geometric_series,
    integrate_xy,
    integrated_binomial_egf,
    one_minus_x_minus_y_plus_xy,
    partial_xy,
    verify_identities,
)
from splitpat.cli import main
from splitpat.verify import structure_checks
from support import PATTERNS, TABLE1, assert_valid_witness, labelled_product, long_divide


def _report(criterion, body, capsys=None):
    def emit(line):
        if capsys is None:
            print(line)
        else:
            with capsys.disabled():
                print(line)

    start = time.perf_counter()
    try:
        body()
    except BaseException:
        emit(f"FAIL {criterion} [{time.perf_counter() - start:.3f} s]")
        raise
    emit(f"PASS {criterion} [{time.perf_counter() - start:.3f} s]")


def test_criterion_1_table_reproduction(capsys):
    def body():
        start = time.perf_counter()
        assert main(["table", "--n-max", "9"]) == 0
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        got = {}
        for row in out.splitlines()[1:]:
            r, n, k = (int(part) for part in row.split(","))
            if r <= 4:
                got[(r, n)] = k
        assert got == TABLE1
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    _report("criterion 1: published count table reproduced exactly (< 1 s)", body, capsys)


def test_criterion_2_oracle_equivalence():
    def body():
        start = time.perf_counter()
        for n in range(9):
            for r in range(n + 1):
                counts = {brute_count(r, n), avoider_count(r, n), avoider_count_by_peeling(r, n)}
                assert len(counts) == 1, f"disagreement at (r,n)=({r},{n}): {counts}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"

    _report("criterion 2: brute force = closed form = peeling for n <= 8 (< 30 s)", body)


def test_criterion_3_row_sequences():
    def body():
        row_one = [avoider_count(1, n) for n in range(1, 10)]
        assert row_one == [1, 2, 5, 16, 65, 326, 1957, 13700, 109601]
        for n in range(13):
            assert avoider_count(0, n) == factorial(n)

    _report("criterion 3: row sequences at r = 1 and r = 0 match", body)


def test_criterion_4_structural_suite():
    def body():
        start = time.perf_counter()
        checks = structure_checks(7)
        keys = {c.key for c in checks}
        assert {"split", "fibers", "partition", "rotate"} <= keys
        failed = [c for c in checks if not c.passed]
        assert not failed, failed
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"

    _report("criterion 4: split/fiber/partition/rotation structure for n <= 7 (< 60 s)", body)


def test_criterion_5_series_identities():
    def body():
        start = time.perf_counter()
        checks, residual = verify_identities(12)
        failed = [c for c in checks if not c.passed]
        assert not failed, failed
        assert check_excess_recursion(12) == []
        # Discrepancy of the stated exponential boundary is documented, not
        # patched: its residual is computed and is nonzero.
        assert residual.coeff(0, 0) == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    _report("criterion 5: series identities + recursion exact at order 12 (< 10 s)", body)


def _random_series(rng, max_order=4, min_order=0):
    # Int cells r! s! c[r][s] already give rational coefficients c.
    n = rng.randint(min_order, max_order)
    return BivariateSeries(
        tuple(
            tuple(rng.randint(-8, 8) for _ in range(n + 1))
            for _ in range(n + 1)
        )
    )


def test_criterion_6_property_suite():
    rng = random.Random(20260810)

    def body():
        # Witness validity re-check, 100+ random draws.
        for _ in range(150):
            n = rng.randint(1, 10)
            w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            r = rng.randint(0, n)
            for pattern, witness in zip(PATTERNS, contains_split(w, r)):
                if witness is not None:
                    assert_valid_witness(w, pattern, r, witness)

        # Integrate/partial inverse pair on random grids; the pair
        # needs at least one differentiable degree in each variable.
        for _ in range(120):
            s = _random_series(rng, min_order=1)
            assert partial_xy(integrate_xy(s)).coeffs == tuple(row[:-1] for row in s.coeffs[:-1])

        # Division inverse: the tests' long division on random denominators
        # with constant term 1, and the library's division by (1-x)(1-y)
        # wherever the window reaches degree 1, which the unit needs.
        for _ in range(120):
            num = _random_series(rng)
            den = _random_series(rng, num.order, num.order)
            den = BivariateSeries(((1, *den.coeffs[0][1:]), *den.coeffs[1:]))
            assert labelled_product(long_divide(num, den), den) == num
            if num.order >= 1:
                unit = one_minus_x_minus_y_plus_xy(num.order)
                assert divide_by_unit(num, unit) * unit == num

        # Vandermonde cells up to (10, 10).
        for r in range(11):
            for s in range(11):
                assert sum(
                    comb(r, m) * comb(s, s - m) for m in range(min(r, s) + 1)
                ) == comb(r + s, s)

        # Symmetry of every named series.
        for factory in (
            exp_sum_series,
            bessel_i0_series,
            binomial_egf_series,
            geometric_series,
            integrated_binomial_egf,
            count_egf,
            excess_ogf,
        ):
            assert factory(8).is_symmetric()

        # Factorial lower bound.
        for n in range(31):
            for r in range(n + 1):
                assert avoider_count(r, n) >= factorial(r) * factorial(n - r)

    _report("criterion 6: property suite (witnesses, inverses, Vandermonde, symmetry, bound)", body)


def test_diagonal_specialization_matches_central_binomials():
    # Companion to criterion 5(f): the collapsed diagonal at order 12.
    from splitpat import diagonal_collapse

    def body():
        diag = diagonal_collapse(binomial_egf_series(12))
        for m in range(13):
            assert diag[m] == Fraction(comb(2 * m, m), factorial(m))

    _report("criterion 5f companion: diagonal equals central binomial EGF", body)


def test_fiber_counts_by_direct_enumeration():
    # Companion to criterion 4: recompute one fiber table from raw sweeps
    # without going through the library's enumeration helpers.
    from splitpat import is_avoider, remove_max

    def body():
        n, r = 6, 2
        members = [
            Permutation(vals)
            for vals in iter_perms(range(1, n + 1))
            if is_avoider(Permutation(vals), r)
        ]
        smaller = [
            Permutation(vals)
            for vals in iter_perms(range(1, n))
            if is_avoider(Permutation(vals), r)
        ]
        fibers = {w: 0 for w in smaller}
        for w in members:
            if n not in w.values[:r]:
                fibers[remove_max(w)] += 1
        assert all(count == n - r for count in fibers.values())

    _report("criterion 4 companion: fiber sizes recomputed from a raw sweep", body)
