"""Truncated bivariate formal power series, stored EGF-scaled.

A series holds the square window of integer cells G[r][s] = r! s! c[r][s],
where c[r][s] is the coefficient of x^r y^s, for 0 <= r, s <= order.  In
this basis every named generating function is a grid of ints, the products
by e^(x+y) and by (1-x)(1-y) and the division by (1-x)(1-y) are steps along
x and then y (a binomial transform by additions, for the labelled product of
Flajolet and Sedgewick, a difference and an integer recurrence; any other
product is refused), the mixed integral and derivative are index shifts,
and only ``coeff`` and the JSON form divide by r! s!.  Coefficients outside
the window are undefined, never assumed zero, so binary operations refuse
two different orders and two series of different orders compare unequal.
Two functions check the identities linking the series cell by cell with
zero tolerance, one per group of identities, each building every series it
needs once: ``bessel_checks`` (the Bessel factorization of the binomial EGF
and its diagonal) and ``main2_checks`` (the count EGF and its companions),
each returning a list of ``Check``; ``verify_identities`` runs both and
returns the checks with the boundary residual, as ``main2_checks`` does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from math import comb, factorial, gcd, inf
from operator import add, sub

from . import counting
from .perms import Check, _Record, _check_int, _decimal

__all__ = [
    "BivariateSeries",
    "divide_by_unit",
    "integrate_xy",
    "partial_xy",
    "diagonal_collapse",
    "exp_sum_series",
    "bessel_i0_series",
    "binomial_egf_series",
    "geometric_series",
    "one_minus_x_minus_y_plus_xy",
    "integrated_binomial_egf",
    "count_egf",
    "excess_ogf",
    "Check",
    "bessel_checks",
    "main2_checks",
    "verify_identities",
]

class BivariateSeries(_Record):
    """Truncation of a formal power series in x and y to the square window
    [0, order]^2.

    ``coeffs[r][s]`` is the int cell r! s! times the coefficient of x^r y^s.
    Instances are immutable and safe to share.  Equality compares the
    cells, so series of two different orders are unequal.  ``*`` takes only
    e^(x+y) or (1-x)(1-y) as a factor.  ``nx`` and ``ny``, the orders in x
    and in y that the JSON form names, both equal ``order``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, ...], ...]) -> None:
        super().__init__(coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.coeffs))
        # Floats and bools compare equal to ints, so each cell's type is tested.
        if not rows or any(len(row) != len(rows) for row in rows) or not {*map(type, chain(*rows))} <= {int}:
            raise ValueError("coefficient grid must be a nonempty square of plain ints")
        object.__setattr__(self, "coeffs", rows)

    @classmethod
    def from_fn(cls, fn: Callable[[int, int], int], order: int) -> "BivariateSeries":
        """Series with cell fn(r, s), so coefficient fn(r, s) / (r! s!), on
        the window [0, order]^2."""
        return cls(tuple(tuple(fn(r, s) for s in range(order + 1)) for r in range(order + 1)))

    @classmethod
    def constant(cls, c: int, order: int) -> "BivariateSeries":
        return cls.from_fn(lambda r, s: c if r == s == 0 else 0, order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    nx = ny = order

    def coeff(self, r: int, s: int) -> Fraction:
        """Coefficient of x^r y^s; raises outside the window."""
        if not (0 <= r <= self.order and 0 <= s <= self.order):
            raise IndexError(f"({r},{s}) outside window [0,{self.order}]x[0,{self.order}]")
        from fractions import Fraction  # see counting.normalized_excess
        return Fraction(self.coeffs[r][s], factorial(r) * factorial(s))

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        return self._cellwise(add, other)

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        return self._cellwise(sub, other)

    def _cellwise(self, op: Callable[[int, int], int], other: object) -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        _common_order(self, other)
        return BivariateSeries([list(map(op, a, b)) for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        _common_order(self, other)
        for factor, rest in ((self, other), (other, self)):
            if step := _factor_step(factor):
                return BivariateSeries(step(step(rest.coeffs)))
        raise ValueError("one factor must be e^(x+y) or (1-x)(1-y)")

    def is_symmetric(self) -> bool:
        """Whether the coefficients are invariant under swapping x and y."""
        return self.coeffs == tuple(zip(*self.coeffs))

    def to_dict(self) -> dict:
        """The JSON form: the coefficients (not the cells), numerators and
        denominators as decimal strings, row-major in the x exponent."""
        facts = [factorial(m) for m in range(self.order + 1)]
        coeffs = [[_lowest_terms(c, a * b) for c, b in zip(row, facts)] for row, a in zip(self.coeffs, facts)]
        return {"nx": self.nx, "ny": self.ny, "coeffs": coeffs}


def _lowest_terms(cell: int, den: int) -> list[str]:
    """cell / den, den > 0, as the text of ``Fraction``'s numerator and denominator."""
    g = gcd(cell, den)
    return [_decimal(cell // g), _decimal(den // g)]


def _common_order(a: BivariateSeries, b: BivariateSeries) -> int:
    """The order of both operands; refuses two different orders, since a
    cell outside either window is undefined."""
    if a.order != b.order:
        raise ValueError(f"operands have orders {a.order} and {b.order}")
    return a.order


def _exp_step(rows: Sequence[Sequence[int]]) -> tuple:
    """e^x times the rows: row r becomes sum_p C(r,p) row p, by Pascal additions alone."""
    out = []
    while rows:
        out.append(rows[0])
        rows = [list(map(add, a, b)) for a, b in zip(rows, rows[1:])]
    return tuple(zip(*out))


def _unit_step(rows: Sequence[Sequence[int]]) -> tuple:
    """(1-x) times the rows: row r becomes row r - r row(r-1), so row 0 stays."""
    return tuple(zip(*([a - r * b for a, b in zip(row, rows[r - 1])] for r, row in enumerate(rows))))


def _quotient_step(rows: Sequence[Sequence[int]]) -> tuple:
    """The rows divided by (1-x): row r of the quotient Q is row r + r Q(r-1)."""
    out = [rows[0]]
    for r in range(1, len(rows)):
        out.append([a + r * b for a, b in zip(rows[r], out[r - 1])])
    return tuple(zip(*out))


def _factor_step(series: BivariateSeries) -> Callable | None:
    """The step of e^(x+y) or of (1-x)(1-y), else None.  Both are f(x) f(y),
    so the grid is the outer product of its first row: all 1 for e^x, and
    1, -1, 0, ... for 1-x.  A step acts along rows and returns them transposed."""
    head, n = series.coeffs[0], series.order
    step = {(1,) * (n + 1): _exp_step, (1, -1, *(0,) * (n - 1)): _unit_step}.get(head)
    return step if step and series.coeffs == tuple(tuple(a * b for b in head) for a in head) else None


def divide_by_unit(num: BivariateSeries, den: BivariateSeries) -> BivariateSeries:
    """Quotient Q with Q * den = num, on the order num and den share, where
    den must be (1-x)(1-y), the one divisor of the count EGF.

    It divides by 1-x along x, row r of Q being row r of num plus r times
    row r-1 of Q, and then by 1-y along y.  Together the two passes fill
    Q(r,s) = N(r,s) + r Q(r-1,s) + s Q(r,s-1) - rs Q(r-1,s-1): the integer
    excess recursion that ``counting.check_excess_recursion`` tests.
    """
    _common_order(num, den)
    if _factor_step(den) is not _unit_step:
        raise ValueError("denominator must be (1-x)(1-y)")
    return BivariateSeries(_quotient_step(_quotient_step(num.coeffs)))


def integrate_xy(series: BivariateSeries) -> BivariateSeries:
    """Formal double integral in x and y with zero integration constants.

    The (r, s) output coefficient is input (r-1, s-1) divided by r*s, so
    the output cell (r, s) is the input cell (r-1, s-1); the output's first
    row and column vanish.  The input's top row and column shift beyond the
    window and are consumed.
    """
    zeros = (0,) * (series.order + 1)
    return BivariateSeries((zeros, *((0, *row[:-1]) for row in series.coeffs[:-1])))


def partial_xy(series: BivariateSeries) -> BivariateSeries:
    """Mixed partial derivative: output cell (r, s) is input cell
    (r+1, s+1).  Exact left inverse of integrate_xy on the window shrunk by
    one in each variable."""
    if series.order < 1:
        raise ValueError("window too small to differentiate")
    return BivariateSeries(tuple(row[1:] for row in series.coeffs[1:]))


def diagonal_collapse(series: BivariateSeries) -> tuple[Fraction, ...]:
    """Specialize y = x: the m-th output coefficient sums the window
    coefficients of total degree m, which is (1/m!) sum_r C(m,r) G[r][m-r]
    in cells.  Only total degrees up to the order stay fully inside the
    window."""
    from fractions import Fraction  # see counting.normalized_excess
    return tuple(Fraction(cell, factorial(m)) for m, cell in enumerate(_diagonal_cells(series)))


def _diagonal_cells(series: BivariateSeries) -> Iterator[int]:
    """``diagonal_collapse`` in cells: m! times the m-th coefficient,
    sum_r C(m,r) G[r][m-r]."""
    for m in range(series.order + 1):
        yield sum(comb(m, r) * series.coeffs[r][m - r] for r in range(m + 1))


def exp_sum_series(order: int) -> BivariateSeries:
    """e^(x+y): coefficient 1/(a! b!), cell 1."""
    return BivariateSeries.from_fn(lambda a, b: 1, order)


def bessel_i0_series(order: int) -> BivariateSeries:
    """Modified Bessel function I0 evaluated at 2*sqrt(xy): the series
    sum_m (xy)^m / (m!)^2, cell 1 on the diagonal and 0 off it."""
    return BivariateSeries.from_fn(lambda r, s: int(r == s), order)


def binomial_egf_series(order: int) -> BivariateSeries:
    """Exponential generating function of the binomial coefficients:
    coefficient C(r+s, r)/(r! s!), cell C(r+s, r)."""
    return BivariateSeries.from_fn(lambda r, s: comb(r + s, r), order)


def geometric_series(order: int) -> BivariateSeries:
    """1/((1-x)(1-y)): every coefficient is 1, cell r! s!."""
    return BivariateSeries.from_fn(lambda r, s: factorial(r) * factorial(s), order)


def one_minus_x_minus_y_plus_xy(order: int) -> BivariateSeries:
    """The polynomial 1 - x - y + xy = (1-x)(1-y)."""
    if order < 1:
        raise ValueError("window must reach degree 1 in each variable")
    # r! s! = 1 on all four cells, so each cell is its coefficient.
    cells = {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    return BivariateSeries.from_fn(lambda r, s: cells.get((r, s), 0), order)


def integrated_binomial_egf(order: int) -> BivariateSeries:
    """Double integral of the binomial EGF with zero integration constants:
    coefficient C(r+s-2, r-1)/(r! s!), cell C(r+s-2, r-1), for r, s >= 1
    and 0 on the axes.

    The axis cells are set to 0 directly rather than through any
    negative-argument binomial convention.
    """
    return BivariateSeries.from_fn(lambda r, s: comb(r + s - 2, r - 1) if r and s else 0, order)


def count_egf(order: int) -> BivariateSeries:
    """Bivariate EGF of the avoidance counts: coefficient
    avoider_count(r, r+s) / (r! s!), so the cell is the count itself, read
    off one contiguous-relation column per s (``counting._count_square``)."""
    return BivariateSeries(tuple(counting._count_square(order)))


def excess_ogf(order: int) -> BivariateSeries:
    """Ordinary generating function of the normalized excess values
    count / (r! s!) - 1: cell count - r! s!."""
    return count_egf(order) - geometric_series(order)


def _compare(
    key: str, name: str, order: int, left: BivariateSeries, right: BivariateSeries
) -> Check:
    """Check left = right cell by cell on exactly the window [0, order]^2;
    a mismatch is reported in coefficients, and either side on any other
    window fails."""
    expected = f"[0,{order}]x[0,{order}]"
    windows = [f"[0,{side.order}]x[0,{side.order}]" for side in (left, right)]
    if windows != [expected, expected]:
        return Check(key, name, False, f"window {windows[0]} and {windows[1]}, expected {expected}")
    for r, (left_row, right_row) in enumerate(zip(left.coeffs, right.coeffs)):
        for s, (a, b) in enumerate(zip(left_row, right_row)):
            if a != b:  # each coefficient worded as a/b, or a when b = 1, at any size
                a, b = ("/".join(_lowest_terms(c, factorial(r) * factorial(s))).removesuffix("/1") for c in (a, b))
                return Check(key, name, False, f"first mismatch at ({r},{s}): {a} != {b}")
    return Check(key, name, True, f"exact on {expected}")


def bessel_checks(order: int) -> list[Check]:
    """The Bessel factorization on the window [0, order]^2: the binomial EGF
    is e^(x+y) times the Bessel series (``product``), and collapsing it to
    y = x gives the central binomial EGF (``diagonal``)."""
    _check_int("order", order, 2, inf)
    binomial_egf = binomial_egf_series(order)
    product = exp_sum_series(order) * bessel_i0_series(order)
    # In cells, the central binomial EGF's m-th coefficient is C(2m, m).
    bad = next((m for m, cell in enumerate(_diagonal_cells(binomial_egf)) if cell != comb(2 * m, m)), None)
    return [
        _compare("product", "binomial EGF = exp_sum * bessel_i0", order, binomial_egf, product),
        Check(
            "diagonal",
            "diagonal of binomial EGF = central binomial EGF",
            bad is None,
            f"m <= {order}" if bad is None else f"first mismatch at m={bad}",
        ),
    ]


def main2_checks(order: int) -> tuple[list[Check], BivariateSeries]:
    """The count EGF K = (L + 1) / (1-x-y+xy) on the window [0, order]^2,
    where L is the zero-boundary double integral of the binomial EGF.

    Checks that L is the integral (``integral``) and has the binomial EGF as
    mixed partial (``derivative``), that (1-x-y+xy) times the excess OGF is
    L (``excess``) and the closed form of K (``count``).  Both of the last
    two take K from ``count_egf``, the closed form, so ``count`` checks it
    against the division, which is the excess recursion.  The
    ``boundary`` check evaluates the fraction with boundary rows e^x and e^y
    instead of zero and passes when its residual against K, which is
    returned too, is nonzero: the discrepancy between the two conventions
    is documented rather than patched.
    """
    _check_int("order", order, 2, inf)
    binomial_egf = binomial_egf_series(order)
    integrated = integrated_binomial_egf(order)
    unit = one_minus_x_minus_y_plus_xy(order)
    counts = count_egf(order)
    one = BivariateSeries.constant(1, order)
    derivative = partial_xy(integrated_binomial_egf(order + 1))
    integral = integrate_xy(binomial_egf)
    excess = unit * (counts - geometric_series(order))
    quotient = divide_by_unit(integrated + one, unit)
    # e^x + e^y - 1 on the axes: coefficient 1/r! on the x axis and 1/s! on
    # the y axis, so cell 1 on both.
    axes = BivariateSeries.from_fn(lambda r, s: int(r * s == 0), order)
    residual = divide_by_unit(integrated + axes + one, unit) - counts
    nonzero = sum(1 for row in residual.coeffs for c in row if c != 0)
    checks = [
        _compare("derivative", "partial_xy(integrated binomial EGF) = binomial EGF", order, derivative, binomial_egf),
        _compare("integral", "integrate_xy(binomial EGF) = integrated binomial EGF", order, integral, integrated),
        _compare("excess", "(1-x-y+xy) * excess OGF = integrated binomial EGF", order, excess, integrated),
        _compare("count", "count EGF = (integrated binomial EGF + 1) / (1-x-y+xy)", order, counts, quotient),
        Check(
            "boundary",
            "exponential-boundary variant leaves a nonzero residual",
            nonzero > 0,
            # Cell (0, 0) is its coefficient, since 0! 0! = 1.
            f"residual(0,0) = {_decimal(residual.coeffs[0][0])}; nonzero in {nonzero} of {(order + 1) ** 2} cells",
        ),
    ]
    return checks, residual


def verify_identities(order: int) -> tuple[list[Check], BivariateSeries]:
    """Check every series identity on the window [0, order]^2, exactly: the
    ``bessel_checks`` and then the ``main2_checks``, returned with the
    boundary residual of ``main2_checks``."""
    bessel = bessel_checks(order)
    main2, residual = main2_checks(order)
    return bessel + main2, residual
