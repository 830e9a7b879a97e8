"""Shared golden data and independent oracles for the test suite.

The oracles here deliberately re-derive everything from first principles
(index-subset enumeration, pairwise order comparison) so they share no code
path with the library's own scans.  The one exception is ``filtered_class``,
the S_n filter through the library's ``_avoids``, which shares no code with
the class builder it checks.  ``labelled_product`` is the general product
of series, the reference for the library's products by e^(x+y) and by
(1-x)(1-y), and ``long_divide`` is general long division of series, the
reference for the library's division by (1-x)(1-y).
"""

from functools import cache
from itertools import combinations, permutations
from math import comb, factorial

from splitpat import BivariateSeries, Permutation
from splitpat.perms import _avoids

# The published count table: (r, n) -> count, every printed cell.
TABLE1 = {
    (0, 1): 1, (0, 2): 2, (0, 3): 6, (0, 4): 24, (0, 5): 120, (0, 6): 720,
    (0, 7): 5040, (0, 8): 40320, (0, 9): 362880,
    (1, 1): 1, (1, 2): 2, (1, 3): 5, (1, 4): 16, (1, 5): 65, (1, 6): 326,
    (1, 7): 1957, (1, 8): 13700, (1, 9): 109601,
    (2, 2): 2, (2, 3): 5, (2, 4): 14, (2, 5): 47, (2, 6): 194, (2, 7): 977,
    (2, 8): 5870, (2, 9): 41099,
    (3, 3): 6, (3, 4): 16, (3, 5): 47, (3, 6): 162, (3, 7): 676, (3, 8): 3416,
    (3, 9): 20541,
    (4, 4): 24, (4, 5): 65, (4, 6): 194, (4, 7): 676, (4, 8): 2836, (4, 9): 14359,
}


def closed_form_double_sum(r: int, n: int) -> int:
    """The paper's count, r!(n-r)! + sum_i sum_j C(n-i-j, r-i) (r)_{i-1} (n-r)_{j-1},
    transcribed term by term with a fresh binomial and falling factorials."""
    total = factorial(r) * factorial(n - r)
    for i in range(1, r + 1):
        for j in range(1, n - r + 1):
            total += (
                comb(n - i - j, r - i)
                * (factorial(r) // factorial(r - i + 1))
                * (factorial(n - r) // factorial(n - r - j + 1))
            )
    return total


@cache
def filtered_class(r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The avoidance class at (r, n) as plain tuples in lexicographic order,
    by testing every permutation of S_n with ``_avoids`` (itself tested
    against the definition)."""
    return tuple(w for w in permutations(range(1, n + 1)) if _avoids(w, r))


def swept_decreasing_orderings(block, keep) -> int:
    """Number of orderings of ``block`` in which the values passing ``keep``
    appear in decreasing order, counted by testing every ordering: the
    reference for the oracle's prefix-rejecting block count."""
    want = sorted(filter(keep, block), reverse=True)
    return sum(list(filter(keep, p)) == want for p in permutations(block))


def labelled_product(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    """The labelled product of two series of one order, the binomial
    convolution in EGF cells: cell (r, s) sums C(r,p) C(s,q) A(p,q)
    B(r-p,s-q).  Only pairs of nonzero cells are multiplied, so a sparse
    factor such as the Bessel series or (1-x)(1-y) stays cheap."""
    if a.order != b.order:
        raise ValueError(f"operands have orders {a.order} and {b.order}")
    n = a.order
    left, right = ([(r, s, c) for r, row in enumerate(x.coeffs) for s, c in enumerate(row) if c] for x in (a, b))
    acc = [[0] * (n + 1) for _ in range(n + 1)]
    for p, q, c in left:
        for u, v, d in right:
            if p + u <= n and q + v <= n:
                acc[p + u][q + v] += comb(p + u, p) * comb(q + v, q) * c * d
    return BivariateSeries(tuple(map(tuple, acc)))


def long_divide(num: BivariateSeries, den: BivariateSeries) -> BivariateSeries:
    """Quotient Q with labelled_product(Q, den) = num for any den with
    constant term 1, on the order num and den share, by long division in
    EGF cells: Q(r,s) is N(r,s) minus sum C(r,u) C(s,v) D(u,v) Q(r-u,s-v)
    over the nonzero cells D(u,v) other than the constant, filled row by
    row."""
    if den.coeffs[0][0] != 1:
        raise ValueError(f"denominator must have constant term 1, got {den.coeffs[0][0]}")
    if num.order != den.order:
        raise ValueError(f"operands have orders {num.order} and {den.order}")
    n = num.order
    rest = [(u, v, d) for u, row in enumerate(den.coeffs) for v, d in enumerate(row) if d and (u or v)]
    q = [[0] * (n + 1) for _ in range(n + 1)]
    for r in range(n + 1):
        for s in range(n + 1):
            q[r][s] = num.coeffs[r][s] - sum(
                comb(r, u) * comb(s, v) * d * q[r - u][s - v] for u, v, d in rest if u <= r and v <= s
            )
    return BivariateSeries(tuple(map(tuple, q)))


# The two split patterns, each as (values, split): the pattern permutation
# and how many of its positions lie at or before r.
PATTERN_3_12 = ((3, 1, 2), 1)
PATTERN_23_1 = ((2, 3, 1), 2)
PATTERNS = (PATTERN_3_12, PATTERN_23_1)


def same_relative_order(window, pattern_vals):
    k = len(pattern_vals)
    return all(
        (window[a] < window[b]) == (pattern_vals[a] < pattern_vals[b])
        for a in range(k)
        for b in range(a + 1, k)
    )


def oracle_witnesses(w: Permutation, pattern, r: int):
    """Every witness of the (values, split) pattern, lazily, in lexicographic
    index order, by plain enumeration of index subsets."""
    u, j = pattern
    k = len(u)
    for idx in combinations(range(1, w.n + 1), k):
        if j > 0 and idx[j - 1] > r:
            continue
        if j < k and idx[j] <= r:
            continue
        if same_relative_order([w.w(i) for i in idx], u):
            yield idx


def oracle_first_witness(w: Permutation, pattern, r: int):
    """The lexicographically smallest witness of the (values, split)
    pattern, or None: the subset scan stops at its first match."""
    return next(oracle_witnesses(w, pattern, r), None)


def assert_valid_witness(w: Permutation, pattern, r: int, idx):
    """Independent re-check of a witness, the tuple of its positions, of the
    (values, split) pattern against the containment definition."""
    assert type(idx) is tuple
    u, j = pattern
    k = len(u)
    assert len(idx) == k
    assert all(1 <= i <= w.n for i in idx)
    assert all(a < b for a, b in zip(idx, idx[1:]))
    if j > 0:
        assert idx[j - 1] <= r
    if j < k:
        assert idx[j] > r
    assert same_relative_order([w.w(i) for i in idx], u)
