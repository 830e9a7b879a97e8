"""Exact counting of the split-pattern avoidance classes.

Counts come from three independent routes: a brute-force oracle that
sweeps the orderings of each block of every split of the values, a
closed-form double sum, and a peeling recurrence that repeatedly removes the
maximal value.  The count table is filled from the integer form of the
excess recursion instead; the closed form is its independent check, and
``check_excess_recursion`` lists the cells where the two disagree.  All
arithmetic is arbitrary-precision integer or rational, with binomials and
falling factorials from ``math.comb`` and ``math.perm``; nothing here
touches floating point, so every table entry is bit-exact no matter how
large.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from itertools import combinations, permutations
from math import comb, factorial, inf, perm

from .perms import Permutation, _Record, _avoids, _check_int

__all__ = [
    "DEFAULT_SEARCH_LIMIT",
    "SearchLimitError",
    "avoider_count",
    "max_left_avoider_count",
    "avoider_count_by_peeling",
    "enumerate_avoiders",
    "brute_count",
    "partition_by_smallest_right",
    "normalized_excess",
    "check_excess_recursion",
    "CountTable",
    "build_count_table",
]

# Sweeping 10! orderings, each tested in linear time, is the practical
# ceiling for a desk machine: ``enumerate_avoiders`` sweeps all of S_n, and
# ``brute_count`` sweeps about n! orderings at r <= 1 and r >= n-1.  Larger
# sizes must be requested explicitly.
DEFAULT_SEARCH_LIMIT = 10


class SearchLimitError(ValueError):
    """Raised when a brute-force sweep would exceed the size guard.

    It carries ``size`` and ``limit``, the refused size and the guard, so a
    front end can name the guard in its own terms.
    """

    def __init__(self, size: int, limit: int) -> None:
        super().__init__(
            f"size {size} exceeds the exhaustive-search guard (limit={limit}); "
            f"raise the limit explicitly to proceed"
        )
        self.size = size
        self.limit = limit


def _check_limit(n: int, limit: int) -> None:
    # A malformed guard is bad input; only a valid one refuses a search.
    _check_int("limit", limit, 0, inf)
    if n > limit:
        raise SearchLimitError(n, limit)


def avoider_count(r: int, n: int) -> int:
    """Closed-form count of permutations in S_n avoiding both split
    patterns 3|12 and 23|1 with respect to position r.

    Equals r!(n-r)! plus the double sum over 1 <= i <= r, 1 <= j <= n-r of
    C(n-i-j, r-i) (r)_{i-1} (n-r)_{j-1}; the value for (0, 0) is 1 (the
    empty permutation).  Both sums are folded by Horner's rule, so each
    term costs a few products of a big integer by a small one.

    >>> avoider_count(2, 5)
    47
    """
    _check_int("n", n, 0, inf)
    _check_int("r", r, 0, n)
    s = n - r
    outer = 0
    for k in range(r):  # k = r - i, i from r down to 1
        c, inner = 1, 0  # c = C(k + t, k) = C(n-i-j, r-i) with t = s - j
        for t in range(s):
            inner = c + (t + 1) * inner
            c = c * (k + t + 1) // (t + 1)
        outer = inner + (k + 1) * outer
    return factorial(r) * factorial(s) + outer


def max_left_avoider_count(r: int, n: int) -> int:
    """Count of avoiders whose maximal value n sits at a position <= r.

    Closed form for 1 <= r < n; for r = n every permutation of S_n
    qualifies, giving n!.
    """
    _check_int("n", n, 1, inf)
    _check_int("r", r, 1, n)
    if r == n:
        return factorial(r)
    # (r)_{i-1} is perm(r, i - 1); every argument is in range as 1 <= i <= r < n.
    return sum(comb(n - i - 1, r - i) * perm(r, i - 1) for i in range(1, r + 1))


def avoider_count_by_peeling(r: int, n: int) -> int:
    """Count avoiders by repeatedly peeling off the maximal value.

    Each peel either keeps the class position (max right of r, n-r ways to
    reinsert) or ends in a max-left count; summing the resulting telescope
    must reproduce ``avoider_count`` for every 1 <= r <= n.
    """
    _check_int("n", n, 1, inf)
    _check_int("r", r, 1, n)
    # The sum over j of (n-r)_j * max_left_avoider_count(r, n-j), folded by
    # Horner's rule from m = n-j = r upwards.  binoms[k] holds
    # C(m-i-1, r-i) for i = r-k, the binomials of the max-left count at m.
    total = factorial(r)
    binoms = [1] * r
    for u in range(1, n - r + 1):  # u = m - r
        max_left = 0
        for k in range(r):
            max_left = binoms[k] + (k + 1) * max_left
            binoms[k] = binoms[k] * (u + k) // u
        total = max_left + u * total
    return total


def enumerate_avoiders(
    r: int, n: int, limit: int = DEFAULT_SEARCH_LIMIT
) -> list[Permutation]:
    """All avoiders in S_n with respect to position r, in lexicographic
    one-line order.  Refuses n > limit."""
    _check_int("n", n, 0, inf)
    _check_int("r", r, 0, n)
    _check_limit(n, limit)
    return [
        Permutation(vals)
        for vals in permutations(range(1, n + 1))
        if _avoids(vals, r)
    ]


def _decreasing_orderings(block: tuple[int, ...], keep: Callable[[int], bool]) -> int:
    """Number of orderings of ``block`` in which the values passing ``keep``
    appear in decreasing order, counted by testing every ordering."""
    want = sorted(filter(keep, block), reverse=True)
    orderings = permutations(block)
    if len(want) < 2:  # no ordering can fail the test
        return sum(1 for _ in orderings)
    # Lists, not tuples: tuple() of a filter builds each result at a guessed
    # size and shrinks it, so every result lands on a tuple free list that
    # the next build never draws from, which holds about 1 MB at n = 8.
    return sum(list(filter(keep, p)) == want for p in orderings)


def brute_count(r: int, n: int, limit: int = DEFAULT_SEARCH_LIMIT) -> int:
    """Cardinality of the avoidance class, counted by brute force per block.

    3|12 sees the left block only through its maximum, and 23|1 sees the
    right block only through its minimum.  So for each set S of r left
    values, with complement T, w avoids both patterns iff the values of S
    above min(T) decrease and, independently, the values of T below max(S)
    decrease; the members with left values S are the product of the two
    counts, each found by testing every ordering of its block.

    Independent oracle for ``avoider_count``: it uses the pattern
    definitions alone, never the avoidance predicate, a count formula or a
    factorial, and never reuses a factor by the shape of its block (that
    would make it the formula r!(n-r)! sum 1/(c! d!)).
    """
    _check_int("n", n, 0, inf)
    _check_int("r", r, 0, n)
    _check_limit(n, limit)
    values = range(1, n + 1)
    total = 0
    for left in combinations(values, r):
        right = tuple(v for v in values if v not in left)
        top = max(left, default=0)
        bottom = min(right, default=n + 1)
        # bottom.__lt__(v) is v > bottom and top.__gt__(v) is v < top.
        total += _decreasing_orderings(left, bottom.__lt__) * _decreasing_orderings(
            right, top.__gt__
        )
    return total


def partition_by_smallest_right(
    r: int, n: int, limit: int = DEFAULT_SEARCH_LIMIT
) -> dict[int, set[Permutation]]:
    """Partition the max-left avoiders by the smallest value right of r.

    Class i collects the avoiders with max at a position <= r whose
    smallest value appearing right of position r equals i; only classes
    1 <= i <= r are inhabited and class i has exactly
    binomial(n-i-1, r-i) * (r)_{i-1} members.
    """
    _check_int("n", n, 2, inf)
    _check_int("r", r, 1, n - 1)
    groups: dict[int, set[Permutation]] = {}
    for w in enumerate_avoiders(r, n, limit=limit):
        vals = w.values
        if n in vals[:r]:
            groups.setdefault(min(vals[r:]), set()).add(w)
    return groups


def normalized_excess(r: int, s: int) -> Fraction:
    """How far the avoidance count at (r, r+s) exceeds its factorial floor,
    normalized: count / (r! s!) - 1.

    Zero whenever r = 0 or s = 0, and symmetric in (r, s).

    >>> normalized_excess(2, 2)
    Fraction(5, 2)
    """
    from fractions import Fraction  # on use: it and decimal would slow every command
    _check_int("r", r, 0, inf)
    _check_int("s", s, 0, inf)
    return Fraction(avoider_count(r, r + s), factorial(r) * factorial(s)) - 1


def check_excess_recursion(order: int) -> list[tuple[int, int]]:
    """Check that the normalized excess satisfies, for all cells in
    [1, order]^2,

        e(r,s) = e(r,s-1) + e(r-1,s) - e(r-1,s-1) + C(r+s-2, r-1)/(r! s!)

    exactly.  Multiplied by r! s!, with K(r,s) = avoider_count(r, r+s) =
    r! s! (e(r,s) + 1), the -1 terms cancel and the recursion becomes the
    integer identity

        K(r,s) = s K(r,s-1) + r K(r-1,s) - r s K(r-1,s-1) + C(r+s-2, r-1),

    which fails at exactly the same cells and is what gets tested.  Returns
    the violating cells (r, s) in row-major order: violations are a result,
    not errors.
    """
    _check_int("order", order, 1, inf)
    k = {(r, s): avoider_count(r, r + s) for r in range(order + 1) for s in range(order + 1)}
    violations = []
    for r in range(1, order + 1):
        for s in range(1, order + 1):
            expected = s * k[(r, s - 1)] + r * k[(r - 1, s)] - r * s * k[(r - 1, s - 1)] + comb(r + s - 2, r - 1)
            if k[(r, s)] != expected:
                violations.append((r, s))
    return violations


class CountTable(_Record):
    """Avoidance counts for every 0 <= r <= n <= n_max.

    Treat ``entries`` as read-only after construction.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], int]) -> None:
        super().__init__(entries)

    def k(self, r: int, n: int) -> int:
        return self.entries[(r, n)]

    def rows(
        self, r_max: int | None = None
    ) -> list[tuple[int, int, int]]:
        """(r, n, count) triples with n >= 1 sorted by (n, r), optionally
        only those with r <= r_max."""
        if r_max is not None:
            _check_int("r_max", r_max, 0, inf)
        out = [
            (r, n, k)
            for (r, n), k in self.entries.items()
            if n >= 1 and (r_max is None or r <= r_max)
        ]
        out.sort(key=lambda row: (row[1], row[0]))
        return out

    def to_csv(self, r_max: int | None = None) -> str:
        lines = ["r,n,k"]
        lines.extend(f"{r},{n},{k}" for r, n, k in self.rows(r_max))
        return "\n".join(lines) + "\n"

    def to_json(self, r_max: int | None = None) -> str:
        # Counts are serialized as decimal strings so consumers with fixed
        # integer widths can still read large factorials.
        return json.dumps(
            [{"r": r, "n": n, "k": str(k)} for r, n, k in self.rows(r_max)]
        )


def _count_grid(n_max: int) -> list[list[int]]:
    """Rows ``grid[r][s] = avoider_count(r, r + s)`` for r + s <= n_max,
    from the integer form of the excess recursion (see
    ``check_excess_recursion``)

        K(r,s) = s K(r,s-1) + r K(r-1,s) - r s K(r-1,s-1) + C(r+s-2, r-1),

    with K(r,0) = r! and K(0,s) = s!.  Row r needs only row r-1, and the
    binomial moves along the row in place, so every cell costs a few
    products of a big integer by a small one.
    """
    grid = [[factorial(s) for s in range(n_max + 1)]]
    for r in range(1, n_max + 1):
        above = grid[-1]
        row = [r * above[0]]
        c = 1  # C(r+s-2, r-1) at s = 1
        for s in range(1, n_max - r + 1):
            row.append(s * row[-1] + r * (above[s] - s * above[s - 1]) + c)
            c = c * (r + s - 1) // s
        grid.append(row)
    return grid


def build_count_table(n_max: int) -> CountTable:
    """Counts for all 0 <= r <= n <= n_max, from the integer recursion.

    ``avoider_count``, the paper's closed form, is the independent check on
    these values; the tests compare the two on every cell with n <= 100.
    """
    _check_int("n_max", n_max, 1, inf)
    grid = _count_grid(n_max)
    entries = {(r, n): grid[r][n - r] for n in range(n_max + 1) for r in range(n + 1)}
    return CountTable(entries)
