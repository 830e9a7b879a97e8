"""Exact counting of the split-pattern avoidance classes.

Counts come from three independent routes: a brute-force oracle that
sweeps the orderings of each block of every split of the values, a
closed-form double sum, and a peeling recurrence that repeatedly removes the
maximal value.  The ``count`` command and every grid of counts, the count
table included, read the columns of ``_count_column``: the closed form's
inner sum stepped by Kummer's contiguous relation, O(1) big-by-small
products per count, so a column of fixed n - r costs O(n) and the
[0, order]^2 grid O(order^2).  ``avoider_count`` stays the literal double
sum they are checked against; the integer form of the excess recursion is
only checked against the grid, and ``check_excess_recursion`` lists the
cells where the two disagree.  All
arithmetic is arbitrary-precision integer or rational, with binomials and
falling factorials from ``math.comb`` and ``math.perm``; nothing here
touches floating point, so every table entry is bit-exact no matter how
large.

The classes themselves are listed by ``_avoider_tuples``, which builds each
member from its two blocks by the oracle's characterization instead of
filtering S_n, so its cost follows the class size, not n!.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from itertools import combinations, permutations, repeat
from math import comb, factorial, inf, perm

# Nothing here calls _avoids; the name stays bound because the benchmark's
# tracer (perfbench/spans.py) replaces counting._avoids to count its calls.
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
# ceiling for a desk machine: ``brute_count`` sweeps about n! orderings at
# r <= 1 and r >= n-1, and ``enumerate_avoiders`` lists up to 986,410
# members at n = 10.  Larger sizes must be requested explicitly.
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
    term costs a few products of a big integer by a small one; this is the
    literal double sum, the reference that ``_count_column`` is checked
    against, and no count grid reads it.

    >>> avoider_count(2, 5)
    47
    """
    _check_int("n", n, 0, inf)
    _check_int("r", r, 0, n)
    s = n - r
    floor, outer = factorial(s), 0  # floor = r! s!
    for k in range(r):  # k = r - i, i from r down to 1
        c, inner = 1, 0  # c = C(k + t, k) = C(n-i-j, r-i) with t = s - j
        for t in range(s):
            inner = c + (t + 1) * inner
            c = c * (k + t + 1) // (t + 1)
        outer = inner + (k + 1) * outer
        floor *= k + 1
    return floor + outer


def _count_column(s: int, r_max: int) -> Iterator[int]:
    """Yield ``avoider_count(r, r + s)`` for r = 0..r_max, holding O(1) big
    ints.  With c = r-i+1 and d = s-j+1 the count is r! s! plus the sum over
    c <= r of g(c) r!/c!, where g(c) = sum_{d=1..s} C(c+d-2, c-1) s!/d!
    for c >= 1 and g(0) = s!; the outer sum folds as T = c T + g(c)."""
    # sum_d C(c+d-2, c-1) y^d/d! = y M(c, 2, y), Kummer's function; its
    # contiguous relation (DLMF 13.3.1) at b = 2, times y/(1-y), read at
    # [y^s] s! gives c g(c+1) = (2c-1) g(c) + (2-c) g(c-1) - b(c), with
    # b(c) = C(c+s-2, s-1) and an exact division.  At s = 0 the true g(0)
    # and b(1) are both 0; taking both as 1 leaves the step unchanged.
    g_prev, g = 1, 0  # g(0) = s!, g(1) = sum_{d=1..s} s!/d!, by Horner
    for d in range(1, s + 1):
        g_prev *= d
        g = d * g + 1
    floor, total, b = g_prev, 0, 1  # floor = r! s!, b = b(c)
    yield floor
    for c in range(1, r_max + 1):
        total = c * total + g
        floor *= c
        yield floor + total
        g_prev, g = g, ((2 * c - 1) * g + (2 - c) * g_prev - b) // c
        b = b * (c + s - 1) // c


def _count_square(order: int) -> Iterator[tuple[int, ...]]:
    """Rows ``(avoider_count(r, r + s) for s in 0..order)`` for r = 0..order,
    read off one ``_count_column`` per s, O(order^2) steps in all."""
    return zip(*(_count_column(s, order) for s in range(order + 1)))


def max_left_avoider_count(r: int, n: int) -> int:
    """Count of avoiders whose maximal value n sits at a position <= r.

    Closed form for 0 <= r < n, an empty sum (0) at r = 0; for r = n every
    permutation of S_n qualifies, giving n!.
    """
    _check_int("n", n, 1, inf)
    _check_int("r", r, 0, n)
    if r == n:
        return factorial(r)
    # (r)_{i-1} is perm(r, i - 1); every argument is in range as 1 <= i <= r < n.
    return sum(comb(n - i - 1, r - i) * perm(r, i - 1) for i in range(1, r + 1))


def avoider_count_by_peeling(r: int, n: int) -> int:
    """Count avoiders by repeatedly peeling off the maximal value.

    Each peel either keeps the class position (max right of r, n-r ways to
    reinsert) or ends in a max-left count; summing the resulting telescope
    must reproduce ``avoider_count`` for every 0 <= r <= n (n! at r = 0).
    """
    _check_int("n", n, 0, inf)
    _check_int("r", r, 0, n)
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
    one-line order, built block by block by ``_avoider_tuples``.  Refuses
    n > limit."""
    _check_int("n", n, 0, inf)
    _check_int("r", r, 0, n)
    _check_limit(n, limit)
    return [Permutation(vals) for vals in _avoider_tuples(r, n)]


def _avoider_tuples(r: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the avoiders in S_n at position r as tuples, in lexicographic
    one-line order, built from their blocks with no pass over S_n.

    By the characterization in ``brute_count``, the members whose left block
    holds the set S are every left block of S followed by every right block
    of S, so each member is built once.  Left blocks of different sets hold
    different values and all have length r, so merging each set's sorted
    left blocks, and following each with its set's sorted right blocks,
    gives lexicographic order; memory follows the blocks, not the members.
    """
    from heapq import merge  # on use: no other command needs it

    values = range(1, n + 1)
    if r in (0, n):  # no pattern fits: every ordering avoids both
        yield from permutations(values)
        return
    heads, tails = [], []
    for k, left in enumerate(combinations(values, r)):
        right = tuple(v for v in values if v not in left)
        # right[0] is min(T) and left[-1] is max(S): both blocks are sorted.
        heads.append(zip(_chain_orderings(left, right[0].__lt__), repeat(k)))
        tails.append(_chain_orderings(right, left[-1].__gt__))
    for head, k in merge(*heads):
        for tail in tails[k]:
            yield head + tail


def _chain_orderings(block: tuple[int, ...], keep: Callable[[int], bool]) -> list[tuple[int, ...]]:
    """The orderings of ``block``, a sorted tuple, in which the values
    passing ``keep`` decrease, in lexicographic order.  That decreasing chain
    sits at each of its C(m, c) slot sets, and the free values fill the
    other slots in every order."""
    chain = sorted(filter(keep, block), reverse=True)
    if len(chain) < 2:  # no ordering can fail; those of a sorted block come sorted
        return list(permutations(block))
    free = [v for v in block if not keep(v)]
    m = len(block)
    orderings = []
    for slots in combinations(range(m), len(chain)):
        row = [0] * m
        for p, v in zip(slots, chain):
            row[p] = v
        others = [p for p in range(m) if p not in slots]
        for order in permutations(free):
            for p, v in zip(others, order):
                row[p] = v
            orderings.append(tuple(row))
    orderings.sort()
    return orderings


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

    which fails at exactly the same cells and is what gets tested, on the
    counts of ``_count_square``.  Returns the violating cells (r, s) in
    row-major order: violations are a result, not errors.
    """
    _check_int("order", order, 1, inf)
    k = tuple(_count_square(order))
    violations = []
    for r in range(1, order + 1):
        for s in range(1, order + 1):
            expected = s * k[r][s - 1] + r * k[r - 1][s] - r * s * k[r - 1][s - 1] + comb(r + s - 2, r - 1)
            if k[r][s] != expected:
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


def build_count_table(n_max: int) -> CountTable:
    """Counts for all 0 <= r <= n <= n_max, one ``_count_column`` per n - r.

    The integer excess recursion is the independent check on these values;
    the tests compare the two on every cell with n <= 100.
    """
    _check_int("n_max", n_max, 1, inf)
    columns = (_count_column(s, n_max - s) for s in range(n_max + 1))
    entries = {(r, r + s): k for s, column in enumerate(columns) for r, k in enumerate(column)}
    return CountTable(entries)
