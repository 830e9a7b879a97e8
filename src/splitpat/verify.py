"""Verification suites tying the oracle, the closed forms and the series
identities together.  Every check is exact; a failure anywhere means a bug,
not a tolerance issue."""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from math import comb, factorial, inf, perm
from operator import itemgetter

from . import counting, series
from .perms import DEFAULT_SEARCH_LIMIT, TARGETS, BadInputError, Check, _check_int, _check_limit, _rotate180

__all__ = ["Check", "TARGETS", "run_target"]


def oracle_checks(n_max: int, limit: int = DEFAULT_SEARCH_LIMIT) -> list[Check]:
    """Brute force vs closed form vs peeling, for every r at each size.

    Refuses n_max > limit before sweeping the sizes below it.
    """
    _check_int("n_max", n_max, 1, inf)
    _check_limit(n_max, limit)
    checks = []
    for n in range(n_max + 1):
        ok = True
        detail = ""
        for r in range(n + 1):
            counts = {counting.brute_count(r, n, limit=limit), counting.avoider_count(r, n),
                      counting.avoider_count_by_peeling(r, n)}
            if len(counts) != 1:
                ok = False
                detail = f"disagreement at r={r}: {sorted(counts)}"
                break
        checks.append(
            Check("oracle", f"oracle = closed form = peeling at n={n}, all r", ok, detail)
        )
    return checks


# Each structure fact's statement and failure detail, by key in output order.
_STRUCTURE_FACTS = {
    "split": ("max-left/max-right split sizes sum to the count", "split sizes wrong"),
    "fibers": ("removing the max fibers the max-right side with fiber size n-r", "fiber sizes wrong"),
    "peel-left": ("removing a max-left max lands in the class at r-1", "max-left peel leaves the class"),
    "partition": ("smallest-right partition classes have the predicted sizes", "partition sizes wrong"),
    "rotate": ("rotate180 bijects class (r,n) onto (n-r,n)", "rotation image wrong"),
}


# Parents whose children the structure suite makes and filters at once.
_BLOCK = 32


def structure_checks(n_max: int, limit: int = DEFAULT_SEARCH_LIMIT) -> list[Check]:
    """Structural facts about the avoidance classes, swept from S_n for all
    n <= n_max and all r; a failure names the first failing (r, n), n then
    r.  Refuses n_max > limit before any sweep.

    S_n is S_{n-1} with n inserted at each position, so index i holds index
    i // n of S_{n-1}, its parent, with its max at position i % n.  The
    children are made and filtered a block of parents at a time, every r at
    once by ``_avoid_lanes``, so only S_{n_max-1} is ever held as tuples.
    Each class is a bitmap over S_n, one byte per index; its slice
    ``[p::n]`` is the bitmap over S_{n-1} of the parents whose child with
    the max at p is a member, so remove-max is a strided slice.  A max-left
    member's right block is its parent's from position r - 1 on, so the
    sweep keeps each parent's suffix minima for ``partition`` and drops the
    parents' tuples before the facts.  ``_rotate180`` runs once per
    permutation and ``_rank`` indexes its image; rotation marks a class's
    images on a bitmap and compares it with the mirror class.  Only the
    classes of the size below are kept."""
    from array import array  # on use: only this suite holds the rotation ranks

    _check_int("n_max", n_max, 1, inf)
    _check_limit(n_max, limit)
    parents: list[tuple[int, ...]] = [()]
    classes = [bytearray(b"\1")]  # S_0's one class: the empty permutation avoids both patterns
    failures: dict[str, str] = {}
    for n in range(1, n_max + 1):
        size, top = len(parents) * n, (n,)
        smaller_classes, classes = classes, [bytearray() for _ in range(n + 1)]
        rotated, children = array("i"), []
        suffix_min = [bytearray() for _ in range(n - 1)]  # at i, each parent's min(u[i:])
        first_child = dict(zip(parents, range(0, size, n)))  # each parent's first child's index
        for start in range(0, len(parents), _BLOCK):
            block = parents[start : start + _BLOCK]
            chunk = [u[:p] + top + u[p:] for u in block for p in range(n)]
            for members, lanes in zip(classes, _avoid_lanes(chunk, n)):
                members.extend(lanes)
            rotated.extend(map(_rank, map(_rotate180, chunk), repeat(n), repeat(first_child)))
            for i, mins in enumerate(suffix_min):
                mins.extend(map(min, map(itemgetter(slice(i, None)), block)))
            if n < n_max:
                children += chunk
        parents, first_child = children, None
        for r, members in enumerate(classes):
            by_max = [members[p::n] for p in range(n)]  # the members with their max at p, by parent
            found = {
                "split": sum(b.count(1) for b in by_max[:r]) == counting.max_left_avoider_count(r, n)
                and members.count(1) == counting.avoider_count(r, n),
            }
            if r <= n - r:
                # Images all in S_n that mark the mirror class's bitmap, and
                # as many as its members, are a bijection onto it.
                # _rotate180 is an involution, so the pair's other direction
                # needs no check of its own.
                mirror, images = classes[n - r], bytearray(size)
                for i in compress(rotated, members):
                    images[i] = 1
                found["rotate"] = (
                    min(compress(rotated, members), default=0) >= 0
                    and members.count(1) == mirror.count(1)
                    and images == mirror
                )
            if r < n:
                found["fibers"] = all(b == smaller_classes[r] for b in by_max[r:])
            if r >= 1:
                # Read as ints, each bitmap sets no bit outside the class's.
                smaller = int.from_bytes(smaller_classes[r - 1], "little")
                found["peel-left"] = all((int.from_bytes(b, "little") | smaller) == smaller for b in by_max[:r])
            if 0 < r < n:
                right_min = suffix_min[r - 1]  # min(w[r:]) of a max-left member, by parent
                found["partition"] = Counter(chain.from_iterable(compress(right_min, b) for b in by_max[:r])) == {
                    i: comb(n - i - 1, r - i) * perm(r, i - 1) for i in range(1, r + 1)
                }
            for key, holds in found.items():
                if not holds and key not in failures:
                    failures[key] = f"{_STRUCTURE_FACTS[key][1]} at (r,n)=({r},{n})"

    scope = f"n <= {n_max}, all r"
    return [
        Check(key, f"{statement} ({scope})", key not in failures, failures.get(key, ""))
        for key, (statement, _) in _STRUCTURE_FACTS.items()
    ]


def _avoid_lanes(chunk: list[tuple[int, ...]], n: int) -> list[bytes]:
    """For each r in 0..n, one byte per permutation in ``chunk``, all of
    size n <= 126: 1 iff it avoids both patterns at r, as ``_avoids(w, r)``
    decides.

    Position j of every permutation is one 8-bit lane of ``cols[j]``, so
    each step is a few big-int operations on the whole chunk.  ``lt`` sets
    0xFF in the lanes where x < y: y + 128 - x - 1 keeps a lane's high bit
    iff x < y, and no lane borrows from the next while every value is at
    most 127.  w avoids at r iff max(w[:r]) < least[r], the least w_k over
    pairs r <= j < k with w_j < w_k (else 3|12), and most[r] < min(w[r:]),
    where most[r] is the largest w_h over pairs h < i < r with w_h < w_i
    (else 23|1).  An empty max or ``most`` reads 0 and an empty min or
    ``least`` reads 127, above every value (hence n <= 126), so r = 0 and
    r = n need no case of their own."""
    width = len(chunk)
    ones = int.from_bytes(b"\1" * width, "little")
    high, above = ones << 7, ones * 127

    def lt(x: int, y: int) -> int:
        return ((((y | high) - x - ones) & high) >> 7) * 255

    cols = [int.from_bytes(bytes(map(itemgetter(j), chunk)), "little") for j in range(n)]
    least, low = [above] * (n + 1), [above] * (n + 1)  # low[r] = min(w[r:])
    for j in range(n - 1, -1, -1):
        x, m, lo = cols[j], least[j + 1], low[j + 1]
        for y in cols[j + 1 :]:
            m ^= (m ^ y) & lt(x, y) & lt(y, m)
        least[j], low[j] = m, lo ^ ((lo ^ x) & lt(x, lo))
    lanes, top, most = [], 0, 0  # top = max(w[:r])
    for r in range(n + 1):
        lanes.append((lt(top, least[r]) & lt(most, low[r]) & ones).to_bytes(width, "little"))
        if r < n:
            x = cols[r]
            for y in cols[:r]:
                most ^= (most ^ y) & lt(y, x) & lt(most, y)
            top ^= (top ^ x) & lt(top, x)
    return lanes


def _rank(image: tuple[int, ...], n: int, first_child: dict[tuple[int, ...], int]) -> int:
    """Index in S_n of ``image``, or -1 (in no class) if it is not in S_n:
    the index of the first child of its parent, ``image`` without n, read
    from ``first_child``, plus the position of n."""
    try:
        p = image.index(n)
    except ValueError:
        return -1
    first = first_child.get(image[:p] + image[p + 1 :], -1)
    return first + p if first >= 0 else -1


# Largest n at which the symmetry suite checks the closed-form counts.
_COUNT_N_MAX = 30


def symmetry_checks(order: int) -> list[Check]:
    """Symmetry and lower bound of the closed-form counts, plus x/y symmetry
    of every named series."""
    _check_int("order", order, 2, inf)
    counts = counting.build_count_table(_COUNT_N_MAX).entries
    count_sym = all(k == counts[(n - r, n)] for (r, n), k in counts.items())
    bound = all(k >= factorial(r) * factorial(n - r) for (r, n), k in counts.items())
    named = {  # each series is built, tested and dropped before the next
        "exp_sum": series.exp_sum_series,
        "bessel_i0": series.bessel_i0_series,
        "binomial_egf": series.binomial_egf_series,
        "geometric": series.geometric_series,
        "integrated_binomial_egf": series.integrated_binomial_egf,
        "count_egf": series.count_egf,
        "excess_ogf": series.excess_ogf,
    }
    asymmetric = sorted(name for name, build in named.items() if not build(order).is_symmetric())
    return [
        Check("count-symmetry", f"count(r,n) = count(n-r,n) for n <= {_COUNT_N_MAX}", count_sym),
        Check("count-bound", f"count(r,n) >= r!(n-r)! for n <= {_COUNT_N_MAX}", bound),
        Check(
            "series-symmetry",
            f"named series symmetric under swapping x and y at order {order}",
            not asymmetric,
            "" if not asymmetric else f"asymmetric: {', '.join(asymmetric)}",
        ),
    ]


def recursion_checks(order: int) -> list[Check]:
    violations = counting.check_excess_recursion(order)
    return [
        Check(
            "recursion",
            f"excess recursion holds on [1,{order}]x[1,{order}]",
            not violations,
            f"violations at {violations[:5]}" if violations else "",
        )
    ]


def run_target(
    target: str,
    order: int = 12,
    n_max: int = 7,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[list[Check], series.BivariateSeries | None]:
    """Run one verification target and return its checks plus, for the
    targets that compute it, the residual of the alternative exponential
    boundary choice.  Every target refuses an order below 2, an n_max below
    1 and a negative limit, whether or not its suites use them."""
    if target not in TARGETS:
        raise BadInputError(f"unknown target {target!r}")
    _check_int("order", order, 2, inf)
    _check_int("n_max", n_max, 1, inf)
    _check_int("limit", limit, 0, inf)

    # Each suite is looked up in the module namespace when it runs, so
    # rebinding a module attribute (as a tracer does) reaches every target.
    checks: list[Check] = []
    if target in ("oracle", "all"):
        checks += oracle_checks(n_max, limit=limit)
    if target in ("fibers", "all"):
        checks += structure_checks(n_max, limit=limit)
    if target in ("symmetry", "all"):
        checks += symmetry_checks(order)
    if target in ("recursion", "all"):
        checks += recursion_checks(order)
    if target in ("bessel", "all"):
        checks += series.bessel_checks(order)
    residual: series.BivariateSeries | None = None
    if target in ("main2", "all"):
        found, residual = series.main2_checks(order)
        checks += found
    return checks, residual
