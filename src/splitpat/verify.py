"""Verification suites tying the oracle, the closed forms and the series
identities together.  Every check is exact; a failure anywhere means a bug,
not a tolerance issue."""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from itertools import chain
from math import comb, factorial, inf, perm

from .counting import (
    DEFAULT_SEARCH_LIMIT,
    _check_limit,
    avoider_count,
    avoider_count_by_peeling,
    brute_count,
    check_excess_recursion,
    enumerate_avoiders,
    max_left_avoider_count,
)
from .perms import BadInputError, Permutation, _check_int, remove_max, rotate180
from .series import (
    BivariateSeries,
    Check,
    bessel_checks,
    bessel_i0_series,
    binomial_egf_series,
    count_egf,
    excess_ogf,
    exp_sum_series,
    geometric_series,
    integrated_binomial_egf,
    main2_checks,
)

__all__ = ["Check", "REGISTRY", "TARGETS", "run_target"]


def oracle_checks(n_max: int, limit: int = DEFAULT_SEARCH_LIMIT) -> list[Check]:
    """Brute force vs closed form vs peeling, for every r at each size.

    The peeling route is only defined for r >= 1, so at r = 0 the brute
    count is compared against the closed form alone.  Refuses n_max > limit
    before sweeping the sizes below it.
    """
    _check_limit(n_max, limit)
    checks = []
    for n in range(n_max + 1):
        ok = True
        detail = ""
        for r in range(n + 1):
            counts = {brute_count(r, n, limit=limit), avoider_count(r, n)}
            if r >= 1:
                counts.add(avoider_count_by_peeling(r, n))
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


def structure_checks(n_max: int, limit: int = DEFAULT_SEARCH_LIMIT) -> list[Check]:
    """Structural facts about the avoidance classes, checked by exhaustive
    enumeration for all n <= n_max and all r; a failure names the first
    failing (r, n), n then r.  Refuses n_max > limit before any sweep."""
    _check_limit(n_max, limit)
    classes: dict[tuple[int, int], list[Permutation]] = {
        (r, n): enumerate_avoiders(r, n, limit=limit)
        for n in range(n_max + 1)
        for r in range(n + 1)
    }

    def facts(r: int, n: int) -> dict[str, bool]:
        members = classes[(r, n)]
        max_left = [w for w in members if n in w.values[:r]]
        expected_left = max_left_avoider_count(r, n) if r >= 1 else 0
        found = {
            "split": len(max_left) == expected_left and len(members) == avoider_count(r, n),
            "rotate": {rotate180(w) for w in members} == set(classes[(n - r, n)]),
        }
        if r < n:
            fibers = Counter(remove_max(w) for w in members if n not in w.values[:r])
            found["fibers"] = fibers == {w: n - r for w in classes[(r, n - 1)]}
        if r >= 1:
            smaller = set(classes[(r - 1, n - 1)])
            found["peel-left"] = all(remove_max(w) in smaller for w in max_left)
        if 0 < r < n:
            found["partition"] = Counter(min(w.values[r:]) for w in max_left) == {
                i: comb(n - i - 1, r - i) * perm(r, i - 1) for i in range(1, r + 1)
            }
        return found

    failures: dict[str, str] = {}
    for n in range(1, n_max + 1):
        for r in range(n + 1):
            for key, holds in facts(r, n).items():
                if not holds and key not in failures:
                    failures[key] = f"{_STRUCTURE_FACTS[key][1]} at (r,n)=({r},{n})"

    scope = f"n <= {n_max}, all r"
    return [
        Check(key, f"{statement} ({scope})", key not in failures, failures.get(key, ""))
        for key, (statement, _) in _STRUCTURE_FACTS.items()
    ]


# Largest n at which the symmetry suite checks the closed-form counts.
_COUNT_N_MAX = 30


def symmetry_checks(order: int) -> list[Check]:
    """Symmetry and lower bound of the closed-form counts, plus x/y symmetry
    of every named series."""
    counts = {(r, n): avoider_count(r, n) for n in range(_COUNT_N_MAX + 1) for r in range(n + 1)}
    count_sym = all(k == counts[(n - r, n)] for (r, n), k in counts.items())
    bound = all(k >= factorial(r) * factorial(n - r) for (r, n), k in counts.items())
    named: dict[str, BivariateSeries] = {
        "exp_sum": exp_sum_series(order),
        "bessel_i0": bessel_i0_series(order),
        "binomial_egf": binomial_egf_series(order),
        "geometric": geometric_series(order),
        "integrated_binomial_egf": integrated_binomial_egf(order),
        "count_egf": count_egf(order),
        "excess_ogf": excess_ogf(order),
    }
    asymmetric = sorted(name for name, s in named.items() if not s.is_symmetric())
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
    violations = check_excess_recursion(order)
    return [
        Check(
            "recursion",
            f"excess recursion holds on [1,{order}]x[1,{order}]",
            not violations,
            f"violations at {violations[:5]}" if violations else "",
        )
    ]


# A suite maps (order, n_max, limit) to its checks and, for main2 alone, the
# boundary residual series.
_Suite = Callable[[int, int, int], tuple[list[Check], BivariateSeries | None]]

# Each target's suites in output order; a target computes only these.  The
# lambdas look the suite functions up when they run, so rebinding a module
# attribute (as a tracer does) reaches every target.
REGISTRY: dict[str, tuple[_Suite, ...]] = {
    "oracle": (lambda order, n_max, limit: (oracle_checks(n_max, limit=limit), None),),
    "fibers": (lambda order, n_max, limit: (structure_checks(n_max, limit=limit), None),),
    "symmetry": (lambda order, n_max, limit: (symmetry_checks(order), None),),
    "recursion": (lambda order, n_max, limit: (recursion_checks(order), None),),
    "bessel": (lambda order, n_max, limit: (bessel_checks(order), None),),
    "main2": (lambda order, n_max, limit: main2_checks(order),),
}
REGISTRY["all"] = tuple(chain.from_iterable(REGISTRY.values()))
TARGETS = tuple(REGISTRY)


def run_target(
    target: str,
    order: int = 12,
    n_max: int = 7,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> tuple[list[Check], BivariateSeries | None]:
    """Run one verification target and return its checks plus, for the
    targets that compute it, the residual of the alternative exponential
    boundary choice.  Every target refuses an order below 2, an n_max below
    1 and a negative limit, whether or not its suites use them."""
    if target not in REGISTRY:
        raise BadInputError(f"unknown target {target!r}")
    _check_int("order", order, 2, inf)
    _check_int("n_max", n_max, 1, inf)
    _check_int("limit", limit, 0, inf)

    checks: list[Check] = []
    residual: BivariateSeries | None = None
    for suite in REGISTRY[target]:
        found, suite_residual = suite(order, n_max, limit)
        checks.extend(found)
        if suite_residual is not None:
            residual = suite_residual
    return checks, residual
