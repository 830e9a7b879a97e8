"""Seeded command scripts for the four benchmark workloads.

Each workload is a closed loop with one client: the commands of a script run
one after another, each as its own CLI call.  The seed only shapes the
argv lists; the program never sees it.  Seeded parameters are nudged,
stratified or drawn from choices of equal cost, so that two seeds cost
about the same and the seed adds little to the run-to-run spread.

``smoke=True`` shrinks every size so the whole script runs in a second or
two; the self-test uses it to run every workload end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from checks import contains_3_12, contains_23_1

WORKLOADS = ("tables", "oracle", "identities", "check")


@dataclass(frozen=True)
class Command:
    """One CLI call and what its output must be.

    ``kind`` names the checker in checks.py; ``params`` holds what that
    checker needs to rebuild the expected output independently.
    """

    argv: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict, hash=False, compare=False)


def build(workload: str, seed: int, smoke: bool = False) -> list[Command]:
    """The command script of one run of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    return _SCRIPTS[workload](rng, smoke)


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi), one drawn uniformly from each of k equal strata."""
    width = (hi - lo) / k
    return [lo + int(width * (i + rng.random())) for i in range(k)]


def _tables(rng: random.Random, smoke: bool) -> list[Command]:
    # n-max 70 keeps a table call near half a second (n-max 100 takes 2 s),
    # so the script repeats often enough in a run; see README, Steadiness.
    n_max = 12 if smoke else 70
    cmds = [
        Command(("table", "--n-max", str(n_max)), "table_csv", {"n_max": n_max}),
        Command(("table", "--n-max", str(n_max), "--format", "json"), "table_json", {"n_max": n_max}),
    ]
    # Three cells spread over n in 300..600 and r/n in 0.25..0.75.  The seed
    # only nudges each cell, so every query costs about the same on every
    # seed and the per-query percentiles do not move with the seed.
    for i, f in enumerate((0.45, 0.25, 0.7)):
        n = (20 + 6 * i if smoke else 300 + 145 * i) + rng.randrange(10)
        r = round(n * f) + rng.randrange(-2, 3)
        for method in ("formula", "corollary"):
            cmds.append(
                Command(("count", "--r", str(r), "--n", str(n), "--method", method), "count", {"r": r, "n": n})
            )
    order = 6 if smoke else rng.choice((39, 40, 41))
    cmds.append(Command(("verify", "--target", "recursion", "--order", str(order)), "verify", {"target": "recursion"}))
    return cmds


def _oracle(rng: random.Random, smoke: bool) -> list[Command]:
    # Every command takes about a second, so a run repeats the script about
    # ten times; n = 10 brute force (5 s) and fibers at n = 8 (3.6 s) would
    # leave two repetitions, too few to filter the host's speed swings.
    # The class sizes at r and n - r are equal, and r = 4 and 5 cost the
    # same within a few percent for both the sweep and the enumeration.
    n_max = 5 if smoke else 8
    brute_n = enum_n = 6 if smoke else 9
    brute_r, enum_r = rng.sample((2, 3) if smoke else (4, 5), 2)
    return [
        Command(("verify", "--target", "oracle", "--n-max", str(n_max)), "verify", {"target": "oracle", "n_max": n_max}),
        Command(("verify", "--target", "fibers", "--n-max", str(n_max - 1)), "verify", {"target": "fibers"}),
        Command(
            ("count", "--r", str(brute_r), "--n", str(brute_n), "--method", "brute"),
            "count",
            {"r": brute_r, "n": brute_n},
        ),
        Command(("enumerate", "--r", str(enum_r), "--n", str(enum_n)), "enumerate", {"r": enum_r, "n": enum_n}),
    ]


def _identities(rng: random.Random, smoke: bool) -> list[Command]:
    # bessel and main2 both run the whole identity report, whose cost grows
    # like order^4 and does not depend on the target.  The seed decides which
    # target gets the high order and the order of the commands, so the
    # inputs change while every command costs the same on every seed.
    high, low, all_order, all_n = (6, 4, 4, 4) if smoke else (26, 22, 12, 7)
    orders = [high, low]
    rng.shuffle(orders)
    cmds = [
        Command(("verify", "--target", target, "--order", str(order)), "verify", {"target": target})
        for target, order in zip(("bessel", "main2"), orders)
    ]
    cmds.append(
        Command(
            ("verify", "--target", "all", "--order", str(all_order), "--n-max", str(all_n)),
            "verify",
            {"target": "all", "n_max": all_n},
        )
    )
    rng.shuffle(cmds)
    return cmds


def make_avoider(rng: random.Random, n: int, r: int) -> list[int]:
    """A random member of the avoidance class at r, built directly.

    Split the values into a left block of r and a right block, shuffle
    both, then put the right-block values below max(left) in decreasing
    order and the left-block values above min(right) in decreasing order,
    each within the positions those values already hold.  That is exactly
    the condition for avoiding 3|12 and 23|1 at r.
    """
    values = list(range(1, n + 1))
    rng.shuffle(values)
    left, right = values[:r], values[r:]
    if left and right:
        top, bottom = max(left), min(right)
        _decreasing(right, [i for i, v in enumerate(right) if v < top])
        _decreasing(left, [i for i, v in enumerate(left) if v > bottom])
    return left + right


def _decreasing(block: list[int], slots: list[int]) -> None:
    """Rearrange the values at ``slots`` of ``block`` into decreasing order."""
    for i, v in zip(slots, sorted((block[i] for i in slots), reverse=True)):
        block[i] = v


def make_perturbed(rng: random.Random, n: int, r: int) -> list[int]:
    """An avoider with one transposition that creates a pattern late.

    Swapping the last two entries of a forced-decreasing run makes an
    ascent there: in the right block that is a 3|12 occurrence, in the left
    block a 23|1 occurrence.  Redraw the avoider until such a run exists.
    """
    while True:
        w = make_avoider(rng, n, r)
        left, right = w[:r], w[r:]
        if left and right:
            runs = [
                [r + i for i, v in enumerate(right) if v < max(left)],
                [i for i, v in enumerate(left) if v > min(right)],
            ]
            for slots in runs:
                if len(slots) >= 2:
                    a, b = slots[-2], slots[-1]
                    w[a], w[b] = w[b], w[a]
                    return w


def _check(rng: random.Random, smoke: bool) -> list[Command]:
    # 3 kinds x 3 positions x 12 size strata = 108 queries per script, so
    # query_p90_ms has at least ten samples beyond it within one run.
    strata = 2 if smoke else 12
    lo, hi = (10, 30) if smoke else (50, 250)
    cmds = []
    for kind in ("avoider", "perturbed", "random"):
        for place in ("left", "middle", "right"):
            for n in _stratified(rng, lo, hi, strata):
                if place == "left":
                    r = rng.choice((1, 2))
                elif place == "right":
                    r = n - rng.choice((1, 2))
                else:
                    r = rng.randint(round(0.4 * n), round(0.6 * n))
                if kind == "avoider":
                    w = make_avoider(rng, n, r)
                elif kind == "perturbed":
                    w = make_perturbed(rng, n, r)
                else:
                    w = list(range(1, n + 1))
                    rng.shuffle(w)
                # The expected verdict of a random permutation comes from the
                # benchmark's own predicate; for the built kinds that predicate
                # must agree with the construction.
                found = (contains_3_12(w, r), contains_23_1(w, r))
                if (kind == "avoider") == any(found) and kind != "random":
                    raise RuntimeError(f"{kind} generator broke its invariant at n={n} r={r}")
                cmds.append(
                    Command(
                        ("check", "--perm", ",".join(map(str, w)), "--r", str(r)),
                        "check",
                        {"perm": w, "r": r, "contains": found},
                    )
                )
    rng.shuffle(cmds)
    return cmds


_SCRIPTS = {"tables": _tables, "oracle": _oracle, "identities": _identities, "check": _check}
