"""In-process replay of one workload's command script, traced or plain.

Run in a fresh interpreter with the library's ``src`` first on the path:

    python3 perfbench/spans.py --workload tables --seed 1 --mode traced --out spans.jsonl

The script's argv lists go through ``splitpat.cli.main`` one after another
with stdout captured, and every output is checked.  ``--mode plain`` replays
without instrumentation and also times the public ``is_avoider`` on a seeded
sample of S_9.  ``--mode traced`` first wraps the public functions of the
five layers (perms, counting, series, verify, cli) in every module namespace
that binds them, records one span per call (name, start, end, parent, run
id) in memory, writes the spans out at the end and reports self time per
function and per layer.  The library source is not modified.  The last
stdout line is one JSON object.

Every layer is single-threaded with no queues, so no span ever waits; the
report carries no wait metric for that reason.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict

import checks
import launcher
import workloads

# (module, attribute, span name).  A dotted attribute is a method on a class.
SPANS = [
    ("perms", "contains_split", "perms.contains_split"),
    ("perms", "parse_permutation", "perms.parse_permutation"),
    ("perms", "remove_max", "perms.structure_maps.remove_max"),
    ("perms", "rotate180", "perms.structure_maps.rotate180"),
    ("counting", "avoider_count", "counting.avoider_count"),
    ("counting", "avoider_count_by_peeling", "counting.avoider_count_by_peeling"),
    ("counting", "max_left_avoider_count", "counting.max_left_avoider_count"),
    ("counting", "normalized_excess", "counting.normalized_excess"),
    ("counting", "check_excess_recursion", "counting.check_excess_recursion"),
    ("counting", "build_count_table", "counting.build_count_table"),
    ("counting", "brute_count", "counting.brute_count"),
    ("counting", "enumerate_avoiders", "counting.enumerate_avoiders"),
    ("counting", "partition_by_smallest_right", "counting.partition_by_smallest_right"),
    ("counting", "CountTable.to_csv", "counting.CountTable.format.to_csv"),
    ("counting", "CountTable.to_json", "counting.CountTable.format.to_json"),
    ("series", "BivariateSeries.__mul__", "series.mul"),
    ("series", "divide_by_unit", "series.divide_by_unit"),
    ("series", "integrate_xy", "series.integrate_xy"),
    ("series", "partial_xy", "series.partial_xy"),
    ("series", "diagonal_collapse", "series.diagonal_collapse"),
    ("series", "verify_identities", "series.verify_identities"),
    *(
        ("series", name, f"series.named.{name}")
        for name in (
            "exp_sum_series",
            "bessel_i0_series",
            "binomial_egf_series",
            "geometric_series",
            "one_minus_x_minus_y_plus_xy",
            "integrated_binomial_egf",
            "count_egf",
            "excess_ogf",
        )
    ),
    ("verify", "oracle_checks", "verify.oracle_checks"),
    ("verify", "structure_checks", "verify.structure_checks"),
    ("verify", "symmetry_checks", "verify.symmetry_checks"),
    ("verify", "recursion_checks", "verify.recursion_checks"),
    ("verify", "run_target", "verify.run_target"),
    ("cli", "main", "cli.main"),
]
LAYERS = ("perms", "counting", "series", "verify", "cli")
SUITES = ("oracle_checks", "structure_checks", "symmetry_checks", "recursion_checks")


def _triangle(m: int) -> int:
    return (m + 1) * (m + 2) // 2


class Tracer:
    """Spans and counters of one replay, kept in flat arrays until the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack: list[int] = []
        self.run_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.sweep = [0, 0]  # predicate calls, avoiders accepted

    def span(self, name: str, fn, on_return=None):
        """Wrap fn so each call records a span; on_return(args, result) may count."""
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, runs, stack = (
            self.name, self.start, self.end, self.parent, self.run, self.stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every traced function in each splitpat namespace binding it."""
        import splitpat.cli  # noqa: F401  (loads all five layers)

        mods = [m for k, m in sys.modules.items() if k == "splitpat" or k.startswith("splitpat.")]
        hooks = {
            "series.mul": self._count_mul,
            "series.divide_by_unit": self._count_divide,
            "counting.build_count_table": self._count_table,
            "verify.run_target": self._count_checks,
        }
        for module, attr, name in SPANS:
            owner = sys.modules[f"splitpat.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self.span(name, original, hooks.get(name))
                for key, value in list(cls.__dict__.items()):
                    if value is original:  # __rmul__ is an alias of __mul__
                        setattr(cls, key, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original, hooks.get(name))
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        self._count_only()

    def _count_only(self) -> None:
        """Counters without spans: the sweep predicate and series cells."""
        counting = sys.modules["splitpat.counting"]
        series = sys.modules["splitpat.series"]
        counts, tally = self.counts, self.sweep
        predicate = counting._avoids

        def counted(vals, r):
            ok = predicate(vals, r)
            tally[0] += 1
            tally[1] += ok
            return ok

        counting._avoids = counted
        cls = series.BivariateSeries
        post_init = cls.__post_init__

        def counted_init(obj) -> None:
            post_init(obj)
            counts["series.cells_built"] += len(obj.coeffs) * len(obj.coeffs[0])

        cls.__post_init__ = counted_init

    def _count_mul(self, args, result) -> None:
        a, b = args
        if hasattr(b, "coeffs"):
            self.counts["series.mul.madds_computed"] += _triangle(min(a.nx, b.nx)) * _triangle(min(a.ny, b.ny))

    def _count_divide(self, args, result) -> None:
        num, den = args
        nx, ny = min(num.nx, den.nx), min(num.ny, den.ny)
        self.counts["series.divide_by_unit.madds_computed"] += _triangle(nx) * _triangle(ny) - (nx + 1) * (ny + 1)

    def _count_table(self, args, result) -> None:
        self.counts["counting.table_cells"] += len(result.entries)

    def _count_checks(self, args, result) -> None:
        self.counts["verify.checks_run"] += len(result[0])
        self.counts["verify.checks_failed"] += sum(1 for c in result[0] if not c.passed)

    def summary(self) -> tuple[dict, dict]:
        """Per-name (calls, total, self) and the per-layer metric dict."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = by_name[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]

        def self_s(*names: str) -> float:
            return sum(by_name[k][2] for k in names)

        def prefixed(prefix: str) -> list[str]:
            return [k for k in by_name if k.startswith(prefix)]

        candidates, accepted = self.sweep
        c = self.counts
        m = {
            "perms.contains_split.calls": by_name["perms.contains_split"][0],
            "perms.contains_split.self_s": self_s("perms.contains_split"),
            "perms.parse_permutation.self_s": self_s("perms.parse_permutation"),
            "perms.structure_maps.self_s": self_s(*prefixed("perms.structure_maps.")),
            "counting.avoider_count.calls": by_name["counting.avoider_count"][0],
            "counting.avoider_count.self_s": self_s("counting.avoider_count"),
            "counting.avoider_count_by_peeling.self_s": self_s("counting.avoider_count_by_peeling"),
            "counting.check_excess_recursion.self_s": self_s("counting.check_excess_recursion"),
            "counting.build_count_table.self_s": self_s("counting.build_count_table"),
            "counting.table_cells": c["counting.table_cells"],
            "counting.CountTable.format_s": self_s(*prefixed("counting.CountTable.format.")),
            "counting.brute_count.self_s": self_s("counting.brute_count"),
            "counting.enumerate_avoiders.self_s": self_s("counting.enumerate_avoiders"),
            "counting.sweep.candidates": candidates,
            "counting.sweep.accept_ratio": accepted / candidates if candidates else 0.0,
            "series.mul.calls": by_name["series.mul"][0],
            "series.mul.self_s": self_s("series.mul"),
            "series.mul.madds_computed": c["series.mul.madds_computed"],
            "series.divide_by_unit.self_s": self_s("series.divide_by_unit"),
            "series.divide_by_unit.madds_computed": c["series.divide_by_unit.madds_computed"],
            "series.named.self_s": self_s(*prefixed("series.named.")),
            "series.cells_built": c["series.cells_built"],
            "series.verify_identities.self_s": self_s("series.verify_identities"),
            **{f"verify.{s}.s": by_name[f"verify.{s}"][1] for s in SUITES},
            "verify.run_target.self_s": self_s("verify.run_target"),
            "verify.checks_run": c["verify.checks_run"],
            "verify.checks_failed": c["verify.checks_failed"],
            "cli.main.self_s": self_s("cli.main"),
            **{f"layer.{layer}.self_s": self_s(*prefixed(layer + ".")) for layer in LAYERS},
        }
        return by_name, m

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({**header, "names": self.names, "fields": ["name", "start", "end", "parent", "run"]}) + "\n")
            for i in range(len(self.start)):
                f.write(f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]},{self.run[i]}]\n")


def replay(commands, checker, tracer: Tracer | None = None) -> dict:
    """Run each argv through cli.main with output captured; time and check it.

    The calibration loop runs before each command, as in launcher.py, so
    the plain and traced walls can be compared at reference speed.
    """
    import splitpat.cli

    walls, calibrations, failed, errors = [], [], 0, []
    for run_id, cmd in enumerate(commands):
        if tracer is not None:
            tracer.run_id = run_id
        calibrations.append(launcher.calibration())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = splitpat.cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed command, not a benchmark error
                rc, reason = None, traceback.format_exc(limit=3)
            walls.append(time.perf_counter() - start)
        if rc is not None:
            reason = checker.check(cmd, rc, out.getvalue())
        if reason is not None:
            failed += 1
            errors.append(f"{' '.join(cmd.argv)[:80]}: {reason}")
    return {
        "wall_s": sum(walls),
        "scaled_wall_s": sum(launcher.at_reference_speed(walls, calibrations)),
        "attempted": len(commands),
        "failed": failed,
        "errors": errors,
    }


def avoids_ns_per_perm(seed: int, samples: int = 1000, repeats: int = 5) -> float:
    """Median time per ``is_avoider`` call over a seeded sample of S_9, all r."""
    from splitpat.perms import Permutation, is_avoider

    rng = random.Random(f"probe:{seed}")
    perms = []
    for _ in range(samples):
        values = list(range(1, 10))
        rng.shuffle(values)
        perms.append(Permutation(tuple(values)))
    calls = samples * 10
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for w in perms:
            for r in range(10):
                is_avoider(w, r)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / calls * 1e9


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--out", help="where the traced mode writes its spans")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args()

    commands = workloads.build(args.workload, args.seed, smoke=args.smoke)
    checker = checks.Checker(commands)
    if args.mode == "plain":
        result = replay(commands, checker)
        result["avoids_ns_per_perm"] = avoids_ns_per_perm(args.seed, samples=100 if args.smoke else 1000)
    else:
        tracer = Tracer()
        tracer.install()
        result = replay(commands, checker, tracer)
        by_name, result["metrics"] = tracer.summary()
        result["spans"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in by_name.items() if v[0]}
        result["span_count"] = len(tracer.start)
        if args.out:
            tracer.write(args.out, {"workload": args.workload, "seed": args.seed, "argv": [c.argv for c in commands]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
