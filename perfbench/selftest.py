"""Self-test of the benchmark: checkers, generators and a smoke run.

    python3 perfbench/selftest.py

Each checker must accept the real CLI output and reject a corrupted copy of
it (one wrong table cell, one invalid witness, one flipped verdict, and so
on).  The benchmark's own predicate is compared with the pattern
definition on every permutation of size <= 6, the check generators are
tested against that definition, and every workload runs end to end at tiny
sizes in both trace modes.  Exit code 0 means every test passed.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, permutations

import checks
import run
import workloads
from checks import PATTERN_23_1, PATTERN_3_12, Checker


def definition_contains(w: list[int], r: int, pattern) -> bool:
    """Containment straight from the definition: try every index triple."""
    return any(checks.valid_witness(w, r, pattern, list(idx)) for idx in combinations(range(1, len(w) + 1), 3))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_recurrence() -> None:
    expect(checks.expected_counts(checks.PUBLISHED) == checks.PUBLISHED, "recurrence misses a published cell")


def test_predicate() -> None:
    for n in range(7):
        for values in permutations(range(1, n + 1)):
            w = list(values)
            for r in range(n + 1):
                expect(checks.contains_3_12(w, r) == definition_contains(w, r, PATTERN_3_12), f"3|12 {w} r={r}")
                expect(checks.contains_23_1(w, r) == definition_contains(w, r, PATTERN_23_1), f"23|1 {w} r={r}")


def test_generators() -> None:
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 9)
        r = rng.randint(1, n - 1)
        w = workloads.make_avoider(rng, n, r)
        expect(sorted(w) == list(range(1, n + 1)), f"avoider {w} is no permutation")
        expect(not definition_contains(w, r, PATTERN_3_12) and not definition_contains(w, r, PATTERN_23_1), f"{w} r={r}")
        if n >= 4:
            w = workloads.make_perturbed(rng, n, r)
            expect(definition_contains(w, r, PATTERN_3_12) or definition_contains(w, r, PATTERN_23_1), f"{w} r={r}")
    for name in workloads.WORKLOADS:
        expect(workloads.build(name, 3) == workloads.build(name, 3), f"{name}: same seed, other inputs")
        scripts = {tuple(cmd.argv for cmd in workloads.build(name, seed)) for seed in range(10)}
        expect(len(scripts) > 1, f"{name} ignores the seed")


def _cli(bench: run.Bench, cmd: workloads.Command) -> tuple[int, str]:
    done = bench.python(["-m", "splitpat.cli", *cmd.argv])
    return done.rc, done.out


def _rejects(checker: Checker, cmd, rc: int, good: str, bad: str, what: str) -> None:
    expect(bad != good, f"{what}: corruption changed nothing")
    expect(checker.check(cmd, rc, bad) is not None, f"{what}: corrupted output accepted")


def test_checkers(bench: run.Bench) -> None:
    table_csv = workloads.Command(("table", "--n-max", "12"), "table_csv", {"n_max": 12})
    table_json = workloads.Command(("table", "--n-max", "12", "--format", "json"), "table_json", {"n_max": 12})
    count = workloads.Command(("count", "--r", "3", "--n", "30", "--method", "corollary"), "count", {"r": 3, "n": 30})
    enum = workloads.Command(("enumerate", "--r", "2", "--n", "6"), "enumerate", {"r": 2, "n": 6})
    verify = workloads.Command(("verify", "--target", "fibers", "--n-max", "5"), "verify", {"target": "fibers"})
    checker = Checker([table_csv, table_json, count, enum])
    outputs = {}
    for cmd in (table_csv, table_json, count, enum, verify):
        rc, out = _cli(bench, cmd)
        expect(checker.check(cmd, rc, out) is None, f"real output of {' '.join(cmd.argv)} rejected")
        outputs[cmd.kind] = (cmd, rc, out)

    cmd, rc, out = outputs["table_csv"]
    _rejects(checker, cmd, rc, out, out.replace("\n2,5,47\n", "\n2,5,48\n"), "CSV published cell")
    _rejects(checker, cmd, rc, out, out.replace("\n6,12,", "\n6,12,1"), "CSV cell beyond the published table")
    _rejects(checker, cmd, rc, out, out.replace("\n2,5,47\n", "\n"), "CSV missing row")
    cmd, rc, out = outputs["table_json"]
    _rejects(checker, cmd, rc, out, out.replace('"n": 11, "k": "', '"n": 11, "k": "9'), "JSON cell")
    csv_rows = outputs["table_csv"][2].splitlines()[1:]
    json_rows = [f"{row['r']},{row['n']},{row['k']}" for row in json.loads(out)]
    expect(csv_rows == json_rows, "CSV and JSON carry different rows")
    cmd, rc, out = outputs["count"]
    _rejects(checker, cmd, rc, out, str(int(out) + 1) + "\n", "count value")
    cmd, rc, out = outputs["enumerate"]
    lines = out.splitlines()
    _rejects(checker, cmd, rc, out, "\n".join(lines[1:]) + "\n", "enumerate missing member")
    _rejects(checker, cmd, rc, out, "\n".join([lines[1], lines[0]] + lines[2:]) + "\n", "enumerate order")
    intruder = next(
        text
        for text in map("".join, permutations("123456"))
        if text > lines[-2] and checks.contains_3_12([int(ch) for ch in text], 2)
    )
    _rejects(checker, cmd, rc, out, "\n".join(lines[:-1] + [intruder]) + "\n", "enumerate non-member")
    cmd, rc, out = outputs["verify"]
    _rejects(checker, cmd, rc, out, out.replace("5/5", "4/5"), "verify summary")
    _rejects(checker, cmd, rc, out, out.replace("PASS", "FAIL", 1), "verify FAIL line")
    expect(checker.check(cmd, 1, out) is not None, "verify exit code 1 accepted")

    rng = random.Random(11)
    avoider = workloads.make_avoider(rng, 40, 20)
    perturbed = workloads.make_perturbed(rng, 40, 20)
    for w in (avoider, perturbed):
        found = (checks.contains_3_12(w, 20), checks.contains_23_1(w, 20))
        cmd = workloads.Command(
            ("check", "--perm", ",".join(map(str, w)), "--r", "20"), "check", {"perm": w, "r": 20, "contains": found}
        )
        rc, out = _cli(bench, cmd)
        expect(checker.check(cmd, rc, out) is None, "real check output rejected")
        got = json.loads(out)
        flipped = dict(got, avoids=not got["avoids"], fiber_bundle=not got["avoids"])
        _rejects(checker, cmd, rc, out, json.dumps(flipped), "flipped verdict")
        expect(checker.check(cmd, 1 - rc, out) is not None, "flipped exit code accepted")
        for key, pattern in (("witness_3_12", PATTERN_3_12), ("witness_23_1", PATTERN_23_1)):
            idx = got[key]
            if idx is None:
                continue
            # Move one index so the positions still increase but no longer
            # realise the pattern at r.
            bad = next(
                cand
                for t in range(3)
                for c in range(1, len(w) + 1)
                for cand in [idx[:t] + [c] + idx[t + 1 :]]
                if all(a < b for a, b in zip(cand, cand[1:])) and not checks.valid_witness(w, 20, pattern, cand)
            )
            _rejects(checker, cmd, rc, out, json.dumps(dict(got, **{key: bad})), f"invalid {key}")
            _rejects(checker, cmd, rc, out, json.dumps(dict(got, **{key: None})), f"missing {key}")


def test_smoke() -> None:
    spec = run.load_spec()
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            # run() refuses metrics that differ from those BENCHMARK.json names.
            result = run.run(name, 5, 0, trace, smoke=True)
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result['errors']}")
            expect(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{name} trace={trace}: non-numeric metric",
            )


def main() -> int:
    failures = 0
    with run.Bench(run.ROOT) as bench:
        tests = [
            ("recurrence", test_recurrence),
            ("predicate", test_predicate),
            ("generators", test_generators),
            ("checkers", lambda: test_checkers(bench)),
            ("smoke", test_smoke),
        ]
        for name, test in tests:
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
