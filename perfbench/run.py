"""splitpat benchmark: seeded CLI workloads, checked outputs, timed end to end.

From the root of a checkout (the library is run from its own ``src``):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` runs the workload's command script through the real CLI, one
subprocess per command, in a closed loop with one client until the time is
used, checks every output and reports the end-to-end metrics, with times
scaled to a reference CPU speed (see README.md, Steadiness).  ``--trace 1``
replays the same script in process, once plain and once traced, each in a
fresh interpreter (see spans.py), and reports the per-layer metrics.  A
human-readable report goes first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Full results, with
the machine and source they were measured on, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import launcher
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_CALLS = 12
PROBE_CALLS = 5
HELP = workloads.Command(("--help",), "help")


@dataclass(frozen=True)
class Sample:
    """One finished command: wall time, exit code, output, max RSS, and the
    calibration loop's time measured just before it started."""

    wall_s: float
    rc: int
    out: str
    err: str
    maxrss_kib: int
    calibration_s: float


class Bench:
    """Runs commands of the checkout's own splitpat and keeps the tallies.

    Commands start from launcher.py so their max RSS is their own.  Leaving
    the ``with`` block ends the launcher and waits for it.
    """

    def __init__(self, root: Path) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        OUT_DIR.mkdir(exist_ok=True)
        self.out = OUT_DIR / f"command-{os.getpid()}.out"
        self.err = OUT_DIR / f"command-{os.getpid()}.err"
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(root / "perfbench" / "launcher.py")],
            cwd=root, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)
        self.launcher.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)

    def python(self, args: list[str]) -> Sample:
        """Run the interpreter on args and wait for it."""
        request = {"argv": [sys.executable, *args], "stdout": str(self.out), "stderr": str(self.err)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(line)
        return Sample(
            reply["wall_s"],
            reply["status"],
            self.out.read_text(encoding="utf-8"),
            self.err.read_text(encoding="utf-8"),
            reply["maxrss_kib"],
            reply["calibration_s"],
        )

    def cli(self, cmd: workloads.Command, checker: checks.Checker) -> Sample:
        """One checked CLI call."""
        sample = self.python(["-m", "splitpat.cli", *cmd.argv])
        reason = checker.check(cmd, sample.rc, sample.out)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.errors.append(f"{' '.join(cmd.argv)[:80]}: {reason} {sample.err.strip()[-200:]}")
        return sample


def end_to_end(bench: Bench, workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    commands = workloads.build(workload, seed, smoke=smoke)
    checker = checks.Checker(commands)
    bench.cli(HELP, checker)  # warm-up: compiles the bytecode, not timed
    timeline: list[Sample] = []  # every timed call, in the order run
    setup: list[int] = []  # indices into timeline
    runs: list[list[int]] = [[] for _ in commands]

    def timed(cmd: workloads.Command) -> int:
        timeline.append(bench.cli(cmd, checker))
        return len(timeline) - 1

    # The no-work calls are spread over the whole run, not bunched at its start.
    setup += [timed(HELP) for _ in range(3)]
    interval = seconds / SETUP_CALLS
    scripts: list[float] = []
    start = time.perf_counter()
    next_setup = start + interval
    while True:
        for cmd, indices in zip(commands, runs):
            indices.append(timed(cmd))
            if time.perf_counter() >= next_setup:
                setup.append(timed(HELP))
                next_setup += interval
        scripts.append(sum(timeline[indices[-1]].wall_s for indices in runs))
        # Closed loop: start another script if it should end no more than
        # half a script past the deadline, so runs measure about `seconds`.
        if time.perf_counter() - start + statistics.fmean(scripts) / 2 > seconds:
            break

    # A command's time is the median over its repetitions of its wall time
    # at reference speed.
    scaled = launcher.at_reference_speed([s.wall_s for s in timeline], [s.calibration_s for s in timeline])
    per_command = [statistics.median(scaled[i] for i in indices) for indices in runs]
    metrics = {
        "wall_s": sum(per_command),
        "setup_s": statistics.median(scaled[i] for i in setup),
        "peak_rss_mb": max(timeline[i].maxrss_kib for indices in runs for i in indices) / 1024,
        "query_p50_ms": statistics.median(per_command) * 1e3,
        "query_p90_ms": p90(per_command) * 1e3,
        "queries_per_s": len(per_command) / sum(per_command),
    }
    detail = {
        "repetitions": len(scripts),
        "raw_script_walls_s": scripts,
        "raw_setup_s": [timeline[i].wall_s for i in setup],
        "calibration_ms": [s.calibration_s * 1e3 for s in timeline],
        "per_command_ms": [t * 1e3 for t in per_command],
        "raw_ms": [[timeline[i].wall_s * 1e3 for i in indices] for indices in runs],
        "scaled_ms": [[scaled[i] * 1e3 for i in indices] for indices in runs],
    }
    return metrics, detail


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def replay(bench: Bench, workload: str, seed: int, mode: str, smoke: bool) -> dict:
    """Run spans.py in a fresh interpreter and return its JSON result."""
    args = [str(ROOT / "perfbench" / "spans.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        args += ["--out", str(OUT_DIR / f"spans-{workload}.jsonl")]
    if smoke:
        args.append("--smoke")
    done = bench.python(args)
    if done.rc != 0:
        raise RuntimeError(f"spans.py --mode {mode} failed (exit {done.rc}):\n{done.err}")
    result = json.loads(done.out.splitlines()[-1])
    bench.attempted += result["attempted"]
    bench.failed += result["failed"]
    bench.errors.extend(result["errors"])
    return result


def per_layer(bench: Bench, workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    bench.cli(HELP, checks.Checker([]))  # warm-up: compiles the bytecode, not timed
    calls = 2 if smoke else PROBE_CALLS
    interp = [bench.python(["-c", "pass"]).wall_s for _ in range(calls)]
    imports = []
    for _ in range(calls):
        done = bench.python(
            ["-c", "import time; t = time.perf_counter(); import splitpat.cli; print(time.perf_counter() - t)"]
        )
        if done.rc != 0:
            raise RuntimeError(f"cannot import splitpat.cli:\n{done.err}")
        imports.append(float(done.out))
    plain = replay(bench, workload, seed, "plain", smoke)
    traced = replay(bench, workload, seed, "traced", smoke)
    metrics = dict(traced["metrics"])
    metrics.update(
        {
            "perms.avoids_ns_per_perm": plain["avoids_ns_per_perm"],
            "cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports),
            "trace.inproc_wall_s": plain["scaled_wall_s"],
            "trace.overhead_s": traced["scaled_wall_s"] - plain["scaled_wall_s"],
        }
    )
    return metrics, {
        "spans": traced["spans"],
        "span_count": traced["span_count"],
        "raw_plain_wall_s": plain["wall_s"],
        "raw_traced_wall_s": traced["wall_s"],
    }


def machine(root: Path) -> dict:
    """What the numbers were measured on and which source produced them."""
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and each metric with its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run of one workload; the result dict written to disk."""
    spec = load_spec()
    with Bench(ROOT) as bench:
        if trace:
            metrics, extra = per_layer(bench, workload, seed, smoke)
        else:
            metrics, extra = end_to_end(bench, workload, seed, seconds, smoke)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics and BENCHMARK.json differ: {sorted(set(metrics) ^ set(units))}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "machine": machine(ROOT),
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "fail_ratio": bench.failed / bench.attempted,
        "errors": bench.errors[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "detail": extra,
    }


def report(result: dict) -> None:
    """Human-readable lines: each metric with its unit, then the samples behind
    them with median, p90 and count."""
    m = result["machine"]
    print(
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"commit={m['commit']} src={m['src_sha256'][:12]} python={m['python']} nproc={m['nproc']} cpu={m['cpu']!r}"
    )
    print(f"   why: {result['why']}")
    print(f"   fail_ratio = {result['failed']}/{result['attempted']} = {result['fail_ratio']:.4g}")
    for line in result["errors"]:
        print(f"   FAILED {line}")
    if result["trace"] == 0:
        for name, metric in result["metrics"].items():
            print(f"   {name:<16} {metric['value']:>12.4f} {metric['unit']}")
        d = result["detail"]
        every = [t for samples in d["raw_ms"] for t in samples]
        for label, values, unit in (
            ("raw script wall", d["raw_script_walls_s"], "s"),
            ("raw setup call", d["raw_setup_s"], "s"),
            ("raw command", every, "ms"),
            ("calibration loop", d["calibration_ms"], "ms"),
            ("scaled command, median of repetitions", d["per_command_ms"], "ms"),
        ):
            print(f"   {label}: median {statistics.median(values):.4g} {unit}, p90 {p90(values):.4g} {unit}, n={len(values)}")
    else:
        layers = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("layer.")}
        total = sum(layers.values()) or 1.0
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("   self time by layer: " + ", ".join(f"{k.split('.')[1]} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in ranked))
        for name, metric in result["metrics"].items():
            print(f"   {name:<42} {metric['value']:>14.6g} {metric['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="splitpat benchmark")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "splitpat" / "cli.py").is_file():
        print(f"perfbench: no splitpat source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run(name, args.seed, args.seconds, args.trace)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
        report(result)
        results.append(result)
    prefix = len(results) > 1
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    (f"{r['workload']}.{k}" if prefix else k): v for r in results for k, v in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
