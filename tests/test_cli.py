import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import splitpat.cli
import splitpat.counting
import splitpat.series
import splitpat.verify
from splitpat import (
    BadInputError,
    BivariateSeries,
    CountTable,
    Permutation,
    contains_split,
    is_avoider,
)
from splitpat.cli import main
from splitpat.counting import SearchLimitError, enumerate_avoiders
from splitpat.perms import _format_values
from splitpat.verify import TARGETS, run_target
import manifest
from support import PATTERNS, TABLE1, assert_valid_witness, filtered_class

GOLDEN = Path(__file__).parent / "golden"
NAMED_SERIES = (
    "exp_sum_series",
    "bessel_i0_series",
    "binomial_egf_series",
    "geometric_series",
    "one_minus_x_minus_y_plus_xy",
    "integrated_binomial_egf",
    "count_egf",
    "excess_ogf",
)
# The suite each single verify target runs, and the size argument of the
# suites that take one.
SUITE_OF_TARGET = {
    "oracle": "oracle_checks",
    "fibers": "structure_checks",
    "symmetry": "symmetry_checks",
    "recursion": "recursion_checks",
    "bessel": "bessel_checks",
    "main2": "main2_checks",
}
SIZED_SUITES = {"oracle_checks": "n_max", "structure_checks": "n_max", "symmetry_checks": "order"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak_kib(fn, *args):
    """The peak of Python's own allocations while ``fn(*args)`` runs, in KiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def swap_member(out, into, at):
    """A corruption of ``_avoids`` that takes ``out`` from the class at
    r = ``at`` and puts ``into`` in its place, so the class keeps its size."""
    return lambda original: lambda w, r: w == into if r == at and w in (out, into) else original(w, r)


class DiscardingStdout:
    """A stdout with no binary layer that drops what it is given."""

    def writelines(self, pieces):
        pass

    def flush(self):
        pass


def assert_closed_reader_exits_quietly(argv, head):
    """Run the command, read ``head`` off its stdout and close the pipe: it
    must exit 1 with nothing on stderr, with stdout buffered and unbuffered
    alike (unbuffered, the text layer would drop a partial raw write)."""
    src = str(Path(splitpat.cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with subprocess.Popen(
            [sys.executable, "-m", "splitpat.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**base, "PYTHONPATH": src, **unbuffered},
        ) as proc:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b""), unbuffered


class TestTable:
    def test_n_max_1(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "1")
        assert code == 0
        assert out.splitlines() == ["r,n,k", "0,1,1", "1,1,1"]

    def test_published_table(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "9", "--r-max", "4", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 39
        got = {}
        for row in rows:
            r, n, k = (int(part) for part in row.split(","))
            got[(r, n)] = k
        assert got == TABLE1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert {"r": 2, "n": 2, "k": "2"} in data

    @pytest.mark.parametrize("n_max", ["0", "101", "-3"])
    def test_rejects_bad_n_max(self, capsys, n_max):
        code, out, err = run(capsys, "table", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bad_r_max_is_refused_before_the_table_is_built(self, capsys, monkeypatch):
        def rows(n_max, r_max):
            raise AssertionError("the table's columns were started before --r-max was checked")

        monkeypatch.setattr(splitpat.counting, "_count_rows", rows)
        code, out, err = run(capsys, "table", "--n-max", "100", "--r-max", "-1")
        assert (code, out) == (2, "")
        assert err == "splitpat: error: --r-max must be an int >= 0, got -1\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_streams_its_rows(self, monkeypatch, fmt):
        # The text is about 460 KB as CSV and 580 KB as JSON; a dict of the
        # table and the whole text peaked at 2.8 and 5.8 MB.  Streamed, the
        # peak is one chunk of text and a column per n.  A first, small
        # table runs before the measure, so argparse's one-time setup is
        # not counted.
        monkeypatch.setattr(sys, "stdout", DiscardingStdout())
        assert main(["table", "--n-max", "1", "--format", fmt]) == 0
        assert traced_peak_kib(main, ["table", "--n-max", "100", "--format", fmt]) < 512

    def test_unknown_format_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "--n-max", "3", "--format", "lines")
        assert code == 2

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--n-max", "7")
        _, second, _ = run(capsys, "table", "--n-max", "7")
        assert first == second

    def test_closed_stdout_is_not_a_fault(self):
        # The table (about 460 KB as CSV, 580 KB as JSON) overfills the
        # pipe, so the write meets the closed reader.
        assert_closed_reader_exits_quietly(("table", "--n-max", "100"), b"r,n,k\n")
        assert_closed_reader_exits_quietly(
            ("table", "--n-max", "100", "--format", "json"), b'[{"r": 0, "n": 1, "k": "1"}'
        )


class TestCount:
    @pytest.mark.parametrize("method", ["formula", "corollary", "brute"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "--r", "2", "--n", "5", "--method", method)
        assert code == 0
        assert out == "47\n"

    def test_default_method(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "0", "--n", "6")
        assert code == 0
        assert out == "720\n"

    def test_brute_guard_exceeded(self, capsys):
        code, out, err = run(capsys, "count", "--r", "0", "--n", "11", "--method", "brute")
        assert code == 3
        assert out == ""
        assert "guard" in err

    def test_guard_refusal_names_the_option_not_a_sweep(self, capsys):
        # brute_count sweeps each block's orderings, never S_11 itself.
        code, out, err = run(capsys, "count", "--r", "5", "--n", "11", "--method", "brute")
        assert (code, out) == (3, "")
        assert "--unsafe-n-max" in err and "S_11" not in err
        assert err == (
            "splitpat: error: size 11 exceeds the exhaustive-search guard (10); "
            "raise it with --unsafe-n-max to proceed\n"
        )

    def test_unsafe_n_max_lowers_and_raises_the_guard(self, capsys):
        code, _, _ = run(
            capsys, "count", "--r", "1", "--n", "4", "--method", "brute", "--unsafe-n-max", "3"
        )
        assert code == 3
        code, out, _ = run(
            capsys, "count", "--r", "1", "--n", "4", "--method", "brute", "--unsafe-n-max", "4"
        )
        assert code == 0
        assert out == "16\n"

    def test_corollary_covers_r_zero(self, capsys):
        # The peeling telescope leaves n! at r = 0, and 1 at (0, 0).
        assert run(capsys, "count", "--r", "0", "--n", "5", "--method", "corollary") == (0, "120\n", "")
        assert run(capsys, "count", "--r", "0", "--n", "0", "--method", "corollary") == (0, "1\n", "")

    def test_r_out_of_range(self, capsys):
        code, _, _ = run(capsys, "count", "--r", "5", "--n", "3")
        assert code == 2

    def test_prints_counts_past_the_int_str_digit_cap(self, capsys, monkeypatch):
        # CPython caps str(int) at 4300 digits by default; a count that long
        # must still print in full, and the cap must stay as it was.
        digits = "9" + "".join(f"{i:04d}" for i in range(1250))
        value = 0
        for start in range(0, len(digits), 100):
            chunk = digits[start : start + 100]
            value = value * 10 ** len(chunk) + int(chunk)
        monkeypatch.setattr(splitpat.counting, "_count_column", lambda s, r_max: iter([value]))
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "count", "--r", "1", "--n", "2")
        assert (code, err) == (0, "")
        assert out == digits + "\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap

    def test_middle_cell_past_the_digit_cap(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "900", "--n", "1800")
        assert code == 0
        assert len(out) == 4542 and out[:-1].isdigit() and out.endswith("\n")


def _argv_id(argv):
    # A permutation of size 10^4 is named by its first and last values.
    return " ".join(arg if len(arg) <= 40 else f"{arg[:15]}...{arg[-15:]}" for arg in argv)


@pytest.mark.parametrize(
    "pin", [pin for pin in manifest.read() if pin.timeout is None], ids=lambda pin: _argv_id(pin.argv)
)
def test_pinned_output_bytes(capsys, pin):
    code, out, _ = run(capsys, *pin.argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (pin.code, pin.sha256)


class TestCheck:
    def test_contained_pattern(self, capsys):
        code, out, _ = run(capsys, "check", "--perm", "315642", "--r", "3")
        assert code == 1
        data = json.loads(out)
        assert data == {
            "avoids": False,
            "fiber_bundle": False,
            "witness_3_12": None,
            "witness_23_1": [1, 3, 6],
        }

    def test_identity_avoids(self, capsys):
        code, out, _ = run(capsys, "check", "--perm", "123456", "--r", "3")
        assert code == 0
        data = json.loads(out)
        assert data["avoids"] is True
        assert data["fiber_bundle"] is True
        assert data["witness_3_12"] is None
        assert data["witness_23_1"] is None

    def test_312_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--perm", "312", "--r", "1")
        assert code == 1
        assert json.loads(out)["witness_3_12"] == [1, 2, 3]

    def test_comma_form_accepted(self, capsys):
        # w(1) = 1 leaves nothing smaller on the right, so r = 1 avoids.
        code, out, _ = run(capsys, "check", "--perm", "1,10,9,8,7,6,5,4,3,2", "--r", "1")
        assert code == 0
        assert json.loads(out)["avoids"] is True

    def test_malformed_permutation(self, capsys):
        code, out, err = run(capsys, "check", "--perm", "11", "--r", "0")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_r_out_of_range(self, capsys):
        code, _, _ = run(capsys, "check", "--perm", "312", "--r", "4")
        assert code == 2

    def test_field_past_the_int_digit_cap(self, capsys):
        # int() refuses a string of more than 4300 digits by default.
        code, out, err = run(capsys, "check", "--perm", "1" * 5000 + ",1", "--r", "0")
        assert (code, out) == (2, "")
        assert "bad permutation text" in err

    def test_line_is_what_json_dumps_prints(self, capsys):
        # check writes its object without json.  Every (w, r) with n <= 4
        # covers each witness shape: neither, 3|12 only, 23|1 only and both
        # (2413 at r = 2).
        shapes = set()
        for n in range(5):
            for values in permutations(range(1, n + 1)):
                for r in range(n + 1):
                    witness_3_12, witness_23_1 = contains_split(Permutation(values), r)
                    avoids = witness_3_12 is None and witness_23_1 is None
                    verdict = {
                        "avoids": avoids,
                        "fiber_bundle": avoids,
                        "witness_3_12": None if witness_3_12 is None else list(witness_3_12),
                        "witness_23_1": None if witness_23_1 is None else list(witness_23_1),
                    }
                    expected = (0 if avoids else 1, json.dumps(verdict) + "\n", "")
                    assert run(capsys, "check", "--perm", _format_values(values), "--r", str(r)) == expected
                    shapes.add((witness_3_12 is None, witness_23_1 is None))
        assert len(shapes) == 4


def _avoider_and_contained(n, r, seed):
    """A random avoider at r of size n, built by sorting the two forced runs
    (right values below the left maximum, left values above the right
    minimum) into decreasing order, and a copy in which swapping two
    adjacent members of the longer run creates an ascent, hence a pattern."""
    rng = random.Random(seed)
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    top, bottom = max(vals[:r]), min(vals[r:])
    runs = [
        [p for p in range(r, n) if vals[p] < top],
        [p for p in range(r) if vals[p] > bottom],
    ]
    for run in runs:
        for p, v in zip(run, sorted((vals[p] for p in run), reverse=True)):
            vals[p] = v
    contained = list(vals)
    run = max(runs, key=len)
    a, b = run[len(run) // 2], run[len(run) // 2 + 1]
    contained[a], contained[b] = contained[b], contained[a]
    return Permutation(vals), Permutation(contained)


class TestCheckFromStdin:
    """``--perm -`` reads the permutation text from stdin, so it is not
    bounded by the operating system's limit on one argv string."""

    def run_stdin(self, capsys, monkeypatch, stdin, *argv):
        monkeypatch.setattr(sys, "stdin", stdin)
        return run(capsys, "check", "--perm", "-", *argv)

    def test_large_avoider_and_non_avoider(self, capsys, monkeypatch):
        n, r = 10**5, 50_000
        avoider, contained = _avoider_and_contained(n, r, seed=8)
        assert is_avoider(avoider, r) and not is_avoider(contained, r)
        for w, expected in ((avoider, 0), (contained, 1)):
            text = ",".join(map(str, w.values)) + "\n"
            code, out, err = self.run_stdin(capsys, monkeypatch, io.StringIO(text), "--r", str(r))
            assert (code, err) == (expected, "")
            data = json.loads(out)
            assert data["avoids"] is data["fiber_bundle"] is (expected == 0)
            witnesses = [data["witness_3_12"], data["witness_23_1"]]
            for pattern, indices in zip(PATTERNS, witnesses):
                if indices is not None:
                    assert_valid_witness(w, pattern, r, tuple(indices))

    def test_same_output_as_argv(self, capsys, monkeypatch):
        expected = run(capsys, "check", "--perm", "315642", "--r", "3")
        assert self.run_stdin(capsys, monkeypatch, io.StringIO("315642\n"), "--r", "3") == expected

    @pytest.mark.parametrize(
        "data, errors",
        [
            (b"3,1,\xff2", "strict"),
            (b"3,1,\xff2", "surrogateescape"),
            ("\uff13\uff11\uff12".encode(), "strict"),  # fullwidth 312
            ("\uff13,\uff11,\uff12".encode(), "strict"),
        ],
        ids=["undecodable", "undecodable-escaped", "fullwidth-compact", "fullwidth-commas"],
    )
    def test_rejects_text_that_is_not_ascii_digits(self, capsys, monkeypatch, data, errors):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        code, out, err = self.run_stdin(capsys, monkeypatch, stdin, "--r", "1")
        assert (code, out) == (2, "")
        assert err.startswith("splitpat: error: bad permutation text")

    def test_closed_stdin(self, capsys, monkeypatch):
        code, out, err = self.run_stdin(capsys, monkeypatch, None, "--r", "0")
        assert (code, out) == (2, "")
        assert err.startswith("splitpat: error: bad permutation text")

    @pytest.mark.parametrize("flaw", ["x", "1"], ids=["not-a-digit", "repeated-value"])
    def test_large_bad_input_gets_a_short_message(self, capsys, monkeypatch, flaw):
        text = ",".join(map(str, range(1, 10**5 + 1))) + "," + flaw
        code, out, err = self.run_stdin(capsys, monkeypatch, io.StringIO(text), "--r", "1")
        assert (code, out) == (2, "")
        assert err.startswith("splitpat: error: ") and len(err) < 200

    def test_undecodable_bytes_through_a_real_stdin(self):
        src = str(Path(splitpat.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "splitpat.cli", "check", "--perm", "-", "--r", "1"],
            input=b"3,1,\xff2\n",
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"splitpat: error: bad permutation text")


class TestEnumerate:
    def test_small_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--r", "1", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["123", "132", "213", "231", "321"]

    def test_position_zero(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--r", "0", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["12", "21"]

    def test_line_count_matches_table(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--r", "2", "--n", "4")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--r", "1", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["123", "132", "213", "231", "321"]

    def test_guard(self, capsys):
        code, out, err = run(capsys, "enumerate", "--r", "0", "--n", "12")
        assert (code, out) == (3, "")
        assert err == (
            "splitpat: error: size 12 exceeds the exhaustive-search guard (10); "
            "raise it with --unsafe-n-max to proceed\n"
        )

    # Each refused command line, with its exit code and its message; n is
    # checked before r, and both before the guard.
    REFUSALS = {
        "--r 1 --n -1": (2, "--n must be an int >= 0, got -1"),
        "--r 4 --n 3": (2, "--r must be an int in 0..3, got 4"),
        "--r 12 --n 11": (2, "--r must be an int in 0..11, got 12"),
        "--r 1 --n 3 --unsafe-n-max -1": (2, "--unsafe-n-max must be an int >= 0, got -1"),
        "--r 5 --n 11 --unsafe-n-max -1": (2, "--unsafe-n-max must be an int >= 0, got -1"),
        "--r -1 --n -1 --unsafe-n-max -1": (2, "--n must be an int >= 0, got -1"),
        "--r 5 --n 11": (
            3,
            "size 11 exceeds the exhaustive-search guard (10); raise it with --unsafe-n-max to proceed",
        ),
    }

    @pytest.mark.parametrize("argv", list(REFUSALS))
    def test_refusals(self, capsys, argv):
        code, message = self.REFUSALS[argv]
        assert run(capsys, "enumerate", *argv.split()) == (code, "", f"splitpat: error: {message}\n")

    def test_output_equals_the_full_sweep(self, capsys):
        # Both formats, byte for byte, against the S_n filter's members.
        for n in range(7):
            for r in range(n + 1):
                members = ["".join(map(str, w)) for w in filtered_class(r, n)]
                args = ("enumerate", "--r", str(r), "--n", str(n))
                assert run(capsys, *args) == (0, "".join(m + "\n" for m in members), ""), (r, n)
                assert run(capsys, *args, "--format", "json") == (0, json.dumps(members) + "\n", ""), (r, n)

    @pytest.mark.parametrize(
        "r, n", [(r, n) for n in range(9) for r in range(n + 1)] + [(5, 10)], ids=lambda v: str(v)
    )
    def test_block_text_equals_the_member_text(self, capsys, r, n):
        # The text built block by block against each member formatted whole,
        # at n = 10 too, where the values are separated by commas.
        members = [_format_values(w.values) for w in enumerate_avoiders(r, n)]
        args = ("enumerate", "--r", str(r), "--n", str(n))
        assert run(capsys, *args) == (0, "".join(m + "\n" for m in members), "")
        assert run(capsys, *args, "--format", "json") == (0, json.dumps(members) + "\n", "")

    @pytest.mark.parametrize("fmt", ["lines", "json"])
    def test_class_is_written_in_pieces(self, monkeypatch, fmt):
        # The class at (5, 10), about 800 KB, goes out in pieces of about
        # 64 KB plus one run: a head's members, at most 5! = 120 here, each
        # at most 20 characters, two quotes and a separator.
        pieces = []
        monkeypatch.setattr(splitpat.cli, "_write_all", lambda *text: pieces.extend(text))
        assert main(["enumerate", "--r", "5", "--n", "10", "--format", fmt]) == 0
        members = [_format_values(w.values) for w in enumerate_avoiders(5, 10)]
        assert "".join(pieces) == ("".join(m + "\n" for m in members) if fmt == "lines" else json.dumps(members) + "\n")
        assert len(pieces) > 2 and max(map(len, pieces)) < (1 << 16) + 120 * 24

    def test_closed_stdout_is_not_a_fault(self):
        # The class at (5, 10) (about 800 KB) is written in chunks, and the
        # closed reader meets one of them, as under ``| head -c 20``.
        assert_closed_reader_exits_quietly(("enumerate", "--r", "5", "--n", "10"), b"1,2,3,4,5,6,7,8,9,10")


class TestVerify:
    def test_recursion_target(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "recursion", "--order", "6")
        assert code == 0
        assert "PASS" in out
        assert "summary: 1/1 checks passed" in out

    def test_bessel_target(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "bessel", "--order", "4")
        assert code == 0
        assert "summary: 2/2 checks passed" in out

    def test_main2_target_documents_residual(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "main2", "--order", "4")
        assert code == 0
        assert "residual(0,0) = 1" in out

    def test_oracle_target(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "oracle", "--n-max", "5", "--order", "4")
        assert code == 0
        assert "n=5" in out

    def test_fibers_target(self, capsys):
        code, out, _ = run(capsys, "verify", "--target", "fibers", "--n-max", "5")
        assert code == 0
        assert "fiber" in out

    def test_json_summary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--target", "main2", "--order", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert data["boundary_residual"]["nx"] == 4
        assert data["boundary_residual"]["coeffs"][0][0] == ["1", "1"]
        assert all(check["passed"] for check in data["checks"])

    def test_unknown_target(self, capsys):
        code, _, _ = run(capsys, "verify", "--target", "nonsense")
        assert code == 2

    def test_order_too_small(self, capsys):
        code, _, err = run(capsys, "verify", "--target", "bessel", "--order", "1")
        assert code == 2
        assert "order" in err

    def test_guard_exceeded(self, capsys):
        code, _, _ = run(capsys, "verify", "--target", "oracle", "--n-max", "11", "--order", "4")
        assert code == 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "target", ["oracle", "fibers", "symmetry", "recursion", "bessel", "main2", "all"]
    )
    def test_golden_output(self, capsys, target, fmt):
        argv = ["verify", "--target", target, "--order", "4", "--n-max", "4", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"verify-{target}.{fmt}").read_bytes()

    @pytest.mark.parametrize(
        "target, unused", [("main2", "exp_sum_series"), ("bessel", "divide_by_unit")]
    )
    def test_target_builds_only_its_series(self, monkeypatch, target, unused):
        def refuse(*args, **kwargs):
            raise AssertionError(f"target {target} called {unused}")

        for module in (splitpat.series, splitpat.verify):
            if hasattr(module, unused):
                monkeypatch.setattr(module, unused, refuse)
        checks, _ = run_target(target, order=4)
        assert checks and all(c.passed for c in checks)

    @pytest.mark.parametrize(
        "target, order, n_max",
        [
            ("oracle", 12, -1),
            ("oracle", 12, 0),
            ("fibers", 12, 2.0),
            ("bessel", 1, 7),
            ("main2", 3.0, 7),
            ("symmetry", True, 7),
            ("recursion", 12, True),
        ],
    )
    def test_run_target_refuses_what_the_cli_refuses(self, target, order, n_max):
        with pytest.raises(ValueError):
            run_target(target, order=order, n_max=n_max)

    @pytest.mark.parametrize("target", ["oracle", "bessel"])
    @pytest.mark.parametrize("limit", [-1, True, 2.0])
    def test_run_target_refuses_a_malformed_guard(self, target, limit):
        with pytest.raises(BadInputError, match="limit must be an int"):
            run_target(target, order=4, n_max=4, limit=limit)

    def test_symmetry_suite_flags_an_asymmetric_series_and_count(self, monkeypatch):
        real_count_egf = splitpat.series.count_egf
        monkeypatch.setattr(
            splitpat.series,
            "count_egf",
            lambda order: real_count_egf(order) + BivariateSeries.from_fn(lambda r, s: r, order),
        )
        # excess_ogf reads count_egf through the same binding; kept on the
        # real count, it leaves count_egf the only asymmetric series.
        monkeypatch.setattr(
            splitpat.series,
            "excess_ogf",
            lambda order: real_count_egf(order) - splitpat.series.geometric_series(order),
        )
        checks = {c.key: c for c in splitpat.verify.symmetry_checks(4)}
        assert [k for k, c in checks.items() if not c.passed] == ["series-symmetry"]
        assert checks["series-symmetry"].detail == "asymmetric: count_egf"

        monkeypatch.undo()
        real_table = splitpat.counting.build_count_table

        def corrupted_table(n_max):
            entries = dict(real_table(n_max).entries)
            entries[(2, 5)] += 1
            return CountTable(entries)

        monkeypatch.setattr(splitpat.counting, "build_count_table", corrupted_table)
        checks = splitpat.verify.symmetry_checks(4)
        assert [c.key for c in checks if not c.passed] == ["count-symmetry"]

    def test_oracle_flags_a_corrupted_closed_form(self, monkeypatch):
        closed_form = splitpat.counting.avoider_count

        def off_by_one_at_2_5(r, n):
            return closed_form(r, n) + ((r, n) == (2, 5))

        monkeypatch.setattr(splitpat.counting, "avoider_count", off_by_one_at_2_5)
        checks = splitpat.verify.oracle_checks(6)
        assert [c.passed for c in checks] == [True] * 5 + [False, True]
        assert checks[5].detail == "disagreement at r=2: [47, 48]"

    def test_oracle_flags_a_corrupted_peeling_count_at_r_zero(self, monkeypatch):
        peeling = splitpat.counting.avoider_count_by_peeling
        monkeypatch.setattr(
            splitpat.counting,
            "avoider_count_by_peeling",
            lambda r, n: peeling(r, n) + ((r, n) == (0, 3)),
        )
        checks = splitpat.verify.oracle_checks(4)
        assert [c.passed for c in checks] == [True] * 3 + [False, True]
        assert checks[3].detail == "disagreement at r=0: [6, 7]"

    @pytest.mark.parametrize(
        "name, corrupt, failures",
        [
            (
                "max_left_avoider_count",
                lambda original: lambda r, n: original(r, n) + (r == 2),
                {"split": "split sizes wrong at (r,n)=(2,2)"},
            ),
            (
                "_rotate180",
                lambda original: lambda w: w if len(w) >= 4 else original(w),
                {"rotate": "rotation image wrong at (r,n)=(1,4)"},
            ),
            (
                # Both max-right at (1,4); the fiber over (1,2,3) loses one
                # and (3,1,2), outside the class at (1,3), gains one.  The
                # sizes hold, so split passes.
                "_avoids",
                swap_member((1, 2, 3, 4), (3, 1, 2, 4), 1),
                {
                    "fibers": "fiber sizes wrong at (r,n)=(1,4)",
                    "rotate": "rotation image wrong at (r,n)=(1,4)",
                },
            ),
            (
                # An image outside S_n fails its fact, never raises.
                "_rotate180",
                lambda original: lambda w: w + (0,) if len(w) >= 4 else original(w),
                {"rotate": "rotation image wrong at (r,n)=(0,4)"},
            ),
            (
                # Both max-left at (2,4) and each its own rotation; peeling
                # (3,4,1,2) gives (3,1,2), outside the class at (1,3), and the
                # changed class at (2,4) is the fiber base of (2,5).
                "_avoids",
                swap_member((4, 2, 3, 1), (3, 4, 1, 2), 2),
                {
                    "fibers": "fiber sizes wrong at (r,n)=(2,5)",
                    "peel-left": "max-left peel leaves the class at (r,n)=(2,4)",
                },
            ),
            (
                "perm",
                lambda original: lambda *args: 0,
                {"partition": "partition sizes wrong at (r,n)=(1,2)"},
            ),
            (
                "_avoids",
                lambda original: lambda w, r: original(w, r) and (w, r) != ((2, 1, 3, 5, 4), 2),
                {
                    "split": "split sizes wrong at (r,n)=(2,5)",
                    "fibers": "fiber sizes wrong at (r,n)=(2,5)",
                    "rotate": "rotation image wrong at (r,n)=(2,5)",
                },
            ),
            (
                # (1,2,3,5,4) sits in the class at (3,5), past n/2; dropping
                # it leaves its rotation (2,1,3,4,5) at (2,5) without a
                # preimage, and rotation is checked from the pair's smaller r.
                "_avoids",
                lambda original: lambda w, r: original(w, r) and (w, r) != ((1, 2, 3, 5, 4), 3),
                {
                    "split": "split sizes wrong at (r,n)=(3,5)",
                    "fibers": "fiber sizes wrong at (r,n)=(3,5)",
                    "peel-left": "max-left peel leaves the class at (r,n)=(4,6)",
                    "rotate": "rotation image wrong at (r,n)=(2,5)",
                },
            ),
            (
                # At r = n/2 the class is its own rotation partner: (1,2,4,3)
                # gone from (2,4) leaves (2,1,3,4) there with no preimage.
                "_avoids",
                lambda original: lambda w, r: original(w, r) and (w, r) != ((1, 2, 4, 3), 2),
                {
                    "split": "split sizes wrong at (r,n)=(2,4)",
                    "fibers": "fiber sizes wrong at (r,n)=(2,4)",
                    "peel-left": "max-left peel leaves the class at (r,n)=(3,5)",
                    "rotate": "rotation image wrong at (r,n)=(2,4)",
                },
            ),
        ],
        ids=["split", "rotate", "swap-fibers-and-rotate", "rotate-off-S_n", "swap-peel-left-and-fibers", "partition", "sweep", "sweep-above-half", "sweep-at-half"],
    )
    def test_structure_suite_names_the_first_failing_cell(
        self, monkeypatch, name, corrupt, failures
    ):
        # Each corruption breaks its facts from some size on; the detail
        # names the first failing (r, n), n then r, and the other facts pass.
        # The suite reads the counts through counting, the rest through its
        # own names.
        module = splitpat.counting if name in splitpat.counting.__all__ else splitpat.verify
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
        checks = splitpat.verify.structure_checks(6)
        assert [c.key for c in checks] == ["split", "fibers", "peel-left", "partition", "rotate"]
        assert {c.key: c.detail for c in checks if not c.passed} == failures
        assert all(c.detail == "" for c in checks if c.passed)

    def test_structure_suite_maps_each_permutation_once_per_size(self, monkeypatch):
        # The predicate still sees every (w, r) with w in S_n, 1 <= n <= 5,
        # rotation runs once per permutation, and the builder never.  The
        # remove-max image is read off the index, so no map computes it.
        assert not hasattr(splitpat.verify, "_remove_max")
        assert not hasattr(splitpat.verify, "permutations")
        calls = Counter()

        def counted(name):
            original = getattr(splitpat.verify, name)

            def wrapper(*args):
                calls[name, len(args[0])] += 1
                return original(*args)

            return wrapper

        def forbidden(*args):
            raise AssertionError("the structure suite read the class builder")

        for name in ("_avoids", "_rotate180"):
            monkeypatch.setattr(splitpat.verify, name, counted(name))
        monkeypatch.setattr(splitpat.counting, "_chain_orderings", forbidden)
        assert all(c.passed for c in splitpat.verify.structure_checks(5))
        for n, size in enumerate([1, 2, 6, 24, 120], start=1):
            assert calls["_avoids", n] == (n + 1) * size, n
            assert calls["_rotate180", n] == size, n

    def test_structure_suite_holds_no_class_sized_set(self):
        # Bitmap classes over S_7 with S_6's tuples take about 0.5 MB; S_7's
        # tuples and its rank dict took 1.2-1.4 MB, and a bool list per r
        # and two sets per rotation pair 2.7 MB.
        assert traced_peak_kib(splitpat.verify.structure_checks, 7) < 1024

    def test_rank_of_each_permutation_is_its_index(self):
        # S_n built by inserting n into S_{n-1}, as the structure suite
        # builds it; an image off S_n ranks -1.
        perms = [()]
        for n in range(1, 8):
            first_child = dict(zip(perms, range(0, len(perms) * n, n)))
            perms = [u[:p] + (n,) + u[p:] for u in perms for p in range(n)]
            assert [splitpat.verify._rank(w, n, first_child) for w in perms] == list(range(len(perms))), n
            for off in [(), perms[0][1:], perms[0] + (0,), (n,) * (n + 1), tuple(range(n))]:
                assert splitpat.verify._rank(off, n, first_child) == -1, (n, off)

    @pytest.mark.parametrize("suite", ["oracle_checks", "structure_checks"])
    def test_exhaustive_suite_refuses_before_sweeping(self, monkeypatch, suite):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{suite} swept below the guard")

        monkeypatch.setattr(splitpat.counting, "brute_count", refuse)
        monkeypatch.setattr(splitpat.verify, "_avoids", refuse)
        with pytest.raises(SearchLimitError):
            getattr(splitpat.verify, suite)(4, limit=3)

    @pytest.mark.parametrize(
        "suite, argument, size",
        [
            *((suite, argument, size) for suite, argument in SIZED_SUITES.items() for size in (-1, 2.0, True)),
            ("structure_checks", "n_max", 0),
        ],
    )
    def test_suite_refuses_a_size_it_cannot_check(self, suite, argument, size):
        with pytest.raises(BadInputError, match=f"^{argument} must be an int") as caught:
            getattr(splitpat.verify, suite)(size)
        assert caught.value.argument == argument

    @pytest.mark.parametrize("target", SUITE_OF_TARGET)
    def test_rebound_suite_reaches_its_target_and_all(self, monkeypatch, target):
        assert TARGETS == (*SUITE_OF_TARGET, "all")
        suite = SUITE_OF_TARGET[target]
        calls = []
        module = splitpat.series if suite in splitpat.series.__all__ else splitpat.verify
        original = getattr(module, suite)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, suite, counted)
        run_target(target, order=4, n_max=4)
        assert len(calls) == 1
        run_target("all", order=4, n_max=4)
        assert len(calls) == 2

    @pytest.mark.parametrize("target", ["bessel", "main2"])
    def test_target_builds_each_series_once(self, monkeypatch, target):
        calls = Counter()

        def counted(name, build):
            def wrapper(order):
                calls[name, order] += 1
                return build(order)

            return wrapper

        for name in NAMED_SERIES:
            monkeypatch.setattr(splitpat.series, name, counted(name, getattr(splitpat.series, name)))
        checks, _ = run_target(target, order=4)
        assert checks and all(c.passed for c in checks)
        assert calls and set(calls.values()) == {1}, calls


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, *[])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--r", "1", "--n", "3", "--method", "brute"),
            ("enumerate", "--r", "1", "--n", "3"),
            ("verify", "--target", "oracle"),
            ("verify", "--target", "bessel", "--order", "4"),
        ],
    )
    def test_negative_guard_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--unsafe-n-max", "-1")
        assert (code, out) == (2, "")
        assert err == "splitpat: error: --unsafe-n-max must be an int >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("verify", "--target", "oracle", "--n-max", "0"), "--n-max must be an int >= 1, got 0"),
            (("verify", "--target", "bessel", "--order", "1"), "--order must be an int >= 2, got 1"),
            (("count", "--r", "5", "--n", "3"), "--r must be an int in 0..3, got 5"),
            (("count", "--r", "1", "--n", "-1"), "--n must be an int >= 0, got -1"),
            (("check", "--perm", "123", "--r", "4"), "--r must be an int in 0..3, got 4"),
            (("table", "--n-max", "5", "--r-max", "-1"), "--r-max must be an int >= 0, got -1"),
            (("table", "--n-max", "0"), "--n-max must be an int in 1..100, got 0"),
            (("table", "--n-max", "101"), "--n-max must be an int in 1..100, got 101"),
        ],
    )
    def test_refusal_names_the_option(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"splitpat: error: {message}\n"

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        # Exit 2 means bad input only; a fault inside the library must
        # surface, not read as a usage message.
        def broken(s, r_max):
            raise ValueError("internal fault")

        monkeypatch.setattr(splitpat.counting, "_count_column", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["count", "--r", "1", "--n", "2"])

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "table", "--n-max", "3", "--bogus")[0] == 2


# Every size stays small: 11 lies past the default guard of 10, and a guard
# override never rises above 6, so no invocation sweeps more than S_6.
SIZES = st.sampled_from([*map(str, range(-3, 7)), "11", "2.0"])
GUARDS = st.sampled_from(["-1", "0", "3", "6"])


# A --perm value of "-" reads the same kind of text from stdin.
PERM_TEXT = st.one_of(
    st.integers(0, 7).flatmap(lambda k: st.permutations(range(1, k + 1))).map(
        lambda vals: ",".join(map(str, vals))
    ),
    st.text("0123456789,+- x", max_size=8),
)


def _flag(name, values, optional=True):
    pair = values.map(lambda value: [name, value])
    return st.one_of(st.just([]), pair) if optional else pair


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["table", "count", "check", "enumerate", "verify"]))
    flags = {
        "table": [
            _flag("--n-max", st.sampled_from([*map(str, range(-3, 7)), "11", "101"]), False),
            _flag("--r-max", SIZES),
            _flag("--format", st.sampled_from(["csv", "json", "lines"])),
        ],
        "count": [
            _flag("--r", SIZES, False),
            _flag("--n", SIZES, False),
            _flag("--method", st.sampled_from(["formula", "corollary", "brute"])),
            _flag("--unsafe-n-max", GUARDS),
        ],
        "check": [
            _flag("--perm", st.one_of(st.just("-"), PERM_TEXT), False),
            _flag("--r", SIZES, False),
        ],
        "enumerate": [
            _flag("--r", SIZES, False),
            _flag("--n", SIZES, False),
            _flag("--format", st.sampled_from(["lines", "json"])),
            _flag("--unsafe-n-max", GUARDS),
        ],
        "verify": [
            _flag("--target", st.sampled_from([*TARGETS, "nonsense"]), False),
            _flag("--order", st.sampled_from([*map(str, range(-3, 9)), "2.0"])),
            _flag("--n-max", st.sampled_from([*map(str, range(-3, 6)), "11"])),
            _flag("--format", st.sampled_from(["text", "json"])),
            _flag("--unsafe-n-max", GUARDS),
        ],
    }[command]
    return [command, *(arg for flag in flags for arg in draw(flag))]


class TestArgvProperty:
    @settings(max_examples=300, deadline=None)
    @given(argvs(), PERM_TEXT)
    def test_every_invocation_ends_in_a_known_exit_code(self, argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), mock.patch("sys.stdin", io.StringIO(stdin)):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (2, 3):
            assert out.getvalue() == ""
        if "must be an int" in err.getvalue():
            # A refused value is reported under the option that supplied it.
            assert err.getvalue().startswith("splitpat: error: --")
