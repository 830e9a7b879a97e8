"""Command-line front end.

Data goes to stdout, diagnostics to stderr, and all data output is
byte-for-byte deterministic for a given command line.  Exit codes: 0 for
success (or "avoids" for check), 1 when check finds a contained pattern, a
verification target fails or the reader of stdout is gone (as under
``| head``), 2 for bad input, 3 when a brute-force request exceeds the
exhaustive-search guard.  Arguments are checked by the library
functions that use them; ``main`` is the one place where their refusals
(``BadInputError`` and ``SearchLimitError``) become exit codes, and a
refused option value, or a guard refusal, is reported under the option's
name.  Any other exception is a fault and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from math import inf

from .counting import (
    DEFAULT_SEARCH_LIMIT,
    SearchLimitError,
    _avoider_tuples,
    _check_limit,
    _count_column,
    avoider_count_by_peeling,
    brute_count,
    build_count_table,
)
from .perms import BadInputError, _check_int, _format_values, parse_permutation, split_witnesses
from .verify import TARGETS, run_target


def _fail_usage(message: str) -> int:
    print(f"splitpat: error: {message}", file=sys.stderr)
    return 2


# The option that supplies each argument the library checks, by the
# library's name for that argument.
_OPTIONS = {
    "n": "--n",
    "r": "--r",
    "n_max": "--n-max",
    "r_max": "--r-max",
    "order": "--order",
    "limit": "--unsafe-n-max",
}


def _usage_message(exc: BadInputError) -> str:
    """The refusal's text, naming the option where the refused value came
    from one."""
    if exc.argument not in _OPTIONS:
        return str(exc)
    return _OPTIONS[exc.argument] + str(exc)[len(exc.argument) :]


# CPython 3.10.7 and later refuse str() of an int past a digit cap (4300 by
# default, 640 at the lowest a user may set); 10**600 stays under any cap.
_STR_SAFE = 10**600


def _decimal(value: int) -> str:
    """Decimal text of a nonnegative int of any size, whatever the cap."""
    if value < _STR_SAFE:
        return str(value)
    k = value.bit_length() * 3 // 20  # about half of the decimal digits
    high, low = divmod(value, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _write_all(text: str) -> None:
    """Write ASCII text to stdout in full, or raise ``BrokenPipeError``.

    Under PYTHONUNBUFFERED the text layer writes straight through and drops
    the count of a partial raw write, so a reader that leaves mid-write
    would go unnoticed; the bytes go to the binary layer until all are
    taken.  A stream with no binary layer (``io.StringIO``) takes them whole.
    """
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode("ascii"))
    while data:
        data = data[binary.write(data) :]


def cmd_table(args: argparse.Namespace) -> int:
    _check_int("n_max", args.n_max, 1, 100)
    if args.r_max is not None:  # refused before building the table, the slow step
        _check_int("r_max", args.r_max, 0, inf)
    table = build_count_table(args.n_max)
    if args.format == "csv":
        _write_all(table.to_csv(r_max=args.r_max))
    else:
        print(table.to_json(r_max=args.r_max))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.method == "formula":
        _check_int("n", args.n, 0, inf)
        _check_int("r", args.r, 0, args.n)
        for value in _count_column(args.n - args.r, args.r):  # keeps the last
            pass
    elif args.method == "corollary":
        value = avoider_count_by_peeling(args.r, args.n)
    else:
        value = brute_count(args.r, args.n, limit=args.unsafe_n_max)
    print(_decimal(value))
    return 0


def _perm_text(perm: str) -> str:
    """The --perm value, or the text on stdin when it is "-"."""
    if perm != "-":
        return perm
    if sys.stdin is None:  # started with stdin closed
        raise BadInputError("bad permutation text: --perm - but stdin is closed")
    try:
        return sys.stdin.read()
    except UnicodeDecodeError:
        raise BadInputError("bad permutation text: stdin is not ASCII") from None


def cmd_check(args: argparse.Namespace) -> int:
    w = parse_permutation(_perm_text(args.perm))
    witness_3_12, witness_23_1 = split_witnesses(w, args.r)
    avoids = witness_3_12 is None and witness_23_1 is None
    print(
        json.dumps(
            {
                "avoids": avoids,
                "fiber_bundle": avoids,
                "witness_3_12": None if witness_3_12 is None else list(witness_3_12),
                "witness_23_1": None if witness_23_1 is None else list(witness_23_1),
            }
        )
    )
    return 0 if avoids else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_int("n", args.n, 0, inf)
    _check_int("r", args.r, 0, args.n)
    _check_limit(args.n, args.unsafe_n_max)
    members = map(_format_values, _avoider_tuples(args.r, args.n))
    if args.format == "lines":
        lead, sep, close = "", "\n", "\n"
    else:  # json.dumps of the list: digits and commas need no escapes
        members = map('"{}"'.format, members)
        lead, sep, close = "[", ", ", "]\n"
    # Written in chunks, so at most a chunk of the class is held as text.
    # The class is never empty: the identity avoids both patterns.
    while chunk := list(islice(members, 4096)):
        _write_all(lead + sep.join(chunk))
        lead = sep
    _write_all(close)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks, residual = run_target(
        args.target, order=args.order, n_max=args.n_max, limit=args.unsafe_n_max
    )
    passed = sum(1 for c in checks if c.passed)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "target": args.target,
                    "order": args.order,
                    "n_max": args.n_max,
                    "all_passed": passed == len(checks),
                    "checks": [
                        {"key": c.key, "name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in checks
                    ],
                    "boundary_residual": None if residual is None else residual.to_dict(),
                }
            )
        )
    else:
        for c in checks:
            line = f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            if c.detail:
                line += f" [{c.detail}]"
            print(line)
        print(f"summary: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitpat",
        description="Split-pattern avoidance: exact counts, checks and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print the table of avoidance counts")
    p.add_argument("--n-max", type=int, required=True, help="largest permutation size (1..100)")
    p.add_argument("--r-max", type=int, default=None, help="only print rows with r <= R_MAX")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("count", help="count the avoiders for one (r, n)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "corollary", "brute"), default="formula")
    p.add_argument(
        "--unsafe-n-max",
        type=int,
        default=DEFAULT_SEARCH_LIMIT,
        help="override the exhaustive-search guard",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check", help="test one permutation at one position")
    p.add_argument(
        "--perm",
        type=str,
        required=True,
        help='compact ("315642") or comma form; "-" reads the permutation from stdin',
    )
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list the avoiders in lexicographic order")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("lines", "json"), default="lines")
    p.add_argument("--unsafe-n-max", type=int, default=DEFAULT_SEARCH_LIMIT)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--order", type=int, default=12, help="series window order (>= 2)")
    p.add_argument("--n-max", type=int, default=7, help="largest size for exhaustive targets")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--unsafe-n-max", type=int, default=DEFAULT_SEARCH_LIMIT)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout is gone, as under ``| head``: quiet the exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SearchLimitError as exc:
        print(
            f"splitpat: error: size {exc.size} exceeds the exhaustive-search guard "
            f"({exc.limit}); raise it with {_OPTIONS['limit']} to proceed",
            file=sys.stderr,
        )
        return 3
    except BadInputError as exc:
        return _fail_usage(_usage_message(exc))


if __name__ == "__main__":
    sys.exit(main())
