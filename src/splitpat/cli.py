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
import os
import sys
from math import inf

from . import counting, verify
from .perms import DEFAULT_SEARCH_LIMIT, TARGETS, BadInputError, SearchLimitError, _check_int, _decimal, contains_split, parse_permutation


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


def _write_all(*pieces: str) -> None:
    """Write ASCII text pieces to stdout in turn and in full, or raise
    ``BrokenPipeError``; every command's data goes through here.

    Under PYTHONUNBUFFERED the text layer writes straight through and drops
    the count of a partial raw write, so a reader that leaves mid-write
    would go unnoticed; the bytes go to the binary layer until all are
    taken.  A line's newline is its own piece, so a large output is never
    copied to add one.  A stream with no binary layer (``io.StringIO``)
    takes the pieces whole.
    """
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.writelines(pieces)
        return
    sys.stdout.flush()
    for piece in pieces:
        data = memoryview(piece.encode("ascii"))
        while data:
            data = data[binary.write(data) :]


def cmd_table(args: argparse.Namespace) -> int:
    _check_int("n_max", args.n_max, 1, 100)
    r_max = args.n_max if args.r_max is None else args.r_max
    _check_int("r_max", r_max, 0, inf)  # refused before a column is stepped
    rows = counting._count_rows(args.n_max, r_max)
    next(rows)  # (0, 0, 1): the table starts at n = 1
    for text in counting._table_text(rows, args.format):
        _write_all(text)
    if args.format == "json":
        _write_all("\n")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.method == "formula":
        _check_int("n", args.n, 0, inf)
        _check_int("r", args.r, 0, args.n)
        for value in counting._count_column(args.n - args.r, args.r):  # keeps the last
            pass
    elif args.method == "corollary":
        value = counting.avoider_count_by_peeling(args.r, args.n)
    else:
        value = counting.brute_count(args.r, args.n, limit=args.unsafe_n_max)
    _write_all(_decimal(value), "\n")
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
    witness_3_12, witness_23_1 = contains_split(w, args.r)
    avoids = witness_3_12 is None and witness_23_1 is None
    # json.dumps of the verdict and the witnesses, written without json
    verdict = "true" if avoids else "false"
    text_3_12, text_23_1 = ("null" if p is None else f"[{', '.join(map(str, p))}]" for p in (witness_3_12, witness_23_1))
    _write_all(
        f'{{"avoids": {verdict}, "fiber_bundle": {verdict}, "witness_3_12": {text_3_12}, "witness_23_1": {text_23_1}}}',
        "\n",
    )
    return 0 if avoids else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    blocks = counting._avoider_blocks(args.r, args.n, args.unsafe_n_max)  # checked before n sizes anything
    quote, sep, header = ("", "\n", "") if args.format == "lines" else ('"', ", ", None)  # digits and commas need no escapes
    comma = "," if args.n > 9 else ""  # the separator _format_values takes at size n
    text = list(map(str, range(args.n + 1))).__getitem__  # each value's text, made once

    def runs():  # each head's members, joined 4096 at a time
        for head, tails in blocks:
            if type(tails[0]) is tuple:  # the set's first head: its right blocks become text
                for i, tail in enumerate(tails):  # in place, so no set is held twice; each leads with comma
                    tails[i] = comma.join(("", *map(text, tail))) + quote
            head_text = quote + comma.join(map(text, head))
            if len(tails) <= 4096:
                yield head_text + (sep + head_text).join(tails)
            else:
                for i in range(0, len(tails), 4096):
                    yield head_text + (sep + head_text).join(tails[i : i + 4096])

    for piece in counting._list_text(runs(), header):
        _write_all(piece)
    if header is None:
        _write_all("\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks, residual = verify.run_target(
        args.target, order=args.order, n_max=args.n_max, limit=args.unsafe_n_max
    )
    passed = sum(1 for c in checks if c.passed)
    if args.format == "json":
        import json  # on use: only the --format json report needs it
        text = json.dumps(  # no name holds the report, so it is freed before the write
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
        _write_all(text, "\n")
    else:
        lines = (f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f" [{c.detail}]" if c.detail else "") for c in checks)
        _write_all(*counting._list_text([*lines, f"summary: {passed}/{len(checks)} checks passed"], ""))
    return 0 if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitpat",
        description="Split-pattern avoidance: exact counts, checks and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    guard = dict(type=int, default=DEFAULT_SEARCH_LIMIT, help="override the exhaustive-search guard")

    p = sub.add_parser("table", help="print the table of avoidance counts")
    p.add_argument("--n-max", type=int, required=True, help="largest permutation size (1..100)")
    p.add_argument("--r-max", type=int, default=None, help="only print rows with r <= R_MAX")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("count", help="count the avoiders for one (r, n)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "corollary", "brute"), default="formula")
    p.add_argument("--unsafe-n-max", **guard)
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
    p.add_argument("--unsafe-n-max", **guard)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--order", type=int, default=12, help="series window order (>= 2)")
    p.add_argument("--n-max", type=int, default=7, help="largest size for exhaustive targets")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--unsafe-n-max", **guard)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:  # no name holds the parser, so a layer first run by the command is not compiled on top of it
        args = build_parser().parse_args(argv)
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
        print(f"splitpat: error: {_usage_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
