"""The package surface, the value types' semantics, what a command
imports, the names the benchmark tracer wraps and the README's library
example."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import splitpat
from splitpat import BadInputError, BivariateSeries, Check, CountTable, Permutation, counting, perms, series, verify
from splitpat.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SPANS_SOURCE = ROOT / "perfbench" / "spans.py"
MODULES = (perms, counting, series)
DELETED = (
    "identity",
    "insert_max",
    "rank_function",
    "is_fiber_bundle",
    "RecursionReport",
    "IdentityReport",
    "RationalLike",
    "BivariateSeries.from_terms",
    "binomial",
    "falling_factorial",
    "PatternWitness",
    "REGISTRY",
    "SplitPattern",
    "PATTERN_3_12",
    "PATTERN_23_1",
    "split_witnesses",
    "CountTable.k",
    "BivariateSeries.to_dict",
)


def _resolves(module, dotted):
    obj = module
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _traced_names():
    """The (module, attribute) pairs of ``SPANS`` in perfbench/spans.py,
    read from its source without importing it."""
    tree = ast.parse(SPANS_SOURCE.read_text())
    (node,) = (
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["SPANS"]
    )
    spans = eval(compile(ast.Expression(node), str(SPANS_SOURCE), "eval"), {"__builtins__": {}})
    return [(module, attr) for module, attr, _ in spans]


class TestSurface:
    def test_all_is_the_three_module_lists_in_order(self):
        expected = [name for module in MODULES for name in module.__all__]
        assert splitpat.__all__ == expected
        assert len(set(expected)) == len(expected)

    def test_each_name_is_the_modules_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(splitpat, name) is getattr(module, name), name

    def test_identity_check_functions_import(self):
        from splitpat import bessel_checks, main2_checks

        assert bessel_checks is series.bessel_checks
        assert main2_checks is series.main2_checks

    def test_dir_and_star_import_give_every_public_name(self):
        namespace: dict = {}
        exec("from splitpat import *", namespace)
        assert {name: namespace.get(name) for name in splitpat.__all__} == {
            name: getattr(splitpat, name) for name in splitpat.__all__
        }
        assert {*splitpat.__all__, "counting", "perms", "series", "verify"} <= set(dir(splitpat))
        assert not hasattr(splitpat, "no_such_name")

    def test_moved_names_are_the_same_objects(self):
        # The guard and Check live in perms, which the parser needs alone;
        # counting, series and verify re-export them, and perms.__all__
        # does not list them.
        assert counting.DEFAULT_SEARCH_LIMIT is perms.DEFAULT_SEARCH_LIMIT
        assert counting.SearchLimitError is perms.SearchLimitError
        assert series.Check is verify.Check is splitpat.Check is perms.Check
        assert {"DEFAULT_SEARCH_LIMIT", "SearchLimitError", "Check"}.isdisjoint(perms.__all__)
        commands = build_parser()._subparsers._group_actions[0].choices
        guards = [a.default for p in commands.values() for a in p._actions if a.dest == "unsafe_n_max"]
        assert len(guards) == 3 and all(guard is perms.DEFAULT_SEARCH_LIMIT for guard in guards)
        (target,) = (a for a in commands["verify"]._actions if a.dest == "target")
        assert target.choices is verify.TARGETS

    @pytest.mark.parametrize("name", DELETED)
    def test_deleted_names_are_gone(self, name):
        for module in (splitpat, *MODULES, verify):
            assert not _resolves(module, name), module.__name__


# Each value type: a factory of equal instances, one unequal instance, and
# whether instances hash (a CountTable holds a dict, so it never did).
RECORDS = {
    "Permutation": (lambda: Permutation((2, 3, 1)), Permutation((2, 1, 3)), True),
    "CountTable": (lambda: CountTable({(0, 0): 1, (0, 1): 1}), CountTable({(0, 0): 1}), False),
    "BivariateSeries": (lambda: BivariateSeries.constant(1, 2), BivariateSeries.constant(1, 3), True),
    "Check": (lambda: Check("key", "name", True), Check("key", "name", False), True),
}


def test_refusals_survive_pickling():
    # A refusal raised in a worker process reaches its parent by pickle,
    # with its type, its message and the fields a front end reads.
    limit = pickle.loads(pickle.dumps(perms.SearchLimitError(11, 10)))
    assert type(limit) is perms.SearchLimitError and (limit.size, limit.limit) == (11, 10)
    assert str(limit) == "size 11 exceeds the exhaustive-search guard (limit=10); raise the limit explicitly to proceed"
    bad = pickle.loads(pickle.dumps(BadInputError("n must be an int >= 0, got -1", "n")))
    assert type(bad) is BadInputError and (str(bad), bad.argument) == ("n must be an int >= 0, got -1", "n")
    bad = pickle.loads(pickle.dumps(BadInputError("bad permutation text: 'x'")))
    assert (str(bad), bad.argument) == ("bad permutation text: 'x'", None)


@pytest.mark.parametrize("kind", RECORDS)
def test_value_types_compare_hash_and_refuse_assignment(kind):
    make, other, hashable = RECORDS[kind]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    fields = type(a).__slots__
    assert a != tuple(getattr(a, name) for name in fields)  # not a tuple in disguise
    assert not hasattr(a, "__dict__")
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if hashable:
        assert hash(a) == hash(b) and len({a, b, other}) == 2


def test_permutation_hash_is_the_hash_of_its_field_tuple():
    # Sets and Counters of permutations keep the order they had as frozen
    # dataclasses, whose hash this is.
    for values in [(), (1,), (3, 1, 2), tuple(range(50, 0, -1))]:
        assert hash(Permutation(values)) == hash((values,))


def test_reprs_name_every_field():
    assert repr(Permutation((2, 1))) == "Permutation(values=(2, 1))"
    assert repr(Check("k", "n", True)) == "Check(key='k', name='n', passed=True, detail='')"


HEAVY_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "typing")
# Runs one command, then prints its exit code, the heavy modules loaded and,
# after "|", each lazy layer that ran (the parser offers verify's targets
# from perms, so only verify runs verify).  A lazy module's own dict holds
# its globals only once it has run, and object.__getattribute__ reads that
# dict without running it.
PROBE = f"""\
import sys
from splitpat.cli import main
code = main(sys.argv[1:])
ran = [m for m in ("counting", "series", "verify") if "__all__" in object.__getattribute__(sys.modules[f"splitpat.{{m}}"], "__dict__")]
print(code, *sorted(set(sys.modules).intersection({HEAVY_MODULES!r})), "|", *ran, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code, ran",
    [
        (("check", "--perm", "315642", "--r", "3"), 1, []),
        (("--help",), 0, []),
        (("table", "--n-max", "5"), 0, ["counting"]),
        (("count", "--r", "2", "--n", "5", "--method", "brute"), 0, ["counting"]),
        (("count", "--r", "2", "--n", "5", "--method", "formula"), 0, ["counting"]),
        (("enumerate", "--r", "1", "--n", "4"), 0, ["counting"]),
        (("verify", "--target", "recursion", "--order", "4"), 0, ["counting", "verify"]),
        (("verify", "--target", "symmetry", "--order", "4"), 0, ["counting", "series", "verify"]),
        # The Bessel suite reads no count; the text report would run
        # counting for its list writer, the JSON one does not.
        (("verify", "--target", "bessel", "--order", "4", "--format", "json"), 0, ["series", "verify"]),
        (("verify", "--target", "main2", "--order", "4"), 0, ["counting", "series", "verify"]),
        (("verify", "--target", "all", "--order", "4", "--n-max", "3"), 0, ["counting", "series", "verify"]),
    ],
    ids=[
        "check",
        "help",
        "table",
        "count",
        "count-formula",
        "enumerate",
        "verify-recursion",
        "verify-symmetry",
        "verify-bessel",
        "verify-main2",
        "verify-all",
    ],
)
def test_commands_start_without_heavy_imports(argv, code, ran):
    # -S: a site-packages .pth file may import typing before the program runs.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr.split() == [str(code), "|", *ran], proc.stderr


# Runs one command, then prints its exit code and whether it loaded json.
JSON_PROBE = """\
import sys
from splitpat.cli import main
code = main(sys.argv[1:])
print(code, "json" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (("verify", "--target", "fibers", "--n-max", "4"), 0, False),
        (("enumerate", "--r", "2", "--n", "4"), 0, False),
        (("table", "--n-max", "3", "--format", "json"), 0, False),
        (("check", "--perm", "312", "--r", "1"), 1, False),
    ],
    ids=["verify-fibers", "enumerate", "table-json", "check"],
)
def test_json_is_imported_only_by_the_commands_that_print_it(argv, code, loaded):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", JSON_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr.split() == [str(code), str(loaded)], proc.stderr


def test_every_traced_name_resolves():
    # The tracer looks these up by name and cannot wrap a deleted one; it
    # also replaces counting._avoids and BivariateSeries.__post_init__ to
    # count, and unpacks divide_by_unit's arguments as (num, den).
    import splitpat.cli  # noqa: F401  (loads every module SPANS names)

    names = _traced_names()
    assert ("series", "verify_identities") in names
    for module, attr in [*names, ("counting", "_avoids"), ("series", "BivariateSeries.__post_init__")]:
        assert _resolves(getattr(splitpat, module), attr), f"{module}.{attr}"
    assert list(inspect.signature(series.divide_by_unit).parameters) == ["num", "den"]


def test_readme_library_example_shows_its_results():
    # Every expression in the block runs; the results its comments show
    # must be the reprs it returns.
    section = README.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        text = repr(eval(code, namespace))
        if lines[stmt.end_lineno - 1].partition("#")[2].strip().startswith(text):
            shown.append(text)
    assert shown == [
        "(None, (1, 3, 6))",
        "47",
        "47",
        "True",
        "Fraction(1, 1)",
    ]
