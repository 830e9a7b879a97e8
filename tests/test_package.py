"""The package surface, the names the benchmark tracer wraps and the
README's library example."""

import ast
import inspect
from pathlib import Path

import pytest

import splitpat
from splitpat import counting, perms, series

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

    @pytest.mark.parametrize("name", DELETED)
    def test_deleted_names_are_gone(self, name):
        for module in (splitpat, *MODULES):
            assert not _resolves(module, name), module.__name__


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
        "(1, 3, 6)",
        "(None, (1, 3, 6))",
        "47",
        "47",
        "True",
        "Fraction(1, 1)",
    ]
