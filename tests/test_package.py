"""The package surface and the README's library example."""

import ast
from pathlib import Path

import pytest

import splitpat
from splitpat import counting, perms, series

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (perms, counting, series)
DELETED = ("identity", "insert_max", "rank_function", "is_fiber_bundle")


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
        assert not hasattr(splitpat, name)
        assert not hasattr(perms, name)


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
        "(None, PatternWitness(indices=(1, 3, 6)))",
        "47",
        "47",
        "True",
    ]
