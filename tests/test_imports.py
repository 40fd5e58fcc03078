import ast
from pathlib import Path

import konvex
from konvex import geometry, verifier

PACKAGE = Path(konvex.__file__).parent


def _function_level_imports(tree: ast.AST) -> list[int]:
    lines = []

    def visit(node, in_function):
        if in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.append(node.lineno)
        inside = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return lines


def test_no_imports_inside_functions():
    """Every konvex module imports at module level, so the import graph
    stays acyclic and no layer defers an import to dodge a cycle."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _function_level_imports(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_detector_sees_nested_imports():
    tree = ast.parse("def f():\n    if True:\n        from . import x\nimport y\n")
    assert _function_level_imports(tree) == [3]


def test_s_bound_lives_in_geometry():
    assert konvex.s_bound is verifier.s_bound is geometry.s_bound


def test_every_exported_name_resolves():
    assert [name for name in konvex.__all__ if not hasattr(konvex, name)] == []
