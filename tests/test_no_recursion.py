"""Every search in the package runs on an explicit stack, so its depth is
bounded by memory and not by the interpreter's recursion limit.  A
function that calls itself by name, or as ``self.name``/``cls.name`` in a
method, fails here."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tilinglab")


def _self_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(function name, line) of every call a function makes to itself by
    name, nested functions included."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name or (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append((fn.name, node.lineno))
    return found


def test_the_checker_flags_recursion():
    tree = ast.parse(
        "def walk(n):\n"
        "    def rec(i):\n"
        "        return rec(i - 1) if i else 0\n"
        "    return rec(n)\n"
        "class T:\n"
        "    def visit(self, x):\n"
        "        return [self.visit(y) for y in x]\n"
        "def fine(n):\n"
        "    return other.fine(n)\n"
    )
    assert _self_calls(tree) == [("rec", 3), ("visit", 7)]


def test_no_function_in_the_package_calls_itself():
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                found += [(os.path.relpath(path, SRC), fn, line) for fn, line in _self_calls(tree)]
    assert found == []
