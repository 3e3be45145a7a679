"""Count the settable values of tilinglab, as ROADMAP.md defines them.

A settable value is one of:

* a keyword parameter with a default, in any function or method under
  ``src/tilinglab``;
* a dataclass field with a default, under ``src/tilinglab``;
* a CLI flag slot: one optional flag on one subcommand of
  ``tilinglab.cli.build_parser()``, ``--help`` excluded.

Usage: ``python tools/count_settables.py`` prints the three counts, the
line count of ``src/tilinglab`` (the other figure every change reports) and
the settable total; the total is the last line.  Only the standard library
is needed.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tilinglab")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def source_counts(package: str = PACKAGE) -> tuple[int, int, int]:
    """(keyword parameters with a default, dataclass fields with a default,
    lines of the package's Python files as ``wc -l`` counts them)."""
    keywords = fields = lines = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            text = fh.read()
        lines += text.count("\n")
        tree = ast.parse(text, name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                keywords += len(node.args.defaults)
                keywords += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    return keywords, fields, lines


def flag_slots() -> int:
    """Optional flags over all subcommands, ``--help`` excluded."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tilinglab.cli import build_parser

    slots = 0
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                slots += sum(
                    bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                    for a in sub._actions
                )
    return slots


def main() -> int:
    keywords, fields, lines = source_counts()
    flags = flag_slots()
    print(f"keyword defaults: {keywords}")
    print(f"dataclass field defaults: {fields}")
    print(f"CLI flag slots: {flags}")
    print(f"source lines: {lines}")
    print(f"settable values: {keywords + fields + flags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
