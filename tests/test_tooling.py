"""Static checks of the package source, made with the standard library's
ast and argparse modules alone, since no linter is a dependency."""

import argparse
import ast
from pathlib import Path

import pytest

from smoa import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smoa"
# __init__.py imports names to re-export them, not to read them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of every name an import binds that the module
    never reads; `import a.b` binds a, and __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_package_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"cli.py", "rank_analysis.py", "training.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_reads_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], "\n".join(f"{path.name}:{line}: {name} is imported but never read"
                                   for line, name in unused)


def test_unused_imports_finds_a_leftover_import_and_nothing_else():
    source = """from __future__ import annotations

import logging
import os.path
import numpy as np
from .errors import ValidationError as Invalid, FormatError


def f(x: np.ndarray) -> None:
    if os.path.exists(x):
        raise Invalid(x)
"""
    assert unused_imports(source) == [(3, "logging"), (6, "FormatError")]


def parsers(parser: argparse.ArgumentParser):
    """parser and every subparser under it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parsers(sub)


def test_the_cli_hides_no_option():
    # a hidden option is one the shipped CLI takes but its --help never
    # shows; faults for tests live in tests/test_mutations.py instead
    found = list(parsers(cli._build_parser()))
    assert {p.prog for p in found} == {"smoa", "smoa analyze", "smoa rank-bench",
                                       "smoa train", "smoa gradcheck"}
    hidden = [(p.prog, action.option_strings or action.dest) for p in found
              for action in p._actions if action.help == argparse.SUPPRESS]
    assert hidden == []
