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


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """The (module, line, name) of every module-level private function,
    class or constant in sources (module name -> source) that no source
    reads.  A private name has a leading underscore and is no dunder; a
    read is a loaded name, a loaded attribute or a from-import of it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [leaf.id for target in targets for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name)]
            unread += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_the_package_reads_every_private_name_it_defines():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    unread = unread_private_names(sources)
    assert unread == [], "\n".join(f"{module}:{line}: {name} is defined but never read"
                                   for module, line, name in unread)


def test_unread_private_names_finds_what_no_module_reads_and_nothing_else():
    first = """__all__ = ["public"]
_LIMIT = 3
_BOUND: int = 4
_left, _right = 1, 2
_a = _b = 0


def _helper():
    return _LIMIT + _left + _a


class _Spare:
    pass


def _imported():
    pass


def _spare():
    pass


def public():
    return _helper()
"""
    second = """from .first import _imported
from . import first


def f():
    return _imported, first._BOUND
"""
    assert unread_private_names({"first.py": first, "second.py": second}) == [
        ("first.py", 4, "_right"), ("first.py", 5, "_b"), ("first.py", 12, "_Spare"),
        ("first.py", 20, "_spare")]


PROCESS_CALLS = ("fork", "waitpid", "kill", "_exit")


def process_calls(source: str) -> list[tuple[int, str]]:
    """The (line, name) of every use of os.fork, os.waitpid, os.kill or
    os._exit in source, as an attribute of os or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in PROCESS_CALLS):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}") for alias in node.names
                      if alias.name in PROCESS_CALLS]
    return sorted(found)


def test_only_the_worker_module_forks_reaps_or_kills_processes():
    found = {path.name: process_calls(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name for _, name in found.pop("workers.py")} == {f"os.{call}" for call in PROCESS_CALLS}
    assert {module: calls for module, calls in found.items() if calls} == {}


def test_process_calls_finds_every_fork_reap_and_kill_and_nothing_else():
    source = """import os
from os import kill as stop, getpid


def f(pid):
    if os.fork() == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    stop(pid, 9)
    return os.getpid(), getpid, os.path.exists("kill")
"""
    assert process_calls(source) == [(2, "os.kill"), (6, "os.fork"), (7, "os._exit"),
                                     (8, "os.waitpid")]


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
