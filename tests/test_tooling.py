"""Static checks of the package source, made with the standard library's
ast and argparse modules alone, since no linter is a dependency."""

import argparse
import ast
from pathlib import Path

import pytest

from smoa import cli

from code_lines import code_lines

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


def called(call: ast.Call) -> str | None:
    """The name a call calls: f for f(...) and for m.f(...)."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def ungranted_splits(sources: dict[str, str]) -> list[tuple[str, int]]:
    """The (module, line) of every run_groups call in sources (module name
    -> source) whose processes argument is not the grant pinned yielded,
    as a bare name: one that a `with pinned() as name` of the calling
    function binds, or a parameter of the calling function that every
    call of that function passes such a grant."""
    parents, calls = {}, []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            parents.update((child, node) for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                calls.append((module, node))

    def caller(node):
        while node is not None and not isinstance(node, ast.FunctionDef):
            node = parents.get(node)
        return node

    def is_grant(expr, function, seen=frozenset()):
        if not isinstance(expr, ast.Name) or function is None:
            return False
        if any(isinstance(item.context_expr, ast.Call) and called(item.context_expr) == "pinned"
               and getattr(item.optional_vars, "id", None) == expr.id
               for node in ast.walk(function) if isinstance(node, ast.With)
               for item in node.items):
            return True
        names = [arg.arg for arg in function.args.args]
        if expr.id not in names or function in seen:
            return False
        index = names.index(expr.id)
        passes = [call for _, call in calls if called(call) == function.name]
        return passes != [] and all(
            is_grant(processes(call, index, expr.id), caller(call), seen | {function})
            for call in passes)

    def processes(call, index, name):
        if index < len(call.args):
            return call.args[index]
        return next((kw.value for kw in call.keywords if kw.arg == name), None)

    return sorted((module, call.lineno) for module, call in calls if called(call) == "run_groups"
                  and not is_grant(processes(call, 2, "processes"), caller(call)))


def test_every_split_passes_the_grant_pinned_yielded():
    # run_groups alone decides how many groups a call splits into, so no
    # caller passes it arithmetic on its grant, such as a floor of its own
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert ungranted_splits(sources) == []
    assert sum(source.count("run_groups(") for source in sources.values()) > 2


def test_ungranted_splits_finds_every_split_of_no_bare_grant_and_nothing_else():
    first = """from .workers import pinned, run_groups


def granted(items):
    with pinned() as processes:
        return run_groups(work, items, processes, "doing", 1)


def floored(items):
    with pinned() as processes:
        return run_groups(work, items, min(processes, 2), "doing", 1)


def passed_on(items, grant):
    return workers.run_groups(work, items, processes=grant, doing="doing", madds=1)


def unpinned(items, processes):
    return run_groups(work, items, processes, "doing", 1)
"""
    second = """from . import first, workers


def caller(items):
    with workers.pinned() as processes:
        first.passed_on(items, processes)
        first.unpinned(items, processes)
    first.unpinned(items, 2)
    return run_groups(work, items, 2, "doing", 1)
"""
    assert ungranted_splits({"first.py": first, "second.py": second}) == [
        ("first.py", 11), ("first.py", 19), ("second.py", 9)]


def protocol_tools(source: str) -> list[tuple[int, str]]:
    """The (line, name) of every use in source of what carries a group's
    outcome between processes: pickle imported, sys.modules read (as an
    attribute of sys or imported from it), and catch_warnings called with
    a record argument that is not literally False."""
    found = []
    for node in ast.walk(ast.parse(source)):
        imports = isinstance(node, (ast.Import, ast.ImportFrom))
        imported = [alias.name for alias in node.names] if imports else []
        if ((isinstance(node, ast.Import) and "pickle" in imported)
                or (isinstance(node, ast.ImportFrom) and node.module == "pickle")):
            found.append((node.lineno, "pickle"))
        elif ((isinstance(node, ast.ImportFrom) and node.module == "sys" and "modules" in imported)
              or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "sys" and node.attr == "modules")):
            found.append((node.lineno, "sys.modules"))
        elif isinstance(node, ast.Call) and "catch_warnings" in (getattr(node.func, "attr", None),
                                                                 getattr(node.func, "id", None)):
            record = [kw.value for kw in node.keywords if kw.arg == "record"]
            if record and not (isinstance(record[0], ast.Constant) and record[0].value is False):
                found.append((node.lineno, "catch_warnings(record=True)"))
    return sorted(found)


def test_only_the_worker_module_carries_outcomes_between_processes():
    # run_groups alone sends a group's result, warnings and error back to
    # the caller and issues the warnings again; no caller repeats that
    found = {path.name: protocol_tools(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name for _, name in found.pop("workers.py")} == {
        "pickle", "sys.modules", "catch_warnings(record=True)"}
    assert {module: tools for module, tools in found.items() if tools} == {}


def test_protocol_tools_finds_pickle_sys_modules_and_recording_and_nothing_else():
    source = """import pickle as serial
import sys
import warnings
from sys import modules, argv
from pickle import loads


def f(blob):
    with warnings.catch_warnings(record=True) as caught, warnings.catch_warnings():
        serial.loads(blob)
    with catch_warnings(record=False), warnings.catch_warnings(record=flag):
        pass
    return sys.modules, sys.argv, caught
"""
    assert protocol_tools(source) == [
        (1, "pickle"), (4, "sys.modules"), (5, "pickle"), (9, "catch_warnings(record=True)"),
        (11, "catch_warnings(record=True)"), (13, "sys.modules")]


def test_code_lines_counts_no_blank_comment_or_docstring_line():
    source = '''"""A module docstring
over two lines."""

import os  # a comment after code counts its line

# a comment line


class Thing:
    """A class docstring."""

    def method(self, x):
        """A method docstring,
        over two lines."""
        text = """a string
that is no docstring"""
        return (x +
                len(text))


"not a docstring: the module body does not start here"
'''
    # import, class, def, text (2 lines), return (2 lines), the last string
    assert code_lines(source) == 8


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
