"""Every name lumberkit exports is run by the CLI or documented for library use."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import lumberkit

SRC = Path(lumberkit.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def _scopes(modules: dict[str, ast.Module]) -> tuple[dict, dict]:
    """Each module's top-level definitions by name, and what its names refer to.

    A name bound by `from .x import a` refers to (x, a), one bound by
    `from . import x` to the module x, and any other top-level name of the
    module to (module, name).
    """
    definitions: dict[tuple[str, str], ast.AST] = {}
    refers: dict[str, dict[str, tuple[str, str] | str]] = {}
    for module, tree in modules.items():
        names = refers[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        names[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[module, node.name] = node
                names[node.name] = (module, node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            definitions[module, name.id] = node
                            names[name.id] = (module, name.id)
    return definitions, refers


def reached_from(start: tuple[str, str]) -> set[tuple[str, str]]:
    """The (module, name) definitions whose names a walk from start meets.

    Walking a definition visits all of it: a class's bases and every method,
    a function's defaults, annotations and nested functions, an assignment's
    value. `module.name` counts as a use of that module's name.
    """
    definitions, refers = _scopes(_modules())
    reached: set[tuple[str, str]] = set()
    pending = [start]
    while pending:
        key = pending.pop()
        if key in reached or key not in definitions:
            continue
        reached.add(key)
        names = refers[key[0]]
        for node in ast.walk(definitions[key]):
            target = None
            if isinstance(node, ast.Name):
                target = names.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = names.get(node.value.id)
                if isinstance(module, str):
                    target = (module, node.attr)
            if isinstance(target, tuple):
                pending.append(target)
    return reached


def exported() -> dict[str, tuple[str, str]]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_every_export_is_reached_from_main_or_documented():
    reached = reached_from(("cli", "main"))
    documented = library_use_section()
    orphans = [
        name
        for name, key in exported().items()
        if key not in reached and not re.search(rf"\b{re.escape(name)}\b", documented)
    ]
    assert orphans == []


def test_the_walk_follows_calls_constants_and_methods():
    reached = reached_from(("cli", "main"))
    # main -> build_parser -> cmd_eval -> evaluate -> build_runs -> judge_relevance
    assert ("evaluation", "judge_relevance") in reached
    # a module constant, read inside a method of a reached class
    assert ("backends", "HTTP_ATTEMPTS") in reached
    # the walk is selective: no command builds a scripted backend
    assert ("backends", "ScriptedBackend") not in reached
