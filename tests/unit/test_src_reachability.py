"""``src/repro`` holds only what a user path runs.

Every public top-level function or class under ``src/repro`` must be
referenced by code outside its own definition and its package
``__init__`` re-export: somewhere in ``src/``, ``examples/``,
``benchmarks/`` or ``e2ebench/``.  Tests and docs do not count; a symbol
only tests use belongs under ``tests/`` (the ``*_oracles.py`` modules).

A name that no such code references, but that a user path still runs,
goes in :data:`KEPT` with that path.  References are matched by name
(``Name`` ids, attribute names and ``from ... import`` names), so an
unrelated attribute of the same name hides a dead symbol; the scan errs
towards passing, never towards a false failure.

Public methods and properties of ``src/repro`` classes get the same
scan one level down, with ``tests/`` counted too (a test that drives a
method through its class is a use): a method whose name no ``Name``,
attribute, import or string constant in ``src/``, ``examples/``,
``benchmarks/``, ``e2ebench/`` or ``tests/`` carries, outside its own
definition, is dead.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
USER_DIRS = ("src", "examples", "benchmarks", "e2ebench")
METHOD_DIRS = USER_DIRS + ("tests",)

# Unreferenced by name in USER_DIRS, but run by a user path.
KEPT: Dict[str, str] = {
    "instrument": (
        "CI distributed-smoke 'Distributed chaos acceptance' step: "
        "tests/integration/test_distributed_acceptance.py calls "
        "obs.instrument() and runs unedited"
    ),
    "SweepChaosHarness": (
        "CI distributed-smoke 'Distributed chaos acceptance' step "
        "(tests/integration/test_distributed_acceptance.py)"
    ),
    "kill_coordinator": (
        "CI distributed-smoke 'Distributed chaos acceptance' step "
        "(tests/integration/test_distributed_acceptance.py)"
    ),
    "grid_sweep": (
        "CI fault-smoke 'Forced worker crash recovers bitwise + checkpoint "
        "resume' step (tests/integration/test_resilience.py)"
    ),
    "sweep": (
        "CI distributed-smoke 'Distributed chaos acceptance' step: "
        "tests/integration/test_distributed_acceptance.py builds its serial "
        "reference with sweeps.sweep() and runs unedited"
    ),
}


def _public_defs() -> Dict[str, List[Tuple[Path, ast.AST]]]:
    defs: Dict[str, List[Tuple[Path, ast.AST]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append((path, node))
    return defs


def _names(tree: ast.AST, skip: Set[ast.AST], reexport: bool) -> Set[str]:
    """Names ``tree`` references, outside the ``skip`` subtrees.

    In a package ``__init__`` (``reexport``) the ``from ... import``
    names and the ``__all__`` strings are the re-export, not a use.
    """
    found: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexport:
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_public_symbols() -> Dict[str, str]:
    """``{name: "path:line"}`` for public defs nothing outside them uses."""
    defs = _public_defs()
    own_nodes: Dict[Path, Set[ast.AST]] = {}
    for entries in defs.values():
        for path, node in entries:
            own_nodes.setdefault(path, set()).add(node)
    used: Set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            reexport = path.name == "__init__.py"
            own = own_nodes.get(path, set())
            used |= _names(ast.parse(path.read_text()), own, reexport)
            # Another def in the same module may use it; its own body may not.
            for node in own:
                used |= _names(node, set(), reexport) - {node.name}
    return {
        name: f"{entries[0][0].relative_to(ROOT)}:{entries[0][1].lineno}"
        for name, entries in sorted(defs.items())
        if name not in used
    }


def test_every_public_symbol_has_a_user_path():
    orphans = {
        name: where
        for name, where in unreferenced_public_symbols().items()
        if name not in KEPT
    }
    assert not orphans, (
        "public symbols in src/repro that no src/, examples/, benchmarks/ "
        "or e2ebench/ code references; delete them, move test-only oracles "
        "under tests/, or name the user path that runs them in KEPT:\n"
        + "\n".join(f"  {name}  ({where})" for name, where in orphans.items())
    )


def test_kept_entries_are_still_needed():
    """A KEPT name that gains a real reference (or is deleted) leaves KEPT."""
    stale = sorted(set(KEPT) - set(unreferenced_public_symbols()))
    assert not stale, f"KEPT entries no longer unreferenced: {stale}"


def _public_methods() -> Dict[str, str]:
    """``{name: "path:line"}`` for public methods of ``src/repro`` classes."""
    methods: Dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not node.name.startswith("_"):
                    methods.setdefault(
                        node.name,
                        f"{path.relative_to(ROOT)}:{node.lineno} "
                        f"({cls.name})",
                    )
    return methods


def unreferenced_public_methods() -> Dict[str, str]:
    """Public methods whose name nothing outside their own body uses.

    A def's own body (its decorators too, so a property's setter does
    not count as a use of the getter) hides only the def's own name.
    """
    methods = _public_methods()
    used: Set[str] = set()
    for directory in METHOD_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            stack = [(ast.parse(path.read_text()), "")]
            while stack:
                node, own = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own = node.name
                name = None
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    name = node.value
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
                if name is not None and name != own:
                    used.add(name)
                stack.extend(
                    (child, own) for child in ast.iter_child_nodes(node)
                )
    return {name: where for name, where in methods.items() if name not in used}


def test_every_public_method_has_a_use():
    orphans = unreferenced_public_methods()
    assert not orphans, (
        "public methods of src/repro classes whose name nothing in src/, "
        "examples/, benchmarks/, e2ebench/ or tests/ uses; delete them:\n"
        + "\n".join(f"  {name}  ({where})" for name, where in orphans.items())
    )
