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
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
USER_DIRS = ("src", "examples", "benchmarks", "e2ebench")

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
