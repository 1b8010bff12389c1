"""Each library module's ``__all__`` names only what that module itself defines and runs.

The benchmark's tracer looks up every ``__all__`` entry by name, so a stale
entry, left behind when a function is removed, would break a traced run.
A public name that only tests call belongs in the tests.
"""

import ast
import inspect
from pathlib import Path

import pytest

from otlab import checksim, numerics, protocol, security

ROOT = Path(__file__).resolve().parent.parent
# Public names that nothing runs yet, each with the reason it stays public.
UNCALLED = {
    "exact_law": "the explained-runs item of ROADMAP.md gives it its first caller",
}


def _top_level_names(module) -> set:
    """Names bound at the top level of the module's own source, imports excluded."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", [numerics, protocol, security, checksim],
                         ids=lambda module: module.__name__)
def test_every_public_name_resolves_and_is_defined_here(module):
    assert len(module.__all__) == len(set(module.__all__))
    defined = _top_level_names(module)
    for name in module.__all__:
        obj = getattr(module, name)  # AttributeError for a stale entry
        assert name in defined, f"{module.__name__}.{name} is not defined in the module"
        assert getattr(obj, "__module__", module.__name__) == module.__name__


def _names_in_use() -> set:
    """Every ``Name`` and ``Attribute`` in the code the lab runs and in the acceptance suite."""
    paths = [path for top in ("src", "perfbench", "tools") for path in (ROOT / top).rglob("*.py")]
    names = set()
    for path in paths + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", [numerics, protocol, security, checksim],
                         ids=lambda module: module.__name__)
def test_every_public_name_has_a_caller(module):
    in_use = _names_in_use()
    uncalled = sorted(set(module.__all__) - in_use - set(UNCALLED))
    assert uncalled == [], f"{module.__name__} exports names nothing runs: {uncalled}"
    for name in set(module.__all__) & set(UNCALLED):
        assert name not in in_use, f"{name} has a caller now: drop it from UNCALLED"
