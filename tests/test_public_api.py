"""Each library module's ``__all__`` names only what that module itself defines.

The benchmark's tracer looks up every ``__all__`` entry by name, so a stale
entry, left behind when a function is removed, would break a traced run.
"""

import ast
import inspect

import pytest

from otlab import checksim, numerics, protocol, security


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
