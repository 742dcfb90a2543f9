"""The package's public names: what ``__all__`` lists is importable, and
each module lists the public names it defines."""
import ast
import importlib
import inspect

import pytest

import votescale


def test_every_public_name_resolves():
    missing = [name for name in votescale.__all__ if not hasattr(votescale, name)]
    assert missing == []
    assert len(set(votescale.__all__)) == len(votescale.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from votescale import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(votescale.__all__)


MODULES = [
    importlib.import_module(f"votescale.{name}")
    for name in ("distribution", "errors", "difficulty", "records", "selection", "votemath")
]


def defined_names(mod):
    """Names the module's own top-level statements bind: classes, functions
    and assignment targets, not imports."""
    names = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_module_lists_only_names_it_defines(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert set(mod.__all__) <= defined_names(mod) - {"__all__"}


def test_package_surface_is_the_disjoint_union_of_the_module_lists():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(set(names)) == len(names)
    assert sorted(votescale.__all__) == sorted(names)
    assert all(getattr(votescale, name) is getattr(mod, name) for mod in MODULES for name in mod.__all__)


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_module_star_import_binds_exactly_its_public_names(mod):
    namespace = {}
    exec(f"from {mod.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mod.__all__)
