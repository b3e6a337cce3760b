"""The package's import layering, read from the source with `ast`.

The field (`gf`) and the grid (`grassgrid`) are the bottom layers and import
no package module; the CLI is the top and no module imports it; and the
import graph has no cycle, so every module can be read and tested from the
layers below it.
"""

import ast
import graphlib
from pathlib import Path

import pytest

import schubert_unions

PACKAGE_DIR = Path(schubert_unions.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))


def package_imports(name):
    """The package modules that module `name` imports, at any depth of its
    code, through `from .x import ...` or `from . import x, ...`."""
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


GRAPH = {name: package_imports(name) for name in MODULES}


def test_every_import_names_a_module():
    assert set().union(*GRAPH.values()) <= set(MODULES)


@pytest.mark.parametrize("name", ["gf", "grassgrid"])
def test_bottom_layers_import_no_package_module(name):
    assert GRAPH[name] == set()


def test_no_module_imports_cli():
    assert [name for name, imports in GRAPH.items() if "cli" in imports] == []


def test_import_graph_has_no_cycle():
    order = list(graphlib.TopologicalSorter(GRAPH).static_order())
    assert sorted(order) == MODULES
