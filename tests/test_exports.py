"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dwigner

# every module but the command-line front end declares its public names
MODULES = sorted(info.name for info in pkgutil.iter_modules(dwigner.__path__)
                 if info.name not in ("__main__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"dwigner.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_are_exported_names():
    tree = ast.parse(Path(dwigner.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"dwigner.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(dwigner, alias.name) is getattr(module, alias.name)
