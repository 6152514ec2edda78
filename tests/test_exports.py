"""Every exported name resolves, so a deletion cannot leave a dangling export;
every exported name is reached from the program, so no library surface serves
only the tests; the package itself exports nothing."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dwigner

SRC = Path(dwigner.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# exported names that nothing in src/ reaches yet, each with its reason
UNREACHED_ALLOWED = {
    # criterion 12 checks the paper's asymptotic ratios through it; a
    # subcommand comparing it with the exact oracle is planned
    "asymptotic_predictions",
}

# every module but the command-line front end declares its public names
MODULES = sorted(info.name for info in pkgutil.iter_modules(dwigner.__path__)
                 if info.name not in ("__main__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"dwigner.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_namespace_is_empty():
    # a fresh interpreter: importing the package loads none of its modules
    # and not numpy, and leaves no public name besides the version
    code = ("import sys, dwigner\n"
            "print(sorted(m for m in sys.modules if m.startswith('dwigner.') or m == 'numpy'))\n"
            "print(sorted(n for n in vars(dwigner) if not n.startswith('_')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def _module_exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_reached():
    # reached: loaded as a name, imported, or read as an attribute anywhere in
    # src/, or wrapped by name by the benchmark's tracer
    exported, reached = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported.update(_module_exports(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name)
    tracing = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(node.value for node in tracing.body if isinstance(node, ast.AnnAssign)
                   and node.target.id == "TARGETS")
    reached.update(attribute for _, _, attribute, _ in ast.literal_eval(targets))
    assert sorted(exported - reached - UNREACHED_ALLOWED) == []
    assert UNREACHED_ALLOWED <= exported - reached  # no stale allowance
