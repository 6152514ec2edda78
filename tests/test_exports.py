"""Every exported name resolves, so a deletion cannot leave a dangling export;
the package itself exports nothing."""

import importlib
import pkgutil
import subprocess
import sys

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


def test_package_namespace_is_empty():
    # a fresh interpreter: importing the package loads none of its modules
    # and not numpy, and leaves no public name besides the version
    code = ("import sys, dwigner\n"
            "print(sorted(m for m in sys.modules if m.startswith('dwigner.') or m == 'numpy'))\n"
            "print(sorted(n for n in vars(dwigner) if not n.startswith('_')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
