"""Every exported name resolves, so a deletion cannot leave a dangling export;
every exported name is reached from the program, so no library surface serves
only the tests; the package itself exports nothing; every span of the
benchmark's tracer times code the program runs."""

import ast
import contextlib
import importlib
import io
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dwigner

SRC = Path(dwigner.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
    # reached: loaded as a name, imported, or read as an attribute anywhere in src/
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
    assert sorted(exported - reached - UNREACHED_ALLOWED) == []
    assert UNREACHED_ALLOWED <= exported - reached  # no stale allowance


def test_every_tracer_span_records_a_call(monkeypatch, tmp_path):
    # The tracer wraps names; a wrapped name that no run calls reads 0 in
    # every benchmark file. The workload warm-ups and the default battery,
    # written to a report, reach every span.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import TARGETS, Tracer
    from workloads import WORKLOADS

    from dwigner import cli

    runs = [list(w.warmup) for w in WORKLOADS.values()]
    runs.append(["verify-combinatorics", "--out", str(tmp_path / "verify.json")])
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
    finally:
        tracer.restore()
    assert codes == [0] * len(runs)
    assert tracer.missing == []
    recorded = {span.name for span in tracer.spans}
    assert sorted({name for name, *_ in TARGETS} - recorded) == []
