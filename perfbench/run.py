"""dwigner benchmark: CLI workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Run from the root of a source checkout (``src/dwigner`` must exist). Each
invocation of the workload's ``dwigner`` subcommand gets a fresh interpreter
(``child.py``), so set-up time, peak RSS and BLAS thread state mean the same
thing on every invocation. Invocations repeat, with the same seed, while the
next one is expected to end within ``--seconds`` (at least three). BLAS thread
variables are passed through as found, never set.

``--trace 0`` reports the end-to-end metrics as medians over the
invocations: setup_s, wall_s, cpu_s and peak_rss_mb. ``--trace 1`` alternates
untraced and traced invocations (at least two of each) and reports the
per-layer metrics of ``tracing.py`` as medians over the traced ones, plus
``trace.overhead_s`` (traced minus untraced median wall time). A traced run is
incorrect if the exact counts differ between traced invocations, if the span
self times do not add up to the traced wall time, or if a span lies outside
its parent or has a negative self time. Metric units come from BENCHMARK.json.

The human-readable lines come first (run manifest, each metric's median,
tail percentile and invocation count, fail_ratio); the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS, percentile_metrics, tail_index  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

MIN_INVOCATIONS = 3
MIN_TRACED = 2
RUN_CAP_S = 120.0            # start no invocation expected to end past this
DEADLINE_S = 165.0           # a hung invocation is killed at this point of the run
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json names them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    """Runs invocations of one workload in fresh interpreters under ``workdir``."""

    def __init__(self, root: Path, workdir: Path, workload, seed: int):
        self.root, self.workdir, self.workload, self.seed = root, workdir, workload, seed
        self.attempted = 0
        self.problems: list[str] = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def invoke(self, trace: bool) -> dict:
        out = self.workdir / "report.json"
        spec_path, result_path = self.workdir / "spec.json", self.workdir / "result.json"
        for stale in (out, result_path):
            stale.unlink(missing_ok=True)
        spec = {
            "src": str(self.root / "src"),
            "warmup": list(self.workload.warmup) + ["--out", str(self.workdir / "warmup.json")],
            "argv": self.workload.command(self.seed, str(out)),
            "trace": trace,
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                                   str(result_path)], cwd=self.root, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = f"invocation killed after {timeout:.0f} s"
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        report = json.loads(out.read_text()) if out.exists() else None
        exit_code = result["exit_code"] if result else None
        attempted, problems = check(self.workload, exit_code, report)
        self.attempted += attempted
        if result is None:
            problems = problems or ["no measurement written"]
            print(f"invocation failed:\n{stderr}", file=sys.stderr)
        elif result.get("error"):
            print(result["error"], file=sys.stderr)
        self.problems += problems
        return {"result": result, "report": report}

    def loop(self, seconds: float, traced: bool) -> list[tuple[dict, dict | None]]:
        """Invocations that fit in ``seconds``; (untraced, traced or None) pairs."""
        pairs = []
        minimum = MIN_TRACED if traced else MIN_INVOCATIONS
        start = time.perf_counter()
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if len(pairs) >= minimum and elapsed + longest > seconds:
                break
            if pairs and elapsed + longest > RUN_CAP_S:
                break
            t0 = time.perf_counter()
            plain = self.invoke(trace=False)
            pair = (plain, self.invoke(trace=True) if traced else None)
            pairs.append(pair)
            longest = max(longest, time.perf_counter() - t0)
        return pairs


def summarize(values: list[float]) -> tuple[float, str]:
    """(median, tail text): the tail is the highest value with >= 10 runs beyond it."""
    ordered = sorted(values)
    tail = f"{ordered[tail_index(len(ordered))]:.6g}" if len(ordered) >= 11 else "n/a (<11 runs)"
    return statistics.median(ordered), tail


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def manifest(root: Path, workload, seed: int, blas: dict | None) -> dict:
    return {
        "workload": workload.name,
        "argv": workload.command(seed, "<out>"),
        "seed": seed,
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": (blas or {}).get("numpy"),
        "blas": (blas or {}).get("blas"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(root),
    }


def end_to_end(pairs, units: dict[str, str]) -> dict:
    results = [p[0]["result"] for p in pairs if p[0]["result"]]
    metrics = {}
    for name, unit in units.items():
        values = [r[name] for r in results if name in r]
        if not values:
            continue                 # nothing measured; the failures are reported
        median, tail = summarize(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:<12} median={median:.6g} {unit}  tail={tail}  runs={len(values)}")
    return metrics


def layer_values(traced: list[dict], plain_walls: list[float],
                 cases: list[int]) -> dict[str, list[float]]:
    """Every per-layer metric's values over the traced invocations.

    ``traced`` are the child results of traced invocations, ``plain_walls``
    the wall times of the untraced ones and ``cases`` the correspondence
    case count of each traced report. Percentiles pool the calls of all
    traced invocations, so they come as one value.
    """
    values = {n: [r["layers"][n] for r in traced] for n in traced[0]["layers"]}
    pooled = {n: [d for r in traced for d in r["durations_ms"][n]]
              for n in traced[0]["durations_ms"]}
    values.update({n: [v] for n, v in percentile_metrics(pooled).items()})
    values["experiments.verify.correspondence_roundtrip.cases"] = cases
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = [traced_wall - statistics.median(plain_walls)]
    return values


def per_layer(pairs, runner: Runner, units: dict[str, str]) -> dict:
    traced = [p[1]["result"] for p in pairs if p[1]["result"] and "layers" in p[1]["result"]]
    plain = [p[0]["result"]["wall_s"] for p in pairs if p[0]["result"]]
    if not traced or not plain:
        return {}                    # the failed invocations are already counted
    cases = [_cases(p[1]["report"]) for p in pairs if p[1]["result"]]
    values = layer_values(traced, plain, cases)
    metrics = {}
    for name, unit in sorted(units.items()):
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = {"value": pick(values[name]), "unit": unit}
    overhead = metrics["trace.overhead_s"]["value"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)

    for name in EXACT_COUNTS:
        seen = {r["layers"][name] for r in traced}
        if len(seen) > 1:
            runner.problems.append(f"exact count {name} differs between runs: {sorted(seen)}")
    tolerance = max(abs(overhead), 1e-3)
    for r in traced:
        info = r["trace"]
        if abs(info["balance_s"] - r["wall_s"]) > tolerance:
            runner.problems.append(
                f"self times sum to {info['balance_s']:.6f} s, traced wall {r['wall_s']:.6f} s "
                f"(tolerance {tolerance:.6f} s)")
        if info["orphans"] or info["misplaced"] or info["negative_self"]:
            runner.problems.append(
                f"span tree: {info['orphans']} orphan spans, {info['misplaced']} spans outside "
                f"their parent, {info['negative_self']} negative self times")
    info = traced[0]["trace"]
    print(f"trace: {info['spans']} spans per traced run, traced wall {traced_wall:.6g} s, "
          f"overhead {overhead:.6g} s, runs={len(traced)}")
    if info["missing"]:
        print(f"trace: names not found, reported as 0: {info['missing']}")
    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:.6g} {m['unit']}")
    return metrics


def _cases(report: dict | None) -> int:
    for rec in (report or {}).get("records", []):
        if rec.get("check") == "correspondence_roundtrip":
            return rec.get("params", {}).get("cases", 0)
    return 0


def run_workload(root: Path, workdir: Path, name: str, seed: int, seconds: float,
                 trace: bool, units: tuple[dict[str, str], dict[str, str]]) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(root, workdir, workload, seed)
    pairs = runner.loop(seconds, traced=trace)
    blas = next((p[0]["result"].get("blas") for p in pairs if p[0]["result"]), None)
    print(f"# perfbench workload={name} seed={seed} trace={int(trace)} "
          f"invocations={len(pairs) * (2 if trace else 1)}")
    print("manifest: " + json.dumps(manifest(root, workload, seed, blas), sort_keys=True))
    e2e_units, layer_units = units
    metrics = per_layer(pairs, runner, layer_units) if trace else end_to_end(pairs, e2e_units)
    failed = len(runner.problems)
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    print(f"fail_ratio   {failed / runner.attempted:.6g} 1  "
          f"({failed} failed of {runner.attempted} operations)")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "dwigner" / "cli.py").is_file():
        print(f"perfbench: no dwigner sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = metric_units(root)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        results = [run_workload(root, workdir, name, args.seed, args.seconds, bool(args.trace),
                                units)
                   for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    # The verdict is the "correct" field of each result line, whatever the
    # number of workloads; a nonzero exit means that no result was produced.
    return 0


if __name__ == "__main__":
    sys.exit(main())
