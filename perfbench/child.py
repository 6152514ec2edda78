"""One workload invocation in a fresh interpreter.

Usage: ``python3 child.py SPEC.json RESULT.json``. SPEC holds the source
directory, the warm-up and measured ``dwigner`` argument lists, and whether
to trace. The child times ``import dwigner`` plus the warm-up call
(set-up), then the measured ``cli.main`` call (wall and CPU time), and
writes its measurements to RESULT as JSON. The program's own stdout is
discarded; its report goes to the ``--out`` path inside the argument list.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _blas_build() -> dict:
    """numpy version and its BLAS/LAPACK build, as numpy.__config__ records them."""
    import numpy

    deps = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {})
    return {"numpy": numpy.__version__,
            "blas": {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                     for k, v in deps.items() if k in ("blas", "lapack")}}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict = {"exit_code": None, "error": None}
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from dwigner import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(spec["warmup"])
    result["setup_s"] = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result["exit_code"] = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse usage errors
        result["exit_code"] = exc.code
    except Exception:  # a crashed run is a failed operation, reported below
        result["error"] = traceback.format_exc()
    finally:
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = _peak_rss_mb()
    result["blas"] = _blas_build()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["durations_ms"] = tracer.durations_ms()
        result["trace"] = {"spans": len(tracer.spans), "missing": tracer.missing,
                           **tracer.tree_check()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
