"""Tests of the benchmark itself: span arithmetic, wrapping and the output checks.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import layer_values, metric_units  # noqa: E402
from tracing import (TARGETS, Span, Tracer, misplaced, percentile_metrics,  # noqa: E402
                     self_times, tail_index)
from workloads import CORRESPONDENCE_CASES, WORKLOADS, check  # noqa: E402


# -- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_union_of_nested_children():
    spans = [
        Span("root", -1, [(0.0, 10.0)]),
        Span("a", 0, [(1.0, 4.0)]),
        Span("b", 0, [(3.0, 6.0)]),        # overlaps a, as a pool thread would
        Span("a.child", 1, [(2.0, 3.0)]),
        Span("gen", 0, [(7.0, 7.5), (8.0, 8.5)]),  # generator: two resumptions
    ]
    selfs, excess = self_times(spans)
    assert selfs == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 1.0]
    assert excess == 1.0                     # a and b ran together for 1 s
    assert math.isclose(sum(selfs) - excess, spans[0].duration)


def test_misparented_spans_fail_the_tree_check():
    good = [
        Span("root", -1, [(0.0, 10.0)]),
        Span("gen", 0, [(1.0, 2.0), (3.0, 4.0)]),
        Span("in_gen", 1, [(3.2, 3.8)]),
    ]
    assert misplaced(good) == 0
    bad = [
        Span("root", -1, [(0.0, 10.0)]),
        Span("a", 0, [(1.0, 2.0)]),
        Span("pool", 1, [(1.5, 6.0)]),       # ran past the span it was attached to
        Span("gap", 0, [(8.0, 9.0)]),
        Span("between", 3, [(8.5, 8.6), (9.5, 9.6)]),  # second interval outside 'gap'
    ]
    assert misplaced(bad) == 2
    selfs, _ = self_times(bad)
    assert selfs[1] < 0                      # the mis-parented child outlasts its parent
    tracer = Tracer()
    tracer.spans = bad
    check = tracer.tree_check()
    assert (check["misplaced"], check["negative_self"], check["orphans"]) == (2, 1, 0)


def test_tail_is_highest_value_with_ten_beyond_it():
    assert tail_index(11) == 0
    assert tail_index(100) == 89
    metrics = percentile_metrics({"layer": [float(i) for i in range(1, 101)]})
    assert metrics["layer.tail_ms"] == 90.0
    assert sum(1 for v in range(1, 101) if v > metrics["layer.tail_ms"]) == 10
    assert percentile_metrics({"layer": []}) == {"layer.p50_ms": 0.0, "layer.tail_ms": 0.0}


def test_pool_thread_spans_are_children_of_the_waiting_span():
    tracer = Tracer()
    leaf = tracer.wrap_call("leaf", lambda: None)

    def runner():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap_call("runner", runner)()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("runner", -1), ("leaf", 0)]


def test_concurrent_spans_and_counters_lose_no_update():
    tracer = Tracer()
    threads, calls = 8, 500

    class Result:
        values = (1, 2, 3)

    inner = tracer.wrap_call("spectral.eigenvalues", lambda: Result)
    outer = tracer.wrap_call("outer", lambda: inner())

    def work():
        for _ in range(calls):
            outer()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counters["spectral.eigenvalues.values_returned"] == 3 * threads * calls
    children = [0] * len(tracer.spans)
    for span in tracer.spans:
        if span.name == "spectral.eigenvalues":
            assert tracer.spans[span.parent].name == "outer"
            children[span.parent] += 1
    assert sorted(set(c for s, c in zip(tracer.spans, children) if s.name == "outer")) == [1]


def test_generator_span_counts_items_and_covers_only_resumptions():
    tracer = Tracer()
    gen = tracer.wrap_generator("g", lambda n: iter(range(n)))
    assert list(gen(3)) == [0, 1, 2]
    assert tracer.counters["g.yielded"] == 3
    (span,) = tracer.spans
    assert len(span.intervals) == 4          # three items and the final StopIteration


# -- wrapping ----------------------------------------------------------------

def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for _, m, a, _ in TARGETS}


def test_traced_run_restores_every_wrapped_name(tmp_path):
    from dwigner import cli

    before = _originals()
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    try:
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a), fn in before.items())
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(WORKLOADS["verify-exact"].warmup)
                            + ["--out", str(tmp_path / "v.json")])
            code |= cli.main(list(WORKLOADS["fluct-super"].warmup)
                             + ["--out", str(tmp_path / "f.json")])
    finally:
        tracer.restore()
    assert code == 0
    assert _originals() == before
    check = tracer.tree_check()
    assert check["orphans"] == 1             # the second cli.main is a second root
    assert (check["misplaced"], check["negative_self"]) == (0, 0)
    metrics = tracer.layer_metrics()
    assert metrics["ensembles.sample.calls"] == 2
    assert metrics["spectral.eigenvalues.values_returned"] == 16
    assert metrics["path_model.canonical_closed_paths.yielded"] > 0

    traced = {"layers": metrics, "durations_ms": tracer.durations_ms(), "wall_s": 1.0}
    emitted = set(layer_values([traced], [0.5], [CORRESPONDENCE_CASES]))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert set(metric_units(HERE.parent)[0]) == {m["name"] for m in spec["end_to_end"]}


def test_untraced_run_records_nothing(tmp_path):
    from dwigner import cli

    tracer = Tracer()
    tracer.install()
    tracer.restore()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(WORKLOADS["census-full"].warmup) + ["--out", str(tmp_path / "c.json")])
    assert tracer.spans == []


# -- correctness checks ------------------------------------------------------

def _summary_records(summary):
    return [{"sample": "summary", "statistic": k, "value": v} for k, v in summary.items()]


FLUCT_SAMPLES = int(WORKLOADS["fluct-super"].argv[-1])


def _fluct_report(mean=2.5, devs=None):
    devs = [0.1] * FLUCT_SAMPLES if devs is None else devs
    records = [{"sample": i, "statistic": "sqrt_n_dev_1", "value": d} for i, d in enumerate(devs)]
    return {"records": records + _summary_records({"ks_statistic": 0.1,
                                                   "mean_lambda_1": mean})}


def _census_report(violations=0, ks=0.01, mean=2.51):
    return {"records": _summary_records({"total_interlacing_violations": violations,
                                         "max_esd_ks": ks, "mean_lambda_1": mean})}


def _oracle_report(within=True, probe=(0.1, 0.08, 0.06, 0.05)):
    records = [{"sample": "probe", "statistic": f"delta_n_{n}", "value": d}
               for n, d in zip(range(3, 7), probe)]
    return {"records": records + _summary_records(
        {"oracle": 752.75, "mc_mean": 750.0, "mc_se": 3.0, "within_4_se": within})}


def _verify_report(failed=(), cases=CORRESPONDENCE_CASES):
    names = ["trajectory_counts", "sum_identity", "correspondence_roundtrip",
             "surgery_bijection", "gluing_preimage_bound", "lemma73_class_bound",
             "lemma77_exp_moment", "dyck_roundtrip", "ballot_counts", "max_level_pmf"]
    records = []
    for name in names:
        params = {"cases": cases} if name == "correspondence_roundtrip" else {}
        records.append({"check": name, "params": params, "pass": name not in failed,
                        "counterexample": None})
    return {"records": records}


def test_good_reports_pass():
    assert check(WORKLOADS["fluct-super"], 0, _fluct_report()) == (1, [])
    assert check(WORKLOADS["census-full"], 0, _census_report()) == (1, [])
    assert check(WORKLOADS["oracle-mc"], 0, _oracle_report()) == (1, [])
    assert check(WORKLOADS["verify-exact"], 0, _verify_report()) == (10, [])


def test_each_check_fails_on_a_bad_report():
    bad = [
        ("fluct-super", 0, _fluct_report(mean=2.7)),
        ("fluct-super", 0, _fluct_report(devs=[0.1] * (FLUCT_SAMPLES - 1) + [math.nan])),
        ("fluct-super", 0, _fluct_report(devs=[0.1] * (FLUCT_SAMPLES - 1))),
        ("fluct-super", 1, _fluct_report()),
        ("census-full", 0, _census_report(violations=1)),
        ("census-full", 0, _census_report(ks=0.031)),
        ("census-full", 0, _census_report(mean=2.0)),
        ("oracle-mc", 0, _oracle_report(within=False)),
        ("oracle-mc", 0, _oracle_report(probe=(0.1, math.inf, 0.06, 0.05))),
        ("oracle-mc", None, None),
    ]
    for name, code, report in bad:
        attempted, problems = check(WORKLOADS[name], code, report)
        assert (attempted, len(problems)) == (1, 1), (name, report)


def test_verify_counts_each_failed_check():
    attempted, problems = check(WORKLOADS["verify-exact"], 1,
                                _verify_report(failed=("ballot_counts",)))
    assert (attempted, len(problems)) == (10, 1)
    assert problems[0].startswith("ballot_counts")
    attempted, problems = check(WORKLOADS["verify-exact"], 1,
                                _verify_report(failed=("ballot_counts", "dyck_roundtrip")))
    assert (attempted, len(problems)) == (10, 2)
    attempted, problems = check(WORKLOADS["verify-exact"], 0,
                                _verify_report(cases=CORRESPONDENCE_CASES - 1))
    assert (attempted, len(problems)) == (10, 1)
    assert len(check(WORKLOADS["verify-exact"], None, None)[1]) == 10
