"""In-memory span tracer that wraps dwigner functions from outside the package.

A span is recorded around each call made through a wrapped name. Each span
keeps its parent, so self time (a span's duration minus the part of it that
its child spans cover) can be computed after the run. Wrapping replaces the
attribute a caller looks up (``experiments.eigenvalues``,
``correspondence.to_marked_origin``, ...) and ``Tracer.restore`` puts every
original object back, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import importlib
import threading
import time
from bisect import bisect_right
from collections import defaultdict

# (span name, module the caller looks the name up in, attribute, kind).
# kind "gen" marks a generator function: its span is the union of the
# intervals spent inside the generator, one per item produced.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("cli.main", "dwigner.cli", "main", "call"),
    ("experiments.runner", "dwigner.cli", "run_fluctuations", "call"),
    ("experiments.runner", "dwigner.cli", "run_trace_growth", "call"),
    ("experiments.runner", "dwigner.cli", "run_spectrum_census", "call"),
    ("experiments.runner", "dwigner.cli", "run_oracle_compare", "call"),
    ("experiments.runner", "dwigner.cli", "run_combinatorics_verify", "call"),
    ("experiments.write_report", "dwigner.cli", "write_report", "call"),
    ("ensembles.sample", "dwigner.experiments", "sample_deformed", "call"),
    ("ensembles.sample", "dwigner.experiments", "sample_wigner", "call"),
    ("spectral.eigenvalues", "dwigner.experiments", "eigenvalues", "call"),
    ("spectral.interlacing_check", "dwigner.experiments", "interlacing_check", "call"),
    ("spectral.outlier_census", "dwigner.experiments", "outlier_census", "call"),
    ("experiments.ks_statistic", "dwigner.experiments", "ks_statistic", "call"),
    ("experiments.mc_trace_moments", "dwigner.experiments", "mc_trace_moments", "call"),
    ("moment_oracle.exact_trace_expectation", "dwigner.experiments",
     "exact_trace_expectation", "call"),
    ("moment_oracle.exact_trace_expectation", "dwigner.moment_oracle",
     "exact_trace_expectation", "call"),
    ("moment_oracle.trace_universality_probe", "dwigner.experiments",
     "trace_universality_probe", "call"),
    ("experiments.verify.trajectory_counts", "dwigner.experiments",
     "_check_trajectory_counts", "call"),
    ("experiments.verify.sum_identity", "dwigner.experiments", "_check_sum_identity", "call"),
    ("experiments.verify.correspondence_roundtrip", "dwigner.experiments",
     "_check_correspondence", "call"),
    ("experiments.verify.surgery_bijection", "dwigner.experiments", "_check_surgery", "call"),
    ("experiments.verify.gluing_preimage_bound", "dwigner.experiments", "_check_gluing", "call"),
    ("experiments.verify.lemma73_class_bound", "dwigner.experiments", "_check_lemma73", "call"),
    ("experiments.verify.lemma77_exp_moment", "dwigner.experiments", "_check_lemma77", "call"),
    ("experiments.verify.dyck_roundtrip", "dwigner.experiments",
     "_check_dyck_roundtrip", "call"),
    ("experiments.verify.ballot_counts", "dwigner.experiments", "_check_ballot", "call"),
    ("experiments.verify.max_level_pmf", "dwigner.experiments", "_check_max_pmf", "call"),
    ("path_model.canonical_closed_paths", "dwigner.path_model", "canonical_closed_paths", "gen"),
    ("path_model.trajectory_of", "dwigner.path_model", "trajectory_of", "call"),
    ("path_model.trajectory_of", "dwigner.correspondence", "trajectory_of", "call"),
    ("path_model.enumerate_trajectories", "dwigner.path_model",
     "enumerate_trajectories", "call"),
    ("correspondence.to_marked_origin", "dwigner.correspondence", "to_marked_origin", "call"),
    ("correspondence.from_marked_origin", "dwigner.correspondence",
     "from_marked_origin", "call"),
    ("correspondence.edge_multiset", "dwigner.correspondence", "edge_multiset", "call"),
    ("correspondence.preimage_bound_check", "dwigner.correspondence",
     "preimage_bound_check", "call"),
    ("dyck_stats.tail_bound_check", "dwigner.dyck_stats", "tail_bound_check", "call"),
    ("dyck_stats.class_count_bound_check", "dwigner.dyck_stats",
     "class_count_bound_check", "call"),
    ("dyck_stats.dyck_decompose", "dwigner.dyck_stats", "dyck_decompose", "call"),
    ("dyck_stats.max_level_distribution", "dwigner.dyck_stats",
     "max_level_distribution", "call"),
)

# Counters fed from a wrapped call's result: (counter name, span name, f(result)).
RESULT_COUNTERS = (
    ("ensembles.bytes_computed", "ensembles.sample", lambda m: m.entries.nbytes),
    ("spectral.eigenvalues.values_returned", "spectral.eigenvalues", lambda s: len(s.values)),
)

# Counts that depend only on the workload shape; they must repeat exactly.
EXACT_COUNTS = (
    "ensembles.sample.calls",
    "spectral.eigenvalues.calls",
    "spectral.eigenvalues.values_returned",
    "path_model.canonical_closed_paths.yielded",
    "correspondence.to_marked_origin.calls",
    "moment_oracle.exact_trace_expectation.calls",
)

TIMED = ("ensembles.sample", "spectral.eigenvalues")  # calls, self_s, p50_ms, tail_ms
CALLED = ("experiments.ks_statistic", "moment_oracle.exact_trace_expectation",
          "path_model.trajectory_of", "correspondence.to_marked_origin")  # calls, self_s
SELF_ONLY = (
    "spectral.interlacing_check", "spectral.outlier_census", "experiments.runner",
    "experiments.mc_trace_moments", "experiments.write_report",
    "moment_oracle.trace_universality_probe", "path_model.canonical_closed_paths",
    "path_model.enumerate_trajectories", "correspondence.from_marked_origin",
    "correspondence.edge_multiset", "correspondence.preimage_bound_check",
    "dyck_stats.tail_bound_check", "dyck_stats.class_count_bound_check",
    "dyck_stats.dyck_decompose", "dyck_stats.max_level_distribution", "cli.main",
)
NEGATIVE_SELF_S = -1e-6
VERIFY_CHECKS = tuple(name.split(".")[-1] for name, *_ in TARGETS
                      if name.startswith("experiments.verify."))


class Span:
    """One call: name, parent index (-1 for none) and its time intervals.

    A plain call has one interval; a generator has one per item it produced.
    """

    __slots__ = ("name", "parent", "intervals")

    def __init__(self, name: str, parent: int, intervals: list[tuple[float, float]]):
        self.name = name
        self.parent = parent
        self.intervals = intervals

    @property
    def duration(self) -> float:
        return sum(b - a for a, b in self.intervals)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> tuple[list[float], float]:
    """Self time of every span and the total concurrency excess.

    The excess is, summed over parents, the child time that ran in parallel
    with a sibling: sum(child durations) - union(child intervals). For a
    well-formed tree the self times minus the excess add up to the roots'
    durations.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    child_sum: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].extend(span.intervals)
            child_sum[span.parent] += span.duration
    out = []
    excess = 0.0
    for idx, span in enumerate(spans):
        covered = union_length(children[idx]) if idx in children else 0.0
        excess += child_sum.get(idx, 0.0) - covered
        out.append(span.duration - covered)
    return out, excess


def misplaced(spans: list[Span]) -> int:
    """Spans with an interval that lies outside every interval of their parent.

    A span's intervals are recorded in time order and do not overlap, so the
    one parent interval that can hold a child interval is found by bisection.
    """
    bad = 0
    for span in spans:
        if span.parent < 0:
            continue
        outer = spans[span.parent].intervals
        for a, b in span.intervals:
            i = bisect_right(outer, a, key=lambda iv: iv[0]) - 1
            if i < 0 or b > outer[i][1]:
                bad += 1
                break
    return bad


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest value with >= 10 values beyond it."""
    return max(n - 11, 0)


def percentile_metrics(durations_ms: dict[str, list[float]]) -> dict[str, float]:
    """``<layer>.p50_ms`` and ``<layer>.tail_ms`` from per-call durations (0 if none)."""
    out = {}
    for name, values in durations_ms.items():
        ordered = sorted(values)
        out[f"{name}.p50_ms"] = ordered[len(ordered) // 2] if ordered else 0.0
        out[f"{name}.tail_ms"] = ordered[tail_index(len(ordered))] if ordered else 0.0
    return out


class Tracer:
    """Records spans for calls made through the names it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._lock = threading.Lock()   # pool threads share spans and counters
        self._local = threading.local()
        self._main_stack: list[int] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if self._main_stack is None:
                self._main_stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A span opened on a pool thread belongs to whatever the thread that
        # started the run is waiting in.
        main = self._main_stack
        return main[-1] if main else -1

    def _open(self, name: str, stack: list[int]) -> tuple[Span, int]:
        span = Span(name, self._parent(stack), [])
        with self._lock:
            self.spans.append(span)
            return span, len(self.spans) - 1

    def _count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrappers ---------------------------------------------------------
    def wrap_call(self, name: str, fn):
        counters = [(cname, f) for cname, sname, f in RESULT_COUNTERS if sname == name]

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span, idx = self._open(name, stack)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.intervals.append((start, time.perf_counter()))
                stack.pop()
            for cname, f in counters:
                self._count(cname, f(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn):
        yielded = f"{name}.yielded"

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span, idx = self._open(name, stack)
            inner = fn(*args, **kwargs)
            while True:
                stack.append(idx)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    span.intervals.append((start, time.perf_counter()))
                    stack.pop()
                self._count(yielded, 1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ------------------------------------------------
    def install(self) -> None:
        for name, module_name, attr, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = self.wrap_generator if kind == "gen" else self.wrap_call
            self._patches.append((module, attr, original))
            setattr(module, attr, wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- metrics ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, except the percentiles."""
        selfs, _ = self_times(self.spans)
        by_name: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            by_name[span.name].append(idx)

        def self_s(name):
            return sum(selfs[i] for i in by_name.get(name, ()))

        out: dict[str, float] = {}
        for name in TIMED + CALLED:
            out[f"{name}.calls"] = len(by_name.get(name, ()))
            out[f"{name}.self_s"] = self_s(name)
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s(name)
        for check in VERIFY_CHECKS:
            out[f"experiments.verify.{check}.self_s"] = self_s(f"experiments.verify.{check}")
        for cname, _, _ in RESULT_COUNTERS:
            out[cname] = self.counters.get(cname, 0)
        out["path_model.canonical_closed_paths.yielded"] = self.counters.get(
            "path_model.canonical_closed_paths.yielded", 0)
        out["experiments.pool.overlap"] = self.pool_overlap()
        return out

    def durations_ms(self) -> dict[str, list[float]]:
        """Per-call durations of the layers whose percentiles are reported."""
        out: dict[str, list[float]] = {name: [] for name in TIMED}
        for span in self.spans:
            if span.name in out:
                out[span.name].append(span.duration * 1e3)
        return out

    def pool_overlap(self) -> float:
        """Sum of the runner's child span time over the runner's wall time."""
        runners = {i for i, s in enumerate(self.spans) if s.name == "experiments.runner"}
        wall = sum(self.spans[i].duration for i in runners)
        busy = sum(s.duration for s in self.spans if s.parent in runners)
        return busy / wall if wall > 0 else 0.0

    def tree_check(self) -> dict:
        """Consistency of the span tree, as the benchmark checks it.

        ``balance_s`` is the sum of self times minus the concurrency excess;
        for a well-formed tree with one root it equals the root's duration.
        ``orphans`` counts roots beyond the first, ``misplaced`` the spans
        with an interval outside their parent's intervals, and
        ``negative_self`` the spans whose self time is below -1 us.
        """
        selfs, excess = self_times(self.spans)
        roots = sum(1 for s in self.spans if s.parent < 0)
        return {"balance_s": sum(selfs) - excess, "orphans": max(roots - 1, 0),
                "misplaced": misplaced(self.spans),
                "negative_self": sum(1 for v in selfs if v < NEGATIVE_SELF_S)}
