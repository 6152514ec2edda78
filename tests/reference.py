"""Second routes that the tests compare the library against, and helpers
that only tests use.

No subcommand, verify check or oracle path needs these, so they live outside
the package.

``symbolic_trace_expectation`` is the independent second route to
``moment_oracle.exact_trace_expectation``: it multiplies out M**L over a
polynomial ring in the entry variables and applies the moment map term by
term. ``tally_edges`` is the dict walk that the marks kernel
``path_model.instant_marks`` is checked against, and ``nonneg_walks`` the
reflection count from any start height that ``sample_trajectory`` reads.
``enumerate_trajectories_recursive`` is the depth-first enumerator whose
order ``path_model.trajectory_rows`` must reproduce row for row.
``closed_path_tuples`` flattens the arrays of
``path_model.canonical_closed_paths`` into closed vertex tuples for the tests
that read paths one at a time. Paths here are closed vertex tuples and walks
tuples of +-1 steps. ``surgery_reference``, ``glue_reference`` and
``k_statistic_reference`` are the per-pair tuple algorithms that the row forms
``correspondence.trajectory_surgery``, ``glue_paths`` and ``k_statistic``
replaced, and ``preimage_census_reference`` is the dict-counting census that
``correspondence.preimage_bound_check`` must reproduce. ``dyck_failed_checks_mask`` is the
block-by-time mask form of the row checks of ``dyck_stats.dyck_decompose_rows``,
which now reads each block's lowest height and the running maximum of the
block ends instead. ``wigner_stack_reference`` is the mirror-sum assembly
that ``ensembles._wigner_stack`` replaced with its in-place fill.
``zhetrd_2stage_reference`` is the one-call Fortran ``zhetrd_2stage`` whose
two stages ``spectral.tridiagonal`` calls one at a time.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from fractions import Fraction
from itertools import accumulate, pairwise

import numpy as np

from dwigner import ensembles, spectral
from dwigner.ensembles import MatrixSample
from dwigner.moment_oracle import MomentModel
from dwigner.path_model import (
    ENUMERATION_STEP_CAP,
    EnumerationLimitError,
    canonical_closed_paths,
)

__all__ = [
    "symbolic_trace_expectation",
    "trace_power_dense",
    "tally_edges",
    "nonneg_walks",
    "enumerate_trajectories_recursive",
    "closed_path_tuples",
    "dyck_failed_checks_mask",
    "sample_trajectory",
    "trajectory_from_string",
    "has_marked_origin",
    "edge_keys",
    "levels_of",
    "surgery_reference",
    "glue_reference",
    "k_statistic_reference",
    "preimage_census_reference",
    "wigner_stack_reference",
    "zhetrd_2stage_reference",
]


# --- independent symbolic route -------------------------------------------
#
# Polynomials are dicts monomial -> coefficient, a monomial being a sorted
# tuple of ((i, j, conjugated), exponent) entry variables.


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            merged: dict = {}
            for var, e in itertools.chain(m1, m2):
                merged[var] = merged.get(var, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def symbolic_trace_expectation(n: int, power: int, model: MomentModel, theta: float) -> float:
    """Second route: expand Tr M**power over a polynomial ring, then take
    expectations monomial by monomial."""
    if n**power > 100_000:
        raise ValueError("symbolic route is for desk-scale inputs only")
    t = theta / n
    inv = 1.0 / math.sqrt(n)
    is_complex = model.is_complex

    def entry(i: int, j: int) -> dict:
        if i == j:
            var = (i, i, False)
        elif i < j:
            var = (i, j, False)
        else:
            var = (j, i, is_complex)
        return {(): t, ((var, 1),): inv}

    matrix = [[entry(i, j) for j in range(n)] for i in range(n)]
    acc = matrix
    for _ in range(power - 1):
        nxt = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if not acc[i][k]:
                    continue
                for j in range(n):
                    prod = _poly_mul(acc[i][k], matrix[k][j])
                    cell = nxt[i][j]
                    for mono, c in prod.items():
                        cell[mono] = cell.get(mono, 0.0) + c
        acc = nxt
    trace_poly: dict = {}
    for i in range(n):
        for mono, c in acc[i][i].items():
            trace_poly[mono] = trace_poly.get(mono, 0.0) + c

    terms = []
    for mono, coeff in trace_poly.items():
        exps: dict[tuple[int, int], list[int]] = {}
        for (i, j, conj), e in mono:
            slot = exps.setdefault((i, j), [0, 0])
            slot[1 if conj else 0] += e
        w = coeff
        for (i, j), (a, b) in exps.items():
            w *= model.diag_moment(a + b) if i == j else model.offdiag_joint(a, b)
        terms.append(w)
    return math.fsum(terms)


def trace_power_dense(m: MatrixSample, power: int) -> float:
    """Independent route: trace of the explicit repeated matrix product."""
    if power < 1:
        raise ValueError("power must be >= 1")
    acc = m.entries
    for _ in range(power - 1):
        acc = acc @ m.entries
    return float(np.trace(acc).real)


def wigner_stack_reference(config, indices) -> np.ndarray:
    """The stack of ``ensembles._wigner_stack`` from the same draws, assembled
    by the mirror sum: the (complex) upper triangle scattered into a zeroed
    stack ``w``, then ``conj(w^T) + w``, then the diagonal.

    The draws come through ``ensembles._law_draws``, looked up at each call,
    so a test that patches the draws patches both routes.
    """
    n = config.n
    n_off = n * (n - 1) // 2
    k_off = 2 * n_off if config.is_complex else n_off
    off_std = config.sigma / math.sqrt(2.0) if config.is_complex else config.sigma
    draws = ensembles._law_draws(config, indices, ((k_off, off_std), (n, config.diag_sigma)))
    if config.is_complex:
        upper = draws[:, :n_off] + 1j * draws[:, n_off:k_off]
    else:
        upper = draws[:, :n_off]
    w = np.zeros((len(indices), n, n), dtype=upper.dtype)
    rows, cols = np.triu_indices(n, 1)
    w[:, rows, cols] = upper
    m = np.conjugate(w.swapaxes(1, 2)) + w
    d = np.arange(n)
    m[:, d, d] = draws[:, k_off:]
    return m


def edge_keys(verts: tuple[int, ...]) -> list[tuple[int, int]]:
    """Unordered edges of instants j = 1..L of a closed path, smaller label first."""
    return [(a, b) if a <= b else (b, a) for a, b in pairwise(verts)]


def levels_of(steps: tuple[int, ...]) -> tuple[int, ...]:
    """Heights x(0), ..., x(L) of a walk."""
    return tuple(accumulate(steps, initial=0))


def tally_edges(
    verts: tuple[int, ...],
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int], list[bool]]:
    """One pass over the edge keys: the keys of instants j = 1..L, each edge's
    traversal count (in first-traversal order) and the marks of the instants."""
    keys = edge_keys(verts)
    counts: dict[tuple[int, int], int] = {}
    marks = []
    for key in keys:
        c = counts.get(key, 0) + 1
        counts[key] = c
        marks.append(c % 2 == 1)
    return keys, counts, marks


def nonneg_walks(height: int, ups: int, downs: int) -> int:
    """Walks of ``ups`` up and ``downs`` down steps from ``height`` that stay
    nonnegative: all orderings minus the reflected ones (reflection principle)."""
    total = ups + downs
    reflected = downs - height - 1
    return math.comb(total, downs) - (math.comb(total, reflected) if reflected >= 0 else 0)


def enumerate_trajectories_recursive(m: int, l: int) -> list[tuple[int, ...]]:
    """All trajectories of the (m, l) class, duplicate-free, ups first."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    if l + 2 * m > ENUMERATION_STEP_CAP:
        raise EnumerationLimitError(
            f"enumeration of {l + 2 * m} steps exceeds the cap {ENUMERATION_STEP_CAP}"
        )
    out: list[tuple[int, ...]] = []
    steps: list[int] = []

    def rec(ups: int, downs: int, height: int) -> None:
        if ups == 0 and downs == 0:
            out.append(tuple(steps))
            return
        if ups > 0:
            steps.append(1)
            rec(ups - 1, downs, height + 1)
            steps.pop()
        if downs > 0 and height > 0:
            steps.append(-1)
            rec(ups, downs - 1, height - 1)
            steps.pop()

    rec(l + m, m, 0)
    return out


def closed_path_tuples(length: int, max_vertices: int) -> list[tuple[int, ...]]:
    """The rows of ``canonical_closed_paths``, in order, as closed vertex tuples."""
    return [tuple(verts) for rows in canonical_closed_paths(length, max_vertices)
            for verts in rows.tolist()]


def _rebuilt_rows_mask(steps: np.ndarray, rises: np.ndarray, starts: np.ndarray,
                       ends: np.ndarray) -> np.ndarray:
    """The rows that the rises and blocks spell out: each block's steps in
    place, up steps everywhere else."""
    kept = rises > 0
    kept[:, 0] = True
    t = np.arange(steps.shape[1])
    in_block = (kept[:, :, None] & (starts[:, :, None] <= t) & (t < ends[:, :, None])).any(axis=1)
    return np.where(in_block, steps, np.int8(1))


def dyck_failed_checks_mask(steps, levels, kept, rises, starts, ends) -> np.ndarray:
    """(N, 4) bool array of the failed row checks, from an (N, l + 1, L + 1)
    mask of every block against every time."""
    t = np.arange(steps.shape[1] + 1)
    base = np.take_along_axis(levels, starts, axis=1)
    in_block = kept[:, :, None] & (starts[:, :, None] <= t) & (t <= ends[:, :, None])
    return np.column_stack((
        (kept[:, 1:] & (rises[:, 1:] < 1)).any(axis=1),
        (in_block & (levels[:, None, :] < base[:, :, None])).any(axis=(1, 2))
        | (kept & (np.take_along_axis(levels, ends, axis=1) != base)).any(axis=1),
        (kept[:, 1:-1] & (ends[:, 1:-1] <= starts[:, 1:-1])).any(axis=1),
        (_rebuilt_rows_mask(steps, rises, starts, ends) != steps).any(axis=1),
    ))


def sample_trajectory(m: int, l: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform draw from the (m, l) class by exact sequential counting."""
    ups, downs, h = l + m, m, 0
    steps = []
    while ups + downs > 0:
        n_up = nonneg_walks(h + 1, ups - 1, downs) if ups > 0 else 0
        n_down = nonneg_walks(h - 1, ups, downs - 1) if downs > 0 and h > 0 else 0
        p_up = float(Fraction(n_up, n_up + n_down))
        if rng.random() < p_up:
            steps.append(1)
            ups -= 1
            h += 1
        else:
            steps.append(-1)
            downs -= 1
            h -= 1
    return tuple(steps)


def trajectory_from_string(text: str) -> tuple[int, ...]:
    text = text.strip().upper()
    if any(ch not in "UD" for ch in text):
        raise ValueError("trajectory string must contain only U and D")
    return tuple(1 if ch == "U" else -1 for ch in text)


def has_marked_origin(verts: tuple[int, ...], steps: tuple[int, ...]) -> bool:
    """True when some marked instant lands on the origin; ``steps`` is the
    path's trajectory."""
    return (1, verts[0]) in zip(steps, verts[1:])


def surgery_reference(steps: tuple[int, ...], p: int, cut_time: int) -> tuple[int, ...]:
    """Reverse-and-flip the tail of one rotated walk after ``cut_time``."""
    length = len(steps)
    heights = levels_of(steps)
    l = heights[-1]
    if p < 0:
        raise ValueError("p must be nonnegative")
    if not 0 <= cut_time < length:
        raise ValueError("cut_time outside [0, L)")
    if steps[-1] != 1:
        raise ValueError("rotated trajectories end with an up step")
    if heights[cut_time] != l + p - 1:
        raise ValueError("level at cut_time is not l + p - 1")
    if any(h < l - 1 for h in heights[cut_time:]):
        raise ValueError("trajectory dips below l - 1 after the cut")
    return steps[:cut_time] + (1,) + tuple(-s for s in reversed(steps[cut_time:length - 1]))


def glue_reference(p1: tuple[int, ...], p2: tuple[int, ...]) -> tuple[int, ...]:
    """Merge two closed paths of equal length across their first shared edge."""
    if len(p1) != len(p2):
        raise ValueError("paths must have the same length")
    if len(p1) < 3:
        raise ValueError("gluing needs length >= 2")
    edges2: dict[tuple[int, int], int] = {}
    for t, key in enumerate(edge_keys(p2)):
        edges2.setdefault(key, t)
    keys1 = edge_keys(p1)
    t1 = next((t for t, key in enumerate(keys1) if key in edges2), None)
    if t1 is None:
        raise ValueError("paths share no edge (uncorrelated pair)")
    v, w = p1[t1], p1[t1 + 1]
    t2 = edges2[keys1[t1]]
    a2, b2 = p2[t2], p2[t2 + 1]
    # Cycle of p2 with the shared traversal removed: walk from b2 around to a2.
    base2 = list(p2[:-1])
    order = base2[t2 + 1:] + base2[:t2 + 1]
    walk = list(reversed(order)) if (a2, b2) == (v, w) else order
    return tuple(list(p1[: t1 + 1]) + walk[1:] + list(p1[t1 + 2:]))


def k_statistic_reference(steps: tuple[int, ...], window: int) -> int:
    """Window starts tau in [0, L - window + 1] whose window stays at or above x(tau)."""
    heights = levels_of(steps)
    total = len(steps)
    if window < 1 or window > total + 1:
        raise ValueError("window must lie in [1, length + 1]")
    return sum(all(h >= heights[tau] for h in heights[tau: tau + window])
               for tau in range(0, total - window + 2))


def preimage_census_reference(length: int, vertex_budget: int) -> dict:
    """The gluing census pair by pair: glued paths counted in a dict in order of
    first occurrence, each checked against ``2 L * k_statistic_reference``."""
    paths = [combo + (combo[0],)
             for combo in itertools.product(range(1, vertex_budget + 1), repeat=length)]
    edge_sets = [set(edge_keys(p)) for p in paths]
    counts: dict[tuple[int, ...], int] = {}
    pairs = 0
    for pa, keys_a in zip(paths, edge_sets):
        for pb, keys_b in zip(paths, edge_sets):
            if keys_a.isdisjoint(keys_b):
                continue
            pairs += 1
            glued = glue_reference(pa, pb)
            counts[glued] = counts.get(glued, 0) + 1
    violations = []
    worst_ratio = 0.0
    for verts, c in counts.items():
        steps = tuple(1 if marked else -1 for marked in tally_edges(verts)[2])
        bound = 2 * length * k_statistic_reference(steps, length)
        worst_ratio = max(worst_ratio, c / bound)
        if c > bound:
            violations.append({"glued": ",".join(map(str, verts)), "preimages": c, "bound": bound})
    return {
        "length": length,
        "vertex_budget": vertex_budget,
        "correlated_pairs": pairs,
        "distinct_glued": len(counts),
        "max_ratio": worst_ratio,
        "violations": violations,
        "pass": not violations,
    }


def zhetrd_2stage_reference(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, e)`` of the C-ordered complex128 Hermitian ``b`` from one call of
    the Fortran ``zhetrd_2stage`` (``VECT = 'N'``, ``UPLO = 'L'``, a
    workspace query first) on one OpenBLAS thread; overwrites ``b``."""
    routine = spectral._openblas().scipy_zhetrd_2stage_64_
    ref = ctypes.POINTER(ctypes.c_int64)
    routine.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ref, ctypes.c_void_p, ref,
                        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ref,
                        ctypes.c_void_p, ref, ref, ctypes.c_size_t, ctypes.c_size_t]
    routine.restype = None
    n, info = ctypes.c_int64(len(b)), ctypes.c_int64(0)
    d, e = np.empty(len(b)), np.empty(max(len(b) - 1, 0))
    tau = np.empty(max(len(b) - 1, 1), np.complex128)

    def call(hous2: np.ndarray, work: np.ndarray, query: bool) -> None:
        lhous2 = ctypes.c_int64(-1 if query else hous2.size)
        lwork = ctypes.c_int64(-1 if query else work.size)
        routine(b"N", b"L", ctypes.byref(n), b.ctypes.data, ctypes.byref(n), d.ctypes.data,
                e.ctypes.data, tau.ctypes.data, hous2.ctypes.data, ctypes.byref(lhous2),
                work.ctypes.data, ctypes.byref(lwork), ctypes.byref(info), 1, 1)
        assert info.value == 0, info.value

    hous2, work = np.zeros(1, np.complex128), np.zeros(1, np.complex128)
    with spectral.one_blas_thread:
        call(hous2, work, query=True)
        call(np.empty(max(1, int(hous2[0].real)), np.complex128),
             np.empty(max(1, int(work[0].real)), np.complex128), query=False)
    return d, e
