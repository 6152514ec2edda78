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
that read paths one at a time. ``dyck_failed_checks_mask`` is the
block-by-time mask form of the row checks of ``dyck_stats.dyck_decompose_rows``,
which now reads each block's lowest height and the running maximum of the
block ends instead.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from dwigner.ensembles import MatrixSample
from dwigner.moment_oracle import MomentModel
from dwigner.path_model import (
    ENUMERATION_STEP_CAP,
    ClosedPath,
    EnumerationLimitError,
    Trajectory,
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
    is_complex = model.symmetry.is_complex

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


def tally_edges(
    path: ClosedPath,
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int], list[bool]]:
    """One pass over the edge keys: the keys of instants j = 1..L, each edge's
    traversal count (in first-traversal order) and the marks of the instants."""
    keys = path.edge_keys()
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


def enumerate_trajectories_recursive(m: int, l: int) -> list[Trajectory]:
    """All trajectories of the (m, l) class, duplicate-free, ups first."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    if l + 2 * m > ENUMERATION_STEP_CAP:
        raise EnumerationLimitError(
            f"enumeration of {l + 2 * m} steps exceeds the cap {ENUMERATION_STEP_CAP}"
        )
    out: list[Trajectory] = []
    steps: list[int] = []

    def rec(ups: int, downs: int, height: int) -> None:
        if ups == 0 and downs == 0:
            out.append(Trajectory(tuple(steps)))
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


def sample_trajectory(m: int, l: int, rng: np.random.Generator) -> Trajectory:
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
    return Trajectory(tuple(steps))


def trajectory_from_string(text: str) -> Trajectory:
    text = text.strip().upper()
    if any(ch not in "UD" for ch in text):
        raise ValueError("trajectory string must contain only U and D")
    return Trajectory(tuple(1 if ch == "U" else -1 for ch in text))


def has_marked_origin(path: ClosedPath, traj: Trajectory) -> bool:
    """True when some marked instant lands on the origin; ``traj`` is
    ``trajectory_of(path)``."""
    return (1, path.vertices[0]) in zip(traj.steps, path.vertices[1:])
