"""Weight-preserving path rotation, trajectory surgery and two-path gluing.

``to_marked_origin`` rotates each closed path with at least one odd edge and
a last step down so that it ends with the first traversal of its first odd
edge; the rotated path has a marked origin and a last step up, the same edge
multiplicities, and the same (m, l) class. The rotation and its inverse
``from_marked_origin`` work on arrays of paths, one path per row, and flag a
row they do not apply to with an error code instead of raising.
``trajectory_surgery`` is the companion transform on trajectories, mapping
the (rotated trajectory, cut instant) pair into the class with ``p`` fewer
down steps and end level ``l + 2p``. ``glue_paths`` merges two closed paths
across their first shared edge into one path of length ``2L - 2``, and
``k_statistic`` counts the window positions that control how many pairs can
glue to the same output.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .path_model import (
    ClosedPath,
    Trajectory,
    count_trajectories,
    edge_codes,
    instant_marks,
    trajectory_of,
)

__all__ = [
    "ROW_ERRORS",
    "raise_row_error",
    "to_marked_origin",
    "from_marked_origin",
    "trajectory_surgery",
    "verify_count_identity",
    "glue_paths",
    "k_statistic",
    "preimage_bound_check",
    "edge_multiset",
]


# Messages of the per-row error codes of the rotation; code 0 is no error.
ROW_ERRORS = (
    "",
    "path has a last step up; the rotation applies to last-step-down paths",
    "path has no odd edge (l = 0)",
    "shift_k outside [0, L)",
    "inconsistent (image, shift_k): not produced by to_marked_origin",
)


def raise_row_error(code: int) -> None:
    """Raise the ``ValueError`` of a nonzero per-row error code."""
    if code:
        raise ValueError(ROW_ERRORS[code])


def _rotate_rows(verts: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Closed paths whose edge sequences start at edge ``r + 1`` of each row."""
    length = verts.shape[1] - 1
    # i_r, ..., i_{L-1} then i_0, ..., i_r: the closing repeat is i_r itself.
    index = (np.asarray(r)[:, None] + np.arange(length + 1)) % length
    return np.take_along_axis(verts[:, :length], index, axis=1)


def edge_multiset(path: ClosedPath) -> dict[tuple[int, int], int]:
    """Traversal count of each edge, in first-traversal order."""
    return dict(Counter(path.edge_keys()))


def to_marked_origin(verts: np.ndarray):
    """Rotate last-step-down closed paths, the rows of an ``(N, L + 1)`` label
    array, to the marked-origin, last-step-up form.

    Returns ``(images, shift_k, level_p, error)``, one entry per row.
    ``shift_k`` is the number of steps of the source that follow the first
    traversal of its first odd edge, so the pair (image, shift_k) determines
    the source exactly; ``level_p`` is the number of edges opened but not yet
    closed just before that traversal. A row the rotation does not apply to
    gets the nonzero code of its first failing precondition in ``error`` (see
    ``ROW_ERRORS``) and meaningless values elsewhere; no row raises.
    """
    verts = np.asarray(verts)
    length = verts.shape[1] - 1
    marks, odd = instant_marks(edge_codes(verts))
    # The first instant on an odd edge is the first traversal of the first odd edge.
    j = odd.argmax(axis=1)  # that instant is j + 1
    error = np.where(marks[:, -1], 1, np.where(odd.any(axis=1), 0, 2))
    ups_before = (marks & (np.arange(length) < j[:, None])).sum(axis=1)
    level_p = 2 * ups_before - j  # height before instant j + 1
    return _rotate_rows(verts, j + 1), length - 1 - j, level_p, error


def from_marked_origin(images: np.ndarray, shift_k: np.ndarray):
    """Invert :func:`to_marked_origin` row by row: ``(sources, error)``.

    Each source is the image rotated back by its ``shift_k``; the forward map
    is applied to it again, and a row whose result differs from its
    ``(image, shift_k)`` gets an error code, as does a shift outside
    ``[0, L)`` or a source the forward map rejects (first failing check).
    """
    images, shift_k = np.asarray(images), np.asarray(shift_k)
    length = images.shape[1] - 1
    sources = _rotate_rows(images, shift_k)
    check_images, check_k, _, check_error = to_marked_origin(sources)
    consistent = (check_images == images).all(axis=1) & (check_k == shift_k)
    error = np.where((shift_k < 0) | (shift_k >= length), 3,
                     np.where(check_error != 0, check_error, np.where(consistent, 0, 4)))
    return sources, error


def trajectory_surgery(x_prime: Trajectory, p: int, cut_time: int) -> Trajectory:
    """Reverse-and-flip the tail of a rotated trajectory after ``cut_time``.

    ``x_prime`` must end with an up step, sit at level ``l + p - 1`` at
    ``cut_time`` and stay at or above ``l - 1`` afterwards (the shape every
    rotated path produces, with ``cut_time`` the instant its original origin
    occupies). The output has ``p`` fewer down steps, ends at ``l + 2p``, and
    first reaches level ``l + p`` at ``cut_time + 1`` without ever going
    below it again.
    """
    steps = x_prime.steps
    length = len(steps)
    l = x_prime.end_level
    if p < 0:
        raise ValueError("p must be nonnegative")
    if not 0 <= cut_time < length:
        raise ValueError("cut_time outside [0, L)")
    if steps[-1] != 1:
        raise ValueError("rotated trajectories end with an up step")
    heights = x_prime.levels()
    if heights[cut_time] != l + p - 1:
        raise ValueError(
            f"level at cut_time is {heights[cut_time]}, expected l + p - 1 = {l + p - 1}"
        )
    if any(h < l - 1 for h in heights[cut_time:]):
        raise ValueError("trajectory dips below l - 1 after the cut")
    out_steps = steps[:cut_time] + (1,) + tuple(-s for s in reversed(steps[cut_time:length - 1]))
    out = Trajectory(out_steps)
    # Sanity: class bookkeeping and the first-hitting marker property.
    if out.end_level != l + 2 * p:
        raise AssertionError("surgery output does not end at l + 2p")
    if out.down_steps != x_prime.down_steps - p:
        raise AssertionError("surgery output does not have p fewer down steps")
    out_heights = out.levels()
    target = l + p
    hit = next(
        t
        for t in range(length + 1)
        if out_heights[t] == target and all(h >= target for h in out_heights[t:])
    )
    if hit != cut_time + 1:
        raise AssertionError("first-hitting instant does not mark the cut")
    return out


def verify_count_identity(m: int, l: int) -> bool:
    """Exact identity sum_{p=1..m} T_{m-p, l+2p} = C(2s, m-1) = C(2s, m) - T_{m,l}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if l < 0 or l % 2 == 1:
        raise ValueError("l must be even and nonnegative (total length 2s)")
    total = l + 2 * m
    lhs = sum(count_trajectories(m - p, l + 2 * p) for p in range(1, m + 1))
    rhs = math.comb(total, m - 1)
    return lhs == rhs and rhs == math.comb(total, m) - count_trajectories(m, l)


def glue_paths(p1: ClosedPath, p2: ClosedPath) -> ClosedPath:
    """Merge two closed paths of equal length across their first shared edge.

    Reads ``p1`` up to the left endpoint of the first edge it shares with
    ``p2``, inserts the remainder of ``p2`` (reversed when the shared edge
    has the same orientation in both paths), and resumes ``p1``; the output
    has ``2L - 2`` steps and the union edge multiset minus two traversals of
    the shared edge.
    """
    if p1.length != p2.length:
        raise ValueError("paths must have the same length")
    if p1.length < 2:
        raise ValueError("gluing needs length >= 2")
    edges2: dict[tuple[int, int], int] = {}
    for t, key in enumerate(p2.edge_keys()):
        edges2.setdefault(key, t)
    keys1 = p1.edge_keys()
    t1 = next((t for t, key in enumerate(keys1) if key in edges2), None)
    if t1 is None:
        raise ValueError("paths share no edge (uncorrelated pair)")
    v, w = p1.vertices[t1], p1.vertices[t1 + 1]
    t2 = edges2[keys1[t1]]
    a2, b2 = p2.vertices[t2], p2.vertices[t2 + 1]
    # Cycle of p2 with the shared traversal removed: walk from b2 around to a2.
    base2 = list(p2.vertices[:-1])
    order = base2[t2 + 1:] + base2[:t2 + 1]  # starts at b2, ends at a2
    if (a2, b2) == (v, w):
        walk = list(reversed(order))  # same orientation: read p2 backwards, v -> w
    else:
        walk = order  # opposite orientation: forward read already goes v -> w
    if walk[0] != v or walk[-1] != w:
        raise AssertionError("inserted walk does not run between the shared edge's endpoints")
    glued = list(p1.vertices[: t1 + 1]) + walk[1:] + list(p1.vertices[t1 + 2:])
    return ClosedPath(vertices=tuple(glued), ambient_n=max(p1.ambient_n, p2.ambient_n))


def k_statistic(x: Trajectory, window: int) -> int:
    """Number of window starts whose whole window stays at or above its start.

    Counts tau in [0, L_o - window + 1] such that x(s) >= x(tau) for every
    s in [tau, tau + window - 1].
    """
    heights = x.levels()
    total = len(x.steps)
    if window < 1 or window > total + 1:
        raise ValueError("window must lie in [1, length + 1]")
    count = 0
    for tau in range(0, total - window + 2):
        h0 = heights[tau]
        if all(h >= h0 for h in heights[tau: tau + window]):
            count += 1
    return count


# Largest length and vertex budget of the exhaustive gluing census.
GLUE_CENSUS_GUARD = 5


def preimage_bound_check(length: int, vertex_budget: int) -> dict:
    """Exhaustive gluing census against the ``2L * K`` preimage bound.

    Enumerates every correlated ordered pair of closed paths of the given
    length over the vertex budget, glues each pair, and checks that no glued
    path has more preimage pairs than ``2 L * k_statistic(x, L)`` evaluated
    on its trajectory.
    """
    if length > GLUE_CENSUS_GUARD or vertex_budget > GLUE_CENSUS_GUARD:
        raise ValueError(f"census guard: length <= {GLUE_CENSUS_GUARD} "
                         f"and vertex_budget <= {GLUE_CENSUS_GUARD}")
    if length < 2:
        raise ValueError("gluing needs length >= 2")
    paths = [ClosedPath(vertices=combo + (combo[0],), ambient_n=vertex_budget)
             for combo in itertools.product(range(1, vertex_budget + 1), repeat=length)]
    edge_sets = [set(edge_multiset(p)) for p in paths]
    counts: dict[tuple[int, ...], int] = {}
    pairs = 0
    for pa, keys_a in zip(paths, edge_sets):
        for pb, keys_b in zip(paths, edge_sets):
            if keys_a.isdisjoint(keys_b):
                continue
            pairs += 1
            glued = glue_paths(pa, pb)
            counts[glued.vertices] = counts.get(glued.vertices, 0) + 1
    violations = []
    worst_ratio = 0.0
    for verts, c in counts.items():
        glued = ClosedPath(vertices=verts, ambient_n=vertex_budget)
        bound = 2 * length * k_statistic(trajectory_of(glued), length)
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

