"""Weight-preserving path rotation, trajectory surgery and two-path gluing.

``to_marked_origin`` rotates a closed path with at least one odd edge and a
last step down so that it ends with the first traversal of its first odd
edge; the rotated path has a marked origin and a last step up, the same edge
multiplicities, and the same (m, l) class. ``trajectory_surgery`` is the
companion transform on trajectories, mapping the (rotated trajectory, cut
instant) pair into the class with ``p`` fewer down steps and end level
``l + 2p``. ``glue_paths`` merges two closed paths across their first shared
edge into one path of length ``2L - 2``, and ``k_statistic`` counts the
window positions that control how many pairs can glue to the same output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .path_model import (
    ClosedPath,
    Trajectory,
    count_trajectories,
    nonneg_walks,
    tally_edges,
    trajectory_of,
)

__all__ = [
    "CorrespondenceResult",
    "to_marked_origin",
    "from_marked_origin",
    "trajectory_surgery",
    "verify_count_identity",
    "glue_paths",
    "k_statistic",
    "preimage_bound_check",
    "sample_trajectory",
    "edge_multiset",
]


@dataclass(frozen=True)
class CorrespondenceResult:
    """Rotated path plus the data needed to invert the rotation.

    ``shift_k`` is the number of steps of the source that follow the first
    traversal of its first odd edge (0 means the cut fell at the very end and
    the rotation is the identity). ``level_p`` is the number of edges opened
    but not yet closed just before that traversal.
    """

    image: ClosedPath
    shift_k: int
    level_p: int


def _rotate(path: ClosedPath, r: int) -> ClosedPath:
    """Closed path whose edge sequence starts at edge r+1 of ``path``."""
    base = list(path.vertices[:-1])
    length = len(base)
    r %= length
    rotated = base[r:] + base[:r]
    return ClosedPath(vertices=tuple(rotated) + (rotated[0],), ambient_n=path.ambient_n)


def edge_multiset(path: ClosedPath) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for key in path.edge_keys():
        out[key] = out.get(key, 0) + 1
    return out


def to_marked_origin(path: ClosedPath) -> CorrespondenceResult:
    """Rotate a last-step-down path to the marked-origin, last-step-up form.

    Requires at least one odd-multiplicity edge. The image visits the same
    edges with the same multiplicities and stays in the same (m, l) class;
    the pair (image, shift_k) determines the source exactly. One
    ``tally_edges`` pass gives the last step, the first odd edge and
    ``level_p``.
    """
    keys, counts, marks = tally_edges(path)
    if marks[-1]:
        raise ValueError("path has a last step up; the rotation applies to last-step-down paths")
    # counts keeps first-traversal order, so this is the first odd edge.
    odd = next((key for key, c in counts.items() if c % 2 == 1), None)
    if odd is None:
        raise ValueError("path has no odd edge (l = 0)")
    j = keys.index(odd) + 1  # instant of its first traversal
    level_p = 2 * sum(marks[: j - 1]) - (j - 1)  # height before instant j
    image = _rotate(path, j)
    return CorrespondenceResult(image=image, shift_k=path.length - j, level_p=level_p)


def from_marked_origin(result: CorrespondenceResult) -> ClosedPath:
    """Invert :func:`to_marked_origin`; rejects inconsistent inputs."""
    length = result.image.length
    if not 0 <= result.shift_k < length:
        raise ValueError("shift_k outside [0, L)")
    source = _rotate(result.image, result.shift_k)
    check = to_marked_origin(source)
    if check.image.vertices != result.image.vertices or check.shift_k != result.shift_k:
        raise ValueError("inconsistent (image, shift_k): not produced by to_marked_origin")
    return source


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
    assert out.end_level == l + 2 * p
    assert out.down_steps == x_prime.down_steps - p
    out_heights = out.levels()
    target = l + p
    hit = next(
        t
        for t in range(length + 1)
        if out_heights[t] == target and all(h >= target for h in out_heights[t:])
    )
    assert hit == cut_time + 1, "first-hitting instant does not mark the cut"
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
    assert walk[0] == v and walk[-1] == w
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


def _all_closed_paths(length: int, n_vertices: int):
    for combo in itertools.product(range(1, n_vertices + 1), repeat=length):
        yield ClosedPath(vertices=combo + (combo[0],), ambient_n=n_vertices)


def preimage_bound_check(length: int, vertex_budget: int) -> dict:
    """Exhaustive gluing census against the ``2L * K`` preimage bound.

    Enumerates every correlated ordered pair of closed paths of the given
    length over the vertex budget, glues each pair, and checks that no glued
    path has more preimage pairs than ``2 L * k_statistic(x, L)`` evaluated
    on its trajectory.
    """
    if length > 5 or vertex_budget > 5:
        raise ValueError("census guard: length <= 5 and vertex_budget <= 5")
    if length < 2:
        raise ValueError("gluing needs length >= 2")
    paths = list(_all_closed_paths(length, vertex_budget))
    counts: dict[tuple[int, ...], int] = {}
    pairs = 0
    for pa in paths:
        keys_a = set(edge_multiset(pa))
        for pb in paths:
            if keys_a.isdisjoint(edge_multiset(pb)):
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
