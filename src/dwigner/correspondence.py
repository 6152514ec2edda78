"""Weight-preserving path rotation, trajectory surgery and two-path gluing.

Every operation here works on arrays, one closed path or walk per row.
``to_marked_origin`` rotates each closed path with at least one odd edge and
a last step down so that it ends with the first traversal of its first odd
edge; the rotated path has a marked origin and a last step up, the same edge
multiplicities, and the same (m, l) class. The rotation and its inverse
``from_marked_origin`` flag a row they do not apply to with an error code
instead of raising. ``trajectory_surgery`` is the companion transform on
trajectories, mapping the (rotated trajectory, cut instant) pair into the
class with ``p`` fewer down steps and end level ``l + 2p``. ``glue_paths``
merges two closed paths across their first shared edge into one path of
length ``2L - 2``, and ``k_statistic`` counts the window positions that
control how many pairs can glue to the same output. These three raise the
``ValueError`` of the first row that fails a precondition.
"""

from __future__ import annotations

import math

import numpy as np

from .path_model import (
    ROW_CHUNK,
    count_trajectories,
    edge_codes,
    instant_marks,
    raise_first_failure,
    trajectory_of,
    walk_levels,
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


def edge_multiset(verts: np.ndarray) -> np.ndarray:
    """Traversal counts of the edges of closed paths, the rows of an
    ``(N, L + 1)`` label array: an ``(N, E)`` int array whose column c counts
    the edge of :func:`~dwigner.path_model.edge_codes` code c, where
    ``E = v (v + 1) / 2`` for the largest label v of the array."""
    codes = edge_codes(verts)
    top = int(np.max(verts, initial=0))
    width, n = top * (top + 1) // 2, len(codes)
    flat = codes + width * np.arange(n)[:, None]
    return np.bincount(flat.ravel(), minlength=n * width).reshape(n, width)


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


# What a (walk, p, cut) triple of the surgery can fail, in the order it is checked.
_SURGERY_ERRORS = (
    (ValueError, "p must be nonnegative"),
    (ValueError, "cut_time outside [0, L)"),
    (ValueError, "rotated trajectories end with an up step"),
    (ValueError, "level at cut_time is not l + p - 1"),
    (ValueError, "trajectory dips below l - 1 after the cut"),
)


def trajectory_surgery(steps: np.ndarray, p, cuts: np.ndarray) -> np.ndarray:
    """Reverse-and-flip the tail of rotated trajectories after their cuts.

    ``steps`` holds one walk per row, ``cuts`` one cut instant per row and
    ``p`` one level per row or one for all. Each walk must end with an up step, sit at level ``l + p - 1`` at its cut
    and stay at or above ``l - 1`` afterwards (the shape every rotated path
    produces, with the cut the instant its original origin occupies). Each
    output row has ``p`` fewer down steps, ends at ``l + 2p``, and first
    reaches level ``l + p`` at ``cut + 1`` without ever going below it again.
    """
    steps, cuts = np.asarray(steps, np.int8), np.asarray(cuts)
    p = np.broadcast_to(p, cuts.shape)
    length = steps.shape[1]
    levels = walk_levels(steps)
    l = levels[:, -1]
    cut = cuts[:, None]
    at_cut = np.take_along_axis(levels, np.clip(cut, 0, length), axis=1)[:, 0]
    after_cut = np.arange(length + 1) >= cut
    raise_first_failure(np.column_stack((
        p < 0,
        (cuts < 0) | (cuts >= length),
        (steps[:, -1:] != 1).any(axis=1),
        at_cut != l + p - 1,
        (after_cut & (levels < (l - 1)[:, None])).any(axis=1),
    )), _SURGERY_ERRORS)
    # the walk before the cut, its last (up) step at the cut, then the steps
    # from the cut to the last one reversed and negated
    k = np.arange(length)
    flipped = np.concatenate((steps, -np.flip(steps, axis=1)), axis=1)
    source = np.where(k < cut, k, np.where(k == cut, length - 1, length + k - cut))
    out = np.take_along_axis(flipped, source, axis=1)
    # Sanity: class bookkeeping and the first-hitting marker property.
    out_levels = np.zeros_like(levels)
    np.cumsum(out, axis=1, out=out_levels[:, 1:])
    if (out_levels[:, -1] != l + 2 * p).any():
        raise AssertionError("surgery output does not end at l + 2p")
    if ((out < 0).sum(axis=1) != (steps < 0).sum(axis=1) - p).any():
        raise AssertionError("surgery output does not have p fewer down steps")
    target = (l + p)[:, None]
    stays = np.minimum.accumulate(out_levels[:, ::-1], axis=1)[:, ::-1] >= target
    hit = (stays & (out_levels == target)).argmax(axis=1)
    if (hit != cuts + 1).any():
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


# What a pair of the gluing can fail, in the order it is checked.
_GLUE_ERRORS = (
    (ValueError, "path is not closed (last vertex != origin)"),
    (ValueError, "paths share no edge (uncorrelated pair)"),
)


def glue_paths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge pairs of closed paths of equal length across their first shared
    edge; pair r is row r of the ``(P, L + 1)`` label arrays ``a`` and ``b``.

    Each output row reads ``a`` up to the left endpoint of the first edge it
    shares with ``b``, inserts the remainder of ``b`` (reversed when the
    shared edge has the same orientation in both paths), and resumes ``a``:
    a ``(P, 2L - 1)`` array of closed paths of ``2L - 2`` steps, each with the
    union edge multiset minus two traversals of the shared edge.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("paths must have the same length")
    length = a.shape[1] - 1
    if length < 2:
        raise ValueError("gluing needs length >= 2")
    shared = edge_codes(a)[:, :, None] == edge_codes(b)[:, None, :]  # [r, s, t]: a's s is b's t
    raise_first_failure(np.column_stack(((a[:, 0] != a[:, -1]) | (b[:, 0] != b[:, -1]),
                                          ~shared.any(axis=(1, 2)))), _GLUE_ERRORS)
    rows = np.arange(len(a))
    t1 = shared.any(axis=2).argmax(axis=1)
    t2 = shared[rows, t1].argmax(axis=1)
    v, w = a[rows, t1], a[rows, t1 + 1]
    # b's cycle with the shared traversal removed: from b[t2 + 1] around to b[t2]
    order = _rotate_rows(b, t2 + 1)[:, :length]
    same = (b[rows, t2] == v) & (b[rows, t2 + 1] == w)
    walk = np.where(same[:, None], np.flip(order, axis=1), order)  # read backwards: v -> w
    if ((walk[:, 0] != v) | (walk[:, -1] != w)).any():
        raise AssertionError("inserted walk does not run between the shared edge's endpoints")
    # a up to its instant t1, the walk after its first vertex, a from t1 + 2 on
    k, cut = np.arange(2 * length - 1), t1[:, None]
    source = np.where(k <= cut, k, np.where(k < cut + length, length + 1 + k - cut,
                                            k - length + 2))
    return np.take_along_axis(np.concatenate((a, walk), axis=1), source, axis=1)


def k_statistic(steps: np.ndarray, window: int) -> np.ndarray:
    """Per walk (a row of +-1 steps), the number of window starts whose whole
    window stays at or above its start: the tau in [0, L - window + 1] with
    x(s) >= x(tau) for every s in [tau, tau + window - 1]."""
    steps = np.asarray(steps)
    length = steps.shape[1]
    if window < 1 or window > length + 1:
        raise ValueError("window must lie in [1, length + 1]")
    levels = walk_levels(steps)
    windows = np.lib.stride_tricks.sliding_window_view(levels, window, axis=1)
    return (windows.min(axis=2) >= levels[:, :length + 2 - window]).sum(axis=1)


# Largest length and vertex budget of the exhaustive gluing census.
GLUE_CENSUS_GUARD = 5


def _closed_rows(keys: np.ndarray, length: int, base: int) -> np.ndarray:
    """Closed label rows ``(i_0, ..., i_{L-1}, i_0)`` whose free labels minus
    one are the base-``base`` digits of ``keys``, most significant first."""
    free = keys[:, None] // base ** np.arange(length - 1, -1, -1) % base + 1
    return np.concatenate((free, free[:, :1]), axis=1).astype(np.int8)


def preimage_bound_check(length: int, vertex_budget: int) -> dict:
    """Exhaustive gluing census against the ``2L * K`` preimage bound.

    Enumerates every correlated ordered pair of closed paths of the given
    length over the vertex budget, glues each pair, and checks that no glued
    path has more preimage pairs than ``2 L * k_statistic(x, L)`` evaluated
    on its trajectory. The paths are all label rows in lexicographic order.
    A block of first paths, at most ``ROW_CHUNK`` pairs' worth, finds its
    correlated second paths through one product of edge presence matrices
    and glues its pairs in one call, so memory does not grow with the number
    of pairs. The glued paths are counted in a table over their free labels;
    violations come in the order in which their glued paths first occur
    among the (first, second) pairs.
    """
    if length > GLUE_CENSUS_GUARD or vertex_budget > GLUE_CENSUS_GUARD:
        raise ValueError(f"census guard: length <= {GLUE_CENSUS_GUARD} "
                         f"and vertex_budget <= {GLUE_CENSUS_GUARD}")
    if length < 2:
        raise ValueError("gluing needs length >= 2")
    paths = _closed_rows(np.arange(vertex_budget ** length), length, vertex_budget)
    present = (edge_multiset(paths) > 0).astype(np.int32)
    digits = vertex_budget ** np.arange(2 * length - 3, -1, -1)
    size = vertex_budget ** (2 * length - 2)
    count = np.zeros(size, np.int64)
    first = np.full(size, -1, np.int64)  # ordinal of the first pair, -1 before any
    pairs = 0
    block = max(1, ROW_CHUNK // len(paths))  # first paths per block
    for start in range(0, len(paths), block):
        pa, pb = np.nonzero(present[start:start + block] @ present.T)
        keys = (glue_paths(paths[start + pa], paths[pb])[:, :-1] - 1) @ digits
        seen, at, times = np.unique(keys, return_index=True, return_counts=True)
        count[seen] += times
        new = first[seen] < 0
        first[seen[new]] = pairs + at[new]
        pairs += len(keys)
    distinct = np.flatnonzero(count)
    distinct = distinct[np.argsort(first[distinct])]
    violations, worst_ratio = [], 0.0
    for start in range(0, len(distinct), ROW_CHUNK):
        chunk = distinct[start:start + ROW_CHUNK]
        glued, preimages = _closed_rows(chunk, 2 * length - 2, vertex_budget), count[chunk]
        bound = 2 * length * k_statistic(trajectory_of(glued), length)
        worst_ratio = max(worst_ratio, float((preimages / bound).max()))
        violations += [{"glued": ",".join(map(str, glued[i].tolist())),
                        "preimages": int(preimages[i]), "bound": int(bound[i])}
                       for i in np.flatnonzero(preimages > bound)]
    return {
        "length": length,
        "vertex_budget": vertex_budget,
        "correlated_pairs": pairs,
        "distinct_glued": len(distinct),
        "max_ratio": worst_ratio,
        "violations": violations,
        "pass": not violations,
    }
