"""Closed paths, marked/unmarked instants and their lattice trajectories.

A closed path visits vertices ``i_0, ..., i_L = i_0``. Instant ``j`` is
*marked* when the unordered edge ``(i_{j-1}, i_j)`` has been traversed an odd
number of times up to and including ``j``, and *unmarked* otherwise. Reading
marked instants as +1 steps and unmarked ones as -1 steps yields a
nonnegative walk ending at the number ``l`` of odd-multiplicity edges; the
walks with ``m`` down steps and end level ``l`` form the class counted by
``count_trajectories(m, l)``. Paths are the rows of an ``(N, L + 1)`` integer
array of labels and trajectories the rows of an ``(N, L)`` int8 array of +-1
steps.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EnumerationLimitError",
    "edge_codes",
    "instant_marks",
    "trajectory_of",
    "walk_levels",
    "raise_first_failure",
    "trajectory_rows",
    "enumerate_trajectories",
    "count_trajectories",
    "count_trajectories_factorial",
    "last_step_split",
    "canonical_closed_paths",
    "trajectory_to_string",
]

ENUMERATION_STEP_CAP = 30


class EnumerationLimitError(ValueError):
    """An exhaustive enumeration would exceed its guard."""


def edge_codes(verts: np.ndarray) -> np.ndarray:
    """Codes of the unordered edges of instants j = 1..L of closed paths given
    as the rows of an ``(N, L + 1)`` integer array of vertex labels.

    Edge ``{lo, hi}`` with ``1 <= lo <= hi`` gets ``hi (hi - 1) / 2 + lo - 1``,
    so the edges on labels ``1..v`` take the codes ``0..v (v + 1) / 2 - 1`` and
    two rows traverse the same edge multiset exactly when their sorted codes
    are equal.

    The codes come back as int64. They are computed in int16 while every
    label v keeps ``v (v - 1)`` below 2**15 (labels up to 181) and in int64
    beyond, so no intermediate value overflows the type it is computed in.
    """
    verts = np.asarray(verts)
    wide = max(v * (v - 1) for v in (int(verts.min(initial=0)), int(verts.max(initial=0))))
    verts = verts.astype(np.int16 if wide < 2**15 else np.int64, copy=False)
    a, b = verts[:, :-1], verts[:, 1:]
    hi = np.maximum(a, b)
    return (hi * (hi - 1) // 2 + np.minimum(a, b) - 1).astype(np.int64)


def instant_marks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The marks of closed paths, from their :func:`edge_codes`.

    Returns two ``(N, L)`` bool arrays: entry ``[r, j - 1]`` of the first is
    True when instant j of path r is marked, of the second when the edge of
    instant j has an odd total count. Each edge is one bit of a word; the
    prefix XOR of the instants' one-hot words holds every edge's parity after
    each instant, so mark j is the bit of edge j after instant j and the odd
    edges are the bits of the last prefix. The word is a ``uint16`` for labels
    up to 5, a ``uint64`` up to 10 and a Python int beyond.
    """
    codes = np.asarray(codes)
    top = int(codes.max(initial=0))
    bit = codes.astype(np.uint16 if top < 16 else np.uint64 if top < 64 else object)
    parity = np.bitwise_xor.accumulate(np.ones_like(bit) << bit, axis=1)
    return ((parity >> bit) & 1).astype(bool), ((parity[:, -1:] >> bit) & 1).astype(bool)


def trajectory_of(verts: np.ndarray) -> np.ndarray:
    """The trajectories of closed paths, the rows of an ``(N, L + 1)`` label
    array, as an ``(N, L)`` int8 array: +1 at marked instants, -1 elsewhere."""
    return np.where(instant_marks(edge_codes(verts))[0], 1, -1).astype(np.int8)


def raise_first_failure(failed: np.ndarray, errors: tuple[tuple[type, str], ...]) -> None:
    """Raise error j, an exception type and its message, for the first check j
    that the first failing row fails; ``failed`` is an ``(N, len(errors))``
    bool array, row r failing check j where it is True."""
    bad = np.flatnonzero(failed.any(axis=1))
    if bad.size:
        error, message = errors[int(np.argmax(failed[bad[0]]))]
        raise error(message)


_WALK_ERRORS = ((ValueError, "steps must be +-1"), (ValueError, "trajectory dips below zero"))


def walk_levels(steps: np.ndarray) -> np.ndarray:
    """Heights x(0), ..., x(L) of walks, the rows of an ``(N, L)`` array of
    steps, as an ``(N, L + 1)`` int64 array; the first row that is not a
    nonnegative +-1 walk raises."""
    levels = np.zeros((steps.shape[0], steps.shape[1] + 1), np.int64)
    np.cumsum(steps, axis=1, out=levels[:, 1:])
    raise_first_failure(np.column_stack(((np.abs(steps) != 1).any(axis=1),
                                         (levels < 0).any(axis=1))), _WALK_ERRORS)
    return levels


def count_trajectories(m: int, l: int) -> int:
    """Number of nonnegative walks with l + m up and m down steps ending at l:
    C(l + 2m, m) - C(l + 2m, m - 1) by the reflection principle."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    total = l + 2 * m
    return math.comb(total, m) - (math.comb(total, m - 1) if m else 0)


def count_trajectories_factorial(m: int, l: int) -> int:
    """Second closed form: L! (l+1) / ((l+m+1)! m!); exact integer."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    total = l + 2 * m
    return math.factorial(total) * (l + 1) // (math.factorial(l + m + 1) * math.factorial(m))


# Rows per array that the row grower yields: what a check holds at once,
# whatever the size of the set it walks.
ROW_CHUNK = 4096


def _grow_rows(row: np.ndarray, state: np.ndarray, column: int, stop: int, values: tuple,
               admit):
    """Every completion of one int8 row over its columns ``column..stop - 1``,
    as arrays of at most ``max(ROW_CHUNK, len(values))`` rows, in
    lexicographic order of the grown columns with ``values`` ordered as given.

    Prefixes grow one column at a time: each one is repeated once per
    candidate value, in the order of ``values``, and ``admit(state, value,
    column)`` returns which children to keep and their states. So every block
    of prefixes stays in order; a block that could outgrow the chunk is split
    in two and its halves grow depth first. No array is empty.
    """
    width, k, values = len(row), len(values), np.array(values, np.int8)
    blocks = [(row[None, :], state, column)]  # (prefixes, their states, next column), next last
    while blocks:
        rows, state, column = blocks.pop()
        if not len(rows):
            continue
        if column == stop:
            yield rows
        elif len(rows) > 1 and k * len(rows) > ROW_CHUNK:
            half = len(rows) // 2
            blocks += [(rows[half:], state[half:], column), (rows[:half], state[:half], column)]
        else:
            rows = np.repeat(rows, k, axis=0)
            rows.reshape(len(state), k, width)[:, :, column] = values
            fits, state = admit(np.repeat(state, k), rows[:, column], column)
            blocks.append((rows[fits], state[fits], column + 1))


def trajectory_rows(m: int, l: int):
    """The trajectories of the (m, l) class as int8 arrays of +-1 steps, one
    walk per row, at most ``ROW_CHUNK`` rows per array, in lexicographic order
    with up before down."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    length = l + 2 * m
    if length > ENUMERATION_STEP_CAP:
        raise EnumerationLimitError(
            f"enumeration of {length} steps exceeds the cap {ENUMERATION_STEP_CAP}"
        )

    def admit(heights, step, taken):
        # an up needs an up left; a down needs a down left and a positive height
        downs_taken = (taken - heights) // 2
        fits = np.where(step > 0, taken - downs_taken < length - m,
                        (heights > 0) & (downs_taken < m))
        return fits, heights + step

    return _grow_rows(np.zeros(length, np.int8), np.zeros(1, np.int64), 0, length, (1, -1),
                      admit)


def enumerate_trajectories(m: int, l: int) -> np.ndarray:
    """All trajectories of the (m, l) class as one int8 array of +-1 steps:
    the arrays of :func:`trajectory_rows`, concatenated."""
    return np.concatenate(list(trajectory_rows(m, l)))


def last_step_split(m: int, l: int) -> tuple[int, int]:
    """(# trajectories ending with an up step, # ending with a down step)."""
    if l + 2 * m < 1:
        raise ValueError("class must contain at least one step")
    up = count_trajectories(m, l - 1) if l >= 1 else 0
    down = count_trajectories(m - 1, l + 1) if m >= 1 else 0
    return up, down


def canonical_closed_paths(length: int, max_vertices: int):
    """The closed paths of the given length in first-occurrence labeling, as
    int8 arrays of closed vertex rows ``(1, i_1, ..., i_{L-1}, 1)``, at most
    ``max(ROW_CHUNK, min(max_vertices, length))`` rows per array.

    Every closed path over at most ``max_vertices`` labels is a relabeling of
    exactly one row yielded here (restricted-growth sequences: a label is at
    most one above the running maximum), which makes exhaustive checks of
    label-equivariant properties affordable. The rows come in lexicographic
    order. Vertex i_j has a label of at most j + 1, so no candidate label
    exceeds ``length``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    labels = tuple(range(1, min(max_vertices, length) + 1))
    # the origin and its closing repeat stay 1; the state is the running maximum
    return _grow_rows(np.ones(length + 1, np.int8), np.ones(1, np.int64), 1, length, labels,
                      lambda used, label, _: (label <= used + 1, np.maximum(used, label)))


def trajectory_to_string(steps) -> str:
    """A +-1 step sequence as a word in U (up) and D (down)."""
    return "".join("U" if s == 1 else "D" for s in steps)

