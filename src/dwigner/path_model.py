"""Closed paths, marked/unmarked instants and their lattice trajectories.

A closed path visits vertices ``i_0, ..., i_L = i_0``. Instant ``j`` is
*marked* when the unordered edge ``(i_{j-1}, i_j)`` has been traversed an odd
number of times up to and including ``j``, and *unmarked* otherwise. Reading
marked instants as +1 steps and unmarked ones as -1 steps yields a
nonnegative walk ending at the number ``l`` of odd-multiplicity edges; the
walks with ``m`` down steps and end level ``l`` form the class counted by
``count_trajectories(m, l)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise

__all__ = [
    "ClosedPath",
    "Trajectory",
    "EnumerationLimitError",
    "tally_edges",
    "classify_instants",
    "trajectory_of",
    "enumerate_trajectories",
    "count_trajectories",
    "nonneg_walks",
    "count_trajectories_factorial",
    "last_step_split",
    "has_marked_origin",
    "canonical_closed_paths",
    "path_to_string",
    "trajectory_to_string",
    "trajectory_from_string",
]

ENUMERATION_STEP_CAP = 30


class EnumerationLimitError(ValueError):
    """An exhaustive enumeration would exceed its guard."""


@dataclass(frozen=True)
class ClosedPath:
    """A closed vertex walk ``i_0, ..., i_L = i_0`` on ``{1, ..., n}``.

    Loops (``i_{j+1} == i_j``) are allowed. ``vertices`` stores the closed
    sequence including the final repeat of the origin.
    """

    vertices: tuple[int, ...]
    ambient_n: int

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("a closed path needs at least one step")
        if self.vertices[0] != self.vertices[-1]:
            raise ValueError("path is not closed (last vertex != origin)")
        if min(self.vertices) < 1 or max(self.vertices) > self.ambient_n:
            raise ValueError("vertex outside {1, ..., ambient_n}")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def edge_keys(self) -> list[tuple[int, int]]:
        """Unordered edges of instants j = 1..L, smaller label first."""
        return [(a, b) if a <= b else (b, a) for a, b in pairwise(self.vertices)]


@dataclass(frozen=True)
class Trajectory:
    """Nonnegative +-1 walk; +1 per marked instant, -1 per unmarked."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not {-1, 1}.issuperset(self.steps):
            raise ValueError("steps must be +-1")
        if min(accumulate(self.steps, initial=0)) < 0:
            raise ValueError("trajectory dips below zero")

    @cached_property
    def end_level(self) -> int:
        return sum(self.steps)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def down_steps(self) -> int:
        return self.steps.count(-1)

    def levels(self) -> tuple[int, ...]:
        """Heights x(0), ..., x(L)."""
        return tuple(accumulate(self.steps, initial=0))


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


def classify_instants(path: ClosedPath) -> list[bool]:
    """True for marked instants j = 1..L, False for unmarked ones."""
    return tally_edges(path)[2]


def trajectory_of(path: ClosedPath) -> Trajectory:
    steps = tuple(1 if marked else -1 for marked in classify_instants(path))
    return Trajectory(steps)


def count_trajectories(m: int, l: int) -> int:
    """Number of nonnegative walks with l + m up and m down steps ending at l."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    return nonneg_walks(0, l + m, m)


def nonneg_walks(height: int, ups: int, downs: int) -> int:
    """Walks of ``ups`` up and ``downs`` down steps from ``height`` that stay
    nonnegative: all orderings minus the reflected ones (reflection principle)."""
    total = ups + downs
    reflected = downs - height - 1
    return math.comb(total, downs) - (math.comb(total, reflected) if reflected >= 0 else 0)


def count_trajectories_factorial(m: int, l: int) -> int:
    """Second closed form: L! (l+1) / ((l+m+1)! m!); exact integer."""
    if m < 0 or l < 0:
        raise ValueError("m and l must be nonnegative")
    total = l + 2 * m
    return math.factorial(total) * (l + 1) // (math.factorial(l + m + 1) * math.factorial(m))


def enumerate_trajectories(m: int, l: int) -> list[Trajectory]:
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


def last_step_split(m: int, l: int) -> tuple[int, int]:
    """(# trajectories ending with an up step, # ending with a down step)."""
    if l + 2 * m < 1:
        raise ValueError("class must contain at least one step")
    up = count_trajectories(m, l - 1) if l >= 1 else 0
    down = count_trajectories(m - 1, l + 1) if m >= 1 else 0
    return up, down


def has_marked_origin(path: ClosedPath, traj: Trajectory) -> bool:
    """True when some marked instant lands on the origin; ``traj`` is
    ``trajectory_of(path)``."""
    origin = path.vertices[0]
    return any(step == 1 and v == origin for step, v in zip(traj.steps, path.vertices[1:]))


def canonical_closed_paths(length: int, max_vertices: int):
    """Yield closed paths of the given length in first-occurrence labeling.

    Every closed path over at most ``max_vertices`` labels is a relabeling of
    exactly one path yielded here (restricted-growth sequences), which makes
    exhaustive checks of label-equivariant properties affordable.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    seq = [1]

    def rec(pos: int, used: int):
        if pos == length:
            yield ClosedPath(vertices=tuple(seq) + (1,), ambient_n=used)
            return
        for v in range(1, min(used + 1, max_vertices) + 1):
            seq.append(v)
            yield from rec(pos + 1, max(used, v))
            seq.pop()

    yield from rec(1, 1)


def path_to_string(path: ClosedPath) -> str:
    return ",".join(str(v) for v in path.vertices)


def trajectory_to_string(traj: Trajectory) -> str:
    return "".join("U" if s == 1 else "D" for s in traj.steps)


def trajectory_from_string(text: str) -> Trajectory:
    text = text.strip().upper()
    if any(ch not in "UD" for ch in text):
        raise ValueError("trajectory string must contain only U and D")
    return Trajectory(tuple(1 if ch == "U" else -1 for ch in text))
