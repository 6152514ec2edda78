"""Dyck-path statistics: decompositions, confined counts, maximum levels.

``dyck_decompose`` splits nonnegative walks, the rows of an array of +-1
steps, into rises and sub-Dyck blocks, and checks every row's decomposition.
All counts are exact big integers and all probabilities exact rationals;
floats appear only in the final expectation values of the tail reports. The
bounds being examined are exponentially small, and float-first evaluation
would hide failures. The maximum-level law is kept as integer numerators over
one common denominator, the number of Dyck paths or tuples of blocks; a
mass becomes a reduced ``Fraction`` only where the law is returned, and a
float, in the tail reports, through one correctly rounded integer division.
Every law up to ``PMF_M_GUARD`` is exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .path_model import count_trajectories, raise_first_failure, walk_levels

__all__ = [
    "dyck_decompose",
    "bounded_path_count",
    "ballot_count",
    "confined_dyck_count",
    "max_level_distribution",
    "tail_bound_check",
    "class_count_bound_check",
]


# Why dyck_decompose refuses a row, in the order it tests: the error raised.
# A rise step that is not +1 shows as a rebuilt row that differs from its input.
_DYCK_ROW_ERRORS = (
    (ValueError, "rises must be positive"),
    (ValueError, "blocks must be Dyck paths"),
    (ValueError, "interior blocks must be nonempty"),
    (AssertionError, "decomposition does not reconstruct the trajectory"),
)


def _last_visits(levels: np.ndarray, top: int) -> np.ndarray:
    """(N, top + 1) array: entry [r, h] is the last time at which row r of the
    heights visits h, for nonnegative walks that all end at ``top``.

    After its last visit of h a walk stays above h, so the running minimum of
    the heights read from the end rises by one right after each last visit.
    """
    floor = np.minimum.accumulate(levels[:, ::-1], axis=1)[:, ::-1]
    times = np.nonzero(floor[:, 1:] > floor[:, :-1])[1].reshape(len(levels), top)
    return np.column_stack((times, np.full(len(levels), levels.shape[1] - 1)))


def _rebuilt_rows(steps: np.ndarray, rises: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray:
    """The rows that the rises and blocks spell out: each block's steps in
    place, up steps everywhere else."""
    kept = rises > 0
    kept[:, 0] = True
    kept &= ends > starts
    n, length = steps.shape
    # reach[r, t]: the furthest end of a nonempty kept block of row r that
    # starts at or before t; the last slot takes the blocks left out
    reach = np.zeros(n * length + 1, np.int32)
    rows = np.arange(0, n * length, length)[:, None]
    np.maximum.at(reach, np.where(kept, rows + starts, n * length).ravel(),
                  np.where(kept, ends, 0).astype(np.int32).ravel())
    reach = np.maximum.accumulate(reach[:-1].reshape(n, length), axis=1)
    return np.where(reach > np.arange(length), steps, np.int8(1))


def _failed_checks(steps: np.ndarray, levels: np.ndarray, kept: np.ndarray, rises: np.ndarray,
                   starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(N, 4) bool array: row r failed check j of ``_DYCK_ROW_ERRORS``.

    A kept block fails when a height from its start to its end falls below
    its base or its last height differs from it. The lowest height of every
    block before its end is one ``minimum.reduceat`` over the flattened
    heights; a block that ends where or before it starts reads its base and
    does not dip. With the rebuilt rows read from the running maximum of the
    block ends, the checks cost O(N L) on blocks that do not overlap, as last
    visits give them, not the O(N l L) of a block-by-time mask, and give the
    mask's verdicts for any blocks.
    """
    n, width = levels.shape
    base = np.take_along_axis(levels, starts, axis=1)
    rows = np.arange(0, n * width, width)[:, None]
    bounds = np.stack((rows + starts, rows + ends), axis=2).ravel()
    lows = np.minimum.reduceat(levels.ravel(), bounds)[::2].reshape(base.shape)
    dips = (kept & (lows < base)).any(axis=1)
    return np.column_stack((
        (kept[:, 1:] & (rises[:, 1:] < 1)).any(axis=1),
        dips | (kept & (np.take_along_axis(levels, ends, axis=1) != base)).any(axis=1),
        (kept[:, 1:-1] & (ends[:, 1:-1] <= starts[:, 1:-1])).any(axis=1),
        (_rebuilt_rows(steps, rises, starts, ends) != steps).any(axis=1),
    ))


def dyck_decompose(steps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split walks at their rise levels; the walks are the rows of an (N, L)
    array of +-1 steps, nonnegative and all ending at one level l.

    Returns three (N, l + 1) int arrays ``rises, starts, ends``. Level h's
    block is ``steps[r, starts[r, h]:ends[r, h]]``: it ends at the last visit
    of h and starts one step after the last visit of h - 1. A rise ends at h
    when that block is nonempty or h == l, and ``rises[r, h]`` is its length
    (0 where no rise ends, always at h = 0); the blocks of level 0 and of the
    levels where a rise ends make up the decomposition. Each row's rises,
    blocks and rebuilt steps are checked; the first row that fails raises the
    error of its first failed check (``_DYCK_ROW_ERRORS``).
    """
    steps = np.asarray(steps, dtype=np.int8)
    levels = walk_levels(steps)
    top = int(levels[0, -1]) if len(levels) else 0
    if (levels[:, -1] != top).any():
        raise ValueError("walks must end at one level")
    ends = _last_visits(levels, top)
    starts = np.zeros_like(ends)
    starts[:, 1:] = ends[:, :-1] + 1
    kept = ends > starts
    kept[:, 0] = kept[:, -1] = True
    # a rise climbs from the end of the kept block below to the start of its own
    below = np.maximum.accumulate(np.where(kept, ends, 0), axis=1)
    rises = np.zeros_like(ends)
    rises[:, 1:] = np.where(kept[:, 1:], starts[:, 1:] - below[:, :-1], 0)

    raise_first_failure(_failed_checks(steps, levels, kept, rises, starts, ends),
                        _DYCK_ROW_ERRORS)
    return rises, starts, ends


def bounded_path_count(steps: int, ceiling: int, end_level: int) -> int:
    """Paths of ``steps`` +-1 steps from 0 to ``end_level`` inside [0, ceiling].

    Exact count through the (ceiling + 1)-state transfer recursion.
    """
    if steps < 0 or ceiling < 0:
        raise ValueError("steps and ceiling must be nonnegative")
    if not 0 <= end_level <= ceiling:
        raise ValueError("end level must lie in [0, ceiling]")
    if (steps + end_level) % 2 != 0:
        raise ValueError("steps and end level have incompatible parity")
    cur = [0] * (ceiling + 1)
    cur[0] = 1
    for _ in range(steps):
        nxt = [0] * (ceiling + 1)
        for h, c in enumerate(cur):
            if not c:
                continue
            if h + 1 <= ceiling:
                nxt[h + 1] += c
            if h - 1 >= 0:
                nxt[h - 1] += c
        cur = nxt
    return cur[end_level]


def ballot_count(steps: int, end_level: int) -> int:
    """Nonnegative paths 0 -> end_level in ``steps`` steps (reflection count)."""
    if steps < 0 or end_level < 0:
        raise ValueError("steps and end level must be nonnegative")
    if (steps + end_level) % 2 != 0:
        raise ValueError("steps and end level have incompatible parity")
    if end_level > steps:
        return 0
    return count_trajectories((steps - end_level) // 2, end_level)


@functools.lru_cache(maxsize=8)
def _binomial_row(n: int) -> tuple[int, ...]:
    """C(n, 0), ..., C(n, n) by the recurrence C(n, k+1) = C(n, k) (n - k) / (k + 1)."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


def confined_dyck_count(m: int, ceiling: int) -> int:
    """Dyck paths of length 2m with maximum level <= ceiling.

    Double-reflection sum over the images of the endpoint under the group
    generated by reflections at -1 and ceiling + 1. With q = ceiling + 2 the
    images of level 0 are the levels 2jq, those of level -2 the levels
    2jq - 2, and C(2m, m + i) walks of 2m steps end at level 2i. So the count
    is the sum of C(2m, k) over k = m (mod q) minus the sum over
    k = m - 1 (mod q): two strided slices of one binomial row C(2m, 0..2m),
    built once per length and cached. That is O(m / ceiling) additions
    instead of the O(m * ceiling) state updates of the transfer recursion,
    which it agrees with (cross-checked in the test suite).
    """
    if m < 0 or ceiling < 0:
        raise ValueError("m and ceiling must be nonnegative")
    row, q = _binomial_row(2 * m), ceiling + 2
    return sum(row[m % q::q]) - sum(row[(m - 1) % q::q])


# Largest m for which max_level_distribution computes its exact law.
PMF_M_GUARD = 2000


def _max_level_masses(m: int, blocks: tuple[int, ...] | None) -> tuple[dict[int, int], int]:
    """The maximum-level law over independent uniform Dyck blocks of the given
    half-lengths (one block of half-length m by default) as integer numerators
    over one denominator.

    ``total`` is the number of tuples of blocks, the product of the per-block
    Catalan counts. ``N_k``, the number of tuples whose blocks all stay at or
    below k, is the product of the confined counts, and ``masses[k]`` is
    ``N_k - N_{k-1}``, nonzero masses only. The masses must add up to
    ``total``: P(max <= top) == 1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > PMF_M_GUARD:
        raise ValueError(f"m exceeds the exact-pmf feasibility guard ({PMF_M_GUARD})")
    if blocks is None:
        blocks = (m,)
    if sum(blocks) != m or any(b < 0 for b in blocks):
        raise ValueError("block half-lengths must be nonnegative and sum to m")
    blocks = tuple(b for b in blocks if b > 0)
    if not blocks:
        return {0: 1}, 1
    total = math.prod(ballot_count(2 * b, 0) for b in blocks)
    masses: dict[int, int] = {}
    below = 0
    for k in range(1, max(blocks) + 1):
        confined = math.prod(confined_dyck_count(b, k) for b in blocks)
        if confined != below:
            masses[k] = confined - below
        below = confined
    reached = sum(masses.values())
    if reached != total:
        raise AssertionError(f"P(max <= {max(blocks)}) is {Fraction(reached, total)}, not 1")
    return masses, total


def max_level_distribution(
    m: int, blocks: tuple[int, ...] | None = None
) -> dict[int, Fraction]:
    """Exact law of the maximum level of a uniform Dyck path of length 2m.

    With ``blocks`` given (half-lengths summing to m), the law is that of the
    maximum over independent uniform Dyck blocks of those lengths:
    P(max <= k) is the product of the per-block confined ratios. Each mass is
    one reduced fraction of the integer numerator and common denominator of
    ``_max_level_masses``, so the values are exact for every m up to
    ``PMF_M_GUARD``.
    """
    masses, total = _max_level_masses(m, blocks)
    return {k: Fraction(mass, total) for k, mass in masses.items()}


# The lemma reports' constants: the Gaussian-tail c0 and exponential-moment C
# of the maximum-level report, and the c0 of the class-count bound.
TAIL_C0 = 1.0 / 96.0
EXP_MOMENT_C = 1.0
CLASS_BOUND_C0 = 1.0 / 8.0

# Block half-lengths of each maximum-level family: one block, two equal halves.
_TAIL_FAMILIES = {
    "single": lambda m: (m,),
    "halves": lambda m: (m // 2, m - m // 2),
}


def tail_bound_check(m_grid: list[int]) -> dict:
    """Gaussian-tail and exponential-moment report for the maximum level.

    For each m and block family: Q(m) is the largest value of
    ``P(max = k) * sqrt(m) * exp(c0 k^2 / (2 m))`` over ``k >= 4 c0 sqrt(m)``
    with ``c0 = TAIL_C0`` (reported, not asserted against any fixed
    constant), and ``E[exp(C max / sqrt(m))]`` is evaluated at
    ``C = EXP_MOMENT_C``. The families are the single Dyck block and two
    equal blocks. Exponential moments and spreads are keyed by C. Each mass
    enters as the integer true division of its numerator by the common
    denominator of ``_max_level_masses``: correctly rounded, so the same float
    as that of the reduced fraction, with no gcd taken.
    """
    c0, c = TAIL_C0, EXP_MOMENT_C
    out: dict = {"c0": c0, "families": {}}
    for name, block_fn in _TAIL_FAMILIES.items():
        rows = []
        for m in m_grid:
            masses, total = _max_level_masses(m, block_fn(m))
            pmf = {k: mass / total for k, mass in masses.items()}
            sqrt_m = math.sqrt(m)
            q = 0.0
            for k, mass in pmf.items():
                if k >= 4 * c0 * sqrt_m:
                    q = max(q, mass * sqrt_m * math.exp(c0 * k * k / (2.0 * m)))
            exp_moment = math.fsum(mass * math.exp(c * k / sqrt_m) for k, mass in pmf.items())
            rows.append({"m": m, "q": q, "exp_moments": {c: exp_moment}})
        vals = [row["exp_moments"][c] for row in rows]
        out["families"][name] = {"rows": rows, "spread": {c: max(vals) / min(vals)}}
    return out


def class_count_bound_check(s: int) -> dict:
    """Check T_{m,l} <= (l+1) exp(-c0 l^2 / s) T_{s,0} for all even l <= 2s,
    with c0 = ``CLASS_BOUND_C0``.

    Counts stay exact integers. Each ratio T_{m,l} / T_{s,0} enters the
    comparison against the exponential as its correctly rounded float (one
    integer true division), the monotonicity of the bound-normalized ratio
    T_{m,l} / ((l+1) T_{s,0}) is decided by cross-multiplied integers, and
    only the log of the largest supported constant reads the reduced
    fraction. The report carries that constant and whether the normalized
    ratio decays monotonely in l. (The un-normalized ratio is not monotone:
    the (l+1) prefactor makes it rise until l is of order sqrt(s).)
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    c0 = CLASS_BOUND_C0
    # Every class has 2s steps: T_{m,l} = C(2s, m) - C(2s, m-1) with
    # m = s - l/2, read from the one row C(2s, .).
    row = _binomial_row(2 * s)
    t_even = row[s] - row[s - 1]
    best_c0 = math.inf
    ok = True
    failures = []
    monotone = True
    prev_count, prev_l = t_even, 0  # the l = 0 term: T_{s,0} itself
    for l in range(0, 2 * s + 1, 2):
        m = s - l // 2
        count = row[m] - row[m - 1] if m else row[0]
        ratio = count / t_even
        bound = (l + 1) * math.exp(-c0 * l * l / s)
        if ratio > bound:
            ok = False
            failures.append({"l": l, "ratio": ratio, "bound": bound})
        # count / (l + 1) > prev_count / (prev_l + 1), without dividing
        if count * (prev_l + 1) > prev_count * (l + 1):
            monotone = False
        prev_count, prev_l = count, l
        if l >= 2:
            # log of the reduced fraction count / t_even, whose terms overflow floats
            g = math.gcd(count, t_even)
            log_ratio = math.log(count // g) - math.log(t_even // g)
            best_c0 = min(best_c0, (math.log(l + 1) - log_ratio) * s / (l * l))
    return {
        "s": s,
        "c0": c0,
        "pass": ok,
        "failures": failures,
        "largest_supported_c0": best_c0,
        "monotone_normalized": monotone,
    }
