"""Dyck-path statistics: decompositions, confined counts, maximum levels.

All counts are exact big integers and all probabilities exact rationals;
floats appear only in the final expectation values of the tail reports. The
bounds being examined are exponentially small, and float-first evaluation
would hide failures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .path_model import Trajectory, count_trajectories

__all__ = [
    "DyckDecomposition",
    "dyck_decompose",
    "bounded_path_count",
    "ballot_count",
    "confined_dyck_count",
    "max_level_distribution",
    "tail_bound_check",
    "class_count_bound_check",
]


@dataclass(frozen=True)
class DyckDecomposition:
    """Unique splitting of a trajectory into rises and sub-Dyck blocks.

    The trajectory reads: block y_0 at level 0, then for each i a rise of
    ``rises[i-1]`` up steps followed by block y_i at the new level. Interior
    blocks are nonempty; the two end blocks may be empty. Reconstruction is
    exact.
    """

    rises: tuple[int, ...]
    blocks: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.rises) + 1:
            raise ValueError("need p_prime rises and p_prime + 1 blocks")
        if any(r < 1 for r in self.rises):
            raise ValueError("rises must be positive")
        if any(b.end_level != 0 for b in self.blocks):
            raise ValueError("blocks must be Dyck paths")
        for b in self.blocks[1:-1]:
            if b.length == 0:
                raise ValueError("interior blocks must be nonempty")

    @property
    def p_prime(self) -> int:
        return len(self.rises)

    @property
    def end_level(self) -> int:
        return sum(self.rises)

    @property
    def block_lengths(self) -> tuple[int, ...]:
        return tuple(b.length for b in self.blocks)

    def reconstruct(self) -> Trajectory:
        steps: list[int] = list(self.blocks[0].steps)
        for rise, block in zip(self.rises, self.blocks[1:]):
            steps.extend([1] * rise)
            steps.extend(block.steps)
        return Trajectory(tuple(steps))


def dyck_decompose(x: Trajectory) -> DyckDecomposition:
    """Split a trajectory at its rise levels: each rise climbs to the lowest
    level the path never falls below afterwards.

    One pass records the last visit of every level. After leaving level
    h - 1 for good the path steps up to h; the block at h runs from there to
    the last visit of h. A rise passes every level whose block is empty and
    ends at the first level with a nonempty block, or at the end level.
    """
    last_visit = {h: t for t, h in enumerate(x.levels())}
    blocks = [Trajectory(x.steps[:last_visit[0]])]
    rises: list[int] = []
    rise = 0
    for h in range(1, x.end_level + 1):
        rise += 1
        start = last_visit[h - 1] + 1
        if last_visit[h] > start or h == x.end_level:
            rises.append(rise)
            blocks.append(Trajectory(x.steps[start:last_visit[h]]))
            rise = 0
    decomp = DyckDecomposition(rises=tuple(rises), blocks=tuple(blocks))
    assert decomp.reconstruct().steps == x.steps
    return decomp


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
    generated by reflections at -1 and ceiling + 1; agrees with the transfer
    recursion (cross-checked in the test suite) but costs O(m / ceiling)
    lookups instead of O(m * ceiling) state updates. Every term is read from
    one binomial row C(2m, 0..2m), built once per length and cached.
    """
    if m < 0 or ceiling < 0:
        raise ValueError("m and ceiling must be nonnegative")
    if m == 0:
        return 1
    if ceiling == 0:
        return 0
    row = _binomial_row(2 * m)

    def walks_to(level: int) -> int:
        # unconstrained 2m-step walks from 0 to an even level: C(2m, m + level/2)
        k = m + level // 2
        return row[k] if 0 <= k <= 2 * m else 0

    period = 2 * (ceiling + 2)
    total = 0
    j = 0
    while True:
        offsets = [j * period, -j * period] if j else [0]
        contrib = 0
        for off in offsets:
            contrib += walks_to(off) - walks_to(-2 + off)
        if contrib == 0 and j * period > 2 * m + 2:
            break
        total += contrib
        j += 1
    return total


def max_level_distribution(
    m: int, blocks: tuple[int, ...] | None = None
) -> dict[int, Fraction]:
    """Exact law of the maximum level of a uniform Dyck path of length 2m.

    With ``blocks`` given (half-lengths summing to m), the law is that of the
    maximum over independent uniform Dyck blocks of those lengths:
    P(max <= k) is the product of the per-block confined ratios.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > 2000:
        raise ValueError("m exceeds the exact-pmf feasibility guard (2000)")
    if blocks is None:
        blocks = (m,)
    if sum(blocks) != m or any(b < 0 for b in blocks):
        raise ValueError("block half-lengths must be nonnegative and sum to m")
    blocks = tuple(b for b in blocks if b > 0)
    if not blocks:
        return {0: Fraction(1)}
    top = max(blocks)
    totals = {b: ballot_count(2 * b, 0) for b in set(blocks)}

    def cdf(k: int) -> Fraction:
        out = Fraction(1)
        for b in blocks:
            out *= Fraction(confined_dyck_count(b, k), totals[b])
        return out

    pmf: dict[int, Fraction] = {}
    prev = Fraction(0)
    for k in range(1, top + 1):
        cur = cdf(k)
        mass = cur - prev
        if mass:
            pmf[k] = mass
        prev = cur
    assert prev == 1
    return pmf


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
    equal blocks. Exponential moments and spreads are keyed by C.
    """
    c0, c = TAIL_C0, EXP_MOMENT_C
    out: dict = {"c0": c0, "families": {}}
    for name, block_fn in _TAIL_FAMILIES.items():
        rows = []
        for m in m_grid:
            pmf = max_level_distribution(m, blocks=block_fn(m))
            sqrt_m = math.sqrt(m)
            q = 0.0
            for k, mass in pmf.items():
                if k >= 4 * c0 * sqrt_m:
                    q = max(q, float(mass) * sqrt_m * math.exp(c0 * k * k / (2.0 * m)))
            exp_moment = math.fsum(
                float(mass) * math.exp(c * k / sqrt_m) for k, mass in pmf.items())
            rows.append({"m": m, "q": q, "exp_moments": {c: exp_moment}})
        vals = [row["exp_moments"][c] for row in rows]
        out["families"][name] = {"rows": rows, "spread": {c: max(vals) / min(vals)}}
    return out


def class_count_bound_check(s: int) -> dict:
    """Check T_{m,l} <= (l+1) exp(-c0 l^2 / s) T_{s,0} for all even l <= 2s,
    with c0 = ``CLASS_BOUND_C0``.

    Ratios are exact rationals converted to float only for the comparison
    against the exponential; the report carries the largest constant the
    grid actually supports and whether the bound-normalized ratio
    T_{m,l} / ((l+1) T_{s,0}) decays monotonely in l. (The un-normalized
    ratio is not monotone: the (l+1) prefactor makes it rise until l is of
    order sqrt(s).)
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    c0 = CLASS_BOUND_C0
    t_even = count_trajectories(s, 0)
    best_c0 = math.inf
    ok = True
    failures = []
    prev_normalized: Fraction | None = None
    monotone = True
    for l in range(0, 2 * s + 1, 2):
        m = s - l // 2
        ratio = Fraction(count_trajectories(m, l), t_even)
        bound = (l + 1) * math.exp(-c0 * l * l / s)
        if float(ratio) > bound:
            ok = False
            failures.append({"l": l, "ratio": float(ratio), "bound": bound})
        normalized = ratio / (l + 1)
        if prev_normalized is not None and normalized > prev_normalized:
            monotone = False
        prev_normalized = normalized
        if l >= 2:
            supported = (math.log(l + 1) - _log_fraction(ratio)) * s / (l * l)
            best_c0 = min(best_c0, supported)
    return {
        "s": s,
        "c0": c0,
        "pass": ok,
        "failures": failures,
        "largest_supported_c0": best_c0,
        "monotone_normalized": monotone,
    }


def _log_fraction(x: Fraction) -> float:
    # log of a positive rational with huge terms, without overflowing floats
    return math.log(x.numerator) - math.log(x.denominator)

