"""Exact trace expectations by a sum over path shapes, and asymptotic predictors.

``exact_trace_expectation`` sums E[M_{i0 i1} ... M_{i_{L-1} i0}] over the
closed paths of length L, factorizing each expectation over its distinct
unordered edges. The expectation depends only on a path's shape (its
first-occurrence relabelling), so the sum runs over shapes, each with k
distinct vertices weighted by the falling factorial n(n-1)...(n-k+1) of the
labelled paths it stands for (the Sinai-Soshnikov reduction). Entry moments
come from a :class:`MomentModel` that knows the exact joint moments of one
entry; the sampler and the oracle therefore describe exactly the same
ensemble, including the theta/n cross terms.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import path_model
from .ensembles import LAW_KINDS, EnsembleConfig, regime_of

__all__ = [
    "MomentModel",
    "edge_moment",
    "exact_trace_expectation",
    "AsymptoticPredictions",
    "asymptotic_predictions",
    "trace_universality_probe",
]

SHAPE_SUM_GUARD = 100_000_000
MAX_MOMENT_ORDER = 32


def _component_moment(law: str, variance: float, order: int) -> float:
    """Exact moment E[X**order] of one real component of ``law`` with the given
    variance; odd orders vanish."""
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    if order % 2 == 1:
        return 0.0
    k = order // 2
    if law == "gaussian":
        # (2k-1)!! = 1 * 3 * ... * (2k-1)
        return math.prod(range(1, 2 * k, 2)) * variance**k
    if law == "rademacher":
        return variance**k
    # uniform on [-sqrt(3 v), sqrt(3 v)]: E[X^{2k}] = (3v)^k / (2k + 1)
    return 3**k * variance**k / (2 * k + 1)


@dataclass(frozen=True)
class MomentModel:
    """Exact joint entry moments of one ensemble.

    ``variance`` is that of one real component of an off-diagonal entry
    (complex case: each of Re and Im carries ``sigma**2 / 2``, real case the
    single component carries ``sigma**2``); ``diag_variance`` is that of the
    real diagonal. Both follow the entry law ``law``. Joint moments above
    ``MAX_MOMENT_ORDER`` are refused rather than silently computed.
    """

    is_complex: bool
    law: str
    variance: float
    diag_variance: float

    def __post_init__(self) -> None:
        if self.law not in LAW_KINDS:
            raise ValueError(f"unknown entry law {self.law!r}; expected one of {LAW_KINDS}")

    @classmethod
    def from_config(cls, config: EnsembleConfig) -> "MomentModel":
        return cls(
            is_complex=config.is_complex,
            law=config.law,
            variance=config.sigma**2 / 2 if config.is_complex else config.sigma**2,
            diag_variance=config.diag_sigma**2,
        )

    def offdiag_joint(self, a: int, b: int) -> float:
        """E[W**a * conj(W)**b] for one off-diagonal entry (real values).

        Real case: conjugation is trivial and this is E[W**(a+b)].
        """
        if a < 0 or b < 0:
            raise ValueError("moment orders must be nonnegative")
        if a + b > MAX_MOMENT_ORDER:
            raise ValueError(f"moment order {a + b} beyond the model table ({MAX_MOMENT_ORDER})")
        return _offdiag_joint(self.is_complex, self.law, self.variance, a, b)

    def diag_moment(self, order: int) -> float:
        """E[W_ii**order] for the real diagonal entry."""
        if order > MAX_MOMENT_ORDER:
            raise ValueError(f"moment order {order} beyond the model table ({MAX_MOMENT_ORDER})")
        return _component_moment(self.law, self.diag_variance, order)


@functools.cache
def _offdiag_joint(is_complex: bool, law: str, variance: float, a: int, b: int) -> float:
    if not is_complex:
        return _component_moment(law, variance, a + b)
    if (a + b) % 2 == 1:
        return 0.0
    # W = X + iY with independent symmetric components:
    # E[W^a conj(W)^b] = sum_{j,k} C(a,j) C(b,k) i^{a-j} (-i)^{b-k}
    #                    E[X^{j+k}] E[Y^{(a-j)+(b-k)}]
    total = 0.0
    for j in range(a + 1):
        for k in range(b + 1):
            rest = (a - j) + (b - k)
            if (j + k) % 2 == 1 or rest % 2 == 1:
                continue
            phase = (-1) ** (rest // 2) * (-1) ** (b - k)
            total += (
                math.comb(a, j)
                * math.comb(b, k)
                * phase
                * _component_moment(law, variance, j + k)
                * _component_moment(law, variance, rest)
            )
    return total


def edge_moment(
    model: MomentModel, a: int, b: int, is_diagonal: bool, theta: float, n: int
) -> float:
    """E[(W/sqrt(n) + theta/n)**a * (conj(W)/sqrt(n) + theta/n)**b].

    Double binomial expansion over the model's joint moments; diagonal
    entries are real and use the diagonal law.
    """
    if a + b < 1:
        raise ValueError("need a + b >= 1")
    t = theta / n
    inv = 1.0 / math.sqrt(n)
    if is_diagonal:
        order = a + b
        return math.fsum(
            math.comb(order, p) * t ** (order - p) * inv**p * model.diag_moment(p)
            for p in range(order + 1)
        )
    return math.fsum(
        math.comb(a, p)
        * math.comb(b, q)
        * t ** ((a - p) + (b - q))
        * inv ** (p + q)
        * model.offdiag_joint(p, q)
        for p in range(a + 1)
        for q in range(b + 1)
    )


def _path_signature(path: Sequence[int]) -> tuple[tuple[int, int, bool], ...]:
    """Multiset of per-edge (forward, backward, diagonal) traversal counts."""
    length = len(path)
    counts: dict[tuple[int, int], list[int]] = {}
    for t in range(length):
        i, j = path[t], path[(t + 1) % length]
        if i <= j:
            counts.setdefault((i, j), [0, 0])[0] += 1
        else:
            counts.setdefault((j, i), [0, 0])[1] += 1
    return tuple(sorted((a, b, i == j) for (i, j), (a, b) in counts.items()))


def _shape_count(length: int, max_vertices: int) -> int:
    """Number of closed-path shapes of a length on at most ``max_vertices`` vertices.

    A shape is a restricted-growth sequence, so this is the partial Bell sum
    sum_{k <= max_vertices} S(length, k) over Stirling numbers of the second
    kind.
    """
    row = [1]  # S(size, k) for k = 0..size, from size 0
    for size in range(1, length + 1):
        row.append(0)
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, size + 1)]
    return sum(row[: max_vertices + 1])


@functools.lru_cache(maxsize=16)
def _shape_table(power: int, max_vertices: int) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    """The closed-path shapes of a length on at most ``max_vertices`` vertices,
    grouped by edge-multiplicity signature: (signature, counts) pairs in order
    of first occurrence, ``counts[k - 1]`` shapes having k distinct vertices."""
    table: dict = {}
    for rows in path_model.canonical_closed_paths(power, max_vertices):
        for shape in rows.tolist():
            counts = table.setdefault(_path_signature(shape[:-1]), [0] * max_vertices)
            counts[max(shape) - 1] += 1
    return tuple((sig, tuple(counts)) for sig, counts in table.items())


def exact_trace_expectation(n: int, power: int, model: MomentModel, theta: float) -> float:
    """E[Tr M**power] as an exact sum over closed-path shapes.

    Every shape with k distinct vertices stands for n(n-1)...(n-k+1) labelled
    paths of equal expectation. Shapes are grouped by their edge-multiplicity
    signature, so each distinct product of edge moments is evaluated once and
    weighted by the summed falling factorials; the final reduction is
    compensated. The cost grows with the shape count, not with n, and the
    grouping is shared by every call with the same power and vertex bound.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    max_vertices = min(n, power)
    shapes = _shape_count(power, max_vertices)
    if shapes > SHAPE_SUM_GUARD:
        raise ValueError(f"{shapes} path shapes exceed the oracle guard {SHAPE_SUM_GUARD}")
    perms = [math.perm(n, k) for k in range(1, max_vertices + 1)]

    @functools.cache
    def edge_factor(a: int, b: int, diag: bool) -> float:
        return edge_moment(model, a, b, diag, theta, n)

    terms = []
    for sig, counts in _shape_table(power, max_vertices):
        mult = sum(c * p for c, p in zip(counts, perms))
        w = 1.0
        for a, b, diag in sig:
            w *= edge_factor(a, b, diag)
        terms.append(mult * w)
    return math.fsum(terms)


@dataclass(frozen=True)
class AsymptoticPredictions:
    """Leading-order predictors for E[Tr M**(2s)] and their limit targets.

    ``marked_sum`` is the marked-origin simple-path series
    sum_{l even >= 2} T_{m,l} theta^l sigma^{2m} exp(-(l+m)^2 / (2n)); its
    ratio to rho**(2s) approaches 1 - sigma^2/theta^2 above the transition.
    ``odd_edge_class_ratio`` is the full class weight of the l > 0 paths
    (marked plus rotated unmarked, i.e. C(2s, m) per class) relative to
    (2 sigma)**(2s): it approaches 1/2 at the transition and 0 below it.
    ``odd_edge_marked_only_ratio`` keeps only the marked-origin counts and is
    exposed for reference.
    """

    s: int
    theta: float
    sigma: float
    n: int
    marked_sum: float
    rho_power: float | None
    marked_ratio: float | None
    limit_marked: float | None
    limit_unmarked: float | None
    limit_total: float | None
    even_term: float
    even_term_stirling: float
    odd_edge_class_ratio: float
    odd_edge_marked_only_ratio: float


def asymptotic_predictions(s: int, theta: float, sigma: float, n: int) -> AsymptoticPredictions:
    """Evaluate the finite-s predictor sums with exact path counts."""
    if s < 1:
        raise ValueError("s must be >= 1")
    two_s = 2 * s
    t_even = path_model.count_trajectories(s, 0)
    marked_terms = []
    class_terms = []
    marked_only_terms = []
    for l in range(2, two_s + 1, 2):
        m = s - l // 2
        t_ml = path_model.count_trajectories(m, l)
        weight = float(theta) ** l * float(sigma) ** (2 * m)
        damped = weight * math.exp(-((l + m) ** 2) / (2.0 * n))
        marked_terms.append(t_ml * damped)
        class_terms.append(math.comb(two_s, m) * weight)
        marked_only_terms.append(t_ml * weight)
    marked_sum = math.fsum(marked_terms)
    edge_power = (2.0 * sigma) ** two_s
    odd_edge_class_ratio = math.fsum(class_terms) / edge_power
    odd_edge_marked_only_ratio = math.fsum(marked_only_terms) / edge_power
    even_term = n * t_even * float(sigma) ** two_s
    even_term_stirling = n * (2.0 * sigma) ** two_s / (math.sqrt(math.pi) * s**1.5)
    if theta > 0:
        rho = regime_of(theta, sigma).rho_theta
        rho_power = rho**two_s
        ratio_marked = 1.0 - sigma**2 / theta**2
        preds = dict(
            rho_power=rho_power,
            marked_ratio=marked_sum / rho_power,
            limit_marked=rho_power * ratio_marked,
            limit_unmarked=rho_power * sigma**2 / theta**2,
            limit_total=rho_power,
        )
    else:
        preds = dict(
            rho_power=None, marked_ratio=None, limit_marked=None,
            limit_unmarked=None, limit_total=None,
        )
    return AsymptoticPredictions(
        s=s,
        theta=theta,
        sigma=sigma,
        n=n,
        marked_sum=marked_sum,
        even_term=even_term,
        even_term_stirling=even_term_stirling,
        odd_edge_class_ratio=odd_edge_class_ratio,
        odd_edge_marked_only_ratio=odd_edge_marked_only_ratio,
        **preds,
    )


def trace_universality_probe(
    n_list: list[int], power: int, theta: float, models: tuple[MomentModel, MomentModel]
) -> dict:
    """Relative oracle difference between two entry laws across dimensions.

    ``decreasing`` is True when the deltas fall strictly with n, and also
    when every delta is exactly 0.0: below power 4 only second moments
    enter ``E[Tr M^L]``, so laws of equal variance agree exactly and the
    probe passes vacuously.
    """
    m1, m2 = models
    rows = []
    for n in n_list:
        e1 = exact_trace_expectation(n, power, m1, theta)
        e2 = exact_trace_expectation(n, power, m2, theta)
        delta = abs(e1 - e2) / abs(e1) if e1 else abs(e1 - e2)
        rows.append({"n": n, "delta": delta})
    deltas = [r["delta"] for r in rows]
    return {
        "rows": rows,
        "decreasing": all(d == 0.0 for d in deltas)
        or all(deltas[i] > deltas[i + 1] for i in range(len(deltas) - 1)),
        "all_finite": all(math.isfinite(d) for d in deltas),
    }

