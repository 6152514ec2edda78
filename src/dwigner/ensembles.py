"""Sampling of Wigner matrices and their rank-one deformations.

The model is ``M = W / sqrt(n) + A`` where ``W`` is a Hermitian (or real
symmetric) matrix with independent, symmetric, sub-Gaussian entries above the
diagonal and ``A`` is the deterministic rank-one matrix whose every entry is
``theta / n`` (so its nonzero eigenvalue is exactly ``theta``).

Sampling is counter-based: every ``(master_seed, sample_index)`` pair opens
its own Philox stream and fills the matrix in a fixed order, so a sample is a
pure function of its index and never depends on how many samples are drawn
concurrently or in what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "EntryLaw",
    "SymmetryClass",
    "EnsembleConfig",
    "MatrixSample",
    "Regime",
    "RegimeError",
    "sample_wigner",
    "sample_deformed",
    "regime_of",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

LAW_KINDS = ("gaussian", "rademacher", "uniform-symmetric")


class RegimeError(ValueError):
    """A statistic was requested outside the regime where it is defined."""


class SymmetryClass(Enum):
    COMPLEX_HERMITIAN = "complex-hermitian"
    REAL_SYMMETRIC = "real-symmetric"

    @property
    def is_complex(self) -> bool:
        return self is SymmetryClass.COMPLEX_HERMITIAN


def _double_factorial_odd(k: int) -> int:
    # (2k-1)!! = 1 * 3 * ... * (2k-1)
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


@dataclass(frozen=True)
class EntryLaw:
    """Symmetric law of one real entry component.

    ``component_variance`` is the variance of a single real component: for a
    complex Hermitian ensemble of scale ``sigma`` each of Re and Im carries
    ``sigma**2 / 2``, for a real symmetric one the single component carries
    ``sigma**2``.
    """

    kind: str
    component_variance: float

    def __post_init__(self) -> None:
        if self.kind not in LAW_KINDS:
            raise ValueError(f"unknown entry law {self.kind!r}; expected one of {LAW_KINDS}")
        if not self.component_variance > 0:
            raise ValueError("component_variance must be positive")

    def moment(self, order: int) -> float:
        """Exact moment E[X**order] of one component; odd orders vanish."""
        if order < 0:
            raise ValueError("moment order must be nonnegative")
        if order % 2 == 1:
            return 0.0
        k = order // 2
        v = self.component_variance
        if self.kind == "gaussian":
            return _double_factorial_odd(k) * v**k
        if self.kind == "rademacher":
            return v**k
        # uniform on [-sqrt(3 v), sqrt(3 v)]: E[X^{2k}] = (3v)^k / (2k + 1)
        return 3**k * v**k / (2 * k + 1)

    @property
    def beta(self) -> float:
        """Sub-Gaussian constant: E[X^{2k}] <= (beta * k)^k for all k >= 1."""
        v = self.component_variance
        return {"gaussian": 2.0 * v, "rademacher": v, "uniform-symmetric": 3.0 * v}[self.kind]


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one deformed ensemble.

    ``law`` names the entry law (one of ``LAW_KINDS``). Prefer
    :meth:`create`, which accepts symmetry names and defaults ``diag_sigma``
    to ``sigma``.
    """

    n: int
    sigma: float
    theta: float
    diag_sigma: float
    symmetry: SymmetryClass
    law: str
    master_seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("sigma", "theta", "diag_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if not self.diag_sigma > 0:
            raise ValueError("diag_sigma must be positive")
        if self.law not in LAW_KINDS:
            raise ValueError(f"unknown entry law {self.law!r}; expected one of {LAW_KINDS}")

    @classmethod
    def create(
        cls,
        n: int,
        sigma: float,
        theta: float,
        law: str = "gaussian",
        symmetry: SymmetryClass | str = SymmetryClass.COMPLEX_HERMITIAN,
        master_seed: int = 0,
        diag_sigma: float | None = None,
    ) -> "EnsembleConfig":
        if isinstance(symmetry, str):
            symmetry = {
                "complex": SymmetryClass.COMPLEX_HERMITIAN,
                "real": SymmetryClass.REAL_SYMMETRIC,
            }.get(symmetry) or SymmetryClass(symmetry)
        return cls(
            n=n,
            sigma=sigma,
            theta=theta,
            diag_sigma=sigma if diag_sigma is None else diag_sigma,
            symmetry=symmetry,
            law=law,
            master_seed=master_seed,
        )

    def with_params(self, **kwargs) -> "EnsembleConfig":
        """Copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MatrixSample:
    """A sampled Hermitian/symmetric matrix."""

    entries: np.ndarray = field(repr=False)

    def is_hermitian(self) -> bool:
        return bool(np.array_equal(self.entries, self.entries.conj().T))


@dataclass(frozen=True)
class Regime:
    """Phase of the deformation: supercritical, critical or subcritical."""

    label: str
    theta: float
    sigma: float

    @property
    def rho_theta(self) -> float:
        """Outlier location theta + sigma**2 / theta (requires theta > 0)."""
        if self.theta == 0:
            raise RegimeError("rho_theta is undefined at theta = 0 (division by zero)")
        return self.theta + self.sigma**2 / self.theta

    @property
    def sigma_theta(self) -> float:
        """Gaussian fluctuation scale, defined only for theta > sigma."""
        if not self.theta > self.sigma:
            raise RegimeError(
                f"sigma_theta is undefined for theta={self.theta} <= sigma={self.sigma}"
            )
        return self.sigma * math.sqrt(self.theta**2 - self.sigma**2) / self.theta


def regime_of(theta: float, sigma: float) -> Regime:
    """Classify the deformation strength against the bulk scale."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta > sigma:
        label = "supercritical"
    elif theta == sigma:
        label = "critical"
    else:
        label = "subcritical"
    return Regime(label=label, theta=theta, sigma=sigma)


def _stream(master_seed: int, sample_index: int) -> np.random.Generator:
    # One Philox stream per (seed, index): sampling order can never leak in.
    key = np.array([master_seed & _MASK64, sample_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_symmetric(kind: str, rng: np.random.Generator, size: int, std: float) -> np.ndarray:
    if kind == "gaussian":
        return std * rng.standard_normal(size)
    if kind == "rademacher":
        return std * (2.0 * rng.integers(0, 2, size) - 1.0)
    half_width = std * math.sqrt(3.0)
    return rng.uniform(-half_width, half_width, size)


@lru_cache(maxsize=64)
def _upper_indices(n: int):
    return np.triu_indices(n, 1)


@lru_cache(maxsize=64)
def _diag_indices(n: int):
    return np.diag_indices(n)


def sample_wigner(config: EnsembleConfig, sample_index: int) -> MatrixSample:
    """Draw the undeformed Wigner matrix ``W`` for the given sample index.

    Entries above the diagonal are independent with the configured law
    (complex case: independent Re/Im parts of variance ``sigma**2 / 2``
    each); the diagonal is real with variance ``diag_sigma**2``; the lower
    triangle is the exact conjugate mirror of the upper one.
    """
    rng = _stream(config.master_seed, sample_index)
    n = config.n
    kind = config.law
    n_off = n * (n - 1) // 2
    if config.symmetry.is_complex:
        comp_std = config.sigma / math.sqrt(2.0)
        parts = _draw_symmetric(kind, rng, 2 * n_off, comp_std)
        w = np.zeros((n, n), dtype=np.complex128)
        w[_upper_indices(n)] = parts[:n_off] + 1j * parts[n_off:]
    else:
        off = _draw_symmetric(kind, rng, n_off, config.sigma)
        w = np.zeros((n, n), dtype=np.float64)
        w[_upper_indices(n)] = off
    w = w + w.conj().T
    w[_diag_indices(n)] = _draw_symmetric(kind, rng, n, config.diag_sigma)
    return MatrixSample(entries=w)


def sample_deformed(config: EnsembleConfig, sample_index: int) -> MatrixSample:
    """Draw ``M = W / sqrt(n) + A`` for the given sample index."""
    w = sample_wigner(config, sample_index)
    # A has the constant entry theta / n, so adding it is a scalar shift.
    m = w.entries / math.sqrt(config.n) + config.theta / config.n
    return MatrixSample(entries=m)

