"""Sampling of Wigner matrices and their rank-one deformations.

The model is ``M = W / sqrt(n) + A`` where ``W`` is a Hermitian (or real
symmetric) matrix with independent, symmetric, sub-Gaussian entries above the
diagonal and ``A`` is the deterministic rank-one matrix whose every entry is
``theta / n`` (so its nonzero eigenvalue is exactly ``theta``).

Sampling is counter-based: every ``(master_seed, sample_index)`` pair keys its
own Philox stream and fills the matrix in a fixed order, so a sample is a
pure function of its index and never depends on how many samples are drawn
concurrently, in what order or in what batches. ``sample_batch`` draws a
whole stack with one generator per call, reset to each index's key.
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
    "sample_batch",
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


def _law_draws(config: EnsembleConfig, indices, blocks) -> np.ndarray:
    """Draws of the configured law, row b from the stream of ``indices[b]`` in
    one call; ``blocks`` lists the ``(width, std)`` column blocks in order.

    The arithmetic is that of ``std * standard_normal``, ``std * (2 k - 1)``
    for ``k = integers(0, 2)`` and ``uniform(-hw, hw)``, which is
    ``-hw + (hw - -hw) * random()``, bit for bit. ``integers(0, 2)`` maps each
    32-bit draw to its bit 31 (Lemire's method with range 2), and Philox hands
    out the low half of each 64-bit word first, so the Rademacher bits are read
    straight from ``random_raw`` words: bit 31, then bit 63, of each word.
    """
    width = sum(size for size, _ in blocks)
    rademacher = config.law == "rademacher"
    # One Philox per call, never shared across threads. Each index gets the
    # state of a fresh one (counter 0, empty buffer, no half-used uint32) under
    # its own key, so no draw of one index leaks into the next. Seeding with 0
    # skips an entropy read that the first reset overrides anyway.
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(indices), width))
    if rademacher:
        words = np.empty((len(indices), (width + 1) // 2), np.uint64)
    for b, index in enumerate(indices):
        fresh["state"]["key"][:] = (config.master_seed & _MASK64, index & _MASK64)
        bitgen.state = fresh
        if config.law == "gaussian":
            rng.standard_normal(out=out[b])
        elif rademacher:
            words[b] = bitgen.random_raw(words.shape[1])
        else:
            rng.random(out=out[b])
    if rademacher:
        # Shifts on the 64-bit words, so the order of the halves does not
        # depend on the byte order of the machine; an odd width leaves the
        # high half of the last word unused.
        np.right_shift(words[:, : width // 2], 63, out=out[:, 1::2])
        words >>= 31
        np.bitwise_and(words, 1, out=out[:, 0::2])
        out *= 2.0
        out -= 1.0
    start = 0
    for size, std in blocks:
        block = out[:, start:start + size]
        start += size
        if config.law == "uniform-symmetric":
            half_width = std * math.sqrt(3.0)
            block *= half_width - -half_width
            block += -half_width
        else:
            block *= std
    return out


@lru_cache(maxsize=64)
def _upper_indices(n: int):
    return np.triu_indices(n, 1)


def _wigner_stack(config: EnsembleConfig, indices) -> np.ndarray:
    """The ``(len(indices), n, n)`` stack of ``W``, slice b drawn for ``indices[b]``.

    The draws of one index are the off-diagonal components (complex case:
    all real parts, then all imaginary parts), then the diagonal.
    """
    n = config.n
    n_off = n * (n - 1) // 2
    is_complex = config.symmetry.is_complex
    k_off = 2 * n_off if is_complex else n_off
    off_std = config.sigma / math.sqrt(2.0) if is_complex else config.sigma
    draws = _law_draws(config, indices, ((k_off, off_std), (n, config.diag_sigma)))
    upper = draws[:, :n_off] + 1j * draws[:, n_off:k_off] if is_complex else draws[:, :n_off]
    w = np.zeros((len(indices), n, n), dtype=upper.dtype)
    rows, cols = _upper_indices(n)
    w[:, rows, cols] = upper
    del upper  # the complex values are copied into w; free them before the mirror
    # w + conj(w^T), summed as conj(w^T) + w into one new C-ordered array
    # (addition commutes bit for bit), so the mirror holds two stacks, not three.
    m = np.conjugate(w.swapaxes(1, 2), order="C")
    m += w
    del w
    d = np.arange(n)
    m[:, d, d] = draws[:, k_off:]
    return m


def sample_batch(config: EnsembleConfig, indices) -> np.ndarray:
    """The ``(len(indices), n, n)`` stack of ``M = W / sqrt(n) + A``.

    Slice b is the matrix of sample index ``indices[b]``, bit for bit, however
    the indices are batched.
    """
    m = _wigner_stack(config, indices)
    # A has the constant entry theta / n, so adding it is a scalar shift.
    m /= math.sqrt(config.n)
    m += config.theta / config.n
    return m


def sample_wigner(config: EnsembleConfig, sample_index: int) -> MatrixSample:
    """Draw the undeformed Wigner matrix ``W`` for the given sample index.

    Entries above the diagonal are independent with the configured law
    (complex case: independent Re/Im parts of variance ``sigma**2 / 2``
    each); the diagonal is real with variance ``diag_sigma**2``; the lower
    triangle is the exact conjugate mirror of the upper one.
    """
    return MatrixSample(entries=_wigner_stack(config, (sample_index,))[0])


def sample_deformed(config: EnsembleConfig, sample_index: int) -> MatrixSample:
    """Draw ``M = W / sqrt(n) + A`` for the given sample index."""
    return MatrixSample(entries=sample_batch(config, (sample_index,))[0])
