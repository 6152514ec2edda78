"""Sampling of Wigner matrices and their rank-one deformations.

The model is ``M = W / sqrt(n) + A`` where ``W`` is a Hermitian (or real
symmetric) matrix with independent, symmetric, sub-Gaussian entries above the
diagonal and ``A`` is the deterministic rank-one matrix whose every entry is
``theta / n`` (so its nonzero eigenvalue is exactly ``theta``).

Sampling is counter-based: every ``(master_seed, sample_index)`` pair keys its
own Philox stream and fills the matrix in a fixed order, so a sample is a
pure function of its index and never depends on how many samples are drawn
concurrently, in what order or in what batches. ``sample_batch`` draws a
whole stack. Short Rademacher and uniform streams of large batches come from
a vectorized Philox4x64-10 kernel that computes every index's words at once;
all other draws come from one generator per call, reset to each index's key.
Both routes give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
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
SYMMETRIES = ("complex", "real")


class RegimeError(ValueError):
    """A statistic was requested outside the regime where it is defined."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one deformed ensemble.

    ``symmetry`` is ``"complex"`` (Hermitian) or ``"real"`` (symmetric) and
    ``law`` names the entry law (one of ``LAW_KINDS``). Prefer
    :meth:`create`, which defaults ``diag_sigma`` to ``sigma``.
    """

    n: int
    sigma: float
    theta: float
    diag_sigma: float
    symmetry: str
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
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {self.symmetry!r}; expected one of {SYMMETRIES}")
        if self.law not in LAW_KINDS:
            raise ValueError(f"unknown entry law {self.law!r}; expected one of {LAW_KINDS}")

    @property
    def is_complex(self) -> bool:
        return self.symmetry == "complex"

    @classmethod
    def create(
        cls,
        n: int,
        sigma: float,
        theta: float,
        law: str = "gaussian",
        symmetry: str = "complex",
        master_seed: int = 0,
        diag_sigma: float | None = None,
    ) -> "EnsembleConfig":
        return cls(
            n=n,
            sigma=sigma,
            theta=theta,
            diag_sigma=sigma if diag_sigma is None else diag_sigma,
            symmetry=symmetry,
            law=law,
            master_seed=master_seed,
        )


@dataclass(frozen=True)
class MatrixSample:
    """A sampled Hermitian/symmetric matrix."""

    entries: np.ndarray = field(repr=False)

    def is_hermitian(self) -> bool:
        """Whether the entries equal their conjugate transpose exactly.

        Each block of rows, from the diagonal on, is compared with the
        matching block of columns, which complex input conjugates into one
        reused buffer of at most ``_HERMITIAN_BLOCK`` entries. The comparison
        of two strided blocks passes through numpy's ufunc buffers, held at
        ``_UFUNC_BUFFER`` entries here. So the check copies one block, never
        the matrix.
        """
        a = self.entries
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            return False
        n = len(a)
        step = max(1, _HERMITIAN_BLOCK // max(n, 1))
        # bool, integer and float entries are their own conjugates
        block = None if a.dtype.kind in "biuf" else np.empty((n, min(step, n)), a.dtype)
        saved = np.setbufsize(_UFUNC_BUFFER)
        try:
            for r in range(0, n, step):
                mirror = a[r:, r:r + step]
                if block is not None:
                    mirror = np.conjugate(mirror, out=block[:n - r, :mirror.shape[1]])
                if not np.array_equal(a[r:r + step, r:], mirror.T):
                    return False
        finally:
            np.setbufsize(saved)
        return True


# Entries of the conjugate copy that MatrixSample.is_hermitian makes per
# block: 128 KiB of complex128. Its comparison's ufunc buffers hold 256
# entries each, 4 KiB of complex128, at no cost in time at n = 300 or 1000.
_HERMITIAN_BLOCK = 8192
_UFUNC_BUFFER = 256


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


# Philox4x64-10 round multipliers and key increments (Salmon et al., SC 2011),
# the constants of numpy's Philox.
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Rademacher and uniform streams of at most KERNEL_MAX_WORDS words per index,
# drawn for at least KERNEL_MIN_BATCH indices at once, come from _philox_words;
# all others from the per-index loop. Per word the kernel costs 55-110 ns
# against about 7 ns in the C generator, but it saves the loop's 2-3.5 us per
# index; its 10 rounds of numpy calls cost about 0.25 ms per call, whatever
# the batch. Measured on 2,048 indices the two cross between 24 and 48 words,
# and at 8 to 32 words between 128 and 512 indices.
KERNEL_MAX_WORDS = 32
KERNEL_MIN_BATCH = 256


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products ``m * x``, from the
    32-bit halves of ``x`` and of the constant ``m`` (every partial product
    and sum fits in 64 bits)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _MASK32
    x_hi = x >> _SHIFT32
    t = x_hi * m_lo
    t += (x_lo * m_lo) >> _SHIFT32
    mid = t & _MASK32
    mid += x_lo * m_hi
    hi = x_hi * m_hi
    hi += t >> _SHIFT32
    hi += mid >> _SHIFT32
    return x * np.uint64(m), hi


def _philox_words(seed: int, indices, n_words: int) -> np.ndarray:
    """The ``(len(indices), n_words)`` uint64 array whose row b holds the first
    ``n_words`` words of the Philox4x64-10 stream keyed
    ``(seed mod 2^64, indices[b] mod 2^64)``, as ``random_raw`` returns them.

    numpy's Philox increments its counter before each 4-word block, so a fresh
    stream's blocks sit at counters 1, 2, ...; the words come in block order.
    The key is a scalar and a ``(B, 1)`` column; only the counters are full
    ``(B, blocks)`` arrays.
    """
    blocks = -(-n_words // 4)
    k0 = seed & _MASK64
    k1 = np.fromiter((i & _MASK64 for i in indices), np.uint64, len(indices))[:, None]
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, blocks), np.uint64)
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_BUMP[0]) & _MASK64
                k1 = k1 + np.uint64(_PHILOX_BUMP[1])
            lo0, hi0 = _mulhilo(_PHILOX_MUL[0], c0)
            lo1, hi1 = _mulhilo(_PHILOX_MUL[1], c2)
            hi1 ^= c1
            hi1 ^= np.uint64(k0)
            hi0 ^= c3
            c0, c1, c2, c3 = hi1, lo1, hi0 ^ k1, lo0
    words = np.empty((len(indices), blocks, 4), np.uint64)
    for j, c in enumerate((c0, c1, c2, c3)):
        words[:, :, j] = c
    return words.reshape(len(indices), 4 * blocks)[:, :n_words]


def _fresh_generators(seed: int, indices):
    """Yield, for each index in turn, one Generator whose Philox is reset to
    the fresh state keyed ``(seed, index mod 2^64)``.

    Fresh means counter 0, an empty buffer and no half-used uint32, so no draw
    of one index leaks into the next. The state is built from plain ints (the
    ``state`` setter reads each field by index), with the key a list whose
    second entry is updated in place. Seeding with 0 skips an entropy read that
    the first reset overrides anyway. One Philox per call, never shared across
    threads.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = [seed, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in indices:
        key[1] = index & _MASK64
        bitgen.state = fresh
        yield rng


def _law_draws(config: EnsembleConfig, indices, blocks) -> np.ndarray:
    """Draws of the configured law, row b from the stream of ``indices[b]`` in
    one call; ``blocks`` lists the ``(width, std)`` column blocks in order.

    The arithmetic is that of ``std * standard_normal``, ``std * (2 k - 1)``
    for ``k = integers(0, 2)`` and ``uniform(-hw, hw)``, which is
    ``-hw + (hw - -hw) * random()``, bit for bit. ``integers(0, 2)`` maps each
    32-bit draw to its bit 31 (Lemire's method with range 2), and Philox hands
    out the low half of each 64-bit word first, so the Rademacher bits are read
    straight from the raw words: bit 31, then bit 63, of each word.
    ``random()`` is ``(word >> 11) * 2**-53``, one word per draw.
    """
    width = sum(size for size, _ in blocks)
    seed = config.master_seed & _MASK64
    rademacher = config.law == "rademacher"
    out = np.empty((len(indices), width))
    if config.law == "gaussian":
        # The ziggurat takes a variable number of words per draw, so Gaussian
        # draws always run on the per-index loop.
        for row, rng in zip(out, _fresh_generators(seed, indices)):
            rng.standard_normal(out=row)
    else:
        n_words = (width + 1) // 2 if rademacher else width
        if n_words <= KERNEL_MAX_WORDS and len(indices) >= KERNEL_MIN_BATCH:
            words = _philox_words(seed, indices, n_words)
        else:
            words = np.empty((len(indices), n_words), np.uint64)
            for row, rng in zip(words, _fresh_generators(seed, indices)):
                row[:] = rng.bit_generator.random_raw(n_words)
        if rademacher:
            # Shifts on the 64-bit words, so the order of the halves does not
            # depend on the byte order of the machine; an odd width leaves the
            # high half of the last word unused.
            np.right_shift(words[:, : width // 2], 63, out=out[:, 1::2])
            words >>= 31
            np.bitwise_and(words, 1, out=out[:, 0::2])
            out *= 2.0
            out -= 1.0
        else:
            words >>= 11
            np.multiply(words, 2.0**-53, out=out)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # spectral reports an overflow
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


def _wigner_stack(config: EnsembleConfig, indices) -> np.ndarray:
    """The ``(len(indices), n, n)`` stack of ``W``, slice b drawn for ``indices[b]``.

    The draws of one index are the off-diagonal components (complex case:
    all real parts, then all imaginary parts), then the diagonal. The stack
    is allocated once and every entry written once: each upper row segment
    straight from the draws, then its conjugate into the column below the
    diagonal, and the diagonal last. So a draw holds the draws and the stack,
    and nothing else of size n**2.

    An off-diagonal component ``x`` is stored as ``x + 0.0`` (a lower
    imaginary part as ``0.0 - y``), the bits of ``conj(U^T) + U`` for the
    zero-filled upper triangle ``U``: the zero terms turn -0.0 into +0.0.
    """
    n = config.n
    n_off = n * (n - 1) // 2
    is_complex = config.is_complex
    k_off = 2 * n_off if is_complex else n_off
    off_std = config.sigma / math.sqrt(2.0) if is_complex else config.sigma
    draws = _law_draws(config, indices, ((k_off, off_std), (n, config.diag_sigma)))
    m = np.empty((len(indices), n, n), np.complex128 if is_complex else np.float64)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        upper, lower = m[:, i, i + 1:], m[:, i + 1:, i]
        re = draws[:, start:stop]
        if is_complex:
            im = draws[:, n_off + start:n_off + stop]
            np.add(re, 0.0, out=upper.real)
            np.add(im, 0.0, out=upper.imag)
            np.add(re, 0.0, out=lower.real)
            np.subtract(0.0, im, out=lower.imag)
        else:
            np.add(re, 0.0, out=upper)
            np.add(re, 0.0, out=lower)
        start = stop
    m.reshape(len(indices), n * n)[:, :: n + 1] = draws[:, k_off:]
    return m


def sample_batch(config: EnsembleConfig, indices) -> np.ndarray:
    """The ``(len(indices), n, n)`` stack of ``M = W / sqrt(n) + A``.

    Slice b is the matrix of sample index ``indices[b]``, bit for bit, however
    the indices are batched.
    """
    m = _wigner_stack(config, indices)
    # A has the constant entry theta / n, so adding it is a scalar shift.
    with np.errstate(over="ignore", invalid="ignore"):  # spectral reports an overflow
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
