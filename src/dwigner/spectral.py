"""Dense eigenvalue computation and rescaled spectral statistics.

Everything downstream consumes eigenvalues only, so this module exposes the
full decomposition of one matrix, the pair of spectra of ``W`` and its rank-one
deformation from one shared tridiagonal reduction, the rank-one interlacing
check, the top-k edge rescaling and the outlier census.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

from .ensembles import MatrixSample, RegimeError, regime_of

__all__ = [
    "Spectrum",
    "EigensolverError",
    "eigenvalues",
    "rank_one_spectra",
    "interlacing_check",
    "rescaled_fluctuation",
    "outlier_census",
]


class EigensolverError(RuntimeError):
    """The eigenvalue iteration failed to converge."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending."""

    values: np.ndarray = field(repr=False)


def eigenvalues(m: MatrixSample) -> Spectrum:
    """All eigenvalues of a Hermitian/symmetric matrix, descending.

    Uses the standard unitary reduction to real symmetric tridiagonal form
    followed by implicit-shift iteration (LAPACK ``syevd``/``heevd`` via
    numpy); non-convergence is reported with the offending index.
    """
    if not m.is_hermitian():
        raise ValueError("matrix is not exactly Hermitian/symmetric")
    try:
        vals = np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    return Spectrum(values=np.ascontiguousarray(vals[::-1]))


# LAPACKE entry points of the ILP64 OpenBLAS that numpy's linalg links.
_LAPACKE_SYMBOLS = {
    "zhetrd": "scipy_LAPACKE_zhetrd64_",
    "dsytrd": "scipy_LAPACKE_dsytrd64_",
    "dsterf": "scipy_LAPACKE_dsterf64_",
}
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


@functools.cache
def _lapack_routines() -> dict | None:
    """The tridiagonal LAPACKE routines, resolved once; None if one is missing.

    They come from the library numpy's own linalg extension already loaded, so
    no dependency is added; ctypes calls release the GIL.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        found = {name: getattr(lib, symbol) for name, symbol in _LAPACKE_SYMBOLS.items()}
    except AttributeError:
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    for name in ("zhetrd", "dsytrd"):
        found[name].argtypes = [ctypes.c_int, ctypes.c_char, i64, ptr, i64, ptr, ptr, ptr]
    found["dsterf"].argtypes = [i64, ptr, ptr]
    for fn in found.values():
        fn.restype = i64
    return found


def _lapack_check(info: int, routine: str) -> None:
    if info != 0:
        raise EigensolverError(f"LAPACK {routine} returned info = {info}")


def _tridiagonal_spectrum(routines: dict, d: np.ndarray, e: np.ndarray) -> Spectrum:
    d, e = d.copy(), e.copy()  # dsterf overwrites both
    _lapack_check(routines["dsterf"](len(d), d.ctypes.data, e.ctypes.data), "dsterf")
    return Spectrum(values=np.ascontiguousarray(d[::-1]))


def rank_one_spectra(m: MatrixSample, theta: float) -> tuple[Spectrum, Spectrum]:
    """Spectra of ``W`` and ``W + theta u u^T`` with ``u = 1/sqrt(n)``, both descending.

    The real Householder reflector ``H = I - tau v v^T``, ``v = u - e1``, maps
    ``u`` to ``e1``, so ``B = H W H`` (one rank-2 update) is similar to ``W``
    and ``B + theta e1 e1^T`` to the deformed matrix. LAPACK's lower
    tridiagonal reduction (``zhetrd``/``dsytrd``) never moves ``e1``: one
    reduction of ``B`` to ``(d, e)`` serves both matrices, and ``dsterf`` on
    ``(d, e)`` and on ``(d + theta e1, e)`` gives the two spectra. Without the
    LAPACKE symbols both come from :func:`eigenvalues`.
    """
    if not m.is_hermitian():
        raise ValueError("matrix is not exactly Hermitian/symmetric")
    n = m.entries.shape[0]
    routines = _lapack_routines()
    if routines is None:
        return eigenvalues(m), eigenvalues(MatrixSample(entries=m.entries + theta / n))
    w = np.asarray(m.entries, dtype=np.complex128 if np.iscomplexobj(m.entries) else np.float64)
    if n == 1:  # u = e1: the reflector is the identity
        b = w.copy()
    else:
        c = 1.0 / np.sqrt(n)
        v = np.full(n, c)
        v[0] -= 1.0
        tau = 2.0 / (v @ v)
        wv = w @ v.astype(w.dtype)
        x = tau * wv - (0.5 * tau * tau * (v @ wv).real) * v
        # B = W - v x^H - x v^T, with v = c 1 - e1 applied as row and column broadcasts
        b = w - c * x.conj()
        b[0] += x.conj()
        b -= (c * x)[:, None]
        b[:, 0] += x
    # Read column-major, the C-order buffer of B is conj(B): the same real
    # tridiagonal form, and the lower reduction still fixes e1.
    d, e, tau_out = np.empty(n), np.empty(n - 1), np.empty(n - 1, dtype=b.dtype)
    routine = "zhetrd" if b.dtype == np.complex128 else "dsytrd"
    _lapack_check(routines[routine](_COL_MAJOR, b"L", n, b.ctypes.data, n, d.ctypes.data,
                                    e.ctypes.data, tau_out.ctypes.data), routine)
    base = _tridiagonal_spectrum(routines, d, e)
    d[0] += theta
    return base, _tridiagonal_spectrum(routines, d, e)


def interlacing_check(deformed: Spectrum, base: Spectrum) -> int:
    """Count violations of lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... for a rank-one shift.

    ``deformed`` must come from ``W/sqrt(n) + A`` and ``base`` from the same
    draw's ``W/sqrt(n)``. Comparisons carry a slack proportional to the
    spectral radius to absorb eigensolver round-off.
    """
    lam = deformed.values
    mu = base.values
    if lam.shape != mu.shape:
        raise ValueError("spectra have different dimensions")
    radius = max(float(np.max(np.abs(lam))), float(np.max(np.abs(mu))), 0.0)
    slack = 1e-8 * (1.0 + radius)
    below = np.count_nonzero(mu - lam > slack)  # require lam_i >= mu_i
    above = np.count_nonzero(lam[1:] - mu[:-1] > slack)  # require mu_i >= lam_{i+1}
    return int(below + above)


def rescaled_fluctuation(spectrum: Spectrum, sigma: float, n: int, k: int) -> tuple[float, ...]:
    """Top ``k`` edge statistics ``u_j = n^{2/3} (lambda_j - 2 sigma)``."""
    if k > n:
        raise ValueError("k must be <= n")
    n23 = float(n) ** (2.0 / 3.0)
    return tuple(n23 * (float(v) - 2.0 * sigma) for v in spectrum.values[:k])


def outlier_census(spectrum: Spectrum, theta: float, sigma: float, n: int) -> tuple[int, int]:
    """Count eigenvalues beyond the mid and far thresholds.

    ``count_mid`` counts indices ``i >= 2`` with
    ``lambda_i > 2 sigma + (rho_theta - 2 sigma) / 2``; ``count_far`` counts
    all indices with ``lambda_i > rho_theta (1 + n^{-1/3})``. Requires the
    supercritical regime.
    """
    if not theta > sigma:
        raise RegimeError("outlier census requires theta > sigma")
    rho = regime_of(theta, sigma).rho_theta
    mid = 2.0 * sigma + (rho - 2.0 * sigma) / 2.0
    far = rho * (1.0 + float(n) ** (-1.0 / 3.0))
    lam = spectrum.values
    count_mid = int(np.sum(lam[1:] > mid))
    count_far = int(np.sum(lam > far))
    return count_mid, count_far

