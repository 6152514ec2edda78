"""Dense eigenvalue computation and rescaled spectral statistics.

Everything downstream consumes eigenvalues only, so this module exposes a
single full decomposition plus the rank-one interlacing check, the top-k
edge rescaling and the outlier census.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import MatrixSample, RegimeError, regime_of

__all__ = [
    "Spectrum",
    "EigensolverError",
    "eigenvalues",
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

