"""Dense eigenvalue computation and rescaled spectral statistics.

Everything downstream consumes eigenvalues only. Every spectrum of one matrix
is a reduction to real tridiagonal form followed by ``dsterf``: this module
exposes that reduction, the full spectrum of one matrix, the pair of spectra
of ``W`` and its rank-one deformation from one shared reduction, a scope that
holds OpenBLAS at one thread, the rank-one interlacing check, the top-k edge
rescaling and the outlier census.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .ensembles import MatrixSample, RegimeError, regime_of

__all__ = [
    "Spectrum",
    "EigensolverError",
    "tridiagonal",
    "eigenvalues",
    "one_blas_thread",
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


# Entry points of the ILP64 OpenBLAS that numpy's linalg links. The two-stage
# reduction has no LAPACKE wrapper there, so it is called as Fortran.
_LAPACK_SYMBOLS = {
    "zhetrd_2stage": "scipy_zhetrd_2stage_64_",
    "dsytrd": "scipy_LAPACKE_dsytrd64_",
    "dsterf": "scipy_LAPACKE_dsterf64_",
}
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


@functools.cache
def _openblas() -> ctypes.CDLL:
    """The library numpy's own linalg extension already loaded, so no
    dependency is added; ctypes calls release the GIL."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@functools.cache
def _lapack_routines() -> dict | None:
    """The tridiagonal LAPACK routines, resolved once; None if one is missing."""
    try:
        found = {name: getattr(_openblas(), symbol) for name, symbol in _LAPACK_SYMBOLS.items()}
    except AttributeError:
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    ref = ctypes.POINTER(i64)
    # Fortran: every argument by reference, then the lengths of VECT and UPLO
    found["zhetrd_2stage"].argtypes = [ctypes.c_char_p, ctypes.c_char_p, ref, ptr, ref, ptr,
                                       ptr, ptr, ptr, ref, ptr, ref, ref,
                                       ctypes.c_size_t, ctypes.c_size_t]
    found["zhetrd_2stage"].restype = None
    found["dsytrd"].argtypes = [ctypes.c_int, ctypes.c_char, i64, ptr, i64, ptr, ptr, ptr]
    found["dsytrd"].restype = i64
    found["dsterf"].argtypes = [i64, ptr, ptr]
    found["dsterf"].restype = i64
    return found


def _lapack_check(info: int, routine: str) -> None:
    if info != 0:
        raise EigensolverError(f"LAPACK {routine} returned info = {info}")


@functools.cache
def _thread_control() -> tuple | None:
    """OpenBLAS's get and set of its thread count; None if one is missing."""
    try:
        get, put = (getattr(_openblas(), symbol) for symbol in _THREAD_SYMBOLS)
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _OneBlasThread:
    """Context manager that holds OpenBLAS at one thread while any caller is
    inside it, and leaves the threads alone without the thread symbols.

    The two-stage reduction spends most of its time in serial steps, through
    which a second OpenBLAS thread only spins. The count is process-wide, and
    a reduction's last bits depend on it, so callers in different threads
    share one saved count: the first to enter saves it and the last to leave
    restores it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inside = 0
        self._restore = None  # (set, saved count) while the count is held at one

    def __enter__(self) -> None:
        with self._lock:
            control = _thread_control() if self._inside == 0 else None
            if control is not None:
                get, put = control
                self._restore = put, get()
                put(1)
            self._inside += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._inside -= 1
            if self._inside == 0 and self._restore is not None:
                put, saved = self._restore
                self._restore = None
                put(saved)


one_blas_thread = _OneBlasThread()


def _zhetrd_2stage(routine, b: np.ndarray, d: np.ndarray, e: np.ndarray) -> int:
    """``zhetrd_2stage`` with ``VECT = 'N'``, ``UPLO = 'L'`` on ``b``: a
    workspace query, then the reduction. Returns LAPACK's ``info``."""
    n, info = ctypes.c_int64(len(b)), ctypes.c_int64(0)
    tau = np.empty(max(len(b) - 1, 1), np.complex128)

    def call(hous2: np.ndarray, work: np.ndarray, query: bool) -> int:
        lhous2 = ctypes.c_int64(-1 if query else hous2.size)
        lwork = ctypes.c_int64(-1 if query else work.size)
        routine(b"N", b"L", ctypes.byref(n), b.ctypes.data, ctypes.byref(n), d.ctypes.data,
                e.ctypes.data, tau.ctypes.data, hous2.ctypes.data, ctypes.byref(lhous2),
                work.ctypes.data, ctypes.byref(lwork), ctypes.byref(info), 1, 1)
        return info.value

    hous2, work = np.zeros(1, np.complex128), np.zeros(1, np.complex128)
    if call(hous2, work, query=True) != 0:
        return info.value
    return call(np.empty(max(1, int(hous2[0].real)), np.complex128),
                np.empty(max(1, int(work[0].real)), np.complex128), query=False)


def tridiagonal(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real symmetric tridiagonal form ``(d, e)`` of the Hermitian/symmetric
    matrix ``b``, a C-ordered complex128 or float64 array that it overwrites.

    ``d`` is the diagonal (n) and ``e`` the subdiagonal (n - 1) of a
    tridiagonal matrix unitarily similar to ``b``. Complex input takes LAPACK's
    two-stage reduction ``zhetrd_2stage`` (dense to band in BLAS-3, then
    bulge chasing to tridiagonal) on one OpenBLAS thread; real input keeps the
    one-stage ``dsytrd`` on the threads it finds, which is faster there. Both
    reduce the lower triangle and fix ``e1``, so ``(d + theta e1, e)`` is the
    form of ``b + theta e1 e1^T``. Read column-major, the C-order buffer of
    ``b`` is ``conj(b)``, whose real tridiagonal form is the same. Requires
    the LAPACK symbols.
    """
    if b.dtype not in (np.complex128, np.float64) or b.ndim != 2 \
            or b.shape[0] != b.shape[1] or not b.flags.c_contiguous:
        raise ValueError("tridiagonal needs a square C-ordered complex128 or float64 array")
    routines = _lapack_routines()
    n = len(b)
    d, e = np.empty(n), np.empty(max(n - 1, 0))
    if b.dtype == np.complex128:
        with one_blas_thread:
            info = _zhetrd_2stage(routines["zhetrd_2stage"], b, d, e)
        _lapack_check(info, "zhetrd_2stage")
    else:
        tau = np.empty(max(n - 1, 1))
        info = routines["dsytrd"](_COL_MAJOR, b"L", n, b.ctypes.data, n, d.ctypes.data,
                                  e.ctypes.data, tau.ctypes.data)
        _lapack_check(info, "dsytrd")
    return d, e


def _tridiagonal_spectrum(routines: dict, d: np.ndarray, e: np.ndarray) -> Spectrum:
    d, e = d.copy(), e.copy()  # dsterf overwrites both
    _lapack_check(routines["dsterf"](len(d), d.ctypes.data, e.ctypes.data), "dsterf")
    return Spectrum(values=np.ascontiguousarray(d[::-1]))


def _lapack_dtype(entries: np.ndarray) -> type:
    return np.complex128 if np.iscomplexobj(entries) else np.float64


def _owned_eigenvalues(b: np.ndarray) -> Spectrum:
    """:func:`eigenvalues` of ``b``, a C-ordered complex128 or float64 array
    that it overwrites."""
    if not MatrixSample(entries=b).is_hermitian():
        raise ValueError("matrix is not exactly Hermitian/symmetric")
    routines = _lapack_routines()
    if routines is None:
        try:
            vals = np.linalg.eigvalsh(b)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
            raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
        return Spectrum(values=np.ascontiguousarray(vals[::-1]))
    return _tridiagonal_spectrum(routines, *tridiagonal(b))


def eigenvalues(m: MatrixSample) -> Spectrum:
    """All eigenvalues of a Hermitian/symmetric matrix, descending:
    :func:`tridiagonal` on a copy, then ``dsterf``. Without the LAPACK symbols
    they come from ``np.linalg.eigvalsh``."""
    return _owned_eigenvalues(np.array(m.entries, dtype=_lapack_dtype(m.entries), order="C"))


def _owned_rank_one_spectra(b: np.ndarray, theta: float) -> tuple[Spectrum, Spectrum]:
    """:func:`rank_one_spectra` of ``b``, a C-ordered complex128 or float64
    array that it overwrites: the reflector turns it into ``B`` in place and
    :func:`tridiagonal` reduces ``B`` where it stands."""
    if not MatrixSample(entries=b).is_hermitian():
        raise ValueError("matrix is not exactly Hermitian/symmetric")
    n = len(b)
    routines = _lapack_routines()
    if routines is None:
        deformed = MatrixSample(entries=b + theta / n)
        return eigenvalues(MatrixSample(entries=b)), eigenvalues(deformed)
    if n > 1:  # at n = 1, u = e1: the reflector is the identity
        c = 1.0 / np.sqrt(n)
        v = np.full(n, c)
        v[0] -= 1.0
        tau = 2.0 / (v @ v)
        wv = b @ v.astype(b.dtype)
        x = tau * wv - (0.5 * tau * tau * (v @ wv).real) * v
        # B = W - v x^H - x v^T, with v = c 1 - e1 applied as row and column broadcasts
        b -= c * x.conj()
        b[0] += x.conj()
        b -= (c * x)[:, None]
        b[:, 0] += x
    d, e = tridiagonal(b)
    base = _tridiagonal_spectrum(routines, d, e)
    d[0] += theta
    return base, _tridiagonal_spectrum(routines, d, e)


def rank_one_spectra(m: MatrixSample, theta: float) -> tuple[Spectrum, Spectrum]:
    """Spectra of ``W`` and ``W + theta u u^T`` with ``u = 1/sqrt(n)``, both descending.

    The real Householder reflector ``H = I - tau v v^T``, ``v = u - e1``, maps
    ``u`` to ``e1``, so ``B = H W H`` (one rank-2 update) is similar to ``W``
    and ``B + theta e1 e1^T`` to the deformed matrix. One :func:`tridiagonal`
    reduction of ``B`` serves both, and ``dsterf`` on ``(d, e)`` and on
    ``(d + theta e1, e)`` gives the two spectra. ``W`` is copied once, and
    ``B`` built and reduced in that copy. Without the LAPACK symbols both
    come from :func:`eigenvalues`.
    """
    return _owned_rank_one_spectra(
        np.array(m.entries, dtype=_lapack_dtype(m.entries), order="C"), theta)


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
