"""Dense eigenvalue computation and rescaled spectral statistics.

Everything downstream consumes eigenvalues only. Every spectrum of one matrix
is a reduction to real tridiagonal form, in the buffer it is handed, followed
by ``dsterf``. The module exposes that reduction, the full spectrum of one
matrix, the pair of spectra of ``W`` and its rank-one deformation from one
shared reduction, the rank-one interlacing check, the top-k edge rescaling
and the outlier census; only it holds OpenBLAS at one thread.
"""

from __future__ import annotations

import contextlib
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


_OVERFLOW = "the matrix overflows float64: its entry scale sigma (--sigma) is too large"


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
    the LAPACK symbols; raises ``OverflowError`` if ``b`` or its form overflows.
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
        if info < 0 and not np.isfinite(b).all():  # LAPACKE refuses a nan in b
            raise OverflowError(_OVERFLOW)
        _lapack_check(info, "dsytrd")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise OverflowError(_OVERFLOW)
    return d, e


def _tridiagonal_spectrum(routines: dict, d: np.ndarray, e: np.ndarray) -> Spectrum:
    d, e = d.copy(), e.copy()  # dsterf overwrites both
    _lapack_check(routines["dsterf"](len(d), d.ctypes.data, e.ctypes.data), "dsterf")
    if not np.isfinite(d).all():  # finite (d, e) whose eigenvalues overflow
        raise OverflowError(_OVERFLOW)
    return Spectrum(values=np.ascontiguousarray(d[::-1]))


def _check_hermitian(b: np.ndarray) -> None:
    if not MatrixSample(entries=b).is_hermitian():
        if not np.isfinite(b).all():  # a complex inf scaled by a real is nan
            raise OverflowError(_OVERFLOW)
        raise ValueError("matrix is not exactly Hermitian/symmetric")


def eigenvalues(m: MatrixSample) -> Spectrum:
    """All eigenvalues of a Hermitian/symmetric matrix, descending: the
    Hermitian check, :func:`tridiagonal`, then ``dsterf``. Consumes ``m``:
    entries that are a writable C-ordered complex128 or float64 array are
    reduced in place, others are converted once. Without the LAPACK symbols
    the values come from ``np.linalg.eigvalsh``.
    """
    dtype = np.complex128 if np.iscomplexobj(m.entries) else np.float64
    b = np.require(m.entries, dtype, ("C", "W"))
    _check_hermitian(b)
    routines = _lapack_routines()
    if routines is None:
        try:
            vals = np.linalg.eigvalsh(b)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
            raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
        return Spectrum(values=np.ascontiguousarray(vals[::-1]))
    return _tridiagonal_spectrum(routines, *tridiagonal(b))


def _reflect(b: np.ndarray) -> None:
    """Overwrite ``b`` with ``H b H``, where the real Householder reflector
    ``H = I - tau v v^T``, ``v = u - e1``, maps ``u = 1/sqrt(n)`` to ``e1``;
    ``b @ v`` is its one BLAS product."""
    n = len(b)
    if n < 2:  # at n = 1, u = e1: the reflector is the identity
        return
    c = 1.0 / np.sqrt(n)
    v = np.full(n, c)
    v[0] -= 1.0
    tau = 2.0 / (v @ v)
    wv = b @ v.astype(b.dtype)
    x = tau * wv - (0.5 * tau * tau * (v @ wv).real) * v
    # H b H = b - v x^H - x v^T, with v = c 1 - e1 applied as row and column broadcasts
    b -= c * x.conj()
    b[0] += x.conj()
    b -= (c * x)[:, None]
    b[:, 0] += x


def rank_one_spectra(b: np.ndarray, theta: float) -> tuple[Spectrum, Spectrum]:
    """Spectra of ``W`` and ``W + theta u u^T`` with ``u = 1/sqrt(n)``, both
    descending, from ``b`` holding ``W``: a C-ordered complex128 or float64
    array that it overwrites. :func:`_reflect` makes ``b`` into ``B = H W H``,
    and ``B + theta e1 e1^T`` is similar to the deformed matrix, so one
    :func:`tridiagonal` reduction of ``B`` serves both: ``dsterf`` on
    ``(d, e)`` and on ``(d + theta e1, e)``. Complex input is reflected and
    reduced on one OpenBLAS thread. Without the LAPACK symbols both spectra
    come from :func:`eigenvalues`.
    """
    _check_hermitian(b)
    routines = _lapack_routines()
    if routines is None:
        deformed = MatrixSample(entries=b + theta / len(b))
        return eigenvalues(MatrixSample(entries=b)), eigenvalues(deformed)
    with one_blas_thread if b.dtype == np.complex128 else contextlib.nullcontext():
        _reflect(b)
        d, e = tridiagonal(b)
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
