"""Dense eigenvalue computation and rescaled spectral statistics.

Everything downstream consumes eigenvalues only. Every spectrum of one matrix
is a reduction to real tridiagonal form, in the buffer it is handed, followed
by ``dsterf``. The module exposes that reduction, the full spectrum of one
matrix, the pair of spectra of ``W`` and its rank-one deformation from one
shared reduction in two stages (dense to band, then band to spectra, which
can run on different threads), the rank-one interlacing check, the top-k edge
rescaling and the outlier census; only it holds OpenBLAS at one thread.
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
    "reflected_band",
    "band_spectra",
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


# Entry points of the ILP64 OpenBLAS that numpy's linalg links. The two
# stages of the complex reduction have no LAPACKE wrappers there, so they and
# their block-size query are called as Fortran.
_LAPACK_SYMBOLS = {
    "ilaenv2stage": "scipy_ilaenv2stage_64_",
    "zhetrd_he2hb": "scipy_zhetrd_he2hb_64_",
    "zhetrd_hb2st": "scipy_zhetrd_hb2st_64_",
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
    ptr, i64, text, length = ctypes.c_void_p, ctypes.c_int64, ctypes.c_char_p, ctypes.c_size_t
    ref = ctypes.POINTER(i64)
    # Fortran: every argument by reference, then the length of each string
    found["ilaenv2stage"].argtypes = [ref, text, text, ref, ref, ref, ref, length, length]
    found["ilaenv2stage"].restype = i64
    found["zhetrd_he2hb"].argtypes = [text, ref, ref, ptr, ref, ptr, ref, ptr, ptr, ref, ref,
                                      length]
    found["zhetrd_he2hb"].restype = None
    found["zhetrd_hb2st"].argtypes = [text, text, text, ref, ref, ptr, ref, ptr, ptr, ptr, ref,
                                      ptr, ref, ref, length, length, length]
    found["zhetrd_hb2st"].restype = None
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


def _blas_rule(a):
    """The thread rule for a reduction of ``a``, a matrix or a band from
    :func:`_band`: one OpenBLAS thread for complex input, the threads as
    found for real input."""
    complex_input = isinstance(a, np.ndarray) and a.dtype == np.complex128
    return one_blas_thread if complex_input else contextlib.nullcontext()


def _int(value: int):
    """A Fortran integer argument: an int64 passed by reference."""
    return ctypes.byref(ctypes.c_int64(value))


def _zhetrd_he2hb(routine, b: np.ndarray, ab: np.ndarray) -> int:
    """``zhetrd_he2hb`` with ``UPLO = 'L'``: ``b`` to the lower band ``ab`` of
    bandwidth ``ab.shape[1] - 1``. A workspace query, then the reduction.
    Returns LAPACK's ``info``."""
    n, kd = len(b), ab.shape[1] - 1
    tau = np.empty(max(n - 1, 1), np.complex128)
    info = ctypes.c_int64(0)

    def call(work: np.ndarray, lwork: int) -> int:
        routine(b"L", _int(n), _int(kd), b.ctypes.data, _int(n), ab.ctypes.data, _int(kd + 1),
                tau.ctypes.data, work.ctypes.data, _int(lwork), ctypes.byref(info), 1)
        return info.value

    work = np.zeros(1, np.complex128)
    if call(work, -1) != 0:
        return info.value
    size = max(1, int(work[0].real))
    return call(np.empty(size, np.complex128), size)


def _hb2st_workspace(routine, n: int, kd: int) -> tuple[np.ndarray, np.ndarray]:
    """``HOUS`` and ``WORK`` of ``zhetrd_hb2st`` at ``(n, kd)``, sized by its
    workspace query, which reads no other array."""
    hous, work = np.zeros(1, np.complex128), np.zeros(1, np.complex128)
    info = ctypes.c_int64(0)
    routine(b"Y", b"N", b"L", _int(n), _int(kd), None, _int(kd + 1), None, None,
            hous.ctypes.data, _int(-1), work.ctypes.data, _int(-1), ctypes.byref(info), 1, 1, 1)
    return (np.empty(max(1, int(hous[0].real)), np.complex128),
            np.empty(max(1, int(work[0].real)), np.complex128))


def _zhetrd_hb2st(routine, ab: np.ndarray, d: np.ndarray, e: np.ndarray) -> int:
    """``zhetrd_hb2st`` with ``STAGE1 = 'Y'``, ``VECT = 'N'``, ``UPLO = 'L'``:
    bulge chasing from the lower band ``ab`` to ``(d, e)``. Returns LAPACK's
    ``info``."""
    n, kd = ab.shape[0], ab.shape[1] - 1
    hous, work = _hb2st_workspace(routine, n, kd)
    info = ctypes.c_int64(0)
    routine(b"Y", b"N", b"L", _int(n), _int(kd), ab.ctypes.data, _int(kd + 1), d.ctypes.data,
            e.ctypes.data, hous.ctypes.data, _int(hous.size), work.ctypes.data,
            _int(work.size), ctypes.byref(info), 1, 1, 1)
    return info.value


def _band(b: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Stage 1 of :func:`tridiagonal`: a band matrix unitarily similar to the
    Hermitian ``b``, which it overwrites. Complex input takes
    ``zhetrd_he2hb`` (dense to band in BLAS-3) at the bandwidth that
    ``zhetrd_2stage`` picks, and returns the lower band: row ``j`` of the
    C-ordered ``(n, kd + 1)`` result is column ``j`` of the band from the
    diagonal down (LAPACK's lower band storage, read column-major). Real
    input is reduced all the way by ``dsytrd``, and its band is the pair
    ``(d, e)``.
    """
    if b.dtype not in (np.complex128, np.float64) or b.ndim != 2 \
            or b.shape[0] != b.shape[1] or not b.flags.c_contiguous:
        raise ValueError("tridiagonal needs a square C-ordered complex128 or float64 array")
    routines = _lapack_routines()
    n = len(b)
    if b.dtype == np.complex128:
        kd = routines["ilaenv2stage"](_int(1), b"ZHETRD_2STAGE", b"N", _int(n), _int(-1),
                                      _int(-1), _int(-1), 13, 1)
        ab = np.empty((n, kd + 1), np.complex128)
        _lapack_check(_zhetrd_he2hb(routines["zhetrd_he2hb"], b, ab), "zhetrd_he2hb")
        return ab
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 1))
    info = routines["dsytrd"](_COL_MAJOR, b"L", n, b.ctypes.data, n, d.ctypes.data,
                              e.ctypes.data, tau.ctypes.data)
    if info < 0 and not np.isfinite(b).all():  # LAPACKE refuses a nan in b
        raise OverflowError(_OVERFLOW)
    _lapack_check(info, "dsytrd")
    return d, e


def _band_tridiagonal(band) -> tuple[np.ndarray, np.ndarray]:
    """Stage 2 of :func:`tridiagonal`: ``(d, e)`` of a band from
    :func:`_band`, which it overwrites. A complex band takes the bulge
    chasing of ``zhetrd_hb2st``; a real band is ``(d, e)`` already."""
    if isinstance(band, tuple):
        d, e = band
    else:
        n = len(band)
        d, e = np.empty(n), np.empty(max(n - 1, 0))
        info = _zhetrd_hb2st(_lapack_routines()["zhetrd_hb2st"], band, d, e)
        _lapack_check(info, "zhetrd_hb2st")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise OverflowError(_OVERFLOW)
    return d, e


def tridiagonal(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real symmetric tridiagonal form ``(d, e)`` of the Hermitian/symmetric
    matrix ``b``, a C-ordered complex128 or float64 array that it overwrites.

    ``d`` is the diagonal (n) and ``e`` the subdiagonal (n - 1) of a
    tridiagonal matrix unitarily similar to ``b``. Complex input takes
    LAPACK's two-stage reduction on one OpenBLAS thread: ``zhetrd_he2hb``
    (dense to band in BLAS-3), then ``zhetrd_hb2st`` (bulge chasing to
    tridiagonal), the two stages of ``zhetrd_2stage`` with its bandwidth and
    bit for bit its result. Real input keeps the one-stage ``dsytrd`` on the
    threads it finds, which is faster there. Both reduce the lower triangle
    and fix ``e1``, so ``(d + theta e1, e)`` is the form of
    ``b + theta e1 e1^T``. Read column-major, the C-order buffer of ``b`` is
    ``conj(b)``, whose real tridiagonal form is the same. Requires the LAPACK
    symbols; raises ``OverflowError`` if ``b`` or its form overflows.
    """
    with _blas_rule(b):
        return _band_tridiagonal(_band(b))


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


def reflected_band(b: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Stage 1 of the spectra of ``W`` and ``W + theta u u^T`` with
    ``u = 1/sqrt(n)``, from ``b`` holding ``W``: a C-ordered complex128 or
    float64 array that it overwrites. After the Hermitian check,
    :func:`_reflect` makes ``b`` into ``B = H W H`` and the first stage of
    :func:`tridiagonal` reduces ``B`` to a band, which it returns for
    :func:`band_spectra`: a thin complex band, or ``(d, e)`` for real
    input. Complex input is reflected and reduced on one OpenBLAS thread.
    Without the LAPACK symbols ``b`` itself is returned, unreflected.
    """
    _check_hermitian(b)
    if _lapack_routines() is None:
        return b
    with _blas_rule(b):
        _reflect(b)
        return _band(b)


def band_spectra(band, theta: float) -> tuple[Spectrum, Spectrum]:
    """Stage 2: the spectra of ``W`` and ``W + theta u u^T``, both
    descending, from the band that :func:`reflected_band` made of ``W``,
    which it overwrites. ``B + theta e1 e1^T`` is similar to the deformed
    matrix and both stages keep ``e1`` in place, so the one tridiagonal form
    ``(d, e)`` of the band serves both: ``dsterf`` on ``(d, e)`` and on
    ``(d + theta e1, e)``. A complex band is reduced on one OpenBLAS thread.
    Its LAPACK calls release the GIL, so it can run on a second thread while
    the next draw is sampled. Without the LAPACK symbols the band is ``W``
    itself: both spectra come from :func:`eigenvalues`, the second after
    ``theta/n`` is added to ``W`` in place, so the helper holds no n x n
    array but ``W`` and the working copy that ``np.linalg.eigvalsh`` makes.
    """
    routines = _lapack_routines()
    if routines is None:
        base = eigenvalues(MatrixSample(entries=band))  # eigvalsh leaves band as it is
        band += theta / len(band)
        return base, eigenvalues(MatrixSample(entries=band))
    with _blas_rule(band):
        d, e = _band_tridiagonal(band)
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
