import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dwigner.ensembles import (
    EnsembleConfig,
    MatrixSample,
    RegimeError,
    regime_of,
    sample_deformed,
    sample_wigner,
)
from dwigner import spectral
from dwigner.cli import main as cli_main
from dwigner.experiments import ExperimentConfig, mc_trace_moments, run_spectrum_census
from dwigner.spectral import (
    EigensolverError,
    Spectrum,
    eigenvalues,
    interlacing_check,
    outlier_census,
    rescaled_fluctuation,
)
from reference import trace_power_dense, zhetrd_2stage_reference


def matrix_of(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return MatrixSample(entries=arr)


def spectrum_of(values):
    vals = np.asarray(sorted(values, reverse=True), dtype=np.float64)
    return Spectrum(values=vals)


def test_swap_matrix_eigenvalues():
    s = eigenvalues(matrix_of([[0, 1], [1, 0]]))
    assert np.allclose(s.values, [1.0, -1.0], atol=1e-12)


def test_rank_one_eigenvalues():
    s = eigenvalues(matrix_of(np.full((3, 3), 1.5 / 3)))
    assert np.allclose(s.values, [1.5, 0.0, 0.0], atol=1e-12)


def test_trace_invariance_random_sample():
    cfg = EnsembleConfig.create(n=50, sigma=1.0, theta=2.0, law="rademacher",
                                symmetry="complex", master_seed=1)
    m = sample_deformed(cfg, 0)
    s = eigenvalues(MatrixSample(entries=m.entries.copy()))
    bound = 1e-10 * m.entries.shape[0] * float(np.max(np.abs(m.entries)))
    assert abs(math.fsum(s.values) - float(np.trace(m.entries).real)) <= bound
    assert np.all(np.diff(s.values) <= 0)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigenvalues(matrix_of([[0, 1], [2, 0]]))


@pytest.mark.parametrize("power", [2, 3, 4, 6, 8])
def test_trace_power_dual_route(power):
    cfg = EnsembleConfig.create(n=30, sigma=1.0, theta=2.0, law="gaussian",
                                symmetry="complex", master_seed=7)
    # the Monte Carlo mean sums eigenvalue powers; the reference multiplies
    # out each of the same draws
    via_spectrum = mc_trace_moments(cfg, 4, (power,))[power][0]
    via_product = np.mean([trace_power_dense(sample_deformed(cfg, i), power) for i in range(4)])
    assert via_spectrum == pytest.approx(via_product, rel=1e-8)


def test_permutation_invariance():
    cfg = EnsembleConfig.create(n=20, sigma=1.0, theta=1.0, law="uniform-symmetric",
                                symmetry="real", master_seed=3)
    m = sample_deformed(cfg, 0)
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    perm = rng.permutation(20)
    permuted = MatrixSample(entries=m.entries[np.ix_(perm, perm)])
    assert np.allclose(eigenvalues(m).values, eigenvalues(permuted).values, atol=1e-10)


def test_interlacing_zero_wigner():
    # W = 0: deformed spectrum is (theta, 0, ..., 0), base is all zeros
    n, theta = 5, 2.0
    deformed = eigenvalues(matrix_of(np.full((n, n), theta / n)))
    base = spectrum_of([0.0] * n)
    assert interlacing_check(deformed, base) == 0


def test_interlacing_identical_spectra():
    s = spectrum_of([3.0, 1.0, -2.0])
    assert interlacing_check(s, s) == 0


def test_interlacing_paired_draws():
    cfg = EnsembleConfig.create(n=50, sigma=1.0, theta=2.0, law="gaussian",
                                symmetry="complex", master_seed=11)
    for i in range(20):
        w = sample_wigner(cfg, i)
        scaled = MatrixSample(entries=w.entries / math.sqrt(50))
        deformed = MatrixSample(entries=scaled.entries + cfg.theta / 50)
        assert interlacing_check(eigenvalues(deformed), eigenvalues(scaled)) == 0


def test_interlacing_detects_violation():
    deformed = spectrum_of([1.0, 0.5])
    base = spectrum_of([2.0, 0.0])
    # mu_1 = 2.0 exceeds lam_1 = 1.0; every other inequality holds
    assert interlacing_check(deformed, base) == 1


def interlacing_loop_reference(deformed, base):
    """Violation count by one Python comparison per inequality, same slack."""
    lam, mu = deformed.values, base.values
    slack = 1e-8 * (1.0 + max(float(np.max(np.abs(lam))), float(np.max(np.abs(mu))), 0.0))
    violations = 0
    for i in range(len(lam)):
        if mu[i] - lam[i] > slack:
            violations += 1
        if i + 1 < len(lam) and lam[i + 1] - mu[i] > slack:
            violations += 1
    return violations


def test_interlacing_matches_loop_reference_on_random_spectra():
    rng = np.random.default_rng(5)
    counts = set()
    for size in (1, 2, 3, 8, 50):
        for _ in range(40):
            lam = rng.normal(size=size)
            # shifts below the slack, and both ways beyond it
            mu = lam - rng.choice([0.0, 1e-9, 0.3, -0.3], size=size) * rng.random(size)
            deformed, base = spectrum_of(lam), spectrum_of(mu)
            count = interlacing_check(deformed, base)
            assert count == interlacing_loop_reference(deformed, base)
            counts.add(count)
    assert 0 in counts and max(counts) > 3


def test_interlacing_dimension_mismatch():
    with pytest.raises(ValueError):
        interlacing_check(spectrum_of([1.0]), spectrum_of([1.0, 0.0]))


def test_rescaled_fluctuation_supercritical():
    n = 100
    rho = regime_of(2.0, 1.0).rho_theta
    s = spectrum_of([rho] + [0.1] * (n - 1))
    (u,) = rescaled_fluctuation(s, 1.0, n, 1)
    assert u == pytest.approx(n ** (2 / 3) * (rho - 2.0), rel=1e-14)
    with pytest.raises(ValueError):
        rescaled_fluctuation(s, 1.0, n, n + 1)


def test_rescaled_fluctuation_subcritical():
    n = 64
    s = spectrum_of([2.0] + [0.0] * 3 + [-1.0])
    u = rescaled_fluctuation(s, 1.0, n, 2)
    # the top eigenvalue sits at the edge 2 sigma, the next one at 0
    assert u == pytest.approx((0.0, n ** (2 / 3) * (0.0 - 2.0)), abs=1e-12)
    # the sigma scale moves the edge
    assert rescaled_fluctuation(s, 0.5, n, 1) == pytest.approx((n ** (2 / 3) * 1.0,))


def test_outlier_census():
    n = 10
    s = spectrum_of([2.5] + [0.0] * (n - 1))
    assert outlier_census(s, 2.0, 1.0, n) == (0, 0)

    s2 = spectrum_of([2.5, 2.3] + [0.0] * (n - 2))  # threshold is 2.25
    count_mid, _ = outlier_census(s2, 2.0, 1.0, n)
    assert count_mid == 1

    with pytest.raises(RegimeError):
        outlier_census(s, 0.5, 1.0, n)


# The shared-reduction route against two dense eigensolves of the same draw;
# seed and bound were fixed before the first run.
RANK_ONE_SEED = 1515
RANK_ONE_TOL = 1e-10


def scaled_wigner(law, symmetry, n, index=0):
    cfg = EnsembleConfig.create(n=n, sigma=1.0, theta=0.0, law=law, symmetry=symmetry,
                                master_seed=RANK_ONE_SEED)
    return MatrixSample(entries=sample_wigner(cfg, index).entries / math.sqrt(n))


def dense_spectrum(entries) -> Spectrum:
    """The second route: numpy's dense eigvalsh, descending."""
    return Spectrum(values=np.linalg.eigvalsh(entries)[::-1])


def rank_one_spectra(b, theta):
    """The census's two stages on one thread: the spectra of ``W`` and its
    rank-one deformation from ``b`` holding ``W``, which is overwritten."""
    return spectral.rank_one_spectra(b, theta)()


def max_gap_within_bound(got: Spectrum, want: Spectrum) -> bool:
    radius = float(np.max(np.abs(want.values)))
    return float(np.max(np.abs(got.values - want.values))) <= RANK_ONE_TOL * (1.0 + radius)


@pytest.mark.parametrize("symmetry", ["complex", "real"])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
def test_rank_one_spectra_match_two_dense_eigensolves(law, symmetry, n):
    w = scaled_wigner(law, symmetry, n)
    for theta in (0.0, 0.5, 1.0, 2.0):
        base, deformed = rank_one_spectra(w.entries.copy(), theta)
        assert base.values.shape == deformed.values.shape == (n,)
        assert np.all(np.diff(base.values) <= 0) and np.all(np.diff(deformed.values) <= 0)
        assert max_gap_within_bound(base, dense_spectrum(w.entries))
        assert max_gap_within_bound(deformed, dense_spectrum(w.entries + theta / n))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_rank_one_spectra_overwrite_the_input_and_copy_nothing(symmetry):
    # The reflector and the reduction work in the array handed over: no n x n
    # array is allocated beside it (what the two stages add, the band, their
    # workspaces and vectors of size n, stays below half of it at n = 300).
    w = scaled_wigner("gaussian", symmetry, 300).entries
    rank_one_spectra(w.copy(), 2.0)  # loads the LAPACK routines before tracing
    b = w.copy()
    peak = _traced_peak(lambda: rank_one_spectra(b, 2.0))
    assert peak <= b.nbytes // 2, peak
    assert not np.array_equal(b, w)


@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_rank_one_second_stage_holds_no_reference_to_the_matrix(symmetry):
    # the census frees each n x n buffer once stage 1 returns: the stage it
    # hands to its helper thread holds the band or (d, e), never the matrix
    w = scaled_wigner("gaussian", symmetry, 40).entries
    b = w.copy()
    alive = weakref.ref(b)
    stage = spectral.rank_one_spectra(b, 2.0)
    del b
    gc.collect()
    assert alive() is None
    base, deformed = stage()
    assert max_gap_within_bound(base, dense_spectrum(w))
    assert max_gap_within_bound(deformed, dense_spectrum(w + 2.0 / 40))


def read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("make", [
    np.asfortranarray,
    read_only,
    lambda a: a.astype(np.complex64),
    lambda a: np.round(4 * a.real).astype(np.int64),
], ids=["fortran-order", "read-only", "complex64", "int64"])
def test_eigenvalues_leave_entries_lapack_cannot_overwrite_untouched(make):
    entries = make(scaled_wigner("gaussian", "complex", 17).entries)
    before = entries.copy()
    got = eigenvalues(MatrixSample(entries=entries))
    assert np.array_equal(entries, before)
    assert max_gap_within_bound(got, dense_spectrum(entries.astype(np.complex128)))


def test_rank_one_spectra_reject_non_hermitian():
    with pytest.raises(ValueError):
        rank_one_spectra(matrix_of([[0, 1], [2, 0]]).entries, 1.0)
    complex_entries = np.array([[0, 1j], [1j, 0]])
    with pytest.raises(ValueError):
        rank_one_spectra(complex_entries, 1.0)


@pytest.mark.parametrize("entries", [
    # symmetric; the reduction (and the reflector) make nans of it
    [[1.0, 1.0, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0, np.inf]],
    [[np.nan, 0.0], [0.0, 1.0]],  # not equal to itself, so not symmetric
    [[1.0, complex(np.nan, np.nan)], [complex(np.nan, np.nan), 1.0]],
    [[1e308, 1e308], [1e308, 1e308]],  # finite, with the eigenvalue 2e308
], ids=["real-inf", "real-nan", "complex-nan", "eigenvalue-overflows"])
@pytest.mark.parametrize("route", ["eigenvalues", "rank_one_spectra"])
def test_overflowing_matrices_raise_overflow_error_naming_sigma(entries, route):
    b = np.array(entries)
    with pytest.raises(OverflowError, match="--sigma"):
        if route == "eigenvalues":
            eigenvalues(MatrixSample(entries=b))
        else:
            rank_one_spectra(b, 1.0)


def test_rank_one_spectra_report_lapack_failure(monkeypatch):
    routines = dict(spectral._lapack_routines())
    routines["dsterf"] = lambda n, d, e: 3  # did not converge
    monkeypatch.setattr(spectral, "_lapack_routines", lambda: routines)
    with pytest.raises(EigensolverError, match="dsterf"):
        rank_one_spectra(scaled_wigner("gaussian", "real", 5).entries, 1.0)


# The two stages of the complex reduction against the one-call zhetrd_2stage;
# the seed was fixed before the first run.
SPLIT_SEED = 2424


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 18, 200, 1000])
def test_two_stage_split_is_bit_equal_to_zhetrd_2stage(law, n):
    # n <= kd + 1 = 17 is the size at which the first stage copies the matrix
    # into the band without reducing it
    cfg = EnsembleConfig.create(n=n, sigma=1.0, theta=0.0, law=law, symmetry="complex",
                                master_seed=SPLIT_SEED)
    w = sample_wigner(cfg, 0).entries / math.sqrt(n)
    d, e = spectral.tridiagonal(w.copy())()
    want_d, want_e = zhetrd_2stage_reference(w.copy())
    assert d.tobytes() == want_d.tobytes() and e.tobytes() == want_e.tobytes()


@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_census_without_lapacke_symbols_matches_shared_reduction(monkeypatch, symmetry):
    base = EnsembleConfig.create(n=40, sigma=1.0, theta=2.0, law="rademacher",
                                 symmetry=symmetry, master_seed=RANK_ONE_SEED)
    cfg = ExperimentConfig(base=base, n_samples=6)
    shared = run_spectrum_census(cfg)["records"]
    monkeypatch.setattr(spectral, "_lapack_routines", lambda: None)
    calls = []
    monkeypatch.setattr(spectral, "eigenvalues",
                        lambda m: calls.append(1) or dense_spectrum(m.entries))
    dense = run_spectrum_census(cfg)["records"]
    assert len(calls) == 2 * 6  # the fallback: two dense eigensolves per draw
    assert [(r["sample"], r["statistic"]) for r in shared] == \
        [(r["sample"], r["statistic"]) for r in dense]
    radius = max(float(np.max(np.abs(np.linalg.eigvalsh(sample_deformed(base, i).entries))))
                 for i in range(6))
    for got, want in zip(shared, dense):
        if isinstance(want["value"], float):
            assert abs(got["value"] - want["value"]) <= RANK_ONE_TOL * (1.0 + radius), want
        else:
            assert got["value"] == want["value"], want


# tridiagonal and eigenvalues against numpy's dense eigvalsh; the seed was
# fixed before the first run, the bound is RANK_ONE_TOL's.
TRIDIAGONAL_SEED = 2020


def tridiagonal_matrix(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("symmetry", ["complex", "real"])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 200, 700])
def test_tridiagonal_and_eigenvalues_match_dense_eigvalsh(law, symmetry, n):
    cfg = EnsembleConfig.create(n=n, sigma=1.0, theta=0.0, law=law, symmetry=symmetry,
                                master_seed=TRIDIAGONAL_SEED)
    w = MatrixSample(entries=sample_wigner(cfg, 0).entries / math.sqrt(n))
    want = dense_spectrum(w.entries)
    got = eigenvalues(MatrixSample(entries=w.entries.copy()))
    assert got.values.shape == (n,) and np.all(np.diff(got.values) <= 0)
    assert max_gap_within_bound(got, want)
    # the form is similar to w and keeps e1 in place: (d + theta e1, e) is the
    # form of w + theta e1 e1^T
    d, e = spectral.tridiagonal(np.array(w.entries))()
    assert d.shape == (n,) and e.shape == (n - 1,)
    assert max_gap_within_bound(dense_spectrum(tridiagonal_matrix(d, e)), want)
    shifted = w.entries.copy()
    shifted[0, 0] += 2.0
    d[0] += 2.0
    assert max_gap_within_bound(dense_spectrum(tridiagonal_matrix(d, e)),
                                dense_spectrum(shifted))


def test_eigenvalues_without_lapack_symbols_are_eigvalsh(monkeypatch):
    w = scaled_wigner("gaussian", "complex", 17)
    monkeypatch.setattr(spectral, "_lapack_routines", lambda: None)
    assert np.array_equal(eigenvalues(w).values, np.linalg.eigvalsh(w.entries)[::-1])


@pytest.mark.parametrize("b", [
    np.eye(3, dtype=np.complex64),
    np.eye(3, dtype=np.int64),
    np.zeros((3, 4)),
    np.eye(4)[::2, ::2],
    np.asfortranarray(np.arange(9.0).reshape(3, 3)),
], ids=["complex64", "int64", "not-square", "strided", "fortran-order"])
def test_tridiagonal_refuses_arrays_lapack_cannot_overwrite(b):
    with pytest.raises(ValueError, match="C-ordered"):
        spectral.tridiagonal(b)


@pytest.mark.parametrize("symmetry", ["complex", "real"])
@pytest.mark.parametrize("n", [1, 2])
def test_census_at_the_smallest_sizes(tmp_path, n, symmetry):
    # at n = 1, u = e1: the reflector is the identity and lambda = W_11 + theta exactly
    out = tmp_path / "census.json"
    assert cli_main(["census", "--n", str(n), "--samples", "4", "--theta", "2",
                     "--symmetry", symmetry, "--seed", "7", "--out", str(out),
                     "--format", "json"]) == 0
    records = json.loads(out.read_text())["records"]
    counts = [r["value"] for r in records if isinstance(r["value"], int)]
    assert len(counts) == 4 * 3 + 4 and not any(counts)  # as the two dense eigensolves gave
    if n == 1:
        cfg = EnsembleConfig.create(n=1, sigma=1.0, theta=2.0, law="gaussian",
                                    symmetry=symmetry, master_seed=7)
        lam = [r["value"] for r in records if r["statistic"] == "lambda_1"]
        assert lam == [float(sample_wigner(cfg, i).entries[0, 0].real) + 2.0 for i in range(4)]
