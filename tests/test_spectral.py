import math

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
from dwigner.spectral import (
    Spectrum,
    eigenvalues,
    interlacing_check,
    outlier_census,
    rescaled_fluctuation,
    trace_power,
    trace_power_dense,
)


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
    s = eigenvalues(m)
    bound = 1e-10 * m.entries.shape[0] * float(np.max(np.abs(m.entries)))
    assert abs(math.fsum(s.values) - float(np.trace(m.entries).real)) <= bound
    assert np.all(np.diff(s.values) <= 0)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigenvalues(matrix_of([[0, 1], [2, 0]]))


def test_trace_power_examples():
    ident = matrix_of(np.eye(2))
    assert trace_power(ident, 3) == pytest.approx(2.0)
    swap = matrix_of([[0, 1], [1, 0]])
    assert trace_power(swap, 2) == pytest.approx(2.0)
    assert trace_power(swap, 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        trace_power(swap, 0)


@pytest.mark.parametrize("power", [2, 3, 4, 6, 8])
def test_trace_power_dual_route(power):
    cfg = EnsembleConfig.create(n=30, sigma=1.0, theta=2.0, law="gaussian",
                                symmetry="complex", master_seed=7)
    m = sample_deformed(cfg, 1)
    via_spectrum = trace_power(m, power)
    via_product = trace_power_dense(m, power)
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
