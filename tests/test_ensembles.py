import math
from fractions import Fraction

import numpy as np
import pytest

from dwigner.ensembles import (
    EnsembleConfig,
    EntryLaw,
    RegimeError,
    regime_of,
    sample_deformed,
    sample_wigner,
)
from dwigner.moment_oracle import MomentModel, exact_trace_expectation


def make_config(**kwargs):
    defaults = dict(n=4, sigma=1.0, theta=2.0, law="gaussian",
                    symmetry="complex", master_seed=42)
    defaults.update(kwargs)
    return EnsembleConfig.create(**defaults)


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_one_by_one_is_real_and_symmetric(law, symmetry):
    cfg = make_config(n=1, law=law, symmetry=symmetry)
    w = sample_wigner(cfg, 0)
    assert w.entries.shape == (1, 1)
    assert w.entries[0, 0].imag == 0.0 if np.iscomplexobj(w.entries) else True
    assert w.is_hermitian()


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_hermitian_closure_bit_exact(law, symmetry):
    cfg = make_config(n=17, law=law, symmetry=symmetry)
    w = sample_wigner(cfg, 3)
    assert np.array_equal(w.entries, w.entries.conj().T)
    assert np.all(np.isfinite(w.entries.real)) and np.all(np.isfinite(np.imag(w.entries)))
    assert np.all(np.diag(w.entries).imag == 0) if np.iscomplexobj(w.entries) else True


def test_reproducibility_and_independence_of_order():
    cfg = make_config(n=12)
    a = sample_wigner(cfg, 5).entries
    # drawing other indices in between must not perturb index 5
    sample_wigner(cfg, 0)
    sample_wigner(cfg, 99)
    b = sample_wigner(cfg, 5).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_wigner(cfg, 6).entries)
    other_seed = make_config(n=12, master_seed=43)
    assert not np.array_equal(a, sample_wigner(other_seed, 5).entries)


def test_deformed_theta_zero_is_scaled_wigner():
    cfg = make_config(n=6, theta=0.0)
    w = sample_wigner(cfg, 2)
    m = sample_deformed(cfg, 2)
    assert np.array_equal(m.entries, w.entries / math.sqrt(6))


def test_deformed_is_hermitian():
    cfg = make_config(n=9, law="uniform-symmetric")
    assert sample_deformed(cfg, 4).is_hermitian()


def test_deformed_trace_square_expectation_is_seven():
    # n=3, sigma=diag_sigma=1, theta=2: E[Tr M^2] = (n-1) sigma^2 + diag^2 + theta^2 = 7
    cfg = make_config(n=3, theta=2.0)
    model = MomentModel.from_config(cfg)
    assert exact_trace_expectation(3, 2, model, 2.0) == pytest.approx(7.0, rel=1e-12)


def test_regime_classification():
    reg = regime_of(2.0, 1.0)
    assert reg.label == "supercritical"
    assert reg.rho_theta == pytest.approx(2.5)
    assert reg.sigma_theta == pytest.approx(math.sqrt(3) / 2)

    crit = regime_of(1.0, 1.0)
    assert crit.label == "critical"
    assert crit.rho_theta == pytest.approx(2.0)

    assert regime_of(0.5, 1.0).label == "subcritical"


def test_regime_errors():
    with pytest.raises(RegimeError):
        _ = regime_of(0.0, 1.0).rho_theta
    with pytest.raises(RegimeError):
        _ = regime_of(0.5, 1.0).sigma_theta
    with pytest.raises(RegimeError):
        _ = regime_of(1.0, 1.0).sigma_theta
    with pytest.raises(ValueError):
        regime_of(1.0, 0.0)


def test_empirical_entry_moments_n50():
    # 1e5 draws at n=50: |W_12|^2 mean within 4 SE of sigma^2, odd moments of
    # the components within 4 SE of 0, component variance within 4 SE of 1/2.
    cfg = make_config(n=50, law="gaussian", master_seed=2024)
    draws = 100_000
    w12 = np.empty(draws, dtype=np.complex128)
    for i in range(draws):
        w12[i] = sample_wigner(cfg, i).entries[0, 1]
    mod2 = np.abs(w12) ** 2
    se = np.std(mod2, ddof=1) / math.sqrt(draws)
    assert abs(mod2.mean() - 1.0) <= 4 * se

    for comp in (w12.real, w12.imag):
        for power in (1, 3):
            vals = comp**power
            se = np.std(vals, ddof=1) / math.sqrt(draws)
            assert abs(vals.mean()) <= 4 * se
        sq = comp**2
        se = np.std(sq, ddof=1) / math.sqrt(draws)
        assert abs(sq.mean() - 0.5) <= 4 * se


@pytest.mark.parametrize("law,variance,expected", [
    # complex rademacher component: E[X^{2k}] = (sigma^2/2)^k
    ("rademacher", 0.5, lambda k: Fraction(1, 2) ** k),
    # uniform component: E[X^{2k}] = 3^k v^k / (2k+1)
    ("uniform-symmetric", 0.5, lambda k: Fraction(3, 2) ** k / (2 * k + 1)),
])
def test_component_moments_exact_to_order_twelve(law, variance, expected):
    entry = EntryLaw(law, variance)
    for k in range(0, 7):
        assert entry.moment(2 * k) == pytest.approx(float(expected(k)), rel=0, abs=0)
        assert entry.moment(2 * k + 1) == 0.0


def test_gaussian_moments_and_beta_bound():
    entry = EntryLaw("gaussian", 1.0)
    assert entry.moment(2) == 1.0
    assert entry.moment(4) == 3.0
    assert entry.moment(6) == 15.0
    for law in ("gaussian", "rademacher", "uniform-symmetric"):
        e = EntryLaw(law, 0.73)
        for k in range(1, 9):
            assert e.moment(2 * k) <= (e.beta * k) ** k + 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        EntryLaw("poisson", 1.0)
    with pytest.raises(ValueError):
        EntryLaw("gaussian", 0.0)
    with pytest.raises(ValueError):
        make_config(n=0)
    with pytest.raises(ValueError):
        make_config(sigma=-1.0)
    with pytest.raises(ValueError):
        make_config(theta=-0.1)
    with pytest.raises(ValueError, match="unknown entry law 'poisson'"):
        make_config(law="poisson")
    with pytest.raises(ValueError, match="unknown entry law 'poisson'"):
        make_config().with_params(law="poisson")


@pytest.mark.parametrize("name", ["sigma", "theta", "diag_sigma"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
        make_config(**{name: bad})


def test_diag_sigma_default_and_override():
    cfg = make_config(n=5)
    assert cfg.diag_sigma == cfg.sigma
    cfg2 = make_config(n=5, diag_sigma=0.25)
    assert cfg2.diag_sigma == 0.25
