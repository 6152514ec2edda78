import itertools
import math
from collections import Counter

import pytest

from dwigner.ensembles import EnsembleConfig
from dwigner.experiments import mc_trace_moments
from dwigner.moment_oracle import (
    SHAPE_SUM_GUARD,
    MomentModel,
    _path_signature,
    _shape_count,
    asymptotic_predictions,
    edge_moment,
    exact_trace_expectation,
    symbolic_trace_expectation,
    trace_universality_probe,
)
from dwigner.path_model import canonical_closed_paths

ALL_LAWS = ("gaussian", "rademacher", "uniform-symmetric")


def model_for(law="gaussian", symmetry="complex", sigma=1.0, n=3, theta=2.0, seed=0):
    cfg = EnsembleConfig.create(n=n, sigma=sigma, theta=theta, law=law,
                                symmetry=symmetry, master_seed=seed)
    return MomentModel.from_config(cfg)


def test_complex_gaussian_joint_moments():
    m = model_for("gaussian", "complex", sigma=1.3)
    sigma2 = 1.3**2
    for a in range(0, 5):
        for b in range(0, 5):
            joint = m.offdiag_joint(a, b)
            if a == b:
                assert joint == pytest.approx(math.factorial(a) * sigma2**a, rel=1e-12)
            else:
                assert joint == pytest.approx(0.0, abs=1e-12)


def test_joint_moment_symmetries():
    for law in ALL_LAWS:
        for symmetry in ("complex", "real"):
            m = model_for(law, symmetry)
            assert m.offdiag_joint(1, 0) == 0.0
            assert m.offdiag_joint(0, 1) == 0.0
            assert m.offdiag_joint(2, 1) == pytest.approx(0.0, abs=1e-12)
            assert m.offdiag_joint(1, 1) == pytest.approx(1.0, rel=1e-12)  # sigma^2
            assert m.diag_moment(1) == 0.0
            assert m.diag_moment(2) == pytest.approx(1.0, rel=1e-12)  # diag_sigma^2


def test_moment_order_guard():
    m = model_for(n=3)
    with pytest.raises(ValueError):
        m.offdiag_joint(20, 20)
    with pytest.raises(ValueError):
        m.diag_moment(40)


def test_edge_moment_examples():
    m = model_for("gaussian", "complex", sigma=1.0, n=3, theta=2.0)
    assert edge_moment(m, 1, 0, False, 2.0, 3) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert edge_moment(m, 1, 1, False, 2.0, 3) == pytest.approx(1.0 / 3.0 + 4.0 / 9.0, rel=1e-14)
    # circularly symmetric complex gaussian: E[W^2] = 0
    assert edge_moment(m, 2, 0, False, 2.0, 3) == pytest.approx(4.0 / 9.0, rel=1e-14)
    with pytest.raises(ValueError):
        edge_moment(m, 0, 0, False, 2.0, 3)


def test_edge_moment_reductions():
    # theta = 0 leaves the pure entry moments
    m = model_for("rademacher", "real", sigma=1.0, theta=0.0)
    assert edge_moment(m, 2, 0, False, 0.0, 4) == pytest.approx(1.0 / 4.0, rel=1e-14)
    assert edge_moment(m, 1, 0, False, 0.0, 4) == 0.0
    # sigma -> 0 leaves the deterministic theta/n part
    tiny = model_for("gaussian", "complex", sigma=1e-9, theta=2.0, n=4)
    assert edge_moment(tiny, 2, 1, False, 2.0, 4) == pytest.approx((2.0 / 4.0) ** 3, rel=1e-6)


def test_trace_expectation_first_powers():
    for law in ALL_LAWS:
        for symmetry in ("complex", "real"):
            m = model_for(law, symmetry, n=3, theta=2.0)
            assert exact_trace_expectation(3, 1, m, 2.0) == pytest.approx(2.0, rel=1e-12)
            assert exact_trace_expectation(3, 2, m, 2.0) == pytest.approx(7.0, rel=1e-12)


def brute_force_trace_expectation(n, power, model, theta):
    """Reference: sum over all n**power labelled closed paths."""
    signatures = Counter(
        _path_signature(path) for path in itertools.product(range(n), repeat=power)
    )
    terms = []
    for sig, mult in signatures.items():
        w = 1.0
        for a, b, diag in sig:
            w *= edge_moment(model, a + b, 0, True, theta, n) if diag \
                else edge_moment(model, a, b, False, theta, n)
        terms.append(mult * w)
    return math.fsum(terms)


@pytest.mark.parametrize("law", ALL_LAWS)
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_shape_sum_matches_brute_force(law, symmetry):
    for theta in (0.0, 0.5, 2.0):
        for n in range(1, 5):
            m = model_for(law, symmetry, n=n, theta=theta)
            for power in range(1, 7):
                expected = brute_force_trace_expectation(n, power, m, theta)
                assert exact_trace_expectation(n, power, m, theta) == pytest.approx(
                    expected, rel=1e-12)


def test_shape_count_is_partial_bell_sum():
    assert [_shape_count(length, length) for length in range(1, 9)] == \
        [1, 2, 5, 15, 52, 203, 877, 4140]
    for length in range(1, 8):
        for k in range(1, length + 1):
            assert _shape_count(length, k) == sum(
                1 for _ in canonical_closed_paths(length, k))


def test_trace_guard():
    m = model_for(n=3)
    # 52 shapes, although 100**5 = 1e10 labelled paths
    assert exact_trace_expectation(100, 5, m, 2.0) > 0
    assert _shape_count(14, 14) > SHAPE_SUM_GUARD  # Bell(14) = 190,899,322
    with pytest.raises(ValueError, match="guard"):
        exact_trace_expectation(100, 14, m, 2.0)


@pytest.mark.parametrize("law", ALL_LAWS)
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_second_moment_exact_at_large_n(law, symmetry):
    n = 10**6
    for theta in (0.0, 0.5, 2.0):
        cfg = EnsembleConfig.create(n=n, sigma=1.3, theta=theta, law=law,
                                    symmetry=symmetry, diag_sigma=0.7)
        m = MomentModel.from_config(cfg)
        expected = theta**2 + (n - 1) * 1.3**2 + 0.7**2
        assert exact_trace_expectation(n, 2, m, theta) == pytest.approx(expected, rel=1e-12)


def test_gue_fourth_moment_harer_zagier():
    # E[Tr (W/sqrt(n))^4] = 2n + 1/n for the GUE normalized to E|W_ij|^2 = 1
    n = 10**6
    m = model_for("gaussian", "complex", n=n, theta=0.0)
    value = exact_trace_expectation(n, 4, m, 0.0)
    assert value == pytest.approx(2 * n + 1 / n, rel=1e-12)
    # the 1/n genus-one term itself, resolved well below its size
    assert abs(value - 2 * n - 1 / n) <= 1e-3 / n


@pytest.mark.parametrize("law", ALL_LAWS)
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_symbolic_route_agrees(law, symmetry):
    for n in (1, 2, 3):
        m = model_for(law, symmetry, n=n, theta=2.0)
        for power in (1, 2, 3, 4):
            a = exact_trace_expectation(n, power, m, 2.0)
            b = symbolic_trace_expectation(n, power, m, 2.0)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_odd_trace_vanishes_at_theta_zero():
    for law in ALL_LAWS:
        for symmetry in ("complex", "real"):
            cfg = EnsembleConfig.create(n=4, sigma=1.0, theta=0.0, law=law,
                                        symmetry=symmetry, master_seed=0)
            m = MomentModel.from_config(cfg)
            assert exact_trace_expectation(4, 3, m, 0.0) == 0.0
            assert exact_trace_expectation(4, 5, m, 0.0) == 0.0


def test_oracle_vs_monte_carlo_quick():
    cfg = EnsembleConfig.create(n=3, sigma=1.0, theta=2.0, law="rademacher",
                                symmetry="complex", master_seed=314)
    model = MomentModel.from_config(cfg)
    mc = mc_trace_moments(cfg, 20_000, (2, 4))
    for power, (mean, se) in mc.items():
        oracle = exact_trace_expectation(3, power, model, 2.0)
        assert abs(mean - oracle) <= 4 * se


def test_universality_probe():
    probe = trace_universality_probe(
        [3, 4, 5, 6], 4, 2.0,
        (model_for("gaussian", "complex", n=3), model_for("rademacher", "complex", n=3)),
    )
    assert probe["all_finite"]
    assert probe["decreasing"]
    # only second moments enter Tr M^2: the laws agree identically
    probe2 = trace_universality_probe(
        [3, 4, 5], 2, 2.0,
        (model_for("gaussian", "complex", n=3), model_for("rademacher", "complex", n=3)),
    )
    assert all(row["delta"] == 0.0 for row in probe2["rows"])
    # identical models differ by nothing at any power
    probe3 = trace_universality_probe(
        [3, 4], 4, 2.0,
        (model_for("uniform-symmetric", "real", n=3),
         model_for("uniform-symmetric", "real", n=3)),
    )
    assert all(row["delta"] == 0.0 for row in probe3["rows"])


def test_asymptotic_predictions_supercritical():
    p = asymptotic_predictions(60, 2.0, 1.0, 10**6)
    assert 0.70 <= p.marked_ratio <= 0.80
    assert p.limit_marked == pytest.approx(p.rho_power * 0.75)
    assert p.limit_unmarked == pytest.approx(p.rho_power * 0.25)
    assert p.limit_total == pytest.approx(p.rho_power)


def test_asymptotic_predictions_critical_and_subcritical():
    crit = asymptotic_predictions(60, 1.0, 1.0, 10**6)
    assert abs(crit.odd_edge_class_ratio - 0.5) <= 0.05
    sub = asymptotic_predictions(60, 0.5, 1.0, 10**6)
    assert sub.odd_edge_class_ratio <= 0.05


def test_asymptotic_even_term_forms():
    p = asymptotic_predictions(8, 2.0, 1.0, 2000)
    catalan8 = math.comb(16, 8) // 9
    assert p.even_term == pytest.approx(catalan8 * 2000)
    # Stirling form agrees to leading order
    assert p.even_term / p.even_term_stirling == pytest.approx(1.0, abs=0.2)
    assert asymptotic_predictions(3, 0.0, 1.0, 100).rho_power is None

