import hashlib
import json
import math
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwigner.correspondence
import dwigner.dyck_stats
import dwigner.experiments
import dwigner.path_model
import dwigner.spectral
from dwigner.cli import main as cli_main
from dwigner.ensembles import EnsembleConfig, RegimeError, regime_of, sample_deformed
from dwigner.experiments import (
    _CHECKS,
    DEFAULT_VERIFY_LIMITS,
    MC_BATCH_ENTRIES,
    MC_SINGLE_DRAW_N,
    ExperimentConfig,
    _mc_batch,
    gaussian_cdf,
    ks_statistic,
    load_config_file,
    mc_trace_moments,
    render_csv,
    render_json,
    run_combinatorics_verify,
    run_fluctuations,
    run_oracle_compare,
    run_spectrum_census,
    run_trace_growth,
    semicircle_cdf,
    trace_exp_residual,
)
from dwigner.spectral import Spectrum, eigenvalues, one_blas_thread
import reference
from reference import closed_path_tuples, edge_keys, levels_of

QUICK_LIMITS = {
    "trajectory_steps": 8,
    "sum_identity_steps": 10,
    "correspondence_length": 6,
    "correspondence_vertices": 3,
    "surgery_steps": 6,
    "glue_length": 2,
    "glue_vertices": 3,
    "dyck_roundtrip_steps": 8,
    "ballot_steps": 10,
    "max_pmf_m": 4,
}


def simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def test_gaussian_cdf_basics():
    assert gaussian_cdf(0.0) == pytest.approx(0.5)
    assert gaussian_cdf(3.0, 3.0, 4.0) == pytest.approx(0.5)
    assert gaussian_cdf(40.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gaussian_cdf(0.0, 0.0, 0.0)


def test_gaussian_cdf_against_quadrature():
    density = lambda u: math.exp(-(u**2) / 2) / math.sqrt(2 * math.pi)
    quad = 0.5 + simpson(density, 0.0, 1.0)
    assert gaussian_cdf(1.0) == pytest.approx(quad, abs=1e-8)


def test_semicircle_cdf_basics():
    assert semicircle_cdf(0.0, 1.0) == pytest.approx(0.5)
    assert semicircle_cdf(2.0, 1.0) == 1.0
    assert semicircle_cdf(-2.0, 1.0) == 0.0
    assert semicircle_cdf(5.0, 1.5) == 1.0
    # sigma**2 underflows to 0 here; the CDF is read in x / (2 sigma) alone
    assert semicircle_cdf(0.0, 1e-310) == 0.5
    assert semicircle_cdf(1e-320, 1e-320) == pytest.approx(semicircle_cdf(1.0, 1.0), abs=1e-3)


def test_semicircle_cdf_against_quadrature():
    # substitute x = 2 sigma sin(u): the edge singularity disappears and the
    # integrand becomes (2/pi) cos^2(u)
    sigma = 1.0
    integrand = lambda u: (2.0 / math.pi) * math.cos(u) ** 2
    quad = simpson(integrand, -math.pi / 2, math.asin(1.0 / (2 * sigma)), n=20000)
    assert semicircle_cdf(1.0, sigma) == pytest.approx(quad, abs=1e-8)


def test_ks_statistic_basics():
    xs = [0.3, -1.2, 0.7, 2.0]
    assert ks_statistic(xs, xs).statistic == 0.0
    single = ks_statistic([0.0], lambda x: gaussian_cdf(x))
    assert single.statistic == pytest.approx(0.5)
    assert single.n_effective == 1
    with pytest.raises(ValueError):
        ks_statistic([], xs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_statistic_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="NaN or inf"):
        ks_statistic([0.1, bad, 0.3], gaussian_cdf)
    with pytest.raises(ValueError, match="NaN or inf"):
        ks_statistic([0.1, bad], [0.2, 0.3])
    with pytest.raises(ValueError, match="NaN or inf"):
        ks_statistic([0.1, 0.2], [bad, 0.3])


coarse_floats = st.lists(
    st.integers(-50_000, 50_000), min_size=2, max_size=40, unique=True
).map(lambda xs: [x / 1000.0 for x in xs])


@given(coarse_floats, coarse_floats)
@settings(max_examples=100, deadline=None)
def test_ks_invariant_under_monotone_rescaling(xs, ys):
    # v^3 + 2v is strictly increasing with slope >= 2, so the coarse grid
    # keeps order and ties exactly
    base = ks_statistic(xs, ys).statistic
    transform = lambda v: v**3 + 2.0 * v
    mapped = ks_statistic([transform(x) for x in xs], [transform(y) for y in ys]).statistic
    assert mapped == base


def test_ks_one_sample_monotone_invariance():
    xs = [-0.5, 0.1, 0.4, 1.3]
    base = ks_statistic(xs, lambda x: gaussian_cdf(x)).statistic
    # push both sample and reference through exp
    mapped = ks_statistic(
        [math.exp(x) for x in xs],
        lambda y: gaussian_cdf(math.log(y)),
    ).statistic
    assert mapped == pytest.approx(base, abs=1e-15)


def test_experiment_config_validation():
    base = EnsembleConfig.create(n=10, sigma=1.0, theta=0.0, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(base=base, n_samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(base=base, n_samples=5, top_k=11)
    for top_k in (0, -1):
        with pytest.raises(ValueError):
            ExperimentConfig(base=base, n_samples=5, top_k=top_k)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t_scale must be finite"):
            ExperimentConfig(base=base, n_samples=5, t_scale=bad)
        with pytest.raises(ValueError, match="ks_threshold must be finite"):
            ExperimentConfig(base=base, n_samples=5, ks_threshold=bad)


def test_trace_exp_residual_single_outlier():
    # single eigenvalue at rho, the rest at zero: both routes give exactly 1
    rho = 2.5
    values = np.array([rho] + [0.0] * 9)
    spec = Spectrum(values=values)
    eps, exp_sum, even = trace_exp_residual(spec, rho, 10, 1.0)
    assert even == pytest.approx(1.0)
    assert exp_sum == pytest.approx(1.0)
    assert eps == pytest.approx(0.0, abs=1e-14)


def test_run_fluctuations_theta_zero_self_baseline():
    base = EnsembleConfig.create(n=30, sigma=1.0, theta=0.0, law="gaussian",
                                 symmetry="complex", master_seed=12)
    cfg = ExperimentConfig(base=base, n_samples=40, baseline=base)
    rep = run_fluctuations(cfg)
    # the baseline draws its own streams, so an explicit self-baseline is an
    # independent sample of the same law, not a copy of the primary
    values = {}
    for r in rep["records"]:
        values.setdefault(r["statistic"], []).append(r["value"])
    assert len(values["edge_u_1"]) == len(values["baseline_edge_u_1"]) == 40
    assert not set(values["edge_u_1"]) & set(values["baseline_edge_u_1"])
    assert rep["summary"]["ks_two_sample_1"] > 0.0
    assert rep["summary"]["regime"] == "subcritical"


def test_run_fluctuations_supercritical_labels():
    base = EnsembleConfig.create(n=40, sigma=1.0, theta=2.0, law="gaussian",
                                 symmetry="real", master_seed=12)
    rep = run_fluctuations(ExperimentConfig(base=base, n_samples=30))
    assert rep["summary"]["label"] == "conjecture"
    assert rep["summary"]["limit_variance"] == pytest.approx(2 * (3.0 / 4.0))


def test_run_fluctuations_critical_descriptive():
    base = EnsembleConfig.create(n=30, sigma=1.0, theta=1.0, law="gaussian",
                                 symmetry="complex", master_seed=4)
    rep = run_fluctuations(ExperimentConfig(base=base, n_samples=20))
    assert rep["summary"]["label"] == "descriptive"


def test_run_trace_growth_requires_supercritical():
    base = EnsembleConfig.create(n=30, sigma=1.0, theta=0.5, master_seed=0)
    with pytest.raises(RegimeError):
        run_trace_growth(ExperimentConfig(base=base, n_samples=5))


def test_trace_growth_bounded_over_t_grid():
    base = EnsembleConfig.create(n=100, sigma=1.0, theta=2.0, law="gaussian",
                                 symmetry="complex", master_seed=17)
    rep = run_trace_growth(ExperimentConfig(base=base, n_samples=40))
    means = [rep["summary"][f"mean_trace_t_{t}"] for t in (0.5, 1.0, 2.0)]
    # a common constant bounds the normalized traces on the compact t-grid
    assert all(math.isfinite(v) and 0.0 < v < 20.0 for v in means)


def test_largest_eigenvalue_limits_at_n500():
    # supercritical: lambda_1 near rho_theta; subcritical: near 2 sigma
    sup = EnsembleConfig.create(n=500, sigma=1.0, theta=2.0, law="gaussian",
                                symmetry="complex", master_seed=31)
    from dwigner.ensembles import sample_deformed
    from dwigner.spectral import eigenvalues

    vals = [float(eigenvalues(sample_deformed(sup, i)).values[0]) for i in range(8)]
    rho = regime_of(2.0, 1.0).rho_theta
    assert abs(np.mean(vals) - rho) <= 0.05 * rho

    sub = replace(sup, theta=0.5)
    vals = [float(eigenvalues(sample_deformed(sub, i)).values[0]) for i in range(8)]
    assert abs(np.mean(vals) - 2.0) <= 0.05 * 2.0


def test_run_spectrum_census_smoke():
    base = EnsembleConfig.create(n=40, sigma=1.0, theta=2.0, law="rademacher",
                                 symmetry="complex", master_seed=2)
    rep = run_spectrum_census(ExperimentConfig(base=base, n_samples=15))
    assert rep["summary"]["total_interlacing_violations"] == 0
    assert rep["summary"]["max_esd_ks"] < 0.25
    assert rep["exit_code"] == 0


def test_run_oracle_compare_smoke():
    base = EnsembleConfig.create(n=3, sigma=1.0, theta=2.0, law="uniform-symmetric",
                                 symmetry="real", master_seed=123)
    rep = run_oracle_compare(ExperimentConfig(base=base, n_samples=5000), 4)
    assert rep["summary"]["within_4_se"]
    assert rep["summary"]["probe_decreasing"]
    assert rep["exit_code"] == 0


@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_mc_trace_moments_bit_identical_across_batch_sizes(monkeypatch, symmetry):
    cfg = EnsembleConfig.create(n=4, sigma=1.0, theta=2.0, law="rademacher",
                                symmetry=symmetry, master_seed=8)
    results = []
    for batch, workers in ((2048, 1), (1, 1), (7, 2), (4096, 1), (5000, 1)):
        monkeypatch.setattr(dwigner.experiments, "_mc_batch", lambda n, b=batch: b)
        results.append(mc_trace_moments(cfg, 300, (2, 3, 4), workers=workers))
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_trace_moments_matches_per_sample_draws(monkeypatch, workers):
    # batches of 7 over 100 samples: two workers split fifteen batches
    cfg = EnsembleConfig.create(n=3, sigma=1.0, theta=2.0, law="uniform-symmetric",
                                symmetry="complex", master_seed=-4)
    monkeypatch.setattr(dwigner.experiments, "_mc_batch", lambda n: 7)
    lam = np.linalg.eigvalsh(np.stack([sample_deformed(cfg, i).entries for i in range(100)]))
    expected = {}
    for p in (2, 5):
        vals = np.sum(lam**p, axis=1)
        expected[p] = (float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(100)))
    assert mc_trace_moments(cfg, 100, (2, 5), workers=workers) == expected


@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_mc_trace_moments_reduce_each_draw_alone_from_n_453(monkeypatch, symmetry):
    # from MC_SINGLE_DRAW_N on, a batch holds one matrix and each draw's
    # moments are those of spectral.eigenvalues on that draw, bit for bit;
    # the route is keyed on n, so batches of two give the same bits
    assert MC_SINGLE_DRAW_N == 453 and _mc_batch(452) == 2 and _mc_batch(453) == 1
    cfg = EnsembleConfig.create(n=MC_SINGLE_DRAW_N, sigma=1.0, theta=2.0, law="rademacher",
                                symmetry=symmetry, master_seed=3)
    lam = np.stack([eigenvalues(sample_deformed(cfg, i)).values[::-1] for i in range(3)])
    expected = {}
    for p in (2, 5):
        vals = np.sum(lam**p, axis=1)
        expected[p] = (float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(3)))
    assert mc_trace_moments(cfg, 3, (2, 5), workers=2) == expected
    monkeypatch.setattr(dwigner.experiments, "_mc_batch", lambda n: 2)
    assert mc_trace_moments(cfg, 3, (2, 5)) == expected


def test_oracle_compare_report_bytes_are_pinned(tmp_path):
    # sha256 of this report as written at commit c006e97, before sampling was
    # batched: any change of stream layout, fill order or arithmetic shows here
    # even when it is consistent across batch sizes. The value depends on the
    # numpy build (Philox, Generator and LAPACK), here numpy 2.4.6.
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle-compare", "--n", "3", "--L", "4", "--law", "uniform",
                     "--symmetry", "real", "--samples", "3000", "--seed", "5",
                     "--out", str(out), "--format", "json"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "032a6ce9d5733d0159a16a2cc2c2ebc13da4c98799db19b19d7d3d5f0d4775b5")


def test_oracle_compare_rademacher_report_bytes_are_pinned(tmp_path):
    # sha256 of this report as written at commit df1bb03, when the Rademacher
    # signs still came from Generator.integers(0, 2): reading them from the
    # raw Philox words must leave every draw, and so the report, unchanged.
    # The value depends on the numpy build, here numpy 2.4.6.
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle-compare", "--n", "4", "--L", "7", "--theta", "2",
                     "--law", "rademacher", "--symmetry", "complex", "--samples", "3000",
                     "--seed", "5", "--out", str(out), "--format", "json"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d9ec4b6c8b6b222f9afe7614d83136e656031c268b2941ff7429f88403804791")


def test_oracle_compare_probe_passes_vacuously_below_power_four(tmp_path):
    # at L = 2 the Gaussian and Rademacher oracles agree exactly, so every
    # probe delta is 0.0 and the probe must not read as failed
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle-compare", "--n", "100", "--L", "2", "--samples", "2048",
                     "--out", str(out), "--format", "json"]) == 0
    records = json.loads(out.read_text())["records"]
    assert [r["value"] for r in records if r["sample"] == "probe"] == [0.0] * 4
    summary = {r["statistic"]: r["value"] for r in records if r["sample"] == "summary"}
    assert summary["probe_decreasing"] is True


@pytest.mark.parametrize("n, symmetry", [(1, "complex"), (2, "real"), (5, "complex"),
                                         (100, "real")])
def test_oracle_compare_passes_on_a_trace_that_every_draw_shares(n, symmetry, capsys):
    # with Rademacher entries Tr M^2 is the same on every draw: the standard
    # error is 0 or rounding noise, and so is the distance to the oracle
    assert cli_main(["oracle-compare", "--n", str(n), "--L", "2", "--law", "rademacher",
                     "--symmetry", symmetry, "--samples", "10"]) == 0
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(out["mc_se"]) < 1e-13
    assert float(out["z_score"]) < 0.1 and out["within_4_se"] == "True"


def test_oracle_compare_fails_an_offset_oracle_at_zero_standard_error(monkeypatch, capsys):
    real = dwigner.experiments.exact_trace_expectation
    monkeypatch.setattr(dwigner.experiments, "exact_trace_expectation",
                        lambda *args: real(*args) + 1e-9)
    assert cli_main(["oracle-compare", "--n", "1", "--L", "2", "--law", "rademacher",
                     "--samples", "10"]) == 1
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert out["mc_se"] == "0.0" and out["within_4_se"] == "False"
    assert 4.0 < float(out["z_score"]) < math.inf


def test_mc_batch_is_bounded_by_the_entry_budget():
    # small matrices keep the full batch, large ones shrink it to the budget
    assert _mc_batch(4) == _mc_batch(14) == 2048
    assert _mc_batch(15) < 2048
    assert _mc_batch(40) == 256
    for n in (15, 46, 100, 640):
        assert 1 <= _mc_batch(n) and _mc_batch(n) * n * n <= MC_BATCH_ENTRIES
    assert _mc_batch(641) == _mc_batch(10_000) == 1


def test_verify_battery_empty_is_noop_pass():
    code, report = run_combinatorics_verify({})
    assert code == 0
    assert report["records"] == []


def test_verify_battery_quick_pass():
    code, report = run_combinatorics_verify(QUICK_LIMITS)
    assert code == 0, [r for r in report["records"] if not r["pass"]]
    assert all(r["pass"] for r in report["records"])
    assert {r["check"] for r in report["records"]} >= {
        "trajectory_counts", "sum_identity", "correspondence_roundtrip",
        "surgery_bijection", "gluing_preimage_bound", "dyck_roundtrip",
    }


def test_verify_battery_detects_fault(monkeypatch):
    # corrupt the count table: the battery must exit nonzero with a counterexample
    real = dwigner.path_model.count_trajectories

    def corrupted(m, l):
        value = real(m, l)
        return value + 1 if (m, l) == (2, 2) else value

    monkeypatch.setattr(dwigner.path_model, "count_trajectories", corrupted)
    code, report = run_combinatorics_verify({"trajectory_steps": 6})
    assert code == 1
    bad = [r for r in report["records"] if not r["pass"]]
    assert bad and bad[0]["counterexample"] is not None


def test_verify_battery_reports_a_crashed_check():
    # m = 0 divides by zero inside the tail report; the crash is a failed record
    code, report = run_combinatorics_verify({"lemma77_grid": (0,)})
    assert code == 1
    (rec,) = report["records"]
    assert rec["check"] == "lemma77_exp_moment"
    assert rec["pass"] is False
    assert rec["params"] == {"args": ["(0,)"]}
    assert "error" in rec["counterexample"]


def test_verify_battery_catches_a_wrong_rotation_shift(monkeypatch):
    # an off-by-one shift_k from the rotation must fail the round-trip check
    real = dwigner.correspondence.to_marked_origin

    def shifted(verts):
        images, shift_k, level_p, error = real(verts)
        return images, shift_k + 1, level_p, error

    monkeypatch.setattr(dwigner.correspondence, "to_marked_origin", shifted)
    code, report = run_combinatorics_verify(
        {"correspondence_length": 6, "correspondence_vertices": 3})
    assert code == 1
    (rec,) = report["records"]
    assert rec["check"] == "correspondence_roundtrip"
    assert rec["pass"] is False


def _reference_correspondence(max_length, max_vertices):
    """The correspondence check path by path, each path a one-row array: the
    order and reasons the battery must reproduce on its chunks. A flagged row
    raises, as the battery records it."""
    c, pm = dwigner.correspondence, dwigner.path_model

    def marks_of(verts):
        return pm.instant_marks(pm.edge_codes(np.array([verts])))[0][0].tolist()

    def source_of(images, shift_k):
        sources, error = c.from_marked_origin(images, shift_k)
        c.raise_row_error(error[0])
        return tuple(sources[0].tolist())

    seen = {}
    checked = 0
    for length in range(1, max_length + 1):
        for verts in closed_path_tuples(length, max_vertices):
            marks = marks_of(verts)
            if marks[-1] or 2 * sum(marks) == length:
                continue
            checked += 1
            images, shift_k, _, error = c.to_marked_origin(np.array([verts]))
            c.raise_row_error(error[0])
            image = tuple(images[0].tolist())
            image_marks = marks_of(image)
            if not image_marks[-1]:
                reason = "image does not end with an up step"
            elif not any(m and v == image[0] for m, v in zip(image_marks, image[1:])):
                reason = "image origin is not marked"
            elif sum(image_marks) != sum(marks):
                reason = "class not preserved"
            elif Counter(edge_keys(image)) != Counter(edge_keys(verts)):
                reason = "edge multiset not preserved"
            elif source_of(images, shift_k) != verts:
                reason = "round trip failed"
            elif seen.setdefault((image, int(shift_k[0])), verts) != verts:
                reason = "injectivity failure"
            else:
                continue
            return {"path": ",".join(map(str, verts)), "reason": reason}
    return {"cases": checked}


def _battery_correspondence(max_length, max_vertices):
    code, report = run_combinatorics_verify(
        {"correspondence_length": max_length, "correspondence_vertices": max_vertices})
    (rec,) = report["records"]
    return rec["counterexample"] if code else {"cases": rec["params"]["cases"]}


def _reference_or_error(max_length, max_vertices):
    try:
        return _reference_correspondence(max_length, max_vertices)
    except ValueError as exc:  # the battery records a raising check the same way
        return {"error": repr(exc)}


def _hit(rows):
    # the mutations below break only some paths of length >= 6, so the first
    # failure sits deep in the canonical order and in mid-chunk
    rows = np.asarray(rows)
    return (rows.shape[1] >= 6) & (rows.sum(axis=1) % 5 == 0)


def _shift_plus_one(real):
    def mutated(verts):
        images, shift_k, level_p, error = real(verts)
        in_range = shift_k + 1 < np.asarray(verts).shape[1] - 1
        return images, shift_k + (_hit(verts) & in_range), level_p, error
    return mutated


def _rotate_one_early(real):
    def mutated(verts):
        verts = np.asarray(verts)
        images, shift_k, level_p, error = real(verts)
        first_odd = verts.shape[1] - 1 - shift_k  # the rotation's instant j
        early = dwigner.correspondence._rotate_rows(verts, first_odd - 1)
        return np.where(_hit(verts)[:, None], early, images), shift_k, level_p, error
    return mutated


def _flip_second_mark(real):
    def mutated(codes):
        marks, odd = real(codes)
        if marks.shape[1] > 1:
            marks[:, 1] ^= _hit(codes) & odd.any(axis=1)
        return marks, odd
    return mutated


@pytest.mark.parametrize("module, name, mutate", [
    ("correspondence", "to_marked_origin", _shift_plus_one),
    ("correspondence", "to_marked_origin", _rotate_one_early),
    ("path_model", "instant_marks", _flip_second_mark),
])
def test_correspondence_counterexample_matches_per_path_reference(monkeypatch, module, name,
                                                                  mutate):
    assert _battery_correspondence(8, 4) == _reference_correspondence(8, 4) == {"cases": 1166}
    mutated = mutate(getattr(getattr(dwigner, module), name))
    monkeypatch.setattr(getattr(dwigner, module), name, mutated)
    if name == "instant_marks":  # the rotation reads the kernel through its own import
        monkeypatch.setattr(dwigner.correspondence, name, mutated)
    got = _battery_correspondence(8, 4)
    assert "cases" not in got
    assert got == _reference_or_error(8, 4)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_correspondence_check_does_not_depend_on_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(dwigner.path_model, "ROW_CHUNK", chunk)
    assert _battery_correspondence(7, 4) == _reference_correspondence(7, 4) == {"cases": 366}
    monkeypatch.setattr(dwigner.correspondence, "to_marked_origin",
                        _shift_plus_one(dwigner.correspondence.to_marked_origin))
    assert _battery_correspondence(7, 4) == _reference_or_error(7, 4)


def test_correspondence_check_with_more_vertices_than_steps(tmp_path):
    # the path rows hold labels up to the length, not up to the vertex limit
    out = tmp_path / "verify.json"
    assert cli_main(["verify-combinatorics", "--correspondence-length", "3",
                     "--correspondence-vertices", "200", "--format", "json",
                     "--out", str(out)]) == 0
    (rec,) = [rec for rec in json.loads(out.read_text())["records"]
              if rec["check"] == "correspondence_roundtrip"]
    assert rec["pass"] is True
    assert {"cases": rec["params"]["cases"]} == _reference_correspondence(3, 200)


def _reference_trajectory_checks(check, limit):
    """The per-walk loops the array checks replaced, over the step tuples of
    ``enumerate_trajectories`` and one-row ``dyck_decompose`` calls: the
    counterexample the battery must reproduce, a raised error recorded as the
    battery records it."""
    pm, d = dwigner.path_model, dwigner.dyck_stats
    classes = [(m, total - 2 * m) for total in range(1, limit + 1)
               for m in range(0, total // 2 + 1)]

    def trajectory_counts():
        for m, l in classes:
            listed = pm.enumerate_trajectories(m, l).tolist()
            closed = pm.count_trajectories(m, l)
            factorial = pm.count_trajectories_factorial(m, l)
            if not len(listed) == closed == factorial:
                return {"m": m, "l": l, "enumerated": len(listed),
                        "binomial_form": closed, "factorial_form": factorial}
            up, down = pm.last_step_split(m, l)
            tally_up = sum(1 for x in listed if x[-1] == 1)
            if up != tally_up or up + down != closed:
                return {"m": m, "l": l, "split": (up, down), "tally_up": tally_up}
        return None

    def dyck_roundtrip():
        for m, l in classes:
            for x in pm.enumerate_trajectories(m, l).tolist():
                rises, starts, ends = d.dyck_decompose(np.array([x]))
                if rises.sum() != l or (ends - starts).sum() != 2 * m:
                    return {"trajectory": pm.trajectory_to_string(x),
                            "reason": "rise/block bookkeeping"}
        return None

    def max_level_pmf():
        for m in range(1, limit + 1):
            pmf = d.max_level_distribution(m)
            tally = Counter(max(levels_of(x)) for x in pm.enumerate_trajectories(m, 0).tolist())
            total = sum(tally.values())
            for k, mass in pmf.items():
                if mass != Fraction(tally[k], total):
                    return {"m": m, "k": k, "pmf": str(mass),
                            "enumerated": f"{tally[k]}/{total}"}
        return None

    loops = {"trajectory_counts": trajectory_counts, "dyck_roundtrip": dyck_roundtrip,
             "max_level_pmf": max_level_pmf}
    try:
        return loops[check]()
    except Exception as exc:  # the battery records a crashed check the same way
        return {"error": repr(exc)}


def _battery_record(check, limit_key, limit):
    code, report = run_combinatorics_verify({limit_key: limit})
    (rec,) = report["records"]
    assert rec["check"] == check and code == 1 and not rec["pass"]
    return rec["counterexample"]


def _mutate_rows(real, broken):
    """trajectory_rows with ``broken(m, l, rows)`` applied to every array it yields."""
    def mutated(m, l):
        for rows in real(m, l):
            yield broken(m, l, rows.copy())
    return mutated


def test_trajectory_counts_report_the_first_class_missing_a_walk(monkeypatch):
    def drop_one(m, l, rows):
        return rows[1:] if (m, l) in {(3, 0), (1, 5)} else rows  # totals 6 and 7

    monkeypatch.setattr(dwigner.path_model, "trajectory_rows",
                        _mutate_rows(dwigner.path_model.trajectory_rows, drop_one))
    expected = _reference_trajectory_checks("trajectory_counts", 8)
    assert expected == {"m": 3, "l": 0, "enumerated": 4, "binomial_form": 5,
                        "factorial_form": 5}
    assert _battery_record("trajectory_counts", "trajectory_steps", 8) == expected


def test_max_level_pmf_reports_the_first_raised_maximum(monkeypatch):
    def raise_one(m, l, rows):
        if m in (4, 5):  # the last Dyck path, UDUD..., becomes UUDDUD...: its maximum is 2
            rows[-1, 1:3] = (1, -1)
        return rows

    monkeypatch.setattr(dwigner.path_model, "trajectory_rows",
                        _mutate_rows(dwigner.path_model.trajectory_rows, raise_one))
    expected = _reference_trajectory_checks("max_level_pmf", 6)
    assert expected == {"m": 4, "k": 1, "pmf": "1/14", "enumerated": "0/14"}
    assert _battery_record("max_level_pmf", "max_pmf_m", 6) == expected


def test_dyck_roundtrip_reports_a_shifted_last_visit(monkeypatch):
    real = dwigner.dyck_stats._last_visits
    target = np.cumsum([0, 1, -1, 1, 1, -1, 1, 1])  # UDUUDUU: level 1's block is UD

    def shifted(levels, top):
        times = real(levels, top)
        if levels.shape[1] == len(target):
            times[(levels == target).all(axis=1), 1] += 1
        return times

    monkeypatch.setattr(dwigner.dyck_stats, "_last_visits", shifted)
    expected = _reference_trajectory_checks("dyck_roundtrip", 8)
    assert expected == {"error": "ValueError('blocks must be Dyck paths')"}
    assert _battery_record("dyck_roundtrip", "dyck_roundtrip_steps", 8) == expected


def test_dyck_roundtrip_reports_the_first_bookkeeping_failure(monkeypatch):
    real = dwigner.dyck_stats.dyck_decompose

    def short_rise(rows):
        rises, starts, ends = real(rows)
        # walks that climb straight to their end level lose one rise step
        straight = (rows == 1).all(axis=1) & (rows.shape[1] >= 3)
        rises[straight, -1] -= 1
        return rises, starts, ends

    monkeypatch.setattr(dwigner.dyck_stats, "dyck_decompose", short_rise)
    code, report = run_combinatorics_verify({"dyck_roundtrip_steps": 8})
    assert code == 1
    assert report["records"][0]["counterexample"] == {
        "trajectory": "UUU", "reason": "rise/block bookkeeping"}


def test_verify_default_report_bytes_are_pinned(tmp_path):
    # sha256 of the default battery's report as written at commit c545bab,
    # before each path's edge tally was kept on the path: every count,
    # parameter and float of the ten checks must come out unchanged.
    out = tmp_path / "verify.json"
    assert cli_main(["verify-combinatorics", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8b8d58679b3b7dbe49b28f45eb4fe95911e96e25653ff0ff5dbe51824cb55dbf")


def test_verify_exact_report_bytes_are_pinned(tmp_path):
    # sha256 of the battery's report at the verify-exact benchmark shape
    # (perfbench/workloads.py), as written at commit 699c539, before the
    # correspondence check moved to int8 path arrays. It reaches what the
    # default pin does not: correspondence at L = 10 on 5 vertices (38,765
    # cases) and lemma73 up to s = 200.
    out = tmp_path / "verify.json"
    assert cli_main([
        "verify-combinatorics", "--trajectory-steps", "16", "--sum-identity-steps", "24",
        "--correspondence-length", "10", "--correspondence-vertices", "5",
        "--surgery-steps", "12", "--lemma73-s", "200",
        "--lemma77-grid", "25", "100", "400", "900",
        "--dyck-roundtrip-steps", "16", "--ballot-steps", "24", "--max-pmf-m", "10",
        "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "868cb51136a7d2e0f75a6e6c78548b65aa01fd0c7158b0b0b10a08408aaa15dc")


def test_verify_large_surgery_and_census_report_bytes_are_pinned(tmp_path):
    # sha256 of this report as written at commit 11f6614, before the surgery
    # check and the gluing census moved to int8 rows. It reaches what the
    # default and verify-exact pins do not: the surgery up to 16 steps and the
    # census at L = 4 on 4 vertices.
    out = tmp_path / "verify.json"
    assert cli_main(["verify-combinatorics", "--surgery-steps", "16", "--glue-length", "4",
                     "--glue-vertices", "4", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "325e25cdd52f46709a33061f3da43849fde7c5173150764d46ef8f8abaa582ab")


def test_surgery_reports_the_first_class_that_misses_its_target(monkeypatch):
    real = dwigner.path_model.count_trajectories

    def one_more(m, l):  # (1, 4) is the target of (m, l, p) = (2, 2, 1) only
        return real(m, l) + ((m, l) == (1, 4))

    monkeypatch.setattr(dwigner.path_model, "count_trajectories", one_more)
    code, report = run_combinatorics_verify({"surgery_steps": 8})
    (rec,) = report["records"]
    assert code == 1 and rec["check"] == "surgery_bijection" and not rec["pass"]
    assert rec["counterexample"] == {"m": 2, "l": 2, "p": 1, "pairs": 5, "distinct": 5,
                                     "target": 6}


@pytest.mark.parametrize("block", [7, 4096])
def test_gluing_violations_match_the_reference_when_k_shrinks(monkeypatch, block):
    # with K halved (at least 1) in both routes, the census reports the
    # reference's violations in the reference's order, whatever its block
    real, real_reference = dwigner.correspondence.k_statistic, reference.k_statistic_reference
    monkeypatch.setattr(dwigner.correspondence, "ROW_CHUNK", block)
    monkeypatch.setattr(dwigner.correspondence, "k_statistic",
                        lambda steps, window: np.maximum(real(steps, window) // 2, 1))
    monkeypatch.setattr(reference, "k_statistic_reference",
                        lambda steps, window: max(real_reference(steps, window) // 2, 1))
    for length, vertices in ((3, 3), (4, 3)):
        want = reference.preimage_census_reference(length, vertices)
        assert len(want["violations"]) > 20
        assert dwigner.correspondence.preimage_bound_check(length, vertices) == want
    code, report = run_combinatorics_verify({"glue_length": 4, "glue_vertices": 3})
    (rec,) = report["records"]
    assert code == 1 and rec["check"] == "gluing_preimage_bound"
    assert rec["counterexample"] == reference.preimage_census_reference(3, 3)["violations"][0]


def test_verify_passes_under_python_optimize(tmp_path):
    # -O strips assert statements; the battery's guards are explicit raises
    out = tmp_path / "verify.json"
    proc = subprocess.run([sys.executable, "-O", "-m", "dwigner", "verify-combinatorics",
                           "--format", "json", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert all(rec["pass"] for rec in json.loads(out.read_text())["records"])


# The first line hands the rotation inputs it must flag with a nonzero error code;
# each `fires` case breaks one step of an exact routine and expects its guard to
# fire. The surgery and the gluing read their reversals through `np.flip`.
_GUARD_CASES = """
import numpy as np

import dwigner.correspondence as c
import dwigner.dyck_stats as d

def fires(call, owner, name, fake):
    real = getattr(owner, name, None)  # None: a builtin the module does not define
    setattr(owner, name, fake)
    try:
        call()
    except AssertionError:
        return True
    finally:
        if real is None:
            delattr(owner, name)
        else:
            setattr(owner, name, real)
    return False

image = np.array([(1, 1, 1, 1, 2, 2, 1)])  # admissible, but its own image is another path
print(c.from_marked_origin(image, np.array([0]))[1][0] != 0,
      c.to_marked_origin(np.array([(1, 2, 3, 1)]))[3][0] != 0)  # last step up
unflipped = lambda rows, axis=None: rows
print(fires(lambda: d.dyck_decompose(np.array([[1, 1, -1, 1]], np.int8)),
            d, "_rebuilt_rows", lambda steps, *rest: -steps),
      fires(lambda: d.max_level_distribution(4), d, "confined_dyck_count", lambda m, k: 0),
      fires(lambda: c.trajectory_surgery(np.array([[1, 1, -1, 1]], np.int8), 1, np.array([2])),
            np, "flip", unflipped),
      fires(lambda: c.glue_paths(np.array([(1, 2, 3, 1)]), np.array([(1, 2, 4, 1)])),
            np, "flip", unflipped))
"""


def test_exact_guards_fire_under_python_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", _GUARD_CASES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 6


def test_verify_check_table_uses_every_limit():
    keys = [key for _, _, check_keys in _CHECKS for key in check_keys]
    assert sorted(keys) == sorted(DEFAULT_VERIFY_LIMITS)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn=40\ntheta=2.0\nlaw=rademacher\n\nseed=9\n")
    cfg = load_config_file(str(path))
    assert cfg == {"n": "40", "theta": "2.0", "law": "rademacher", "seed": "9"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_render_csv_and_json():
    report = {
        "command": "demo",
        "fieldnames": ("sample", "statistic", "value"),
        "records": [
            {"sample": 0, "statistic": "x", "value": 1.5},
            {"sample": "summary", "statistic": "note", "value": "a,b"},
        ],
    }
    csv_text = render_csv(report)
    assert csv_text.splitlines()[0] == "sample,statistic,value"
    assert '"a,b"' in csv_text
    payload = json.loads(render_json(report))
    assert payload["command"] == "demo"
    assert payload["records"][0]["value"] == 1.5


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "dwigner", *args],
                          capture_output=True, text=True)


def test_cli_usage_error_exit_code():
    proc = run_cli("fluctuations", "--law", "cauchy")
    assert proc.returncode == 2
    # the output format is checked by the command line alone
    proc = run_cli("census", "--format", "xml")
    assert proc.returncode == 2


def test_cli_census_with_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=25\nsamples=4\ntheta=2.0\nsigma=1.0\nlaw=gaussian\n"
                   "symmetry=complex\nseed=5\n")
    out = tmp_path / "census.csv"
    proc = run_cli("census", "--config", str(cfg), "--out", str(out), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert text.startswith("sample,statistic,value\n")
    assert "esd_ks" in text

    # flags override config-file values
    out2 = tmp_path / "census2.csv"
    proc = run_cli("census", "--config", str(cfg), "--samples", "2",
                   "--out", str(out2), "--format", "csv")
    assert proc.returncode == 0
    assert out2.read_text().count("esd_ks") < text.count("esd_ks")


def test_cli_rerun_is_byte_identical(tmp_path):
    args = ("census", "--n", "20", "--samples", "6", "--theta", "2.0",
            "--sigma", "1.0", "--law", "rademacher", "--symmetry", "complex",
            "--seed", "11", "--format", "json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b), "--workers", "3").returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_baseline_theta_with_uniform_law(capsys):
    code = cli_main(["fluctuations", "--n", "20", "--samples", "4", "--theta", "0.5",
                     "--law", "uniform", "--baseline-theta", "0"])
    assert code == 0
    assert "ks_two_sample_1:" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    # 5000 samples span three Monte Carlo batches, so two workers split them
    ["oracle-compare", "--n", "3", "--L", "4", "--theta", "2.0", "--law", "rademacher",
     "--symmetry", "real", "--samples", "5000", "--seed", "13", "--format", "json"],
    ["trace-growth", "--n", "30", "--theta", "2.0", "--law", "rademacher",
     "--symmetry", "complex", "--samples", "12", "--seed", "13", "--format", "json"],
], ids=["oracle-compare", "trace-growth"])
def test_cli_byte_identical_across_workers(tmp_path, args):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["--workers", "1", "--out", str(a)]) == 0
    assert cli_main(args + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_fast(tmp_path):
    out = tmp_path / "verify.json"
    proc = run_cli("verify-combinatorics", "--trajectory-steps", "6",
                   "--sum-identity-steps", "8", "--correspondence-length", "5",
                   "--correspondence-vertices", "3", "--surgery-steps", "5",
                   "--glue-length", "2", "--glue-vertices", "3",
                   "--lemma73-s", "10", "--lemma77-grid", "25",
                   "--dyck-roundtrip-steps", "6", "--ballot-steps", "8",
                   "--max-pmf-m", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert all(rec["pass"] for rec in payload["records"])
    assert {"check", "params", "pass", "counterexample"} <= set(payload["records"][0])


@pytest.mark.parametrize("args", [
    ["trace-growth", "--theta", "0.5", "--n", "10", "--samples", "2"],
    ["oracle-compare", "--L", "0", "--n", "3", "--samples", "10"],
    ["oracle-compare", "--n", "100", "--L", "14", "--samples", "10"],
    # no KS test would run, so a pass would be vacuous
    ["fluctuations", "--theta", "0.5", "--top-k", "0", "--ks-threshold", "0.01",
     "--n", "10", "--samples", "2"],
    ["fluctuations", "--theta", "0.5", "--top-k", "-1", "--ks-threshold", "0.01",
     "--n", "10", "--samples", "2"],
    # one sample has no standard error to compare against
    ["oracle-compare", "--n", "3", "--samples", "1"],
    # a parameter whose square overflows a float
    ["fluctuations", "--n", "3", "--theta", "1e200", "--samples", "3"],
    ["fluctuations", "--n", "3", "--sigma", "1e200", "--theta", "2e200", "--samples", "3"],
    ["oracle-compare", "--n", "3", "--L", "4", "--theta", "1e200", "--samples", "10"],
    ["census", "--n", "3", "--theta", "1e308", "--samples", "2"],
], ids=["wrong-regime", "zero-power", "oracle-guard", "top-k-zero", "top-k-negative",
        "one-oracle-sample", "theta-squared-overflows", "sigma-squared-overflows",
        "oracle-theta-overflows", "census-theta-overflows"])
def test_cli_bad_input_exits_2_with_one_line(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("dwigner: error: ")
    assert sum(line.startswith("dwigner: error: ") for line in err.splitlines()) == 1


# At sigma = 1e308 the spectral edge 2 sigma overflows and every run is
# refused; at 8e307 the edge is finite, and the matrices of these draws, or
# their reductions, overflow inside spectral.
_OVERFLOW_RUNS = [[command, "--law", law, "--symmetry", symmetry, "--sigma", "1e308"]
                  for command in ("fluctuations", "census")
                  for law in ("gaussian", "rademacher")
                  for symmetry in ("real", "complex")] + [
    ["fluctuations", "--symmetry", "real", "--sigma", "8e307"],
    ["fluctuations", "--symmetry", "complex", "--sigma", "8e307"],
    ["census", "--law", "rademacher", "--symmetry", "real", "--sigma", "8e307"],
    ["census", "--symmetry", "complex", "--sigma", "8e307"],
]


@pytest.mark.parametrize("args", _OVERFLOW_RUNS, ids=[" ".join(a) for a in _OVERFLOW_RUNS])
def test_cli_overflowing_matrices_exit_2_with_one_line_naming_sigma(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(args + ["--n", "4", "--samples", "2", "--theta", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("dwigner: error: ")]
    assert line == err.splitlines()[-1] and "--sigma" in line


def test_cli_census_mean_of_eigenvalues_near_the_float_limit(tmp_path, capsys):
    # every lambda_1 is finite, but their sum is not: the mean is taken over
    # the values scaled by a power of two and equals the exact mean, rounded once
    out = tmp_path / "census.json"
    assert cli_main(["census", "--n", "4", "--samples", "2", "--sigma", "8e307", "--theta", "0",
                     "--law", "rademacher", "--symmetry", "complex", "--out", str(out),
                     "--format", "json"]) == 0
    records = json.loads(out.read_text())["records"]
    lam = [r["value"] for r in records if r["statistic"] == "lambda_1"]
    (mean,) = [r["value"] for r in records if r["statistic"] == "mean_lambda_1"]
    assert len(lam) == 2 and all(math.isfinite(v) for v in lam) and not math.isfinite(sum(lam))
    assert mean == float(sum(map(Fraction, lam)) / 2)


@pytest.mark.parametrize("command", ["census", "fluctuations", "trace-growth"])
def test_cli_supercritical_theta_whose_square_overflows_exits_2_naming_both(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--n", "4", "--samples", "2", "--sigma", "1e200", "--theta", "2e200"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("dwigner: error: ")]
    assert line == err.splitlines()[-1] and "--sigma" in line and "--theta" in line


@pytest.mark.parametrize("command", ["census", "fluctuations", "oracle-compare"])
def test_cli_out_of_memory_exits_2_with_one_line_naming_n(command, monkeypatch, capsys):
    # The sampler raises as numpy does when it cannot allocate the stack. A
    # real oversized allocation is never made: under overcommit it can
    # succeed, and filling it then exhausts the machine.
    def no_memory(config, indices):
        raise MemoryError(f"Unable to allocate the stack of shape "
                          f"({len(indices)}, {config.n}, {config.n})")
    monkeypatch.setattr(dwigner.ensembles, "_wigner_stack", no_memory)
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--n", "100000", "--theta", "2", "--samples", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("dwigner: error: ")]
    assert line == err.splitlines()[-1] and "--n" in line


def test_cli_trace_growth_t_scale_past_float_range_exits_2(capsys):
    # t n^{1/6} + log n above log(float max) would overflow the exponential
    # sum; at n = 100 the largest t allowed is 327.314
    args = ["trace-growth", "--n", "100", "--theta", "2", "--samples", "4", "--seed", "4"]
    with pytest.raises(SystemExit) as exc:
        cli_main(args + ["--t-scale", "500"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("dwigner: error: ")]
    assert "--t-scale" in line and "327.314" in line
    assert cli_main(args + ["--t-scale", "327"]) == 0


def test_cli_trace_growth_empty_exp_window_reports_infinite_ratio(capsys):
    # no eigenvalue of the one draw falls in the window |xi| <= n^{1/6}
    assert cli_main(["trace-growth", "--n", "3", "--theta", "2", "--samples", "1",
                     "--seed", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mean_exp_sum: 0.0" in out and "residual_ratio: inf" in out


@pytest.mark.parametrize("args", [
    ["--sigma", "1e-310", "--theta", "2"],
    ["--sigma", "1e-320", "--theta", "2"],
    ["--sigma", "1e-310", "--theta", "0"],
], ids=["sigma-1e-310", "sigma-1e-320", "theta-0"])
def test_cli_census_with_a_tiny_sigma_exits_without_a_traceback(args, tmp_path):
    proc = run_cli("census", "--n", "5", "--samples", "2", *args,
                   "--out", str(tmp_path / "census.csv"))
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, args", [
    ("fluctuations", ["--n", "5", "--samples", "3"]),
    ("fluctuations", ["--n", "5", "--samples", "3", "--symmetry", "real"]),
    ("oracle-compare", ["--n", "3", "--samples", "20"]),
], ids=["fluctuations-complex", "fluctuations-real", "oracle-compare"])
def test_cli_supercritical_run_with_a_tiny_sigma_reports_or_names_the_flag(command, args,
                                                                            capsys):
    # sigma_theta**2 and the component variance sigma**2 / 2 underflow to 0
    try:
        code = cli_main([command, *args, "--sigma", "1e-310", "--theta", "2"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "variance" not in err
    if code == 2:
        assert "--sigma" in err.splitlines()[-1]
    else:
        assert code in (0, 1) and out


@pytest.mark.parametrize("args,name", [
    (["trace-growth", "--theta", "2", "--t-scale", "inf"], "t_scale"),
    (["fluctuations", "--theta", "inf"], "theta"),
    (["fluctuations", "--theta", "nan"], "theta"),
    (["census", "--sigma", "inf"], "sigma"),
    (["fluctuations", "--theta", "2", "--ks-threshold", "nan"], "ks_threshold"),
    (["fluctuations", "--theta", "2", "--ks-threshold", "inf"], "ks_threshold"),
], ids=["t-scale-inf", "theta-inf", "theta-nan", "sigma-inf", "ks-threshold-nan",
        "ks-threshold-inf"])
def test_cli_non_finite_value_exits_2_naming_it(args, name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(args + ["--n", "10", "--samples", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert not any("Traceback" in line for line in err)
    assert [line for line in err if "error:" in line] == [
        f"dwigner: error: {name} must be finite, got {args[-1]}"]


# Limits past a library guard (the enumeration cap of 30 steps, the gluing
# census guard of 5, the exact-pmf guard of m <= 2000) are usage errors too,
# rejected before any check runs.
@pytest.mark.parametrize("args,message", [
    (["--lemma73-s", "0"], "must be >= 1, got 0"),
    (["--lemma77-grid", "25", "0"], "must be >= 1, got 0"),
    (["--glue-length", "6"], "must be <= 5, got 6"),
    (["--glue-vertices", "6"], "must be <= 5, got 6"),
    (["--trajectory-steps", "31"], "must be <= 30, got 31"),
    (["--surgery-steps", "31"], "must be <= 30, got 31"),
    (["--dyck-roundtrip-steps", "31"], "must be <= 30, got 31"),
    (["--max-pmf-m", "16"], "must be <= 15, got 16"),
    (["--lemma77-grid", "25", "2001"], "must be <= 2000, got 2001"),
], ids=["verify-limit", "verify-grid", "glue-length", "glue-vertices", "trajectory-steps",
        "surgery-steps", "dyck-roundtrip-steps", "max-pmf-m", "lemma77-grid-guard"])
def test_cli_verify_limit_below_one_exits_2(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify-combinatorics", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: argument {args[0]}: {message}")


_SMALL_RUNS = {
    "fluctuations": ["--n", "10", "--theta", "2", "--samples", "2"],
    "trace-growth": ["--n", "10", "--theta", "2", "--samples", "2"],
    "census": ["--n", "10", "--samples", "2"],
    "oracle-compare": ["--n", "3", "--samples", "10"],
}
# flag -> (a value, the one subcommand that reads it)
_FLAG_READER = {
    "--t-scale": ("1", "trace-growth"),
    "--top-k": ("1", "fluctuations"),
    "--baseline-theta": ("0", "fluctuations"),
    "--baseline-law": ("gaussian", "fluctuations"),
    "--ks-threshold": ("0.01", "fluctuations"),
}
_FOREIGN_FLAGS = [(command, [flag, value]) for flag, (value, reader) in _FLAG_READER.items()
                  for command in _SMALL_RUNS if command != reader]


@pytest.mark.parametrize("command, flag", _FOREIGN_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in _FOREIGN_FLAGS])
def test_cli_rejects_a_flag_the_subcommand_does_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *_SMALL_RUNS[command], *flag])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"dwigner: error: unrecognized arguments: {' '.join(flag)}"


@pytest.mark.parametrize("command", ["fluctuations", "trace-growth", "census"])
def test_cli_rejects_a_config_key_the_subcommand_does_not_read(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L=3\n")
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--config", str(cfg), *_SMALL_RUNS[command]])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"dwigner: error: {cfg}: config key 'L' is not read by {command}"
    # the subcommand that reads it takes it
    assert cli_main(["oracle-compare", "--config", str(cfg), *_SMALL_RUNS["oracle-compare"]]) == 0


def test_cli_config_values_obey_flag_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=10\nsamples=2\nlaw=uniform-symmetric\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["census", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "law='uniform-symmetric': choose from gaussian, rademacher, uniform" in (
        capsys.readouterr().err)


def test_cli_config_type_error_names_key_and_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=abc\nsamples=2\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["census", "--config", str(cfg)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"dwigner: error: {cfg}: config n='abc': expected int"


# --------------------------------------------------------------------------
# OpenBLAS thread count around the runners


@pytest.fixture
def blas_threads():
    """OpenBLAS at two threads for the test, so a count held at one shows on
    any machine; yields the count's getter and puts the count found back."""
    get, put = dwigner.spectral._thread_control()
    saved = get()
    put(2)
    yield get
    put(saved)


def _record_threads(monkeypatch, name, get):
    """Wrap ``experiments.<name>``; returns the thread counts read at its calls."""
    seen = []
    real = getattr(dwigner.experiments, name)
    monkeypatch.setattr(dwigner.experiments, name,
                        lambda *args: seen.append(get()) or real(*args))
    return seen


def _record_spectral_threads(monkeypatch, get):
    """Wrap the reflector and both stages of the reduction in ``spectral``;
    returns the thread counts read inside their calls, keyed by
    ``"reflector"``, ``"band"`` (stage 1: ``zhetrd_he2hb``, or ``dsytrd`` for
    real input) and ``"bulge"`` (stage 2: ``zhetrd_hb2st``, or reading
    ``(d, e)`` off a real band)."""
    seen = {"reflector": [], "band": [], "bulge": []}

    def reading(site, fn):
        return lambda *args: seen[site].append(get()) or fn(*args)

    for site, name in (("reflector", "_reflect"), ("band", "_band"),
                       ("bulge", "_band_tridiagonal")):
        monkeypatch.setattr(dwigner.spectral, name, reading(site, getattr(dwigner.spectral, name)))
    return seen


# runner, the spectral steps each draw takes, theta
_THREAD_RUNS = {
    "census": (run_spectrum_census, ("reflector", "band", "bulge"), 2.0),
    "fluctuations-super": (run_fluctuations, ("band", "bulge"), 2.0),
    "fluctuations-sub": (run_fluctuations, ("band", "bulge"), 0.5),
    "trace-growth": (run_trace_growth, ("band", "bulge"), 2.0),
}


def _thread_run_config(run, symmetry, workers):
    base = EnsembleConfig.create(n=12, sigma=1.0, theta=_THREAD_RUNS[run][2], law="gaussian",
                                 symmetry=symmetry, master_seed=3)
    return ExperimentConfig(base=base, n_samples=4, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
@pytest.mark.parametrize("run", _THREAD_RUNS)
def test_complex_runs_hold_one_blas_thread_and_restore_the_count(blas_threads, monkeypatch,
                                                                 run, symmetry, workers):
    runner, steps, _ = _THREAD_RUNS[run]
    seen = _record_spectral_threads(monkeypatch, blas_threads)
    runner(_thread_run_config(run, symmetry, workers))
    assert [site for site in seen if seen[site]] == list(steps)
    for site in steps:
        assert set(seen[site]) == {1 if symmetry == "complex" else 2}
    assert blas_threads() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_a_draw_that_raises_restores_the_blas_count(blas_threads, monkeypatch, workers):
    seen = []

    def broken(*args):
        seen.append(blas_threads())
        raise RuntimeError("draw failed")

    monkeypatch.setattr(dwigner.spectral, "_reflect", broken)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_spectrum_census(_thread_run_config("census", "complex", workers))
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_a_census_whose_second_stage_raises_joins_its_threads(blas_threads, monkeypatch,
                                                              workers):
    # the second stage runs on a helper thread; its failure reaches the
    # caller, and no thread of the run outlives it
    def broken(*args):
        raise RuntimeError("second stage failed")

    monkeypatch.setattr(dwigner.spectral, "_band_tridiagonal", broken)
    count, running = threading.active_count(), set(threading.enumerate())
    with pytest.raises(RuntimeError, match="second stage failed"):
        run_spectrum_census(_thread_run_config("census", "complex", workers))
    assert blas_threads() == 2
    assert threading.active_count() == count
    assert set(threading.enumerate()) == running


def test_census_pipeline_under_a_short_switch_interval_keeps_index_order():
    # the pipeline of one worker and its helper, and four pool threads
    # running whole draws, switching every microsecond: a draw finished out
    # of order or lost would change a row
    base = EnsembleConfig.create(n=24, sigma=1.0, theta=2.0, law="rademacher",
                                 symmetry="complex", master_seed=5)
    want = run_spectrum_census(ExperimentConfig(base=base, n_samples=16))["records"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [run_spectrum_census(ExperimentConfig(base=base, n_samples=16,
                                                    workers=workers))["records"]
               for workers in (1, 4)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want, want]


def test_oracle_compare_leaves_the_blas_count_alone(blas_threads, monkeypatch):
    seen = _record_threads(monkeypatch, "sample_batch", blas_threads)
    base = EnsembleConfig.create(n=3, sigma=1.0, theta=2.0, law="rademacher",
                                 symmetry="complex", master_seed=3)
    # 5000 samples span three Monte Carlo batches on two workers
    run_oracle_compare(ExperimentConfig(base=base, n_samples=5000, workers=2), 4)
    assert len(seen) == 3 and set(seen) == {2}
    assert blas_threads() == 2


@pytest.mark.parametrize("run", ["census", "fluctuations-super"])
def test_runs_without_the_thread_symbols_leave_the_count_alone(blas_threads, monkeypatch, run):
    monkeypatch.setattr(dwigner.spectral, "_thread_control", lambda: None)
    runner, steps, _ = _THREAD_RUNS[run]
    seen = _record_spectral_threads(monkeypatch, blas_threads)
    assert runner(_thread_run_config(run, "complex", 2))["exit_code"] == 0
    assert [site for site in seen if seen[site]] == list(steps)
    for site in steps:
        assert set(seen[site]) == {2}
    assert blas_threads() == 2


@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_a_reduction_outside_a_run_holds_one_thread_for_complex_input(blas_threads,
                                                                     monkeypatch, symmetry):
    # criterion 8 calls eigenvalues from its own pool, outside any runner
    seen = _record_spectral_threads(monkeypatch, blas_threads)
    cfg = EnsembleConfig.create(n=12, sigma=1.0, theta=2.0, law="gaussian",
                                symmetry=symmetry, master_seed=3)
    dwigner.spectral.eigenvalues(sample_deformed(cfg, 0))
    count = 1 if symmetry == "complex" else 2
    assert seen == {"reflector": [], "band": [count], "bulge": [count]}
    assert blas_threads() == 2


def test_overlapping_scopes_share_one_saved_count(blas_threads):
    # more threads than cores entering and leaving at a short switch interval:
    # a scope that restored the count while another was inside would show a 2
    seen, start = [], threading.Barrier(8)

    def enter_and_leave():
        start.wait(timeout=60)
        for _ in range(50):
            with one_blas_thread:
                time.sleep(0)  # let another thread enter or leave
                seen.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 50 and set(seen) == {1}
    assert blas_threads() == 2
