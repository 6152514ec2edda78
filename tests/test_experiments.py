import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwigner.correspondence
import dwigner.experiments
import dwigner.path_model
from dwigner.cli import main as cli_main
from dwigner.correspondence import CorrespondenceResult
from dwigner.ensembles import EnsembleConfig, RegimeError, regime_of
from dwigner.experiments import (
    _CHECKS,
    DEFAULT_VERIFY_LIMITS,
    MC_BATCH_ENTRIES,
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
from dwigner.spectral import Spectrum

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

    sub = sup.with_params(theta=0.5)
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


def test_mc_batch_is_bounded_by_the_entry_budget():
    # small matrices keep the full batch, large ones shrink it to the budget
    assert _mc_batch(4) == _mc_batch(45) == 2048
    assert _mc_batch(46) < 2048
    for n in (46, 100, 1000, 2048):
        assert 1 <= _mc_batch(n) and _mc_batch(n) * n * n <= MC_BATCH_ENTRIES
    assert _mc_batch(10_000) == 1


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

    def shifted(path):
        r = real(path)
        return CorrespondenceResult(image=r.image, shift_k=r.shift_k + 1, level_p=r.level_p)

    monkeypatch.setattr(dwigner.correspondence, "to_marked_origin", shifted)
    code, report = run_combinatorics_verify(
        {"correspondence_length": 6, "correspondence_vertices": 3})
    assert code == 1
    (rec,) = report["records"]
    assert rec["check"] == "correspondence_roundtrip"
    assert rec["pass"] is False


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
], ids=["wrong-regime", "zero-power", "oracle-guard", "top-k-zero", "top-k-negative",
        "one-oracle-sample"])
def test_cli_bad_input_exits_2_with_one_line(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("dwigner: error: ")
    assert sum(line.startswith("dwigner: error: ") for line in err.splitlines()) == 1


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


@pytest.mark.parametrize("args", [
    ["--lemma73-s", "0"],
    ["--lemma77-grid", "25", "0"],
], ids=["verify-limit", "verify-grid"])
def test_cli_verify_limit_below_one_exits_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify-combinatorics", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: argument {args[0]}: must be >= 1, got 0")


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

