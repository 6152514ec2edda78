"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances and budgets are fixed here, not
calibrated at runtime.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dwigner.correspondence import (
    edge_multiset,
    from_marked_origin,
    preimage_bound_check,
    to_marked_origin,
    verify_count_identity,
)
from dwigner.dyck_stats import class_count_bound_check, tail_bound_check
from dwigner.ensembles import (
    EnsembleConfig,
    MatrixSample,
    sample_deformed,
    sample_wigner,
)
from dwigner.experiments import (
    ExperimentConfig,
    gaussian_cdf,
    ks_statistic,
    mc_trace_moments,
    run_fluctuations,
    run_spectrum_census,
    run_trace_growth,
)
from dwigner.moment_oracle import (
    MomentModel,
    asymptotic_predictions,
    exact_trace_expectation,
    trace_universality_probe,
)
from dwigner.path_model import (
    canonical_closed_paths,
    count_trajectories,
    count_trajectories_factorial,
    enumerate_trajectories,
    has_marked_origin,
    trajectory_of,
)
from dwigner.spectral import eigenvalues, outlier_census, trace_power

WORKERS = 4


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_trajectory_count_identity():
    t0 = time.perf_counter()
    classes = 0
    for total in range(1, 15):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            enumerated = len(enumerate_trajectories(m, l))
            assert enumerated == count_trajectories(m, l) == count_trajectories_factorial(m, l), \
                (m, l)
            classes += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 60.0,
           f"enumeration matches both closed forms on {classes} classes, {elapsed:.1f}s (< 60s)")


def test_criterion_02_sum_identity():
    t0 = time.perf_counter()
    classes = 0
    for total in range(2, 25, 2):
        for m in range(1, total // 2 + 1):
            assert verify_count_identity(m, total - 2 * m), (m, total - 2 * m)
            classes += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 10.0,
           f"sum_p T(m-p, l+2p) = C(2s, m-1) exact on {classes} classes, {elapsed:.1f}s (< 10s)")


def test_criterion_03_correspondence_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    seen = {}
    failures = 0
    for length in range(1, 11):
        for path in canonical_closed_paths(length, 5):
            traj = trajectory_of(path)
            if traj.end_level == 0 or traj.steps[-1] == 1:
                continue
            checked += 1
            r = to_marked_origin(path)
            img_traj = trajectory_of(r.image)
            ok = (
                img_traj.steps[-1] == 1
                and has_marked_origin(r.image, img_traj)
                and (img_traj.end_level, img_traj.down_steps)
                == (traj.end_level, traj.down_steps)
                and edge_multiset(r.image) == edge_multiset(path)
                and from_marked_origin(r).vertices == path.vertices
                and (r.image.vertices, r.shift_k) not in seen
            )
            if not ok:
                failures += 1
            seen[(r.image.vertices, r.shift_k)] = path.vertices
    elapsed = time.perf_counter() - t0
    report(3, failures == 0 and checked > 30_000,
           f"round-trip/class/weight on {checked} admissible paths "
           f"(L<=10, 5 vertices up to relabeling), {failures} failures, {elapsed:.1f}s")


def test_criterion_04_gluing_preimage_bound():
    t0 = time.perf_counter()
    results = [preimage_bound_check(length, 3) for length in (2, 3)]
    pairs = sum(r["correlated_pairs"] for r in results)
    ok = all(r["pass"] for r in results)
    elapsed = time.perf_counter() - t0
    report(4, ok, f"preimages <= 2L*K on {pairs} correlated pairs (L<=3, 3 vertices), "
                  f"{elapsed:.1f}s")


def test_criterion_05_lemma_bounds():
    t0 = time.perf_counter()
    worst_c0 = math.inf
    for s in range(1, 201):
        rep = class_count_bound_check(s)
        assert rep["pass"], (s, rep["failures"][:2])
        if math.isfinite(rep["largest_supported_c0"]):
            worst_c0 = min(worst_c0, rep["largest_supported_c0"])
    tails = tail_bound_check([25, 100, 400, 900])
    spreads = {name: data["spread"][1.0] for name, data in tails["families"].items()}
    ok = worst_c0 > 0 and all(sp < 2.0 for sp in spreads.values())
    elapsed = time.perf_counter() - t0
    report(5, ok, f"T(m,l) bound holds for s<=200 with C0={worst_c0:.4f} > 1/8 target 1/8; "
                  f"exp-moment spreads {spreads} all < 2, {elapsed:.1f}s")


def test_criterion_06_oracle_agreement():
    t0 = time.perf_counter()
    powers = (2, 3, 4, 6)
    draws = 100_000
    worst_z = 0.0
    combos = 0
    for theta in (0.0, 2.0):
        for symmetry in ("complex", "real"):
            for law in ("gaussian", "rademacher", "uniform-symmetric"):
                for n in (3, 4):
                    cfg = EnsembleConfig.create(
                        n=n, sigma=1.0, theta=theta, law=law, symmetry=symmetry,
                        master_seed=600 + n + int(theta))
                    model = MomentModel.from_config(cfg)
                    # sampling is Python-bound: threads only contend here
                    mc = mc_trace_moments(cfg, draws, powers, workers=1)
                    for power in powers:
                        mean, se = mc[power]
                        oracle = exact_trace_expectation(n, power, model, theta)
                        # Rademacher traces at small L can be exactly
                        # deterministic (|W_ij|^2 == sigma^2), leaving se at
                        # rounding level; allow the 1e-12-relative float
                        # noise of the two summation orders on top of 4 SE.
                        noise = 1e-12 * max(1.0, abs(oracle))
                        gap = abs(mean - oracle)
                        assert gap <= 4.0 * se + noise, \
                            (theta, symmetry, law, n, power, mean, oracle, se)
                        if se > noise:
                            worst_z = max(worst_z, gap / se)
                        combos += 1
    elapsed = time.perf_counter() - t0
    report(6, elapsed <= 600.0,
           f"MC (1e5 draws) within 4 SE of the oracle on {combos} combos, "
           f"worst |z|={worst_z:.2f}, {elapsed:.0f}s (<= 600s)")


def test_criterion_07_universality_probe():
    def model(law):
        return MomentModel.from_config(EnsembleConfig.create(
            n=3, sigma=1.0, theta=2.0, law=law, symmetry="complex", master_seed=0))

    probe4 = trace_universality_probe([3, 4, 5, 6], 4, 2.0,
                                      (model("gaussian"), model("rademacher")))
    deltas = [row["delta"] for row in probe4["rows"]]
    strictly_decreasing = all(a > b for a, b in zip(deltas, deltas[1:]))
    probe2 = trace_universality_probe([3, 4, 5, 6], 2, 2.0,
                                      (model("gaussian"), model("rademacher")))
    zero_at_two = all(row["delta"] == 0.0 for row in probe2["rows"])
    report(7, strictly_decreasing and zero_at_two,
           f"L=4 deltas strictly decreasing {['%.3g' % d for d in deltas]}; L=2 deltas all 0")


def test_criterion_08_supercritical_fluctuations():
    t0 = time.perf_counter()
    n, theta, sigma, draws = 300, 2.0, 1.0, 1000
    rho = theta + sigma**2 / theta
    cfg = EnsembleConfig.create(n=n, sigma=sigma, theta=theta, law="rademacher",
                                symmetry="complex", master_seed=20260808)

    from concurrent.futures import ThreadPoolExecutor

    def one(i):
        spec = eigenvalues(sample_deformed(cfg, i))
        dev = math.sqrt(n) * (float(spec.values[0]) - rho)
        mid, _ = outlier_census(spec, theta, sigma, n)
        return dev, mid

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        rows = list(pool.map(one, range(draws)))
    devs = [r[0] for r in rows]
    ks = ks_statistic(devs, lambda x: gaussian_cdf(x, 0.0, 0.75)).statistic
    mean_l1 = math.fsum(devs) / draws / math.sqrt(n) + rho
    bad_mid = sum(1 for r in rows if r[1] > 0)
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.06 and abs(mean_l1 - 2.5) <= 0.05 * 2.5 and bad_mid == 0 and elapsed <= 900
    report(8, ok, f"KS vs N(0, 3/4) = {ks:.4f} (<= 0.06), mean lambda_1 = {mean_l1:.4f} "
                  f"(2.5 +- 5%), count_mid>0 in {bad_mid}/1000 samples, {elapsed:.0f}s (<= 900s)")


def test_criterion_09_subcritical_two_sample():
    t0 = time.perf_counter()
    base = EnsembleConfig.create(n=200, sigma=1.0, theta=0.5, law="rademacher",
                                 symmetry="complex", master_seed=20260809)
    baseline = base.with_params(theta=0.0, law="gaussian")
    cfg = ExperimentConfig(base=base, n_samples=500, baseline=baseline,
                           top_k=1, workers=WORKERS, ks_threshold=0.12)
    rep = run_fluctuations(cfg)
    ks = rep["summary"]["ks_two_sample_1"]
    elapsed = time.perf_counter() - t0
    report(9, ks <= 0.12,
           f"two-sample KS (deformed Rademacher vs theta=0 Gaussian, n=200, 500+500) "
           f"= {ks:.4f} (<= 0.12), {elapsed:.0f}s")


def test_criterion_10_trace_exponential_sum():
    t0 = time.perf_counter()
    base = EnsembleConfig.create(n=400, sigma=1.0, theta=2.0, law="gaussian",
                                 symmetry="complex", master_seed=1010)
    rep = run_trace_growth(ExperimentConfig(base=base, n_samples=200, t_scale=1.0,
                                            workers=WORKERS))
    ratio = rep["summary"]["residual_ratio"]
    elapsed = time.perf_counter() - t0
    report(10, ratio <= 0.10,
           f"mean |eps| / mean exp-sum = {ratio:.4f} (<= 0.10) at n=400, t=1, "
           f"200 samples, {elapsed:.0f}s")


def test_criterion_11_even_trace_leading_order():
    t0 = time.perf_counter()
    n, draws = 2000, 32
    cfg = EnsembleConfig.create(n=n, sigma=1.0, theta=0.0, law="gaussian",
                                symmetry="complex", master_seed=777)
    even_vals, odd_vals = [], []

    from concurrent.futures import ThreadPoolExecutor

    def one(i):
        w = sample_wigner(cfg, i)
        m = MatrixSample(entries=w.entries / math.sqrt(n))
        spec = eigenvalues(m)
        return trace_power(spec, 16), trace_power(spec, 17)

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for even, odd in pool.map(one, range(draws)):
            even_vals.append(even)
            odd_vals.append(odd)
    catalan8 = math.comb(16, 8) // 9
    target = catalan8 * n
    mean_even = float(np.mean(even_vals))
    rel = abs(mean_even - target) / target
    mean_odd = float(np.mean(odd_vals))
    se_odd = float(np.std(odd_vals, ddof=1) / math.sqrt(draws))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.15 and abs(mean_odd) <= 4 * se_odd
    report(11, ok, f"mean Tr(W/sqrt N)^16 = {mean_even:.0f} vs Catalan(8)*N = {target} "
                   f"(rel {rel:.3%} <= 15%); odd power z = {mean_odd / se_odd:+.2f} "
                   f"(|z| <= 4), {elapsed:.0f}s")


def test_criterion_12_asymptotic_ratios():
    sup = asymptotic_predictions(60, 2.0, 1.0, 10**6)
    crit = asymptotic_predictions(60, 1.0, 1.0, 10**6)
    sub = asymptotic_predictions(60, 0.5, 1.0, 10**6)
    ok = (
        0.70 <= sup.marked_ratio <= 0.80
        and abs(crit.odd_edge_class_ratio - 0.5) <= 0.05
        and sub.odd_edge_class_ratio <= 0.05
    )
    report(12, ok,
           f"marked ratio {sup.marked_ratio:.4f} in [0.70, 0.80]; critical ratio "
           f"{crit.odd_edge_class_ratio:.4f} within 10% of 1/2; subcritical ratio "
           f"{sub.odd_edge_class_ratio:.4f} <= 0.05")


def test_criterion_13_determinism_across_workers(tmp_path):
    t0 = time.perf_counter()
    jobs = {
        "census": ("census", "--n", "30", "--samples", "16", "--theta", "2.0",
                   "--sigma", "1.0", "--law", "rademacher", "--symmetry", "complex",
                   "--seed", "99", "--format", "csv"),
        "fluctuations": ("fluctuations", "--n", "30", "--samples", "16", "--theta",
                         "2.0", "--sigma", "1.0", "--law", "gaussian", "--symmetry",
                         "complex", "--seed", "99", "--format", "json"),
    }
    identical = True
    for name, args in jobs.items():
        outputs = []
        for workers in (1, 4, 8):
            out = tmp_path / f"{name}_{workers}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "dwigner", *args, "--workers", str(workers),
                 "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        identical = identical and outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - t0
    report(13, identical,
           f"census and fluctuations outputs byte-identical under 1/4/8 workers, "
           f"{elapsed:.0f}s")


def test_criterion_14_interlacing_and_esd():
    t0 = time.perf_counter()
    paired = EnsembleConfig.create(n=50, sigma=1.0, theta=2.0, law="gaussian",
                                   symmetry="complex", master_seed=1414)
    rep = run_spectrum_census(ExperimentConfig(base=paired, n_samples=100,
                                               workers=WORKERS))
    violations = rep["summary"]["total_interlacing_violations"]

    esd = {}
    for theta in (0.0, 2.0):
        big = EnsembleConfig.create(n=1000, sigma=1.0, theta=theta, law="gaussian",
                                    symmetry="complex", master_seed=1515)
        rep_big = run_spectrum_census(ExperimentConfig(base=big, n_samples=1))
        esd[theta] = rep_big["summary"]["max_esd_ks"]
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and all(v <= 0.03 for v in esd.values())
    report(14, ok, f"interlacing violations = {violations}/100 paired draws at n=50; "
                   f"ESD KS at n=1000: theta=0 -> {esd[0.0]:.4f}, theta=2 -> {esd[2.0]:.4f} "
                   f"(<= 0.03), {elapsed:.0f}s")
