"""Monte Carlo experiments, goodness-of-fit statistics and report emission.

Runners draw per-sample statistics through counter-based streams (sample i
is always the same matrix no matter the worker count), aggregate in index
order, and emit CSV or JSON records. The combinatorics battery re-runs every
exact identity check of the path machinery and reports machine-readable
counterexamples.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import correspondence, dyck_stats, path_model
from .ensembles import (
    EnsembleConfig,
    MatrixSample,
    RegimeError,
    regime_of,
    sample_batch,
    sample_deformed,
    sample_wigner,
)
from .moment_oracle import (
    MomentModel,
    exact_trace_expectation,
    trace_universality_probe,
)
from .spectral import (
    Spectrum,
    eigenvalues,
    interlacing_check,
    outlier_census,
    rank_one_spectra,
    rescaled_fluctuation,
)

__all__ = [
    "ExperimentConfig",
    "KSResult",
    "gaussian_cdf",
    "semicircle_cdf",
    "ks_statistic",
    "trace_exp_residual",
    "run_fluctuations",
    "run_trace_growth",
    "run_spectrum_census",
    "run_combinatorics_verify",
    "run_oracle_compare",
    "mc_trace_moments",
    "VERIFY_CHECKS",
    "load_config_file",
    "render_csv",
    "render_json",
    "write_report",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: an ensemble, a sample budget and the KS gate."""

    base: EnsembleConfig
    n_samples: int
    t_scale: float = 1.0
    top_k: int = 1
    baseline: EnsembleConfig | None = None
    workers: int = 1
    ks_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.top_k > self.base.n:
            raise ValueError("top_k must be <= n")
        if not math.isfinite(2.0 * self.base.sigma):
            raise ValueError(f"sigma (--sigma) = {self.base.sigma} is too large: 2 sigma overflows")
        theta, sigma = float(self.base.theta), self.base.sigma
        if theta > sigma and not math.isfinite(theta * theta):
            raise ValueError(f"theta (--theta) = {theta} and sigma (--sigma) = {sigma} are too "
                             f"large: the supercritical regime forms theta**2, which overflows")
        if not math.isfinite(self.t_scale):
            raise ValueError(f"t_scale must be finite, got {self.t_scale}")
        if not self.t_scale > 0:
            raise ValueError("t_scale must be positive")
        if self.ks_threshold is not None and not math.isfinite(self.ks_threshold):
            raise ValueError(f"ks_threshold must be finite, got {self.ks_threshold}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n_effective: int


def gaussian_cdf(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """Normal CDF via erf (absolute error well below 1e-10)."""
    if not variance > 0:
        raise ValueError("variance must be positive")
    return 0.5 * (1.0 + math.erf((x - mean) / math.sqrt(2.0 * variance)))


def semicircle_cdf(x: float, sigma: float) -> float:
    """CDF of the semicircle law on [-2 sigma, 2 sigma] (closed arcsine form)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if x <= -2.0 * sigma:
        return 0.0
    if x >= 2.0 * sigma:
        return 1.0
    u = x / (2.0 * sigma)  # forms no sigma**2, which underflows for a tiny sigma
    return 0.5 + (u * math.sqrt(1.0 - u * u) + math.asin(u)) / math.pi


def ks_statistic(sample, reference) -> KSResult:
    """Exact sup-distance between empirical CDFs.

    ``reference`` is either a CDF callable (one-sample) or a second sample
    (two-sample). Empty samples and NaN or inf values raise ``ValueError``.
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n1 = xs.size
    if n1 == 0:
        raise ValueError("empty sample")
    if not np.isfinite(xs).all():
        raise ValueError("sample contains NaN or inf")
    if callable(reference):
        stat = 0.0
        for i in range(n1):
            f = reference(float(xs[i]))
            stat = max(stat, (i + 1) / n1 - f, f - i / n1)
        return KSResult(statistic=stat, n_effective=n1)
    ys = np.sort(np.asarray(reference, dtype=np.float64))
    n2 = ys.size
    if n2 == 0:
        raise ValueError("empty reference sample")
    if not np.isfinite(ys).all():
        raise ValueError("reference sample contains NaN or inf")
    grid = np.concatenate([xs, ys])
    c1 = np.searchsorted(xs, grid, side="right") / n1
    c2 = np.searchsorted(ys, grid, side="right") / n2
    stat = float(np.max(np.abs(c1 - c2)))
    n_eff = int(round(n1 * n2 / (n1 + n2)))
    return KSResult(statistic=stat, n_effective=n_eff)


def _map_indices(fn, indices, workers: int) -> list:
    if workers <= 1:
        return [fn(i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, indices))


def _map_two_stage(first, then, indices, workers: int) -> list:
    """``then(first(i)())`` for each index, in index order: ``first`` runs
    stage 1 and returns stage 2, a function of no arguments.

    With one worker, ``first`` and ``then`` run on the calling thread and
    each stage 2 on one helper thread, overlapping the next ``first``; the
    first failure in index order is raised, and the helper is joined on
    every exit. With ``workers > 1``, each of ``workers`` pool threads runs
    whole indices, as :func:`_map_indices` does.
    """
    if workers > 1:
        return _map_indices(lambda i: then(first(i)()), indices, workers)
    out, pending = [], None
    with ThreadPoolExecutor(max_workers=1) as helper:
        try:
            for stage in map(first, indices):
                submitted = helper.submit(stage)
                previous, pending = pending, None
                if previous is not None:
                    out.append(then(previous.result()))
                pending = submitted
        except BaseException:
            if pending is not None:  # first failed with an earlier draw still out
                pending.result()
            raise
        if pending is not None:
            out.append(then(pending.result()))
    return out


# --------------------------------------------------------------------------
# shared runner core: records, report and KS gate


def _sample_records(rows, names) -> list[dict]:
    """One record per sample and name, pairing ``names`` with each row's leading values."""
    return [
        {"sample": i, "statistic": name, "value": value}
        for i, row in enumerate(rows)
        for name, value in zip(names, row)
    ]


def _report(command: str, records: list[dict], summary: dict, exit_code: int) -> dict:
    """Runner report: the records followed by the summary records, sorted by key."""
    records.extend(
        {"sample": "summary", "statistic": key, "value": summary[key]} for key in sorted(summary)
    )
    return {
        "command": command,
        "fieldnames": ("sample", "statistic", "value"),
        "records": records,
        "summary": summary,
        "exit_code": exit_code,
    }


def _gate(cfg: ExperimentConfig, summary: dict, statistic: float) -> int:
    """Exit code of the optional ``ks_threshold`` gate, recorded in the summary."""
    if cfg.ks_threshold is None:
        return 0
    summary["ks_threshold"] = cfg.ks_threshold
    summary["passed"] = statistic <= cfg.ks_threshold
    return 0 if summary["passed"] else 1


# --------------------------------------------------------------------------
# fluctuations


def run_fluctuations(cfg: ExperimentConfig) -> dict:
    """Largest-eigenvalue fluctuation statistics for the configured regime.

    Supercritical: one-sample KS of sqrt(n)(lambda_1 - rho_theta) against the
    centered Gaussian of variance sigma_theta**2 (complex) or
    2 sigma_theta**2 (real; flagged as a conjecture). At or below the
    transition: two-sample KS of n^{2/3}(lambda_j - 2 sigma) for j <= top_k
    against the Gaussian-law baseline ensemble, plus a pure Wigner (theta=0)
    baseline below the transition; the critical run is labeled descriptive.
    Each baseline draws the sample indices that follow the previous
    ensemble's (``n_samples + i``, then ``2 n_samples + i``), so no two
    ensembles of a run share a stream.
    """
    base = cfg.base
    regime = regime_of(base.theta, base.sigma)
    summary: dict = {"regime": regime.label}

    if regime.label == "supercritical":
        rho = regime.rho_theta
        var = regime.sigma_theta**2
        label = "theorem"
        if not base.is_complex:
            var = 2.0 * regime.sigma_theta**2
            label = "conjecture"
        if not var > 0:
            raise ValueError(f"sigma (--sigma) = {base.sigma} is too small: sigma_theta**2 "
                             f"underflows to 0 at theta = {base.theta}")
        devs = _map_indices(lambda i: math.sqrt(base.n) * (
            float(eigenvalues(sample_deformed(base, i)).values[0]) - rho),
            range(cfg.n_samples), cfg.workers)
        records = _sample_records([(d,) for d in devs], ("sqrt_n_dev_1",))
        ks = ks_statistic(devs, lambda x: gaussian_cdf(x, 0.0, var))
        summary.update(
            ks_statistic=ks.statistic,
            ks_mode="one-sample-gaussian",
            n_effective=ks.n_effective,
            limit_variance=var,
            label=label,
            mean_lambda_1=math.fsum(devs) / len(devs) / math.sqrt(base.n) + rho,
        )
        worst = ks.statistic
    else:
        def edge_stats(config: EnsembleConfig, first: int) -> list:
            return _map_indices(lambda i: rescaled_fluctuation(
                eigenvalues(sample_deformed(config, first + i)), config.sigma, config.n,
                cfg.top_k), range(cfg.n_samples), cfg.workers)

        primary = edge_stats(base, 0)
        second = edge_stats(cfg.baseline or replace(base, law="gaussian"), cfg.n_samples)
        names = [f"edge_u_{j}" for j in range(1, cfg.top_k + 1)]
        records = _sample_records(primary, names) + _sample_records(
            second, [f"baseline_{name}" for name in names])
        worst = 0.0
        for j in range(cfg.top_k):
            ks = ks_statistic([u[j] for u in primary], [u[j] for u in second])
            summary[f"ks_two_sample_{j + 1}"] = ks.statistic
            worst = max(worst, ks.statistic)
        if regime.label == "subcritical":
            third = edge_stats(replace(base, theta=0.0), 2 * cfg.n_samples)
            for j in range(cfg.top_k):
                ks = ks_statistic([u[j] for u in primary], [u[j] for u in third])
                summary[f"ks_vs_wigner_{j + 1}"] = ks.statistic
        summary["label"] = "descriptive" if regime.label == "critical" else "theorem"

    exit_code = _gate(cfg, summary, worst)
    return _report("fluctuations", records, summary, exit_code)


# --------------------------------------------------------------------------
# trace growth


TRACE_T_GRID = (0.5, 1.0, 2.0)


def _even_trace(ratios: np.ndarray, s: int) -> float:
    """Tr (M/rho)^{2s} from the eigenvalue ratios lambda_j / rho."""
    return float(np.sum(ratios ** (2 * s)))


def trace_exp_residual(
    spectrum: Spectrum, rho: float, n: int, t: float
) -> tuple[float, float, float]:
    """(eps, exponential sum, even trace) for one spectrum at scale t.

    eps = 1/2 [Tr (M/rho)^{2s} + Tr (M/rho)^{2s+1}] - sum_{|xi_j| <= n^{1/6}}
    exp(t xi_j) with s = floor(t sqrt(n)) and xi_j = 2 sqrt(n)(lambda_j/rho - 1)
    over the positive eigenvalues.
    """
    s = math.floor(t * math.sqrt(n))
    ratios = spectrum.values / rho
    even = _even_trace(ratios, s)
    odd = float(np.sum(ratios ** (2 * s + 1)))
    cutoff = float(n) ** (1.0 / 6.0)
    sqrt_n = math.sqrt(n)
    exp_sum = math.fsum(
        math.exp(t * 2.0 * sqrt_n * (float(v) / rho - 1.0))
        for v in spectrum.values
        if v > 0 and abs(2.0 * sqrt_n * (float(v) / rho - 1.0)) <= cutoff
    )
    eps = 0.5 * (even + odd) - exp_sum
    return eps, exp_sum, even


def run_trace_growth(cfg: ExperimentConfig) -> dict:
    """Trace-versus-exponential-sum residuals in the supercritical regime, plus
    the mean even trace at each scale of ``TRACE_T_GRID``."""
    base = cfg.base
    regime = regime_of(base.theta, base.sigma)
    if regime.label != "supercritical":
        raise RegimeError("trace growth requires the supercritical regime")
    rho = regime.rho_theta
    t_main = cfg.t_scale
    # Each exp-sum term is at most exp(t n^{1/6}) and there are at most n of
    # them, so t <= t_max keeps every term and their sum finite.
    t_max = (math.log(np.finfo(np.float64).max) - math.log(base.n)) / base.n ** (1.0 / 6.0)
    if t_main > t_max:
        raise ValueError(f"t_scale (--t-scale) = {t_main} overflows the exponential sum "
                         f"at n = {base.n}; it must be <= {t_max:.6g}")

    def one(i: int):
        spec = eigenvalues(sample_deformed(base, i))
        eps, exp_sum, _ = trace_exp_residual(spec, rho, base.n, t_main)
        ratios = spec.values / rho
        grid_traces = tuple(
            _even_trace(ratios, math.floor(t * math.sqrt(base.n))) for t in TRACE_T_GRID
        )
        return eps, exp_sum, grid_traces

    rows = _map_indices(one, range(cfg.n_samples), cfg.workers)
    mean_abs_eps = math.fsum(abs(r[0]) for r in rows) / len(rows)
    mean_exp_sum = math.fsum(r[1] for r in rows) / len(rows)
    summary = {
        "t": t_main,
        "s_n": math.floor(t_main * math.sqrt(base.n)),
        "mean_abs_eps": mean_abs_eps,
        "mean_exp_sum": mean_exp_sum,
        # no eigenvalue fell in the exp-sum window of any draw
        "residual_ratio": mean_abs_eps / mean_exp_sum if mean_exp_sum else math.inf,
    }
    for k, t in enumerate(TRACE_T_GRID):
        summary[f"mean_trace_t_{t}"] = math.fsum(r[2][k] for r in rows) / len(rows)
    return _report("trace-growth", _sample_records(rows, ("eps", "exp_sum")), summary, 0)


# --------------------------------------------------------------------------
# spectrum census


def _mean(values: list[float]) -> float:
    """Mean of finite floats through ``fsum``. A sum that overflows is taken
    over the values scaled by ``2**-k``, ``k = len(values).bit_length()``,
    which cannot overflow, and its mean scaled back; a power-of-two scaling
    changes no bit of a normal float."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / len(values), k)


def run_spectrum_census(cfg: ExperimentConfig) -> dict:
    """Per-sample ESD fit, paired interlacing check and outlier tallies.

    With one worker each draw is a two-stage pipeline: the calling thread
    samples it and runs stage 1 of :func:`rank_one_spectra`, and one helper
    thread runs stage 2 while the next draw is sampled. With
    ``workers > 1`` each pool thread runs whole draws.
    """
    base = cfg.base
    supercritical = base.theta > base.sigma
    sqrt_n = math.sqrt(base.n)

    def draw(i: int):
        # the draw is this sample's own buffer: scaled, turned into the
        # reflected matrix and reduced in place, never copied
        w = sample_wigner(base, i).entries
        with np.errstate(over="ignore", invalid="ignore"):  # spectral reports an overflow
            w /= sqrt_n
        return rank_one_spectra(w, base.theta)

    def row(spectra):
        base_spec, spec = spectra
        ks = ks_statistic(
            np.asarray(spec.values, dtype=np.float64), lambda x: semicircle_cdf(x, base.sigma))
        violations = interlacing_check(spec, base_spec)
        census = outlier_census(spec, base.theta, base.sigma, base.n) if supercritical else (0, 0)
        return (ks.statistic, violations, float(spec.values[0])) + census

    rows = _map_two_stage(draw, row, range(cfg.n_samples), cfg.workers)
    names = ["esd_ks", "interlacing_violations", "lambda_1"]
    summary = {
        "max_esd_ks": max(r[0] for r in rows),
        "total_interlacing_violations": sum(r[1] for r in rows),
        "mean_lambda_1": _mean([r[2] for r in rows]),
    }
    if supercritical:
        names += ["count_mid", "count_far"]
        summary["max_count_mid"] = max(r[3] for r in rows)
        summary["max_count_far"] = max(r[4] for r in rows)
        summary["samples_with_count_mid"] = sum(1 for r in rows if r[3] > 0)
    return _report("census", _sample_records(rows, names), summary, 0)


# --------------------------------------------------------------------------
# oracle comparison


# Matrix entries stacked per Monte Carlo batch: 256 matrices at n = 40, or
# 6.25 MiB of complex128; larger stacks fall out of cache and sample slower
# per matrix. A batch is never more than MC_BATCH_MAX matrices.
MC_BATCH_ENTRIES = 256 * 40**2
MC_BATCH_MAX = 2048


def _mc_batch(n: int) -> int:
    """Matrices per batch at dimension n: MC_BATCH_MAX up to n = 14, then
    as many as fit in MC_BATCH_ENTRIES (at least one)."""
    return min(MC_BATCH_MAX, max(1, MC_BATCH_ENTRIES // n**2))


# The smallest n at which _mc_batch(n) is 1 (453). From there on each draw is
# reduced alone, in its own buffer, by spectral.eigenvalues (the complex
# reduction on one BLAS thread), which beats numpy's eigvalsh there.
# The route is keyed on n, never on the size of a batch, so that the moments
# at a given n do not depend on how the samples are batched.
MC_SINGLE_DRAW_N = math.isqrt(MC_BATCH_ENTRIES // 2) + 1


def mc_trace_moments(
    config: EnsembleConfig,
    n_samples: int,
    powers: tuple[int, ...],
    workers: int = 1,
) -> dict[int, tuple[float, float]]:
    """Monte Carlo mean and standard error of Tr M**L for each power.

    Each batch of ``_mc_batch(n)`` matrices is drawn with one ``sample_batch``
    call. Below ``MC_SINGLE_DRAW_N`` it is decomposed with one batched
    ``eigvalsh`` call; from there on each matrix is reduced in place in the
    batch's buffer. Per-sample values stay tied to their sample index, so the
    result is independent of batching and worker count.
    """
    batch = _mc_batch(config.n)
    starts = list(range(0, n_samples, batch))

    def run_batch(start: int) -> np.ndarray:
        stop = min(start + batch, n_samples)
        stack = sample_batch(config, range(start, stop))
        if config.n >= MC_SINGLE_DRAW_N:
            # ascending, the order eigvalsh returns and the sums add them in
            lam = np.stack([eigenvalues(MatrixSample(entries=m)).values[::-1] for m in stack])
        else:
            lam = np.linalg.eigvalsh(stack)
        return np.stack([np.sum(lam**p, axis=1) for p in powers], axis=0)

    chunks = _map_indices(run_batch, starts, workers)
    values = np.concatenate(chunks, axis=1)
    out: dict[int, tuple[float, float]] = {}
    for idx, p in enumerate(powers):
        vals = values[idx]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.inf
        out[p] = (mean, se)
    return out


def run_oracle_compare(cfg: ExperimentConfig, power: int) -> dict:
    """Monte Carlo trace moments against the exact path-sum oracle."""
    if cfg.n_samples < 2:
        raise ValueError("oracle comparison needs at least 2 samples for a standard error")
    base = cfg.base
    model = MomentModel.from_config(base)
    oracle = exact_trace_expectation(base.n, power, model, base.theta)
    mc = mc_trace_moments(base, cfg.n_samples, (power,), workers=cfg.workers)
    mean, se = mc[power]
    # a trace that every draw shares (Rademacher at L = 2) has an SE of 0 or
    # rounding noise; below the rounding scale, the z-score divides by that scale
    z = abs(mean - oracle) / max(se, 1e-12 * (1.0 + abs(oracle)))

    def make_model(law: str) -> MomentModel:
        return MomentModel.from_config(replace(base, law=law))

    probe = trace_universality_probe(
        [3, 4, 5, 6], power, base.theta, (make_model("gaussian"), make_model("rademacher"))
    )
    records = [
        {"sample": "oracle", "statistic": "exact_trace_expectation", "value": oracle},
        {"sample": "mc", "statistic": "mean", "value": mean},
        {"sample": "mc", "statistic": "standard_error", "value": se},
        {"sample": "mc", "statistic": "z_score", "value": z},
    ]
    for row in probe["rows"]:
        records.append({"sample": "probe", "statistic": f"delta_n_{row['n']}", "value": row["delta"]})
    summary = {
        "oracle": oracle,
        "mc_mean": mean,
        "mc_se": se,
        "z_score": z,
        "within_4_se": z <= 4.0,
        "probe_decreasing": probe["decreasing"],
    }
    return _report("oracle-compare", records, summary, 0 if summary["within_4_se"] else 1)


# --------------------------------------------------------------------------
# combinatorics verification battery

def _classes_up_to(max_steps: int):
    for total in range(1, max_steps + 1):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            yield m, l


def _check_trajectory_counts(max_steps: int):
    params = {"max_steps": max_steps}
    for m, l in _classes_up_to(max_steps):
        enumerated = tally_up = 0
        for rows in path_model.trajectory_rows(m, l):
            enumerated += len(rows)
            tally_up += int(np.count_nonzero(rows[:, -1] == 1))
        closed = path_model.count_trajectories(m, l)
        factorial = path_model.count_trajectories_factorial(m, l)
        if not enumerated == closed == factorial:
            return params, {"m": m, "l": l, "enumerated": enumerated,
                            "binomial_form": closed, "factorial_form": factorial}
        up, down = path_model.last_step_split(m, l)
        if up != tally_up or up + down != closed:
            return params, {"m": m, "l": l, "split": (up, down), "tally_up": tally_up}
    return params, None


def _check_sum_identity(max_steps: int):
    params = {"max_steps": max_steps}
    for m, l in _classes_up_to(max_steps):
        if m >= 1 and l % 2 == 0 and not correspondence.verify_count_identity(m, l):
            return params, {"m": m, "l": l}
    return params, None


# What an admissible path can fail, in the order the check tests it. None is
# a precondition of a rows call, which fails as that call's ValueError.
_CORRESPONDENCE_FAILURES = (
    None,
    "image does not end with an up step",
    "image origin is not marked",
    "class not preserved",
    "edge multiset not preserved",
    None,
    "round trip failed",
)


def _check_correspondence(max_length: int, max_vertices: int):
    params = {"max_length": max_length, "max_vertices": max_vertices}
    checked = 0
    for length in range(1, max_length + 1):
        # admissible paths of this length so far and their (image, shift_k) rows
        admitted = [np.empty((0, length + 1), np.int8)]
        keys = [np.empty((0, length + 2), np.int8)]
        end, row = 0, None
        for chunk in path_model.canonical_closed_paths(length, max_vertices):
            verts, key, failures = _correspondence_chunk(chunk)
            admitted.append(verts)
            keys.append(key)
            failing = np.flatnonzero(failures.any(axis=1))
            if failing.size:
                row = int(failing[0])
                end += row
                break
            end += len(verts)
        # (image, shift_k) must not repeat among the paths before the first failure
        repeat = _first_repeat(np.concatenate(keys)[:end])
        if repeat is not None:
            return params, _counterexample(np.concatenate(admitted)[repeat], "injectivity failure")
        if row is not None:
            stage = int(np.flatnonzero(failures[row])[0])
            reason = _CORRESPONDENCE_FAILURES[stage]
            if reason is None:
                correspondence.raise_row_error(int(failures[row, stage]))
            return params, _counterexample(verts[row], reason)
        checked += end
    params["cases"] = checked
    return params, None


def _correspondence_chunk(verts: np.ndarray):
    """Admissible rows of a chunk of paths, their (image, shift_k) rows, and
    per row the failures in the order of ``_CORRESPONDENCE_FAILURES`` (nonzero
    where failed; error codes for the rotation calls)."""
    length = verts.shape[1] - 1
    marks = path_model.instant_marks(path_model.edge_codes(verts))[0]
    ups = marks.sum(axis=1)
    # admissible: last step down and end level 2 * (marked instants) - L > 0
    admissible = ~marks[:, -1] & (2 * ups != length)
    verts, ups = verts[admissible], ups[admissible]
    images, shift_k, _, error = correspondence.to_marked_origin(verts)
    image_marks = path_model.instant_marks(path_model.edge_codes(images))[0]
    sources, back_error = correspondence.from_marked_origin(images, shift_k)
    # one call, so image and source rows count over the same edge codes
    counts = correspondence.edge_multiset(np.concatenate((images, verts)))
    failures = np.column_stack((
        error,
        ~image_marks[:, -1],
        ~(image_marks & (images[:, 1:] == images[:, :1])).any(axis=1),
        image_marks.sum(axis=1) != ups,
        (counts[:len(verts)] != counts[len(verts):]).any(axis=1),
        back_error,
        (sources != verts).any(axis=1),
    ))
    return verts, np.column_stack((images, shift_k)).astype(np.int8), failures


def _first_repeat(rows: np.ndarray) -> int | None:
    """Index of the first row equal to an earlier row, or None."""
    rows = np.ascontiguousarray(rows)
    whole = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    repeated = np.ones(len(rows), dtype=bool)
    repeated[np.unique(whole, return_index=True)[1]] = False
    return int(np.argmax(repeated)) if repeated.any() else None


def _counterexample(path_row: np.ndarray, reason: str) -> dict:
    return {"path": ",".join(map(str, path_row.tolist())), "reason": reason}


def _check_surgery(max_steps: int):
    params = {"max_steps": max_steps}
    for m, l in _classes_up_to(max_steps):
        if l < 1 or m < 1:
            continue
        walks = path_model.enumerate_trajectories(m, l)
        ups = walks[walks[:, -1] == 1]
        levels = np.cumsum(ups, axis=1, dtype=np.int64) - ups  # x(0), ..., x(L - 1)
        lowest_after = np.minimum.accumulate(levels[:, ::-1], axis=1)[:, ::-1]
        # every (walk, cut) pair in the rotated shape, walk by walk: its level
        # p = x(cut) - l + 1 is at least 1, and at most m
        walk, cut = np.nonzero((levels >= l) & (lowest_after >= l - 1))
        p_rows = levels[walk, cut] - l + 1
        images = correspondence.trajectory_surgery(ups[walk], p_rows, cut)
        pairs = np.bincount(p_rows, minlength=m + 1)
        # an image is named by its up steps as bits, above them its level p
        length = l + 2 * m
        names = np.sort((p_rows << length) | ((images > 0) @ (1 << np.arange(length))))
        fresh = np.diff(names, prepend=-1) != 0
        distinct = np.bincount(names[fresh] >> length, minlength=m + 1)
        for p in range(1, m + 1):
            target = path_model.count_trajectories(m - p, l + 2 * p)
            if pairs[p] != target or distinct[p] != target:
                return params, {"m": m, "l": l, "p": p, "pairs": int(pairs[p]),
                                "distinct": int(distinct[p]), "target": target}
    return params, None


def _check_gluing(length: int, vertices: int):
    params = {"max_length": length, "vertices": vertices}
    for cur in range(2, length + 1):
        report = correspondence.preimage_bound_check(cur, vertices)
        if not report["pass"]:
            return params, report["violations"][0]
    return params, None


def _check_lemma73(s_max: int):
    params = {"s_max": s_max, "c0": dyck_stats.CLASS_BOUND_C0}
    worst_c0 = math.inf
    for s in range(1, s_max + 1):
        report = dyck_stats.class_count_bound_check(s)
        if not report["pass"]:
            return params, {"s": s, "failures": report["failures"][:3]}
        if not report["monotone_normalized"]:
            return params, {"s": s, "reason": "normalized ratio not decreasing"}
        if math.isfinite(report["largest_supported_c0"]):
            worst_c0 = min(worst_c0, report["largest_supported_c0"])
    params["largest_supported_c0"] = worst_c0
    return params, None if worst_c0 > 0 else {"largest_supported_c0": worst_c0}


def _check_lemma77(m_grid: tuple[int, ...]):
    report = dyck_stats.tail_bound_check(list(m_grid))
    params = {"m_grid": list(m_grid), "c0": report["c0"]}
    for family, data in report["families"].items():
        spread = data["spread"][dyck_stats.EXP_MOMENT_C]
        params[f"spread_{family}"] = spread
        params[f"q_sup_{family}"] = max(row["q"] for row in data["rows"])
        if spread >= 2.0:
            return params, {"family": family, "spread": spread}
    return params, None


def _check_dyck_roundtrip(max_steps: int):
    params = {"max_steps": max_steps}
    for m, l in _classes_up_to(max_steps):
        for rows in path_model.trajectory_rows(m, l):
            rises, starts, ends = dyck_stats.dyck_decompose(rows)
            wrong = (rises.sum(axis=1) != l) | ((ends - starts).sum(axis=1) != 2 * m)
            if wrong.any():
                steps = rows[int(np.argmax(wrong))].tolist()
                return params, {"trajectory": path_model.trajectory_to_string(steps),
                                "reason": "rise/block bookkeeping"}
    return params, None


def _check_ballot(max_steps: int):
    params = {"max_steps": max_steps}
    for steps in range(1, max_steps + 1):
        total = 0
        for end in range(steps % 2, steps + 1, 2):
            ballot = dyck_stats.ballot_count(steps, end)
            confined = dyck_stats.bounded_path_count(steps, steps, end)
            if ballot != confined:
                return params, {"steps": steps, "end": end, "ballot": ballot,
                                "transfer": confined}
            total += ballot
        if total != math.comb(steps, steps // 2):
            return params, {"steps": steps, "sum": total,
                            "expected": math.comb(steps, steps // 2)}
    return params, None


def _check_max_pmf(max_m: int):
    params = {"max_m": max_m}
    for m in range(1, max_m + 1):
        pmf = dyck_stats.max_level_distribution(m)  # raises if it does not sum to 1
        tally = np.zeros(m + 1, np.int64)
        for rows in path_model.trajectory_rows(m, 0):
            tops = np.cumsum(rows, axis=1, dtype=np.int8).max(axis=1)
            tally += np.bincount(tops, minlength=m + 1)
        total = int(tally.sum())
        for k, mass in pmf.items():
            if mass != Fraction(int(tally[k]), total):
                return params, {"m": m, "k": k, "pmf": str(mass),
                                "enumerated": f"{tally[k]}/{total}"}
        if m >= 2:  # the law over two halves runs its own sum-to-1 guard
            dyck_stats.max_level_distribution(m, blocks=(m - m // 2, m // 2))
    return params, None


# (check, function name, ((limit key, default, cap), ...)): each check runs
# when any of its keys is among the limits, the others taking their defaults,
# and returns (params, counterexample), None meaning pass. The function is
# looked up by name at call time, so a wrapped module attribute (a tracer, a
# test double) is the one that runs. A cap is a library guard that a larger
# limit would only crash on after every smaller case had run, so the command
# line refuses such a limit up front; None means no guard bounds the limit.
_STEP_CAP = path_model.ENUMERATION_STEP_CAP
VERIFY_CHECKS = (
    ("trajectory_counts", "_check_trajectory_counts", (("trajectory_steps", 12, _STEP_CAP),)),
    ("sum_identity", "_check_sum_identity", (("sum_identity_steps", 20, None),)),
    ("correspondence_roundtrip", "_check_correspondence",
     (("correspondence_length", 8, None), ("correspondence_vertices", 4, None))),
    ("surgery_bijection", "_check_surgery", (("surgery_steps", 8, _STEP_CAP),)),
    ("gluing_preimage_bound", "_check_gluing",
     (("glue_length", 3, correspondence.GLUE_CENSUS_GUARD),
      ("glue_vertices", 3, correspondence.GLUE_CENSUS_GUARD))),
    ("lemma73_class_bound", "_check_lemma73", (("lemma73_s", 100, None),)),
    ("lemma77_exp_moment", "_check_lemma77",
     (("lemma77_grid", (25, 100), dyck_stats.PMF_M_GUARD),)),
    ("dyck_roundtrip", "_check_dyck_roundtrip", (("dyck_roundtrip_steps", 12, _STEP_CAP),)),
    ("ballot_counts", "_check_ballot", (("ballot_steps", 16, None),)),
    # the check enumerates the Dyck paths of 2m steps
    ("max_level_pmf", "_check_max_pmf", (("max_pmf_m", 6, _STEP_CAP // 2),)),
)


def run_combinatorics_verify(limits: dict | None = None) -> tuple[int, dict]:
    """Run every exact combinatorics check; nonzero exit on any failure.

    ``limits=None`` runs the defaults; an empty dict runs nothing and
    passes. A key that no check reads raises ValueError. Counterexamples are
    machine-readable.
    """
    defaults = {key: default for *_, spec in VERIFY_CHECKS for key, default, _ in spec}
    limits = defaults if limits is None else limits
    unknown = [key for key in limits if key not in defaults]
    if unknown:
        raise ValueError(f"no verify check reads the limit(s) {', '.join(map(repr, unknown))}")
    records: list[dict] = []
    for check, fn_name, spec in VERIFY_CHECKS:
        keys = [key for key, _, _ in spec]
        if not any(key in limits for key in keys):
            continue
        args = [limits.get(key, defaults[key]) for key in keys]
        args = [tuple(a) if isinstance(a, list) else a for a in args]  # CLI grids are lists
        try:
            params, counterexample = globals()[fn_name](*args)
        except Exception as exc:  # a crashed check is a failed check
            params = {"args": [repr(a) for a in args]}
            counterexample = {"error": repr(exc)}
        records.append({"check": check, "params": params, "pass": counterexample is None,
                        "counterexample": counterexample})

    failures = sum(not r["pass"] for r in records)
    report = {
        "command": "verify-combinatorics",
        "fieldnames": ("check", "params", "pass", "counterexample"),
        "records": records,
        "summary": {"checks": len(records), "failures": failures},
        "exit_code": 1 if failures else 0,
    }
    return report["exit_code"], report


# --------------------------------------------------------------------------
# report emission


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_csv(report: dict) -> str:
    fieldnames = report["fieldnames"]
    lines = [",".join(fieldnames)]
    for rec in report["records"]:
        cells = []
        for name in fieldnames:
            cell = _fmt_cell(rec.get(name, ""))
            if any(ch in cell for ch in ",\"\n"):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    payload = {"command": report["command"], "records": report["records"]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str, fmt: str) -> None:
    text = render_csv(report) if fmt == "csv" else render_json(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
