"""Command-line front end.

Subcommands: ``fluctuations``, ``trace-growth``, ``census``,
``verify-combinatorics`` and ``oracle-compare``. Parameters may come from a
flat ``key=value`` config file (``--config``); explicit flags override file
values. Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .ensembles import EnsembleConfig
from .experiments import (
    DEFAULT_VERIFY_LIMITS,
    ExperimentConfig,
    load_config_file,
    run_combinatorics_verify,
    run_fluctuations,
    run_oracle_compare,
    run_spectrum_census,
    run_trace_growth,
    write_report,
)

_ENSEMBLE_KEYS = {
    "n": int,
    "samples": int,
    "theta": float,
    "sigma": float,
    "law": str,
    "symmetry": str,
    "seed": int,
    "t_scale": float,
    "top_k": int,
    "baseline_theta": float,
    "baseline_law": str,
    "out": str,
    "format": str,
    "workers": int,
    "ks_threshold": float,
    "L": int,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--n", type=int, help="matrix dimension")
    parser.add_argument("--samples", type=int, help="number of Monte Carlo samples")
    parser.add_argument("--theta", type=float, help="deformation strength")
    parser.add_argument("--sigma", type=float, help="off-diagonal scale")
    parser.add_argument("--law", choices=["gaussian", "rademacher", "uniform"],
                        help="entry law")
    parser.add_argument("--symmetry", choices=["complex", "real"], help="symmetry class")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--t-scale", dest="t_scale", type=float,
                        help="trace exponent scale t (s = floor(t sqrt(n)))")
    parser.add_argument("--top-k", dest="top_k", type=int, help="edge statistics depth")
    parser.add_argument("--baseline-theta", dest="baseline_theta", type=float,
                        help="baseline ensemble deformation")
    parser.add_argument("--baseline-law", dest="baseline_law",
                        choices=["gaussian", "rademacher", "uniform"],
                        help="baseline ensemble law")
    parser.add_argument("--ks-threshold", dest="ks_threshold", type=float,
                        help="fail (exit 1) when the KS statistic exceeds this")
    parser.add_argument("--workers", type=int, help="worker threads (default 1)")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")


def _gather(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if getattr(args, "config", None):
        for key, raw in load_config_file(args.config).items():
            if key not in _ENSEMBLE_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _ENSEMBLE_KEYS[key](raw)
    for key in _ENSEMBLE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


_LAW_ALIAS = {"uniform": "uniform-symmetric", "gaussian": "gaussian",
              "rademacher": "rademacher"}


def _experiment_config(settings: dict) -> ExperimentConfig:
    law = _LAW_ALIAS[settings.get("law", "gaussian")]
    base = EnsembleConfig.create(
        n=settings.get("n", 100),
        sigma=settings.get("sigma", 1.0),
        theta=settings.get("theta", 0.0),
        law=law,
        symmetry=settings.get("symmetry", "complex"),
        master_seed=settings.get("seed", 0),
    )
    baseline = None
    if "baseline_theta" in settings or "baseline_law" in settings:
        baseline = base.with_params(
            theta=settings.get("baseline_theta", base.theta),
            law=_LAW_ALIAS[settings["baseline_law"]] if "baseline_law" in settings else law,
        )
    return ExperimentConfig(
        base=base,
        n_samples=settings.get("samples", 100),
        t_scale=settings.get("t_scale", 1.0),
        top_k=settings.get("top_k", 1),
        baseline=baseline,
        output_path=settings.get("out"),
        output_format=settings.get("format", "csv"),
        workers=settings.get("workers", 1),
        ks_threshold=settings.get("ks_threshold"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dwigner",
        description="Deformed Wigner ensemble simulations and exact path-combinatorics checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("fluctuations", "trace-growth", "census", "oracle-compare"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "oracle-compare":
            sub.add_argument("--L", dest="L", type=int, help="trace power (default 4)")
    verify = subs.add_parser("verify-combinatorics")
    verify.add_argument("--out", help="output file path")
    verify.add_argument("--format", choices=["csv", "json"], default="json")
    for key, default in DEFAULT_VERIFY_LIMITS.items():
        if isinstance(default, tuple):
            verify.add_argument(f"--{key.replace('_', '-')}", type=int, nargs="+",
                                default=list(default))
        else:
            verify.add_argument(f"--{key.replace('_', '-')}", type=int, default=default)

    args = parser.parse_args(argv)

    if args.command == "verify-combinatorics":
        limits = {key: getattr(args, key) for key in DEFAULT_VERIFY_LIMITS}
        code, report = run_combinatorics_verify(limits)
        if args.out:
            write_report(report, args.out, args.format)
        for rec in report["records"]:
            status = "pass" if rec["pass"] else "FAIL"
            print(f"{rec['check']}: {status}")
        return code

    try:
        settings = _gather(args)
        cfg = _experiment_config(settings)
    except (ValueError, KeyError, OSError) as exc:
        parser.error(str(exc))  # exits with code 2
        return 2

    if args.command == "fluctuations":
        report = run_fluctuations(cfg)
    elif args.command == "trace-growth":
        report = run_trace_growth(cfg)
    elif args.command == "census":
        report = run_spectrum_census(cfg)
    else:
        report = run_oracle_compare(cfg, settings.get("L", 4))

    if cfg.output_path:
        write_report(report, cfg.output_path, cfg.output_format)
    for key in sorted(report["summary"]):
        value = report["summary"][key]
        if not isinstance(value, dict):
            print(f"{key}: {value}")
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
