"""Command-line front end.

Subcommands: ``fluctuations``, ``trace-growth``, ``census``,
``verify-combinatorics`` and ``oracle-compare``. Parameters may come from a
flat ``key=value`` config file (``--config``); explicit flags override file
values. Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .ensembles import SYMMETRIES, EnsembleConfig
from .experiments import (
    VERIFY_CHECKS,
    ExperimentConfig,
    load_config_file,
    run_combinatorics_verify,
    run_fluctuations,
    run_oracle_compare,
    run_spectrum_census,
    run_trace_growth,
    write_report,
)

_LAWS = ("gaussian", "rademacher", "uniform")

_RUNNERS = ("fluctuations", "trace-growth", "census", "oracle-compare")

# dest -> (type, choices, help, subcommands that read it). One table drives
# both the command-line flags and the --config keys, so file values obey the
# same types and choices, and a subcommand takes only the options it reads.
_OPTIONS = {
    "n": (int, None, "matrix dimension", _RUNNERS),
    "samples": (int, None, "number of Monte Carlo samples", _RUNNERS),
    "theta": (float, None, "deformation strength", _RUNNERS),
    "sigma": (float, None, "off-diagonal scale", _RUNNERS),
    "law": (str, _LAWS, "entry law", _RUNNERS),
    "symmetry": (str, SYMMETRIES, "symmetry class", _RUNNERS),
    "seed": (int, None, "master seed", _RUNNERS),
    "t_scale": (float, None, "trace exponent scale t (s = floor(t sqrt(n)))", ("trace-growth",)),
    "top_k": (int, None, "edge statistics depth", ("fluctuations",)),
    "baseline_theta": (float, None, "baseline ensemble deformation", ("fluctuations",)),
    "baseline_law": (str, _LAWS, "baseline ensemble law", ("fluctuations",)),
    "ks_threshold": (float, None, "fail (exit 1) when the KS statistic exceeds this",
                     ("fluctuations",)),
    "workers": (int, None, "worker threads (default 1)", _RUNNERS),
    "out": (str, None, "output file path", _RUNNERS),
    "format": (str, ("csv", "json"), "output format", _RUNNERS),
    "L": (int, None, "trace power (default 4)", ("oracle-compare",)),
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override")
    for dest, (kind, choices, text, commands) in _OPTIONS.items():
        if command in commands:
            parser.add_argument(f"--{dest.replace('_', '-')}", dest=dest, type=kind,
                                choices=choices, help=text)


def verify_limit(maximum: int | None):
    """argparse type for a verify limit: an integer >= 1, and <= maximum if given."""
    def positive_int(text: str) -> int:  # argparse names it in "invalid positive_int value"
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value
    return positive_int


def _gather(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if getattr(args, "config", None):
        for key, raw in load_config_file(args.config).items():
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            kind, choices, _, commands = _OPTIONS[key]
            if args.command not in commands:
                raise ValueError(f"{args.config}: config key {key!r} is not read by "
                                 f"{args.command}")
            try:
                value = kind(raw)
            except ValueError:
                raise ValueError(
                    f"{args.config}: config {key}={raw!r}: expected {kind.__name__}") from None
            if choices is not None and value not in choices:
                raise ValueError(
                    f"{args.config}: config {key}={raw!r}: choose from {', '.join(choices)}")
            settings[key] = value
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


_LAW_ALIAS = {"uniform": "uniform-symmetric"}


def _canonical_law(name: str) -> str:
    return _LAW_ALIAS.get(name, name)


def _experiment_config(settings: dict) -> ExperimentConfig:
    law = _canonical_law(settings.get("law", "gaussian"))
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
        baseline = replace(
            base,
            theta=settings.get("baseline_theta", base.theta),
            law=_canonical_law(settings["baseline_law"]) if "baseline_law" in settings else law,
        )
    return ExperimentConfig(
        base=base,
        n_samples=settings.get("samples", 100),
        t_scale=settings.get("t_scale", 1.0),
        top_k=settings.get("top_k", 1),
        baseline=baseline,
        workers=settings.get("workers", 1),
        ks_threshold=settings.get("ks_threshold"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dwigner",
        description="Deformed Wigner ensemble simulations and exact path-combinatorics checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        _add_options(subs.add_parser(name), name)
    verify = subs.add_parser("verify-combinatorics")
    verify.add_argument("--out", help="output file path")
    verify.add_argument("--format", choices=["csv", "json"], default="json")
    limit_keys = []
    for _, _, spec in VERIFY_CHECKS:
        for key, default, cap in spec:
            limit_keys.append(key)
            grid = isinstance(default, tuple)
            verify.add_argument(f"--{key.replace('_', '-')}", type=verify_limit(cap),
                                nargs="+" if grid else None,
                                default=list(default) if grid else default)

    args = parser.parse_args(argv)

    try:
        if args.command == "verify-combinatorics":
            _, report = run_combinatorics_verify({key: getattr(args, key) for key in limit_keys})
            out, fmt = args.out, args.format
        else:
            settings = _gather(args)
            cfg = _experiment_config(settings)
            if args.command == "fluctuations":
                report = run_fluctuations(cfg)
            elif args.command == "trace-growth":
                report = run_trace_growth(cfg)
            elif args.command == "census":
                report = run_spectrum_census(cfg)
            else:
                report = run_oracle_compare(cfg, settings.get("L", 4))
            out, fmt = settings.get("out"), settings.get("format", "csv")
        if out:
            write_report(report, out, fmt)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))  # exits with code 2
    except OverflowError as exc:
        parser.error(f"a parameter overflows a float: {exc}")
    except MemoryError as exc:
        # numpy names the array it could not allocate; --n sets its size
        parser.error(f"not enough memory for the matrices of this --n: {exc}")

    if args.command == "verify-combinatorics":
        for rec in report["records"]:
            print(f"{rec['check']}: {'pass' if rec['pass'] else 'FAIL'}")
    else:
        for key in sorted(report["summary"]):
            print(f"{key}: {report['summary'][key]}")
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
