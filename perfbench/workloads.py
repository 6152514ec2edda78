"""The four benchmark workloads and the correctness checks on their reports.

Each workload is one ``dwigner`` subcommand at a fixed shape. The checks read
the JSON report the subcommand writes with ``--out`` and compare it against
paper-level tolerances (the acceptance suite's where one exists), never
against output bytes, so a change of random-stream layout is not a failure.

BENCHMARK.json gates three of them. ``fluct-super`` (the paper's headline
statistic, two workers over BLAS threads on an n=1000 eigensolve) stays
runnable by name but is not gated: on a 2-vCPU machine the spread of its wall
time over ten runs reached 0.28 of the median, and its set-up median moved by
40% between two sets of ten runs, both beyond 0.25, the largest bound a gated
metric may have.

An operation is one verify check on ``verify-exact`` and one runner
invocation on the Monte Carlo workloads; ``check`` returns how many were
attempted and which failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RHO_THETA = 2.5            # theta + sigma**2 / theta at theta=2, sigma=1
LAMBDA1_REL_TOL = 0.05     # acceptance criterion 8: mean lambda_1 within 5% of rho_theta
ESD_KS_MAX = 0.03          # acceptance criterion 14
N_VERIFY_CHECKS = 10
CORRESPONDENCE_CASES = 38_765  # admissible paths, L <= 10 on 5 vertices (criterion 3)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]          # subcommand and flags; --seed/--out are added per run
    warmup: tuple[str, ...]        # the same subcommand at a tiny size
    seeded: bool = True

    @property
    def workers(self) -> int:
        argv = list(self.argv)
        return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1

    def command(self, seed: int, out: str) -> list[str]:
        argv = list(self.argv) + ["--out", out, "--format", "json"]
        return argv + ["--seed", str(seed)] if self.seeded else argv


_VERIFY_TINY = (
    "verify-combinatorics", "--trajectory-steps", "2", "--sum-identity-steps", "2",
    "--correspondence-length", "2", "--correspondence-vertices", "2",
    "--surgery-steps", "2", "--lemma73-s", "2", "--lemma77-grid", "4",
    "--dyck-roundtrip-steps", "2", "--ballot-steps", "2", "--max-pmf-m", "2",
)

# Why each gated workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fluct-super",
        argv=("fluctuations", "--n", "1000", "--theta", "2", "--sigma", "1",
              "--law", "rademacher", "--symmetry", "complex", "--workers", "2",
              "--samples", "8"),
        warmup=("fluctuations", "--n", "8", "--theta", "2", "--sigma", "1",
                "--law", "rademacher", "--symmetry", "complex", "--workers", "2",
                "--samples", "2"),
    ),
    Workload(
        name="census-full",
        argv=("census", "--n", "1000", "--theta", "2", "--law", "gaussian",
              "--symmetry", "complex", "--workers", "1", "--samples", "6"),
        warmup=("census", "--n", "8", "--theta", "2", "--law", "gaussian",
                "--symmetry", "complex", "--workers", "1", "--samples", "2"),
    ),
    Workload(
        name="oracle-mc",
        argv=("oracle-compare", "--n", "4", "--L", "7", "--theta", "2",
              "--law", "rademacher", "--symmetry", "complex", "--samples", "20000"),
        warmup=("oracle-compare", "--n", "2", "--L", "3", "--theta", "2",
                "--law", "rademacher", "--symmetry", "complex", "--samples", "64"),
    ),
    Workload(
        name="verify-exact",
        argv=("verify-combinatorics", "--trajectory-steps", "16", "--sum-identity-steps", "24",
              "--correspondence-length", "10", "--correspondence-vertices", "5",
              "--surgery-steps", "12", "--lemma73-s", "200",
              "--lemma77-grid", "25", "100", "400", "900",
              "--dyck-roundtrip-steps", "16", "--ballot-steps", "24", "--max-pmf-m", "10"),
        warmup=_VERIFY_TINY,
        seeded=False,
    ),
)}


def _summary(report: dict) -> dict:
    return {r["statistic"]: r["value"] for r in report["records"] if r.get("sample") == "summary"}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _lambda1_problem(summary: dict) -> str | None:
    lam = summary.get("mean_lambda_1")
    if not _finite(lam) or abs(lam - RHO_THETA) > LAMBDA1_REL_TOL * RHO_THETA:
        return f"mean_lambda_1={lam!r} not within 5% of {RHO_THETA}"
    return None


def _check_fluct(report: dict, samples: int) -> list[str]:
    devs = [r["value"] for r in report["records"] if r.get("statistic") == "sqrt_n_dev_1"]
    problems = []
    if len(devs) != samples:
        problems.append(f"{len(devs)} per-sample records, expected {samples}")
    if not all(_finite(d) for d in devs):
        problems.append("non-finite per-sample statistic")
    summary = _summary(report)
    if not all(_finite(summary.get(k)) for k in ("ks_statistic", "mean_lambda_1")):
        problems.append("non-finite summary")
    problems.append(_lambda1_problem(summary))
    return [p for p in problems if p]


def _check_census(report: dict, samples: int) -> list[str]:
    summary = _summary(report)
    problems = []
    if summary.get("total_interlacing_violations") != 0:
        problems.append(f"interlacing violations: {summary.get('total_interlacing_violations')!r}")
    ks = summary.get("max_esd_ks")
    if not _finite(ks) or ks > ESD_KS_MAX:
        problems.append(f"max_esd_ks={ks!r} above {ESD_KS_MAX}")
    problems.append(_lambda1_problem(summary))
    return [p for p in problems if p]


def _check_oracle(report: dict, samples: int) -> list[str]:
    summary = _summary(report)
    probe = [r["value"] for r in report["records"] if r.get("sample") == "probe"]
    problems = []
    if summary.get("within_4_se") is not True:
        problems.append(f"Monte Carlo mean not within 4 SE of the oracle: z={summary.get('z_score')!r}")
    if len(probe) != 4 or not all(_finite(d) for d in probe):
        problems.append(f"universality probe not all finite: {probe!r}")
    if not all(_finite(summary.get(k)) for k in ("oracle", "mc_mean", "mc_se")):
        problems.append("non-finite oracle or Monte Carlo summary")
    return problems


_MC_CHECKS = {"fluctuations": _check_fluct, "census": _check_census,
              "oracle-compare": _check_oracle}


def check(workload: Workload, exit_code, report: dict | None) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one invocation.

    ``exit_code`` is None when the call raised; ``report`` is None when no
    report was written.
    """
    if workload.argv[0] == "verify-combinatorics":
        return N_VERIFY_CHECKS, _check_verify(exit_code, report)
    if exit_code != 0:
        return 1, [f"exit code {exit_code!r}"]
    if report is None:
        return 1, ["no report written"]
    argv = list(workload.argv)
    samples = int(argv[argv.index("--samples") + 1])
    problems = _MC_CHECKS[workload.argv[0]](report, samples)
    return 1, ["; ".join(problems)] if problems else []


def _check_verify(exit_code, report: dict | None) -> list[str]:
    """One failure message per failed check (missing checks fail too)."""
    records = report["records"] if report else []
    problems = [f"{r.get('check')}: failed ({r.get('counterexample')!r})"
                for r in records if r.get("pass") is not True]
    for r in records:
        if r.get("check") == "correspondence_roundtrip" and r.get("pass") is True:
            cases = r.get("params", {}).get("cases")
            if cases != CORRESPONDENCE_CASES:
                problems.append(f"correspondence_roundtrip: {cases!r} cases, "
                                f"expected {CORRESPONDENCE_CASES}")
    missing = N_VERIFY_CHECKS - len(records)
    problems += [f"check missing (exit code {exit_code!r})"] * max(missing, 0)
    if exit_code != 0 and not problems:
        problems.append(f"exit code {exit_code!r} with every check passing")
    return problems[:N_VERIFY_CHECKS]
