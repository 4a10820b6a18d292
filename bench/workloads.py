"""The benchmark's workloads: CLI command sequences and their output checks.

A workload is a closed loop with one client: each command starts after the
previous one returns, all inside one process.  Every command gets the
workload seed as its ``--seed``.  ``setup`` commands build the inputs the
measured ``commands`` read; see WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SAMPLE_N = 200_000
SAMPLE_D = 50
SQ_TRIALS = 30
# Thresholds of acceptance criteria 11 (SQ algorithms see nothing) and 9
# (the direction-aware cheat separates).
ORACLE_V_MIN_ADVANTAGE = 0.8


@dataclass(frozen=True)
class Check:
    """Outcome of one output check: problems found plus information fields."""

    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{dir}`` and ``{seed}`` are filled in per run."""

    name: str
    family: str  # build, verify, export, sample or distinguish_<mode>
    argv: tuple[str, ...]
    artifact: str  # file the command writes, relative to the work directory
    check: Callable[[Path], Check]

    def resolve(self, workdir: Path, seed: int) -> list[str]:
        return [a.format(dir=workdir, seed=seed) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Command, ...]
    commands: tuple[Command, ...]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_build(path: Path) -> Check:
    data = _load(path)
    if data["flags"]["target_reached"] is not True:
        return Check([f"build stopped early: {data['flags']['stop_reason']}"])
    return Check(info={"stop_reason": data["flags"]["stop_reason"]})


def check_verify(path: Path) -> Check:
    report = _load(path)["report"]
    problems = [f"report error: {e}" for e in report["errors"]]
    nu = float(report["config"]["nu"])
    for k, err in enumerate(report["moment_errors"], start=1):
        if not float(err) < nu:
            problems.append(f"moment {k} error {err} >= nu {nu}")
    for c in report["pairwise_corr"] + report["tv_separation"]:
        if c["passed"] is not True:
            problems.append(f"{c['name']} at cosine {c['cosine']} failed")
    if report["w1_flow_passed"] is not True:
        problems.append("W1 flow check failed")
    if report["chi_squared"] is None or report["support_distance"] is None:
        problems.append("chi-squared or distance-to-support missing")
    if not report["pairwise_corr"] or not report["tv_separation"]:
        problems.append("correlation or TV check missing")
    return Check(problems)


def check_export(path: Path) -> Check:
    data = _load(path)
    if data["kind"] != "lifted" or int(data["d"]) != SAMPLE_D:
        return Check([f"expected a lifted d={SAMPLE_D} network"])
    return Check()


def check_samples(path: Path) -> Check:
    expected = SAMPLE_N * SAMPLE_D * 8
    size = path.stat().st_size
    if size != expected:
        return Check([f"{path.name}: {size} bytes, expected {expected}"])
    values = np.fromfile(path, dtype="<f8")
    if not np.all(np.isfinite(values)):
        return Check([f"{path.name}: non-finite values"])
    return Check()


def _advantages(path: Path) -> tuple[dict, list[str]]:
    data = _load(path)
    problems = []
    if int(data["trials"]) != SQ_TRIALS:
        problems.append(f"ran {data['trials']} trials, expected {SQ_TRIALS}")
    adv = {algo: float(r["advantage"]) for algo, r in data["results"].items()}
    for algo in ("moment-scan", "random-projection-moment", "oracle-v"):
        if algo not in adv:
            problems.append(f"{algo} missing from results")
    return adv, problems


def check_adversarial(path: Path) -> Check:
    adv, problems = _advantages(path)
    for algo in ("moment-scan", "random-projection-moment"):
        if adv.get(algo, math.nan) != 0.0:
            problems.append(f"adversarial {algo} advantage {adv.get(algo)} is not 0")
    if not adv.get("oracle-v", -1.0) >= ORACLE_V_MIN_ADVANTAGE:
        problems.append(
            f"oracle-v advantage {adv.get('oracle-v')} < {ORACLE_V_MIN_ADVANTAGE}"
        )
    return Check(problems, {"advantages": adv})


def check_honest(path: Path) -> Check:
    # Honest answers are sampled, so the advantages are information only.
    adv, problems = _advantages(path)
    return Check(problems, {"advantages": adv})


def _build(m: int, eps0: str | None = None) -> Command:
    extra = ("--eps0", eps0) if eps0 else ()
    return Command(
        name=f"build-m{m}",
        family="build",
        argv=("build", "--m", str(m), *extra, "--seed", "{seed}",
              "--out", f"{{dir}}/inst-m{m}.json"),
        artifact=f"inst-m{m}.json",
        check=check_build,
    )


def _sample(name: str, source: str, extra: tuple[str, ...]) -> Command:
    return Command(
        name=f"sample-{name}",
        family="sample",
        argv=("sample", f"{{dir}}/{source}", *extra, "--n", str(SAMPLE_N),
              "--format", "f64", "--seed", "{seed}", "--out", f"{{dir}}/{name}.f64"),
        artifact=f"{name}.f64",
        check=check_samples,
    )


def _distinguish(mode: str, tau: str, check: Callable[[Path], Check]) -> Command:
    return Command(
        name=f"distinguish-{mode}",
        family=f"distinguish_{mode}",
        argv=("distinguish", "{dir}/inst-m5.json", "--algo", "all", "--mode", mode,
              "--d", str(SAMPLE_D), "--tau", tau, "--trials", str(SQ_TRIALS),
              "--seed", "{seed}", "--out", f"{{dir}}/sq-{mode}.json"),
        artifact=f"sq-{mode}.json",
        check=check,
    )


BUILD_M5 = _build(5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify",
            setup=(BUILD_M5,),
            commands=(
                Command(
                    name="verify",
                    family="verify",
                    argv=("verify", "{dir}/inst-m5.json", "--cosine", "0.1",
                          "--seed", "{seed}", "--out", "{dir}/report.json"),
                    artifact="report.json",
                    check=check_verify,
                ),
            ),
        ),
        Workload(
            name="generate",
            setup=(),
            commands=(
                BUILD_M5,
                # layout() fails at the default eps0 for m >= 9; these are the
                # hand-picked widths that build.
                _build(9, "1e-10"),
                _build(13, "1e-12"),
                Command(
                    name="export",
                    family="export",
                    argv=("export", "{dir}/inst-m5.json", "--d", str(SAMPLE_D),
                          "--seed", "{seed}", "--out", "{dir}/net.json"),
                    artifact="net.json",
                    check=check_export,
                ),
                _sample("lifted", "net.json", ()),
                _sample("planted", "inst-m5.json", ("--kind", "planted", "--d", str(SAMPLE_D))),
                _sample("null", "inst-m5.json", ("--kind", "null", "--d", str(SAMPLE_D))),
            ),
        ),
        Workload(
            name="sq",
            setup=(BUILD_M5,),
            commands=(
                # Adversarial answers use acceptance criterion 11's tau.
                # Honest answers draw 4 / tau^2 samples each; tau = 0.02
                # keeps the workload inside the benchmark's time budget.
                _distinguish("adversarial", "0.01", check_adversarial),
                _distinguish("honest", "0.02", check_honest),
            ),
        ),
    )
}
