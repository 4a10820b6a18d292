"""Run one momentforge benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``.  It drives the CLI in-process through ``momentforge.cli.main``,
checks every command's output and records a SHA-256 of every artifact.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps the library's
layers (see tracer.py) and reports the per-layer metrics.  A fuller record
(environment, per-command times, checks, digests) and the traced run's spans
are written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# The single-threaded baseline: pin BLAS before numpy loads.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 3


@dataclass
class CommandRecord:
    name: str
    family: str
    phase: str
    seconds: float
    rc: int | None
    problems: list[str]
    info: dict
    digest: str | None


@dataclass
class Run:
    workload: Workload
    seed: int
    workdir: Path
    tracer: Tracer | None = None
    records: list[CommandRecord] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def execute(self, cli, cmd: Command, phase: str) -> CommandRecord:
        argv = cmd.resolve(self.workdir, self.seed)
        root = (
            self.tracer.run(f"{phase}.{cmd.name}", f"cli.{cmd.family}")
            if self.tracer
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:  # a crashing command is a failed operation
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - start
        problems, info, digest = [], {}, None
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            path = self.workdir / cmd.artifact
            try:
                check = cmd.check(path)
                problems += check.problems
                info = check.info
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            if digest is not None and self.digests.setdefault(cmd.artifact, digest) != digest:
                problems.append(f"{cmd.artifact} digest differs from its first write")
        record = CommandRecord(cmd.name, cmd.family, phase, seconds, rc, problems, info, digest)
        self.records.append(record)
        return record

    def set_up(self, reps: int) -> tuple[object, dict]:
        """Import the package and build the inputs, reps times afresh."""
        totals, imports = [], []
        for rep in range(reps):
            start = time.perf_counter()
            cli = fresh_import()
            imports.append(time.perf_counter() - start)
            records = [self.execute(cli, c, f"setup{rep}") for c in self.workload.setup]
            totals.append(imports[-1] + pass_seconds(records))
        return cli, {"totals_s": totals, "import_s": imports}

    def run_pass(self, cli, phase: str) -> list[CommandRecord]:
        return [self.execute(cli, c, phase) for c in self.workload.commands]

    def measure(self, cli, seconds: float) -> list[list[CommandRecord]]:
        """Repeat the workload's commands until the next pass would overrun
        `seconds` (at least one pass)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(cli, f"it{len(passes)}"))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                return passes


def fresh_import():
    for name in [n for n in sys.modules if n == "momentforge" or n.startswith("momentforge.")]:
        del sys.modules[name]
    return importlib.import_module("momentforge.cli")


def pass_seconds(records: list[CommandRecord]) -> float:
    return sum(r.seconds for r in records)


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def end_to_end(setup: dict, passes: list[list[CommandRecord]]) -> dict:
    return {
        "wall_s": statistics.median(pass_seconds(p) for p in passes),
        "setup_s": statistics.median(setup["totals_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(run: Run) -> tuple[dict, dict]:
    """An untraced pass over set-up and commands, then a traced one.  The
    untraced pass gives the tracing overhead; made just before, it sees the
    same machine speed.  execute() fails any traced write whose digest
    differs from the untraced one."""
    cli = fresh_import()
    for c in run.workload.setup:
        run.execute(cli, c, "reference-setup")
    reference_wall = pass_seconds(run.run_pass(cli, "reference"))
    run.tracer = Tracer()
    install(run.tracer)
    for c in run.workload.setup:
        run.execute(cli, c, "setup")
    metrics = layer_metrics(run.tracer, pass_seconds(run.run_pass(cli, "it0")), reference_wall)
    return metrics, {"reference_wall_s": reference_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "momentforge" / "__init__.py").is_file():
        print(f"bench: no momentforge package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**32:
        print("bench: seed must lie in [0, 2**32)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    run = Run(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if args.trace:
            metrics, extra = traced(run)
            wanted = spec["per_layer"]
        else:
            cli, setup = run.set_up(SETUP_REPS)
            passes = run.measure(cli, args.seconds)
            metrics = end_to_end(setup, passes)
            extra = {"setup": setup, "passes": len(passes)}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if run.tracer is not None:
            run.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    failed = sum(1 for r in run.records if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "commands": [vars(r) for r in run.records],
        "digests": run.digests,
        **extra,
        **result,
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env)}")
    for r in run.records:
        status = "ok" if not r.problems else "FAIL " + "; ".join(r.problems)
        print(f"{r.phase:>16} {r.name:<24} {r.seconds:9.3f} s  {status}  {r.info or ''}")
    for name, digest in sorted(run.digests.items()):
        print(f"sha256 {digest} {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
