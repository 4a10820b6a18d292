"""Layer tracing of momentforge from outside the library.

The traced run replaces each layer's public functions, at the attribute its
callers look up, with wrappers that record a span or bump a counter.  A span
is (name, start, end, parent, run id); one CLI command is one run id.  Spans
stay in memory and are written out when the benchmark ends.  Wrappers pass
arguments and results through untouched, so a traced run writes the same
artifacts as an untraced one; the benchmark checks that by digest.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.worst_error: defaultdict = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def run(self, run_id: str, name: str):
        """Root span of one CLI command."""
        self.run_id = run_id
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Record a span around owner.attr; name may be a function of the
        call's arguments, after(args, result) sees each result."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.begin(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls to owner.attr without a span (for scalar hot calls)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def wrap_integrator(self, owner, attr: str, dim: str) -> None:
        """Span an adaptive integrator, count its integrand points and calls,
        and keep the worst error estimate it returns."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def traced(f, *args, **kwargs):
            def integrand(*xs):
                counts[f"integrate.integrand_calls_{dim}"] += 1
                counts[f"integrate.fevals_{dim}"] += np.size(xs[0])
                return f(*xs)

            idx = self.begin(f"integrate.{dim}")
            try:
                value, err = original(integrand, *args, **kwargs)
            finally:
                self.end(idx)
            self.worst_error[dim] = max(self.worst_error[dim], err)
            return value, err

        setattr(owner, attr, traced)

    def add_points(self, counter: str, arg: int):
        def after(args, result):
            self.counts[counter] += np.size(args[arg])

        return after

    def dump(self, path: Path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        runs = sorted({s[RUN] for s in self.spans})
        name_idx = {n: i for i, n in enumerate(names)}
        run_idx = {r: i for i, r in enumerate(runs)}
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "names": names,
            "runs": runs,
            "spans": [
                [name_idx[s[NAME]], s[START], s[END], s[PARENT], run_idx[s[RUN]]]
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported momentforge package."""
    from momentforge import cli, distributions, flow, sq, verify
    from momentforge.distributions import ProjectedLaw, PushforwardDist
    from momentforge.network import LiftedNetwork

    def count_steps(args, result):
        tracer.counts["flow.steps_accepted"] += len(result[1].times) - 1

    def count_bytes(args, result):
        tracer.counts["serialize.bytes_written"] += os.path.getsize(args[1])

    def count_rows(args, result):
        tracer.counts["network.forward_rows"] += np.atleast_2d(args[1]).shape[0]

    def answer_name(oracle, query, *_):
        kind = "monomial" if isinstance(query, sq.MonomialQuery) else "projection"
        return f"sq.answer.{oracle.mode}.{kind}"

    tracer.wrap(cli, "hermite_rule", "gaussian.hermite_rule")
    tracer.wrap(cli, "layout", "bumps.layout")
    tracer.count(flow, "bump_moment", "bumps.bump_moment_calls")
    tracer.count(flow, "bump_moment_deps", "bumps.bump_moment_calls")

    tracer.wrap(cli, "evolve", lambda inst, *_: f"flow.evolve.m{inst.m}", count_steps)
    tracer.wrap(flow, "build_system", "flow.build_system")

    tracer.wrap(ProjectedLaw, "density", "distributions.density",
                tracer.add_points("distributions.density_points", 1))
    tracer.wrap(ProjectedLaw, "expectation", "distributions.expectation")
    tracer.wrap(PushforwardDist, "latent_eval", "distributions.latent_eval",
                tracer.add_points("distributions.latent_eval_points", 1))
    tracer.wrap(PushforwardDist, "sample", "distributions.sample")
    tracer.wrap(cli, "sample_null", "distributions.sample")

    for module in (distributions, sq, verify):
        tracer.wrap_integrator(module, "panel_integrate_1d", "1d")
    tracer.wrap_integrator(verify, "panel_integrate_2d", "2d")

    tracer.wrap(LiftedNetwork, "eval", "network.forward", count_rows)

    tracer.wrap(cli, "verify_instance", "verify.verify_instance")
    tracer.wrap(verify, "chi_squared_vs_gaussian", "verify.chi2")
    tracer.wrap(verify, "pairwise_correlation", "verify.correlation")
    tracer.wrap(verify, "tv_hidden_pair", "verify.tv")
    tracer.wrap(verify, "w1_empirical", "verify.w1_coupling")
    tracer.wrap(verify, "distance_to_support", "verify.support")

    tracer.wrap(cli, "run_distinguisher", "sq.run_distinguisher")
    tracer.wrap(sq, "build_algorithm", "sq.build_algorithm")
    tracer.wrap(sq, "stat_query", answer_name)

    tracer.wrap(cli, "dump_json", "serialize.dump_json", count_bytes)
    tracer.wrap(cli, "load_json", "serialize.load_json")


def summarize(spans: list[list]) -> tuple[Counter, defaultdict, defaultdict]:
    """Calls, total time and self time per span name.  Self time is a span's
    duration minus the durations of its child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    for s, children in zip(spans, child_time):
        duration = s[END] - s[START]
        calls[s[NAME]] += 1
        total[s[NAME]] += duration
        self_time[s[NAME]] += duration - children
    return calls, total, self_time


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, reference_wall_s: float) -> dict:
    """Per-layer metrics of the traced run; wall_s is the traced measured
    iteration, reference_wall_s the same iteration untraced."""
    spans = tracer.spans
    calls, total, self_time = summarize(spans)
    c = tracer.counts
    # The W1 check's draws are the sampler calls made directly by
    # verify_instance; distance-to-support draws sit under verify.support.
    w1_draws = sum(
        s[END] - s[START]
        for s in spans
        if s[NAME] == "distributions.sample"
        and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "verify.verify_instance"
    )
    # Layer spans directly under a measured command's root span.
    covered = sum(
        s[END] - s[START]
        for s in spans
        if s[PARENT] >= 0
        and spans[s[PARENT]][NAME].startswith("cli.")
        and not s[RUN].startswith("setup")
    )
    m = {
        "gaussian.hermite_rule_s": total["gaussian.hermite_rule"],
        "bumps.layout_s": total["bumps.layout"],
        "bumps.bump_moment_calls": c["bumps.bump_moment_calls"],
        "flow.evolve_s.m5": total["flow.evolve.m5"],
        "flow.evolve_s.m9": total["flow.evolve.m9"],
        "flow.evolve_s.m13": total["flow.evolve.m13"],
        "flow.build_system_calls": calls["flow.build_system"],
        "flow.build_system_s": self_time["flow.build_system"],
        "flow.steps_accepted": c["flow.steps_accepted"],
        "flow.systems_per_step": _rate(calls["flow.build_system"], c["flow.steps_accepted"]),
        "distributions.density_calls": calls["distributions.density"],
        "distributions.density_points": c["distributions.density_points"],
        "distributions.density_s": total["distributions.density"],
        "distributions.density_points_per_s": _rate(
            c["distributions.density_points"], total["distributions.density"]
        ),
        "distributions.expectation_calls": calls["distributions.expectation"],
        "distributions.expectation_s": total["distributions.expectation"],
        "distributions.latent_eval_points": c["distributions.latent_eval_points"],
        "distributions.latent_eval_s": total["distributions.latent_eval"],
        "distributions.sample_s": total["distributions.sample"],
        "network.forward_s": total["network.forward"],
        "network.forward_rows_per_s": _rate(c["network.forward_rows"], total["network.forward"]),
        "verify.chi2_s": total["verify.chi2"],
        "verify.correlation_s": total["verify.correlation"],
        "verify.tv_s": total["verify.tv"],
        "verify.w1_s": total["verify.w1_coupling"] + w1_draws,
        "verify.support_s": total["verify.support"],
        "sq.build_algorithm_s": total["sq.build_algorithm"],
        "serialize.dump_s": total["serialize.dump_json"],
        "serialize.load_s": total["serialize.load_json"],
        "serialize.bytes_written": c["serialize.bytes_written"],
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - reference_wall_s,
        "trace.span_coverage": _rate(covered, wall_s),
        "trace.spans": len(spans),
    }
    for dim in ("1d", "2d"):
        m[f"integrate.calls_{dim}"] = calls[f"integrate.{dim}"]
        m[f"integrate.fevals_{dim}"] = c[f"integrate.fevals_{dim}"]
        m[f"integrate.panels_{dim}"] = c[f"integrate.integrand_calls_{dim}"] // 2
        m[f"integrate.s_{dim}"] = total[f"integrate.{dim}"]
        m[f"integrate.self_s_{dim}"] = self_time[f"integrate.{dim}"]
        m[f"integrate.err_{dim}"] = tracer.worst_error[dim]
    for mode in ("adversarial", "honest"):
        for kind in ("monomial", "projection"):
            m[f"sq.queries.{mode}.{kind}"] = calls[f"sq.answer.{mode}.{kind}"]
            m[f"sq.answer_s.{mode}.{kind}"] = total[f"sq.answer.{mode}.{kind}"]
    for family in ("build", "verify", "sample", "distinguish_adversarial", "distinguish_honest"):
        m[f"cli.{family}_s"] = total[f"cli.{family}"]
    return m
