"""Command-line front end: build -> verify -> export -> sample -> distinguish.

Every emitted file carries the moment-forge/1 schema tag, serializes reals as
round-trip decimal strings, and revalidates its invariants on reload.  Runs
are deterministic given the flags: identical invocations produce byte-
identical files.

Exit codes: 0 success, 2 validation failure, 3 numeric guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .bumps import layout
from .distributions import (
    STREAM_DIRECTION,
    STREAM_TRIAL_DIRECTION,
    HiddenDirectionDist,
    PushforwardDist,
    hidden_blocks,
    latent_blocks,
    null_blocks,
    rng_stream,
    sample_null,  # noqa: F401  (bench/tracer.py wraps cli.sample_null by name)
)
from .errors import NumericGuardError, ValidationError
from .flow import EvolutionTrace, SlopeTarget, evolve
from .gaussian import hermite_rule, reduce_rule
from .network import (
    LiftedNetwork,
    ReluNetwork1D,
    ReluUnit,
    compile_instance,
    lift,
)
from .serialize import (
    SCHEMA,
    dump_json,
    fields_of,
    fnum,
    fnum_list,
    instance_from_payload,
    instance_payload,
    load_json,
    parse_float,
    parse_float_list,
    reduced_rule_from_payload,
    reduced_rule_payload,
    replacing,
)
from .sq import NullTarget, PlantedTarget, SqOracle, run_distinguisher
from .verify import VerifyConfig, verify_instance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _trace_payload(trace: EvolutionTrace) -> dict:
    return {
        "times": fnum_list(trace.times),
        "eps": fnum_list(trace.eps_values),
        "heights": [fnum_list(h) for h in trace.heights],
        "sigma_mins": fnum_list(trace.sigma_mins),
        "moment_residuals": [fnum_list(r) for r in trace.moment_residuals],
        "step_sizes": fnum_list(trace.step_sizes),
        "direction_norms": fnum_list(trace.direction_norms),
        "newton_iterations": list(trace.newton_iterations),
        "step_cuts": trace.step_cuts,
        "target_reached": trace.target_reached,
        "stop_reason": trace.stop_reason,
        "projection": {
            "applied": trace.projection_applied,
            "residual_before": fnum(trace.residual_before_projection),
            "residual_after": fnum(trace.residual_after_projection),
        },
    }


def cmd_build(args) -> int:
    rule = hermite_rule(args.m)
    reduced = reduce_rule(rule)
    initial = layout(reduced, args.eps0, args.nu)
    if args.eps_target is None and args.slope_target is None:
        target = SlopeTarget(eps_target=1000.0 * args.eps0)
    else:
        target = SlopeTarget(eps_target=args.eps_target, slope_target=args.slope_target)
    evolved, trace = evolve(initial, target)
    payload = {
        "schema": SCHEMA,
        "kind": "instance",
        "config": {
            "m": args.m,
            "nu": fnum(args.nu),
            "eps0": fnum(args.eps0),
            "eps_target": None if args.eps_target is None else fnum(args.eps_target),
            "slope_target": None
            if args.slope_target is None
            else fnum(args.slope_target),
            "seed": args.seed,
        },
        "reduced_rule": reduced_rule_payload(reduced),
        "initial": instance_payload(initial),
        "evolved": instance_payload(evolved),
        "eps_initial": fnum(initial.eps),
        "eps_final": fnum(evolved.eps),
        "trace": _trace_payload(trace),
        "flags": {
            "target_reached": trace.target_reached,
            "stop_reason": trace.stop_reason,
        },
    }
    dump_json(payload, args.out)
    status = "reached" if trace.target_reached else f"partial ({trace.stop_reason})"
    print(
        f"build m={args.m}: eps {initial.eps:g} -> {evolved.eps:g}, "
        f"max slope {evolved.max_slope():.6g}, target {status}, "
        f"moment drift {trace.max_moment_drift():.3e}"
    )
    return EXIT_OK


def _read_build(data: dict, path: str):
    """The initial and evolved instances of a build file loaded from path,
    and the two trace records the verify report reads; damage to any of
    them is a ValidationError that names the file."""
    if data.get("kind") != "instance":
        raise ValidationError(f"{path} is not an instance file")
    with fields_of(path):
        initial = instance_from_payload(data["initial"])
        evolved = instance_from_payload(data["evolved"])
        reduced = reduced_rule_from_payload(data["reduced_rule"])
        sigma_mins = parse_float_list(data["trace"]["sigma_mins"])
        rows = [np.array(parse_float_list(r)) for r in data["trace"]["moment_residuals"]]
    for inst in (initial, evolved):
        for i, (b, lam) in enumerate(zip(inst.bumps, reduced.weights)):
            if not abs(b.plateau_mass - lam) <= 1e-10:
                raise ValidationError(
                    f"{path}: plateau mass of bump {i} drifted from its rule weight"
                )
    if len(rows) != len(sigma_mins) or any(r.size != (evolved.m - 1) // 2 for r in rows):
        raise ValidationError(f"{path}: trace rows do not match sigma_mins and m")
    if not np.all(np.isfinite(np.concatenate([sigma_mins, *rows]))):
        raise ValidationError(f"{path}: the trace holds a value that is not finite")
    return initial, evolved, EvolutionTrace(sigma_mins=sigma_mins, moment_residuals=rows)


def _report_to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _report_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, float):
        return fnum(obj)
    if isinstance(obj, (list, tuple)):
        return [_report_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _report_to_jsonable(v) for k, v in obj.items()}
    return obj


def cmd_verify(args) -> int:
    initial, evolved, trace = _read_build(load_json(args.instance), args.instance)
    cosines = tuple(args.cosine) if args.cosine else VerifyConfig.correlation_cosines
    config = VerifyConfig(nu=args.nu, sigma=args.sigma, correlation_cosines=cosines)
    report = verify_instance(initial, evolved, config, trace=trace)

    print(f"verification report (m={report.m}, sigma={config.sigma}, nu={config.nu})")
    for k, err in enumerate(report.moment_errors, start=1):
        flag = "ok" if err < config.nu else "FAIL"
        print(f"  moment k={k}: |error| = {err:.3e}  [{flag}]")
    print(f"  max slope: {report.slope_max:.6g}  weight bound: {report.weight_bound:.6g}")
    if report.chi_squared is not None:
        chi = report.chi_squared
        print(
            f"  chi^2(D', N(0,1)) = {chi.value:.6g} (error {chi.error_estimate:.1e}; "
            f"reference exp(cR^2)/sigma = {chi.reference:.3g})"
        )
        coeffs = " ".join(f"{a:+.2e}" for a in report.hermite_coefficients)
        print(f"  Hermite spectrum a_1..a_{len(report.hermite_coefficients)}: {coeffs}")
    for check in report.pairwise_corr + report.tv_separation:
        flag = "ok" if check.passed else "FAIL"
        print(
            f"  {check.name} cos={check.cosine:g}: value {check.value:.3e} "
            f"vs bound {check.bound:.3e} (margin {check.margin:+.3e}, "
            f"error {check.error_estimate:.1e}) [{flag}]"
        )
    print(
        f"  W1(D_0, D_T) = {report.w1_flow_distance:.4e} "
        f"(error {report.w1_flow_error:.1e}) <= {report.w1_flow_bound:.4e}: "
        f"{'ok' if report.w1_flow_passed else 'FAIL'}"
    )
    if report.support_distance is not None:
        sd = report.support_distance
        print(
            f"  distance-to-support (sigma={sd.sigma:g}, cos={sd.cosine:g}): "
            f"P(> {sd.threshold:.4f}) = "
            f"{sd.exceedance_probability:.4f} (error {sd.error_estimate:.1e}; "
            f"W1 lower bound {sd.w1_lower_bound:.4e})"
        )
    if report.errors:
        for err in report.errors:
            print(f"  ERROR: {err}")

    if args.out:
        payload = {"schema": SCHEMA, "kind": "report", "report": _report_to_jsonable(report)}
        dump_json(payload, args.out)
    if not report.all_passed():
        return EXIT_VALIDATION
    return EXIT_OK


def _network_payload(net: LiftedNetwork) -> dict:
    """The file spells f* in its two inputs (z1, z2): each unit's z2 weight
    is 0 and the linear term is (0, sigma)."""
    zero = fnum(0.0)
    return {
        "schema": SCHEMA,
        "kind": "lifted",
        "units": [
            {"s": u.sign, "w": [fnum(u.weight), zero], "b": fnum(u.bias)}
            for u in net.inner.units
        ],
        "linear": [zero, fnum(net.sigma)],
        "sigma": fnum(net.sigma),
        "v": fnum_list(net.v),
        "d": net.d,
    }


def network_from_payload(payload: dict) -> LiftedNetwork:
    """Read a lifted network, refusing a file whose redundant fields (the z2
    weights, the linear term, d) disagree with its units, sigma and v."""
    kind = payload.get("kind")
    if kind != "lifted":
        raise ValidationError(f"unknown network kind {kind!r}")
    sigma = parse_float(payload["sigma"])
    units = []
    for i, u in enumerate(payload["units"]):
        w = parse_float_list(u["w"])
        if len(w) != 2 or w[1] != 0.0:
            raise ValidationError(f"unit {i}: weights {u['w']} are not (w, 0)")
        units.append(ReluUnit(sign=int(u["s"]), weight=w[0], bias=parse_float(u["b"])))
    if parse_float_list(payload["linear"]) != [0.0, sigma]:
        raise ValidationError(f"linear term {payload['linear']} is not (0, sigma)")
    v = np.array(parse_float_list(payload["v"]))
    if int(payload["d"]) != v.size:
        raise ValidationError(f"d = {payload['d']} but v has {v.size} entries")
    return LiftedNetwork(v=v, sigma=sigma, inner=ReluNetwork1D(units=tuple(units)))


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValidationError(f"--d must be >= 1, got {d}")


def _hidden_direction(d: int, direction: str, seed: int) -> np.ndarray:
    """The --direction unit vector in R^d: e1, or a seeded random one."""
    _check_dimension(d)
    if direction == "e1":
        v = np.zeros(d)
        v[0] = 1.0
        return v
    v = rng_stream(seed, STREAM_DIRECTION).standard_normal(d)
    return v / np.linalg.norm(v)


def cmd_export(args) -> int:
    _, evolved, _ = _read_build(load_json(args.instance), args.instance)
    net1d = compile_instance(evolved)
    v = _hidden_direction(args.d, args.direction, args.seed)
    lifted = lift(net1d, args.sigma, args.d, v)
    dump_json(_network_payload(lifted), args.out)
    sizes = lifted.size_report()
    print(
        f"export: d={args.d}, sigma={args.sigma}, direction={args.direction}, "
        f"inner units {sizes['inner_relu_units']}, "
        f"per-coordinate pure-ReLU size {sizes['per_coordinate_pure_relu']}, "
        f"weight bound {net1d.weight_bound:.6g}"
    )
    return EXIT_OK


def _write_samples(blocks, path: str, fmt: str, n: int, d: int) -> None:
    """Write sample blocks, n rows of d values in all, one after another to
    path, as csv or f64.  An f64 file's size is known, so it is reserved
    before the first block is drawn.  A seeded sample can be drawn again
    byte for byte, so it takes the reservation's trade of ext4's crash
    guard for a rename without writeback (see replacing)."""
    with replacing(path, 8 * n * d if fmt == "f64" else None) as fh:
        for block in blocks:
            if fmt == "csv":
                np.savetxt(fh, block, delimiter=",", fmt="%.17g")
            else:
                fh.write(np.ascontiguousarray(block, dtype="<f8").data)


def _reject_law_flags(args, reason: str) -> None:
    """Refuse --sigma and --direction where they would be ignored."""
    for flag, value in (("--sigma", args.sigma), ("--direction", args.direction)):
        if value is not None:
            raise ValidationError(f"{flag} does not apply {reason}")


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    data = load_json(args.file)
    kind = data.get("kind")
    d = args.d  # the output dimension; a network file fixes it
    if args.kind == "null":
        _reject_law_flags(args, "to null sampling: N(0, I_d) has no sigma or v")
        if args.d is None:
            raise ValidationError("null sampling needs --d")
        _check_dimension(args.d)
        blocks = null_blocks(args.d, args.n, args.seed)
    elif kind == "lifted":
        _reject_law_flags(args, "to a network file: the network fixes sigma and v")
        with fields_of(args.file):
            net = network_from_payload(data)
        if args.d is not None and args.d != net.d:
            raise ValidationError(
                f"--d {args.d} does not match the network's d = {net.d}"
            )
        d = net.d
        blocks = map(net.eval, latent_blocks(d + 1, args.n, args.seed))
    elif kind == "instance":
        _, evolved, _ = _read_build(data, args.file)
        if args.d is None:
            raise ValidationError("planted sampling from an instance needs --d")
        sigma = 0.05 if args.sigma is None else args.sigma
        dist = PushforwardDist.from_instance(evolved, sigma)
        v = _hidden_direction(args.d, args.direction or "e1", args.seed)
        hd = HiddenDirectionDist(d=args.d, v=v, marginal=dist)
        blocks = hidden_blocks(hd, args.n, args.seed)
    else:
        raise ValidationError(f"{args.file}: cannot sample from a {kind!r} file")
    _write_samples(blocks, args.out, args.format, args.n, d)
    print(f"wrote {args.n} samples to {args.out} ({args.format})")
    return EXIT_OK


def cmd_distinguish(args) -> int:
    _check_dimension(args.d)
    _, evolved, _ = _read_build(load_json(args.instance), args.instance)
    marginal = PushforwardDist.from_instance(evolved, args.sigma)

    def factory(kind: str, trial: int):
        rng = rng_stream(args.seed + trial, STREAM_TRIAL_DIRECTION)
        v = rng.standard_normal(args.d)
        v /= np.linalg.norm(v)
        hidden = HiddenDirectionDist(d=args.d, v=v, marginal=marginal)
        if kind == "planted":
            target = PlantedTarget(hidden)
        else:
            target = NullTarget(args.d)
        oracle = SqOracle(
            target, mode=args.mode, tau=args.tau, seed=args.seed + 31 * trial
        )
        return oracle, hidden

    algos = [args.algo] if args.algo != "all" else [
        "moment-scan",
        "random-projection-moment",
        "oracle-v",
    ]
    results = {}
    for algo in algos:
        result = run_distinguisher(algo, factory, args.trials, args.seed, tau=args.tau)
        results[algo] = {
            "advantage": fnum(result.advantage),
            "decision": result.decision,
            "queries_used": result.queries_used,
            "trials": result.trials,
        }
        print(
            f"{algo}: advantage {result.advantage:+.3f} over {result.trials} trials "
            f"({result.queries_used} queries, mode={args.mode})"
        )
    if args.out:
        dump_json(
            {
                "schema": SCHEMA,
                "kind": "distinguish",
                "mode": args.mode,
                "tau": fnum(args.tau),
                "d": args.d,
                "sigma": fnum(args.sigma),
                "trials": args.trials,
                "results": results,
            },
            args.out,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentforge",
        description="Build, evolve, export, sample, and verify moment-matched "
        "ReLU pushforwards of the standard Gaussian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and evolve an instance")
    p_build.add_argument("--m", type=int, default=5, help="rule order (odd, 3..41)")
    p_build.add_argument("--nu", type=float, default=1e-4, help="moment tolerance")
    p_build.add_argument(
        "--eps0", type=float, default=1e-6, help="initial ramp width"
    )
    p_build.add_argument(
        "--eps-target",
        dest="eps_target",
        type=float,
        default=None,
        help="stop at this ramp width (default: 1000 * eps0)",
    )
    p_build.add_argument(
        "--slope-target",
        dest="slope_target",
        type=float,
        default=None,
        help="stop once max |height| / ramp falls to this value",
    )
    p_build.add_argument("--seed", type=int, default=0, help="has no effect")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="verify a built instance file")
    p_verify.add_argument("instance")
    p_verify.add_argument("--nu", type=float, default=1e-4)
    p_verify.add_argument("--sigma", type=float, default=0.05)
    p_verify.add_argument(
        "--cosine",
        type=float,
        action="append",
        default=None,
        help="correlation-check cosine; repeatable (default 0.05 0.1 0.2)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="has no effect")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="compile and lift to a generator")
    p_export.add_argument("instance")
    p_export.add_argument("--d", type=int, default=50)
    p_export.add_argument("--sigma", type=float, default=0.05)
    p_export.add_argument("--direction", choices=("e1", "random"), default="e1")
    p_export.add_argument("--seed", type=int, default=0)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export)

    p_sample = sub.add_parser("sample", help="draw samples from a built artifact")
    p_sample.add_argument("file", help="instance or network JSON")
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--kind", choices=("planted", "null"), default="planted")
    p_sample.add_argument("--d", type=int, default=None)
    p_sample.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="planted sampling from an instance only (default 0.05)",
    )
    p_sample.add_argument(
        "--direction",
        choices=("e1", "random"),
        default=None,
        help="planted sampling from an instance only (default e1)",
    )
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--format", choices=("csv", "f64"), default="csv")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_dist = sub.add_parser("distinguish", help="run the SQ distinguishers")
    p_dist.add_argument("instance")
    p_dist.add_argument(
        "--algo",
        choices=("moment-scan", "random-projection-moment", "oracle-v", "all"),
        default="all",
    )
    p_dist.add_argument("--mode", choices=("honest", "adversarial"), default="honest")
    p_dist.add_argument("--tau", type=float, default=0.01)
    p_dist.add_argument("--trials", type=int, default=100)
    p_dist.add_argument("--d", type=int, default=50)
    p_dist.add_argument("--sigma", type=float, default=0.05)
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--out", default=None)
    p_dist.set_defaults(func=cmd_distinguish)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
