"""JSON persistence with bit-exact floating point round-trips.

All reals are serialized as shortest-round-trip decimal strings (repr of a
Python float), which reload to the identical 64-bit value on any platform.
Files carry a schema tag and are revalidated on load.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .bumps import Bump, BumpInstance
from .errors import ValidationError
from .gaussian import ReducedRule

SCHEMA = "moment-forge/1"

__all__ = [
    "SCHEMA",
    "fnum",
    "fnum_list",
    "parse_float",
    "parse_float_list",
    "dump_json",
    "load_json",
    "instance_payload",
    "instance_from_payload",
    "reduced_rule_payload",
    "reduced_rule_from_payload",
]


def fnum(x) -> str:
    """Encode one real as its shortest round-trip decimal string."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def fnum_list(xs) -> list[str]:
    return [fnum(x) for x in np.asarray(xs, dtype=float).ravel()]


def parse_float(s) -> float:
    return float(s)


def parse_float_list(xs) -> list[float]:
    # A string is iterable too: "10" would read as [1.0, 0.0].
    if isinstance(xs, str):
        raise ValidationError(f"expected a list of numbers, got {xs!r}")
    return [float(x) for x in xs]


def dump_json(obj: dict, path: str | Path) -> None:
    text = json.dumps(obj, indent=1, sort_keys=False)
    Path(path).write_text(text + "\n")


def load_json(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValidationError(
            f"{path}: schema {data.get('schema')!r} is not {SCHEMA!r}"
        )
    return data


def reduced_rule_payload(rule: ReducedRule) -> dict:
    return {
        "m": rule.m,
        "nodes": fnum_list(rule.nodes),
        "weights": fnum_list(rule.weights),
        "gap_mass": fnum(rule.gap_mass),
    }


def reduced_rule_from_payload(payload: dict) -> ReducedRule:
    return ReducedRule(
        m=int(payload["m"]),
        nodes=tuple(parse_float_list(payload["nodes"])),
        weights=tuple(parse_float_list(payload["weights"])),
        gap_mass=parse_float(payload["gap_mass"]),
    )


def instance_payload(inst: BumpInstance) -> dict:
    return {
        "m": inst.m,
        "eps": fnum(inst.eps),
        "gap_mass": fnum(inst.gap_mass),
        "nu": fnum(inst.nu),
        "intervals": [[fnum(a), fnum(b)] for a, b in inst.intervals],
        "heights": fnum_list(inst.heights()),
    }


def instance_from_payload(payload: dict) -> BumpInstance:
    """Rebuild an instance; construction revalidates all invariants."""
    intervals = [(parse_float(a), parse_float(b)) for a, b in payload["intervals"]]
    heights = parse_float_list(payload["heights"])
    eps = parse_float(payload["eps"])
    if len(heights) != len(intervals):
        raise ValidationError("instance payload: heights and intervals disagree")
    bumps = tuple(
        Bump(
            center=(a + b) / 2.0,
            half_width=(b - a) / 2.0,
            height=h,
            ramp=eps,
        )
        for (a, b), h in zip(intervals, heights)
    )
    return BumpInstance(
        m=int(payload["m"]),
        bumps=bumps,
        eps=eps,
        gap_mass=parse_float(payload["gap_mass"]),
        nu=parse_float(payload["nu"]),
        intervals=tuple(intervals),
    )
