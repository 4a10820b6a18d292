"""JSON persistence with bit-exact floating point round-trips.

All reals are serialized as shortest-round-trip decimal strings (repr of a
Python float), which reload to the identical 64-bit value on any platform.
Files carry a schema tag and are revalidated on load.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from pathlib import Path

import numpy as np

from .bumps import Bump, BumpInstance
from .errors import SupportCollisionError, ValidationError
from .gaussian import ReducedRule

SCHEMA = "moment-forge/1"

__all__ = [
    "SCHEMA",
    "fnum",
    "fnum_list",
    "parse_float",
    "parse_float_list",
    "replacing",
    "fields_of",
    "dump_json",
    "load_json",
    "instance_payload",
    "instance_from_payload",
    "reduced_rule_payload",
    "reduced_rule_from_payload",
]


def fnum(x) -> str:
    """Encode one real as its shortest round-trip decimal string."""
    return repr(float(x))


def fnum_list(xs) -> list[str]:
    return [fnum(x) for x in np.asarray(xs, dtype=float).ravel()]


def parse_float(s) -> float:
    return float(s)


def parse_float_list(xs) -> list[float]:
    # A string is iterable too: "10" would read as [1.0, 0.0].
    if isinstance(xs, str):
        raise ValidationError(f"expected a list of numbers, got {xs!r}")
    return [float(x) for x in xs]


@contextlib.contextmanager
def replacing(path: str | Path, size: int | None = None):
    """A binary handle whose bytes replace the file at path only once the
    block completes; on failure path is left as it was.  A device or pipe
    has nothing to keep and is written directly; a symlink is followed.

    Given size, the artifact's final byte count, the temporary file is
    reserved with posix_fallocate before the first byte is written, so a
    disk that cannot hold it fails here (ENOSPC, EFBIG) and not part way
    through.  A reserved file already has its full length, so the block
    must write exactly size bytes: any other count raises ValueError, and
    path is left as it was rather than receive a zero tail.  Where the
    filesystem has no native reservation, glibc emulates it by writing one
    byte per block first; a platform without posix_fallocate, or a
    filesystem that refuses it (EOPNOTSUPP, EINVAL), is written unreserved.

    The reservation trades crash safety for speed.  ext4 with delayed
    allocation guards a rename over an existing file (auto_da_alloc): it
    writes back the new file's still unallocated blocks inside the rename,
    so that after a power loss path holds the old bytes or the new.  A
    reserved file has no unallocated blocks, so the rename skips that
    writeback, and a power loss before the kernel writes the data back can
    leave path at its full length but reading as zeros.  Readers that run
    meanwhile still see only the old file or the complete new one.  So
    only a caller whose file can be written again passes size, and where a
    power loss must not cost the file, sync(1) after it returns."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.part")
    fh = open(tmp, "xb")
    try:
        with fh:
            if size:
                _reserve(fh, size)
            yield fh
            if size is not None and fh.tell() != size:
                raise ValueError(
                    f"{path}: wrote {fh.tell()} bytes, expected {size}"
                )
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _reserve(fh, size: int) -> None:
    """Allocate size bytes of the open file fh where the platform and the
    filesystem can."""
    fallocate = getattr(os, "posix_fallocate", None)  # absent on macOS
    if fallocate is None:
        return
    try:
        fallocate(fh.fileno(), 0, size)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
            raise


@contextlib.contextmanager
def fields_of(path: str | Path):
    """Report a file at path that is not JSON, or whose fields are missing,
    mistyped, out of range or describe overlapping supports, as a
    ValidationError that names the file."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, SupportCollisionError) as exc:
        raise ValidationError(
            f"{path}: malformed file ({type(exc).__name__}: {exc})"
        ) from exc


def dump_json(obj: dict, path: str | Path) -> None:
    text = json.dumps(obj, indent=1, sort_keys=False)
    with replacing(path) as fh:
        fh.write(text.encode() + b"\n")


def load_json(path: str | Path) -> dict:
    with fields_of(path):
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
