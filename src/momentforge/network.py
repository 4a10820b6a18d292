"""Compile bump instances into explicit one-hidden-layer ReLU networks and
lift them to the d-dimensional hidden-direction generator.

Each bump becomes four signed ReLU units with breakpoints at its support and
plateau edges; the slope magnitude |height| / ramp is folded into the unit
weights so every unit reads sign * relu(a z + b) with a > 0.  The lift
scales those units by sqrt(1 - sigma^2), so f*(z1, z2) = inner(z1) + sigma z2
is the smoothed map, and applies the Householder reflection taking e_1 to the
hidden direction v, so every output coordinate is
alpha * f*(z1, z2) + <w, (z3, ..., z_{d+1})>.  The reflection is applied as a
rank-1 update, O(d) per row, and never stored as a d x d matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import BumpInstance
from .errors import ValidationError

__all__ = [
    "ReluUnit",
    "ReluNetwork1D",
    "LiftedNetwork",
    "compile_instance",
    "lift",
]


@dataclass(frozen=True)
class ReluUnit:
    """One signed ReLU unit: sign * relu(weight * z + bias)."""

    sign: int
    weight: float
    bias: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValidationError("unit sign must be +1 or -1")
        if not math.isfinite(self.weight) or not math.isfinite(self.bias):
            raise ValidationError("unit parameters must be finite")


@dataclass(frozen=True)
class ReluNetwork1D:
    """One-input ReLU network; evaluation equals the source instance."""

    units: tuple[ReluUnit, ...]

    @property
    def size(self) -> int:
        return len(self.units)

    @property
    def weight_bound(self) -> float:
        """Largest |weight| or |bias| across units (the W of the size/weight
        accounting)."""
        if not self.units:
            return 0.0
        return max(max(abs(u.weight), abs(u.bias)) for u in self.units)

    def eval(self, z):
        """Sum of the signed units, batched over the entries of z."""
        z = np.asarray(z, dtype=float)
        signs = np.array([u.sign for u in self.units], dtype=float)
        weights = np.array([[u.weight for u in self.units]], dtype=float)
        biases = np.array([u.bias for u in self.units], dtype=float)
        column = np.atleast_1d(z).reshape(-1, 1)
        out = (np.maximum(column @ weights + biases, 0.0) * signs).sum(axis=1)
        return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def bump_units(b) -> tuple[ReluUnit, ...]:
    """Four units realizing one bump:
    (|h|/eps) [relu(z-c+e+w) - relu(z-c+w) - relu(z-c-w) + relu(z-c-e-w)],
    with the coefficient magnitude folded into each unit's weight and bias.
    Units are ordered by breakpoint ascending.
    """
    if b.ramp <= 0.0:
        raise ValidationError("cannot compile a ramp-free (discontinuous) bump")
    c, w, e, h = b.center, b.half_width, b.ramp, b.height
    a = abs(h) / e
    hsign = 1 if h >= 0 else -1
    units = []
    for offset, term_sign in (
        (-c + e + w, 1),
        (-c + w, -1),
        (-c - w, -1),
        (-c - e - w, 1),
    ):
        units.append(ReluUnit(sign=hsign * term_sign, weight=a, bias=a * offset))
    return tuple(units)


def compile_instance(inst: BumpInstance) -> ReluNetwork1D:
    """Emit 4 units per bump, bump index ascending, breakpoint ascending, so
    exports are reproducible byte for byte."""
    if inst.eps <= 0.0:
        raise ValidationError("cannot compile the discontinuous ramp-free limit")
    units: list[ReluUnit] = []
    for b in inst.bumps:
        units.extend(bump_units(b))
    return ReluNetwork1D(units=tuple(units))


@dataclass(frozen=True)
class LiftedNetwork:
    """Generator R^{d+1} -> R^d realizing the hidden-direction pushforward.

    inner holds the compiled units scaled by sqrt(1 - sigma^2), so
    f*(z1, z2) = inner(z1) + sigma z2, and the output is H x for
    x = (f*(z1, z2), z3, ..., z_{d+1}) and H = I - 2 u u' / |u|^2 with
    u = e_1 - v, the reflection sending e_1 to v.
    """

    v: np.ndarray
    sigma: float
    inner: ReluNetwork1D

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValidationError(f"sigma must lie in (0,1), got {self.sigma}")
        # Spelled so that a NaN norm is refused too.
        if not abs(np.linalg.norm(self.v) - 1.0) <= 1e-12:
            raise ValidationError("direction must be a unit vector")

    @property
    def d(self) -> int:
        return self.v.size

    def size_report(self) -> dict:
        """Per-coordinate size: the inner units, and the pure-ReLU count that
        also writes sigma z2 and the orthogonal part as relu(x) - relu(-x)."""
        units = self.inner.size
        return {"inner_relu_units": units, "per_coordinate_pure_relu": units + 4}

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        batch = np.atleast_2d(z)
        if batch.shape[1] != self.d + 1:
            raise ValidationError(
                f"expected {self.d + 1} input coordinates, got {batch.shape[1]}"
            )
        fstar = self.inner.eval(batch[:, 0]) + self.sigma * batch[:, 1]
        out = np.concatenate([fstar[:, None], batch[:, 2:]], axis=1)
        u = -self.v
        u[0] += 1.0
        nrm2 = float(np.einsum("i,i->", u, u))
        # H x = x - (2 / |u|^2) (x.u) u, and x when v = e_1.  x.u is an
        # einsum, so its rounding does not depend on the BLAS thread count.
        if nrm2 >= 1e-24:
            out -= np.outer(np.einsum("ij,j->i", out, u) * (2.0 / nrm2), u)
        return out[0] if z.ndim == 1 else out


def lift(net: ReluNetwork1D, sigma: float, d: int, v: np.ndarray) -> LiftedNetwork:
    """Lift the 1-D network to the d-dimensional hidden-direction generator,
    its units scaled by sqrt(1 - sigma^2)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValidationError(f"direction must have dimension {d}")
    # LiftedNetwork refuses a sigma outside (0, 1); the clamp only keeps the
    # root defined until it does.
    scale = math.sqrt(max(0.0, 1.0 - sigma * sigma))
    inner = ReluNetwork1D(
        units=tuple(
            ReluUnit(sign=u.sign, weight=scale * u.weight, bias=scale * u.bias)
            for u in net.units
        )
    )
    return LiftedNetwork(v=v, sigma=sigma, inner=inner)
