"""Compile bump instances into explicit one-hidden-layer ReLU networks,
attach the Gaussian-smoothing second input, and lift to the d-dimensional
hidden-direction generator.

Each bump becomes four signed ReLU units with breakpoints at its support and
plateau edges; the slope magnitude |height| / ramp is folded into the unit
weights so every unit reads sign * relu(a z + b) with a > 0.  The smoothed
map (z1, z2) -> sqrt(1 - sigma^2) f(z1) + sigma z2 keeps the pass-through
coordinate as an explicit linear term by default (an optional strict mode
emits it as a ReLU pair for size accounting).  The lift applies a Householder
reflection taking e_1 to the hidden direction, so every output coordinate is
alpha * f*(z1, z2) + <u, (z3, ..., z_{d+1})>.
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
    "SmoothedNetwork",
    "LiftedNetwork",
    "compile_instance",
    "smooth_inner",
    "lift",
    "householder_rotation",
]


@dataclass(frozen=True)
class ReluUnit:
    """One signed ReLU unit: sign * relu(<weights, x> + bias)."""

    sign: int
    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValidationError("unit sign must be +1 or -1")
        if not all(math.isfinite(w) for w in self.weights) or not math.isfinite(self.bias):
            raise ValidationError("unit parameters must be finite")


def _unit_arrays(units: tuple[ReluUnit, ...]):
    signs = np.array([u.sign for u in units], dtype=float)
    W = np.array([u.weights for u in units], dtype=float)
    b = np.array([u.bias for u in units], dtype=float)
    return signs, W, b


def _forward(units: tuple[ReluUnit, ...], linear: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    """Sum of signed ReLU units plus a linear term, batched over rows of z."""
    out = np.zeros(z.shape[0])
    if units:
        signs, W, b = _unit_arrays(units)
        out = out + (np.maximum(z @ W.T + b, 0.0) * signs).sum(axis=1)
    if linear:
        out = out + z @ np.asarray(linear)
    return out


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
        return max(max(abs(u.weights[0]), abs(u.bias)) for u in self.units)

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        out = _forward(self.units, (), np.atleast_1d(z).reshape(-1, 1))
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
        units.append(ReluUnit(sign=hsign * term_sign, weights=(a,), bias=a * offset))
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
class SmoothedNetwork:
    """Two-input map sqrt(1-sigma^2) f(z1) + sigma z2.

    The z2 pass-through lives in `linear` unless the network was built in
    strict mode, in which case it is a ReLU pair and `linear` is empty.
    """

    units: tuple[ReluUnit, ...]
    linear: tuple[float, float]
    sigma: float

    @property
    def size(self) -> int:
        return len(self.units)

    @property
    def relu_size_strict(self) -> int:
        """Unit count with linear terms expanded as relu(x) - relu(-x)."""
        return len(self.units) + 2 * sum(1 for c in self.linear if c != 0.0)

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        batch = np.atleast_2d(z)
        if batch.shape[1] != 2:
            raise ValidationError("smoothed network expects 2 input coordinates")
        out = _forward(self.units, self.linear, batch)
        return float(out[0]) if z.ndim == 1 else out


def smooth_inner(net: ReluNetwork1D, sigma: float, strict: bool = False) -> SmoothedNetwork:
    """Scale the inner network by sqrt(1-sigma^2) and add the sigma z2 term."""
    if not 0.0 < sigma < 1.0:
        raise ValidationError(f"sigma must lie in (0,1), got {sigma}")
    scale = math.sqrt(1.0 - sigma * sigma)
    units = [
        ReluUnit(sign=u.sign, weights=(scale * u.weights[0], 0.0), bias=scale * u.bias)
        for u in net.units
    ]
    if strict:
        units.append(ReluUnit(sign=1, weights=(0.0, sigma), bias=0.0))
        units.append(ReluUnit(sign=-1, weights=(0.0, -sigma), bias=0.0))
        linear = (0.0, 0.0)
    else:
        linear = (0.0, sigma)
    return SmoothedNetwork(units=tuple(units), linear=linear, sigma=sigma)


def householder_rotation(v: np.ndarray) -> np.ndarray:
    """Orthogonal map sending e_1 to the unit vector v (identity if v = e_1)."""
    v = np.asarray(v, dtype=float)
    d = v.size
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValidationError("direction must be a unit vector")
    e1 = np.zeros(d)
    e1[0] = 1.0
    u = e1 - v
    nrm2 = float(u @ u)
    if nrm2 < 1e-24:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(u, u) / nrm2


@dataclass(frozen=True)
class LiftedNetwork:
    """Generator R^{d+1} -> R^d realizing the hidden-direction pushforward.

    Output j is rotation[j, 0] * inner(z1, z2) + <rotation[j, 1:], z[3:]>.
    """

    d: int
    v: np.ndarray
    sigma: float
    inner: SmoothedNetwork
    rotation: np.ndarray

    def size_report(self) -> dict:
        """Per-coordinate size under both accounting conventions."""
        inner_units = self.inner.size
        inner_strict = self.inner.relu_size_strict
        return {
            "inner_relu_units": inner_units,
            "inner_relu_units_strict": inner_strict,
            "per_coordinate_with_linear_terms": inner_units,
            "per_coordinate_pure_relu": inner_strict + 2,
        }

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        batch = np.atleast_2d(z)
        if batch.shape[1] != self.d + 1:
            raise ValidationError(
                f"expected {self.d + 1} input coordinates, got {batch.shape[1]}"
            )
        fstar = _forward(self.inner.units, self.inner.linear, batch[:, :2])
        stacked = np.concatenate([fstar[:, None], batch[:, 2:]], axis=1)
        out = stacked @ self.rotation.T
        return out[0] if z.ndim == 1 else out


def lift(
    net: ReluNetwork1D,
    sigma: float,
    d: int,
    v: np.ndarray,
    strict: bool = False,
) -> LiftedNetwork:
    """Lift the 1-D network to the d-dimensional hidden-direction generator."""
    if d < 2:
        raise ValidationError("ambient dimension must be >= 2")
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValidationError(f"direction must have dimension {d}")
    rotation = householder_rotation(v)
    inner = smooth_inner(net, sigma, strict=strict)
    return LiftedNetwork(d=d, v=v, sigma=sigma, inner=inner, rotation=rotation)
