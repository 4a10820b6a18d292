"""Moment-preserving height evolution.

Widening every ramp at unit speed changes the tracked even pushforward
moments; the flow direction cancels that change exactly by solving the linear
system v' A Z B = b', where Z collects the left-half bump moments at even
orders, b collects (minus) their ramp-width derivatives, A = diag(1/h_i) and
B = diag(2, 4, ..., m-1).  Integrating heights along that direction with an
embedded Runge-Kutta 4(5) pair keeps the moments constant while the maximum
slope max|h_i| / ramp shrinks.

Each flow state is assembled once: its system gives the direction, sigma_min
and the tracked moments (the column sums of Z), and the direction at an
accepted step's end point is the first stage of the next trial step, so an
accepted step costs six systems.

Guards: the solve aborts (ConditioningBreakdown) when the smallest singular
value of Z falls under a floor proportional to its norm; the horizon is
capped so bump supports keep a positive separation margin; runs abort if any
height approaches zero or the direction magnitude explodes.  An optional
Newton correction after integration repays the integrator's O(tol) moment
drift down to machine precision and is reported separately in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bumps import BumpInstance, bump_moment, bump_moment_deps
from .errors import (
    ConditioningBreakdown,
    SupportCollisionError,
    ValidationError,
)

__all__ = [
    "FlowSystem",
    "SlopeTarget",
    "EvolutionTrace",
    "VandermondeCheck",
    "build_system",
    "flow_direction",
    "moment_vector",
    "evolve",
    "vandermonde_sigma_check",
]

_HEIGHT_FLOOR = 1e-9  # A(h) is singular at h = 0; abort well before that.
_RTOL = _ATOL = 1e-10  # per-step local error tolerance on the heights
_SIGMA_FLOOR_FACTOR = 1e-12  # abort when sigma_min(Z) < this * sigma_max(Z)
_COLLISION_FRACTION = 0.1  # supports keep this share of their initial gap
_DIRECTION_CEILING = 1e8  # abort once max |v| exceeds this
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class FlowSystem:
    """Assembled linear system at one flow state (left half only)."""

    Z: np.ndarray
    b: np.ndarray
    inv_heights: np.ndarray
    moment_orders: np.ndarray
    sigma_min: float
    sigma_max: float


def build_system(inst: BumpInstance) -> FlowSystem:
    """Fill Z, b, A, B from the instance's left-half bumps.

    Z[i, l] is the (2l+2)-nd moment of bump i; b[l] is minus the sum of the
    ramp-width derivatives at that order.
    """
    if inst.eps <= 0.0:
        raise ValidationError("system assembly requires a positive ramp width")
    half = inst.half
    left = inst.bumps[:half]
    heights = np.array([b.height for b in left])
    if np.any(heights == 0.0):
        raise ValidationError("system assembly requires nonzero heights")
    orders = np.arange(2, inst.m, 2, dtype=float)
    Z = np.empty((half, half))
    deps = np.empty((half, half))
    for i, bump in enumerate(left):
        for l, k in enumerate(orders):
            Z[i, l] = bump_moment(bump, int(k))
            deps[i, l] = bump_moment_deps(bump, int(k))
    if not np.all(np.isfinite(Z)) or not np.all(np.isfinite(deps)):
        raise ValidationError("non-finite moment encountered in system assembly")
    b = -deps.sum(axis=0)
    singular = np.linalg.svd(Z, compute_uv=False)
    return FlowSystem(
        Z=Z,
        b=b,
        inv_heights=1.0 / heights,
        moment_orders=orders,
        sigma_min=float(singular[-1]),
        sigma_max=float(singular[0]),
    )


def flow_direction(
    t: float,
    left_heights: np.ndarray,
    inst: BumpInstance,
    sigma_floor_factor: float = _SIGMA_FLOOR_FACTOR,
) -> np.ndarray:
    """Height velocity v with nabla_{(v,1)} mu = 0 at (left_heights, eps0 + t).

    Solves v' A Z B = b' through the transposed system; raises
    ConditioningBreakdown when sigma_min(Z) is under floor_factor * ||Z||.
    """
    if t < 0.0:
        raise ValidationError("flow time must be nonnegative")
    state = inst.with_state(np.asarray(left_heights, dtype=float), inst.eps + t)
    system = build_system(state)
    return _solve_direction(system, t, sigma_floor_factor)


def _solve_direction(system: FlowSystem, t: float, sigma_floor_factor: float) -> np.ndarray:
    floor = sigma_floor_factor * system.sigma_max
    if system.sigma_min < floor:
        raise ConditioningBreakdown(t=t, sigma_min=system.sigma_min, floor=floor)
    y = np.linalg.solve(system.Z.T, system.b / system.moment_orders)
    return y / system.inv_heights


def moment_vector(inst: BumpInstance) -> np.ndarray:
    """Tracked functional: left-half sums of even bump moments 2, ..., m-1."""
    half = inst.half
    return np.array(
        [
            sum(bump_moment(b, k) for b in inst.bumps[:half])
            for k in range(2, inst.m, 2)
        ]
    )


@dataclass(frozen=True)
class SlopeTarget:
    """Stopping rule: either a final ramp width or a maximum slope."""

    eps_target: float | None = None
    slope_target: float | None = None

    def __post_init__(self):
        if (self.eps_target is None) == (self.slope_target is None):
            raise ValidationError("specify exactly one of eps_target, slope_target")
        if self.eps_target is not None and self.eps_target <= 0.0:
            raise ValidationError("eps_target must be positive")
        if self.slope_target is not None and self.slope_target <= 0.0:
            raise ValidationError("slope_target must be positive")


@dataclass
class EvolutionTrace:
    """Per-accepted-step record of the flow, plus run-level flags."""

    times: list[float] = field(default_factory=list)
    eps_values: list[float] = field(default_factory=list)
    heights: list[np.ndarray] = field(default_factory=list)
    sigma_mins: list[float] = field(default_factory=list)
    moment_residuals: list[np.ndarray] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    direction_norms: list[float] = field(default_factory=list)
    target_reached: bool = False
    stop_reason: str = ""
    projection_applied: bool = False
    residual_before_projection: float = math.nan
    residual_after_projection: float = math.nan

    def record(self, t, eps, h, sigma_min, residual, step, direction_norm):
        self.times.append(float(t))
        self.eps_values.append(float(eps))
        self.heights.append(np.array(h, dtype=float))
        self.sigma_mins.append(float(sigma_min))
        self.moment_residuals.append(np.array(residual, dtype=float))
        self.step_sizes.append(float(step))
        self.direction_norms.append(float(direction_norm))

    def max_moment_drift(self) -> float:
        return float(max(np.max(r) for r in self.moment_residuals))

    def max_height_drift(self) -> float:
        first = self.heights[0]
        return float(max(np.max(np.abs(h - first)) for h in self.heights))


# Fehlberg 4(5) tableau; the fifth-order solution is propagated and the
# difference to the fourth-order one estimates the local error.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def _rkf45_step(rhs, t, y, h, k0):
    """One Fehlberg trial step from (t, y) given k0 = rhs(t, y); returns (y5, error_vector)."""
    k = [k0]
    for stage in range(1, 6):
        incr = sum(a * ki for a, ki in zip(_RKF_A[stage], k))
        k.append(rhs(t + _RKF_C[stage] * h, y + h * incr))
    y5 = y + h * sum(b * ki for b, ki in zip(_RKF_B5, k))
    y4 = y + h * sum(b * ki for b, ki in zip(_RKF_B4, k))
    return y5, y5 - y4


def evolve(
    inst: BumpInstance, target: SlopeTarget, *, project: bool = True
) -> tuple[BumpInstance, EvolutionTrace]:
    """Integrate the height flow from the instance's current state.

    Stops at the earliest of: target reached, support-collision budget
    exhausted (the horizon is capped so supports keep a tenth of their
    initial gap), or a conditioning/height/direction guard.  Guards
    before any progress raise; after progress the last valid state is
    returned with target_reached False and the reason recorded.
    """
    if inst.eps <= 0.0:
        raise ValidationError("evolution requires a positive initial ramp width")
    eps0 = inst.eps

    min_gap0 = float(np.min(inst.support_gaps()))
    t_guard = 0.5 * (1.0 - _COLLISION_FRACTION) * min_gap0
    if target.eps_target is not None:
        if target.eps_target < eps0:
            raise ValidationError("eps_target must be >= current ramp width")
        t_request = target.eps_target - eps0
    else:
        t_request = math.inf
    t_cap = min(t_request, t_guard)
    if t_cap <= 0.0 and t_request > 0.0:
        i = int(np.argmin(inst.support_gaps()))
        raise SupportCollisionError(i, i + 1, min_gap0)

    def evaluate(t: float, h_left: np.ndarray) -> tuple[FlowSystem, np.ndarray]:
        system = build_system(inst.with_state(h_left, eps0 + t))
        return system, _solve_direction(system, t, _SIGMA_FLOOR_FACTOR)

    trace = EvolutionTrace()

    def slope_at(h_left: np.ndarray, eps: float) -> float:
        return float(np.max(np.abs(h_left))) / eps

    t = 0.0
    y = inst.left_heights().copy()
    system, w = evaluate(t, y)
    mu0 = system.Z.sum(axis=0)
    residual_scale = max(1.0, float(np.max(np.abs(mu0))))
    trace.record(t, eps0, y, system.sigma_min, np.zeros_like(mu0), 0.0, np.max(np.abs(w)))

    if t_request == 0.0 or (
        target.slope_target is not None and slope_at(y, eps0) <= target.slope_target
    ):
        trace.target_reached = True
        trace.stop_reason = "target-at-start"
        return inst, trace

    max_step = t_cap / 20.0 if math.isfinite(t_cap) else t_guard / 20.0
    h = max_step / 10.0
    h_min = max(t_cap * 1e-14, 1e-18)
    stop_reason = ""
    reached = False

    for _ in range(_MAX_STEPS):
        if t >= t_cap:
            stop_reason = (
                "target-reached" if t_request <= t_guard else "collision-guard"
            )
            reached = t_request <= t_guard
            break
        h = min(h, max_step, t_cap - t)
        t_new = t + h
        try:
            y_new, err = _rkf45_step(lambda s, v: evaluate(s, v)[1], t, y, h, w)
            scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
            if err_norm > 1.0 and h > h_min:
                h = max(h * max(0.2, 0.9 * err_norm ** -0.2), h_min * 0.99)
                continue
            system_new, w_new = evaluate(t_new, y_new)
        except (ConditioningBreakdown, SupportCollisionError) as guard:
            if h > h_min:
                h = max(h / 2.0, h_min * 0.99)
                continue
            if len(trace.times) <= 1:
                raise
            stop_reason = f"guard:{type(guard).__name__}"
            break
        if system_new.sigma_min < 0.5 * system.sigma_min and h > h_min:
            h = max(h / 2.0, h_min * 0.99)
            continue
        if float(np.min(np.abs(y_new))) < _HEIGHT_FLOOR:
            stop_reason = "guard:height-vanishing"
            break
        if float(np.max(np.abs(w_new))) > _DIRECTION_CEILING:
            stop_reason = "guard:direction-ceiling"
            break

        t, y, system, w = t_new, y_new, system_new, w_new
        resid = np.abs(system.Z.sum(axis=0) - mu0)
        trace.record(t, eps0 + t, y, system.sigma_min, resid, h, np.max(np.abs(w)))
        if target.slope_target is not None and slope_at(y, eps0 + t) <= target.slope_target:
            stop_reason = "target-reached"
            reached = True
            break
        if err_norm > 0.0:
            h = h * min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
    else:
        stop_reason = "max-steps"

    trace.stop_reason = stop_reason or "target-not-reached"
    trace.target_reached = reached

    final = inst.with_state(y, eps0 + t)
    if project and len(trace.times) > 1:
        final, before, after = _project_moments(final, system, mu0)
        trace.projection_applied = True
        trace.residual_before_projection = before / residual_scale
        trace.residual_after_projection = after / residual_scale
    return final, trace


def _project_moments(
    inst: BumpInstance, system: FlowSystem, mu0: np.ndarray
) -> tuple[BumpInstance, float, float]:
    """Newton-correct left-half heights so the tracked moments, the column
    sums of the instance's system Z, match mu0 to 1e-13 relative."""
    resid = system.Z.sum(axis=0) - mu0
    before = float(np.max(np.abs(resid)))
    tol = 1e-13 * max(1.0, float(np.max(np.abs(mu0))))
    for _ in range(8):
        if float(np.max(np.abs(resid))) <= tol:
            break
        # d mu_l / d h_i = (2l / h_i) Z[i, l]
        jac = (system.moment_orders[:, None] * system.Z.T) * system.inv_heights[None, :]
        delta = np.linalg.solve(jac, resid)
        inst = inst.with_state(inst.left_heights() - delta, inst.eps)
        system = build_system(inst)
        resid = system.Z.sum(axis=0) - mu0
    return inst, before, float(np.max(np.abs(resid)))


@dataclass(frozen=True)
class VandermondeCheck:
    """Smallest singular value of a Vandermonde matrix vs. the generic bound."""

    lower_bound: float
    actual: float
    separation: float
    constant: float
    satisfied: bool


def vandermonde_sigma_check(nodes, constant: float = 0.2) -> VandermondeCheck:
    """Build V[i, j] = nodes[j]^i and compare sigma_min against
    (1/n) * (constant * separation)^(n-1)."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if n == 0:
        raise ValidationError("need at least one node")
    if n > 1:
        diffs = np.abs(nodes[:, None] - nodes[None, :])
        separation = float(np.min(diffs[~np.eye(n, dtype=bool)]))
        if separation == 0.0:
            raise ValidationError("nodes must be pairwise distinct")
    else:
        separation = math.inf
    V = nodes[None, :] ** np.arange(n)[:, None]
    actual = float(np.linalg.svd(V, compute_uv=False)[-1])
    lower = (1.0 / n) * (constant * separation) ** (n - 1) if n > 1 else 1.0
    return VandermondeCheck(
        lower_bound=lower,
        actual=actual,
        separation=separation,
        constant=constant,
        satisfied=actual >= lower,
    )
