"""Moment-preserving height evolution.

Widening every ramp at unit speed changes the tracked even pushforward
moments; the flow direction cancels that change exactly by solving the linear
system v' A Z B = b', where Z collects the left-half bump moments at even
orders, b collects (minus) their ramp-width derivatives, A = diag(1/h_i) and
B = diag(2, 4, ..., m-1).  The flow's trajectory is therefore the branch
mu(h, eps) = mu(h0, eps0) through the initial heights, along which the
maximum slope max|h_i| / ramp shrinks.

evolve follows that branch by predictor-corrector continuation: a tangent
step along the current direction to the next ramp width, then Newton on the
tracked moments (the column sums of Z) with Jacobian (k / h) Z'.  The step
in eps doubles after an accepted step and halves when the corrector fails
to converge or leaves a direction that is not finite.  Each flow state is
assembled once; its system gives the residual, sigma_min and the next
direction.  The same corrector, run to 1e-13 relative, is the optional final
polish reported separately in the trace.

Guards: the initial direction solve aborts (ConditioningBreakdown) when the
smallest singular value of Z falls under a floor proportional to its norm;
the horizon is capped so bump supports keep a positive separation margin;
runs stop if any height approaches zero, or at a fold, where the step halves
below a floor.  A fold names the two bumps whose scaled Jacobian columns are
nearest parallel, and the run never steps past the last solved state.
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
_STEP_TOL = 1e-10  # corrector tolerance per step, relative to max(1, max|mu0|)
_POLISH_TOL = 1e-13  # final polish tolerance when project=True
_NEWTON_MAX = 8  # Newton steps per corrector call
_STEP_FLOOR = 1e-12  # end the run once a cut step is below this share of eps
_SIGMA_FLOOR_FACTOR = 1e-12  # abort when sigma_min(Z) < this * sigma_max(Z)
_COLLISION_FRACTION = 0.1  # supports keep this share of their initial gap
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
    left = inst.bumps[: inst.half]
    heights = np.array([b.height for b in left])
    if np.any(heights == 0.0):
        raise ValidationError("system assembly requires nonzero heights")
    orders = np.arange(2, inst.m, 2)
    Z = np.array([bump_moment(bump, orders) for bump in left])
    deps = np.array([bump_moment_deps(bump, orders) for bump in left])
    if not np.all(np.isfinite(Z)) or not np.all(np.isfinite(deps)):
        raise ValidationError("non-finite moment encountered in system assembly")
    b = -deps.sum(axis=0)
    singular = np.linalg.svd(Z, compute_uv=False)
    return FlowSystem(
        Z=Z,
        b=b,
        inv_heights=1.0 / heights,
        moment_orders=orders.astype(float),
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
    orders = np.arange(2, inst.m, 2)
    return np.sum([bump_moment(b, orders) for b in inst.bumps[: inst.half]], axis=0)


@dataclass(frozen=True)
class SlopeTarget:
    """Stopping rule: either a final ramp width or a maximum slope."""

    eps_target: float | None = None
    slope_target: float | None = None

    def __post_init__(self):
        if (self.eps_target is None) == (self.slope_target is None):
            raise ValidationError("specify exactly one of eps_target, slope_target")
        if self.eps_target is not None and not self.eps_target > 0.0:
            raise ValidationError("eps_target must be positive")
        if self.slope_target is not None and not self.slope_target > 0.0:
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
    newton_iterations: list[int] = field(default_factory=list)
    step_cuts: int = 0  # rejected continuation steps
    target_reached: bool = False
    stop_reason: str = ""
    projection_applied: bool = False
    residual_before_projection: float = math.nan
    residual_after_projection: float = math.nan

    def record(
        self, t, eps, h, sigma_min, residual, step, direction_norm, newton_iterations
    ):
        self.times.append(float(t))
        self.eps_values.append(float(eps))
        self.heights.append(np.array(h, dtype=float))
        self.sigma_mins.append(float(sigma_min))
        self.moment_residuals.append(np.array(residual, dtype=float))
        self.step_sizes.append(float(step))
        self.direction_norms.append(float(direction_norm))
        self.newton_iterations.append(int(newton_iterations))

    def max_moment_drift(self) -> float:
        return float(max(np.max(r) for r in self.moment_residuals))


def _jacobian(system: FlowSystem) -> np.ndarray:
    """d mu_l / d h_i = (2l / h_i) Z[i, l]."""
    return (system.moment_orders[:, None] * system.Z.T) * system.inv_heights[None, :]


def _correct(
    state: BumpInstance, system: FlowSystem, mu0: np.ndarray, tol: float
) -> tuple[BumpInstance, FlowSystem, float, int]:
    """Newton on the tracked moments, the column sums of Z, at the state's
    ramp width.  A Newton step is kept only if it lowers the residual; returns
    the best state, its system, its max-abs residual and the steps kept."""
    resid = system.Z.sum(axis=0) - mu0
    norm = float(np.max(np.abs(resid)))
    for kept in range(_NEWTON_MAX):
        if norm <= tol:
            return state, system, norm, kept
        heights = state.left_heights() - np.linalg.solve(_jacobian(system), resid)
        trial = state.with_state(heights, state.eps)
        trial_system = build_system(trial)
        trial_resid = trial_system.Z.sum(axis=0) - mu0
        trial_norm = float(np.max(np.abs(trial_resid)))
        if not trial_norm < norm:
            return state, system, norm, kept
        state, system, resid, norm = trial, trial_system, trial_resid, trial_norm
    return state, system, norm, _NEWTON_MAX


def evolve(
    inst: BumpInstance, target: SlopeTarget, *, project: bool = True
) -> tuple[BumpInstance, EvolutionTrace]:
    """Follow the conserved-moment branch from the instance's current state.

    Stops at the earliest of: target reached, support-collision budget
    exhausted (the horizon is capped so supports keep a tenth of their
    initial gap), a vanishing height, or a fold: the corrector fails at every
    step above the floor.  Short of the target, the last solved state is
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

    trace = EvolutionTrace()
    t = 0.0
    state = inst
    system = build_system(state)
    w = _solve_direction(system, t, _SIGMA_FLOOR_FACTOR)
    mu0 = system.Z.sum(axis=0)
    residual_scale = max(1.0, float(np.max(np.abs(mu0))))
    trace.record(
        t, eps0, inst.left_heights(), system.sigma_min, np.zeros_like(mu0), 0.0,
        np.max(np.abs(w)), 0,
    )

    step = eps0
    for _ in range(_MAX_STEPS):
        t_stop = t_cap
        if target.slope_target is not None:
            peak = float(np.max(np.abs(state.left_heights())))
            if peak / state.eps <= target.slope_target:
                trace.target_reached = True
                trace.stop_reason = "target-reached"
                break
            # Just past the width at which the current heights meet the slope
            # target, so rounding cannot leave the slope a hair above it.
            t_stop = min(t_cap, peak / (target.slope_target * (1.0 - 1e-9)) - eps0)
        if t >= t_cap:
            trace.target_reached = t_request <= t_guard
            trace.stop_reason = (
                "target-reached" if trace.target_reached else "collision-guard"
            )
            break
        step = min(step, t_stop - t)
        t_new = t + step
        predicted = state.with_state(state.left_heights() + step * w, eps0 + t_new)
        new_state, new_system, norm, iterations = _correct(
            predicted, build_system(predicted), mu0, _STEP_TOL * residual_scale
        )
        # No conditioning floor here: the corrector alone judges the step, and
        # a direction that is not finite, which would poison the next
        # predictor, counts as a failed one.
        converged = norm <= _STEP_TOL * residual_scale
        if converged:
            w_new = _solve_direction(new_system, t_new, 0.0)
            converged = bool(np.all(np.isfinite(w_new)))
        if not converged:
            trace.step_cuts += 1
            step /= 2.0
            if step >= _STEP_FLOOR * state.eps:
                continue
            # The fold's bumps, 1-based from the outermost left one, carry the
            # largest entries of the smallest right singular vector of the
            # Jacobian with unit-norm columns at the last solved state.
            jac = _jacobian(system)
            null = np.linalg.svd(jac / np.linalg.norm(jac, axis=0))[2][-1]
            i, j = sorted(np.argsort(np.abs(null))[-2:] + 1)
            trace.stop_reason = f"fold: bumps {i} and {j}"
            break
        if float(np.min(np.abs(new_state.left_heights()))) < _HEIGHT_FLOOR:
            trace.stop_reason = "guard:height-vanishing"
            break

        t, state, system, w = t_new, new_state, new_system, w_new
        trace.record(
            t, eps0 + t, state.left_heights(), system.sigma_min,
            np.abs(system.Z.sum(axis=0) - mu0), step, np.max(np.abs(w)), iterations,
        )
        step *= 2.0
    else:
        trace.stop_reason = "max-steps"

    if project and len(trace.times) > 1:
        before = float(np.max(trace.moment_residuals[-1]))
        state, _, after, _ = _correct(state, system, mu0, _POLISH_TOL * residual_scale)
        trace.projection_applied = True
        trace.residual_before_projection = before / residual_scale
        trace.residual_after_projection = after / residual_scale
    return state, trace


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
