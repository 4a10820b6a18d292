"""Exception hierarchy shared across the package.

Validation errors signal broken contracts or corrupted inputs; numeric guard
errors signal that a computation left the regime where its answer would be
meaningful (ill-conditioned solves, colliding bump supports, quadrature that
cannot reach its target).
"""

from __future__ import annotations


class MomentForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(MomentForgeError, ValueError):
    """Inputs violate a documented precondition or a stored invariant."""


class NumericGuardError(MomentForgeError, RuntimeError):
    """A runtime numeric guard fired; the result would be meaningless."""


class ConditioningBreakdown(NumericGuardError):
    """The moment matrix became too ill-conditioned to solve.

    Carries the flow time and the offending smallest singular value so the
    caller can see where the well-conditioned neighborhood was exited.
    """

    def __init__(self, t: float, sigma_min: float, floor: float):
        self.t = t
        self.sigma_min = sigma_min
        self.floor = floor
        super().__init__(
            f"sigma_min(Z) = {sigma_min:.3e} fell below floor {floor:.3e} at t = {t:.6e}"
        )


class SupportCollisionError(NumericGuardError):
    """Two bump supports touched (or would touch) after widening."""

    def __init__(self, left_index: int, right_index: int, gap: float):
        self.left_index = left_index
        self.right_index = right_index
        self.gap = gap
        super().__init__(
            f"supports of bumps {left_index} and {right_index} collide (gap = {gap:.3e})"
        )


class QuadratureError(NumericGuardError):
    """Adaptive integration exhausted its budget before reaching tolerance."""

    def __init__(self, achieved: float, target: float):
        self.achieved = achieved
        self.target = target
        super().__init__(
            f"quadrature reached {achieved:.3e}, target was {target:.3e}"
        )


class SeriesTruncationError(NumericGuardError):
    """A Hermite series needs more terms than its ceiling to certify its
    tolerance."""

    def __init__(self, terms: float, ceiling: int):
        self.terms = terms
        super().__init__(f"series needs K = {terms:.4g} terms; ceiling {ceiling}")
