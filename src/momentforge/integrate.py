"""Panel-based adaptive Gauss-Legendre integration on tensor panels.

One routine refines panels on one or two axes: a panel's error estimate is
the gap between its order-n and order-2n tensor rules, and the worst panel
is halved across its widest side until the summed estimate meets the
tolerance.  An estimate that is not finite (a NaN or infinite integrand
value) raises QuadratureError.  The returned error adds a rounding floor,
ROUNDING_ULPS machine epsilons of each final panel's sum of |w f|, so a
converged integral never claims less error than its own rounding;
refinement ignores the floor.
panel_integrate_1d and panel_integrate_2d are its two entry points.  The
verification integrands are smooth inside panels whose edges align with the
comb features of the smoothed pushforward density (teeth of width sigma
around the scaled plateau heights), so refinement converges fast and
deterministically.

Integrands are vectorized and get one node vector per axis: a 2-D integrand
f(gx, gy) returns the len(gx) x len(gy) grid f(gx[i], gy[j]).  One call per
order covers a row: one panel's nodes on each leading axis and the joined
nodes of all listed last-axis panels (every panel at first, then one box
with its split side halved).  Within one sweep (the first one, or one
refinement), every row of an order gets the same last-axis node array
object, so an integrand may compute a factor of the last coordinate, like
L(x') in the verification integrand, once per sweep and order by keeping
it for that object; a factor of a leading coordinate is computed per row.

An integrand may add a trailing output axis, one entry per row of a
vector-valued integral (say the Hermite projections h_0..h_K of one query
function); the value is then that vector and a panel's error the largest
gap over its rows.  Scalar integrals are unchanged bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import QuadratureError, ValidationError

__all__ = ["Estimate", "panel_integrate_1d", "panel_integrate_2d", "feature_breakpoints"]

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
ROUNDING_ULPS = 4
# feature_breakpoints brackets each feature at these multiples of its width.
FEATURE_OFFSETS = (1.0, 6.0)


class Estimate(float):
    """A float that carries the absolute error estimate of its computation."""

    error: float

    def __new__(cls, value: float, error: float):
        out = super().__new__(cls, value)
        out.error = float(error)
        return out


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULES:
        x, w = np.polynomial.legendre.leggauss(order)
        _RULES[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _RULES[order]


def feature_breakpoints(
    lo: float, hi: float, features, width: float, jumps=()
) -> np.ndarray:
    """Sorted panel edges on [lo, hi]: the bounds plus each feature point
    bracketed at FEATURE_OFFSETS multiples of its width, plus the jump
    points (where the integrand is discontinuous) themselves."""
    edges = {lo, hi} | {float(j) for j in jumps if lo < j < hi}
    for f in np.atleast_1d(np.asarray(features, dtype=float)):
        for mult in FEATURE_OFFSETS:
            for edge in (f - mult * width, f + mult * width):
                if lo < edge < hi:
                    edges.add(float(edge))
        if lo < f < hi:
            edges.add(float(f))
    return np.array(sorted(edges))


def _panel_integrate(f, breaks, tol_abs: float, order: int, max_panels: int):
    """Integrate f over the tensor product of the per-axis breaks (one or two
    axes), refining the worst panel across its widest side, the first such
    axis on a tie.  f gets one node vector per axis; the weights contract
    its grid of values one axis at a time, leading axis first, and leave
    any trailing output axis."""
    axes = []
    for edges in breaks:
        edges = np.asarray(edges, dtype=float)
        if edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValidationError("breakpoints must be ascending with >= 2 entries")
        axes.append([(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])])
    # (-err, tie-break, box, value, rounding floor)
    heap: list[tuple[float, int, tuple[tuple[float, float], ...], float, float]] = []
    counter = itertools.count()
    total = 0.0
    total_err = 0.0
    rules = (_gl_rule(order), _gl_rule(2 * order))

    def sweep(panels):
        """Queue every box in the product of the per-axis panel lists, with
        one integrand call per row and order (see the module docstring)."""
        nonlocal total, total_err
        *leading, last = panels
        lo, hi = np.array(last).T
        est, magnitudes = [], []
        for xs, ws in rules:
            tail = (lo[:, None] + (hi - lo)[:, None] * xs).ravel()

            def contract(vals, row, per_panel=True):
                for _ in row:
                    flat = np.dot(ws, vals.reshape(xs.size, -1))
                    vals = flat.reshape(vals.shape[1:])
                volume = math.prod(b - a for a, b in row) * (hi - lo)
                sides = np.reshape(vals, (lo.size, xs.size) + vals.shape[1:])
                if per_panel:
                    # One dot per panel, the same sum whichever row it shares.
                    ints = np.array([np.dot(ws, side) for side in sides])
                else:
                    ints = np.tensordot(ws, sides, axes=(0, 1))
                return (volume * ints.T).T

            rows = []
            for row in itertools.product(*leading):
                vals = np.asarray(f(*[a + (b - a) * xs for a, b in row], tail))
                rows.append(contract(vals, row))
                if len(est) == 1:  # the fine rule; its floor need not be exact
                    magnitudes.append(contract(np.abs(vals), row, per_panel=False))
            est.append(np.concatenate(rows))
        coarse, fine = est
        n = fine.shape[0]
        errs = np.abs(fine - coarse).reshape(n, -1).max(axis=1)
        # The weights are positive, so the fine rule's contraction of |f| is
        # each panel's sum of |w f|.
        floors = ROUNDING_ULPS * np.finfo(float).eps * np.concatenate(magnitudes)
        floors = floors.reshape(n, -1).max(axis=1)
        values = fine if fine.ndim > 1 else fine.tolist()
        boxes = itertools.product(*panels)
        for box, err, value, floor in zip(boxes, errs.tolist(), values, floors.tolist()):
            total = total + value
            total_err += err
            heapq.heappush(heap, (-err, next(counter), box, value, floor))

    sweep(axes)
    panels = len(heap)
    while total_err > tol_abs and panels < max_panels:
        neg_err, _, box, fine, _ = heapq.heappop(heap)
        total -= fine
        total_err += neg_err  # neg_err is -err
        widths = [hi - lo for lo, hi in box]
        axis = widths.index(max(widths))
        lo, hi = box[axis]
        mid = 0.5 * (lo + hi)
        split = [[side] for side in box]
        split[axis] = [(lo, mid), (mid, hi)]
        sweep(split)
        panels += 1
    # NaN fails this test; an infinite estimate turns NaN once its panel splits.
    if not total_err <= tol_abs:
        raise QuadratureError(achieved=total_err, target=tol_abs)
    return total, total_err + sum(item[-1] for item in heap)


def panel_integrate_1d(
    f, breakpoints, tol_abs: float, max_panels: int = 4096
) -> tuple[float, float]:
    """Integrate vectorized f over the span of `breakpoints` with order-24
    panels.  Returns (value, error estimate), the value a vector when f
    returns one row per node; raises QuadratureError if the estimate is not
    finite or the panel budget is exhausted before it reaches tol_abs."""
    return _panel_integrate(f, (breakpoints,), tol_abs, 24, max_panels)


def panel_integrate_2d(
    f, x_breaks, y_breaks, tol_abs: float, max_panels: int = 40_000
) -> tuple[float, float]:
    """Integrate f(x, y) over the product of the two break spans with
    order-16 tensor panels.

    f is called as f(gx, gy) with the x nodes of one panel and the y nodes
    of a row of panels, and must return the (len(gx), len(gy)) array of
    f(gx[i], gy[j]).  Returns (value, error estimate); raises QuadratureError
    when the estimate is not finite or the budget runs out before reaching
    tol_abs.
    """
    return _panel_integrate(f, (x_breaks, y_breaks), tol_abs, 16, max_panels)
