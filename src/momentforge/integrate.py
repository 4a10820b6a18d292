"""Panel-based adaptive Gauss-Legendre integration on tensor panels.

One routine refines panels on one or two axes: a panel's error estimate is
the gap between its order-n and order-2n tensor rules, and the worst panel
is halved across its widest side until the summed estimate meets the
tolerance.  panel_integrate_1d and panel_integrate_2d are its two entry
points.  The verification integrands are smooth inside panels whose edges
align with the comb features of the smoothed pushforward density (teeth of
width sigma around the scaled plateau heights), so refinement converges fast
and deterministically.

Integrands are vectorized and get one node vector per axis: a 2-D integrand
f(gx, gy) returns the len(gx) x len(gy) grid f(gx[i], gy[j]).  Integrands
that factor through functions of one coordinate, like the verification
integrand D(x) D(x') phi(.), evaluate those factors on the axis nodes only.
A 1-D integrand gets the nodes of all initial panels in one call per order,
then one panel's nodes per call while refining.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import QuadratureError, ValidationError

__all__ = ["panel_integrate_1d", "panel_integrate_2d", "feature_breakpoints"]

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULES:
        x, w = np.polynomial.legendre.leggauss(order)
        _RULES[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _RULES[order]


def feature_breakpoints(
    lo: float, hi: float, features, width: float, offsets=(1.0, 6.0)
) -> np.ndarray:
    """Sorted panel edges on [lo, hi]: the bounds plus each feature point
    bracketed at the given multiples of its width."""
    edges = {lo, hi}
    for f in np.atleast_1d(np.asarray(features, dtype=float)):
        for mult in offsets:
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
    its grid of values one axis at a time, leading axis first."""
    axes = []
    for edges in breaks:
        edges = np.asarray(edges, dtype=float)
        if edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValidationError("breakpoints must be ascending with >= 2 entries")
        axes.append([(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])])
    heap: list[tuple[float, int, tuple[tuple[float, float], ...], float]] = []
    counter = itertools.count()
    total = 0.0
    total_err = 0.0
    rules = (_gl_rule(order), _gl_rule(2 * order))

    def push(box, coarse: float, fine: float):
        """Queue one panel's order-n and order-2n estimates; keep the finer."""
        nonlocal total, total_err
        err = abs(fine - coarse)
        total += fine
        total_err += err
        heapq.heappush(heap, (-err, next(counter), box, fine))

    def add(box):
        widths = [hi - lo for lo, hi in box]
        volume = math.prod(widths)
        est = []
        for xs, ws in rules:
            vals = f(*[lo + w * xs for (lo, _), w in zip(box, widths)])
            for _ in box:
                vals = np.dot(ws, vals)
            est.append(volume * float(vals))
        push(box, *est)

    if len(axes) == 1:
        # On a line, one integrand call per order covers every initial panel.
        lo, hi = np.array(axes[0]).T
        est = []
        for xs, ws in rules:
            vals = f((lo[:, None] + (hi - lo)[:, None] * xs).ravel())
            est.append((hi - lo) * (np.reshape(vals, (lo.size, xs.size)) @ ws))
        for box, coarse, fine in zip(itertools.product(*axes), *est):
            push(box, float(coarse), float(fine))
    else:
        for box in itertools.product(*axes):
            add(box)
    panels = len(heap)
    while total_err > tol_abs and panels < max_panels:
        neg_err, _, box, fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err  # neg_err is -err
        widths = [hi - lo for lo, hi in box]
        axis = widths.index(max(widths))
        lo, hi = box[axis]
        mid = 0.5 * (lo + hi)
        add(box[:axis] + ((lo, mid),) + box[axis + 1 :])
        add(box[:axis] + ((mid, hi),) + box[axis + 1 :])
        panels += 1
    if total_err > tol_abs:
        raise QuadratureError(achieved=total_err, target=tol_abs)
    return total, total_err


def panel_integrate_1d(
    f, breakpoints, tol_abs: float, max_panels: int = 4096
) -> tuple[float, float]:
    """Integrate vectorized f over the span of `breakpoints` with order-24
    panels.  Returns (value, error estimate); raises QuadratureError if the
    panel budget is exhausted before the estimate reaches tol_abs."""
    return _panel_integrate(f, (breakpoints,), tol_abs, 24, max_panels)


def panel_integrate_2d(
    f, x_breaks, y_breaks, tol_abs: float, max_panels: int = 40_000
) -> tuple[float, float]:
    """Integrate f(x, y) over the product of the two break spans with
    order-16 tensor panels.

    f is called as f(gx, gy) with the x and y node vectors of one panel and
    must return the (len(gx), len(gy)) array of f(gx[i], gy[j]).  Returns
    (value, error estimate); raises QuadratureError when the budget runs out
    before reaching tol_abs.
    """
    return _panel_integrate(f, (x_breaks, y_breaks), tol_abs, 16, max_panels)
