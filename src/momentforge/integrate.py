"""Panel-based adaptive Gauss-Legendre integration, 1-D and 2-D.

The verification integrands are smooth inside panels whose edges align with
the comb features of the smoothed pushforward density (teeth of width sigma
around the scaled plateau heights), so feature-aligned panels refined by an
embedded-order error estimate converge fast and deterministically.

Integrands are vectorized.  A 1-D integrand takes an array of nodes and
returns the values there.  A 2-D integrand takes the two axis node vectors
of a tensor panel, gx and gy, and returns the len(gx) x len(gy) grid of
values f(gx[i], gy[j]).  Integrands that factor through functions of one
coordinate, like the verification integrands D(x) D(x') phi(.), then
evaluate those factors on the axis nodes only and broadcast the rest.
"""

from __future__ import annotations

import heapq
import itertools

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


def _panel_1d(f, a: float, b: float, order: int) -> tuple[float, float]:
    """(fine estimate, error estimate) on one panel."""
    xs_lo, ws_lo = _gl_rule(order)
    xs_hi, ws_hi = _gl_rule(2 * order)
    width = b - a
    coarse = width * float(np.dot(ws_lo, f(a + width * xs_lo)))
    fine = width * float(np.dot(ws_hi, f(a + width * xs_hi)))
    return fine, abs(fine - coarse)


def panel_integrate_1d(
    f,
    breakpoints,
    tol_abs: float,
    order: int = 24,
    max_panels: int = 4096,
) -> tuple[float, float]:
    """Integrate vectorized f over the span of `breakpoints`.

    Returns (value, error estimate); raises QuadratureError if the panel
    budget is exhausted before the estimate reaches tol_abs.
    """
    edges = np.asarray(breakpoints, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("breakpoints must be ascending with >= 2 entries")
    heap: list[tuple[float, int, float, float, float]] = []
    counter = itertools.count()
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        fine, err = _panel_1d(f, float(a), float(b), order)
        total += fine
        total_err += err
        heapq.heappush(heap, (-err, next(counter), float(a), float(b), fine))
    panels = edges.size - 1
    while total_err > tol_abs and panels < max_panels:
        neg_err, _, a, b, fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err  # neg_err is -err
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            sub_fine, sub_err = _panel_1d(f, lo, hi, order)
            total += sub_fine
            total_err += sub_err
            heapq.heappush(heap, (-sub_err, next(counter), lo, hi, sub_fine))
        panels += 1
    if total_err > tol_abs:
        raise QuadratureError(achieved=total_err, target=tol_abs)
    return total, total_err


def _panel_2d(f, box, order: int) -> tuple[float, float]:
    x0, x1, y0, y1 = box
    wx, wy = x1 - x0, y1 - y0
    out = []
    for n in (order, 2 * order):
        xs, ws = _gl_rule(n)
        vals = f(x0 + wx * xs, y0 + wy * xs)
        out.append(wx * wy * float(ws @ vals @ ws))
    return out[1], abs(out[1] - out[0])


def panel_integrate_2d(
    f,
    x_breaks,
    y_breaks,
    tol_abs: float,
    order: int = 16,
    max_panels: int = 40_000,
) -> tuple[float, float]:
    """Integrate f(x, y) over the product of the two break spans.

    f is called as f(gx, gy) with the x and y node vectors of one tensor
    panel and must return the (len(gx), len(gy)) array of f(gx[i], gy[j]).
    Panels are refined by splitting their longer side; raises QuadratureError
    when the budget runs out before reaching tol_abs.
    """
    xb = np.asarray(x_breaks, dtype=float)
    yb = np.asarray(y_breaks, dtype=float)
    if xb.size < 2 or yb.size < 2:
        raise ValidationError("need at least one panel per axis")
    heap: list[tuple[float, int, tuple[float, float, float, float], float]] = []
    counter = itertools.count()
    total = 0.0
    total_err = 0.0
    panels = 0
    for x0, x1 in zip(xb[:-1], xb[1:]):
        for y0, y1 in zip(yb[:-1], yb[1:]):
            box = (float(x0), float(x1), float(y0), float(y1))
            fine, err = _panel_2d(f, box, order)
            total += fine
            total_err += err
            heapq.heappush(heap, (-err, next(counter), box, fine))
            panels += 1
    while total_err > tol_abs and panels < max_panels:
        neg_err, _, box, fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        x0, x1, y0, y1 = box
        if x1 - x0 >= y1 - y0:
            xm = 0.5 * (x0 + x1)
            children = ((x0, xm, y0, y1), (xm, x1, y0, y1))
        else:
            ym = 0.5 * (y0 + y1)
            children = ((x0, x1, y0, ym), (x0, x1, ym, y1))
        for child in children:
            sub_fine, sub_err = _panel_2d(f, child, order)
            total += sub_fine
            total_err += sub_err
            heapq.heappush(heap, (-sub_err, next(counter), child, sub_fine))
        panels += 1
    if total_err > tol_abs:
        raise QuadratureError(achieved=total_err, target=tol_abs)
    return total, total_err
