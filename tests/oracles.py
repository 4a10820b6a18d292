"""Reference implementations kept only to cross-check the library.

Each one computes the same quantity as a production path in the plainest
form available: a Python loop where the library broadcasts, a full grid
where the library factors an integrand through its axis nodes.
"""

import math

import numpy as np
from scipy.special import ndtr

from momentforge.gaussian import gaussian_density
from momentforge.integrate import panel_integrate_2d


def reference_density(law, x):
    """ProjectedLaw.density with one loop iteration per ramp."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    var0 = law.width * law.width
    out = np.zeros_like(pts)
    if law.atom_values.size:
        shifted = pts[:, None] - law.coef * law.atom_values[None, :]
        kern = np.exp(-shifted * shifted / (2.0 * var0)) / (
            law.width * math.sqrt(2.0 * math.pi)
        )
        out += kern @ law.atom_masses
    for g_lo, g_hi, slope, intercept in law.ramps:
        b = law.coef * slope
        a = pts - law.coef * intercept
        var = var0 + b * b
        coefs = np.exp(-a * a / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        mu = a * b / var
        sd = law.width / math.sqrt(var)
        t_lo = (g_lo - mu) / sd
        t_hi = (g_hi - mu) / sd
        flip = t_lo > 0.0
        lo = np.where(flip, -t_hi, t_lo)
        hi = np.where(flip, -t_lo, t_hi)
        out += coefs * (ndtr(hi) - ndtr(lo))
    return out


def meshgrid_correlation(dist, cosine, breaks, tol_abs):
    """chi_{N(0,I)}(P_v, P_v') with the integrand evaluated point by point
    on the full panel grid, densities included."""
    sin_t = math.sin(math.acos(cosine))

    def pointwise(x, xp):
        yp = (xp * cosine - x) / sin_t
        return (
            dist.density(x)
            * dist.density(xp)
            * gaussian_density(yp)
            / gaussian_density(x)
            / sin_t
        )

    def on_grid(gx, gy):
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        return pointwise(X.ravel(), Y.ravel()).reshape(X.shape)

    value, _ = panel_integrate_2d(on_grid, breaks, breaks, tol_abs)
    return value - 1.0
