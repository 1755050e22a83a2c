"""Flat coordinates of the metric.

The sum w = lam + lbar maps the unit circle to a simple closed curve
around the origin; the log-ratio log(z(w)/w) expanded in powers of w
along that curve yields coefficients t_n that, together with u and v,
form a flat chart for the metric.  This module extracts the chart from
a point, rebuilds the point from chart data by a per-node Newton
solve, and provides the coordinate frame and differentials.
"""

from __future__ import annotations

import numpy as np

from . import laurent as la
from .laurent import LaurentSeries as LS
from .manifold import Cotangent, Point, Tangent


class NewtonDiverged(ArithmeticError):
    """Inversion of the chart map failed to converge."""


def _log_ratio_grid(w: LS, w_p: LS, m: int, row0: int = 0):
    """Samples of log(z/w), w and w' on the m-point circle grid."""
    wv = la.grid_eval(w, m)
    return la.log_values_on_circle(la.unit_roots(m) / wv, row0), wv, la.grid_eval(w_p, m)


def flat_coordinates(
    pt: Point, n_lo: int = -16, n_hi: int = 16, grid_size: int | None = None
) -> dict:
    """Coefficients t_n = (1/2 pi i) contour of log(z/w) w^{-n-1} w' dz;
    for a stacked point each t_n is an array with one entry per point."""
    m = grid_size or max(pt.quad_m(8 * max(abs(n_lo), abs(n_hi), 1)), 1024)
    ns = range(n_lo, n_hi + 1)

    def rows(w, w_p, row0):
        h, wv, wpv = _log_ratio_grid(w, w_p, m, row0)
        return np.stack([la.contour_mean(h * wv ** (-n - 1) * wpv) for n in ns], axis=-1)

    ts = la.by_row_blocks(rows, (pt.w, pt.w_p), m)
    return dict(zip(ns, ts.tolist() if ts.ndim == 1 else ts.T))


def point_from_flat(
    t: dict[int, complex],
    u: complex,
    v: complex,
    band_n: int = 32,
    grid_size: int | None = None,
    tol: float = 1e-13,
    max_iter: int = 60,
) -> Point:
    """Rebuild the point with chart data (t, u, v).

    Solves w * exp(sum t_n w^n) = z per grid node by damped Newton
    seeded at w = z, then reconstructs (lam, lbar) from the recovered
    w series and the fiber coordinates u, v.
    """
    m = grid_size or la.default_grid_size(2 * band_n)
    zs = la.unit_roots(m)
    ns = np.array(sorted(t.keys()), dtype=int)
    cs = np.array([t[int(n)] for n in ns], dtype=complex)

    def phi(wv):
        return np.sum(cs[:, None] * wv[None, :] ** ns[:, None], axis=0)

    def dphi(wv):
        return np.sum(ns[:, None] * cs[:, None] * wv[None, :] ** (ns[:, None] - 1), axis=0)

    with np.errstate(over="ignore", invalid="ignore"):
        wv = zs.astype(complex).copy()
        g = wv * np.exp(phi(wv)) - zs
        err = float(np.max(np.abs(g)))
        for _ in range(max_iter):
            if err < tol:
                break
            if not np.isfinite(err) or err > 1e8:
                raise NewtonDiverged(f"residual {err:.3e} blew up")
            gp = np.exp(phi(wv)) * (1.0 + wv * dphi(wv))
            if float(np.min(np.abs(gp))) < 1e-14:
                raise NewtonDiverged("derivative vanished at a grid node")
            step = g / gp
            damp = 1.0
            while True:
                cand = wv - damp * step
                gc = cand * np.exp(phi(cand)) - zs
                cand_err = float(np.max(np.abs(gc)))
                if np.isfinite(cand_err) and cand_err < err:
                    break
                damp *= 0.5
                if damp < 2.0**-25:
                    raise NewtonDiverged(f"no descent from residual {err:.3e}")
            wv, g, err = cand, gc, cand_err
        else:
            raise NewtonDiverged(f"residual {err:.3e} after {max_iter} iterations")

    half = m // 2
    full = la.grid_to_series(wv, -half, half - 1)
    w_max = full.max_abs()
    tail = max(
        full.restrict(-half, -band_n - 1).max_abs(),
        full.restrict(band_n + 1, half - 1).max_abs(),
    )
    if tail > la.DEFAULT_TAIL_TOL * w_max:
        raise la.TruncationLoss(
            f"w spectrum tail {tail:.3e} above tolerance on band [-{band_n},{band_n}]"
        )
    w = full.restrict(-band_n, band_n)
    eu = complex(np.exp(u))
    lam = w.project("leq", 0) + LS(-1, [-eu, -v, 1.0])
    lbar = w.project("geq", 1) + LS(-1, [eu, v, -1.0])
    return Point(lam, lbar)


def flat_frame(pt: Point, n: int) -> Tangent:
    """Coordinate vector field of t_n: -z (w^n w')_{<=-1} and -z (w^n w')_{>=0}."""
    f = pt.w_pow(n) * pt.w_p
    return Tangent(
        f.project("leq", -1).shift(1).scale(-1.0),
        f.project("geq", 0).shift(1).scale(-1.0),
    )


def flat_differential(pt: Point, n: int) -> Cotangent:
    """Differential dt_n = -z^{-1} ((w^{-n-1})_{>=0}, (w^{-n-1})_{<=1})."""
    f = pt.w_pow(-n - 1)
    return Cotangent(
        f.project("geq", 0).shift(-1).scale(-1.0),
        f.project("leq", 1).shift(-1).scale(-1.0),
    )


def jacobian_t_w(pt: Point, n: int, m_deg: int, grid_size: int | None = None) -> complex:
    """d t_n / d w_m = -(1/2 pi i) contour of w^{-n-1} z^{m-1} dz."""
    m = grid_size or max(pt.quad_m(8 * (abs(n) + 1)), 1024)
    zs = la.unit_roots(m)
    wv = la.grid_eval(pt.w, m)
    return -la.contour_mean(wv ** (-n - 1) * zs ** (m_deg - 1))


def log_ratio_pairing(pt: Point, grid_size: int | None = None) -> complex:
    """(1/2 pi i) contour of (w/z) log(w/z) dz.

    Equals (1/2) sum_{i+j=-1} t_i t_j - t_{-1}; used as a scalar
    consistency check of the chart and inside the potential.
    """
    m = grid_size or max(pt.quad_m(16), 1024)
    h, wv, _ = _log_ratio_grid(pt.w, pt.w_p, m)
    zs = la.unit_roots(m)
    return la.contour_mean(-(wv / zs) * h)
