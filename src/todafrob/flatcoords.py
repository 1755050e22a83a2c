"""Flat coordinates of the metric.

The sum w = lam + lbar maps the unit circle to a simple closed curve
around the origin; the log-ratio log(z(w)/w) expanded in powers of w
along that curve yields coefficients t_n that, together with u and v,
form a flat chart for the metric.  This module extracts the chart from
a point, rebuilds the point from chart data by a per-node Newton
solve, and provides the coordinate frame and differentials.

Both directions of the chart run in O(terms * m) time and O(m) memory
on an m-point grid.  The moments t_n step through the powers w^{-n-1}
by one multiplication by w per n.  The series phi(w) = sum t_n w^n and
phi'(w) are evaluated by Horner's rule, in w for the terms n >= 0 and
in 1/w for n < 0, so no power of w is formed term by term.
"""

from __future__ import annotations

import numpy as np

from . import laurent as la
from .laurent import LaurentSeries as LS
from .manifold import Cotangent, Point, Tangent, vanishes_on_circle


class NewtonDiverged(ArithmeticError):
    """Inversion of the chart map failed to converge."""


NEWTON_ITERATIONS = 60


def flat_coordinates(
    pt: Point, n_lo: int = -16, n_hi: int = 16, grid_size: int | None = None
) -> dict:
    """Coefficients t_n = (1/2 pi i) contour of log(z/w) w^{-n-1} w' dz;
    for a stacked point each t_n is an array with one entry per point.
    Refused (ZeroOnCircle) where w vanishes on the grid."""
    m = grid_size or max(pt.quad_m(8 * max(abs(n_lo), abs(n_hi), 1)), 1024)
    ns = range(n_lo, n_hi + 1)
    wv, wpv = pt.on_grid(m, "w", "w_p")
    if vanishes_on_circle(wv):
        raise la.ZeroOnCircle("w vanishes on the circle")
    h = la.log_values_on_circle(la.unit_roots(m) / wv)
    f = h * wv ** (-n_hi - 1) * wpv  # the n_hi integrand; one step of w per n
    ts = np.empty(f.shape[:-1] + (len(ns),), dtype=complex)
    for j in reversed(range(len(ns))):
        ts[..., j] = la.contour_mean(f)
        if j:
            f *= wv
    return dict(zip(ns, ts.tolist() if ts.ndim == 1 else ts.T))


def _horner(coeffs: np.ndarray, x: np.ndarray):
    """(p(x), p'(x)) of p = sum_k coeffs[k] x^k, by Horner's rule."""
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for c in coeffs[::-1]:
        dp *= x
        dp += p
        p *= x
        p += c
    return p, dp


def _series_and_derivative(ns: np.ndarray, cs: np.ndarray, wv: np.ndarray):
    """(phi, phi') at wv for phi(w) = sum cs[j] w^ns[j], ns sorted.

    Horner in w for the terms n >= 0 and in x = 1/w for n < 0, where
    d/dw = -x^2 d/dx; no intermediate grows beyond the largest term.
    """
    split = int(np.searchsorted(ns, 0))
    pos = np.zeros(int(ns[-1]) + 1 if split < len(ns) else 0, dtype=complex)
    pos[ns[split:]] = cs[split:]
    neg = np.zeros(1 - int(ns[0]) if split else 0, dtype=complex)
    neg[-ns[:split]] = cs[:split]
    phi, dphi = _horner(pos, wv)
    if split:
        x = 1.0 / wv
        q, dq = _horner(neg, x)
        phi += q
        dphi -= x * x * dq
    return phi, dphi


def point_from_flat(
    t: dict[int, complex],
    u: complex,
    v: complex,
    band_n: int = 32,
    tol: float = 1e-13,
    widen: tuple[int, ...] = (),
) -> Point:
    """Rebuild the point with chart data (t, u, v).

    Solves w * exp(phi(w)) = z, phi(w) = sum t_n w^n, per node of the
    grid la.default_grid_size(2 * band_n) by damped Newton seeded at
    w = z, in at most NEWTON_ITERATIONS steps, then reconstructs (lam, lbar)
    from the recovered w series and the fiber coordinates u, v.  phi and phi'
    come from one Horner pass over the dense coefficients (in w for
    n >= 0, in 1/w for n < 0), once per damping trial; the accepted
    trial's exp(phi) and phi' serve the next Newton step.

    When the w spectrum does not fit the band [-band_n, band_n], the
    half bands in `widen` are tried in turn, each on its own grid; the
    refusal of the last one propagates and names its band.
    """
    return la.first_certified(
        lambda n: _point_on_band(t, u, v, n, tol), (band_n, *widen))


def _point_on_band(t, u, v, band_n, tol) -> Point:
    m = la.default_grid_size(2 * band_n)
    zs = la.unit_roots(m)
    ns = np.array(sorted(t.keys()), dtype=int)
    cs = np.array([t[int(n)] for n in ns], dtype=complex)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wv = zs.astype(complex)
        f, df = _series_and_derivative(ns, cs, wv)
        e = np.exp(f)
        g = wv * e - zs
        err = float(np.max(np.abs(g)))
        for _ in range(NEWTON_ITERATIONS):
            if err < tol:
                break
            if not np.isfinite(err) or err > 1e8:
                raise NewtonDiverged(f"residual {err:.3e} blew up")
            gp = e * (1.0 + wv * df)
            if float(np.min(np.abs(gp))) < 1e-14:
                raise NewtonDiverged("derivative vanished at a grid node")
            step = g / gp
            damp = 1.0
            while True:
                cand = wv - damp * step
                f, df = _series_and_derivative(ns, cs, cand)
                ec = np.exp(f)
                gc = cand * ec - zs
                cand_err = float(np.max(np.abs(gc)))
                if np.isfinite(cand_err) and cand_err < err:
                    break
                damp *= 0.5
                if damp < 2.0**-25:
                    raise NewtonDiverged(f"no descent from residual {err:.3e}")
            wv, e, g, err = cand, ec, gc, cand_err
        else:
            raise NewtonDiverged(f"residual {err:.3e} after {NEWTON_ITERATIONS} iterations")

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


def jacobian_t_w(pt: Point, n: int, m_deg: int) -> complex:
    """d t_n / d w_m = -(1/2 pi i) contour of w^{-n-1} z^{m-1} dz;
    refused (ZeroOnCircle) where w vanishes on the grid."""
    m = max(pt.quad_m(8 * (abs(n) + 1)), 1024)
    zs = la.unit_roots(m)
    (wv,) = pt.on_grid(m, "w")
    if vanishes_on_circle(wv):
        raise la.ZeroOnCircle("w vanishes on the circle")
    return -la.contour_mean(wv ** (-n - 1) * zs ** (m_deg - 1))


def log_ratio_pairing(pt: Point) -> complex:
    """(1/2 pi i) contour of (w/z) log(w/z) dz.

    Equals (1/2) sum_{i+j=-1} t_i t_j - t_{-1}; used as a scalar
    consistency check of the chart and inside the potential.  Refused
    (ZeroOnCircle) where w vanishes on the grid.
    """
    m = max(pt.quad_m(16), 1024)
    zs = la.unit_roots(m)
    (wv,) = pt.on_grid(m, "w")
    if vanishes_on_circle(wv):
        raise la.ZeroOnCircle("w vanishes on the circle")
    h = la.log_values_on_circle(zs / wv)
    return la.contour_mean(-(wv / zs) * h)
