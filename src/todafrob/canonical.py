"""Canonical coordinates on the semisimple stratum.

The curve sigma(p) = lam'/w' labels a continuous family of canonical
coordinates u_sigma; the one-forms du(p) diagonalize both the metric
(with weight f(p)) and the multiplication.  Everything is evaluated on
unit-circle grids; delta-function relations are only ever tested in
smeared form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laurent as la
from .manifold import Point, Tangent, tan_mul


@dataclass(frozen=True)
class CanonicalData:
    """Circle-grid values of sigma, u_sigma and f.

    self_intersecting flags samples of sigma that coincide (a double cover
    such as 1 + 1/p^2): la.curve_gap_ratio at most 1e-6.  It is not a
    crossing test; sigma curves of generic points cross themselves.
    """

    p: np.ndarray
    sigma: np.ndarray
    u_sigma: np.ndarray
    f: np.ndarray
    self_intersecting: bool
    critical_residual: float


def canonical_data(pt: Point, m: int | None = None) -> CanonicalData:
    """sigma, u_sigma and the metric weight f on an m-point circle grid."""
    m = m or max(pt.quad_m(8), 256)
    p = la.unit_roots(m)
    lam = la.grid_eval(pt.lam, m)
    lbar = la.grid_eval(pt.lbar, m)
    lp = la.grid_eval(pt.lam_p, m)
    bp = la.grid_eval(pt.lbar_p, m)
    wp = lp + bp
    if float(np.min(np.abs(wp))) <= 1e-10 * max(float(np.max(np.abs(wp))), 1.0):
        raise la.ZeroOnCircle("w' vanishes on the circle")

    sigma = lp / wp
    u_sigma = sigma * lbar + (sigma - 1.0) * lam
    f = -(p**2) * lp * bp / wp
    residual = float(np.max(np.abs(sigma * bp + (sigma - 1.0) * lp)))

    return CanonicalData(
        p=p,
        sigma=sigma,
        u_sigma=u_sigma,
        f=f,
        self_intersecting=la.curve_gap_ratio(sigma) <= 1e-6,
        critical_residual=residual,
    )


def _du(lp, bp, a, ab):
    """<du(p), x> = (lam'(p) ab(p) - lbar'(p) a(p)) / w'(p) from the
    values of lam', lbar' and of the slots a, ab of x at the same p."""
    return (lp * ab - bp * a) / (lp + bp)


def du_pair(pt: Point, p, x: Tangent):
    """<du(p), x> at arbitrary points p, by Horner's rule; a row of values
    per point for a stacked point and tangent."""
    p = np.asarray(p, dtype=complex)
    lp, bp = pt.lam_p.evaluate(p), pt.lbar_p.evaluate(p)
    return _du(lp, bp, x.a.evaluate(p), x.ab.evaluate(p))


def du_grid(pt: Point, m: int, x: Tangent):
    """du_pair at the m-th roots of unity, la.unit_roots(m), by inverse
    FFT; lam' and lbar' come from pt.derivatives_on_grid(m)."""
    lp, bp = pt.derivatives_on_grid(m)
    return _du(lp, bp, la.grid_eval(x.a, m), la.grid_eval(x.ab, m))


def mu_pair(pt: Point, p, x: Tangent):
    """<dmu(p), x> = a(p)/lam'(p) - ab(p)/lbar'(p); du = -(lam' lbar'/w') dmu."""
    p = np.asarray(p, dtype=complex)
    lp, bp = pt.lam_p.evaluate(p), pt.lbar_p.evaluate(p)
    a, ab = x.a.evaluate(p), x.ab.evaluate(p)
    return a / lp - ab / bp


def reconstruct_tangent(pt: Point, mu_values: np.ndarray) -> Tangent:
    """Rebuild x from samples of <dmu(p), x> on the full circle grid.

    The two expansions a/lam' and -ab/lbar' live in complementary
    degree ranges, so a single projection splits them:
    a = lam' [m]_{<=0}, ab = -lbar' [m]_{>=1}.
    """
    m = len(mu_values)
    half = m // 2
    full = la.grid_to_series(mu_values, -half, half - 1)
    a = pt.lam_p * full.project("leq", 0)
    ab = pt.lbar_p.scale(-1.0) * full.project("geq", 1)
    return Tangent(a.project("leq", 0), ab.project("geq", -1))


def semisimplicity_residual(pt: Point, x: Tangent, y: Tangent, m: int = 256) -> float:
    """max_p |<du(p), x . y> - <du(p), x><du(p), y>| over the m-th roots
    of unity, by du_grid: lam' and lbar' are evaluated there once."""
    cx = du_grid(pt, m, x)
    cy = du_grid(pt, m, y)
    cxy = du_grid(pt, m, tan_mul(pt, x, y))
    return float(np.max(np.abs(cxy - cx * cy)))


def metric_diagonality_residual(pt: Point, x: Tangent, y: Tangent, m: int = 512) -> complex:
    """<x, y> - (1/2 pi i) contour of <du(p),x><du(p),y>/f(p) dp."""
    from .manifold import metric_tangent

    data = canonical_data(pt, m)
    cx = du_pair(pt, data.p, x)
    cy = du_pair(pt, data.p, y)
    witness = la.contour_mean(cx * cy / data.f)
    return metric_tangent(pt, x, y) - witness


def char_velocities(pt: Point, flow, m: int | None = None) -> np.ndarray:
    """Characteristic velocities at the m-th roots of unity for one flow,
    by inverse FFT.

    flow is ("t", i), "u", "v", ("s", n) or ("sbar", n).  The Lax-sector
    velocities carry no 1/n: they are z d/dz of the Lax generators
    (lam^n)_{>=0} and (lbar^n)_{<0}, matching the flows themselves.  A
    primary velocity is -p <du(p), x> for x = ((w^i w')_{<0},
    (w^i w')_{>=0}).  A stacked point gets a row of velocities per point.
    """
    m = m or max(pt.quad_m(8), 256)
    if flow == "u":
        return np.divide.outer(pt.ubarm1, la.unit_roots(m))
    if flow == "v":
        return np.ones(m, dtype=complex)
    kind, n = flow
    if kind == "t":
        lp, bp = pt.derivatives_on_grid(m)
        f = pt.w_pow(n) * pt.w_p
        minus = la.grid_eval(f.project("leq", -1), m)
        plus = la.grid_eval(f.project("geq", 0), m)
        return -la.unit_roots(m) * _du(lp, bp, minus, plus)
    if kind == "s":
        gen = (pt.lam**n).derivative().shift(1).project("geq", 0)
        return la.grid_eval(gen, m)
    if kind == "sbar":
        gen = (pt.lbar**n).derivative().shift(1).project("leq", -1)
        return la.grid_eval(gen, m)
    raise ValueError(f"unknown flow {flow!r}")
