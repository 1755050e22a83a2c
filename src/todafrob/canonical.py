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
from .manifold import Point, Tangent, metric_tangent, tan_mul, vanishes_on_circle


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
    lam, lbar, lp, bp = pt.on_grid(m, "lam", "lbar", "lam_p", "lbar_p")
    wp = lp + bp
    if vanishes_on_circle(wp):
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
    values of lam', lbar' and of the slots a, ab of x at the same p;
    refused (ZeroOnCircle) where w' = lam' + lbar' vanishes among them."""
    wp = lp + bp
    if vanishes_on_circle(wp):
        raise la.ZeroOnCircle("w' vanishes on the circle")
    return (lp * ab - bp * a) / wp


def du_pair(pt: Point, p, x: Tangent):
    """<du(p), x> at arbitrary points p, by Horner's rule; a row of values
    per point for a stacked point and tangent."""
    p = np.asarray(p, dtype=complex)
    lp, bp = pt.lam_p.evaluate(p), pt.lbar_p.evaluate(p)
    return _du(lp, bp, x.a.evaluate(p), x.ab.evaluate(p))


def du_grid(pt: Point, m: int, x: Tangent):
    """du_pair at the m-th roots of unity, la.unit_roots(m), by inverse
    FFT; lam' and lbar' are the point's cached values from pt.on_grid."""
    lp, bp = pt.on_grid(m, "lam_p", "lbar_p")
    return _du(lp, bp, la.grid_eval(x.a, m), la.grid_eval(x.ab, m))


def semisimplicity_residual(pt: Point, x: Tangent, y: Tangent, m: int) -> float:
    """max_p |<du(p), x . y> - <du(p), x><du(p), y>| over the m-th roots
    of unity, by du_grid: lam' and lbar' are evaluated there once."""
    cx = du_grid(pt, m, x)
    cy = du_grid(pt, m, y)
    cxy = du_grid(pt, m, tan_mul(pt, x, y))
    return float(np.max(np.abs(cxy - cx * cy)))


def metric_diagonality_residual(pt: Point, x: Tangent, y: Tangent) -> complex:
    """<x, y> - (1/2 pi i) contour of <du(p),x><du(p),y>/f(p) dp on the
    512-point circle grid."""
    data = canonical_data(pt, 512)
    cx = du_pair(pt, data.p, x)
    cy = du_pair(pt, data.p, y)
    witness = la.contour_mean(cx * cy / data.f)
    return metric_tangent(pt, x, y) - witness


def flow_tag(flow) -> tuple[str, int | None]:
    """The kind and order of a flow tag: ("s", n) or ("sbar", n) with an
    int n >= 1, ("t", a) with an int a, or "u" or "v" (order None).  Any
    other tag, a bool order included, raises ValueError naming it."""
    if flow in ("u", "v"):
        return flow, None
    if isinstance(flow, tuple) and len(flow) == 2:
        kind, n = flow
        if type(n) is int and (kind == "t" or (kind in ("s", "sbar") and n >= 1)):
            return kind, n
    raise ValueError(f"unknown flow {flow!r}; expected ('s', n), ('sbar', n) with "
                     f"an int n >= 1, ('t', a) with an int a, 'u' or 'v'")


def char_velocities(pt: Point, flow, m: int) -> np.ndarray:
    """Characteristic velocities at the m-th roots of unity for one flow,
    by inverse FFT.

    flow is a tag that flow_tag accepts: ("t", i), "u", "v", ("s", n) or
    ("sbar", n).  The Lax-sector velocities carry no 1/n: they are z d/dz
    of the Lax generators (lam^n)_{>=0} and (lbar^n)_{<0}, matching the
    flows themselves.  A primary velocity is -p <du(p), x> for
    x = ((w^i w')_{<0}, (w^i w')_{>=0}).  A stacked point gets a row of
    velocities per point.
    """
    kind, n = flow_tag(flow)
    if kind == "u":
        return np.divide.outer(pt.ubarm1, la.unit_roots(m))
    if kind == "v":
        return np.ones(np.shape(pt.ubarm1) + (m,), dtype=complex)
    if kind == "t":
        lp, bp = pt.on_grid(m, "lam_p", "lbar_p")
        f = pt.w_pow(n) * pt.w_p
        minus = la.grid_eval(f.project("leq", -1), m)
        plus = la.grid_eval(f.project("geq", 0), m)
        return -la.unit_roots(m) * _du(lp, bp, minus, plus)
    if kind == "s":
        gen = (pt.lam**n).derivative().shift(1).project("geq", 0)
    else:
        gen = (pt.lbar**n).derivative().shift(1).project("leq", -1)
    return la.grid_eval(gen, m)
