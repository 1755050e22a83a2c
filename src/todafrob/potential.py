"""Potential of the Frobenius structure and its derivatives.

The potential combines a quadratic form in the coefficients of
w = lam + lbar, the log-ratio pairing of w against z, and a handful of
fiber terms.  Its triple derivatives in the flat chart have closed
forms built from projections of powers of w; the trilinear form
realizes the same tensor on arbitrary variations.
"""

from __future__ import annotations

import numpy as np

from . import laurent as la
from .flatcoords import flat_coordinates, log_ratio_pairing, point_from_flat
from .laurent import LaurentSeries as LS
from .manifold import Point, Tangent, ell_variation, euler_field, point_shift, vanishes_on_circle

# The tolerance of the potential suite: F is refused when rounding alone
# could move it by more than this, relative to max(1, |F|).
F_ROUNDING_TOL = 1e-8
# The tolerance of the quasihomogeneity suite: E F is refused when the
# rounding of its two values of F, over 2h, exceeds this times max(1, |E F|).
EF_ROUNDING_TOL = 1e-6
# The step of the centered difference along the Euler field.
EULER_STEP = 1e-5


def first_sum(pt: Point) -> complex:
    """-(1/2) sum_{k>=1} w_k w_{-k} / k, exact over the band of w."""
    w = pt.w
    total = 0.0 + 0.0j
    for k in range(1, max(w.hi, -w.lo) + 1):
        total += w.coeff(k) * w.coeff(-k) / k
    return -0.5 * total


def _potential_sum(pt: Point) -> tuple[complex, float]:
    """F and the bound 2^-52 sum |term| on the rounding of its term sum."""
    p = log_ratio_pairing(pt)
    u0, v, u = pt.u0, pt.v, pt.u
    terms = (
        first_sum(pt),
        0.5 * (v - u0) * (p - u0 - v),
        0.5 * v**2 * u,
        pt.ubarm1,
        pt.um1,
        pt.ubarm1 * pt.ubar1,
    )
    return sum(terms[1:], terms[0]), 2.0**-52 * sum(abs(t) for t in terms)


def potential_F(pt: Point) -> complex:
    """Value of the potential at the point.

    Refused (TruncationLoss) when the terms cancel so far that rounding,
    bounded by 2^-52 sum |term|, exceeds F_ROUNDING_TOL * max(1, |F|).
    """
    F, bound = _potential_sum(pt)
    if bound > F_ROUNDING_TOL * max(1.0, abs(F)):
        raise la.TruncationLoss(
            f"potential lost to cancellation: rounding bound {bound:.1e} above "
            f"{F_ROUNDING_TOL:.0e} * max(1, |F|)")
    return F


def dF_dv(pt: Point) -> complex:
    """dF/dv = log-ratio pairing - u_0 - v + u v."""
    p = log_ratio_pairing(pt)
    return p - pt.u0 - pt.v + pt.u * pt.v


def dF_du(pt: Point) -> complex:
    """dF/du = v^2/2 + e^u ubar_1."""
    return 0.5 * pt.v**2 + pt.ubarm1 * pt.ubar1


def dF_dt(pt: Point, alpha: int) -> complex:
    """dF/dt_alpha assembled from the chart velocity dw = -z w^alpha w'."""
    f = pt.w_pow(alpha) * pt.w_p  # w^alpha w'
    w = pt.w
    # quadratic term: d w_m = -(w^alpha w')_{m-1}
    total = 0.0 + 0.0j
    for k in range(1, max(w.hi, -w.lo) + 1):
        dk = -f.coeff(k - 1)
        dmk = -f.coeff(-k - 1)
        total += (dk * w.coeff(-k) + w.coeff(k) * dmk) / k
    quad = -0.5 * total

    m = max(pt.quad_m(16 + 8 * abs(alpha)), 1024)
    zs = la.unit_roots(m)
    (wv,) = pt.on_grid(m, "w")
    h = la.log_values_on_circle(wv / zs)
    fv = la.grid_eval(f, m)
    dp = la.contour_mean(-fv * (h + 1.0))

    du0 = -1.0 if alpha == -1 else 0.0
    p = log_ratio_pairing(pt)
    mid = -0.5 * du0 * (p - pt.u0 - pt.v) + 0.5 * (pt.v - pt.u0) * (dp - du0)
    dum1 = -f.coeff(-2)
    dubar1 = -f.coeff(0)
    return quad + mid + dum1 + pt.ubarm1 * dubar1


def _zsum(labels) -> list[int]:
    return [x[1] for x in labels if isinstance(x, tuple)]


def triple_t(pt: Point, i: int, j: int, k: int) -> complex:
    """Closed form of the t-only triple derivative; exact residues."""
    wp = pt.w_p
    bracket = (
        pt.w_pow(i + j) * la.pi_op(pt.w_pow(k) * wp)
        + pt.w_pow(j + k) * la.pi_op(pt.w_pow(i) * wp)
        + pt.w_pow(k + i) * la.pi_op(pt.w_pow(j) * wp)
        - pt.w_pow(i + j + k) * la.pi_op(wp)
    )
    term1 = -0.5 * (wp * bracket).shift(1).residue()
    zline = LS(-1, [pt.ubarm1, 0.0, 1.0])  # e^u/z + z
    term2 = -(zline * pt.w_pow(i + j + k) * wp).residue()
    return term1 + term2


def triple_flat(pt: Point, a, b, c) -> complex:
    """Triple derivative of F along flat directions.

    Each label is ("t", n), "u" or "v".
    """
    labels = [a, b, c]
    ts = _zsum(labels)
    n_u = labels.count("u")
    n_v = labels.count("v")
    if len(ts) == 3:
        return triple_t(pt, *ts)
    if len(ts) == 2 and n_v == 1:
        return 1.0 if ts[0] + ts[1] == -1 else 0.0
    if len(ts) == 2 and n_u == 1:
        return pt.ubarm1 * (pt.w_pow(ts[0] + ts[1]) * pt.w_p).coeff(0)
    if len(ts) == 1 and n_u == 2:
        return -pt.ubarm1 * (pt.w_pow(ts[0]) * pt.w_p).coeff(0)
    if len(ts) == 1:
        return 0.0
    if n_u == 3:
        return pt.ubar1 * pt.ubarm1
    if n_u == 2 and n_v == 1:
        return 0.0
    if n_u == 1 and n_v == 2:
        return 1.0
    return 0.0


def trilinear_form(pt: Point, x1: Tangent, x2: Tangent, x3: Tangent) -> complex:
    """Symmetric trilinear form <x1 . x2, x3> on arbitrary variations."""
    xs = (x1, x2, x3)
    dw = [x.a + x.ab for x in xs]
    ds = [x.ab - x.a for x in xs]
    s_p = (pt.lbar - pt.lam).derivative()

    width = sum((f.hi - f.lo) if not f.is_zero else 0 for f in dw)
    m = pt.quad_m(width + 16)
    zs = la.unit_roots(m)
    (wpv,) = pt.on_grid(m, "w_p")
    if vanishes_on_circle(wpv):
        raise la.ZeroOnCircle("w' vanishes on the circle")
    dwv = [la.grid_eval(f, m) for f in dw]
    dsv = [la.grid_eval(f, m) for f in ds]
    spv = la.grid_eval(s_p, m)
    # the s' term carries an extra 1/w': with dw/dt_n = -z w^n w' this
    # is what reduces the t-only case to z s' w^{i+j+k} w'
    num = (
        dwv[0] * dwv[1] * dsv[2]
        + dwv[0] * dsv[1] * dwv[2]
        + dsv[0] * dwv[1] * dwv[2]
        - spv * dwv[0] * dwv[1] * dwv[2] / wpv
    )
    circle = 0.5 * la.contour_mean(num / (zs**2 * wpv))

    lv = [ell_variation(x) for x in xs]
    reg = [x.ab - lvi for x, lvi in zip(xs, lv)]  # variation of lbar - ell
    recip = la.taylor_reciprocal_at_zero(pt.lbar_p.shift(2), 8)
    series_num = (
        reg[0] * lv[1] * lv[2]
        + lv[0] * reg[1] * lv[2]
        + lv[0] * lv[1] * reg[2]
        + lv[0] * lv[1] * lv[2]
    )
    res0 = (series_num * recip).residue()
    return circle - res0


def euler_derivative(pt: Point) -> complex:
    """E F by a centered difference of step h = EULER_STEP along the
    Euler field.

    Refused (TruncationLoss) when the rounding bounds of the two values
    of F, divided by 2h, exceed EF_ROUNDING_TOL * max(1, |E F|).
    """
    ef = euler_field(pt)
    fp, bp = _potential_sum(point_shift(pt, ef, EULER_STEP))
    fm, bm = _potential_sum(point_shift(pt, ef, -EULER_STEP))
    d = (fp - fm) / (2 * EULER_STEP)
    bound = (bp + bm) / (2 * EULER_STEP)
    if bound > EF_ROUNDING_TOL * max(1.0, abs(d)):
        raise la.TruncationLoss(
            f"Euler derivative lost to cancellation: rounding bound {bound:.1e} "
            f"above {EF_ROUNDING_TOL:.0e} * max(1, |E F|)")
    return d


def quasihomogeneity_residual(pt: Point) -> complex:
    """E F - 2 F - (1/2)(ubar_0 - u_0) w_0 - ubar_0^2; zero on the manifold."""
    ef = euler_derivative(pt)
    f = potential_F(pt)
    return ef - 2.0 * f - 0.5 * (pt.v - pt.u0) * pt.w.coeff(0) - pt.v**2


def flat_fd_triple(pt: Point, labels) -> complex:
    """Finite-difference triple derivative in the flat chart.

    Centered differences composed per direction, one Richardson step
    (h = 5e-3 and h/2) to cancel the quadratic error term, about the
    chart t_-60 .. t_60 of pt.  Each chart rebuild solves to 3e-14 and
    tries the half bands 100, 140 and 200 in turn, refusing only at the
    last (see point_from_flat).
    """
    t0 = flat_coordinates(pt, -60, 60, grid_size=2048)
    cache: dict = {}

    def f_at(offsets_raw: list) -> complex:
        offsets = tuple(sorted(offsets_raw, key=lambda kv: (str(kv[0]), kv[1])))
        if offsets not in cache:
            t = dict(t0)
            u, v = pt.u, pt.v
            for lab, d in offsets:
                if lab == "u":
                    u = u + d
                elif lab == "v":
                    v = v + d
                else:
                    t[lab] = t.get(lab, 0.0) + d
            q = point_from_flat(t, u, v, band_n=100, tol=3e-14, widen=(140, 200))
            cache[offsets] = potential_F(q)
        return cache[offsets]

    def key(lab):
        return lab[1] if isinstance(lab, tuple) else lab

    def stencil(step: float) -> complex:
        def deriv(dirs, offsets):
            if not dirs:
                return f_at(offsets)
            lab, rest = dirs[0], dirs[1:]
            plus = deriv(rest, offsets + [(key(lab), step)])
            minus = deriv(rest, offsets + [(key(lab), -step)])
            return (plus - minus) / (2 * step)

        return deriv(list(labels), [])

    coarse = stencil(5e-3)
    fine = stencil(5e-3 / 2)
    return (4.0 * fine - coarse) / 3.0
