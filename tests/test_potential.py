"""Potential tests.

Oracles: the quadratic part against a double-contour pairing with the
log kernel, the full value against a trilogarithm pairing, and the
t-triple derivatives against a symmetric difference kernel.  Closed
forms are then cross-checked by chart finite differences and by the
trilinear form on flat frames.
"""

from __future__ import annotations

import numpy as np
import pytest

import todafrob.flatcoords as fc
import todafrob.laurent as la
import todafrob.manifold as mf
import todafrob.potential as po

PT = mf.sample_point(11, n=24)
PTF = mf.sample_point(7, n=8, scale=0.03)

# double-contour radii: inside the annulus where w stays zero-free
R_IN = 0.93
R_OUT = 1.08
M_ORACLE = 256


def _ring(radius: float, m: int = M_ORACLE) -> np.ndarray:
    return radius * la.unit_roots(m)


def quad_quadratic_term(pt) -> complex:
    """(1/2)(1/2 pi i)^2 double contour of (w1/z1)(w2/z2) log(1 - z1/z2)."""
    a = _ring(R_IN)
    b = _ring(R_OUT)
    fa = (pt.w.evaluate(a) / a) * a  # w(z1)/z1 * z1 quadrature weight
    fb = (pt.w.evaluate(b) / b) * b
    ker = np.log(1.0 - a[:, None] / b[None, :])
    return 0.5 * complex(np.mean(fa[:, None] * fb[None, :] * ker))


def trilog(x: np.ndarray, terms: int = 240) -> np.ndarray:
    """sum_{k>=1} x^k / k^3, elementwise, |x| < 1."""
    acc = np.zeros_like(x)
    p = np.ones_like(x)
    for k in range(1, terms + 1):
        p = p * x
        acc = acc + p / k**3
    return acc


def quad_full_potential(pt) -> complex:
    """Full-potential oracle: trilogarithm pairing of the two contours
    plus one-contour and fiber corrections."""
    a = _ring(R_IN)
    b = _ring(R_OUT)
    wpa = pt.w_p.evaluate(a) * a
    wpb = pt.w_p.evaluate(b) * b
    li = trilog(a[:, None] / b[None, :])
    term_pair = 0.5 * complex(np.mean(li * wpa[:, None] * wpb[None, :]))

    eu = pt.ubarm1
    m = 512
    zc = la.unit_roots(m)
    wc = la.grid_eval(pt.w, m)
    wpc = la.grid_eval(pt.w_p, m)
    term_line = complex(np.mean((eu / zc - zc) * wpc * zc))

    h = la.log_values_on_circle(zc / wc)  # log(z/w) on the circle
    tm1 = fc.flat_coordinates(pt, -1, -1)[-1]
    term_sq = 0.5 * (pt.v + 0.5 * tm1) * complex(np.mean(h**2 * wpc * zc))

    return term_pair + term_line + term_sq + 0.5 * pt.v**2 * pt.u - eu


def kernel_triple(pt, i: int, j: int, k: int) -> complex:
    """t-triple derivative from the symmetric difference kernel."""
    a = _ring(R_IN)
    b = _ring(R_OUT)
    wa = pt.w.evaluate(a)
    wb = pt.w.evaluate(b)
    wpa = pt.w_p.evaluate(a) * a
    wpb = pt.w_p.evaluate(b) * b
    ker = a[:, None] / (b[None, :] - a[:, None])
    prod = np.ones((len(a), len(b)), dtype=complex)
    for n in (i, j, k):
        prod = prod * (wa[:, None] ** n - wb[None, :] ** n)
    d = 0.5 * complex(np.mean(ker * prod * wpa[:, None] * wpb[None, :]))

    m = 512
    zc = la.unit_roots(m)
    wc = la.grid_eval(pt.w, m)
    wpc = la.grid_eval(pt.w_p, m)
    line = -complex(np.mean((zc + pt.ubarm1 / zc) * wc ** (i + j + k) * wpc * zc))

    def dlt(x, y):
        return 1.0 if x == -1 and y == -1 else 0.0

    delta = 0.5 * (dlt(i, j + k) + dlt(j, k + i) + dlt(k, i + j))
    return d + line + delta


TRIPLES = [
    (0, 0, 0),
    (-1, 0, -1),
    (-1, -1, 0),
    (1, -2, 0),
    (2, 1, -3),
    (1, 1, -2),
    (-2, -1, 1),
    (-2, -2, 1),
]


def test_quadratic_term_against_double_contour():
    for pt in (PT, PTF):
        assert abs(po.first_sum(pt) - quad_quadratic_term(pt)) < 1e-10


def test_full_potential_against_trilog_pairing():
    for pt in (PT, PTF):
        assert abs(po.potential_F(pt) - quad_full_potential(pt)) < 1e-9


def test_locus_values():
    assert abs(po.potential_F(mf.locus_point(0.0, 0.0))) < 1e-14
    for u, v in [(0.3, -0.2), (-0.4 + 0.1j, 0.25 + 0.05j)]:
        q = mf.locus_point(u, v)
        assert abs(po.potential_F(q) - 0.5 * u * v**2) < 1e-13
        assert abs(po.dF_du(q) - 0.5 * v**2) < 1e-14
        assert abs(po.dF_dv(q) - u * v) < 1e-13


def test_potential_refuses_cancellation():
    # on the locus F = u v^2/2 comes out of terms of size e^u that cancel
    for u in (2.0, 10.0):
        assert abs(po.potential_F(mf.locus_point(u, 0.2)) - 0.02 * u) < 1e-8
    for u in (20.0, 40.0, 100.0):
        with pytest.raises(la.TruncationLoss):
            po.potential_F(mf.locus_point(u, 0.2))


def test_first_derivatives_match_chart_differences():
    # negative-side chart decay is only ~0.76 per degree, so the window
    # must reach +-80 before the dropped tail stops biasing the stencil
    t0 = fc.flat_coordinates(PTF, -80, 80, grid_size=2048)
    u0, v0 = PTF.u, PTF.v
    h = 1e-5

    def f_of(t, u, v):
        return po.potential_F(fc.point_from_flat(t, u, v, band_n=100, tol=3e-14))

    for alpha in (-3, -1, 0, 2):
        tp = dict(t0)
        tp[alpha] = tp.get(alpha, 0.0) + h
        tm = dict(t0)
        tm[alpha] = tm.get(alpha, 0.0) - h
        fd = (f_of(tp, u0, v0) - f_of(tm, u0, v0)) / (2 * h)
        assert abs(po.dF_dt(PTF, alpha) - fd) < 1e-8, alpha

    fd_u = (f_of(t0, u0 + h, v0) - f_of(t0, u0 - h, v0)) / (2 * h)
    assert abs(po.dF_du(PTF) - fd_u) < 1e-8
    fd_v = (f_of(t0, u0, v0 + h) - f_of(t0, u0, v0 - h)) / (2 * h)
    assert abs(po.dF_dv(PTF) - fd_v) < 1e-8


def test_triple_t_against_kernel():
    for i, j, k in TRIPLES:
        closed = po.triple_t(PT, i, j, k)
        oracle = kernel_triple(PT, i, j, k)
        assert abs(closed - oracle) < 1e-8, (i, j, k, closed, oracle)


def test_triple_t_symmetric():
    assert abs(po.triple_t(PT, 2, -1, 1) - po.triple_t(PT, -1, 1, 2)) < 1e-12
    assert abs(po.triple_t(PT, 2, -1, 1) - po.triple_t(PT, 1, 2, -1)) < 1e-12


FLAT_CASES = [
    (("t", 0), ("t", 0), ("t", -1)),
    (("t", 0), ("t", -1), "u"),
    (("t", 1), "u", "u"),
    ("u", "u", "u"),
    (("t", 0), ("t", -1), "v"),
    ("v", "v", "u"),
]


def test_triple_flat_matches_finite_differences():
    for labs in FLAT_CASES:
        closed = po.triple_flat(PTF, *labs)
        fd = po.flat_fd_triple(PTF, labs)
        assert abs(closed - fd) < 1e-5, (labs, closed, fd)


def _direction(pt, lab):
    if lab == "u":
        return mf.frame_u(pt)
    if lab == "v":
        return mf.frame_v()
    return fc.flat_frame(pt, lab[1])


def test_trilinear_form_matches_flat_triples():
    cases = FLAT_CASES + [
        (("t", 1), ("t", -2), ("t", 0)),
        (("t", 2), ("t", 1), ("t", -3)),
        (("t", -1), ("t", 0), ("t", -1)),
        (("t", 1), ("t", -2), "v"),
        (("t", -2), "u", "u"),
        ("u", "v", "v"),
    ]
    for labs in cases:
        xs = [_direction(PT, lab) for lab in labs]
        closed = po.triple_flat(PT, *labs)
        form = po.trilinear_form(PT, *xs)
        assert abs(closed - form) < 1e-8, (labs, closed, form)


def test_trilinear_form_agrees_with_product_metric():
    x1 = mf.frame_u(PT)
    x2 = fc.flat_frame(PT, 1)
    x3 = fc.flat_frame(PT, -2)
    form = po.trilinear_form(PT, x1, x2, x3)
    direct = mf.metric_tangent(PT, mf.tan_mul(PT, x1, x2), x3)
    assert abs(form - direct) < 1e-8


def test_quasihomogeneity():
    assert abs(po.quasihomogeneity_residual(PT)) < 1e-6
    assert abs(po.quasihomogeneity_residual(PTF)) < 1e-6
    assert abs(po.quasihomogeneity_residual(mf.locus_point(0.2, 0.1))) < 1e-7


def test_quasihomogeneity_refuses_cancellation():
    # E F subtracts values of F whose terms are of size e^u: at u = 15 the
    # rounding bound over 2h is 1.5e-4, above the 1e-6 suite tolerance
    assert abs(po.quasihomogeneity_residual(mf.locus_point(5.0, 0.2))) < 1e-6
    with pytest.raises(la.TruncationLoss):
        po.quasihomogeneity_residual(mf.locus_point(15.0, 0.2))
