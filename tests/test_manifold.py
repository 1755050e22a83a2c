"""Tests for the Frobenius structure maps.

The independent oracle here is the evaluation-differential calculus:
the one-forms dl(p) = (p/(z(p-z)), 0) and dlb(q) = (0, z/(q... )) pair
with a tangent vector by evaluating its slots at p, and their products
and inner products have closed kernel expressions in p, q.  Every
structure map is checked against those kernels on a generic point.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from todafrob import canonical as ca
from todafrob import laurent as la
from todafrob import manifold as mf
from todafrob.laurent import LaurentSeries as LS

GEN_K = 160

# evaluation nodes: unbarred generators need |p| > 1, barred |p| < 1
P1 = 1.35 * np.exp(0.7j)
P2 = 1.2 * np.exp(-0.4j)
Q1 = np.exp(-1.1j) / 1.35
Q2 = np.exp(0.9j) / 1.2

PT = mf.sample_point(11)
E_STAR = mf.unit_cotangent(PT)
E_VEC = mf.unit_tangent()


def d_lam(p, K: int = GEN_K) -> mf.Cotangent:
    """Truncated kernel of the evaluation functional a -> a(p), |p| > 1."""
    ks = np.arange(-1, K + 1)
    return mf.Cotangent(LS(-1, p ** (-(ks + 1))), LS.zero())


def d_lbar(q, K: int = GEN_K) -> mf.Cotangent:
    """Truncated kernel of ab -> ab(q), |q| < 1."""
    ks = np.arange(-K, 1)
    return mf.Cotangent(LS.zero(), LS(-K, q ** (-(ks + 1))))


def kernel_factor(p, q) -> complex:
    return p * q / (p - q)


def test_pair_evaluates_generators():
    x = mf.sample_tangent(3)
    assert abs(mf.pair(d_lam(P1), x) - x.a.evaluate(P1)) < 1e-12
    assert abs(mf.pair(d_lbar(Q1), x) - x.ab.evaluate(Q1)) < 1e-12


def test_cot_mul_matches_kernel_product():
    # dl(p) . dl(q) = pq/(p-q) [l'(p) dl(q) - l'(q) dl(p)], same pattern
    # for the mixed and barred cases with the matching derivative values
    lp = PT.lam_p
    bp = PT.lbar_p

    got = mf.cot_mul(PT, d_lam(P1), d_lam(P2))
    want = (
        d_lam(P2).scale(kernel_factor(P1, P2) * lp.evaluate(P1))
        - d_lam(P1).scale(kernel_factor(P1, P2) * lp.evaluate(P2))
    )
    assert got.dist(want) < 1e-9

    got = mf.cot_mul(PT, d_lam(P1), d_lbar(Q2))
    want = (
        d_lbar(Q2).scale(kernel_factor(P1, Q2) * lp.evaluate(P1))
        - d_lam(P1).scale(kernel_factor(P1, Q2) * bp.evaluate(Q2))
    )
    assert got.dist(want) < 1e-9

    got = mf.cot_mul(PT, d_lbar(Q1), d_lbar(Q2))
    want = (
        d_lbar(Q2).scale(kernel_factor(Q1, Q2) * bp.evaluate(Q1))
        - d_lbar(Q1).scale(kernel_factor(Q1, Q2) * bp.evaluate(Q2))
    )
    assert got.dist(want) < 1e-9


def test_cot_mul_frozen_simple():
    # at lam = z - 1/z, lbar = 1/z all three products below close exactly
    pt = mf.locus_point(0.0, 0.0)
    o_a = mf.Cotangent(LS.monomial(-1, 1.0), LS.zero())
    o_b = mf.Cotangent(LS.zero(), LS.monomial(-1, 1.0))

    aa = mf.cot_mul(pt, o_a, o_a)
    assert aa.dist(mf.Cotangent(LS.one(), LS.zero())) < 1e-14

    ab = mf.cot_mul(pt, o_a, o_b)
    assert ab.dist(mf.Cotangent(LS.zero(), LS.one())) < 1e-14

    unit = mf.cot_mul(pt, o_a, mf.unit_cotangent(pt))
    assert unit.dist(o_a) < 1e-14


def test_cot_mul_unit_exact():
    o = mf.sample_cotangent(5)
    assert mf.cot_mul(PT, E_STAR, o).dist(o) < 1e-13
    assert mf.cot_mul(PT, o, E_STAR).dist(o) < 1e-13


def test_cot_mul_associative():
    o1 = mf.sample_cotangent(21, n=8)
    o2 = mf.sample_cotangent(22, n=8)
    o3 = mf.sample_cotangent(23, n=8)
    left = mf.cot_mul(PT, mf.cot_mul(PT, o1, o2), o3)
    right = mf.cot_mul(PT, o1, mf.cot_mul(PT, o2, o3))
    scale = max(left.norm(), right.norm(), 1.0)
    assert left.dist(right) / scale < 1e-12


def unshared_cot_mul(pt: mf.Point, o1: mf.Cotangent, o2: mf.Cotangent) -> mf.Cotangent:
    """cot_mul as written before its per-operand sums could be shared."""
    lp, bp = pt.lam_p, pt.lbar_p
    s1 = lp * o1.w1 + bp * o1.w2
    s2 = lp * o2.w1 + bp * o2.w2
    cross = o1.w1 * o2.w2 + o1.w2 * o2.w1
    q_first = lp * (o1.w1 * o2.w1) + bp * cross
    q_second = bp * (o1.w2 * o2.w2) + lp * cross
    first = (o1.w1 * s2.project("geq", -1) + o2.w1 * s1.project("geq", -1)
             - q_first.project("geq", -3)).shift(2)
    second = (-(o1.w2 * s2.project("leq", -2)) - o2.w2 * s1.project("leq", -2)
              + q_second.project("leq", -2)).shift(2)
    return mf.Cotangent(first, second)


def test_cot_mul_with_shared_sums_is_bit_equal():
    pts = [PT, mf.locus_point(0.3, -0.2)]
    os = [mf.sample_cotangent(s, n=6) for s in (31, 32, 33)] + [E_STAR]
    for pt in pts:
        sums = [mf.cot_sum(pt, o) for o in os]
        for o1, s1 in zip(os, sums):
            for o2, s2 in zip(os, sums):
                want = unshared_cot_mul(pt, o1, o2)
                for got in (mf.cot_mul(pt, o1, o2), mf.cot_mul(pt, o1, o2, s1, s2)):
                    for g, w in ((got.w1, want.w1), (got.w2, want.w2)):
                        assert g.lo == w.lo and g.c.tobytes() == w.c.tobytes()


def test_eta_unit_correspondence():
    # eta sends the cotangent unit to e = (-1, 1) and back
    img = mf.eta_apply(PT, E_STAR)
    assert img.dist(E_VEC) < 1e-14
    back = mf.eta_inverse(PT, E_VEC)
    assert back.dist(E_STAR) < 1e-12


def test_eta_symmetric_pairing():
    o1 = mf.sample_cotangent(31, n=10)
    o2 = mf.sample_cotangent(32, n=10)
    a = mf.pair(o1, mf.eta_apply(PT, o2))
    b = mf.pair(o2, mf.eta_apply(PT, o1))
    assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


def test_eta_kernel_values():
    lp, bp = PT.lam_p, PT.lbar_p

    got = mf.pair(d_lam(P1), mf.eta_apply(PT, d_lam(P2)))
    want = kernel_factor(P1, P2) * (lp.evaluate(P2) - lp.evaluate(P1))
    assert abs(got - want) < 1e-10

    got = mf.pair(d_lam(P1), mf.eta_apply(PT, d_lbar(Q2)))
    want = kernel_factor(P1, Q2) * (bp.evaluate(Q2) + lp.evaluate(P1))
    assert abs(got - want) < 1e-10

    got = mf.pair(d_lbar(Q1), mf.eta_apply(PT, d_lbar(Q2)))
    want = kernel_factor(Q1, Q2) * (-bp.evaluate(Q2) + bp.evaluate(Q1))
    assert abs(got - want) < 1e-10


def test_eta_roundtrips():
    o = mf.sample_cotangent(41, n=10)
    o2 = mf.eta_inverse(PT, mf.eta_apply(PT, o))
    assert o.dist(o2) < 1e-10 * max(o.norm(), 1.0)

    x = mf.sample_tangent(42, n=10)
    x2 = mf.eta_apply(PT, mf.eta_inverse(PT, x))
    assert x.dist(x2) < 1e-10 * max(x.norm(), 1.0)


def test_metric_tangent_frame_values():
    du = mf.frame_u(PT)
    dv = mf.frame_v()
    assert abs(mf.metric_tangent(PT, du, dv) - 1.0) < 1e-12
    assert abs(mf.metric_tangent(PT, du, du)) < 1e-12
    assert abs(mf.metric_tangent(PT, dv, dv)) < 1e-12


def test_metric_matches_eta_inverse_pairing():
    x = mf.sample_tangent(51, n=10)
    y = mf.sample_tangent(52, n=10)
    direct = mf.metric_tangent(PT, x, y)
    via_inverse = mf.pair(mf.eta_inverse(PT, y), x)
    assert abs(direct - via_inverse) < 1e-10 * max(abs(direct), 1.0)


def test_frobenius_invariance():
    x = mf.sample_tangent(61, n=6)
    y = mf.sample_tangent(62, n=6)
    w = mf.sample_tangent(63, n=6)
    a = mf.metric_tangent(PT, mf.tan_mul(PT, x, y), w)
    b = mf.metric_tangent(PT, y, mf.tan_mul(PT, x, w))
    assert abs(a - b) < 1e-9 * max(abs(a), abs(b), 1.0)


def test_tan_mul_unit_and_associativity():
    x = mf.sample_tangent(71, n=6)
    y = mf.sample_tangent(72, n=6)
    z = mf.sample_tangent(73, n=6)
    assert mf.tan_mul(PT, E_VEC, x).dist(x) < 1e-10 * max(x.norm(), 1.0)
    left = mf.tan_mul(PT, mf.tan_mul(PT, x, y), z)
    right = mf.tan_mul(PT, x, mf.tan_mul(PT, y, z))
    scale = max(left.norm(), right.norm(), 1.0)
    assert left.dist(right) / scale < 1e-9


def test_gamma_defining_relation():
    # pairing the product against the Euler field equals the gamma pairing
    ef = mf.euler_field(PT)
    o1 = mf.sample_cotangent(81, n=10)
    o2 = mf.sample_cotangent(82, n=10)
    a = mf.pair(mf.cot_mul(PT, o1, o2), ef)
    b = mf.pair(o1, mf.gamma_apply(PT, o2))
    assert abs(a - b) < 1e-11 * max(abs(a), 1.0)


def test_gamma_kernel_values():
    lam, lbar = PT.lam, PT.lbar
    lp, bp = PT.lam_p, PT.lbar_p

    def expect(p, q, fa, fb, fap, fbp):
        return kernel_factor(p, q) * (
            fap.evaluate(p) * fb.evaluate(q) - fbp.evaluate(q) * fa.evaluate(p)
        ) + p * q * fap.evaluate(p) * fbp.evaluate(q)

    got = mf.pair(d_lam(P1), mf.gamma_apply(PT, d_lam(P2)))
    assert abs(got - expect(P1, P2, lam, lam, lp, lp)) < 1e-9

    got = mf.pair(d_lam(P1), mf.gamma_apply(PT, d_lbar(Q2)))
    assert abs(got - expect(P1, Q2, lam, lbar, lp, bp)) < 1e-9

    got = mf.pair(d_lbar(Q1), mf.gamma_apply(PT, d_lbar(Q2)))
    assert abs(got - expect(Q1, Q2, lbar, lbar, bp, bp)) < 1e-9


def test_gamma_roundtrips_and_intersection():
    o = mf.sample_cotangent(91, n=8)
    o2 = mf.gamma_inverse(PT, mf.gamma_apply(PT, o))
    assert o.dist(o2) < 1e-9 * max(o.norm(), 1.0)

    x = mf.sample_tangent(92, n=8)
    y = mf.sample_tangent(93, n=8)
    direct = mf.intersection_metric(PT, x, y)
    via_inverse = mf.pair(mf.gamma_inverse(PT, x), y)
    assert abs(direct - via_inverse) < 1e-9 * max(abs(direct), 1.0)


def test_euler_field_frozen():
    # lam = z - 1/z, lbar = 1/z gives E = (-2/z, 2/z)
    pt = mf.locus_point(0.0, 0.0)
    ef = mf.euler_field(pt)
    assert la.series_dist(ef.a, LS.monomial(-1, -2.0)) < 1e-15
    assert la.series_dist(ef.ab, LS.monomial(-1, 2.0)) < 1e-15


def test_membership_reports():
    rep = mf.check_membership(PT)
    assert rep.nondegenerate and rep.in_open_stratum
    assert rep.intersection_ok and rep.semisimple_ok
    assert rep.gamma_winding == 1
    d = rep.to_json_dict()
    assert isinstance(d["w_prime_min"], float)

    # w = z: regular stratum, but lam' = 1 + 1/z^2 vanishes at z = +-i
    rep0 = mf.check_membership(mf.locus_point(0.0, 0.0))
    assert rep0.in_open_stratum
    assert not rep0.intersection_ok
    assert rep0.semisimple_ok

    # w = z + 2.5 z^2 winds twice around the origin
    bad = mf.Point(LS(-1, [-1.0, 0.0, 1.0]), LS(-1, [1.0, 0.0, 0.0, 2.5]))
    repb = mf.check_membership(bad)
    assert repb.nondegenerate
    assert repb.gamma_winding == 2
    assert not repb.in_open_stratum


def w_with_inner_loops(a):
    """lam = z - 1/z + a z^-2, lbar = 1/z, so w = z + a z^-2.  For
    0 < a < 1, w winds once and w' vanishes only at a = 1/2; past that
    cusp the curve crosses itself."""
    return mf.Point(LS(-2, [a, -1.0, 0.0, 1.0]), LS(-1, [1.0]))


def test_membership_certifies_simplicity():
    rep = mf.check_membership(w_with_inner_loops(0.7))
    assert rep.nondegenerate and rep.gamma_winding == 1
    assert not rep.in_open_stratum
    assert rep.gamma_min_gap_ratio == 0.0 and rep.notes == "polygon crosses itself"

    rep = mf.check_membership(w_with_inner_loops(0.3))
    assert rep.in_open_stratum and rep.gamma_simple_margin > 1 and rep.notes == ""
    # a grid too coarse to certify the turning of the tangent fails closed
    rep = mf.check_membership(w_with_inner_loops(0.3), grid_size=64)
    assert rep.gamma_simple_margin > 1 and not rep.in_open_stratum
    assert rep.notes == "simplicity unresolved at m=64"


def test_simplicity_tests_take_linear_memory():
    pt = mf.sample_point(5, n=384)  # m = 4096: an m x m matrix would take 256 MiB
    for fn in (mf.check_membership, ca.canonical_data):
        tracemalloc.start()
        try:
            fn(pt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, fn.__name__


def test_validation_errors():
    with pytest.raises(ValueError):
        mf.Point(LS(-1, [1.0, 0.0, 2.0]), LS(-1, [1.0]))  # z^1 coeff not 1
    with pytest.raises(ValueError):
        mf.Point(LS(0, [0.0, 1.0, 3.0]), LS(-1, [1.0]))  # lam degree 2
    with pytest.raises(ValueError):
        mf.Point(LS(-1, [-1.0, 0.0, 1.0]), LS(0, [1.0]))  # ubar_{-1} = 0
    with pytest.raises(ValueError):
        mf.Tangent(LS(0, [1.0, 1.0]), LS.zero())  # first slot degree 1
    with pytest.raises(ValueError):
        mf.Cotangent(LS(-2, [1.0]), LS.zero())  # first slot degree -2
    with pytest.raises(ValueError):
        mf.Cotangent(LS.zero(), LS(0, [1.0, 1.0]))  # second slot degree 1


def test_w_pow_certified():
    winv = PT.w_pow(-1)
    prod = winv * PT.w
    assert la.series_dist(prod, LS.one()) < 1e-11
    w2 = PT.w_pow(-2)
    assert la.series_dist(w2 * PT.w, winv) < 1e-10


def test_point_json_roundtrip():
    d = PT.to_json_dict()
    pt2 = mf.Point.from_json_dict(d)
    assert la.series_dist(PT.lam, pt2.lam) == 0.0
    assert la.series_dist(PT.lbar, pt2.lbar) == 0.0
