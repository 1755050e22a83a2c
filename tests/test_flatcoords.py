"""Tests for the flat chart.

Independent oracle: additive Cauchy splitting of log(z(w)/w) along the
image curve.  The part holomorphic inside the curve carries the
nonnegative coefficients, the part vanishing at infinity the negative
ones; both are recovered by evaluating the Cauchy transform on control
circles and reading Fourier coefficients, with no reference to the
moment-integral formula used by the implementation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from todafrob import flatcoords as fc
from todafrob import laurent as la
from todafrob import manifold as mf
from todafrob.laurent import LaurentSeries as LS

PT = mf.sample_point(11, n=24)


def rh_split_coefficients(pt, n_min, n_max, m=2048, k=128):
    zs = la.unit_roots(m)
    wv = la.grid_eval(pt.w, m)
    wpv = la.grid_eval(pt.w_p, m)
    h = la.log_values_on_circle(zs / wv)
    base = h * wpv

    def cauchy(zetas):
        # (1/2 pi i) contour of h(w) dw / (w - zeta), sampled in z
        return np.array([la.contour_mean(base / (wv - zeta)) for zeta in zetas])

    r_in = 0.4 * float(np.min(np.abs(wv)))
    r_out = 2.5 * float(np.max(np.abs(wv)))
    ring = la.unit_roots(k)
    inside = cauchy(r_in * ring)
    outside = -cauchy(r_out * ring)
    f_in = np.fft.fft(inside) / k
    f_out = np.fft.fft(outside) / k
    out = {}
    for n in range(0, n_max + 1):
        out[n] = complex(f_in[n] / r_in**n)
    for n in range(n_min, 0):
        out[n] = complex(f_out[n % k] / r_out**n)
    return out


def test_chart_matches_cauchy_splitting():
    t = fc.flat_coordinates(PT, -6, 6)
    t_rh = rh_split_coefficients(PT, -6, 6)
    for n in range(-6, 7):
        assert abs(t[n] - t_rh[n]) < 1e-8, n


def test_locus_chart_vanishes():
    pt = mf.locus_point(-0.3 + 0.1j, 0.25 - 0.05j)
    t = fc.flat_coordinates(pt, -8, 8)
    assert max(abs(c) for c in t.values()) < 1e-14


def test_gram_matrix_is_constant():
    frames = {n: fc.flat_frame(PT, n) for n in range(-4, 5)}
    frames["u"] = mf.frame_u(PT)
    frames["v"] = mf.frame_v()
    keys = list(frames)
    worst = 0.0
    for i in keys:
        for j in keys:
            got = mf.metric_tangent(PT, frames[i], frames[j])
            if i == "u":
                want = 1.0 if j == "v" else 0.0
            elif i == "v":
                want = 1.0 if j == "u" else 0.0
            elif j in ("u", "v"):
                want = 0.0
            else:
                want = 1.0 if i + j == -1 else 0.0
            worst = max(worst, abs(got - want))
    assert worst < 1e-9


def test_roundtrip_point_chart_point():
    # coefficients decay like 0.8^|n| here, so +-140 puts the dropped
    # tail near machine precision
    t = fc.flat_coordinates(PT, -140, 140, grid_size=2048)
    edge = max(abs(t[-140]), abs(t[140]))
    assert edge < 1e-12  # chart truncation provably negligible
    pt2 = fc.point_from_flat(t, PT.u, PT.v, band_n=40)
    assert la.series_dist(PT.lam, pt2.lam) < 1e-10
    assert la.series_dist(PT.lbar, pt2.lbar) < 1e-10


def test_roundtrip_chart_point_chart():
    t = {-3: 0.02 + 0.01j, -1: -0.03 + 0.0j, 0: 0.04 - 0.02j, 2: 0.015j, 5: -0.01 + 0.0j}
    u, v = -0.4 + 0.1j, 0.2 - 0.05j
    pt = fc.point_from_flat(t, u, v, band_n=64)
    assert abs(pt.u - u) < 1e-12
    assert abs(pt.v - v) < 1e-13
    t2 = fc.flat_coordinates(pt, -12, 12)
    for n in range(-12, 13):
        assert abs(t2[n] - t.get(n, 0.0)) < 1e-11, n


def test_frame_and_differential_duality():
    for n in (-3, -1, 0, 2):
        dt = fc.flat_differential(PT, n)
        # raising the index with the metric sends dt_n to the t_{-1-n} frame
        raised = mf.eta_apply(PT, dt)
        assert raised.dist(fc.flat_frame(PT, -1 - n)) < 1e-10
        for m in (-3, -1, 0, 2):
            got = mf.pair(dt, fc.flat_frame(PT, m))
            assert abs(got - (1.0 if m == n else 0.0)) < 1e-11
        assert abs(mf.pair(dt, mf.frame_u(PT))) < 1e-12
        assert abs(mf.pair(dt, mf.frame_v())) < 1e-12


def _bump_point(pt, deg, h):
    mono = LS.monomial(deg, h)
    if deg <= 0:
        return mf.Point(pt.lam + mono, pt.lbar)
    return mf.Point(pt.lam, pt.lbar + mono)


def test_jacobian_matches_finite_differences():
    h = 1e-6
    for n, m_deg in [(0, 0), (2, -3), (-3, 2), (-1, 1)]:
        plus = fc.flat_coordinates(_bump_point(PT, m_deg, h), n, n)[n]
        minus = fc.flat_coordinates(_bump_point(PT, m_deg, -h), n, n)[n]
        fd = (plus - minus) / (2 * h)
        exact = fc.jacobian_t_w(PT, n, m_deg)
        assert abs(fd - exact) < 1e-8
        bump = (
            mf.Tangent(LS.monomial(m_deg, 1.0), LS.zero())
            if m_deg <= 0
            else mf.Tangent(LS.zero(), LS.monomial(m_deg, 1.0))
        )
        assert abs(mf.pair(fc.flat_differential(PT, n), bump) - exact) < 1e-10


def test_scalar_identities():
    t = fc.flat_coordinates(PT, -100, 100, grid_size=2048)
    assert max(abs(t[-100]), abs(t[100])) < 1e-10
    lhs = fc.log_ratio_pairing(PT)
    rhs = 0.5 * sum(t[i] * t[-1 - i] for i in range(-100, 100)) - t[-1]
    assert abs(lhs - rhs) < 1e-9
    # the constant coefficient of lam is -t_{-1} - v
    assert abs(PT.u0 + t[-1] + PT.v) < 1e-11


def test_chart_widens_its_band_only_on_refusal():
    t = fc.flat_coordinates(PT, -140, 140, grid_size=2048)
    # the w spectrum of PT needs the band [-24, 24]: 16 and 20 refuse
    got = fc.point_from_flat(t, PT.u, PT.v, band_n=16, widen=(20, 40))
    ref = fc.point_from_flat(t, PT.u, PT.v, band_n=40)
    assert la.series_dist(got.lam, ref.lam) == la.series_dist(got.lbar, ref.lbar) == 0.0
    with pytest.raises(la.TruncationLoss, match=r"band \[-20,20\]"):
        fc.point_from_flat(t, PT.u, PT.v, band_n=16, widen=(20,))


def test_newton_divergence_is_reported():
    with pytest.raises(fc.NewtonDiverged):
        fc.point_from_flat({1: 10.0}, 0.0, 0.0, band_n=16)


# -- Horner evaluation of the chart series ---------------------------------
# The per-term powers below are the evaluation the Horner passes replaced;
# they stay here only as the reference.


def series_reference(t, wv):
    phi = sum(c * wv**n for n, c in t.items())
    dphi = sum(n * c * wv ** (n - 1) for n, c in t.items())
    return phi, dphi


@pytest.mark.parametrize("keys", [
    range(-140, 141),
    [-17, -9, -8, -2, 0, 3, 4, 11, 30],
    [0, 1, 2, 5, 13],
    [-1, -4, -5, -20],
], ids=["281-keys", "gaps", "positive", "negative"])
def test_series_evaluation_matches_per_term_powers(keys):
    rng = np.random.default_rng(5)
    t = {n: complex(*rng.normal(size=2)) * 0.03 * 0.9 ** abs(n) for n in keys}
    ns = np.array(sorted(t), dtype=int)
    cs = np.array([t[n] for n in ns])
    wv = la.grid_eval(PT.w, 512)
    phi, dphi = fc._series_and_derivative(ns, cs, wv)
    ref, dref = series_reference(t, wv)
    # rounding is relative to the largest term, not to the sum
    scale = max(float(np.max(np.abs(c * wv**n))) for n, c in t.items())
    dscale = max(float(np.max(np.abs(n * c * wv ** (n - 1)))) for n, c in t.items())
    assert np.max(np.abs(phi - ref)) < 1e-14 * len(t) * scale
    assert np.max(np.abs(dphi - dref)) < 1e-14 * len(t) * dscale


def test_empty_chart_is_the_locus_point():
    for u, v in [(0.3, -0.2), (-0.4 + 0.1j, 0.25 - 0.05j)]:
        pt, ref = fc.point_from_flat({}, u, v), mf.locus_point(u, v)
        assert la.series_dist(pt.lam, ref.lam) < 1e-15
        assert la.series_dist(pt.lbar, ref.lbar) < 1e-15


def test_chart_moments_match_per_n_powers():
    m = 2048
    t = fc.flat_coordinates(PT, -140, 140, grid_size=m)
    zs = la.unit_roots(m)
    wv = la.grid_eval(PT.w, m)
    base = la.log_values_on_circle(zs / wv) * la.grid_eval(PT.w_p, m)
    for n in range(-140, 141):
        assert abs(t[n] - la.contour_mean(base * wv ** (-n - 1))) < 1e-14, n


def test_t_minus_1_is_minus_w0():
    # integrating log(z/w) w' by parts leaves -(1/2 pi i) contour of w/z dz
    for seed, c in [(11, 0.1 + 0.05j), (3, -0.2), (7, 0.3j)]:
        pt = mf.sample_point(seed, n=24)
        pt = mf.Point(pt.lam + LS(0, [c]), pt.lbar)
        w0 = pt.lam.coeff(0) + pt.lbar.coeff(0)
        assert abs(w0) > 0.1
        assert abs(fc.flat_coordinates(pt, -1, -1)[-1] + w0) <= 1e-14 * abs(w0), seed


def test_stacked_chart_is_bit_equal_to_pointwise():
    pts = [mf.sample_point(seed, n=10) for seed in range(8)]

    def stack(series):
        lo, hi = min(f.lo for f in series), max(f.hi for f in series)
        return LS(lo, np.array([f.window(lo, hi) for f in series]))

    stacked = mf.Point(stack([p.lam for p in pts]), stack([p.lbar for p in pts]))
    ts = fc.flat_coordinates(stacked, -12, 12)
    for k, p in enumerate(pts):
        t = fc.flat_coordinates(p, -12, 12)
        assert all(ts[n][k] == t[n] for n in t)


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_chart_takes_memory_linear_in_the_grid():
    # per-term (terms x m) arrays would take 4.6 MiB for the inverse here
    t = fc.flat_coordinates(PT, -140, 140, grid_size=2048)
    assert traced_peak_mib(lambda: fc.point_from_flat(t, PT.u, PT.v, band_n=40)) < 1.0
    assert traced_peak_mib(lambda: fc.flat_coordinates(PT, -140, 140, grid_size=2048)) < 1.0
