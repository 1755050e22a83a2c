"""Canonical coordinate tests: pointwise definitions, the closed-form
self-intersecting example, duality identities, reconstruction, and the
smeared delta relations (diagonal metric and multiplication)."""

from __future__ import annotations

from collections import Counter

import numpy as np

import todafrob.canonical as ca
import todafrob.flatcoords as fc
import todafrob.laurent as la
import todafrob.manifold as mf
from todafrob.laurent import LaurentSeries as LS

PT = mf.sample_point(11)
PTF = mf.sample_point(7, n=8, scale=0.03)


def test_pointwise_definitions():
    data = ca.canonical_data(PT, 256)
    lp = PT.lam_p.evaluate(data.p)
    bp = PT.lbar_p.evaluate(data.p)
    assert np.max(np.abs(data.sigma - lp / (lp + bp))) < 1e-14
    assert np.max(np.abs(data.f + data.p**2 * lp * bp / (lp + bp))) < 1e-14
    assert data.critical_residual < 1e-14
    assert not data.self_intersecting


def test_self_intersecting_example():
    q = mf.Point(LS(-1, [-1.0, 0.0, 1.0]), LS(-1, [1.0]))  # lam = z - 1/z, lbar = 1/z
    data = ca.canonical_data(q, 128)
    assert np.max(np.abs(data.sigma - (1.0 + data.p**-2))) < 1e-14
    assert np.max(np.abs(data.u_sigma - 2.0 / data.p)) < 1e-14
    assert data.self_intersecting
    assert data.critical_residual < 1e-14


def test_du_pair_unit_and_euler():
    p = la.unit_roots(256)
    for pt in (PT, PTF):
        assert np.max(np.abs(ca.du_pair(pt, p, mf.unit_tangent()) - 1.0)) < 1e-13
        data = ca.canonical_data(pt, 256)
        vals = ca.du_pair(pt, p, mf.euler_field(pt))
        assert np.max(np.abs(vals - data.u_sigma)) < 1e-12


def test_velocities_are_du_eigenvalues():
    p = la.unit_roots(256)
    for i in (-2, 0, 1):
        a_i = ca.char_velocities(PT, ("t", i), 256)
        eig = ca.du_pair(PT, p, fc.flat_frame(PT, i))
        assert np.max(np.abs(a_i - eig)) < 1e-10, i
    a_u = ca.char_velocities(PT, "u", 256)
    assert np.max(np.abs(a_u - ca.du_pair(PT, p, mf.frame_u(PT)))) < 1e-14
    assert np.max(np.abs(a_u - PT.ubarm1 / p)) < 1e-14


def stacked_point(seeds, n: int = 10) -> mf.Point:
    pts = [mf.sample_point(seed, n=n) for seed in seeds]

    def stack(series):
        lo, hi = min(f.lo for f in series), max(f.hi for f in series)
        return LS(lo, np.array([f.window(lo, hi) for f in series]))

    return mf.Point(stack([p.lam for p in pts]), stack([p.lbar for p in pts]))


def horner_values(f: LS, m: int) -> np.ndarray:
    return f.evaluate(la.unit_roots(m))


def extended_values(f: LS, m: int) -> np.ndarray:
    """f at the m-th roots of unity by a direct sum in extended precision,
    each degree reduced mod m before its root is formed."""
    k = np.arange(m)
    degs = np.arange(f.lo, f.hi + 1) % m
    turn = 2.0 * np.arccos(np.longdouble(-1.0)) / m
    roots = np.exp(1j * turn * (np.outer(degs, k) % m).astype(np.longdouble))
    return f.c.astype(np.clongdouble) @ roots


def reference_velocities(pt: mf.Point, flow, m: int, values) -> np.ndarray:
    """char_velocities in the sigma form, with values(f, m) giving a
    series at the m-th roots of unity: a route independent of the grid."""
    p = values(LS(1, [1.0]), m)
    if flow == "u":
        return np.divide.outer(pt.ubarm1, p)
    if flow == "v":
        return np.ones(m, dtype=complex)
    kind, n = flow
    if kind == "t":
        lp, bp = values(pt.lam_p, m), values(pt.lbar_p, m)
        sigma = lp / (lp + bp)
        f = pt.w_pow(n) * pt.w_p
        plus, minus = values(f.project("geq", 0), m), values(f.project("leq", -1), m)
        return -p * (sigma * plus + (sigma - 1.0) * minus)
    f, part = (pt.lam, ("geq", 0)) if kind == "s" else (pt.lbar, ("leq", -1))
    return values((f**n).derivative().shift(1).project(*part), m)


VELOCITY_FLOWS = [("t", n) for n in range(-2, 3)] + [
    ("s", 1), ("s", 2), ("sbar", 1), ("sbar", 2), "u", "v"]


def velocity_gap(pt: mf.Point, flow, m: int, values) -> float:
    got, ref = ca.char_velocities(pt, flow, m), reference_velocities(pt, flow, m, values)
    assert np.shape(got) == np.shape(ref), (flow, m)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_grid_velocities_match_the_series_at_the_roots():
    for pt in (PT, stacked_point(range(4))):
        for m in (64, 256):
            for flow in VELOCITY_FLOWS:
                assert velocity_gap(pt, flow, m, extended_values) <= 1e-14, (flow, m)
                # Horner multiplies the top coefficient by z once per degree,
                # so on the 130-150 negative degrees of w^n w' (n < 0) it
                # carries about 5e-14 of rounding of its own
                long_tail = flow in (("t", -1), ("t", -2))
                tol = 1e-13 if long_tail else 1e-14
                assert velocity_gap(pt, flow, m, horner_values) <= tol, (flow, m)


def test_du_grid_matches_du_pair_at_the_roots():
    x = mf.sample_tangent(5)
    for pt in (PT, stacked_point(range(4))):
        for m in (64, 256):
            ref = ca.du_pair(pt, la.unit_roots(m), x)
            got = ca.du_grid(pt, m, x)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), m


def test_velocity_at_locus():
    q = mf.locus_point(0.3, -0.1)
    data = ca.canonical_data(q, 128)
    a_0 = ca.char_velocities(q, ("t", 0), 128)
    assert np.max(np.abs(a_0 + data.p * data.sigma)) < 1e-13


def test_lax_velocity_reduces_to_printed_case():
    # the printed n-independent form is the n = 1 specialization
    c_1 = ca.char_velocities(PT, ("s", 1), 256)
    p = la.unit_roots(256)
    direct = PT.lam_p.shift(1).project("geq", 0).evaluate(p)
    assert np.max(np.abs(c_1 - direct)) < 1e-13
    cb_1 = ca.char_velocities(PT, ("sbar", 1), 256)
    directb = PT.lbar_p.shift(1).project("leq", -1).evaluate(p)
    assert np.max(np.abs(cb_1 - directb)) < 1e-13


def test_reconstruction_roundtrip():
    x = mf.sample_tangent(5)
    p = la.unit_roots(1024)
    vals = ca.mu_pair(PT, p, x)
    y = ca.reconstruct_tangent(PT, vals)
    assert (x.a - y.a).max_abs() < 1e-9 and (x.ab - y.ab).max_abs() < 1e-9
    # consistency of the two pairings: du = -(lam' lbar'/w') dmu
    lp = PT.lam_p.evaluate(p)
    bp = PT.lbar_p.evaluate(p)
    assert np.max(np.abs(ca.du_pair(PT, p, x) + lp * bp / (lp + bp) * vals)) < 1e-11


def test_semisimplicity():
    e = mf.unit_tangent()
    assert ca.semisimplicity_residual(PT, e, e) < 1e-12
    x = mf.sample_tangent(5)
    y = mf.sample_tangent(6)
    assert ca.semisimplicity_residual(PT, x, y) < 1e-8
    assert ca.semisimplicity_residual(PTF, x, y) < 1e-8
    assert ca.semisimplicity_residual(PT, x, mf.frame_u(PT)) < 1e-8


def test_semisimplicity_residual_reads_the_grid_once(monkeypatch):
    # du_grid at the roots, not Horner: lam' and lbar' on the grid once
    x, y = mf.sample_tangent(5), mf.sample_tangent(6)
    p = la.unit_roots(256)
    xy = mf.tan_mul(PT, x, y)
    horner = np.max(np.abs(ca.du_pair(PT, p, xy) - ca.du_pair(PT, p, x) * ca.du_pair(PT, p, y)))
    pt = mf.Point(PT.lam, PT.lbar)  # nothing cached yet
    evaluations, grids = Counter(), Counter()
    monkeypatch.setattr(la.LaurentSeries, "evaluate",
                        lambda *a: evaluations.update(["evaluate"]))
    real = mf.Point.derivatives_on_grid
    monkeypatch.setattr(mf.Point, "derivatives_on_grid",
                        lambda self, m: grids.update([m]) or real(self, m))
    grid = ca.semisimplicity_residual(pt, x, y)
    assert evaluations["evaluate"] == 0 and grids == Counter({256: 3})
    assert abs(grid - horner) < 1e-12 and grid < 1e-12


def test_metric_diagonality_witness():
    e = mf.unit_tangent()
    assert abs(ca.metric_diagonality_residual(PT, e, e)) < 1e-8
    assert abs(ca.metric_diagonality_residual(PT, e, mf.frame_u(PT))) < 1e-8
    x = mf.sample_tangent(5)
    y = mf.sample_tangent(6)
    assert abs(ca.metric_diagonality_residual(PT, x, y)) < 1e-8
    assert abs(ca.metric_diagonality_residual(PTF, x, y)) < 1e-8
