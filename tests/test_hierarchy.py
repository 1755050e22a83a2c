"""Loop-space hierarchy: Poisson pencil, Hamiltonians, flows, transport.

The loop extension is validated against the pointwise manifold layer:
constant loops must reduce every structure to its finite counterpart,
and the single-mode symbols of both Poisson operators must reproduce
the metric and the intersection form raising maps.
"""
from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

import todafrob.canonical as ca
import todafrob.flatcoords as fc
import todafrob.hierarchy as hi
import todafrob.laurent as la
import todafrob.manifold as mf
import todafrob.verify as vf
from todafrob.laurent import LaurentSeries as LS

L3 = hi.sample_loop(3)
K = L3.nodes
X = 2.0 * np.pi * np.arange(K) / K

PT = mf.sample_point(5)
LC = hi.from_point(PT, K)


def loop_dist(A: hi.LoopPoint, B: hi.LoopPoint) -> float:
    return max(hi.field_dist(A.lam, B.lam), hi.field_dist(A.lbar, B.lbar))


def mode_cotangent(o: mf.Cotangent, kappa: int) -> hi.LoopCotangent:
    return hi.LoopCotangent(*vf.single_mode(K, kappa, o.w1, o.w2))


def mode_tangent(t: mf.Tangent, kappa: int):
    return vf.single_mode(K, kappa, t.a, t.ab)


def test_sample_loop_invariants():
    assert np.all(L3.lam.row(1) == 1.0)
    assert np.all(np.abs(L3.lbar.row(-1)) > 1e-3)
    tails = hi.tail_report(L3)
    assert tails["z_tail"] == 0.0
    # exp(u) excites every x-mode; the retained edge must stay negligible
    assert tails["x_tail"] < 1e-10


def test_bracket_antisymmetry():
    f = L3.lam
    g = L3.lbar
    assert hi.field_dist(hi.pb(f, g), hi.pb(g, f).scale(-1.0)) == 0.0
    assert hi.pb(f, f).max_abs() < 1e-18


def test_grid_mismatch_rejected():
    other = hi.sample_loop(3, nodes=16)
    with pytest.raises(la.GridMismatch):
        L3.lam + other.lam


def test_constant_loop_is_fixed_point():
    # every bracket carries an x-derivative, so x-independent loops freeze
    for flow in [("s", 1), ("sbar", 1), ("t", 0), ("t", -1), "u", "v"]:
        dl, db = hi.flow_rhs(LC, flow)
        assert max(dl.max_abs(), db.max_abs()) == 0.0


def test_loop_pair_reduces_to_pointwise_pair():
    o = mf.sample_cotangent(11)
    t = mf.sample_tangent(12)
    O = mode_cotangent(o, 0)
    T = mode_tangent(t, 0)
    assert abs(hi.loop_pair(O, T) - mf.pair(o, t)) < 1e-14
    # distinct modes average away unless kappa + kappa' = 0
    assert abs(hi.loop_pair(mode_cotangent(o, 2), mode_tangent(t, 3))) < 1e-15
    a = hi.loop_pair(mode_cotangent(o, 2), mode_tangent(t, -2))
    assert abs(a - mf.pair(o, t)) < 1e-14


def test_flow_tangency():
    for flow in [("s", 1), ("s", 2), ("sbar", 1), ("t", 0), ("t", 1), "u", "v"]:
        dl, db = hi.flow_rhs(L3, flow)
        t, defect = hi.tangent_part(L3, dl, db)
        assert defect < 1e-12
        assert t.a.hi <= 0 and t.ab.lo >= -1
    # the log flow genuinely leaks beyond the band, but stays certified
    dl, db = hi.flow_rhs(L3, ("t", -1))
    _, defect = hi.tangent_part(L3, dl, db)
    assert defect < hi.TAIL_LIMIT


def test_linear_relation_among_first_flows():
    # the three first flows satisfy d/ds1 + d/dt(0) + d/dt(u) = 0: the
    # projections (lam)_{>=0} + (w)_{<0} - (lbar)_{<0} telescope to lam
    # and equal-argument brackets vanish
    dl1, db1 = hi.flow_rhs(L3, ("s", 1))
    dl2, db2 = hi.flow_rhs(L3, ("t", 0))
    dl3, db3 = hi.flow_rhs(L3, "u")
    assert (dl1 + dl2 + dl3).max_abs() < 1e-13
    assert (db1 + db2 + db3).max_abs() < 1e-13
    # flipping the u-flow sign breaks the relation decisively
    assert (dl1 + dl2 + dl3.scale(-1.0)).max_abs() > 1e-4


def test_hamiltonian_values():
    assert abs(hi.hamiltonian(L3, 0) + np.mean(L3.lam.row(0))) < 1e-15
    assert abs(hi.hamiltonian(L3, 0, bar=True) + np.mean(L3.lbar.row(0))) < 1e-15
    # independent nodewise route for H1
    acc = 0.0
    for k in range(K):
        lam_k = la.LaurentSeries(L3.lam.lo, L3.lam.coeffs[:, k])
        acc += (lam_k * lam_k).coeff(0)
    assert abs(hi.hamiltonian(L3, 1) + acc / (2.0 * K)) < 1e-10
    # the unbarred Casimir density equals the zero mode of lam by the
    # flat-coordinate identity u0 = -t(-1) - v
    assert abs(hi.hamiltonian(L3, -1) - np.mean(L3.lam.row(0))) < 1e-10


def grad_fd_error(L, n, bar, d, m, eps=1e-6):
    base = L.lbar if bar else L.lam
    g = hi.gradient(L, n, bar=bar)
    ph = np.exp(1j * m * X)

    def bump(s):
        rows = base.coeffs.copy()
        rows[d - base.lo] = rows[d - base.lo] + s * eps * ph
        f = hi.LoopField(base.lo, rows)
        return hi.LoopPoint(L.lam, f) if bar else hi.LoopPoint(f, L.lbar)

    fd = (hi.hamiltonian(bump(1), n, bar) - hi.hamiltonian(bump(-1), n, bar)) / (
        2.0 * eps
    )
    probe = hi.LoopField(d, ph[None, :])
    tan = (hi.zero_field(K), probe) if bar else (probe, hi.zero_field(K))
    return abs(fd - hi.loop_pair(g, tan))


def test_gradients_match_finite_differences():
    for n, bar in [(1, False), (2, False), (1, True), (-1, False), (-1, True)]:
        for d, m in [(-1, 0), (0, 2), (-2, 1)]:
            assert grad_fd_error(L3, n, bar, d, m) < 1e-9


def test_casimirs_annihilated_exactly():
    for bar in (False, True):
        s1, s2 = hi.poisson1_apply(L3, hi.gradient(L3, -1, bar=bar))
        assert s1.max_abs() == 0.0
        assert s2.max_abs() == 0.0


def test_poisson_operators_skew():
    for seed in (0, 1, 2):
        o1 = hi.sample_loop_cotangent(seed)
        o2 = hi.sample_loop_cotangent(seed + 10)
        for op in (hi.poisson1_apply, hi.poisson2_apply):
            a = hi.loop_pair(o1, op(L3, o2))
            b = hi.loop_pair(o2, op(L3, o1))
            assert abs(a + b) < 1e-9


def test_symbols_reproduce_flat_pencil():
    # single-mode fields turn d/dx into i*kappa, so the operator symbols
    # must be the pointwise raising maps of the two metrics
    o = mf.sample_cotangent(11)
    for kappa in (1, 3):
        O = mode_cotangent(o, kappa)
        s1, s2 = hi.poisson1_apply(LC, O)
        ea, eab = mode_tangent(mf.eta_apply(PT, o), kappa)
        assert hi.field_dist(s1, ea.scale(1j * kappa)) < 1e-9
        assert hi.field_dist(s2, eab.scale(1j * kappa)) < 1e-9
        g1, g2 = hi.poisson2_apply(LC, O)
        ga, gab = mode_tangent(mf.gamma_apply(PT, o), kappa)
        assert hi.field_dist(g1, ga.scale(1j * kappa)) < 1e-9
        assert hi.field_dist(g2, gab.scale(1j * kappa)) < 1e-9


def test_recursion_relations():
    for n in (1, 2):
        for bar in (False, True):
            assert hi.recursion_residual(L3, n, bar=bar) < 1e-8


def quad_grad(L, c, r):
    # G = avg_x [c(x) w^2 / 2]_r
    f = L.w.shift(-1 - r).nodal_mul(c)
    return hi.LoopCotangent(f.project("geq", -1), f.project("leq", 0))


def torus_bracket(L, c1, r1, c2, r2, m1=256):
    nodes = L.nodes
    W = np.zeros((m1, nodes), dtype=complex)
    z = np.exp(1j * 2.0 * np.pi * np.arange(m1) / m1)
    for i, d in enumerate(range(L.w.lo, L.w.hi + 1)):
        W += np.outer(z**d, L.w.coeffs[i])
    x1 = 2.0 * np.pi * np.arange(m1) / m1

    def dx1(A):
        m = np.fft.fftfreq(m1) * m1
        return np.fft.ifft(np.fft.fft(A, axis=0) * (1j * m)[:, None], axis=0)

    def dx2(A):
        m = np.fft.fftfreq(nodes) * nodes
        return np.fft.ifft(np.fft.fft(A, axis=1) * (1j * m)[None, :], axis=1)

    A1 = c1[None, :] * np.exp(-1j * r1 * x1)[:, None] * W
    A2 = c2[None, :] * np.exp(-1j * r2 * x1)[:, None] * W
    dens = A1 * (dx1(W) * dx2(A2) - dx2(W) * dx1(A2))
    return complex(np.mean(dens))


def test_first_structure_is_flat_w_bracket():
    # quadratic functionals of the superposition w probe the claim that
    # eta's bracket is d_x1 w delta delta' - d_x2 w delta' delta after
    # substituting p = exp(i x1); dz = i z dx1 contributes the -i
    for seed in (0, 5):
        rng = np.random.default_rng(seed)
        c1 = 1.0 + 0.3 * np.cos(X + rng.uniform(0.0, 2.0 * np.pi))
        c2 = 1.0 + 0.2 * np.sin(2.0 * X + rng.uniform(0.0, 2.0 * np.pi))
        g1 = quad_grad(L3, c1, 1)
        g2 = quad_grad(L3, c2, 0)
        br = hi.loop_pair(g1, hi.poisson1_apply(L3, g2))
        tor = torus_bracket(L3, c1, 1, c2, 0)
        assert abs(br - (-1j) * tor) < 1e-8 * max(1.0, abs(br))
        anti = hi.loop_pair(g2, hi.poisson1_apply(L3, g1))
        assert abs(br + anti) < 1e-12


def test_primary_hamiltonians_generate_primary_flows():
    # the x-averaged first derivatives of the potential are Hamiltonian
    # densities for the primary flows under the first structure; the
    # gradients here come from finite differences, independent of any
    # projection formula
    L = hi.sample_loop(21, nodes=16, band=8, n=2, scale=0.04, mmax=2)
    cases = [("u", "u"), ("v", "v"), (0, ("t", 0)), (-1, ("t", -1))]
    for which, flow in cases:
        g = hi.primary_gradient_fd(L, which)
        s1, s2 = hi.poisson1_apply(L, g)
        dl, db = hi.flow_rhs(L, flow)
        r = max(hi.field_dist(s1, dl), hi.field_dist(s2, db))
        assert r < 1e-6, (which, r)


def test_conservation_along_flows():
    for flow in [("s", 1), ("sbar", 1), ("t", 0)]:
        _, ledger = hi.integrate(L3, flow, T=0.1, h=1e-3)
        for key in ("H1", "Hbar1", "H2"):
            drift = abs(ledger[-1][key] - ledger[0][key])
            assert drift < 1e-8, (flow, key, drift)
        assert ledger[-1]["u1_drift"] == 0.0
        assert ledger[-1]["tail_norm"] < hi.TAIL_LIMIT
        assert ledger[-1]["step"] == 100


def test_higher_hamiltonians_conserved():
    cur = L3
    for _ in range(10):
        cur = hi.rk4_step(cur, ("s", 1), 2e-3)
    for n in (3,):
        for bar in (False, True):
            drift = abs(hi.hamiltonian(cur, n, bar) - hi.hamiltonian(L3, n, bar))
            assert drift < 1e-9


def test_rk4_convergence_order():
    L = hi.sample_loop(3, scale=0.12)
    T = 0.08

    def run(h):
        cur = L
        for _ in range(round(T / h)):
            cur = hi.rk4_step(cur, ("s", 1), h)
        return cur

    ref = run(T / 32.0)
    e1 = loop_dist(run(T / 4.0), ref)
    e2 = loop_dist(run(T / 8.0), ref)
    assert 14.0 < e1 / e2 < 18.0


def test_flows_commute():
    pairs = [
        (("s", 1), ("sbar", 1)),
        (("s", 1), ("t", 0)),
        (("sbar", 1), "v"),
        (("t", 0), "u"),
        (("s", 2), ("t", 1)),
    ]

    def comm(f1, f2, h):
        ab = hi.rk4_step(hi.rk4_step(L3, f1, h), f2, h)
        ba = hi.rk4_step(hi.rk4_step(L3, f2, h), f1, h)
        return loop_dist(ab, ba)

    for f1, f2 in pairs:
        c1 = comm(f1, f2, 2e-2)
        c2 = comm(f1, f2, 1e-2)
        assert c2 <= max(c1 / 1.8, 1e-13), (f1, f2, c1, c2)


def test_transport_in_canonical_coordinates():
    for flow in [("t", 0), "u", ("s", 1)]:
        assert hi.transport_residual(L3, flow) < 1e-6


def test_lax_transport_velocity_correction():
    # the n-dependent velocity passes; dividing by n the way the closed
    # form is usually quoted for n = 1 does not generalize
    good = hi.transport_residual(L3, ("s", 2))
    assert good < 1e-6

    def printed(pt, m):
        return ca.char_velocities(pt, ("s", 2), m) / 2.0

    bad = hi.transport_residual(L3, ("s", 2), velocity=printed)
    assert bad > 1e-3


def test_blowup_and_tail_overflow():
    rows = L3.lam.coeffs.copy()
    rows[L3.lam.hi - L3.lam.lo - 1] += 2e6
    hot = hi.LoopPoint(hi.LoopField(L3.lam.lo, rows), L3.lbar)
    with pytest.raises(hi.BlowUp):
        hi.rk4_step(hot, "v", 1e-3)
    # the alpha = -2 primary flow leaks past the retained band on this seed
    with pytest.raises(hi.TailOverflow):
        hi.primary_rhs(L3, ("t", -2))


# -- all nodes at once ---------------------------------------------------
# The loop layer calls the circle kernel once on the stacked nodes; these
# per-node references are what it replaced.


def at_node(f: hi.LoopField, k: int) -> la.LaurentSeries:
    return la.LaurentSeries(f.lo, f.coeffs[:, k])


def node_points(L: hi.LoopPoint) -> list:
    return [mf.Point(at_node(L.lam, k), at_node(L.lbar, k)) for k in range(L.nodes)]


def nodewise_field(series: list) -> hi.LoopField:
    lo = min(f.lo for f in series)
    top = max(f.hi for f in series)
    return hi.LoopField(lo, np.array([f.window(lo, top) for f in series]).T)


def relative_gap(f: hi.LoopField, ref: hi.LoopField) -> float:
    return hi.field_dist(f, ref) / ref.max_abs()


def transport_reference(L, flow, m_p=64, velocity=None) -> tuple[float, float]:
    """The residual, node by node, and the size of the terms it cancels."""
    p = la.unit_roots(m_p)
    t, _ = hi.tangent_part(L, *hi.flow_rhs(L, flow))
    tv, _ = hi.tangent_part(L, *hi.flow_rhs(L, "v"))
    worst = scale = 0.0
    for k, pt in enumerate(node_points(L)):
        dt_u = ca.du_pair(pt, p, mf.Tangent(at_node(t.a, k), at_node(t.ab, k)))
        dx_u = ca.du_pair(pt, p, mf.Tangent(at_node(tv.a, k), at_node(tv.ab, k)))
        vel = velocity(pt, m_p) if velocity else ca.char_velocities(pt, flow, m_p)
        worst = max(worst, float(np.max(np.abs(dt_u - vel * dx_u))))
        scale = max(scale, float(np.max(np.abs(dt_u))))
    return worst, scale


def test_stacked_circle_ops_match_the_per_node_reference():
    pts = node_points(L3)
    for n in (-1, -2):
        ref = nodewise_field([pt.w_pow(n) for pt in pts])
        assert relative_gap(hi.w_power_field(L3, n), ref) <= 1e-13
    ref = nodewise_field(
        [la.log_on_circle(pt.w.shift(-1), -pt.inv_halfband, pt.inv_halfband) for pt in pts]
    )
    assert relative_gap(hi.log_w_field(L3), ref) <= 1e-13
    # H_-1 averages t_-1 + v, which nearly cancel: compare on their scale
    t = np.array([fc.flat_coordinates(pt, -1, -1)[-1] for pt in pts])
    H = complex(-np.mean(t + L3.lbar.row(0)))
    assert abs(hi.hamiltonian(L3, -1) - H) <= 1e-13 * np.max(np.abs(t))


def shifted_loop(L: hi.LoopPoint, c: complex = 0.1 + 0.05j) -> hi.LoopPoint:
    """L with c added to the z^0 row of lam: sampled loops have
    mean(lam_0) near 1e-17, which a zero H_-1 would match."""
    rows = L.lam.coeffs.copy()
    rows[-L.lam.lo] += c
    return hi.LoopPoint(hi.LoopField(L.lam.lo, rows), L.lbar)


def test_closed_form_casimir_matches_the_quadrature_off_zero():
    L = shifted_loop(L3)
    t = np.array([fc.flat_coordinates(pt, -1, -1)[-1] for pt in node_points(L)])
    ref = complex(-np.mean(t + L.lbar.row(0)))
    assert abs(ref - (0.1 + 0.05j)) < 1e-3
    assert abs(hi.hamiltonian(L, -1) - ref) <= 1e-13 * abs(ref)


def test_orders_below_minus_one_are_refused():
    L = hi.sample_loop(3, nodes=16)
    for bar in (False, True):
        for call in (hi.hamiltonian, hi.gradient):
            with pytest.raises(ValueError, match="n = -2"):
                call(L, -2, bar)
    with pytest.raises(ValueError):
        hi._field_power(L.lam, -1)
    # the Lax flows build their generators through the same power
    with pytest.raises(ValueError):
        hi.flow_rhs(L, ("s", -1))


def test_stacked_transport_matches_the_per_node_reference():
    # the residual is a small difference of O(scale) terms: compare on their scale
    for flow in [("t", 0), "u", ("s", 2)]:
        ref, scale = transport_reference(L3, flow)
        assert abs(hi.transport_residual(L3, flow) - ref) <= 1e-13 * scale, flow

    # the velocity override behind the transport suite's note
    def printed(pt, m):
        return ca.char_velocities(pt, ("s", 2), m) / 2.0

    ref, _ = transport_reference(L3, ("s", 2), velocity=printed)
    got = hi.transport_residual(L3, ("s", 2), velocity=printed)
    assert abs(got - ref) <= 1e-13 * ref
    assert f"{got:.3e}" == f"{ref:.3e}"


KERNEL = ("grid_eval", "grid_to_series", "divide_on_circle", "log_on_circle", "unwrap_on_circle")


def kernel_calls(monkeypatch, nodes: int) -> tuple[Counter, set]:
    """Circle-kernel invocations in one t:-2 RK4 step on an x-constant
    loop, and the grid sizes its certified ops ran on."""
    counts, grids = Counter(), set()
    for name in KERNEL:
        def counted(*args, _fn=getattr(la, name), _name=name, **kwargs):
            counts[_name] += 1
            if _name in ("divide_on_circle", "log_on_circle"):
                lo, hi_ = args[-2:]
                grids.add(kwargs.get("grid_size") or la.default_grid_size(hi_ - lo))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(la, name, counted)
    hi.rk4_step(hi.sample_loop(7, nodes=nodes, mmax=0), ("t", -2), 1e-3)
    monkeypatch.undo()
    return counts, grids


def test_kernel_calls_do_not_grow_with_the_node_count(monkeypatch):
    # only the fixed-size row blocks of the grid w_power_field divides on
    # may add calls as K grows, never one call per node
    (c8, g8), (c32, g32) = kernel_calls(monkeypatch, 8), kernel_calls(monkeypatch, 32)
    assert len(g8) == 1 and g8 == g32, (g8, g32)
    (m,) = g8

    def blocks(nodes):
        return -(-nodes // max(1, la.ROW_BLOCK_BYTES // (16 * m)))

    assert c8["divide_on_circle"] == 4  # one per RK4 stage
    assert c8["grid_eval"] > 0
    for name in KERNEL:
        per_block = name not in ("divide_on_circle", "log_on_circle")
        want = c8[name] * blocks(32) // blocks(8) if per_block else c8[name]
        assert c32[name] == want, (name, c8, c32)


def test_loop_diagnostics_skip_quadrature_and_horner(monkeypatch):
    L = shifted_loop(L3)
    quad = counted(monkeypatch, fc, "flat_coordinates")
    grid = counted(monkeypatch, la, "grid_eval")
    horner = counted(monkeypatch, la.LaurentSeries, "evaluate")
    assert hi.hamiltonian(L, -1) == complex(np.mean(L.lam.row(0)))
    assert quad["flat_coordinates"] == 0 and grid["grid_eval"] == 0
    # ("t", 0): lam' and lbar' once, two slots for each of the two
    # pairings, and the two halves of the velocity's generator
    hi.transport_residual(L, ("t", 0))
    assert grid["grid_eval"] == 2 + 2 * 2 + 2
    for flow in [("t", -1), "u", "v", ("s", 2), ("sbar", 1)]:
        hi.transport_residual(L, flow)

    def printed(pt, m):
        return ca.char_velocities(pt, ("s", 2), m) / 2.0

    hi.transport_residual(L, ("s", 2), velocity=printed)
    assert horner["evaluate"] == 0


# -- negative powers: a grid ladder, the cap band last -------------------
# On lam = z, lbar = c/z the coefficients of 1/w and log(w/z) fall like
# c^k at degree -2k (-1-2k).  Padded to band 16, the loop's ladder runs
# on 256, 512 and 1024 points with half bands 27, 59 and 120: c = 0.1
# fits the first, c = 0.3 the second, c = 0.5 only the cap band, and
# c = 0.7 none of them.


def two_term_loop(c: float, nodes: int = 8, band: int = 16) -> hi.LoopPoint:
    lam = np.zeros((band + 2, nodes), dtype=complex)
    lam[-1] = 1.0
    lbar = np.zeros((band + 2, nodes), dtype=complex)
    lbar[0] = c
    return hi.LoopPoint(hi.LoopField(-band, lam), hi.LoopField(-1, lbar))


def circle_bands(monkeypatch) -> list:
    """The bands of every certified divide and log, in call order."""
    bands = []
    for name in ("divide_on_circle", "log_on_circle"):
        def recorded(*args, _fn=getattr(la, name), **kwargs):
            bands.append(tuple(args[-2:]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(la, name, recorded)
    return bands


def ladder(L: hi.LoopPoint) -> tuple:
    return hi._halfbands(L, hi._node_points(L))


def test_the_ladder_runs_from_the_loops_band_to_the_cap():
    assert ladder(two_term_loop(0.1)) == (27, 59, 120)
    assert [la.default_grid_size(2 * h) for h in (27, 59, 120)] == [256, 512, 1024]
    # each rung is the widest band its grid holds
    assert [la.default_grid_size(2 * h + 2) for h in (27, 59)] == [512, 1024]
    # a wider retained band starts higher up; a narrow one lower down
    assert ladder(two_term_loop(0.1, band=30)) == (59, 120)
    assert ladder(two_term_loop(0.1, band=8)) == (11, 27, 59, 120)
    assert ladder(two_term_loop(0.1, band=60)) == (120,)


def test_negative_powers_certify_on_the_half_grid(monkeypatch):
    # c = 0.1 certifies on the first rung, in one call each
    bands = circle_bands(monkeypatch)
    inv, log = hi.w_power_field(two_term_loop(0.1), -1), hi.log_w_field(two_term_loop(0.1))
    assert bands == [(-28, 26), (-27, 27)]
    assert inv.coeffs.shape == (53, 8) and log.coeffs.shape == (55, 8)
    # c = 0.3 refuses 256 points and certifies on the half grid, 512
    bands.clear()
    hi.w_power_field(two_term_loop(0.3), -1)
    assert bands == [(-28, 26), (-60, 58)]
    assert la.default_grid_size(58 + 60) == 512
    bands.clear()
    hi.log_w_field(two_term_loop(0.3))
    assert bands == [(-27, 27), (-59, 59)]


def test_negative_powers_widen_to_the_cap_on_refusal(monkeypatch):
    c = 0.5
    L = two_term_loop(c)
    bands = circle_bands(monkeypatch)
    inv, log = hi.w_power_field(L, -1), hi.log_w_field(L)
    assert bands == [(-28, 26), (-60, 58), (-121, 119), (-27, 27), (-59, 59), (-120, 120)]
    assert inv.coeffs.shape == log.coeffs.shape == (241, 8)
    monkeypatch.undo()
    pt = mf.Point(LS(1, [1.0]), LS(-1, [c]))
    ref_inv, ref_log = pt.w_pow(-1), la.log_on_circle(pt.w.shift(-1), -120, 120)
    for got, ref in [(inv, ref_inv), (log, ref_log)]:
        want = ref.window(got.lo, got.hi)
        for k in range(L.nodes):
            assert np.max(np.abs(got.coeffs[:, k] - want)) <= 1e-13 * ref.max_abs()


def test_negative_powers_refuse_at_the_cap_and_name_it():
    L = two_term_loop(0.7)
    with pytest.raises(la.TruncationLoss, match=r"\[-121,119\]"):
        hi.w_power_field(L, -1)
    with pytest.raises(la.TruncationLoss, match=r"\[-120,120\]"):
        hi.log_w_field(L)


def test_half_grid_refuses_the_first_steps_the_cap_refuses(monkeypatch):
    # the whole ladder, the ladder from the half grid on, and the cap
    # band alone refuse exactly the same first steps
    pool = [hi.sample_loop(seed, nodes=32) for seed in range(12)]
    assert ladder(pool[0]) == (27, 59, 120)

    def refused(flow) -> set:
        out = set()
        for i, L in enumerate(pool):
            try:
                hi.rk4_step(L, flow, 1e-3)
            except ArithmeticError as exc:
                out.add((i, type(exc).__name__))
        return out

    flows = [("t", -1), ("t", -2)]
    refusals = [refused(flow) for flow in flows]
    first_certified = la.first_certified
    for start in (1, 2):
        monkeypatch.setattr(la, "first_certified",
                            lambda op, bands, k=start: first_certified(op, bands[k:]))
        assert [refused(flow) for flow in flows] == refusals, start
    # the pool holds steps of both kinds, so the comparison means something
    assert 0 < len(refusals[1]) < len(pool), refusals


def test_serialization_roundtrip():
    d = hi.loop_to_json_dict(L3)
    back = hi.loop_from_json_dict(json.loads(json.dumps(d)))
    assert loop_dist(L3, back) == 0.0
    assert back.nodes == K


# -- the loop-field kernel -----------------------------------------------
# The kernel convolves in z over the operand with fewer rows, dealiases a
# bracket once and reads a Hamiltonian off one row; these references are
# the arithmetic it replaced: a row loop over the first operand, one
# dealias per product, full powers, and projections compared by distance.


def ref_dealias(arr: np.ndarray) -> np.ndarray:
    k = arr.shape[1]
    spec = np.fft.fft(arr, axis=1)
    modes = np.rint(np.fft.fftfreq(k, 1.0 / k)).astype(int)
    spec[:, np.abs(modes) > k // 3] = 0.0
    return np.fft.ifft(spec, axis=1)


def ref_mul(f: hi.LoopField, g: hi.LoopField) -> hi.LoopField:
    n1, n2 = f.coeffs.shape[0], g.coeffs.shape[0]
    out = np.zeros((n1 + n2 - 1, f.nodes), dtype=complex)
    for i in range(n1):
        out[i : i + n2] += f.coeffs[i] * g.coeffs
    return hi.LoopField(f.lo + g.lo, ref_dealias(out))


def ref_pb(f: hi.LoopField, g: hi.LoopField) -> hi.LoopField:
    return ref_mul(f.zdz(), g.x_deriv()) - ref_mul(g.zdz(), f.x_deriv())


def ref_hamiltonian(L: hi.LoopPoint, n: int, bar: bool) -> complex:
    f = L.lbar if bar else L.lam
    p = f
    for _ in range(n):
        p = ref_mul(p, f)
    return complex(-np.mean(p.row(0)) / (n + 1))


def ref_tangent_part(L: hi.LoopPoint, dlam: hi.LoopField, dlbar: hi.LoopField):
    scale = max(dlam.max_abs(), dlbar.max_abs(), 1e-300)
    a = dlam.project("geq", L.lam.lo).project("leq", 0)
    ab = dlbar.project("geq", -1).project("leq", L.lbar.hi)
    defect = max(hi.field_dist(dlam, a), hi.field_dist(dlbar, ab)) / scale
    return hi.LoopTangent(a, ab), defect


LOOPS = {K_: hi.sample_loop(11, nodes=K_) for K_ in (32, 128)}


def t_minus_2_generator(L: hi.LoopPoint) -> hi.LoopField:
    # the cap band of Point.w_pow (241 rows), not the half grid's 119
    q = hi._node_points(L).w_pow(-1)
    return hi.LoopField(q.lo, q.c.T).trim().project("leq", -1)


@pytest.mark.parametrize("nodes", [32, 128])
def test_products_and_bracket_match_the_reference(nodes):
    L = LOOPS[nodes]
    one_row = hi.LoopField(0, L.lbar.row(0))
    wide = t_minus_2_generator(L).project("geq", -120)
    assert (one_row.coeffs.shape[0], wide.coeffs.shape[0], L.lam.coeffs.shape[0]) == (1, 120, 18)
    pairs = [(L.lam, one_row), (one_row, L.lam), (L.lam, L.lbar), (wide, L.lam)]
    for f, g in pairs:
        got, ref = f * g, ref_mul(f, g)
        assert (got.lo, got.coeffs.shape) == (ref.lo, ref.coeffs.shape)
        assert hi.field_dist(got, ref) <= 1e-14 * ref.max_abs(), (f.coeffs.shape, g.coeffs.shape)
    for f, g in [(t_minus_2_generator(L), L.lam), (L.lam, L.lbar)]:
        got, ref = hi.pb(f, g), ref_pb(f, g)
        assert got.lo == ref.lo
        assert hi.field_dist(got, ref) <= 1e-14 * ref.max_abs()


@pytest.mark.parametrize("nodes", [32, 128])
def test_hamiltonians_match_the_full_power(nodes):
    L = LOOPS[nodes]
    for bar in (False, True):
        for n in range(4):
            ref = ref_hamiltonian(L, n, bar)
            assert abs(hi.hamiltonian(L, n, bar) - ref) <= 1e-14 * abs(ref), (n, bar)


@pytest.mark.parametrize("nodes", [32, 128])
def test_tangent_part_is_bit_equal_to_the_projections(nodes):
    L = LOOPS[nodes]
    # t:-2 leaks past the band, so its defect is far from zero
    for flow in [("s", 1), ("sbar", 2), ("t", -2), "v"]:
        raw = hi.flow_rhs(L, flow)
        (t, defect), (ref, ref_defect) = hi.tangent_part(L, *raw), ref_tangent_part(L, *raw)
        assert defect == ref_defect, flow
        for got, want in [(t.a, ref.a), (t.ab, ref.ab)]:
            assert got.lo == want.lo and np.array_equal(got.coeffs, want.coeffs), flow
        if flow == ("t", -2):
            assert defect > 1e-9


def counted(monkeypatch, owner, name: str) -> Counter:
    """Count the calls of owner.<name> until the patch is undone."""
    counts = Counter()
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return counts


def test_kernel_dealiases_once_per_bracket_and_power(monkeypatch):
    calls = counted(monkeypatch, hi, "_dealias")
    hi.pb(L3.lam, L3.lbar)
    assert calls["_dealias"] == 1
    for n in (1, 2, 3):
        for bar in (False, True):
            calls.clear()
            hi.hamiltonian(L3, n, bar)
            assert calls["_dealias"] == n - 1, (n, bar)


def reference_rhs(L: hi.LoopPoint, flow):
    """flow_rhs as separate brackets, each differentiating its operands."""
    kind, n = flow
    if kind in ("s", "sbar"):
        f = L.lam if kind == "s" else L.lbar
        gen = hi._field_power(f, n).project(*(("geq", 0) if kind == "s" else ("leq", -1)))
        return hi.pb(gen, L.lam), hi.pb(gen, L.lbar)
    if n == -1:
        g = hi.log_w_field(L)
        return (hi.pb(g.project("leq", -1), L.lam) + L.lam.x_deriv(),
                hi.pb(g.project("geq", 0), L.lbar).scale(-1.0))
    wp, c = hi.w_power_field(L, n + 1), 1.0 / (n + 1)
    return (hi.pb(wp.project("leq", -1), L.lam).scale(c),
            hi.pb(wp.project("geq", 0), L.lbar).scale(-c))


@pytest.mark.parametrize("nodes", [32, 128])
def test_shared_derivatives_are_bit_equal_to_separate_brackets(nodes):
    L = LOOPS[nodes]
    flows = [("s", 1), ("s", 2), ("sbar", 1), ("sbar", 2), ("t", 0), ("t", 1), ("t", -1), ("t", -2)]
    for flow in flows:
        for got, ref in zip(hi.flow_rhs(L, flow), reference_rhs(L, flow)):
            assert got.lo == ref.lo and np.array_equal(got.coeffs, ref.coeffs), flow


def test_flow_rhs_takes_each_x_derivative_once(monkeypatch):
    # the generator, lam and lbar: one FFT pair each
    calls = counted(monkeypatch, hi, "_x_deriv_values")
    for flow in [("s", 2), ("sbar", 1), ("t", 1), ("t", -2)]:
        calls.clear()
        hi.flow_rhs(L3, flow)
        assert calls["_x_deriv_values"] == 3, flow


def test_integrate_refuses_a_T_short_of_whole_steps():
    # 0.1 / 0.04 = 2.5 would stop at 0.08; 0.01 / 0.04 would take no step
    for T, h in [(0.1, 0.04), (0.01, 0.04), (0.0, 1e-3)]:
        with pytest.raises(ValueError, match=r"whole number of steps h"):
            hi.integrate(L3, ("s", 1), T, h)
    # the quotient's rounding is absorbed; the suite's ladder and the
    # loop-lax march (0.08 in steps of 1e-3) are whole
    assert hi.step_count(0.07, 0.01) == 7
    assert hi.step_count(0.08, 1e-3) == 80
    assert [hi.step_count(0.1, h) for h in vf.HIERARCHY_STEPS] == [5, 10, 20, 40, 80]
    _, ledger = hi.integrate(L3, "v", 0.07, 0.01)
    assert len(ledger) == 8 and ledger[-1]["time"] == pytest.approx(0.07, abs=1e-15)


def test_integrate_computes_one_tail_report_per_step(monkeypatch):
    # a tail report takes the x-tail of both slots, once per state
    calls = counted(monkeypatch, hi.LoopField, "x_tail")
    fresh = hi.LoopPoint(L3.lam, L3.lbar)  # no report cached yet
    _, ledger = hi.integrate(fresh, "v", 3e-3, 1e-3)
    assert len(ledger) == 4
    assert calls["x_tail"] == 2 * 4  # the initial state, then one per step


# -- lean ring kernels: the same bits as the LoopField chains -----------------


def chained_rk4_step(L: hi.LoopPoint, flow, h: float) -> hi.LoopPoint:
    """rk4_step's stages through LoopField add and scale, the arithmetic
    its padded accumulation must reproduce bit for bit."""

    def advance(t: hi.LoopTangent, c: float) -> hi.LoopPoint:
        return hi.LoopPoint(L.lam + t.a.scale(c), L.lbar + t.ab.scale(c))

    k1 = hi._flow_tangent(L, flow)
    k2 = hi._flow_tangent(advance(k1, 0.5 * h), flow)
    k3 = hi._flow_tangent(advance(k2, 0.5 * h), flow)
    k4 = hi._flow_tangent(advance(k3, h), flow)
    a = k1.a + k2.a.scale(2.0) + k3.a.scale(2.0) + k4.a
    ab = k1.ab + k2.ab.scale(2.0) + k3.ab.scale(2.0) + k4.ab
    return advance(hi.LoopTangent(a, ab), h / 6.0)


def assert_same_field(got: hi.LoopField, want: hi.LoopField) -> None:
    assert got.lo == want.lo and got.coeffs.shape == want.coeffs.shape
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("nodes", [32, 128])
@pytest.mark.parametrize("flow", [("s", 1), ("s", 2), ("t", 1), "u", "v", ("t", -2)],
                         ids=["s1", "s2", "t1", "u", "v", "t-2"])
def test_rk4_step_is_bit_equal_to_the_loopfield_chain(flow, nodes):
    L = hi.sample_loop(21, nodes=nodes)
    got, want = hi.rk4_step(L, flow, 1e-3), chained_rk4_step(L, flow, 1e-3)
    assert_same_field(got.lam, want.lam)
    assert_same_field(got.lbar, want.lbar)


def test_rk4_step_widens_a_short_slot_as_the_chain_does(monkeypatch):
    # lam = z or lbar = e^u / z alone: a zero tangent slot lives at degree
    # 0, outside the slot, so the LoopField sums widen the slot by that
    # row, and with lam = z the next stage's sbar1 flow fills it; the
    # padded stages must do the same
    monkeypatch.setattr(hi, "TAIL_LIMIT", np.inf)  # the edge rows are the point
    short_lbar = hi.LoopPoint(L3.lam, hi.LoopField(-1, L3.lbar.coeffs[:1]))
    short_lam = hi.LoopPoint(hi.LoopField(1, np.ones((1, K), dtype=complex)), L3.lbar)
    assert hi.rk4_step(short_lam, ("sbar", 1), 1e-2).lam.lo == 0
    for L in (short_lbar, short_lam, hi.from_point(mf.locus_point(-0.5, 0.0), K)):
        for flow in [("s", 1), ("sbar", 1), "u", "v"]:
            got, want = hi.rk4_step(L, flow, 1e-2), chained_rk4_step(L, flow, 1e-2)
            assert_same_field(got.lam, want.lam)
            assert_same_field(got.lbar, want.lbar)


def full_power_hamiltonian(L: hi.LoopPoint, n: int, bar: bool) -> complex:
    """hamiltonian(L, n >= 1) from the full power f ** n."""
    f = L.lbar if bar else L.lam
    return complex(-np.mean(hi._pair_rows(hi._field_power(f, n), f.shift(-1))) / (n + 1))


@pytest.mark.parametrize("nodes", [32, 128])
def test_truncated_powers_are_bit_equal_to_full_powers(nodes):
    L = hi.sample_loop(22, nodes=nodes)
    for n in (1, 2, 3):
        for bar in (False, True):
            assert hi.hamiltonian(L, n, bar) == full_power_hamiltonian(L, n, bar)
        grad, grad_bar = hi.gradient(L, n).w1, hi.gradient(L, n, bar=True).w2
        assert_same_field(grad, hi._field_power(L.lam, n).shift(-1).project("geq", -1).scale(-1.0))
        assert_same_field(grad_bar, hi._field_power(L.lbar, n).shift(-1).project("leq", 0).scale(-1.0))
    for f, n, kind, k in [(L.lam, 2, "geq", 0), (L.lam, 3, "geq", 0),
                          (L.lbar, 2, "leq", -1), (L.lbar, 3, "leq", 1)]:
        assert_same_field(hi._power_part(f, n, kind, k), hi._field_power(f, n).project(kind, k))
    # a one-row field, and kept degrees no power reaches
    row = hi.LoopField(-1, L.lbar.coeffs[:1])
    assert_same_field(hi._power_part(row, 3, "leq", -2), hi._field_power(row, 3).project("leq", -2))
    assert_same_field(hi._power_part(L.lam, 2, "geq", 3), hi.zero_field(nodes))


def test_truncated_powers_multiply_only_the_rows_they_keep(monkeypatch):
    # H2 reads degrees >= -1 of lam ** 2, which only lam's rows -2..1 reach
    shapes = []
    real = hi._conv_over
    monkeypatch.setattr(hi, "_conv_over", lambda a, b: shapes.append(a.shape[0]) or real(a, b))
    hi.hamiltonian(L3, 2)
    assert shapes == [4] and L3.lam.coeffs.shape[0] == 18


def test_loopfield_sums_keep_their_bits_and_arrays():
    # subtraction without a negated copy: the bits of self + (-1) * other
    f, g = L3.lam, L3.lbar
    assert_same_field(f - g, f + g.scale(-1.0))
    assert_same_field(g - f.shift(3), g + f.shift(3).scale(-1.0))
    # a 2-D complex array is taken as it is; anything else is coerced
    assert hi.LoopField(0, f.coeffs).coeffs is f.coeffs
    assert hi.LoopField(0, np.ones(K)).coeffs.shape == (1, K)


@pytest.mark.parametrize("every", [0, -1])
def test_integrate_refuses_record_every_below_one(monkeypatch, every):
    steps = counted(monkeypatch, hi, "rk4_step")
    with pytest.raises(ValueError, match="record_every"):
        hi.integrate(L3, ("s", 1), 0.02, 1e-2, record_every=every)
    assert steps["rk4_step"] == 0
