"""Identity suites shared by the command line and the acceptance tests.

Every suite is a plain function that measures residuals and returns them
unjudged; run_suite judges them against the tolerance declared once in
SUITES.  The band N, frame range n_max and node count K are declared
once, in SIZES: a suite's sized keywords (Suite.sizes) have no default,
and run_suite fills each one the caller leaves out from SIZES, the sizes
`todafrob verify` ships.  Callers that need a wider run pass wider
sizes.  Randomized suites take an explicit seed so reruns are
reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import canonical as ca
from . import flatcoords as fc
from . import hierarchy as hi
from . import laurent as la
from . import manifold as mf
from . import potential as po
from .laurent import LaurentSeries as LS


@dataclass(frozen=True)
class SuiteResult:
    name: str
    points_tested: int
    max_residual: float
    tolerance: float
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return bool(self.points_tested > 0 and self.max_residual < self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "points_tested": int(self.points_tested),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }

    def line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (
            f"{self.name:<18} {tag}  points={self.points_tested:<5d} "
            f"max_residual={self.max_residual:.3e}  tol={self.tolerance:.1e}"
        )


class _Acc:
    """What a suite measured: sample count, worst residual and notes.

    A NaN residual is kept as the worst, so the suite cannot pass."""

    __slots__ = ("worst", "count", "notes")

    def __init__(self) -> None:
        self.worst = 0.0
        self.count = 0
        self.notes: list[str] = []

    def add(self, r) -> None:
        r = float(abs(r))
        if r > self.worst or r != r:
            self.worst = r
        self.count += 1


def _frame(pt: mf.Point, label) -> mf.Tangent:
    if label == "u":
        return mf.frame_u(pt)
    if label == "v":
        return mf.frame_v()
    if isinstance(label, tuple):
        return fc.flat_frame(pt, int(label[1]))
    return fc.flat_frame(pt, int(label))


def _gram_expected(ka, kb) -> float:
    if isinstance(ka, int) and isinstance(kb, int):
        return 1.0 if ka + kb == -1 else 0.0
    if isinstance(ka, int) or isinstance(kb, int):
        return 0.0
    return 1.0 if ka != kb else 0.0


# -- flat metric and Frobenius algebra ----------------------------------


def suite_gram(seed: int, *, n: int, kmax: int, points: int = 4) -> _Acc:
    """Gram matrix of the flat metric vs the constant antidiagonal."""
    acc = _Acc()
    for i in range(points):
        pt = mf.sample_point(seed + i, n=n)
        labels = list(range(-kmax, kmax + 1)) + ["u", "v"]
        frames = [(lab, _frame(pt, lab)) for lab in labels]
        for a in range(len(frames)):
            for b in range(a, len(frames)):
                ka, xa = frames[a]
                kb, xb = frames[b]
                got = mf.metric_tangent(pt, xa, xb)
                acc.add(got - _gram_expected(ka, kb))
    return acc


def suite_frobenius(seed: int, *, n: int, samples: int = 12) -> _Acc:
    """Associativity, commutativity, invariance and the unit of cot_mul."""
    acc = _Acc()
    e_tan = mf.unit_tangent()
    for s in range(samples):
        pt = mf.sample_point(seed + 17 * s, n=n)
        o1 = mf.sample_cotangent(seed + 17 * s + 5)
        o2 = mf.sample_cotangent(seed + 17 * s + 6)
        o3 = mf.sample_cotangent(seed + 17 * s + 7)
        p12 = mf.cot_mul(pt, o1, o2)
        p23 = mf.cot_mul(pt, o2, o3)
        acc.add(mf.cot_mul(pt, p12, o3).dist(mf.cot_mul(pt, o1, p23)))
        acc.add(p12.dist(mf.cot_mul(pt, o2, o1)))
        # invariance: the trilinear pairing is symmetric under rotation
        acc.add(
            mf.pair(p12, mf.eta_apply(pt, o3)) - mf.pair(p23, mf.eta_apply(pt, o1))
        )
        e_cot = mf.unit_cotangent(pt)
        acc.add(mf.cot_mul(pt, e_cot, o1).dist(o1))
        acc.add(mf.eta_apply(pt, e_cot).dist(e_tan))
    return acc


# -- potential -----------------------------------------------------------


def suite_potential(seed: int, *, n: int, points: int = 3, triples: int = 10) -> _Acc:
    """Trilinear form vs exact triple derivatives in the flat chart."""
    labels = [("t", k) for k in range(-3, 4)] + ["u", "v"]
    rng = np.random.default_rng(seed + 1000)
    acc = _Acc()
    for i in range(points):
        pt = mf.sample_point(seed + i, n=n)
        frames = {lab: _frame(pt, lab) for lab in labels}
        for _ in range(triples):
            a, b, c = (labels[int(k)] for k in rng.integers(0, len(labels), size=3))
            lhs = po.trilinear_form(pt, frames[a], frames[b], frames[c])
            acc.add(lhs - po.triple_flat(pt, a, b, c))
    return acc


def suite_potential_fd(seed: int) -> _Acc:
    """Nested central differences of F through the chart, relative error."""
    cases = [
        (("t", 0), ("t", -1), "v"),
        (("t", 1), ("t", -2), "u"),
        ("u", "v", ("t", 0)),
    ]
    acc = _Acc()
    # gentle amplitudes: the chart rebuild needs the recovered map
    # to decay inside the finite-difference band
    pt = mf.sample_point(seed + 30, n=8, scale=0.03)
    for labs in cases:
        exact = po.triple_flat(pt, *labs)
        fd = po.flat_fd_triple(pt, labs)
        acc.add(abs(fd - exact) / max(1.0, abs(exact)))
    return acc


def suite_quasihomogeneity(seed: int, *, n: int, points: int = 3) -> _Acc:
    acc = _Acc()
    for i in range(points):
        pt = mf.sample_point(seed + 60 + i, n=n)
        acc.add(po.quasihomogeneity_residual(pt))
    return acc


# -- closed-form multiplication tables -----------------------------------


def _theta(k: int) -> float:
    return 1.0 if k >= 0 else -1.0


def _lower(pt: mf.Point, x: mf.Tangent) -> tuple[mf.Cotangent, LS]:
    """x lowered by mf.eta_inverse, with its mf.cot_sum."""
    o = mf.eta_inverse(pt, x)
    return o, mf.cot_sum(pt, o)


def _lowered_mul(pt: mf.Point, x: tuple, y: tuple) -> mf.Tangent:
    """mf.tan_mul on frames already lowered by _lower.

    A table lowers each of its frames once per point, with its cot_sum,
    and forms every product from the lowered frames, with tan_mul's own
    arithmetic."""
    (ox, sx), (oy, sy) = x, y
    return mf.eta_apply(pt, mf.cot_mul(pt, ox, oy, sx, sy))


def _locus_table(u: float, v: float, kmax: int, acc: _Acc) -> None:
    """Structure constants of the two-parameter locus against tan_mul."""
    pt = mf.locus_point(u, v)
    eu = complex(np.exp(u))
    span = range(-2 * kmax - 1, 2 * kmax + 2)
    frame = {m: fc.flat_frame(pt, m).scale(-1.0) for m in span}
    du_f, dv_f = mf.frame_u(pt), mf.frame_v()
    low = {m: _lower(pt, frame[m]) for m in range(-kmax, kmax + 1)}
    low_u = _lower(pt, du_f)
    for i in range(-kmax, kmax + 1):
        for j in range(-kmax, kmax + 1):
            c = 0.5 * (_theta(i) + _theta(j) + _theta(-i - j - 2) + 1.0)
            rhs = frame[i + j + 1].scale(c) + frame[i + j - 1].scale(eu)
            if i + j == -1:
                rhs = rhs + du_f
            if i + j == 0:
                rhs = rhs + dv_f.scale(eu)
            acc.add(_lowered_mul(pt, low[i], low[j]).dist(rhs))
        rhs = frame[i - 1].scale(eu)
        if i == 0:
            rhs = rhs + dv_f.scale(eu)
        acc.add(_lowered_mul(pt, low_u, low[i]).dist(rhs))
    acc.add(_lowered_mul(pt, low_u, low_u).dist(frame[-1].scale(eu)))


def _reduced_table(kmax: int, acc: _Acc) -> None:
    """Deep fiber limit of the locus algebra, at v = -0.2.

    The boundary point itself has a vanishing 1/z coefficient and lies
    outside the chart, but on the locus the projected product is exactly
    affine in exp(u), so evaluating at exp(u) and 2 exp(u) and
    extrapolating to zero realizes the limit without truncation error.
    The frame fields depend only on w = z and are shared by both points.
    """
    pts = [mf.locus_point(-3.0, -0.2), mf.locus_point(-3.0 + np.log(2.0), -0.2)]
    span = range(-2 * kmax - 1, 2 * kmax + 2)
    frame = {m: fc.flat_frame(pts[0], m).scale(-1.0) for m in span}
    low = [{m: _lower(pt, frame[m]) for m in range(-kmax, kmax + 1)} for pt in pts]

    def pr_mul(k: int, i: int, j: int) -> mf.Tangent:
        pt = pts[k]
        t = _lowered_mul(pt, low[k][i], low[k][j])
        t = t - mf.frame_u(pt).scale(mf.pair(mf.diff_u(pt), t))
        return t - mf.frame_v().scale(mf.pair(mf.diff_v(), t))

    for i in range(-kmax, kmax + 1):
        for j in range(-kmax, kmax + 1):
            c = 0.5 * (_theta(i) + _theta(j) + _theta(-i - j - 2) + 1.0)
            red = pr_mul(0, i, j).scale(2.0) - pr_mul(1, i, j)
            acc.add(red.dist(frame[i + j + 1].scale(c)))
            want = 1.0 if i + j == -1 else 0.0
            acc.add(mf.metric_tangent(pts[0], frame[i], frame[j]) - want)


def _small_quantum_table(u: float, v: float, acc: _Acc) -> None:
    """Rank-two diagonal submanifold: quantum cohomology of the line."""
    pt = mf.diagonal_point(u, v)
    eu = complex(np.exp(u))
    t_u = mf.Tangent(LS(-1, [eu]), LS(-1, [eu]))
    t_v = mf.Tangent(LS.one(), LS.one())
    acc.add(mf.tan_mul(pt, t_u, t_u).dist(t_v.scale(eu)))
    acc.add(mf.tan_mul(pt, t_u, t_v).dist(t_u))
    acc.add(mf.tan_mul(pt, t_v, t_v).dist(t_v))
    acc.add(mf.metric_tangent(pt, t_u, t_v) - 1.0)
    acc.add(mf.metric_tangent(pt, t_u, t_u))
    acc.add(mf.metric_tangent(pt, t_v, t_v))
    acc.add(po.trilinear_form(pt, t_u, t_u, t_u) - eu)
    acc.add(po.trilinear_form(pt, t_u, t_u, t_v))
    acc.add(po.trilinear_form(pt, t_u, t_v, t_v) - 1.0)
    acc.add(po.trilinear_form(pt, t_v, t_v, t_v))


# Frame range |i|, |j| <= TABLES_KMAX of the closed-form tables.
TABLES_KMAX = 5


def suite_tables(seed: int) -> _Acc:
    """Closed-form product tables; deterministic, seed unused."""
    acc = _Acc()
    _locus_table(0.0, 0.0, TABLES_KMAX, acc)
    _locus_table(0.3, -0.2, TABLES_KMAX, acc)
    _reduced_table(TABLES_KMAX, acc)
    # deep enough that the geometric tail of 1/w' clears the default grid
    _small_quantum_table(-1.5, 0.25, acc)
    return acc


# -- intersection form ---------------------------------------------------


def suite_intersection(seed: int, *, n: int, samples: int = 10) -> _Acc:
    """Defining relation of the second metric and the gamma round-trip."""
    acc = _Acc()
    made = 0
    s = 0
    while made < samples and s < 20 * samples:
        pt = mf.sample_point(seed + 200 + s, n=n)
        o1 = mf.sample_cotangent(seed + 900 + 2 * s)
        o2 = mf.sample_cotangent(seed + 901 + 2 * s)
        s += 1
        try:
            g2 = mf.gamma_apply(pt, o2)
            lhs = mf.pair(mf.cot_mul(pt, o1, o2), mf.euler_field(pt))
            residuals = (lhs - mf.pair(o1, g2), mf.gamma_inverse(pt, g2).dist(o2))
        except (la.ZeroOnCircle, la.WindingNonzero, la.WindingUnresolved,
                la.TruncationLoss):
            # nondegeneracy fails on the circle: outside the valid locus,
            # and no residual of the sample is counted
            continue
        for r in residuals:
            acc.add(r)
        made += 1
    return acc


# -- canonical coordinates ------------------------------------------------


def suite_semisimplicity(seed: int, *, n: int, samples: int = 6) -> _Acc:
    """du(p) is an algebra character: pairing factorizes over products."""
    acc = _Acc()
    for s in range(samples):
        pt = mf.sample_point(seed + 300 + s, n=n)
        x = mf.sample_tangent(seed + 950 + 2 * s)
        y = mf.sample_tangent(seed + 951 + 2 * s)
        acc.add(ca.semisimplicity_residual(pt, x, y, m=128))
    return acc


def suite_canonical(seed: int, *, n: int, points: int = 3) -> _Acc:
    """The Euler field evaluates to the canonical coordinate itself."""
    acc = _Acc()
    for i in range(points):
        pt = mf.sample_point(seed + 400 + i, n=n)
        cd = ca.canonical_data(pt, 256)
        vals = ca.du_pair(pt, cd.p, mf.euler_field(pt))
        acc.add(np.max(np.abs(vals - cd.u_sigma)))
    return acc


def suite_charts(seed: int, *, points: int = 3) -> _Acc:
    """Flat chart round-trips in both directions."""
    acc = _Acc()
    for i in range(points):
        # rho well below one keeps every seeded map comfortably inside the
        # chart window, so the dropped tail stays near machine precision
        pt = mf.sample_point(seed + 500 + i, n=16, rho=0.55)
        t = fc.flat_coordinates(pt, -140, 140, grid_size=2048)
        back = fc.point_from_flat(t, pt.u, pt.v, band_n=48)
        acc.add((back.lam - pt.lam).max_abs())
        acc.add((back.lbar - pt.lbar).max_abs())

        rng = np.random.default_rng(seed + 700 + i)
        t2 = {
            k: 0.03 * 0.5 ** abs(k) * complex(*rng.standard_normal(2))
            for k in range(-4, 5)
        }
        u2 = -0.4 + 0.2 * rng.standard_normal()
        v2 = 0.3 * rng.standard_normal()
        pt2 = fc.point_from_flat(t2, u2, v2, band_n=64)
        got = fc.flat_coordinates(pt2, -4, 4)
        acc.add(max(abs(got[k] - t2[k]) for k in t2))
        acc.add(pt2.u - u2)
        acc.add(pt2.v - v2)
    return acc


# -- loop-space hierarchy -------------------------------------------------


def single_mode(nodes: int, kappa: int, *series: LS) -> tuple[hi.LoopField, ...]:
    """Each series times exp(i kappa x) on the loop grid x = 2 pi k / nodes."""
    x = 2.0 * np.pi * np.arange(nodes) / nodes
    ph = np.exp(1j * kappa * x)
    return tuple(hi.const_field(f, nodes).nodal_mul(ph) for f in series)


def _loop_dist(A: hi.LoopPoint, B: hi.LoopPoint) -> float:
    return max(hi.field_dist(A.lam, B.lam), hi.field_dist(A.lbar, B.lbar))


def suite_poisson(seed: int, *, nodes: int) -> _Acc:
    """Skew-symmetry of both operators and their single-mode symbols."""
    L = hi.sample_loop(seed + 600, nodes=nodes)
    acc = _Acc()
    rng = np.random.default_rng(seed + 650)
    pt = mf.sample_point(seed + 660, n=14)
    LC = hi.from_point(pt, nodes)

    def mode_cot(o: mf.Cotangent, kappa: int) -> mf.Cotangent:
        return mf.Cotangent(*single_mode(nodes, kappa, o.w1, o.w2))

    for s in range(3):
        o1 = mode_cot(mf.sample_cotangent(seed + 610 + 2 * s), int(rng.integers(1, 4)))
        o2 = mode_cot(mf.sample_cotangent(seed + 611 + 2 * s), int(rng.integers(1, 4)))
        for op in (hi.poisson1_apply, hi.poisson2_apply):
            acc.add(hi.loop_pair(o1, op(L, o2)) + hi.loop_pair(o2, op(L, o1)))
    o = mf.sample_cotangent(seed + 611)
    symbols = ((hi.poisson1_apply, mf.eta_apply), (hi.poisson2_apply, mf.gamma_apply))
    for kappa in (1, 3):
        O = mode_cot(o, kappa)
        for op, raise_ in symbols:
            t = raise_(pt, o)
            for got, want in zip(op(LC, O), single_mode(nodes, kappa, t.a, t.ab)):
                acc.add(hi.field_dist(got, want.scale(1j * kappa)))
    return acc


# The hierarchy suite integrates each flow to HIERARCHY_T with the RK4
# step sizes of HIERARCHY_STEPS, coarsest first; each is a whole number
# of steps in HIERARCHY_T.
HIERARCHY_T = 0.1
HIERARCHY_STEPS = (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3)


def suite_hierarchy(seed: int, *, nodes: int) -> _Acc:
    """Bihamiltonian recursion plus conservation along the first flows.

    Each flow is integrated to T = HIERARCHY_T with the steps of
    HIERARCHY_STEPS in turn.  After each step halving, est =
    |L_h(T) - L_2h(T)| / 15 is the step-doubling (Richardson) estimate of
    the finer run's error at T for a fourth-order method.  The finer run
    is accepted once est falls below the gate SUITES["hierarchy"].tol /
    100, and the drift of H1, Hbar1 and H2 along its ledger is the
    residual; on descent it becomes the next coarse run, so no step size
    is integrated twice.  A flow that no step on the ladder brings below
    the gate makes the residual NaN, so the suite fails.  One note gives
    each flow's step and estimate.
    """
    L = hi.sample_loop(seed + 800, nodes=nodes)
    acc = _Acc()
    for nn in (1, 2):
        for bar in (False, True):
            acc.add(hi.recursion_residual(L, nn, bar=bar))
    gate = SUITES["hierarchy"].tol / 100

    def run(flow, h):
        snaps, ledger = hi.integrate(L, flow, HIERARCHY_T, h,
                                     record_every=max(1, round(HIERARCHY_T / h)))
        return snaps[-1][1], ledger

    picked = []
    for flow in (("s", 1), ("sbar", 1), ("t", 0)):
        name = f"{flow[0]}{flow[1]}"
        coarse, _ = run(flow, HIERARCHY_STEPS[0])
        for h in HIERARCHY_STEPS[1:]:
            fine, ledger = run(flow, h)
            est = _loop_dist(coarse, fine) / 15.0
            if est < gate:
                break
            coarse = fine
        else:
            acc.add(float("nan"))
            picked.append(f"{name} no step meets the gate, est {est:.1e} at h={h:g}")
            continue
        picked.append(f"{name} h={h:g} est {est:.1e}")
        for key in ("H1", "Hbar1", "H2"):
            vals = np.array([row[key] for row in ledger])
            acc.add(np.max(np.abs(vals - vals[0])))
    acc.notes.append(
        f"steps by Richardson estimate, gate {gate:.1e}: " + "; ".join(picked)
    )
    return acc


def suite_commutators(seed: int, *, nodes: int) -> _Acc:
    """First-order decay of flow commutators under step halving.

    The residual is the worst ratio C(h/2) / max(C(h)/1.8, 1e-13); a
    value below one certifies at least the expected O(h) contraction.
    """
    L = hi.sample_loop(seed + 850, nodes=nodes)
    pairs = [
        (("s", 1), ("sbar", 1)),
        (("s", 1), ("t", 0)),
        (("sbar", 1), "v"),
        (("t", 0), "u"),
        (("s", 2), ("t", 1)),
    ]

    def comm(f1, f2, h):
        ab = hi.rk4_step(hi.rk4_step(L, f1, h), f2, h)
        ba = hi.rk4_step(hi.rk4_step(L, f2, h), f1, h)
        return _loop_dist(ab, ba)

    acc = _Acc()
    for f1, f2 in pairs:
        c1 = comm(f1, f2, 2e-2)
        c2 = comm(f1, f2, 1e-2)
        acc.add(c2 / max(c1 / 1.8, 1e-13))
    return acc


def suite_transport(seed: int, *, nodes: int) -> _Acc:
    """Riemann-invariant transport for the primary flows and the Lax
    cross-check; the residual of the printed n-divided velocity is
    reported in the notes."""
    L = hi.sample_loop(seed + 870, nodes=nodes)
    acc = _Acc()
    for flow in (("t", 0), "u"):
        acc.add(hi.transport_residual(L, flow))
    acc.add(hi.transport_residual(L, ("s", 2)))

    def printed(pt, m):
        return ca.char_velocities(pt, ("s", 2), m) / 2.0

    printed_res = hi.transport_residual(L, ("s", 2), velocity=printed)
    acc.notes.append(
        f"printed n-divided velocity residual {printed_res:.3e} "
        f"vs corrected {acc.worst:.3e}"
    )
    return acc


def suite_rk4(seed: int, *, nodes: int) -> _Acc:
    """|error ratio - 16| under step halving for the classical stepper."""
    L = hi.sample_loop(seed + 880, nodes=nodes, scale=0.12)
    T = 0.08

    def run(h):
        cur = L
        for _ in range(round(T / h)):
            cur = hi.rk4_step(cur, ("s", 1), h)
        return cur

    ref = run(T / 32.0)
    e1 = _loop_dist(run(T / 4.0), ref)
    e2 = _loop_dist(run(T / 8.0), ref)
    ratio = e1 / e2
    acc = _Acc()
    acc.add(ratio - 16.0)
    acc.notes.append(f"ratio {ratio:.3f}")
    return acc


# -- series kernel --------------------------------------------------------


def _random_series(rng: np.random.Generator, lo: int, width: int) -> LS:
    c = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return LS(lo, c)


def suite_kernel_adjoint(seed: int, *, trials: int = 40) -> _Acc:
    """Residue adjointness of the projections on random banded series."""
    rng = np.random.default_rng(seed + 7)
    acc = _Acc()
    for _ in range(trials):
        f = _random_series(rng, int(rng.integers(-8, 0)), int(rng.integers(4, 12)))
        g = _random_series(rng, int(rng.integers(-8, 0)), int(rng.integers(4, 12)))
        k = int(rng.integers(-5, 6))
        lhs = (f * g.project("geq", k)).residue()
        rhs = (f.project("leq", -k - 1) * g).residue()
        acc.add(lhs - rhs)
    return acc


def suite_certificates(seed: int, *, trials: int = 10) -> _Acc:
    """Recomputed defects of the certified reciprocal, division and log."""
    rng = np.random.default_rng(seed + 9)
    acc = _Acc()
    one = LS.one()
    for _ in range(trials):
        # winding stays zero: the wiggle is bounded away from one in l1
        wig = _random_series(rng, -4, 9)
        f = one + wig.scale(0.4 / max(wig.max_abs() * 9, 1.0))
        h = 64
        r = la.reciprocal_on_circle(f, -h, h)
        acc.add((f * r - one).max_abs())
        g = _random_series(rng, -3, 7)
        q = la.divide_on_circle(g, f, -h, h)
        acc.add((f * q - g).max_abs())
        lg = la.log_on_circle(f, -h, h)
        acc.add((f * lg.derivative() - f.derivative()).max_abs())
    return acc


# -- registry -------------------------------------------------------------


class Suite(NamedTuple):
    tol: float
    sizes: dict = {}  # suite keyword -> the SIZES and RunConfig field that sets it
    randomized: bool = True


# The one default of each size: the band N of a sampled point, the flat
# frame range n_max and the loop node count K.  cli.RunConfig reads its
# defaults from here, and run_suite fills the sized keywords of a suite
# that the caller leaves out.
SIZES = {"N": 16, "n_max": 4, "K": 32}


_POINT = {"n": "N"}
_LOOP = {"nodes": "K"}

# Each suite is the function suite_<name> (dashes as underscores), looked
# up when it runs so that a patched module attribute is the one called.
SUITES = {
    "gram": Suite(1e-9, {"n": "N", "kmax": "n_max"}),
    "frobenius": Suite(1e-10, _POINT),
    "potential": Suite(1e-8, _POINT),
    "potential-fd": Suite(1e-5),
    "quasihomogeneity": Suite(1e-6, _POINT),
    "tables": Suite(1e-12, randomized=False),
    "intersection": Suite(1e-9, _POINT),
    "semisimplicity": Suite(1e-8, _POINT),
    "canonical": Suite(1e-10, _POINT),
    "charts": Suite(1e-9),
    "poisson": Suite(1e-9, _LOOP),
    "hierarchy": Suite(1e-8, _LOOP),
    "commutators": Suite(1.0, _LOOP),
    "transport": Suite(1e-6, _LOOP),
    "rk4": Suite(2.0, _LOOP),
    "kernel-adjoint": Suite(1e-12),
    "certificates": Suite(1e-11),
}

DEFAULT_TOLERANCES = {name: s.tol for name, s in SUITES.items()}
SUITE_ORDER = list(SUITES)


def run_suite(name: str, seed: int, tol: float | None = None, **sizes) -> SuiteResult:
    """Run a registered suite and judge it against its tolerance; each
    sized keyword of the suite that sizes leaves out is read from SIZES."""
    suite = SUITES[name]
    sizes = {kw: SIZES[f] for kw, f in suite.sizes.items()} | sizes
    acc = globals()["suite_" + name.replace("-", "_")](seed, **sizes)
    tol = suite.tol if tol is None else tol
    return SuiteResult(name, acc.count, acc.worst, tol, tuple(acc.notes))
