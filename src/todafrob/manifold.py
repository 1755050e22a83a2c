"""Frobenius structure on pairs of truncated Laurent series.

A point is a pair (lam, lbar): lam has band inside [-N, 1] with unit
z^1 coefficient, lbar has band inside [-1, N] with nonzero 1/z
coefficient.  Cotangent vectors live in bands ([-1, *], [*, 0]),
tangent vectors in ([*, 0], [-1, *]).  The cotangent product, the
metric map eta, and the intersection map gamma are exact banded
operations; only their inverses reintroduce certified truncation
through division on the circle grid.  The inverses that feed those
products (negative powers of w, and eta_inverse) return the band they
resolve: the columns of the division window that hold only rounding
noise are dropped (_resolved), so a product downstream works on the
data's width, not the window's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import laurent as la
from .laurent import LaurentSeries as LS

# Half-width of the recovery band used by the certified inversions.
MIN_INV_HALFBAND = 120


def _resolved(g: LS) -> LS:
    """The certified quotient g without the columns at either end of its
    band where every row is at or below eps times that row's largest
    |coefficient|: the FFT recovery cannot resolve them, so they are
    rounding noise that every exact product downstream would carry.

    Only Point.w_pow (negative powers) and eta_inverse trim.  The laurent
    circle ops and the loop layer (w_power_field, log_w_field) keep their
    full quotients, since a moved t:-1 or t:-2 bit moves the loop flows'
    refusals.  gamma_inverse keeps its full r too: its inner divisions
    take their window from r's band, and on a trimmed r most of them
    refuse (TruncationLoss)."""
    if g.is_zero:
        return g
    mag = np.abs(g.c)
    above = mag > np.finfo(float).eps * mag.max(axis=-1, keepdims=True)
    cols = np.nonzero(above if above.ndim == 1 else above.any(axis=0))[0]
    return LS(g.lo + int(cols[0]), g.c[..., cols[0] : cols[-1] + 1])


def _band_check(f: LS, lo: int | None, hi: int | None, name: str) -> None:
    if f.is_zero:
        return
    if lo is not None and f.lo < lo:
        raise ValueError(f"{name} has degree {f.lo} below allowed {lo}")
    if hi is not None and f.hi > hi:
        raise ValueError(f"{name} has degree {f.hi} above allowed {hi}")


@dataclass(frozen=True)
class Tangent:
    """Variation (d lam, d lbar): first slot degrees <= 0, second >= -1."""

    a: LS
    ab: LS

    def __post_init__(self) -> None:
        _band_check(self.a, None, 0, "tangent lam-slot")
        _band_check(self.ab, -1, None, "tangent lbar-slot")

    def __add__(self, other: "Tangent") -> "Tangent":
        return Tangent(self.a + other.a, self.ab + other.ab)

    def __sub__(self, other: "Tangent") -> "Tangent":
        return Tangent(self.a - other.a, self.ab - other.ab)

    def scale(self, c: complex) -> "Tangent":
        return Tangent(self.a.scale(c), self.ab.scale(c))

    def dist(self, other: "Tangent") -> float:
        return max(la.series_dist(self.a, other.a), la.series_dist(self.ab, other.ab))


@dataclass(frozen=True)
class Cotangent:
    """One-form pair (w1, w2): first slot degrees >= -1, second <= 0."""

    w1: LS
    w2: LS

    def __post_init__(self) -> None:
        _band_check(self.w1, -1, None, "cotangent first slot")
        _band_check(self.w2, None, 0, "cotangent second slot")

    def __add__(self, other: "Cotangent") -> "Cotangent":
        return Cotangent(self.w1 + other.w1, self.w2 + other.w2)

    def __sub__(self, other: "Cotangent") -> "Cotangent":
        return Cotangent(self.w1 - other.w1, self.w2 - other.w2)

    def scale(self, c: complex) -> "Cotangent":
        return Cotangent(self.w1.scale(c), self.w2.scale(c))

    def dist(self, other: "Cotangent") -> float:
        return max(la.series_dist(self.w1, other.w1), la.series_dist(self.w2, other.w2))


class Point:
    """Manifold point (lam, lbar) with cached derived series.

    With stacked series it holds one point per row (the points of a loop
    at its nodes), and the derived series are stacks too."""

    __slots__ = ("lam", "lbar", "_cache")

    def __init__(self, lam: LS, lbar: LS) -> None:
        _band_check(lam, None, 1, "lam")
        _band_check(lbar, -1, None, "lbar")
        if not (np.isfinite(lam.c).all() and np.isfinite(lbar.c).all()):
            raise ValueError("lam and lbar must have finite coefficients")
        c1 = lam.coeff(1)
        drift = np.max(np.abs(c1 - 1.0)) if lam.c.ndim == 2 else abs(c1 - 1.0)
        if drift > 1e-9:
            raise ValueError(f"z^1 coefficient of lam must be 1, got {c1}")
        if drift != 0.0:
            # renormalize rounding drift away; the constraint is exact
            lam = lam + LS(1, np.reshape(1.0 - c1, np.shape(c1) + (1,)))
        bm1 = abs(lbar.coeff(-1))
        if (np.min(bm1) if lbar.c.ndim == 2 else bm1) < 1e-10:
            raise ValueError("1/z coefficient of lbar must be nonzero")
        self.lam = lam
        self.lbar = lbar
        self._cache: dict = {}

    # -- derived scalars ------------------------------------------------

    @property
    def u0(self) -> complex:
        return self.lam.coeff(0)

    @property
    def um1(self) -> complex:
        return self.lam.coeff(-1)

    @property
    def ubar0(self) -> complex:
        return self.lbar.coeff(0)

    @property
    def ubar1(self) -> complex:
        return self.lbar.coeff(1)

    @property
    def ubarm1(self) -> complex:
        return self.lbar.coeff(-1)

    @property
    def u(self) -> complex:
        """log of the 1/z coefficient of lbar (principal branch); one per
        row (an array) for a stack."""
        u = np.log(self.ubarm1)
        return u if self.lbar.c.ndim == 2 else complex(u)

    @property
    def v(self) -> complex:
        return self.ubar0

    @property
    def band_n(self) -> int:
        return max(-self.lam.lo, self.lbar.hi, 2)

    # -- derived series (cached) -----------------------------------------

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def w(self) -> LS:
        return self._get("w", lambda: self.lam + self.lbar)

    @property
    def lam_p(self) -> LS:
        return self._get("lam_p", lambda: self.lam.derivative())

    @property
    def lbar_p(self) -> LS:
        return self._get("lbar_p", lambda: self.lbar.derivative())

    @property
    def w_p(self) -> LS:
        return self._get("w_p", lambda: self.w.derivative())

    def on_grid(self, m: int, *names: str) -> tuple[np.ndarray, ...]:
        """Values of the named series (lam, lbar, w, lam_p, lbar_p, w_p) at
        the m-th roots of unity by la.grid_eval, one array per name.  Each
        is evaluated once per m, cached and read-only, so the circle-grid
        functions of one point share them."""

        def build(name):
            vals = la.grid_eval(getattr(self, name), m)
            vals.setflags(write=False)
            return vals

        return tuple(self._get((name, m), lambda: build(name)) for name in names)

    @property
    def ell_recip(self) -> LS:
        """Taylor reciprocal of z^2 ell' = z^2 - e^u at z=0; a row per
        point for a stack."""

        def build():
            b = self.ubarm1
            germ = np.stack([-b, np.zeros_like(b), np.ones_like(b)], axis=-1)
            return la.taylor_reciprocal_at_zero(LS(0, germ), 6)

        return self._get("ell_recip", build)

    @property
    def inv_halfband(self) -> int:
        return max(3 * self.band_n + 16, MIN_INV_HALFBAND)

    def quad_m(self, extra_width: int = 0) -> int:
        return la.default_grid_size(2 * self.band_n + extra_width)

    def w_pow(self, m: int) -> LS:
        """Certified power of w = lam + lbar (negative m by grid division,
        on the band the division resolves)."""

        def build():
            if m >= 0:
                return self.w**m
            h = self.inv_halfband
            return _resolved(la.divide_on_circle(LS.one(), self.w**-m, -h + m, h + m))

        return self._get(("w_pow", m), build)


# -- units and frames --------------------------------------------------


def unit_tangent() -> Tangent:
    """e = d/dv = (-1, 1)."""
    return Tangent(LS(0, [-1.0]), LS(0, [1.0]))


def frame_u(pt: Point) -> Tangent:
    """d/du = (-e^u/z, e^u/z); a row per point for a stack."""
    eu = np.reshape(pt.ubarm1, np.shape(pt.ubarm1) + (1,))
    return Tangent(LS(-1, -eu), LS(-1, eu))


def euler_field(pt: Point) -> Tangent:
    """E = (lam - z lam', lbar - z lbar'): degree d scales by (1 - d)."""

    def one_minus_deg(f: LS) -> LS:
        if f.is_zero:
            return f
        degs = np.arange(f.lo, f.hi + 1)
        return LS(f.lo, (1.0 - degs) * f.c)

    return Tangent(one_minus_deg(pt.lam), one_minus_deg(pt.lbar))


def ell_variation(x: Tangent) -> LS:
    """Variation of ell: ab_0 + ab_{-1}/z; a row per point for a stack."""
    return LS(-1, np.stack([x.ab.coeff(-1), x.ab.coeff(0)], axis=-1))


def diff_u(pt: Point) -> Cotangent:
    """Differential of u = log ubar_{-1}: the one-form (0, e^{-u})."""
    return Cotangent(LS.zero(), LS(0, [1.0 / pt.ubarm1]))


# e* = du is the identity of the cotangent product; d/dv is the unit e
unit_cotangent = diff_u
frame_v = unit_tangent


def diff_v() -> Cotangent:
    """Differential of v = ubar_0: the one-form (0, 1/z)."""
    return Cotangent(LS.zero(), LS.monomial(-1, 1.0))


def point_shift(pt: Point, x: Tangent, h: complex) -> Point:
    """Point displaced by h along the variation x (straight line in M)."""
    return Point(pt.lam + x.a.scale(h), pt.lbar + x.ab.scale(h))


# -- pairing and products ----------------------------------------------


def pair(o: Cotangent, x: Tangent) -> complex:
    """Residue pairing: res(w1 * a) + res(w2 * ab)."""
    return (o.w1 * x.a).residue() + (o.w2 * x.ab).residue()


def cot_sum(pt: Point, o: Cotangent) -> LS:
    """s = lam' w1 + lbar' w2, the part of cot_mul and eta_apply that reads
    one one-form only."""
    return pt.lam_p * o.w1 + pt.lbar_p * o.w2


def cot_mul(pt: Point, o1: Cotangent, o2: Cotangent,
            s1: LS | None = None, s2: LS | None = None) -> Cotangent:
    """Cotangent product; exact banded arithmetic, no truncation.

    s1 and s2 are cot_sum(pt, o1) and cot_sum(pt, o2), formed here unless
    the caller passes them: a product table forms them once per operand."""
    lp, bp = pt.lam_p, pt.lbar_p
    s1 = cot_sum(pt, o1) if s1 is None else s1
    s2 = cot_sum(pt, o2) if s2 is None else s2
    cross = o1.w1 * o2.w2 + o1.w2 * o2.w1
    q_first = lp * (o1.w1 * o2.w1) + bp * cross
    q_second = bp * (o1.w2 * o2.w2) + lp * cross
    first = (
        o1.w1 * s2.project("geq", -1)
        + o2.w1 * s1.project("geq", -1)
        - q_first.project("geq", -3)
    ).shift(2)
    second = (
        -(o1.w2 * s2.project("leq", -2))
        - o2.w2 * s1.project("leq", -2)
        + q_second.project("leq", -2)
    ).shift(2)
    return Cotangent(first, second)


def eta_apply(pt: Point, o: Cotangent) -> Tangent:
    """Metric map from one-forms to variations; exact banded."""
    lp, bp = pt.lam_p, pt.lbar_p
    s = cot_sum(pt, o)
    d = o.w1 - o.w2
    a = (s.project("leq", -2) - lp * d.project("leq", -2)).shift(2)
    ab = (s.project("geq", -1) + bp * d.project("geq", -1)).shift(2)
    return Tangent(a, ab)


def _inv_window(pt: Point, *series: LS) -> tuple[int, int]:
    """Recovery band for certified division: operand band plus decay margin."""
    pad = pt.inv_halfband
    lo, hi = 0, 0
    for f in series:
        if not f.is_zero:
            lo = min(lo, f.lo)
            hi = max(hi, f.hi)
    return lo - pad, hi + pad


def eta_inverse(pt: Point, x: Tangent) -> Cotangent:
    """Inverse metric map; certified division by w' on the circle, on the
    band the division resolves.  A stacked point gets a row per point."""
    num = x.a + x.ab
    lo, hi = _inv_window(pt, num)
    g = _resolved(la.divide_on_circle(num, pt.w_p, lo, hi))
    w1 = g.project("geq", 1).shift(-2)
    w2 = g.project("leq", 2).shift(-2) + LS(
        -1, np.stack([x.ab.coeff(-1) / pt.ubarm1, x.ab.coeff(0) / pt.ubarm1], axis=-1)
    )
    return Cotangent(w1, w2)


def tan_mul(pt: Point, x: Tangent, y: Tangent) -> Tangent:
    """Tangent product transported through the cotangent algebra; a row
    per point for a stacked point."""
    return eta_apply(pt, cot_mul(pt, eta_inverse(pt, x), eta_inverse(pt, y)))


def vanishes_on_circle(vals: np.ndarray) -> bool:
    """Whether grid values (of w or w') vanish somewhere, relative to their
    size: min|f| <= 1e-10 max(max|f|, 1).  A NaN reads as vanishing."""
    mags = np.abs(vals)
    return not float(np.min(mags)) > 1e-10 * max(float(np.max(mags)), 1.0)


def metric_tangent(pt: Point, x: Tangent, y: Tangent) -> complex:
    """Flat metric on variations; one value per point for a stack.

    Circle term: (1/2 pi i) contour of dx(w) dy(w) / (z^2 w');
    correction: residue at z=0 of dx(ell) dy(ell) / (z^2 ell').
    """
    xw = x.a + x.ab
    yw = y.a + y.ab
    width = max(xw.hi - xw.lo if not xw.is_zero else 0,
                yw.hi - yw.lo if not yw.is_zero else 0)
    m = pt.quad_m(width)
    zs = la.unit_roots(m)
    (wp_vals,) = pt.on_grid(m, "w_p")
    if vanishes_on_circle(wp_vals):
        raise la.ZeroOnCircle("w' vanishes on the circle")
    vals = la.grid_eval(xw, m) * la.grid_eval(yw, m) / (zs**2 * wp_vals)
    circle = la.contour_mean(vals)
    res0 = (ell_variation(x) * ell_variation(y) * pt.ell_recip).residue()
    return circle - res0


def gamma_apply(pt: Point, o: Cotangent) -> Tangent:
    """Intersection-form map on one-forms; exact banded."""
    lp, bp = pt.lam_p, pt.lbar_p
    e = euler_field(pt)
    t = e.a * o.w1 + e.ab * o.w2
    s = lp * o.w1 + bp * o.w2
    a = (lp * t.project("leq", -2) - e.a * s.project("leq", -2)).shift(2)
    ab = (-(bp * t.project("geq", -1)) + e.ab * s.project("geq", -1)).shift(2)
    return Tangent(a, ab)


def gamma_inverse(pt: Point, x: Tangent) -> Cotangent:
    """Inverse of gamma_apply; two certified divisions per slot."""
    num = pt.lbar_p * x.a - pt.lam_p * x.ab
    den = pt.lam * pt.lbar_p - pt.lbar * pt.lam_p
    lo, hi = _inv_window(pt, num)
    r = la.divide_on_circle(num, den, lo, hi)
    lo, hi = _inv_window(pt, r)
    inner1 = la.divide_on_circle(r.project("geq", 1), pt.lam_p, lo, hi)
    w1 = inner1.project("geq", 1).shift(-2)
    inner2 = la.divide_on_circle(r.project("leq", 0), pt.lbar_p, lo, hi)
    w2 = -(inner2.project("leq", 2).shift(-2))
    return Cotangent(w1, w2)


def intersection_metric(pt: Point, x: Tangent, y: Tangent) -> complex:
    """Intersection form on variations, by circle quadrature."""
    m = pt.quad_m(2 * pt.inv_halfband)
    zs = la.unit_roots(m)
    lp, bp, lam, lbar = pt.on_grid(m, "lam_p", "lbar_p", "lam", "lbar")

    def bracket(t: Tangent) -> np.ndarray:
        return la.grid_eval(t.a, m) / lp - la.grid_eval(t.ab, m) / bp

    den = lam / lp - lbar / bp
    vals = bracket(x) * bracket(y) / (den * zs**2)
    return la.contour_mean(vals)


# -- membership --------------------------------------------------------


@dataclass
class MembershipReport:
    w_prime_min: float
    ubarm1_abs: float
    gamma_winding: int | None
    gamma_min_gap_ratio: float
    gamma_simple_margin: float
    lam_prime_min: float
    lbar_prime_min: float
    wronskian_min: float
    ss_wronskian_min: float
    nondegenerate: bool
    in_open_stratum: bool
    intersection_ok: bool
    semisimple_ok: bool
    grid_size: int = 0
    notes: str = ""

    def to_json_dict(self) -> dict:
        out = dict(self.__dict__)
        for k, v in out.items():
            if isinstance(v, (np.floating, float)):
                out[k] = float(v)
        return out


def check_membership(pt: Point, grid_size: int | None = None) -> MembershipReport:
    """Numerically certify the open-stratum conditions on a circle grid.

    Reports margins rather than bare booleans: minimum modulus of w',
    lam', lbar' and the Wronskians on the grid, the winding of w around
    the origin, and the smallest distance between non-adjacent edges of
    the sampled polygon of w relative to its curve_extent.

    Simplicity of w is certified from the coefficients.  With h = 2 pi/m
    and bend = sum k^2 |w_k| >= |d^2 w/d theta^2|, each arc of the curve
    lies within delta = bend h^2/8 of its chord, so non-adjacent arcs are
    disjoint when the polygon's edge gap exceeds 2 delta
    (gamma_simple_margin = gap/(2 delta) > 1).  Adjacent arcs are disjoint
    when the tangent turns by less than pi/2 over two steps:
    min|w'| - h bend/2 > 2 h bend.  Anything else reads as not simple,
    with "polygon crosses itself" or "simplicity unresolved at m=..." in
    the notes; a caller wanting a finer grid passes grid_size.
    """
    m = grid_size or pt.quad_m(8)
    zs = la.unit_roots(m)
    w_vals, wp_vals, lp_vals, bp_vals, lam_vals, lbar_vals = pt.on_grid(
        m, "w", "w_p", "lam_p", "lbar_p", "lam", "lbar")
    lpp_vals = la.grid_eval(pt.lam_p.derivative(), m)
    bpp_vals = la.grid_eval(pt.lbar_p.derivative(), m)

    w_prime_min = float(np.min(np.abs(wp_vals)))
    ub = abs(pt.ubarm1)

    notes = []
    try:
        winding: int | None = la.circle_winding(w_vals)
    except (la.WindingUnresolved, la.ZeroOnCircle) as exc:
        winding = None
        notes.append(f"winding unresolved: {exc}")

    h = 2 * np.pi / m
    degs = np.arange(pt.w.lo, pt.w.hi + 1)
    bend = float(np.sum(degs**2 * np.abs(pt.w.c)))
    delta = bend * h**2 / 8
    gap = la.segment_gap(w_vals)
    simple_margin = gap / (2 * delta)
    turning_ok = w_prime_min - h * bend / 2 > 2 * h * bend
    simple = simple_margin > 1 and turning_ok
    if gap == 0.0:
        notes.append("polygon crosses itself")
    elif not simple:
        notes.append(f"simplicity unresolved at m={m}")

    lam_prime_min = float(np.min(np.abs(lp_vals)))
    lbar_prime_min = float(np.min(np.abs(bp_vals)))
    wronskian_min = float(np.min(np.abs(lam_vals * bp_vals - lbar_vals * lp_vals)))
    ss_min = float(np.min(np.abs(lp_vals * bpp_vals - bp_vals * lpp_vals)))

    nondegenerate = not vanishes_on_circle(wp_vals) and ub > 1e-10
    in_open_stratum = nondegenerate and winding == 1 and simple
    intersection_ok = min(lam_prime_min, lbar_prime_min, wronskian_min) > 1e-10
    semisimple_ok = ss_min > 1e-10

    return MembershipReport(
        w_prime_min=w_prime_min,
        ubarm1_abs=ub,
        gamma_winding=winding,
        gamma_min_gap_ratio=gap / la.curve_extent(w_vals),
        gamma_simple_margin=simple_margin,
        lam_prime_min=lam_prime_min,
        lbar_prime_min=lbar_prime_min,
        wronskian_min=wronskian_min,
        ss_wronskian_min=ss_min,
        nondegenerate=nondegenerate,
        in_open_stratum=in_open_stratum,
        intersection_ok=intersection_ok,
        semisimple_ok=semisimple_ok,
        grid_size=m,
        notes="; ".join(notes),
    )


# -- seeded samples ----------------------------------------------------


def locus_point(u: complex, v: complex) -> Point:
    """lam = z - v - e^u/z, lbar = v + e^u/z (so w = z exactly)."""
    eu = complex(np.exp(u))
    lam = LS(-1, [-eu, -v, 1.0])
    lbar = LS(-1, [eu, v])
    return Point(lam, lbar)


def diagonal_point(u: complex, v: complex) -> Point:
    """lam = lbar = z + v + e^u/z (requires |e^u| != 1)."""
    eu = complex(np.exp(u))
    f = LS(-1, [eu, v, 1.0])
    return Point(f, f)


def sample_point(seed, n: int, scale: float = 0.05, rho: float = 0.7) -> Point:
    """Seeded random point of the open stratum.

    Template z - v - e^u/z plus decaying tails in degrees [-n, -2] of
    lam and [1, n] of lbar, with |coefficient| <= scale * rho^|degree|.
    Keeps w' within O(scale) of 1, so winding and simplicity hold by a
    wide margin.
    """
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    u = complex(-0.55 + 0.25 * rng.uniform(-1, 1), 0.2 * rng.uniform(-1, 1))
    v = complex(0.3 * rng.uniform(-1, 1), 0.2 * rng.uniform(-1, 1))
    eu = complex(np.exp(u))

    def tail(degs):
        mags = scale * rho ** np.abs(degs)
        amp = rng.uniform(0.2, 1.0, len(degs)) * mags
        phase = np.exp(2j * np.pi * rng.uniform(0, 1, len(degs)))
        return amp * phase

    lam = np.zeros(n + 2, dtype=complex)  # degrees -n .. 1
    lam[-1] = 1.0
    lam[n] = -v
    lam[n - 1] = -eu
    lam[: n - 1] += tail(np.arange(-n, -1))
    lbar = np.zeros(n + 2, dtype=complex)  # degrees -1 .. n
    lbar[0] = eu
    lbar[1] = v
    lbar[2:] += tail(np.arange(1, n + 1))
    return Point(LS(-n, lam), LS(-1, lbar))


def _decaying(seed, *bands) -> list:
    """Random series on the given (lo, hi) bands, coefficients ~ 0.5 * 0.75^|d|."""
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    out = []
    for lo, hi in bands:
        degs = np.arange(lo, hi + 1)
        c = 0.5 * 0.75 ** np.abs(degs) * (
            rng.standard_normal(len(degs)) + 1j * rng.standard_normal(len(degs))
        )
        out.append(LS(lo, c))
    return out


def sample_tangent(seed, n: int = 12) -> Tangent:
    return Tangent(*_decaying(seed, (-n, 0), (-1, n)))


def sample_cotangent(seed, n: int = 12) -> Cotangent:
    return Cotangent(*_decaying(seed, (-1, n), (-n, 0)))
