"""Loop space: dispersionless 2D Toda Lax flows, primary flows, both
Poisson operators, Hamiltonians with their recursion, and an RK4 time
integrator with conservation ledgers.

A loop field is a banded z-expansion whose coefficients are periodic in
x and sampled on K collocation nodes; products are pseudospectral in x
with 2/3-rule dealiasing and exact banded convolution in z.  Dealiasing
is linear, so the bracket dealiases the difference of its two raw
products once, and a flow's two brackets share the x-derivative of
their generator.  A Hamiltonian density needs only the x-mean of the z^0
row of a power, which dealiasing never changes, so it is a one-row
contraction of the next lower power with the field.  That contraction,
the gradients and the s_n / sbar_n generators keep only some degrees of a
power, so they multiply only the rows of lam or lbar that reach them (H2
uses lam's rows -2..1), bit for bit the full power's rows.  Products,
brackets and x-derivatives run on the live rows of their operands, from
the first to the last nonzero row: lam and lbar carry exactly-zero rows
at their band ends, which add only zeros, so every row keeps its bits
and each result keeps the rows of the whole product.  The t0 flow
brackets with the three-row generator lbar_{<=-1} - lam_{>=0}, equal to
the brackets of the two halves of w (see flow_rhs).  An RK4 step chains
its four stages through LoopField sums and fails closed: a non-finite
state or step raises BlowUp.

The negative primary flows need a certified circle operation at every
node.  Each walks a ladder of power-of-two grids: first the smallest
grid that holds the loop's retained z band, then twice that, and so on, on
the widest band each grid holds, up to the pointwise band
Point.inv_halfband.  For a band-16 loop that is 55, 119 and 241
coefficients on 256, 512 and 1024 points.  A rung that refuses hands the
op to the next, so whatever certifies on the pointwise band still
certifies.  The Casimir H_-1 needs none of them: it is the x-mean of
the z^0 row of lam, in closed form.  The transport diagnostic evaluates
on its circle grid by inverse FFT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import canonical as ca
from . import laurent as la
from . import manifold as mf
from . import potential as po
from .laurent import LaurentSeries as LS


class BlowUp(ArithmeticError):
    """A coefficient left the trust region during time stepping."""


class TailOverflow(ArithmeticError):
    """Spectral content piled up at a retained band edge."""


# The retained z band of a sampled loop, degrees -LOOP_BAND..1 of lam and
# -1..LOOP_BAND of lbar; the band N of a sampled point does not set it.
LOOP_BAND = 16
BLOWUP_LIMIT = 1e6
TAIL_LIMIT = 1e-6


@functools.lru_cache(maxsize=16)
def _modes(k: int) -> np.ndarray:
    """Integer x-wavenumbers of a K-point grid in FFT order (read-only)."""
    modes = np.rint(np.fft.fftfreq(k, 1.0 / k)).astype(int)
    modes.flags.writeable = False
    return modes


@functools.lru_cache(maxsize=16)
def _ik(k: int) -> np.ndarray:
    """i times the x-wavenumbers of a K-point grid (read-only)."""
    ik = 1j * _modes(k)
    ik.flags.writeable = False
    return ik


def _dealias(arr: np.ndarray) -> np.ndarray:
    """Zero each row's x-modes |m| > K // 3: in FFT order they are the
    one contiguous block of indices K // 3 + 1 .. K - K // 3 - 1."""
    k = arr.shape[1]
    spec = np.fft.fft(arr, axis=1)
    spec[:, k // 3 + 1 : k - k // 3] = 0.0
    return np.fft.ifft(spec, axis=1)


def _x_deriv_values(vals: np.ndarray) -> np.ndarray:
    return np.fft.ifft(_ik(vals.shape[-1]) * np.fft.fft(vals, axis=-1), axis=-1)


def _live(c: np.ndarray) -> slice:
    """The rows of c from its first to its last nonzero row; empty when
    every row is zero."""
    if len(c) and c[0].any() and c[-1].any():
        return slice(0, c.shape[0])
    rows = c.any(axis=1).nonzero()[0]
    return slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)


def _on_rows(block: np.ndarray, start: int, rows: int) -> np.ndarray:
    """An array of `rows` rows holding block from row start on and zeros
    elsewhere; block itself when it has all the rows."""
    if block.shape[0] == rows:
        return block
    out = np.zeros((rows, block.shape[1]), dtype=complex)
    out[start : start + block.shape[0]] = block
    return out


def _conv(a: np.ndarray, b: np.ndarray, rows: tuple[int, int]) -> np.ndarray:
    """Exact z-convolution of two coefficient stacks, nodewise in x and
    not dealiased.  a and b may be the live rows of longer stacks whose
    row counts are rows; la.convolve_rows loops over the operand whose
    stack has fewer rows (a on a tie), as it would for the whole stacks."""
    return la.convolve_rows(b, a) if rows[0] > rows[1] else la.convolve_rows(a, b)


def _live_product(f: LoopField, g: LoopField, raw) -> LoopField:
    """A dealiased product of f and g formed on their live rows only.

    raw(fl, gl, rows) must build the undealiased product from fl and gl,
    the live rows of f and g, convolving with _conv(..., rows), where rows
    is the row counts of f and g.  A zero row adds only zeros to the rows
    it meets, so every row of the result keeps the bits it has when the
    whole stacks are convolved and dealiased; the result has the rows of
    the whole product, zero outside the live block."""
    if f.nodes != g.nodes:
        raise la.GridMismatch("node counts differ")
    rows = (f.coeffs.shape[0], g.coeffs.shape[0])
    a, b = _live(f.coeffs), _live(g.coeffs)
    if not (a.stop and b.stop):
        return LoopField(f.lo + g.lo, np.zeros((sum(rows) - 1, f.nodes), dtype=complex))
    fl = LoopField(f.lo + a.start, f.coeffs[a])
    gl = LoopField(g.lo + b.start, g.coeffs[b])
    block = _dealias(raw(fl, gl, rows))
    return LoopField(f.lo + g.lo, _on_rows(block, a.start + b.start, sum(rows) - 1))


@dataclass(frozen=True)
class LoopField:
    """Coefficient rows: row i holds the z ** (lo + i) coefficient on the
    x-grid x_k = 2 pi k / K."""

    lo: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if not (type(c) is np.ndarray and c.ndim == 2 and c.dtype == complex):
            object.__setattr__(self, "coeffs", np.atleast_2d(np.asarray(c, dtype=complex)))

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    @property
    def nodes(self) -> int:
        return self.coeffs.shape[1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def row(self, d: int) -> np.ndarray:
        if self.lo <= d <= self.hi:
            return self.coeffs[d - self.lo]
        return np.zeros(self.nodes, dtype=complex)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def trim(self) -> "LoopField":
        live = _live(self.coeffs)
        if not live.stop:
            return LoopField(0, np.zeros((1, self.nodes), dtype=complex))
        return LoopField(self.lo + live.start, self.coeffs[live])

    def __add__(self, other: "LoopField") -> "LoopField":
        return self._combine(other, np.add)

    def __sub__(self, other: "LoopField") -> "LoopField":
        return self._combine(other, np.subtract)

    def _combine(self, other: "LoopField", op) -> "LoopField":
        """self op other (np.add or np.subtract) on the union of the two
        row windows, both written onto zeros."""
        if self.nodes != other.nodes:
            raise la.GridMismatch("node counts differ")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = np.zeros((hi - lo + 1, self.nodes), dtype=complex)
        out[self.lo - lo : self.hi - lo + 1] += self.coeffs
        rows = out[other.lo - lo : other.hi - lo + 1]
        op(rows, other.coeffs, out=rows)
        return LoopField(lo, out)

    def scale(self, c: complex) -> "LoopField":
        return LoopField(self.lo, c * self.coeffs)

    def shift(self, k: int) -> "LoopField":
        return LoopField(self.lo + k, self.coeffs)

    def __mul__(self, other: "LoopField") -> "LoopField":
        return _live_product(self, other, lambda f, g, rows: _conv(f.coeffs, g.coeffs, rows))

    def nodal_mul(self, values: np.ndarray) -> "LoopField":
        return LoopField(self.lo, _dealias(self.coeffs * values[None, :]))

    def project(self, kind: str, k: int) -> "LoopField":
        """Degrees >= k ("geq") or <= k ("leq"), trimmed: a view of those
        rows, not a copy of the whole field."""
        if kind not in ("geq", "leq"):
            raise ValueError(f"unknown projection kind {kind!r}")
        cut = min(max(k - self.lo + (kind == "leq"), 0), self.coeffs.shape[0])
        if kind == "geq":
            return LoopField(self.lo + cut, self.coeffs[cut:]).trim()
        return LoopField(self.lo, self.coeffs[:cut]).trim()

    def zdz(self) -> "LoopField":
        degs = np.arange(self.lo, self.hi + 1, dtype=float)
        return LoopField(self.lo, degs[:, None] * self.coeffs)

    def x_deriv(self) -> "LoopField":
        """The x-derivative, taken on the live rows only."""
        live = _live(self.coeffs)
        block = _x_deriv_values(self.coeffs[live])
        return LoopField(self.lo, _on_rows(block, live.start, self.coeffs.shape[0]))

    def residue(self) -> np.ndarray:
        return self.row(-1)

    def x_tail(self) -> float:
        k = self.nodes
        spec = np.abs(np.fft.fft(self.coeffs, axis=1)) / k
        top = float(np.max(spec))
        if top == 0.0:
            return 0.0
        edge = np.abs(_modes(k)) == k // 3
        return float(np.max(spec[:, edge])) / top


def zero_field(nodes: int) -> LoopField:
    return LoopField(0, np.zeros((1, nodes), dtype=complex))


def const_field(f: LS, nodes: int) -> LoopField:
    if f.is_zero:
        return zero_field(nodes)
    rows = np.repeat(f.window(f.lo, f.hi)[:, None], nodes, axis=1)
    return LoopField(f.lo, rows)


def field_dist(f: LoopField, g: LoopField) -> float:
    return (f - g).max_abs()


def pb(f: LoopField, g: LoopField) -> LoopField:
    """Cylinder bracket z f_z g_x - z g_z f_x, dealiased once: both raw
    products cover the same degrees."""
    if f.nodes != g.nodes:
        raise la.GridMismatch("node counts differ")
    return _pb(f, f.x_deriv(), g)


def _pb(f: LoopField, fx: LoopField, g: LoopField) -> LoopField:
    """pb(f, g) given f's x-derivative fx, so that a generator shared by
    two brackets is differentiated once by the caller.  The z-derivatives,
    g's x-derivative, both products and the dealias run on the live rows
    of f and g (_live_product)."""

    def raw(fl: LoopField, gl: LoopField, rows: tuple[int, int]) -> np.ndarray:
        flx = fx.coeffs[fl.lo - fx.lo : fl.hi - fx.lo + 1]
        glx = _x_deriv_values(gl.coeffs)
        return (_conv(fl.zdz().coeffs, glx, rows)
                - _conv(gl.zdz().coeffs, flx, rows[::-1]))

    return _live_product(f, g, raw)


def _rows(fx: LoopField, part: LoopField) -> LoopField:
    """The x-derivative fx of a field, restricted to the degrees of part,
    a projection of that field: the x-derivative of part."""
    if part.is_zero:
        return part
    return LoopField(part.lo, fx.coeffs[part.lo - fx.lo : part.hi - fx.lo + 1])


# -- loop points ---------------------------------------------------------


@dataclass(frozen=True)
class LoopPoint:
    lam: LoopField
    lbar: LoopField

    def __post_init__(self):
        if self.lam.nodes != self.lbar.nodes:
            raise la.GridMismatch("node counts differ")
        if self.lam.hi != 1 or np.any(self.lam.row(1) != 1.0):
            raise ValueError("degree-1 coefficient of the first slot must be 1")
        if self.lbar.lo != -1:
            raise ValueError("second slot must start at degree -1")
        if np.min(np.abs(self.lbar.row(-1))) == 0.0:
            raise ValueError("leading coefficient vanishes at a node")

    @property
    def nodes(self) -> int:
        return self.lam.nodes

    @property
    def w(self) -> LoopField:
        return self.lam + self.lbar

    def max_abs(self) -> float:
        """The largest coefficient magnitude; NaN if any coefficient is."""
        return self._top

    @functools.cached_property
    def _top(self) -> float:
        # np.maximum keeps a NaN of either slot; max keeps only the first's
        return float(np.maximum(self.lam.max_abs(), self.lbar.max_abs()))

    @functools.cached_property
    def _tails(self) -> dict:
        top = max(self.max_abs(), 1e-300)
        z_tail = max(
            float(np.max(np.abs(self.lam.row(self.lam.lo)))),
            float(np.max(np.abs(self.lbar.row(self.lbar.hi)))),
        ) / top
        x_tail = max(self.lam.x_tail(), self.lbar.x_tail())
        return {"z_tail": z_tail, "x_tail": x_tail}


def _nodes(f: LoopField) -> LS:
    """f read nodewise: a stack whose row k is the z-series at node k."""
    return LS(f.lo, f.coeffs.T)


def _node_points(L: LoopPoint) -> mf.Point:
    """The loop's manifold points at all its nodes, as one stacked Point."""
    return mf.Point(_nodes(L.lam), _nodes(L.lbar))


def from_point(pt: mf.Point, nodes: int) -> LoopPoint:
    return LoopPoint(const_field(pt.lam, nodes), const_field(pt.lbar, nodes))


def _pair_rows(f: LoopField, g: LoopField) -> np.ndarray:
    out = np.zeros(f.nodes, dtype=complex)
    for d in range(f.lo, f.hi + 1):
        e = -1 - d
        if g.lo <= e <= g.hi:
            out += f.coeffs[d - f.lo] * g.row(e)
    return out


def loop_pair(o: mf.Cotangent, t: tuple[LoopField, LoopField]) -> complex:
    """x-average of the nodewise residue pairing of a loop cotangent with
    the slots of a loop tangent, such as poisson1_apply returns."""
    a, ab = t
    if o.w1.nodes != a.nodes:
        raise la.GridMismatch("node counts differ")
    return complex(np.mean(_pair_rows(o.w1, a) + _pair_rows(o.w2, ab)))


# -- seeded loops ------------------------------------------------------


def sample_loop(
    seed,
    nodes: int,
    band: int = LOOP_BAND,
    n: int = 3,
    scale: float = 0.05,
    mmax: int = 3,
) -> LoopPoint:
    """Random loop with z-support in [-n, n] inside the retained band and
    x-modes up to mmax; kept small so spectral tails stay negligible: the
    degree-d rows scale as 0.3^|d| and the x-mode m as 0.4^m."""
    rng = np.random.default_rng(seed)
    x = 2.0 * np.pi * np.arange(nodes) / nodes

    def wave(amp: float) -> np.ndarray:
        out = np.zeros(nodes, dtype=complex)
        for m in range(1, mmax + 1):
            cp = rng.standard_normal() + 1j * rng.standard_normal()
            cm = rng.standard_normal() + 1j * rng.standard_normal()
            out = out + amp * 0.4**m * (cp * np.exp(1j * m * x) + cm * np.exp(-1j * m * x))
        return out

    lam_rows = np.zeros((band + 2, nodes), dtype=complex)
    lam_rows[-1] = 1.0
    lam_rows[-2] = wave(2.0 * scale)
    for d in range(-n, 0):
        lam_rows[band + d] = wave(scale * 0.3 ** (-d))
    # keep the u wave gentle: exp(u) excites every x-mode and the edge of
    # the retained spectrum must stay below 1e-10
    u = -2.6 + 0.1 * rng.standard_normal() + wave(0.5 * scale)
    v = wave(2.0 * scale)
    lbar_rows = np.zeros((band + 2, nodes), dtype=complex)
    lbar_rows[0] = np.exp(u)
    lbar_rows[1] = v
    for d in range(1, n + 1):
        lbar_rows[1 + d] = wave(scale * 0.3**d)
    return LoopPoint(
        LoopField(-band, _dealias(lam_rows)), LoopField(-1, _dealias(lbar_rows))
    )


# -- tails and trimming ------------------------------------------------


def tail_report(L: LoopPoint) -> dict:
    """Relative size of the band-edge z rows and of the edge x-mode.
    Computed once per point, so the ledger of integrate reads the report
    that certified the RK4 step."""
    return dict(L._tails)


def tangent_part(L: LoopPoint, dlam: LoopField, dlbar: LoopField):
    """Restrict a raw flow field to the tangent windows of the loop.

    Returns the trimmed tangent, an mf.Tangent of loop fields, and the
    relative size of everything discarded; the degree-1 part of the first
    slot vanishes identically for the implemented flows, so a large defect
    flags band overflow.
    Each field's row maxima are read once, for the scale, the trim and
    the defect."""
    top_a, top_ab = (np.abs(f.coeffs).max(axis=1) for f in (dlam, dlbar))
    # np.max keeps a NaN of either field (max keeps only the first's), so
    # a NaN anywhere makes the defect NaN
    scale = np.max((top_a.max(), top_ab.max(), 1e-300))
    a, a_out = _window(dlam, top_a, L.lam.lo, 0)
    ab, ab_out = _window(dlbar, top_ab, -1, L.lbar.hi)
    return mf.Tangent(a, ab), float(max(a_out, ab_out) / scale)


def _window(f: LoopField, tops: np.ndarray, lo: int, hi: int) -> tuple[LoopField, float]:
    """The rows of f in degrees lo..hi, trimmed, and the largest
    coefficient outside them, read from the row maxima tops of f."""
    rows = f.coeffs.shape[0]
    i0 = min(max(lo - f.lo, 0), rows)
    i1 = min(max(hi - f.lo + 1, i0), rows)
    live = tops[i0:i1].nonzero()[0] + i0
    if live.size:
        inside = LoopField(f.lo + live[0], f.coeffs[live[0] : live[-1] + 1])
    else:
        inside = zero_field(f.nodes)
    outside = max(tops[:i0].max(initial=0.0), tops[i1:].max(initial=0.0))
    return inside, outside


# -- flows -------------------------------------------------------------


def _field_power(f: LoopField, n: int) -> LoopField:
    if n < 0:
        raise ValueError(f"field power needs n >= 0, got {n}")
    if n == 0:
        return LoopField(0, np.ones((1, f.nodes), dtype=complex))
    # power 1 must return f unfiltered, else generators and the point
    # itself would carry different dealias masks
    out = f
    for _ in range(n - 1):
        out = out * f
    return out


def _power_part(f: LoopField, n: int, kind: str, k: int) -> LoopField:
    """_field_power(f, n).project(kind, k), bit for bit, multiplying only
    the rows of f that reach the kept degrees.

    A degree d >= k of f ** n sums products of n rows of f, each of degree
    at most f.hi, so f ** j is needed only in degrees >= k - (n - j) f.hi
    and f itself in degrees >= k - (n - 1) f.hi; "leq" mirrors this with
    f.lo.  Dealiasing acts row by row, and each product runs its row loop
    over the same operand as _field_power's, so every kept row sums the
    same terms in the same order."""
    top = n * (f.hi if kind == "geq" else f.lo)
    if n < 2 or (k > top if kind == "geq" else k < top):
        return _field_power(f, n).project(kind, k)

    def part(lo: int, rows: np.ndarray, j: int) -> tuple[int, np.ndarray]:
        """The degrees of f ** j (rows from degree lo) that the kept
        degrees of f ** n read."""
        if kind == "geq":
            cut = max(k - (n - j) * f.hi - lo, 0)
            return lo + cut, rows[cut:]
        return lo, rows[: k - (n - j) * f.lo - lo + 1]

    base_lo, base = part(f.lo, f.coeffs, 1)
    lo, out = base_lo, base
    for j in range(2, n + 1):
        # _field_power's products loop over the rows of f: f ** (j - 1)
        # has more rows, unless f has one row and so has every power
        raw = la.convolve_rows(base, out) if f.coeffs.shape[0] > 1 else la.convolve_rows(out, base)
        lo, raw = part(lo + base_lo, raw, j)
        out = _dealias(raw)
    return LoopField(lo, out).project(kind, k)


def _first_grid(L: LoopPoint) -> int:
    """The smallest grid that holds the loop's retained z band."""
    return la.default_grid_size(2 * max(-L.lam.lo, L.lbar.hi, 2))


def _halfbands(L: LoopPoint, pt: mf.Point) -> tuple[int, ...]:
    """The half bands a circle op on L tries, narrowest first: on each
    power-of-two grid from _first_grid(L) up to half the grid of
    pt.inv_halfband, the widest half band h whose band of width 2h runs
    on it; then pt.inv_halfband itself."""
    cap = pt.inv_halfband
    top = la.default_grid_size(2 * cap)
    bands = []
    m = _first_grid(L)
    while m < top:
        # default_grid_size(2h) exceeds 8h, so no h >= m / 8 fits
        h = m // 8
        while la.default_grid_size(2 * h) > m:
            h -= 1
        bands.append(h)
        m *= 2
    return (*bands, cap)


def w_power_field(L: LoopPoint, n: int) -> LoopField:
    """w ** n as a loop field; negative powers by certified division,
    every node in one stacked call.  The division walks the grid ladder of
    _halfbands and ends on the band of Point.w_pow."""
    if n >= 0:
        return _field_power(L.w, n)
    pt = _node_points(L)
    den = pt.w**-n
    q = la.first_certified(
        lambda h: la.divide_on_circle(LS.one(), den, -h + n, h + n), _halfbands(L, pt))
    return LoopField(q.lo, q.c.T).trim()


def log_w_field(L: LoopPoint) -> LoopField:
    """log(w/z) nodewise, certified winding-zero on every node; walks
    the grid ladder of _halfbands up to the band pt.inv_halfband."""
    pt = _node_points(L)
    f = pt.w.shift(-1)
    g = la.first_certified(lambda h: la.log_on_circle(f, -h, h), _halfbands(L, pt))
    return LoopField(g.lo, g.c.T).trim()


def flow_rhs(L: LoopPoint, flow) -> tuple[LoopField, LoopField]:
    """Raw right-hand side fields for a named flow, before band trimming.

    Tags: ("s", n), ("sbar", n), ("t", alpha), "u", "v", as ca.flow_tag
    accepts them; any other tag raises ValueError.

    t_alpha for alpha >= 0 brackets lam with (w ** (alpha+1))_{<=-1} and
    lbar with -(w ** (alpha+1))_{>=0}, both over alpha+1.  At alpha = 0
    the generator is w = lam + lbar.  Since w_{<=-1} = lam - lam_{>=0} +
    lbar_{<=-1} and {lam, lam} = 0, the first bracket is {g, lam} with
    g = lbar_{<=-1} - lam_{>=0}; since -w_{>=0} = -lam_{>=0} - lbar +
    lbar_{<=-1} and {lbar, lbar} = 0, the second is {g, lbar}.  So t0
    brackets both slots with the three-row g (degrees -1..1), with no
    factor and no sign flip: it is the sbar1 flow minus the s1 flow.

    Every bracket works on the live rows of its operands (_live_product):
    lam and lbar carry exactly-zero rows at their band ends, which add
    nothing.  The fields keep the rows of the whole bracket."""
    kind, n = ca.flow_tag(flow)
    if kind == "v":
        return L.lam.x_deriv(), L.lbar.x_deriv()
    if kind == "u":
        dl, db = flow_rhs(L, ("sbar", 1))
        return dl.scale(-1.0), db.scale(-1.0)
    if kind == "t" and n == 0:
        gen = lower = upper = L.lbar.project("leq", -1) - L.lam.project("geq", 0)
    elif kind == "t":
        gen = log_w_field(L) if n == -1 else w_power_field(L, n + 1)
        lower, upper = gen.project("leq", -1), gen.project("geq", 0)
    elif kind == "s":
        gen = lower = upper = _power_part(L.lam, n, "geq", 0)
    else:
        gen = lower = upper = _power_part(L.lbar, n, "leq", -1)
    # both brackets read the generator's x-derivative, taken once
    gx = gen.x_deriv()
    dlam = _pb(lower, _rows(gx, lower), L.lam)
    dlbar = _pb(upper, _rows(gx, upper), L.lbar)
    if kind != "t" or n == 0:
        return dlam, dlbar
    if n == -1:
        return dlam + L.lam.x_deriv(), dlbar.scale(-1.0)
    c = 1.0 / (n + 1)
    return dlam.scale(c), dlbar.scale(-c)


def _flow_tangent(L: LoopPoint, flow) -> mf.Tangent:
    """The flow's tangent at L, refused when trimming it to the tangent
    windows discards more than TAIL_LIMIT of it, or a NaN share."""
    t, defect = tangent_part(L, *flow_rhs(L, flow))
    if not defect <= TAIL_LIMIT:
        raise TailOverflow(f"flow field defect {defect:.3e} beyond tolerance")
    return t


# -- Hamiltonians ------------------------------------------------------


def _check_order(n: int) -> None:
    if n < -1:
        raise ValueError(f"Hamiltonians run from n = -1, got n = {n}")


def hamiltonian(L: LoopPoint, n: int, bar: bool = False) -> complex:
    """H_n = -(x-average of) [lambda ** (n+1)]_0 / (n+1) for n >= 0.

    The n = -1 members are the Casimirs, x-averages of the z^0 row of
    lbar (bar=True) and of -(t_-1 + v), where
    t_-1 = (1/2 pi i) contour of log(z/w) w' dz.  log(z/w) is single-valued
    on the circle, so integrating by parts gives
    t_-1 = -(1/2 pi i) contour of (w/z - w') dz = -w_0, and the unbarred
    Casimir is the x-average of -(t_-1 + v) = lam_0, with no quadrature.
    Orders below -1 raise ValueError."""
    _check_order(n)
    if n == -1:
        return complex(np.mean((L.lbar if bar else L.lam).row(0)))
    f = L.lbar if bar else L.lam
    # row 0 of f ** n * f before dealiasing: its x-mean is the same; it
    # reads degree d of f ** n against degree -d of f, so d >= -f.hi
    # (lam) or d <= -f.lo (lbar)
    part = _power_part(f, n, "leq", -f.lo) if bar else _power_part(f, n, "geq", -f.hi)
    row0 = _pair_rows(part, f.shift(-1))
    return complex(-np.mean(row0) / (n + 1))


def gradient(L: LoopPoint, n: int, bar: bool = False) -> mf.Cotangent:
    """Variational gradient of hamiltonian(L, n, bar), projected onto
    the cotangent bands that the pairing can see; orders below -1 raise
    ValueError."""
    _check_order(n)
    nodes = L.nodes
    if n == -1:
        unit = const_field(LS(-1, [1.0]), nodes)
        if bar:
            return mf.Cotangent(zero_field(nodes), unit)
        return mf.Cotangent(unit, zero_field(nodes))
    if bar:
        p = _power_part(L.lbar, n, "leq", 1).shift(-1)
        return mf.Cotangent(zero_field(nodes), p.scale(-1.0))
    p = _power_part(L.lam, n, "geq", 0).shift(-1)
    return mf.Cotangent(p.scale(-1.0), zero_field(nodes))


# -- Poisson operators -------------------------------------------------


def poisson1_apply(L: LoopPoint, o: mf.Cotangent) -> tuple[LoopField, LoopField]:
    """P1 applied to a loop cotangent, as the pair of its two slots, the
    form poisson2_apply returns."""
    zo, zob = o.w1.shift(1), o.w2.shift(1)
    br = pb(L.lam, zo) + pb(L.lbar, zob)
    d = zo - zob
    slot1 = pb(L.lam, d.project("leq", -1)).scale(-1.0) + br.project("leq", 0)
    slot2 = pb(L.lbar, d.project("geq", 0)) + br.project("geq", 1)
    return slot1, slot2


def poisson2_apply(L: LoopPoint, o: mf.Cotangent) -> tuple[LoopField, LoopField]:
    """P2 applied to a loop cotangent, as the pair of its two slots: the
    first carries a degree-1 row that cancels only to rounding, so the
    pair is no mf.Tangent."""
    zo, zob = o.w1.shift(1), o.w2.shift(1)
    br = pb(L.lam, zo) + pb(L.lbar, zob)
    y = L.lam * zo + L.lbar * zob
    phi = (L.lam.zdz() * o.w1 + L.lbar.zdz() * o.w2).residue()
    phi_x = _x_deriv_values(phi)
    slot1 = (
        pb(L.lam, y.project("leq", -1))
        - L.lam * br.project("leq", 0)
        + L.lam.zdz().nodal_mul(phi_x)
    )
    slot2 = (
        pb(L.lbar, y.project("geq", 0)).scale(-1.0)
        + L.lbar * br.project("geq", 1)
        + L.lbar.zdz().nodal_mul(phi_x)
    )
    return slot1, slot2


def recursion_residual(L: LoopPoint, n: int, bar: bool = False) -> float:
    """Defect of P1(dH_n) = -+ P2(dH_{n-1}) together with the match
    between the Lax flow and its first-structure Hamiltonian form."""
    p1 = poisson1_apply(L, gradient(L, n, bar))
    p2 = poisson2_apply(L, gradient(L, n - 1, bar))
    sign = -1.0 if bar else 1.0
    rec = max(
        field_dist(p1[0], p2[0].scale(-sign)),
        field_dist(p1[1], p2[1].scale(-sign)),
    )
    lax = flow_rhs(L, ("sbar" if bar else "s", n))
    direct = max(field_dist(p1[0], lax[0]), field_dist(p1[1], lax[1]))
    return max(rec, direct)


def primary_gradient_fd(L: LoopPoint, which) -> mf.Cotangent:
    """Gradient of the primary Hamiltonian (x-average of the matching
    first derivative of the potential) by centered differences of step
    1e-6 in the loop coefficients, on each slot's band and 12 degrees
    beyond its open end.  Each bump moves one coefficient at every node
    at once, and the derivative of the potential is evaluated once per
    bump on the stacked point of the loop."""
    if which == "u":
        func = po.dF_du
    elif which == "v":
        func = po.dF_dv
    else:

        def func(pt):
            return po.dF_dt(pt, which)

    eps = 1e-6
    lam, lbar = _nodes(L.lam), _nodes(L.lbar)

    def diff(d: int, slot: int) -> np.ndarray:
        """The centered difference along the degree-d coefficient of lam
        (slot 0) or lbar (slot 1), one value per node."""
        bump = LS.monomial(d, eps)
        if slot == 0:
            ends = mf.Point(lam + bump, lbar), mf.Point(lam - bump, lbar)
        else:
            ends = mf.Point(lam, lbar + bump), mf.Point(lam, lbar - bump)
        return (func(ends[0]) - func(ends[1])) / (2.0 * eps)

    # the degree -1-d component of the gradient is the derivative along
    # coefficient d: slot 1 runs over degrees -1 .. -1-lam_lo, slot 2 over
    # -1-bar_hi .. 0
    lam_lo, bar_hi = L.lam.lo - 12, L.lbar.hi + 12
    w1 = np.array([diff(d, 0) for d in range(0, lam_lo - 1, -1)])
    w2 = np.array([diff(d, 1) for d in range(bar_hi, -2, -1)])
    return mf.Cotangent(LoopField(-1, w1).trim(), LoopField(-1 - bar_hi, w2).trim())


# -- time stepping -----------------------------------------------------


def rk4_step(L: LoopPoint, flow, h: float) -> LoopPoint:
    """One classical RK4 step, refused on blow-up or on a band-edge tail.

    Fails closed: BlowUp is raised before any stage for a non-finite h
    or a state with a coefficient that is NaN, inf or beyond BLOWUP_LIMIT,
    and after the step for a result beyond the limit.  Every guard is
    written so that a NaN refuses."""
    _check_magnitude(L)
    if not math.isfinite(h):
        raise BlowUp(f"non-finite step h={h!r}")

    def advance(t: mf.Tangent, c: float) -> LoopPoint:
        return LoopPoint(L.lam + t.a.scale(c), L.lbar + t.ab.scale(c))

    k1 = _flow_tangent(L, flow)
    k2 = _flow_tangent(advance(k1, 0.5 * h), flow)
    k3 = _flow_tangent(advance(k2, 0.5 * h), flow)
    k4 = _flow_tangent(advance(k3, h), flow)
    a = k1.a + k2.a.scale(2.0) + k3.a.scale(2.0) + k4.a
    ab = k1.ab + k2.ab.scale(2.0) + k3.ab.scale(2.0) + k4.ab
    out = advance(mf.Tangent(a, ab), h / 6.0)
    _check_magnitude(out)
    tails = tail_report(out)
    if not (tails["z_tail"] <= TAIL_LIMIT and tails["x_tail"] <= TAIL_LIMIT):
        raise TailOverflow(
            f"z tail {tails['z_tail']:.3e}, x tail {tails['x_tail']:.3e}"
        )
    return out


def _check_magnitude(L: LoopPoint) -> None:
    """Refuse with BlowUp a loop with a coefficient beyond BLOWUP_LIMIT or
    not finite (a NaN fails the comparison, so it refuses too)."""
    top = L.max_abs()
    if not top <= BLOWUP_LIMIT:
        raise BlowUp(f"coefficient magnitude {top:.3e} beyond {BLOWUP_LIMIT:.1e}"
                     if math.isfinite(top) else "non-finite coefficient in the loop")


def step_count(T: float, h: float) -> int:
    """The number of steps h that reach T, refused with ValueError unless
    it is a whole number, at least one; so are h = 0 and a non-finite T,
    h or quotient.  The tolerance absorbs the rounding of the quotient, as
    in 0.07 / 0.01 = 7.000000000000001."""
    steps = T / h if h != 0 else math.nan
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or not math.isclose(steps, n, rel_tol=1e-9):
        raise ValueError(f"T must be a whole number of steps h, got "
                         f"T={T!r}, h={h!r} (T/h = {steps!r})")
    return n


def integrate(L: LoopPoint, flow, T: float, h: float, record_every: int = 10):
    """March with classical RK4 to T in step_count(T, h) steps; returns
    (snapshots, ledger) where the ledger rows carry the conserved
    quantities and tail diagnostics.  A snapshot is kept every
    record_every steps and at T; record_every below 1 raises ValueError
    before any step is taken."""
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    steps = step_count(T, h)
    snapshots = [(0.0, L)]
    ledger = []

    def record(step: int, P: LoopPoint):
        tails = tail_report(P)
        ledger.append(
            {
                "step": step,
                "time": step * h,
                "H1": hamiltonian(P, 1),
                "Hbar1": hamiltonian(P, 1, bar=True),
                "H2": hamiltonian(P, 2),
                "tail_norm": max(tails["z_tail"], tails["x_tail"]),
                "u1_drift": float(np.max(np.abs(P.lam.row(1) - 1.0))),
            }
        )

    record(0, L)
    cur = L
    for step in range(1, steps + 1):
        cur = rk4_step(cur, flow, h)
        record(step, cur)
        if step % record_every == 0 or step == steps:
            snapshots.append((step * h, cur))
    return snapshots, ledger


# -- transport in canonical coordinates --------------------------------


def transport_residual(L: LoopPoint, flow, velocity=None) -> float:
    """Residual of d_t u_sigma = A(sigma) d_x u_sigma for a named flow,
    at the 64th roots of unity.

    Both derivatives are taken at fixed sigma.  The critical-point
    relation sigma*lbar' + (sigma-1)*lam' = 0 kills the dp/dx terms in
    the chain rule, so the fixed-sigma x-derivative is the canonical
    pairing of du(p) with the x-translation field.

    Every node is evaluated at once, on the stacked point of the loop,
    by inverse FFT (ca.du_grid, ca.char_velocities); lam' and lbar' are
    evaluated once for the pairings and the velocity.  A callable
    velocity is called as velocity(pt, 64) with that point."""
    m_p = 64
    pt = _node_points(L)
    t, _ = tangent_part(L, *flow_rhs(L, flow))
    tv, _ = tangent_part(L, *flow_rhs(L, "v"))
    dt_u, dx_u = (ca.du_grid(pt, m_p, mf.Tangent(_nodes(x.a), _nodes(x.ab))) for x in (t, tv))
    vflow = velocity if velocity is not None else flow
    vel = vflow(pt, m_p) if callable(vflow) else ca.char_velocities(pt, vflow, m_p)
    return float(np.max(np.abs(dt_u - vel * dx_u)))


# -- serialization -----------------------------------------------------


def loop_to_json_dict(L: LoopPoint) -> dict:
    def pack(f: LoopField) -> dict:
        return {
            "lo": f.lo,
            "re": f.coeffs.real.tolist(),
            "im": f.coeffs.imag.tolist(),
        }

    return {"nodes": L.nodes, "lam": pack(L.lam), "lbar": pack(L.lbar)}

