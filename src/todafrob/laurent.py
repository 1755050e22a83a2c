"""Banded Laurent series on an annulus around the unit circle.

Coefficients are complex doubles indexed by integer degree.  Ring
operations (add, multiply, project, differentiate) keep exact bands.
Truncation enters only through the circle-grid routines (division,
reciprocal, logarithm): those sample on a uniform grid of roots of
unity, reconstruct coefficients by FFT, and certify both the discarded
tail and the residual of the defining equation before returning.

A series may also be a stack of K series on one band, coefficients of
shape (K, width): everything then acts row by row (FFTs along the last
axis), a one-row series combines with every row, and each row is
certified on its own (a refusal names the worst row of its row block).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

DEFAULT_TAIL_TOL = 1e-12
CERT_RESIDUAL_TOL = 1e-11
# Stacked circle operations run on blocks of ROW_BLOCK_BYTES // (16 m)
# rows, so each m-point temporary stays near 256 KiB whatever K is.
ROW_BLOCK_BYTES = 1 << 18


class BandTooWide(ValueError):
    """Requested band does not fit on the sampling grid."""


class ZeroOnCircle(ArithmeticError):
    """Divisor vanishes (to working precision) somewhere on the circle."""


class TruncationLoss(ArithmeticError):
    """Discarded tail or defining-equation residual exceeds tolerance."""


class WindingNonzero(ArithmeticError):
    """Logarithm requested for a function of nonzero winding number."""


class WindingUnresolved(ArithmeticError):
    """Phase steps too large to unwrap reliably on this grid."""


class SingularAtZero(ArithmeticError):
    """Taylor reciprocal requested for a series not invertible at z=0."""


class GridMismatch(ValueError):
    """Operands sampled on incompatible grids."""


class LaurentSeries:
    """Finite band of complex coefficients c[d] for lo <= d <= hi.

    c is one row, or a stack of shape (K, width) holding K series.  Normal
    form trims degrees zero in every row at both ends; the zero series has
    no columns.  Instances are treated as immutable.

    The constructor scans for that form only when an end column of its
    input vanishes in every row (most results of the ring operations
    already have nonzero ends), and it always copies, so a caller who
    mutates its array afterwards cannot change the series.  A sum or
    difference is written into one zero-filled output with the arithmetic
    of the two zero-padded windows, signed zeros included.
    """

    __slots__ = ("lo", "c")

    def __init__(self, lo: int, coeffs) -> None:
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim == 1:
            trimmed = len(c) > 0 and c[0] != 0 and c[-1] != 0
        elif c.ndim == 2:
            trimmed = c.shape[1] > 0 and c[:, 0].any() and c[:, -1].any()
        else:
            raise ValueError("coefficients must be one row or a stack of rows")
        if trimmed:
            self.lo = int(lo)
            self.c = c.copy()
            return
        nz = np.nonzero(c if c.ndim == 1 else np.any(c, axis=0))[0]
        if len(nz) == 0:
            self.lo = 0
            self.c = np.zeros(c.shape[:-1] + (0,), dtype=complex)
        else:
            a, b = nz[0], nz[-1] + 1
            self.lo = int(lo) + int(a)
            self.c = c[..., a:b].copy()

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries(0, [])

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries(0, [1.0])

    @staticmethod
    def monomial(deg: int, coeff: complex = 1.0) -> "LaurentSeries":
        return LaurentSeries(deg, [coeff])

    # -- basic queries ------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + self.c.shape[-1] - 1

    @property
    def is_zero(self) -> bool:
        return self.c.shape[-1] == 0

    def coeff(self, d: int):
        """The degree-d coefficient; one per row (an array) for a stack."""
        stacked = self.c.ndim == 2
        if self.is_zero or d < self.lo or d > self.hi:
            return np.zeros(self.c.shape[0], dtype=complex) if stacked else 0.0 + 0.0j
        return self.c[:, d - self.lo] if stacked else complex(self.c[d - self.lo])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients on [lo, hi] as a dense array (zero padded)."""
        out = np.zeros(self.c.shape[:-1] + (hi - lo + 1,), dtype=complex)
        if not self.is_zero:
            a = max(self.lo, lo)
            b = min(self.hi, hi)
            if a <= b:
                out[..., a - lo : b - lo + 1] = self.c[..., a - self.lo : b - self.lo + 1]
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.c))) if self.c.size else 0.0

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentSeries(0)"
        return f"LaurentSeries(lo={self.lo}, hi={self.hi})"

    # -- ring operations (exact bands) ---------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return self._combine(other, np.add)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.is_zero:
            return -other
        if other.is_zero:
            return self
        return self._combine(other, np.subtract)

    def _combine(self, other: "LaurentSeries", op) -> "LaurentSeries":
        """self op other (np.add or np.subtract) on the union band, written
        into one zero-filled output; a one-row operand meets every row of
        a stack.  The result is that of the two zero-padded windows,
        signed zeros included: a coefficient of self outside other's band
        gets the +0.0 the padding added."""
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        a = slice(self.lo - lo, self.hi - lo + 1)
        b = slice(other.lo - lo, other.hi - lo + 1)
        if a == b:
            return LaurentSeries(lo, op(self.c, other.c))
        rows = (() if self.c.ndim == other.c.ndim == 1
                else np.broadcast_shapes(self.c.shape[:-1], other.c.shape[:-1]))
        out = np.zeros(rows + (hi - lo + 1,), dtype=complex)
        out[..., a] = self.c
        band = out[..., b]
        op(band, other.c, out=band)
        if self.lo < other.lo:
            out[..., : b.start] += 0.0
        if self.hi > other.hi:
            out[..., b.stop :] += 0.0
        return LaurentSeries(lo, out)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.lo, -self.c)

    def scale(self, a: complex) -> "LaurentSeries":
        return LaurentSeries(self.lo, a * self.c)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            if self.is_zero or other.is_zero:
                return LaurentSeries.zero()
            if self.c.ndim == other.c.ndim == 1:
                return LaurentSeries(self.lo + other.lo, np.convolve(self.c, other.c))
            a, b = np.atleast_2d(self.c), np.atleast_2d(other.c)
            out = np.zeros((max(len(a), len(b)), a.shape[1] + b.shape[1] - 1), dtype=complex)
            for i in range(a.shape[1]):
                out[:, i : i + b.shape[1]] += a[:, i : i + 1] * b
            return LaurentSeries(self.lo + other.lo, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "LaurentSeries":
        out = LaurentSeries.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z**k."""
        return LaurentSeries(self.lo + k, self.c)

    def project(self, kind: str, k: int) -> "LaurentSeries":
        """Keep degrees >= k ("geq") or <= k ("leq")."""
        if self.is_zero:
            return self
        if kind == "geq":
            if self.lo >= k:
                return self
            if self.hi < k:
                return LaurentSeries.zero()
            return LaurentSeries(k, self.c[..., k - self.lo :])
        if kind == "leq":
            if self.hi <= k:
                return self
            if self.lo > k:
                return LaurentSeries.zero()
            return LaurentSeries(self.lo, self.c[..., : k - self.lo + 1])
        raise ValueError(f"unknown projection kind {kind!r}")

    def restrict(self, lo: int, hi: int) -> "LaurentSeries":
        return LaurentSeries(lo, self.window(lo, hi))

    def derivative(self) -> "LaurentSeries":
        """d/dz: degree d coefficient contributes d*c[d] at degree d-1."""
        if self.is_zero:
            return self
        degs = np.arange(self.lo, self.hi + 1)
        return LaurentSeries(self.lo - 1, degs * self.c)

    def z_derivative(self) -> "LaurentSeries":
        """z d/dz: multiplies the degree-d coefficient by d."""
        if self.is_zero:
            return self
        degs = np.arange(self.lo, self.hi + 1)
        return LaurentSeries(self.lo, degs * self.c)

    def residue(self) -> complex:
        """Coefficient extraction form of (1/2 pi i) contour integral."""
        return self.coeff(-1)

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at nonzero complex points (a set of values per row)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(self.c.shape[:-1] + z.shape, dtype=complex)
        if self.is_zero:
            return out
        # Horner on the polynomial part in place, then shift by z**lo; one
        # value stays a NumPy scalar, so it keeps scalar arithmetic
        cols = self.c.T if self.c.ndim == 1 else self.c.T[(...,) + (None,) * z.ndim]
        out = out[()]
        for ck in cols[::-1]:
            out *= z
            out += ck
        return out * z**self.lo


def pi_op(f: LaurentSeries) -> LaurentSeries:
    """Projection difference (f)_{>=0} - (f)_{<=-1}."""
    return f.project("geq", 0) - f.project("leq", -1)


def series_dist(f: LaurentSeries, g: LaurentSeries) -> float:
    d = f - g
    return d.max_abs()


# -- circle grid ------------------------------------------------------


@lru_cache(maxsize=32)
def unit_roots(m: int) -> np.ndarray:
    """The m-th roots of unity, read-only: the cached array is shared."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.setflags(write=False)
    return roots


def default_grid_size(width: int) -> int:
    """Smallest power of two exceeding 4*(width + 8)."""
    m = 2
    while m <= 4 * (width + 8):
        m *= 2
    return m


def grid_eval(f: LaurentSeries, m: int) -> np.ndarray:
    """Values at the m-th roots of unity, one row per row of a stack.
    Exact for any m (degrees fold mod m before the inverse FFT, which is
    the identity they satisfy on the grid)."""
    folded = np.zeros(f.c.shape[:-1] + (m,), dtype=complex)
    a, width = 0, f.c.shape[-1]
    while a < width:  # runs of consecutive degrees that do not wrap around
        node = (f.lo + a) % m
        run = min(m - node, width - a)
        folded[..., node : node + run] += f.c[..., a : a + run]
        a += run
    return m * np.fft.ifft(folded, axis=-1)


def grid_to_series(values: np.ndarray, lo: int, hi: int) -> LaurentSeries:
    """Recover coefficients on [lo, hi] from values at the roots of unity
    on the last axis (a stack for stacked values).  Exact when the function
    is supported on the band; degrees outside it alias onto the band mod m."""
    values = np.asarray(values, dtype=complex)
    m = values.shape[-1]
    if m <= hi - lo:
        raise BandTooWide(f"band [{lo},{hi}] needs more than {m} samples")
    chat = np.fft.fft(values, axis=-1) / m
    degs = np.arange(lo, hi + 1)
    return LaurentSeries(lo, chat[..., degs % m])


def by_row_blocks(fn, series: tuple, m: int) -> np.ndarray:
    """fn(*series, row0) on blocks of ROW_BLOCK_BYTES // (16 m) rows of the
    stacked series, joined row-wise; row0 is the block's first row, and a
    one-row series goes whole to every block.  No stack: fn(*series, 0)."""
    rows = [len(f.c) for f in series if f.c.ndim == 2]
    if not rows:
        return fn(*series, 0)
    step = max(1, ROW_BLOCK_BYTES // (16 * m))
    return np.concatenate([
        fn(*(f if f.c.ndim == 1 else LaurentSeries(f.lo, f.c[a : a + step]) for f in series), a)
        for a in range(0, rows[0], step)
    ])


def _refuse(exc, bad, severity, row0: int, message) -> None:
    """Raise exc(message(k)) if any row is bad, k being the bad row of
    highest severity; stacked rows are named by their index in the stack."""
    bad = np.asarray(bad)
    if bad.any():
        k = int(np.argmax(np.where(bad, severity, -np.inf)))
        raise exc(message(k) + (f" (row {row0 + k})" if bad.ndim else ""))


def _row_max(vals: np.ndarray, row0: int, message: str):
    """Each row's largest |value|; rows vanishing on the circle are refused."""
    mag = np.abs(vals)
    vmax, vmin = mag.max(axis=-1), mag.min(axis=-1)
    _refuse(ZeroOnCircle, vmin <= 1e-10 * vmax, -vmin / np.maximum(vmax, 1e-300), row0,
            lambda k: message)
    return vmax


# -- certified circle operations --------------------------------------


def _certify(vals: np.ndarray, lo: int, hi: int, tail_tol: float, row0: int) -> np.ndarray:
    """Coefficients on [lo, hi] from grid values, recovered on the m degrees
    centered on [lo, hi]; a row is refused when its dropped tail is not
    below tail_tol times that row's own largest coefficient."""
    m = vals.shape[-1]
    wlo = (lo + hi) // 2 - m // 2
    whi = wlo + m - 1
    full = grid_to_series(vals, wlo, whi)
    mag = np.abs(full.window(wlo, whi))
    degs = np.arange(wlo, whi + 1)
    gmax = np.maximum(mag.max(axis=-1), 1e-300)
    tail = mag[..., (degs < lo) | (degs > hi)].max(axis=-1, initial=0.0)
    _refuse(TruncationLoss, tail > tail_tol * gmax, tail / gmax, row0, lambda k: (
        f"tail {np.ravel(tail)[k]:.3e} exceeds {tail_tol:.1e} * max-coefficient on [{lo},{hi}]"))
    return full.window(lo, hi)


def divide_on_circle(
    num: LaurentSeries,
    den: LaurentSeries,
    lo: int,
    hi: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    grid_size: int | None = None,
) -> LaurentSeries:
    """Certified num/den on the band [lo, hi], row by row for stacks.

    Samples both operands on the grid, divides pointwise, reconstructs
    on a window of full grid length, and checks that everything dropped
    outside [lo, hi] sits below tail_tol relative to the largest
    recovered coefficient.  The returned truncation is re-checked
    against the defining equation den*g = num on the grid.
    """
    m = grid_size or default_grid_size(hi - lo)

    def rows(num, den, row0):
        den_vals = grid_eval(den, m)
        dmax = _row_max(den_vals, row0, "divisor vanishes on the unit circle")
        num_vals = grid_eval(num, m)
        g = _certify(num_vals / den_vals, lo, hi, tail_tol, row0)
        resid = np.abs(grid_eval(LaurentSeries(lo, g), m) * den_vals - num_vals).max(axis=-1)
        gmax = np.abs(g).max(axis=-1)
        scale = np.maximum(np.abs(num_vals).max(axis=-1), dmax * np.maximum(gmax, 1.0))
        _refuse(TruncationLoss, resid > CERT_RESIDUAL_TOL * scale, resid / scale, row0, lambda k: (
            f"division residual {np.ravel(resid)[k]:.3e} not certified on [{lo},{hi}]"))
        return g

    return LaurentSeries(lo, by_row_blocks(rows, (num, den), m))


def reciprocal_on_circle(
    f: LaurentSeries,
    lo: int,
    hi: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    grid_size: int | None = None,
) -> LaurentSeries:
    """Certified 1/f on the band [lo, hi]."""
    return divide_on_circle(LaurentSeries.one(), f, lo, hi, tail_tol, grid_size)


def unwrap_on_circle(values: np.ndarray, row0: int = 0):
    """Continuous phases along the circle (the last axis) and the winding
    number, one per row for stacked values; row0 is the stack index of
    the first row, for refusals.

    Raises WindingUnresolved when any step between adjacent samples
    exceeds pi/2, i.e. when the grid is too coarse to track the phase.
    """
    values = np.asarray(values, dtype=complex)
    vmin = np.abs(values).min(axis=-1)
    _refuse(ZeroOnCircle, vmin == 0.0, -vmin, row0, lambda k: "cannot unwrap a phase through zero")
    steps = np.angle(np.roll(values, -1, axis=-1) / values)
    jump = np.abs(steps).max(axis=-1)
    _refuse(WindingUnresolved, jump > np.pi / 2, jump, row0,
            lambda k: "phase step above pi/2 between adjacent samples")
    winding = np.rint(np.sum(steps, axis=-1) / (2 * np.pi)).astype(int)
    start = np.zeros(values.shape[:-1] + (1,))
    turned = np.concatenate((start, np.cumsum(steps[..., :-1], axis=-1)), axis=-1)
    return np.angle(values[..., :1]) + turned, (winding if winding.ndim else int(winding))


def circle_winding(values: np.ndarray):
    return unwrap_on_circle(values)[1]


def near_pairs(points: np.ndarray, radius: float):
    """Index arrays (i, j), i < j, holding every pair of points at most
    `radius` apart, among other pairs in neighbouring cells.

    The points are bucketed in square cells of side `radius` and the cell
    keys sorted once.  Each point is paired with the later points of its
    own cell and with the points of four of its eight neighbouring cells
    (the other four pair with it from their side), found by binary search.  The cost is
    O(m log m) plus the number of pairs returned; no m x m array is built.
    """
    pts = np.asarray(points, dtype=complex)
    x, y = pts.real - pts.real.min(), pts.imag - pts.imag.min()
    # cells no smaller than 2**-30 of the extent keep the keys inside int64
    side = max(radius, 2.0**-30 * max(x.max(), y.max())) or 1.0
    cx = (x // side).astype(np.int64) + 1
    cy = (y // side).astype(np.int64) + 1
    stride = int(cy.max()) + 2
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    n = len(key)
    cells = (np.array([0, 1, stride - 1, stride, stride + 1])[:, None] + sorted_keys).ravel()
    first = np.searchsorted(sorted_keys, cells, "left")
    first[:n] = np.arange(1, n + 1)  # own cell: the points sorted after this one
    count = np.maximum(np.searchsorted(sorted_keys, cells, "right") - first, 0)
    a = np.repeat(np.tile(np.arange(n), 5), count)
    # output position p of run r reads sorted index first[r] + p - (start of run r)
    b = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(a))
    i, j = order[a], order[b]
    return np.minimum(i, j), np.maximum(i, j)


def curve_extent(values: np.ndarray) -> float:
    """Diagonal of the bounding box of the samples: between 1 and sqrt(2)
    times their diameter, in O(m)."""
    return float(np.hypot(np.ptp(values.real), np.ptp(values.imag)))


def _segment_distance(p0, p1, q0, q1) -> np.ndarray:
    """Distances between the segments [p0, p1] and [q0, q1], elementwise;
    0.0 where they cross."""

    def cross(a, b):
        return a.real * b.imag - a.imag * b.real

    def to_segment(pt, a, d):
        dd = np.abs(d) ** 2
        t = np.divide(((pt - a) * d.conj()).real, dd, out=np.zeros_like(dd), where=dd > 0)
        return np.abs(pt - a - np.clip(t, 0.0, 1.0) * d)

    dp, dq = p1 - p0, q1 - q0
    crossing = ((cross(dq, p0 - q0) * cross(dq, p1 - q0) < 0)
                & (cross(dp, q0 - p0) * cross(dp, q1 - p0) < 0))
    dist = np.minimum(np.minimum(to_segment(p0, q0, dq), to_segment(p1, q0, dq)),
                      np.minimum(to_segment(q0, p0, dp), to_segment(q1, p0, dp)))
    return np.where(crossing, 0.0, dist)


def segment_gap(values: np.ndarray) -> float:
    """Smallest distance between non-adjacent edges of the closed polygon
    through the samples, 0.0 where two of them cross (inf for fewer than
    four edges).

    Exact: edges k and k+2 are no farther apart than edge k+1 is long, so
    the minimum is at most the longest edge L, and two edges that close
    have midpoints within 2L; only the near_pairs of midpoints at that
    radius are measured.
    """
    v = np.asarray(values, dtype=complex)
    m = len(v)
    nxt = np.roll(v, -1)
    longest = float(np.abs(nxt - v).max())
    if longest == 0.0:
        return 0.0
    i, j = near_pairs(0.5 * (v + nxt), 2.0 * longest)
    keep = (j - i >= 2) & (j - i <= m - 2)
    i, j = i[keep], j[keep]
    return float(_segment_distance(v[i], nxt[i], v[j], nxt[j]).min(initial=np.inf))


def curve_gap_ratio(values: np.ndarray) -> float:
    """Smallest distance between samples of a closed curve at least three
    nodes apart, relative to curve_extent (0.0 for a point).

    It sees coinciding samples (a double cover), not crossings.  Exact:
    samples three nodes apart lie within three of the longest steps, so
    the minimum is among the near_pairs at that radius.
    """
    v = np.asarray(values, dtype=complex)
    m = len(v)
    extent = curve_extent(v)
    if extent == 0.0:
        return 0.0
    i, j = near_pairs(v, 3.0 * float(np.abs(np.roll(v, -1) - v).max()))
    keep = np.minimum(j - i, m - (j - i)) >= 3
    return float(np.abs(v[i[keep]] - v[j[keep]]).min(initial=np.inf) / extent)


def log_values_on_circle(values: np.ndarray, row0: int = 0) -> np.ndarray:
    """Pointwise log with a globally consistent winding-zero branch.

    Principal branch at the first node, continued by unwrapping; raises
    WindingNonzero if the values (any row of them) wind around the origin.
    """
    phases, winding = unwrap_on_circle(values, row0)
    _refuse(WindingNonzero, np.asarray(winding) != 0, np.abs(winding), row0, lambda k: (
        f"winding {np.ravel(winding)[k]} != 0, no single-valued logarithm"))
    return np.log(np.abs(values)) + 1j * phases


def log_on_circle(
    f: LaurentSeries,
    lo: int,
    hi: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    grid_size: int | None = None,
) -> LaurentSeries:
    """Certified log f on [lo, hi] for winding-zero f, row by row for stacks.

    The branch is the principal logarithm at the first grid node,
    continued around the circle by unwrapped phases.
    """
    m = grid_size or default_grid_size(hi - lo)

    def rows(f, row0):
        vals = grid_eval(f, m)
        fmax = _row_max(vals, row0, "logarithm of a function vanishing on the circle")
        g = _certify(log_values_on_circle(vals, row0), lo, hi, tail_tol, row0)
        resid = np.abs(np.exp(grid_eval(LaurentSeries(lo, g), m)) - vals).max(axis=-1)
        _refuse(TruncationLoss, resid > CERT_RESIDUAL_TOL * fmax, resid / fmax, row0, lambda k: (
            f"log residual {np.ravel(resid)[k]:.3e} not certified on [{lo},{hi}]"))
        return g

    return LaurentSeries(lo, by_row_blocks(rows, (f,), m))


def first_certified(op, bands):
    """op(band) for each band in turn, returning the first result that
    certifies.  Only TruncationLoss moves on to the next band; at the last
    band it propagates, and its message names that band."""
    *narrow, last = bands
    for band in narrow:
        try:
            return op(band)
        except TruncationLoss:
            pass
    return op(last)


def taylor_reciprocal_at_zero(f: LaurentSeries, order: int) -> LaurentSeries:
    """Taylor expansion of 1/f at z=0 through degree `order`.

    Requires f regular at 0 with f(0) != 0; exact long-division
    recurrence, no sampling involved.
    """
    if f.is_zero or f.lo < 0:
        raise SingularAtZero("reciprocal at z=0 needs a regular nonvanishing germ")
    c0 = f.coeff(0)
    if abs(c0) < 1e-300:
        raise SingularAtZero("series vanishes at z=0")
    a = f.window(0, order)
    g = np.zeros(order + 1, dtype=complex)
    g[0] = 1.0 / c0
    for n in range(1, order + 1):
        g[n] = -np.dot(a[1 : n + 1], g[n - 1 :: -1]) / c0
    return LaurentSeries(0, g)


def contour_mean(values: np.ndarray, radius: float = 1.0):
    """(1/2 pi i) * contour integral of f dz from samples on |z|=radius
    (the last axis; one mean per row for stacked values).

    Trapezoidal rule on a circle: exact for banded integrands once the
    grid resolves the band, exponentially accurate for analytic ones.
    """
    values = np.asarray(values)
    mean = (values * (radius * unit_roots(values.shape[-1]))).mean(axis=-1)
    return complex(mean) if mean.ndim == 0 else mean


# -- serialization ----------------------------------------------------


def to_json_dict(f: LaurentSeries) -> dict:
    return {
        "lo": int(f.lo) if not f.is_zero else 0,
        "re": [float(x) for x in np.real(f.c)],
        "im": [float(x) for x in np.imag(f.c)],
    }


def from_json_dict(d: dict) -> LaurentSeries:
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if len(re) != len(im):
        raise ValueError("re/im length mismatch")
    return LaurentSeries(int(d["lo"]), re + 1j * im)


def dumps(f: LaurentSeries) -> str:
    return json.dumps(to_json_dict(f), separators=(",", ":"))


def loads(s: str) -> LaurentSeries:
    return from_json_dict(json.loads(s))
