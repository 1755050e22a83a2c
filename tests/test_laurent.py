"""Banded arithmetic, grid transforms, and certified circle operations."""

import numpy as np
import pytest

from todafrob import laurent as la
from todafrob.laurent import LaurentSeries as LS


def random_series(rng, lo, hi, scale=1.0):
    n = hi - lo + 1
    c = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return LS(lo, c)


# -- ring operations ---------------------------------------------------


def test_mul_matches_dict_oracle():
    # brute-force convolution over a dict of degree -> coefficient
    rng = np.random.default_rng(11)
    f = random_series(rng, -4, 3)
    g = random_series(rng, -2, 5)
    prod = {}
    for a in range(f.lo, f.hi + 1):
        for b in range(g.lo, g.hi + 1):
            prod[a + b] = prod.get(a + b, 0.0) + f.coeff(a) * g.coeff(b)
    h = f * g
    assert h.lo == f.lo + g.lo and h.hi == f.hi + g.hi
    for d, v in prod.items():
        assert abs(h.coeff(d) - v) < 1e-13


def test_ring_identities():
    rng = np.random.default_rng(7)
    f = random_series(rng, -6, 4)
    g = random_series(rng, -3, 6)
    h = random_series(rng, -5, 2)
    assert la.series_dist(f * g, g * f) < 1e-12
    assert la.series_dist((f * g) * h, f * (g * h)) < 1e-12
    assert la.series_dist(f * (g + h), f * g + f * h) < 1e-12
    assert (f - f).is_zero
    assert la.series_dist(f * LS.one(), f) == 0.0


def test_projection_partition_and_adjoint():
    rng = np.random.default_rng(13)
    f = random_series(rng, -7, 7)
    g = random_series(rng, -6, 8)
    assert la.series_dist(f.project("geq", 0) + f.project("leq", -1), f) == 0.0
    # adjoint identity: res(f * (g)_{>=k}) == res((f)_{<=-k-1} * g)
    for k in (-3, -1, 0, 2):
        lhs = (f * g.project("geq", k)).residue()
        rhs = (f.project("leq", -k - 1) * g).residue()
        assert abs(lhs - rhs) < 1e-12


def test_pi_op_splits_sign():
    f = LS(-2, [3.0, 2.0, 1.0, 5.0, 7.0])  # degrees -2..2
    p = la.pi_op(f)
    assert p.coeff(-2) == -3.0 and p.coeff(-1) == -2.0
    assert p.coeff(0) == 1.0 and p.coeff(1) == 5.0 and p.coeff(2) == 7.0


def test_derivatives():
    f = LS(-2, [1.0, 0.0, 2.0, 3.0])  # z^-2 + 2 + 3z
    d = f.derivative()
    assert d.coeff(-3) == -2.0 and d.coeff(0) == 3.0 and d.coeff(-1) == 0.0
    # product rule
    rng = np.random.default_rng(3)
    g = random_series(rng, -3, 3)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert la.series_dist(lhs, rhs) < 1e-12


def test_residue_is_cm1():
    f = LS(-3, [4.0, 0.5, 2.0, 9.0])
    assert f.residue() == f.coeff(-1) == 2.0


# -- grid transforms ---------------------------------------------------


def test_grid_roundtrip_exact_when_band_fits():
    rng = np.random.default_rng(5)
    f = random_series(rng, -9, 12)
    m = 32
    vals = la.grid_eval(f, m)
    back = la.grid_to_series(vals, -9, 12)
    assert la.series_dist(back, f) < 1e-13


def test_grid_eval_matches_pointwise_evaluation():
    rng = np.random.default_rng(6)
    f = random_series(rng, -5, 5)
    m = 64
    direct = f.evaluate(la.unit_roots(m))
    assert np.max(np.abs(la.grid_eval(f, m) - direct)) < 1e-12


def allocating_evaluate(f: LS, z) -> np.ndarray:
    """Horner with a fresh array per step: the loop evaluate replaced."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(f.c.shape[:-1] + z.shape, dtype=complex)
    cols = f.c.T if f.c.ndim == 1 else f.c.T[(...,) + (None,) * z.ndim]
    for ck in cols[::-1]:
        out = out * z + ck
    return out * z**f.lo


def test_in_place_horner_is_bit_equal_to_the_allocating_loop():
    rng = np.random.default_rng(12)
    f = random_series(rng, -6, 9)
    stack = LS(-5, rng.standard_normal((7, 18)) + 1j * rng.standard_normal((7, 18)))
    zs = la.unit_roots(64) * 1.1
    for series, z in [(f, zs), (stack, zs), (f, 0.7 - 0.4j), (stack, 0.7 - 0.4j)]:
        got, want = series.evaluate(z), allocating_evaluate(series, z)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def padded_sum(f: LS, g: LS, sign: float) -> LS:
    """f + g (sign 1) or f - g (sign -1) by the two zero-padded windows,
    the arithmetic the one-output sums must reproduce bit for bit."""
    if sign < 0:
        g = LS(g.lo, -g.c)
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    lo, hi = min(f.lo, g.lo), max(f.hi, g.hi)
    return LS(lo, f.window(lo, hi) + g.window(lo, hi))


def scanned_normal_form(lo: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    """Normal form by a scan of every degree, as the constructor once
    formed it for every input."""
    nz = np.nonzero(c if c.ndim == 1 else np.any(c, axis=0))[0]
    if len(nz) == 0:
        return 0, np.zeros(c.shape[:-1] + (0,), dtype=complex)
    return lo + int(nz[0]), c[..., nz[0] : nz[-1] + 1]


def assert_same_bits(got: LS, want: LS) -> None:
    assert got.lo == want.lo and got.c.shape == want.c.shape
    assert got.c.tobytes() == want.c.tobytes()  # signed zeros included


def sparse_coeffs(rng, shape) -> np.ndarray:
    """Coefficients drawn from 0.0, -0.0 and two nonzeros, so zero ends,
    cancellations and signed zeros all occur."""
    vals = np.array([0.0, -0.0, 1.5, -2.0])
    return rng.choice(vals, shape) + 1j * rng.choice(vals, shape)


@pytest.mark.parametrize("rows", [(None, None), (4, 4), (None, 4), (4, None)],
                         ids=["row", "stack", "row-stack", "stack-row"])
def test_sums_are_bit_equal_to_the_padded_windows(rows):
    rng = np.random.default_rng(13)
    for _ in range(400):
        f, g = (LS(int(rng.integers(-5, 5)),
                   sparse_coeffs(rng, (int(rng.integers(1, 8)),) if r is None
                                 else (r, int(rng.integers(1, 8)))))
                for r in rows)
        for sign in (1.0, -1.0):
            got = f + g if sign > 0 else f - g
            assert_same_bits(got, padded_sum(f, g, sign))
    # smooth rows broadcast against a stack, in both orders
    row, stack = random_series(rng, -3, 6), LS(-6, rng.standard_normal((5, 8)) + 0j)
    for f, g in [(row, stack), (stack, row)]:
        assert (f + g).c.shape == (5, 13)
        assert_same_bits(f + g, padded_sum(f, g, 1.0))
        assert_same_bits(f - g, padded_sum(f, g, -1.0))


def column_loop_product(f: LS, g: LS) -> LS:
    """A stacked product by a loop over the columns of the left operand,
    the arithmetic the degree-major kernel must reproduce bit for bit."""
    if f.is_zero or g.is_zero:
        return LS.zero()
    a, b = np.atleast_2d(f.c), np.atleast_2d(g.c)
    out = np.zeros((max(len(a), len(b)), a.shape[1] + b.shape[1] - 1), dtype=complex)
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] += a[:, i : i + 1] * b
    return LS(f.lo + g.lo, out)


def mixed_coeffs(rng, shape) -> np.ndarray:
    """sparse_coeffs with about half the entries replaced by random values."""
    smooth = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.where(rng.random(shape) < 0.5, sparse_coeffs(rng, shape), smooth)


@pytest.mark.parametrize("rows", [(None, 4), (4, None), (4, 4)],
                         ids=["row-stack", "stack-row", "stack"])
def test_stacked_products_are_bit_equal_to_the_column_loop(rows):
    rng = np.random.default_rng(15)
    for _ in range(400):
        f, g = (LS(int(rng.integers(-5, 5)),
                   mixed_coeffs(rng, (int(rng.integers(1, 9)),) if r is None
                                else (r, int(rng.integers(1, 9)))))
                for r in rows)
        assert_same_bits(f * g, column_loop_product(f, g))
    # one-coefficient left operands, as LS.one() * stack forms them
    stack = LS(-3, mixed_coeffs(rng, (6, 33)))
    column = LS(0, [[1.5], [-0.0], [1.0], [0.0], [-2.0], [3.0]])
    for f in (LS.one(), LS.monomial(2, -2.0 + 1.5j), column):
        assert_same_bits(f * stack, column_loop_product(f, stack))
    assert_same_bits(stack * LS.one(), column_loop_product(stack, LS.one()))


def test_negative_powers_are_refused():
    f = LS(-1, [1.0, 2.0])
    with pytest.raises(ValueError, match="n >= 0"):
        f ** -1
    assert_same_bits(f ** 0, LS.one())


def test_a_power_starts_from_the_series(monkeypatch):
    # x ** n forms n - 1 products: x ** 1 is x itself, x ** 0 is one
    stack = LS(-3, mixed_coeffs(np.random.default_rng(16), (4, 9)))
    products = []
    real = la.convolve_rows
    monkeypatch.setattr(la, "convolve_rows", lambda a, b: products.append(1) or real(a, b))
    assert_same_bits(stack ** 1, stack)
    assert not products
    assert_same_bits(stack ** 0, LS.one())
    assert not products
    assert_same_bits(stack ** 3, stack * stack * stack)
    assert len(products) == 4


@pytest.mark.parametrize("shape", [(9,), (4, 9)], ids=["row", "stack"])
def test_construction_is_the_scanned_normal_form_and_a_copy(shape):
    rng = np.random.default_rng(14)
    for _ in range(300):
        c = sparse_coeffs(rng, shape)
        f = LS(-3, c)
        lo, want = scanned_normal_form(-3, c)
        assert f.lo == lo and f.c.tobytes() == want.tobytes()
    # ends nonzero (the unscanned path) and ends zero (a trimmed view):
    # mutating the caller's array afterwards leaves the series as it was
    for c in (rng.standard_normal(shape) + 1j, np.pad(rng.standard_normal(shape) + 1j,
                                                    [(0, 0)] * (len(shape) - 1) + [(2, 1)])):
        f = LS(0, c)
        kept = f.c.copy()
        c[...] = 7.0
        assert np.array_equal(f.c, kept)


def test_aliasing_detected_by_roundtrip():
    # z^5 on 4 nodes aliases onto degree 1: recovery on [-1, 1] returns z
    f = LS.monomial(5)
    vals = la.grid_eval(f, 4)
    back = la.grid_to_series(vals, -1, 1)
    assert la.series_dist(back, LS.monomial(1)) < 1e-14
    assert la.series_dist(back, f) > 0.5  # roundtrip flags the aliasing


def test_band_too_wide():
    with pytest.raises(la.BandTooWide):
        la.grid_to_series(np.ones(2), -1, 1)


def test_contour_mean_is_residue():
    rng = np.random.default_rng(9)
    f = random_series(rng, -6, 6)
    vals = la.grid_eval(f, 64)
    assert abs(la.contour_mean(vals) - f.residue()) < 1e-12


def test_default_grid_size_policy():
    assert la.default_grid_size(0) == 64    # > 32
    assert la.default_grid_size(24) == 256  # > 128
    assert la.default_grid_size(120) == 1024


# -- certified circle operations ---------------------------------------

# frozen long-division oracle for 1/(2 + z): (1/2) sum (-z/2)^k
GEOMETRIC_RECIP = [
    0.5, -0.25, 0.125, -0.0625, 0.03125, -0.015625, 0.0078125,
    -0.00390625, 0.001953125, -0.0009765625, 0.00048828125,
]

# frozen Mercator oracle for log(1 + z/2): sum (-1)^{k+1} (z/2)^k / k
MERCATOR_LOG = [0.5, -0.125, 1.0 / 24.0, -0.015625, 0.00625]


def test_reciprocal_matches_long_division():
    f = LS(0, [2.0, 1.0])
    g = la.reciprocal_on_circle(f, 0, 48)
    for k, want in enumerate(GEOMETRIC_RECIP):
        assert abs(g.coeff(k) - want) < 1e-14
    m = 256
    resid = np.max(np.abs(la.grid_eval(f, m) * la.grid_eval(g, m) - 1.0))
    assert resid < 1e-11


def test_reciprocal_band_too_narrow_raises():
    with pytest.raises(la.TruncationLoss):
        la.reciprocal_on_circle(LS(0, [2.0, 1.0]), 0, 10)


def test_reciprocal_zero_on_circle():
    with pytest.raises(la.ZeroOnCircle):
        la.reciprocal_on_circle(LS(0, [1.0, -1.0]), -20, 20)  # vanishes at z=1


def test_log_matches_mercator():
    f = LS(0, [1.0, 0.5])
    g = la.log_on_circle(f, 0, 60)
    assert abs(g.coeff(0)) < 1e-15
    for k, want in enumerate(MERCATOR_LOG, start=1):
        assert abs(g.coeff(k) - want) < 1e-14
    m = 256
    resid = np.max(np.abs(np.exp(la.grid_eval(g, m)) - la.grid_eval(f, m)))
    assert resid < 1e-11


def test_log_two_sided_band():
    # winding-zero perturbation of 1 with coefficients on both sides
    f = LS(-1, [0.2, 1.0, -0.15 + 0.1j])
    g = la.log_on_circle(f, -40, 40)
    m = 512
    resid = np.max(np.abs(np.exp(la.grid_eval(g, m)) - la.grid_eval(f, m)))
    assert resid < 1e-11


def test_log_winding_errors():
    with pytest.raises(la.WindingNonzero):
        la.log_on_circle(LS.monomial(1), -5, 5)
    with pytest.raises(la.ZeroOnCircle):
        la.log_on_circle(LS(0, [1.0, -1.0]), -5, 5)
    with pytest.raises(la.WindingUnresolved):
        la.log_on_circle(LS.monomial(5), -5, 5, grid_size=16)


def test_divide_inverts_multiply():
    rng = np.random.default_rng(21)
    f = random_series(rng, -3, 3, scale=0.1) + LS.one()
    h = random_series(rng, -2, 2, scale=0.1) + LS(0, [2.0])
    q = la.divide_on_circle(f * h, h, -30, 30)
    assert la.series_dist(q, f) < 1e-12


def test_taylor_reciprocal_geometric():
    f = LS(0, [1.0, -0.5])
    g = la.taylor_reciprocal_at_zero(f, 12)
    for k in range(13):
        assert abs(g.coeff(k) - 0.5**k) < 1e-14
    prod = (f * g).restrict(0, 12)
    assert la.series_dist(prod, LS.one()) < 1e-13


def test_taylor_reciprocal_singular_inputs():
    with pytest.raises(la.SingularAtZero):
        la.taylor_reciprocal_at_zero(LS(-1, [1.0, 1.0]), 5)
    with pytest.raises(la.SingularAtZero):
        la.taylor_reciprocal_at_zero(LS.monomial(1), 5)


def test_unwrap_winding_values():
    m = 128
    zs = la.unit_roots(m)
    assert la.circle_winding(zs) == 1
    assert la.circle_winding(np.ones(m) + 0.3 * zs) == 0
    assert la.circle_winding(zs**-2) == -2


# -- curve geometry ----------------------------------------------------
# The O(m^2) references below look at every pair of samples or edges.


def brute_sample_gap(v):
    m = len(v)
    sep = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    dist = np.abs(v[:, None] - v[None, :])
    return np.min(dist[np.minimum(sep, m - sep) >= 3])


def brute_segment_gap(v):
    m = len(v)
    i, j = np.triu_indices(m, 2)
    keep = j - i <= m - 2
    a, b = v[i[keep]], np.roll(v, -1)[i[keep]]
    c, d = v[j[keep]], np.roll(v, -1)[j[keep]]

    def orient(o, s, t):
        return np.imag(np.conj(s - o) * (t - o))

    def to_segment(p, s, t):
        f = np.clip(np.real((p - s) * np.conj(t - s)) / np.abs(t - s) ** 2, 0.0, 1.0)
        return np.abs(p - s - f * (t - s))

    crossing = (orient(a, b, c) * orient(a, b, d) < 0) & (orient(c, d, a) * orient(c, d, b) < 0)
    dist = np.min([to_segment(a, c, d), to_segment(b, c, d),
                   to_segment(c, a, b), to_segment(d, a, b)], axis=0)
    return np.min(np.where(crossing, 0.0, dist))


def seeded_curves(m):
    rng = np.random.default_rng(m)
    z = la.unit_roots(m)
    yield z + 0.3 * z**-2  # simple
    yield z + 0.7 * z**-2  # crosses itself three times
    yield 1.0 + z**-2 + 0.01 * z**3  # a perturbed double cover
    for _ in range(3):  # smooth curves with random bumps
        c = 0.1 * (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / np.arange(1, 10)
        yield z + LS(-4, c).evaluate(z)
    yield rng.standard_normal(m) + 1j * rng.standard_normal(m)  # a tangle


def test_near_pairs_holds_every_pair_within_the_radius():
    rng = np.random.default_rng(5)
    for m, radius in [(400, 0.05), (1500, 0.01), (300, 0.4), (40, 10.0)]:
        pts = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pts[::9] = pts[4]  # coinciding points
        pts[1::11] = pts[1::11].real  # a collinear run
        i, j = la.near_pairs(pts, radius)
        got = set(zip(i.tolist(), j.tolist()))
        assert len(got) == len(i) and np.all(i < j)
        bi, bj = np.nonzero(np.triu(np.abs(pts[:, None] - pts[None, :]) <= radius, 1))
        assert set(zip(bi.tolist(), bj.tolist())) <= got


@pytest.mark.parametrize("m", [256, 1024])
def test_curve_gaps_match_brute_force(m):
    gaps = []
    for v in seeded_curves(m):
        extent = la.curve_extent(v)
        diameter = np.abs(v[:, None] - v[None, :]).max()
        assert diameter <= extent <= np.sqrt(2) * diameter
        assert la.curve_gap_ratio(v) == brute_sample_gap(v) / extent
        gap = la.segment_gap(v)
        assert abs(gap - brute_segment_gap(v)) <= 1e-14 * extent
        gaps.append(gap)
    assert gaps[0] > 0 and gaps[1] == 0 and gaps[-1] == 0
    assert any(g > 0 for g in gaps[3:-1])


def test_unit_roots_are_read_only():
    roots = la.unit_roots(16)
    with pytest.raises(ValueError):
        roots[0] = 2.0
    assert roots[0] == 1.0


# -- stacked rows ------------------------------------------------------


def stack_of(*series):
    """The given series as one stack on their common band."""
    lo = min(f.lo for f in series)
    hi = max(f.hi for f in series)
    return LS(lo, np.array([f.window(lo, hi) for f in series]))


def row(stack, k):
    return LS(stack.lo, stack.c[k])


def near_one_rows(rng, count, width=3, scale=0.02):
    """Winding-zero, nonvanishing rows of very different sizes."""
    return [
        (random_series(rng, -width, width, scale) + LS.one()).scale(10.0 ** (k % 5 - 2))
        for k in range(count)
    ]


def test_stacked_rows_match_the_pointwise_kernel():
    rng = np.random.default_rng(41)
    fs = near_one_rows(rng, 7)
    gs = near_one_rows(rng, 7)
    F, G = stack_of(*fs), stack_of(*gs)
    m = 64
    vals = la.grid_eval(F, m)
    assert vals.shape == (7, m)
    back = la.grid_to_series(vals, -3, 3)
    phases, winding = la.unwrap_on_circle(vals)
    assert list(winding) == [0] * 7
    # a grid small enough that 1024 / 16 rows fit a block exercises the
    # block seams of the certified operations
    Q = la.divide_on_circle(F, G, -40, 40, grid_size=4096)
    Lg = la.log_on_circle(F, -40, 40, grid_size=4096)
    for k, (f, g) in enumerate(zip(fs, gs)):
        v = la.grid_eval(f, m)
        assert np.max(np.abs(vals[k] - v)) <= 1e-14 * np.max(np.abs(v))
        assert la.series_dist(row(back, k), f) <= 1e-14 * f.max_abs()
        assert np.max(np.abs(phases[k] - la.unwrap_on_circle(vals[k])[0])) <= 1e-14
        q = la.divide_on_circle(f, g, -40, 40, grid_size=4096)
        assert la.series_dist(row(Q, k), q) <= 1e-14 * q.max_abs()
        lg = la.log_on_circle(f, -40, 40, grid_size=4096)
        assert la.series_dist(row(Lg, k), lg) <= 1e-14 * lg.max_abs()
    # a one-row numerator is shared by every row of the divisor
    R = la.divide_on_circle(LS.one(), G, -40, 40)
    for k, g in enumerate(gs):
        r = la.reciprocal_on_circle(g, -40, 40)
        assert la.series_dist(row(R, k), r) <= 1e-14 * r.max_abs()


def test_a_heavy_tail_row_is_refused_by_name():
    good = LS(0, [1.0, -0.1])
    heavy = LS(0, [1.0, -1.0 / 1.02])  # 1/heavy decays like 1.02**-n
    rows = [good] * 10
    rows[7] = heavy
    # 4 rows per block at m = 4096: row 7 sits in the second block
    with pytest.raises(la.TruncationLoss, match=r"\(row 7\)"):
        la.divide_on_circle(LS.one(), stack_of(*rows), 0, 48, grid_size=4096)


def test_each_row_is_held_to_its_own_maximum():
    # row 0 is tiny: its dropped tail, 0.75**49 ~ 7e-7 of its own size,
    # sits far below 1e-12 of the large neighbour's maximum
    num = stack_of(LS(0, [1e-8]), LS(0, [1.0]))
    den = stack_of(LS(0, [1.0, -0.75]), LS(0, [1.0, -0.1]))
    with pytest.raises(la.TruncationLoss, match=r"\(row 0\)"):
        la.divide_on_circle(num, den, 0, 48)
    with pytest.raises(la.TruncationLoss):
        la.divide_on_circle(row(num, 0), row(den, 0), 0, 48)
    q = la.divide_on_circle(row(num, 1), row(den, 1), 0, 48)
    assert q.max_abs() == 1.0


def test_a_vanishing_or_winding_row_is_refused_by_name():
    den = stack_of(LS(0, [1.0, -0.5]), LS(0, [1.0, -1.0]), LS(0, [2.0, 1.0]))
    with pytest.raises(la.ZeroOnCircle, match=r"\(row 1\)"):
        la.divide_on_circle(LS.one(), den, -20, 20)
    f = stack_of(LS(0, [2.0, 1.0]), LS(0, [2.0, 0.5]), LS(0, [0.5, 1.0]))
    with pytest.raises(la.WindingNonzero, match=r"\(row 2\)"):
        la.log_on_circle(f, -20, 20)
    # the pointwise refusals keep their messages
    with pytest.raises(la.ZeroOnCircle, match=r"vanishes on the unit circle$"):
        la.reciprocal_on_circle(row(den, 1), -20, 20)


def test_stacked_ring_operations_act_row_by_row():
    rng = np.random.default_rng(43)
    fs = [random_series(rng, -4, 2) for _ in range(3)]
    gs = [random_series(rng, -1, 5) for _ in range(3)]
    F, G = stack_of(*fs), stack_of(*gs)
    zs = np.exp(0.3j + np.linspace(0.0, 1.0, 5))
    for k, (f, g) in enumerate(zip(fs, gs)):
        assert la.series_dist(row(F * G, k), f * g) < 1e-13
        assert la.series_dist(row(F + G, k), f + g) == 0.0
        assert la.series_dist(row(F * gs[0], k), f * gs[0]) < 1e-13
        assert la.series_dist(row(F.derivative().project("geq", -2), k),
                              f.derivative().project("geq", -2)) == 0.0
        assert np.max(np.abs(F.evaluate(zs)[k] - f.evaluate(zs))) < 1e-13
        assert F.coeff(-1)[k] == f.coeff(-1)



# -- non-finite operands -------------------------------------------------
# Under numpy's default handling a NaN or inf only warns and the arithmetic
# goes on (np.errstate models that here), so the guards must refuse it.


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)], ids=["nan", "inf", "nan+1j"])
def test_circle_ops_refuse_non_finite_operands(bad):
    good = LS(-1, [0.2, 2.0, 0.3])
    poison = LS(-1, [0.2, 2.0, bad])
    stacked = stack_of(good, poison)
    refusals = [
        # a non-finite numerator reaches the tail check, a divisor the modulus check
        (la.TruncationLoss, lambda: la.divide_on_circle(poison, good, -20, 20)),
        (la.ZeroOnCircle, lambda: la.divide_on_circle(good, poison, -20, 20)),
        (la.ZeroOnCircle, lambda: la.reciprocal_on_circle(poison, -20, 20)),
        (la.ZeroOnCircle, lambda: la.log_on_circle(poison, -20, 20)),
    ]
    stacked_refusals = [
        (la.TruncationLoss, lambda: la.divide_on_circle(stacked, good, -20, 20)),
        (la.ZeroOnCircle, lambda: la.divide_on_circle(good, stacked, -20, 20)),
        (la.ZeroOnCircle, lambda: la.log_on_circle(stacked, -20, 20)),
    ]
    with np.errstate(all="ignore"):
        for exc, op in refusals:
            with pytest.raises(exc, match=r"^non-finite (coefficients|values) on "):
                op()
        for exc, op in stacked_refusals:
            with pytest.raises(exc, match=r"^non-finite .*\(row 1\)$"):
                op()
        # the phase unwrap on its own refuses a NaN (and an inf, see
        # test_unwrap_refuses_an_inf_sample)
        values = np.exp(2j * np.pi * np.arange(8) / 8) + 2.0
        values[3] = bad
        if np.isnan(bad):
            with pytest.raises(la.ZeroOnCircle, match=r"non-finite"):
                la.unwrap_on_circle(values)
    # finite operands still certify
    assert la.divide_on_circle(good, good, -20, 20).max_abs() == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.inf, complex(np.inf, -np.inf), complex(1.0, np.inf)],
                         ids=["inf", "inf-infj", "1+infj"])
def test_unwrap_refuses_an_inf_sample(bad):
    # numpy defines a phase for some infinite values; the unwrap must not
    # count a winding through them
    finite = np.exp(2j * np.pi * np.arange(8) / 8) + 2.0
    values = finite.copy()
    values[3] = bad
    with np.errstate(all="ignore"):
        with pytest.raises(la.ZeroOnCircle, match=r"non-finite"):
            la.unwrap_on_circle(values)
        with pytest.raises(la.ZeroOnCircle, match=r"non-finite.*\(row 1\)$"):
            la.unwrap_on_circle(np.stack([finite, values]))
        with pytest.raises(la.ZeroOnCircle, match=r"non-finite"):
            la.circle_winding(values)
    assert la.circle_winding(finite) == 0
