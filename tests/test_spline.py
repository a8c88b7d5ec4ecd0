import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RegularGridInterpolator
from scipy.linalg import solve_banded

from spinbound.spline import _interval, _tridiagonal_solve, bilinear, cubic_spline


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _kink_grid():
    """Log grid with edges clustered on a ring, as the mode table builds it."""
    side = np.geomspace(1e-6, 0.5, 24)
    ring = np.concatenate([1.0 - side, [1.0], 1.0 + side])
    return np.unique(np.concatenate([np.geomspace(1e-3, 1e3, 193), ring]))


def _assert_matches(ours, ref, t):
    assert _rel(ours(t), ref(t)) < 1e-14
    assert _rel(ours(t, 1), ref(t, 1)) < 1e-14


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_not_a_knot_matches_cubic_spline(complex_values):
    x = np.log(_kink_grid())
    m = np.arange(-40, 41)
    y = np.cos(np.outer(x, m) / 7.0) / (1.0 + x[:, None] ** 2)
    if complex_values:
        y = y * np.exp(0.3j * np.outer(x, m))
    rng = np.random.default_rng(0)
    t = np.concatenate([rng.uniform(x[0], x[-1], 2000), x, [x[0] - 0.5, x[-1] + 0.5]])
    _assert_matches(cubic_spline(x, y), CubicSpline(x, y, axis=0), t)


def test_natural_matches_cubic_spline():
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(0.0, 1.0, 30))
    y = rng.normal(size=(30, 2))
    t = np.concatenate([rng.uniform(-0.2, 1.2, 500), x])
    _assert_matches(cubic_spline(x, y, "natural"),
                    CubicSpline(x, y, axis=0, bc_type="natural"), t)


@pytest.mark.parametrize("n", [4, 5, 33])
def test_periodic_matches_cubic_spline(n):
    x = np.linspace(0.0, 1.0, n)
    y = np.column_stack([np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x),
                         np.sin(2 * np.pi * x)])
    y[-1] = y[0]
    # t outside [0, 1] wraps by the period
    t = np.concatenate([np.linspace(-2.5, 3.5, 601), x])
    _assert_matches(cubic_spline(x, y, "periodic"),
                    CubicSpline(x, y, axis=0, bc_type="periodic"), t)


SIZES = [2, 3, 4, 5, 300, 4096]


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_tridiagonal_solve_matches_solve_banded(n, complex_values):
    # the spline's rows: off-diagonals dx_i and dx_i-1 on 2 (dx_i-1 + dx_i),
    # but for a first row as weak as a condensed not-a-knot row (1 - 1e-3)
    rng = np.random.default_rng(n)
    dx = rng.uniform(0.01, 1.0, n + 1)
    lower, upper = dx[1:].copy(), dx[:-1].copy()
    diag = 2.0 * (dx[:-1] + dx[1:])
    upper[0] = 0.999 * diag[0]
    rhs = rng.standard_normal((n, 3))
    if complex_values:
        rhs = rhs + 1j * rng.standard_normal((n, 3))
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = upper[:-1], diag, lower[1:]
    want = solve_banded((1, 1), ab, rhs)
    got = _tridiagonal_solve(lower, diag, upper, rhs)
    assert got.dtype == want.dtype
    assert _rel(got, want) < 2e-15


@pytest.mark.parametrize("bc", ["not-a-knot", "natural", "periodic"])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_spline_matches_cubic_spline_at_every_size(n, complex_values, bc):
    if bc == "periodic" and n < 4:
        pytest.skip("a periodic spline takes at least four knots")
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.standard_normal((n, 2, 3))
    if complex_values:
        y = y + 1j * rng.standard_normal((n, 2, 3))
    if bc == "periodic":
        y[-1] = y[0]
    t = rng.uniform(x[0] - 0.1, x[-1] + 0.1, 500)
    ref = CubicSpline(x, y, axis=0, bc_type=bc)
    ours = cubic_spline(x, y, bc)
    # the knot derivatives are the solve's output: 8e-16 at most here
    assert _rel(ours(x, 1), ref(x, 1)) < 2e-15
    for nu in (0, 1):
        got = ours(t, nu)
        assert got.shape == t.shape + (2, 3)
        assert _rel(got, ref(t, nu)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_few_knots_not_a_knot_is_the_interpolating_polynomial(n):
    x = np.array([0.0, 0.4, 1.0])[:n]
    y = 1.0 - 2.0 * x + (3.0 * x * x if n == 3 else 0.0)
    t = np.linspace(-0.5, 1.5, 41)
    _assert_matches(cubic_spline(x, y), CubicSpline(x, y), t)


def test_joined_pieces_keep_the_kink_out():
    # |x - 1| has a kink at 1; each side is fitted apart and joined there
    x = np.linspace(0.0, 2.0, 21)
    y = np.abs(x - 1.0)
    spline = cubic_spline(x[:11], y[:11]).then(cubic_spline(x[10:], y[10:]))
    t = np.linspace(0.0, 2.0, 97)
    assert np.max(np.abs(spline(t) - np.abs(t - 1.0))) < 1e-14
    # a point on the join takes the inner (left) piece
    assert spline(1.0, 1) == pytest.approx(-1.0, abs=1e-12)
    assert spline(np.nextafter(1.0, 2.0), 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("knots", [
    np.linspace(-2.0, 1.0, 7),
    np.linspace(0.0, 1.0, 2),
    np.log(np.geomspace(1.4e-7, 1e110, 4096)),
    np.log(_kink_grid()),
], ids=["uniform", "one-interval", "log-uniform", "ring-merged"])
def test_interval_is_searchsorted(knots):
    rng = np.random.default_rng(3)
    lo, hi = knots[0], knots[-1]
    pad = 0.1 * (hi - lo)
    keys = np.concatenate([
        rng.uniform(lo - pad, hi + pad, 5000),
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        0.5 * (knots[1:] + knots[:-1]),
        [np.inf, -np.inf, np.nan, lo - 1e300, hi + 1e300, -1.7e308, 1.7e308]])
    rng.shuffle(keys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _interval(knots, keys)
        grid = _interval(knots, keys[:4000].reshape(40, 100))
        one = _interval(knots, np.nan)
    assert np.array_equal(got, np.searchsorted(knots[1:-1], keys))
    assert np.array_equal(grid, np.searchsorted(knots[1:-1], keys[:4000].reshape(40, 100)))
    assert one.shape == () and one == np.searchsorted(knots[1:-1], np.nan)


def test_bilinear_matches_regular_grid_interpolator():
    rng = np.random.default_rng(2)
    xs = np.linspace(-2.0, 1.0, 7)
    ys = np.linspace(0.5, 3.0, 5)
    values = rng.normal(size=(7, 5))
    ref = RegularGridInterpolator((xs, ys), values, bounds_error=False, fill_value=0.0)

    def check(x, y):
        got = bilinear(xs, ys, values, x, y)
        want = ref(np.column_stack([x, y]))
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(values))
        return got

    check(rng.uniform(-2.0, 1.0, 500), rng.uniform(0.5, 3.0, 500))
    # the box's edges and corners belong to it; knots give the sampled values
    edge = np.linspace(-2.0, 1.0, 13)
    check(np.concatenate([edge, edge, np.full(9, -2.0), np.full(9, 1.0)]),
          np.concatenate([np.full(13, 0.5), np.full(13, 3.0),
                          np.linspace(0.5, 3.0, 9), np.linspace(0.5, 3.0, 9)]))
    corners = check(np.array([-2.0, -2.0, 1.0, 1.0]), np.array([0.5, 3.0, 0.5, 3.0]))
    assert np.array_equal(corners, values[[0, 0, -1, -1], [0, -1, 0, -1]])
    outside = check(np.array([-2.5, 1.5, 0.0, 0.0, np.nextafter(1.0, 2.0)]),
                    np.array([1.0, 1.0, 0.4, 3.1, 1.0]))
    assert np.all(outside == 0.0)
