"""Cubic spline interpolation and a bilinear grid lookup, in numpy.

The cubic spline follows scipy's ``CubicSpline``: the first derivatives s_i
at the knots solve a tridiagonal system (``scipy.linalg.solve_banded``)
closed by the not-a-knot, natural or periodic end condition, and each
interval [x_i, x_i+1] holds the Hermite cubic through (y_i, s_i) and
(y_i+1, s_i+1).  Values may be real or complex and carry trailing axes;
the interpolation runs along axis 0.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

_BLOCK = 16384   # interpolated values per evaluation block


def _interval(knots, t):
    """Index i of the interval x_i < t <= x_i+1, clipped to the end intervals.

    Counting only the interior knots below t gives that index directly.
    """
    return np.searchsorted(knots[1:-1], t)


class PiecewiseCubic:
    """c0 d^3 + c1 d^2 + c2 d + c3 with d = t - x_i on each interval.

    Points outside [x_0, x_-1] extend the end cubics, unless ``period`` is
    set, in which case t is first reduced to x_0 + (t - x_0) mod period.  A
    point on an interior knot takes the interval to its left.
    """

    def __init__(self, x, coeffs, period=None):
        self.x = np.asarray(x, dtype=float)
        self.c0, self.c1, self.c2, self.c3 = (np.ascontiguousarray(c) for c in coeffs)
        self.period = period

    def then(self, other):
        """This cubic up to its last knot, ``other`` (which starts there) after."""
        return PiecewiseCubic(
            np.concatenate([self.x, other.x[1:]]),
            [np.concatenate([a, b]) for a, b in zip(
                (self.c0, self.c1, self.c2, self.c3),
                (other.c0, other.c1, other.c2, other.c3))])

    def columns(self, cols):
        """The same cubic for the entries ``cols`` of the first trailing axis."""
        return PiecewiseCubic(self.x, [c[:, cols] for c in (self.c0, self.c1, self.c2, self.c3)],
                              period=self.period)

    def __call__(self, t, nu=0):
        """Value (nu = 0) or first derivative (nu = 1) at t, shape t.shape + trailing."""
        if nu not in (0, 1):
            raise ValueError("only the value and the first derivative are supported")
        t = np.asarray(t, dtype=float)
        if self.period is not None:
            t = self.x[0] + (t - self.x[0]) % self.period
        flat = t.ravel()
        i = _interval(self.x, flat)
        trailing = self.c0.shape[1:]
        d = (flat - self.x[i]).reshape((-1,) + (1,) * len(trailing))
        # blocks of about _BLOCK values keep Horner's temporaries in cache
        rows = max(1, _BLOCK // self.c0[0].size)
        if len(flat) <= rows:
            out = self._horner(i, d, nu)
        else:
            out = np.empty(flat.shape + trailing, dtype=self.c0.dtype)
            for s in range(0, len(flat), rows):
                out[s:s + rows] = self._horner(i[s:s + rows], d[s:s + rows], nu)
        return out.reshape(t.shape + trailing)

    def _horner(self, i, d, nu):
        if nu == 0:
            r = self.c0[i] * d
            r += self.c1[i]
            r *= d
            r += self.c2[i]
            r *= d
            r += self.c3[i]
        else:
            r = (3.0 * self.c0[i]) * d
            r += 2.0 * self.c1[i]
            r *= d
            r += self.c2[i]
        return r


def cubic_spline(x, y, bc="not-a-knot"):
    """Cubic spline through (x_i, y_i) along axis 0 of y, as a PiecewiseCubic.

    ``bc`` is "not-a-knot" (a line or a parabola for two or three knots),
    "natural" (zero second derivative at both ends) or "periodic" (at least
    four knots, y[-1] equal to y[0], period x[-1] - x[0]).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if not np.iscomplexobj(y):
        y = y.astype(float)
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if bc == "not-a-knot" and n < 4:
        # the interpolating line or parabola: s = slope at each interval's
        # midpoint, shifted by the constant second derivative 2 c
        c = (slope[1] - slope[0]) / (x[2] - x[0]) if n == 3 else 0.0 * slope[0]
        s = np.concatenate([slope - c * dxr, slope[-1:] + c * dxr[-1:]])
    elif bc == "periodic":
        s = _periodic_slopes(dx, dxr, slope)
    else:
        s = _slopes(x, dx, dxr, y, slope, bc)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dxr
    return PiecewiseCubic(x, (t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]),
                          period=x[-1] - x[0] if bc == "periodic" else None)


def _slopes(x, dx, dxr, y, slope, bc):
    """Knot derivatives under the not-a-knot or natural condition."""
    n = len(x)
    ab = np.zeros((3, n))           # banded rows: upper, diagonal, lower
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[2, :-2] = dx[1:]
    b = np.empty(y.shape, dtype=slope.dtype)
    b[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if bc == "not-a-knot":
        d = x[2] - x[0]
        ab[1, 0], ab[0, 1] = dx[1], d
        b[0] = ((dxr[0] + 2.0 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        ab[1, -1], ab[2, -2] = dx[-2], d
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2.0 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    elif bc == "natural":
        ab[1, 0], ab[0, 1] = 2.0 * dx[0], dx[0]
        b[0] = 3.0 * (y[1] - y[0])
        ab[1, -1], ab[2, -2] = 2.0 * dx[-1], dx[-1]
        b[-1] = 3.0 * (y[-1] - y[-2])
    else:
        raise ValueError("unknown spline end condition %r" % (bc,))
    return solve_banded((1, 1), ab, b.reshape(n, -1), overwrite_ab=True,
                        overwrite_b=True, check_finite=False).reshape(b.shape)


def _periodic_slopes(dx, dxr, slope):
    """Knot derivatives of the periodic spline (s_-1 = s_0).

    The cyclic (n-1)-system is condensed to n-2 unknowns: one banded solve
    with two right-hand sides, then the last unknown from the removed row.
    """
    n = len(dx) + 1
    ab = np.zeros((3, n - 2))
    ab[1, 0] = 2.0 * (dx[-1] + dx[0])
    ab[1, 1:] = 2.0 * (dx[:-2] + dx[1:-1])
    ab[0, 1] = dx[-1]
    ab[0, 2:] = dx[:-3]
    ab[2, :-1] = dx[1:-1]
    b = np.empty((n - 1,) + slope.shape[1:], dtype=slope.dtype)
    b[1:] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = 3.0 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
    rhs = np.zeros((n - 2, 2) + slope.shape[1:], dtype=slope.dtype)
    rhs[:, 0] = b[:-1]
    rhs[0, 1] = -dx[0]
    rhs[-1, 1] = -dx[-3]
    sol = solve_banded((1, 1), ab, rhs.reshape(n - 2, -1), overwrite_ab=True,
                       overwrite_b=True, check_finite=False).reshape(rhs.shape)
    s1, s2 = sol[:, 0], sol[:, 1]
    s_last = ((b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
              / (2.0 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    return np.concatenate([s1 + s_last * s2, s_last[None], s1[:1] + s_last * s2[:1]])


def bilinear(xs, ys, values, x, y):
    """Bilinear interpolation of values[i, j] at (xs[i], ys[j]) on a regular grid.

    Points on the box [xs[0], xs[-1]] x [ys[0], ys[-1]] or its edges are
    interpolated; points outside it give 0.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    i, j = _interval(xs, x), _interval(ys, y)
    u = (x - xs[i]) / (xs[i + 1] - xs[i])
    v = (y - ys[j]) / (ys[j + 1] - ys[j])
    out = (values[i, j] * (1.0 - u) * (1.0 - v) + values[i, j + 1] * (1.0 - u) * v
           + values[i + 1, j] * u * (1.0 - v) + values[i + 1, j + 1] * u * v)
    inside = (x >= xs[0]) & (x <= xs[-1]) & (y >= ys[0]) & (y <= ys[-1])
    return np.where(inside, out, 0.0)
