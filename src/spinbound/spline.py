"""Cubic spline interpolation and a bilinear grid lookup, in numpy.

The cubic spline follows scipy's ``CubicSpline``: the first derivatives s_i
at the knots solve a tridiagonal system closed by the not-a-knot, natural
or periodic end condition, and each interval [x_i, x_i+1] holds the
Hermite cubic through (y_i, s_i) and (y_i+1, s_i+1).  Values may be real
or complex and carry trailing axes; the interpolation runs along axis 0.

The system is solved by cyclic reduction (``_tridiagonal_solve``), a few
numpy passes over halving row sets.  Its interior rows are diagonally
dominant with off-diagonal sum half the diagonal; the not-a-knot end rows
are not, and are condensed into their neighbours first, and the periodic
system is condensed to a tridiagonal one with a second right-hand side.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 16384   # interpolated values per evaluation block
_REDUCED = 2.0 ** -60   # off-diagonal share of a row at which reduction stops


def _interval(knots, t):
    """Index i of the interval x_i < t <= x_i+1, clipped to the end intervals.

    This is np.searchsorted(knots[1:-1], t), the count of interior knots
    below t.  Each index is first guessed from the mean knot spacing, which
    is exact on a uniform grid but for rounding; only the keys outside
    their guessed interval are searched for.  Those include every key on
    or outside the end knots and every NaN.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    last = len(knots) - 2
    # a key near the float range may overflow to inf, which the clip
    # handles; fmax and fmin send NaN to 0, so the cast to int stays quiet
    with np.errstate(over="ignore"):
        guess = flat - knots[0]
        guess *= (last + 1) / (knots[-1] - knots[0])
    np.fmax(guess, 0.0, out=guess)
    np.fmin(guess, last, out=guess)
    i = guess.astype(np.intp)
    miss = ~((knots[i] < flat) & (flat <= knots[1:][i]))
    if miss.any():
        i[miss] = np.searchsorted(knots[1:-1], flat[miss])
    return i.reshape(t.shape)


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


def _tridiagonal_solve(lower, diag, upper, rhs):
    """x with lower_i x_i-1 + diag_i x_i + upper_i x_i+1 = rhs_i for each row i.

    The rows must be diagonally dominant; lower[0] and upper[-1] are not
    read, and rhs is (rows, columns).  Cyclic reduction: each level folds
    the odd rows into the even ones, and the even rows' off-diagonals shrink
    about quadratically, to 1/7, 1e-2, 5e-5 and 1e-9 of the diagonal from
    the spline's 1/2.  Once every row's share is below _REDUCED, x = rhs /
    diag on the rows left, and the odd rows are filled back in level by
    level.
    """
    a = np.concatenate([[0.0], lower[1:]])
    c = np.concatenate([upper[:-1], [0.0]])
    b, d = diag, rhs
    levels = []
    while np.max((np.abs(a) + np.abs(c)) / np.abs(b)) > _REDUCED:
        odd = (a[1::2], b[1::2], c[1::2], d[1::2])
        levels.append(odd)
        ao, bo, co, do = odd
        ne, no = (len(b) + 1) // 2, len(b) // 2
        # row 2j less alpha_j times row 2j - 1 and gamma_j times row 2j + 1
        alpha = np.zeros(ne)
        alpha[1:] = -a[2::2] / bo[:ne - 1]
        gamma = np.zeros(ne)
        gamma[:no] = -c[0::2][:no] / bo
        b = b[0::2].copy()
        b[1:] += alpha[1:] * co[:ne - 1]
        b[:no] += gamma[:no] * ao
        d = d[0::2].copy()
        d[1:] += alpha[1:, None] * do[:ne - 1]
        d[:no] += gamma[:no, None] * do
        a = np.zeros(ne)
        a[1:] = alpha[1:] * ao[:ne - 1]
        c = np.zeros(ne)
        c[:no] = gamma[:no] * co
    x = d / b[:, None]
    for ao, bo, co, do in reversed(levels):
        ne, no = len(x), len(bo)
        xo = do - ao[:, None] * x[:no]
        xo[:ne - 1] -= co[:ne - 1, None] * x[1:]
        full = np.empty((ne + no,) + x.shape[1:], dtype=x.dtype)
        full[0::2] = x
        full[1::2] = xo / bo[:, None]
        x = full
    return x


def _slopes(x, dx, dxr, y, slope, bc):
    """Knot derivatives under the not-a-knot or natural condition."""
    n = len(x)
    lower, upper = np.zeros(n), np.zeros(n)
    diag = np.empty(n)
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    lower[1:-1] = dx[1:]
    upper[1:-1] = dx[:-1]
    b = np.empty(y.shape, dtype=slope.dtype)
    b[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if bc == "not-a-knot":
        # the end rows dx_1 s_0 + (x_2 - x_0) s_1 = b_0 and its mirror are
        # taken from their neighbours, which leaves rows 1 .. n-2 dominant
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        b[0] = ((dxr[0] + 2.0 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2.0 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        diag[1] -= d0
        diag[-2] -= d1
        b[1] -= b[0]
        b[-2] -= b[-1]
        s = np.empty(b.shape, dtype=b.dtype)
        s[1:-1] = _tridiagonal_solve(lower[1:-1], diag[1:-1], upper[1:-1],
                                     b[1:-1].reshape(n - 2, -1)).reshape(b[1:-1].shape)
        s[0] = (b[0] - d0 * s[1]) / dx[1]
        s[-1] = (b[-1] - d1 * s[-2]) / dx[-2]
        return s
    if bc != "natural":
        raise ValueError("unknown spline end condition %r" % (bc,))
    diag[0], upper[0] = 2.0 * dx[0], dx[0]
    b[0] = 3.0 * (y[1] - y[0])
    diag[-1], lower[-1] = 2.0 * dx[-1], dx[-1]
    b[-1] = 3.0 * (y[-1] - y[-2])
    return _tridiagonal_solve(lower, diag, upper, b.reshape(n, -1)).reshape(b.shape)


def _periodic_slopes(dx, dxr, slope):
    """Knot derivatives of the periodic spline (s_-1 = s_0).

    The cyclic (n-1)-system is condensed to n-2 unknowns: one tridiagonal
    solve with two right-hand sides, then the last unknown from the removed
    row.
    """
    n = len(dx) + 1
    diag = np.empty(n - 2)
    diag[0] = 2.0 * (dx[-1] + dx[0])
    diag[1:] = 2.0 * (dx[:-2] + dx[1:-1])
    upper = np.zeros(n - 2)
    upper[0] = dx[-1]
    upper[1:-1] = dx[:-3]
    lower = np.zeros(n - 2)
    lower[1:] = dx[1:-1]
    b = np.empty((n - 1,) + slope.shape[1:], dtype=slope.dtype)
    b[1:] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = 3.0 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
    rhs = np.zeros((n - 2, 2) + slope.shape[1:], dtype=slope.dtype)
    rhs[:, 0] = b[:-1]
    rhs[0, 1] = -dx[0]
    rhs[-1, 1] = -dx[-3]
    sol = _tridiagonal_solve(lower, diag, upper, rhs.reshape(n - 2, -1)).reshape(rhs.shape)
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
