"""Finite signed Radon measures nu = h*m and their Fourier transforms.

Convention (fixed package-wide): nuhat(p) = (1/2pi) * integral of
exp(-i<p,x>) nu(dx), so that the total mass equals 2*pi*nuhat(0).
Oscillatory integrals use composite Gauss-Legendre with the panel count
scaled to the number of phase oscillations across the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DegenerateInputError, NumericalInputError,
                     QuadratureFailureError, ResolutionError)
from .quadrature import uniform_rule
from .spline import cubic_spline

TWO_PI = 2.0 * np.pi
NODE_CAP = 2_000_000


# ---------------------------------------------------------------------------
# curves


class Curve:
    """Regular parametrization gamma: [0,1] -> R^2 and its derivative."""

    def point(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def length(self):
        t, w = uniform_rule(0.0, 1.0, 64, 8)
        dx, dy = self.derivative(t)
        return float(np.sum(w * np.hypot(dx, dy)))


@dataclass
class ClosedFormCircle(Curve):
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def point(self, t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        return (self.center[0] + self.radius * np.cos(ang),
                self.center[1] + self.radius * np.sin(ang))

    def derivative(self, t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        k = TWO_PI * self.radius
        return (-k * np.sin(ang), k * np.cos(ang))

    def length(self):
        return TWO_PI * self.radius


@dataclass
class Segment(Curve):
    start: tuple[float, float]
    end: tuple[float, float]

    def __post_init__(self):
        if np.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1]) == 0.0:
            raise DegenerateInputError("zero-length segment")

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return (self.start[0] + t * (self.end[0] - self.start[0]),
                self.start[1] + t * (self.end[1] - self.start[1]))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        return ((self.end[0] - self.start[0]) * one,
                (self.end[1] - self.start[1]) * one)

    def length(self):
        return float(np.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1]))


class SampledCurve(Curve):
    """Twice-differentiable cubic interpolation through node points."""

    def __init__(self, nodes, closed=False):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or len(nodes) < 4:
            raise DegenerateInputError("sampled curve needs at least 4 (x, y) nodes")
        self.nodes = nodes
        self.closed = bool(closed)
        if closed:
            # a last node that nearly repeats the first is the seam: the
            # periodic spline needs it equal to the first exactly
            keep = nodes[:-1] if np.allclose(nodes[0], nodes[-1]) else nodes
            nodes = np.vstack([keep, nodes[:1]])
        t = np.linspace(0.0, 1.0, len(nodes))
        self._spline = cubic_spline(t, nodes, "periodic" if closed else "natural")

    def point(self, t):
        xy = self._spline(t)
        return (xy[..., 0], xy[..., 1])

    def derivative(self, t):
        xy = self._spline(t, 1)
        return (xy[..., 0], xy[..., 1])


# ---------------------------------------------------------------------------
# measures


def _as_weight(weight):
    if callable(weight):
        return weight
    const = float(weight)
    return lambda x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, const)


@dataclass
class CurveDelta:
    """Weighted arclength measure h * delta_Gamma."""

    curve: Curve
    weight: Callable | float = 1.0
    nonpositive: bool = field(init=False, default=False)

    def __post_init__(self):
        self._h = _as_weight(self.weight)
        x, y = self.curve.point(np.linspace(0.0, 1.0, 512))
        self.nonpositive = bool(np.max(self._h(x, y)) <= 0.0)

    def quad_nodes(self, max_abs_p):
        """(x, y, weights) with weights carrying h and the arclength element."""
        panels = 4 * max(1, int(np.ceil(max_abs_p * self.curve.length() / TWO_PI)))
        if panels * 8 > NODE_CAP:
            raise ResolutionError("curve quadrature exceeds node cap",
                                  attempted_nodes=panels * 8)
        t, w = uniform_rule(0.0, 1.0, panels, 8)
        x, y = self.curve.point(t)
        dx, dy = self.curve.derivative(t)
        return x, y, w * np.hypot(dx, dy) * self._h(x, y)


@dataclass
class Density:
    """Absolutely continuous part nu(dx) = V(x) dx on an axis-aligned box."""

    V: Callable
    support_box: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)
    nonpositive: bool = field(init=False, default=False)

    def __post_init__(self):
        x0, x1, y0, y1 = self.support_box
        if not (x1 > x0 and y1 > y0):
            raise DegenerateInputError("support box must have positive area")
        gx = np.linspace(x0, x1, 64)
        gy = np.linspace(y0, y1, 64)
        vals = np.asarray(self.V(gx[:, None], gy[None, :]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureFailureError("density is non-finite on its support box")
        self.nonpositive = bool(np.max(vals) <= 0.0)

    def _tensor_rule(self, max_abs_p):
        """Axis nodes xs, ys and weights vw = V * (wx outer wy) on their grid.

        Two GL8 panels per oscillation wavelength along each axis.
        """
        x0, x1, y0, y1 = self.support_box
        px = 2 * max(8, int(np.ceil(max_abs_p * (x1 - x0) / TWO_PI)))
        py = 2 * max(8, int(np.ceil(max_abs_p * (y1 - y0) / TWO_PI)))
        if (px * 8) * (py * 8) > NODE_CAP:
            raise ResolutionError("density quadrature exceeds node cap",
                                  attempted_nodes=px * py * 64)
        xs, wx = uniform_rule(x0, x1, px, 8)
        ys, wy = uniform_rule(y0, y1, py, 8)
        vw = np.asarray(self.V(xs[:, None], ys[None, :]), dtype=float) * np.outer(wx, wy)
        return xs, ys, vw

    def quad_nodes(self, max_abs_p):
        xs, ys, vw = self._tensor_rule(max_abs_p)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return X.ravel(), Y.ravel(), vw.ravel()


@dataclass
class Sum:
    parts: list

    @property
    def nonpositive(self):
        return all(p.nonpositive for p in self.parts)

    def quad_nodes(self, max_abs_p):
        """The parts' (x, y, weights) nodes, concatenated."""
        parts = [p.quad_nodes(max_abs_p) for p in self.parts]
        return tuple(np.concatenate(axis) for axis in zip(*parts))


RadonMeasureSpec = CurveDelta | Density | Sum


# ---------------------------------------------------------------------------
# transforms


def total_mass(nu: RadonMeasureSpec):
    """integral of nu(dx); equals 2*pi*fourier(nu, 0)."""
    x, y, w = nu.quad_nodes(0.0)
    return float(np.sum(w))


def fourier(nu: RadonMeasureSpec, p):
    """nuhat(p) = (1/2pi) * integral exp(-i<p,x>) nu(dx)."""
    return complex(fourier_batch(nu, np.asarray(p, dtype=float).reshape(1, 2))[0])


def fourier_batch(nu: RadonMeasureSpec, points):
    """nuhat at an (n, 2) array of momenta, sharing one node set per measure."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(nu, Sum):
        out = np.zeros(len(points), dtype=complex)
        for part in nu.parts:
            out += fourier_batch(part, points)
        return out
    max_abs_p = float(np.max(np.hypot(points[:, 0], points[:, 1]))) if len(points) else 0.0
    if isinstance(nu, Density):
        xs, ys, vw = nu._tensor_rule(max_abs_p)
        ex = np.exp(-1j * np.outer(points[:, 0], xs))   # (n, nx)
        ey = np.exp(-1j * np.outer(points[:, 1], ys))   # (n, ny)
        return np.einsum("nx,xy,ny->n", ex, vw, ey, optimize=True) / TWO_PI
    x, y, w = nu.quad_nodes(max_abs_p)
    phase = np.exp(-1j * (points[:, 0:1] * x[None, :] + points[:, 1:2] * y[None, :]))
    return (phase @ w) / TWO_PI


def fourier_grid(nu: RadonMeasureSpec, px_values, py_values):
    """nuhat on the tensor grid px x py, returned shape (len(px), len(py)).

    Used by the plane-wave oracle, where the momenta of interest form a
    lattice of mode differences and the tensor structure makes the density
    transform two matrix products instead of a per-point sum.
    """
    px_values = np.asarray(px_values, dtype=float)
    py_values = np.asarray(py_values, dtype=float)
    if isinstance(nu, Sum):
        out = np.zeros((len(px_values), len(py_values)), dtype=complex)
        for part in nu.parts:
            out += fourier_grid(part, px_values, py_values)
        return out
    max_abs_p = float(np.hypot(np.max(np.abs(px_values), initial=0.0),
                               np.max(np.abs(py_values), initial=0.0)))
    if isinstance(nu, Density):
        xs, ys, vw = nu._tensor_rule(max_abs_p)
        ex = np.exp(-1j * np.outer(px_values, xs))
        ey = np.exp(-1j * np.outer(py_values, ys))
        return (ex @ vw @ ey.T) / TWO_PI
    x, y, w = nu.quad_nodes(max_abs_p)
    ex = np.exp(-1j * np.outer(px_values, x))           # (npx, nt)
    ey = np.exp(-1j * np.outer(py_values, y))           # (npy, nt)
    return np.einsum("it,jt,t->ij", ex, ey, w, optimize=True) / TWO_PI


def fourier_matrix(nu: RadonMeasureSpec, points):
    """Hermitian matrix nuhat(p_j - p_k) over pairwise distinct points."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    diffs = pts[:, None, :] - pts[None, :, :]
    vals = fourier_batch(nu, diffs.reshape(-1, 2)).reshape(n, n)
    asym = np.max(np.abs(vals - vals.conj().T))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if asym > 1e-10 * scale:
        raise NumericalInputError(
            "fourier matrix asymmetry %.3e exceeds tolerance (complex measure?)" % asym)
    return 0.5 * (vals + vals.conj().T)


# ---------------------------------------------------------------------------
# decay scans


@dataclass(frozen=True)
class DecayProfile:
    direction_angle: float
    radii: np.ndarray
    magnitudes: np.ndarray
    fitted_slope: float
    classification: str  # "decaying" | "non_decaying" | "inconclusive"


def decay_scan(nu: RadonMeasureSpec, alpha, r_max, samples=64):
    """|nuhat| along the ray of angle alpha, with a log-log tail slope fit."""
    if samples < 32:
        raise ValueError("need at least 32 samples (16 in the tail)")
    radii = np.linspace(r_max / samples, r_max, samples)
    pts = np.column_stack([radii * np.cos(alpha), radii * np.sin(alpha)])
    mags = np.abs(fourier_batch(nu, pts))

    tail = slice(samples // 2, None)
    tail_mags = mags[tail]
    # |nuhat| may oscillate through zeros along the ray; fit the slope on the
    # tail's upper envelope (max per log-spaced radius bin) so the dips do
    # not swamp the regression
    tail_r = radii[tail]
    edges = np.geomspace(tail_r[0] * (1 - 1e-12), tail_r[-1] * (1 + 1e-12), 9)
    idx = np.clip(np.searchsorted(edges, tail_r, side="right") - 1, 0, 7)
    env_r, env_m = [], []
    for b in range(8):
        sel = idx == b
        if np.any(sel):
            j = np.argmax(tail_mags[sel])
            env_r.append(tail_r[sel][j])
            env_m.append(tail_mags[sel][j])
    floor = 1e-16 * max(np.max(mags), 1e-300)
    slope = np.polyfit(np.log(env_r), np.log(np.maximum(env_m, floor)), 1)[0]

    level = float(np.mean(tail_mags))
    classification = "inconclusive"
    # a tail wholly at the rounding floor has decayed, though its fitted
    # slope is flat
    if np.all(tail_mags <= floor) or (slope <= -0.2 and mags[-1] < 0.5 * mags[0]):
        classification = "decaying"
    elif level > 1e-12 and np.max(np.abs(tail_mags - level)) < 0.1 * level:
        classification = "non_decaying"
    return DecayProfile(direction_angle=float(alpha), radii=radii, magnitudes=mags,
                        fitted_slope=float(slope), classification=classification)
