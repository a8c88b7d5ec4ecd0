"""Finite signed Radon measures nu = h*m and their Fourier transforms.

Convention (fixed package-wide): nuhat(p) = (1/2pi) * integral of
exp(-i<p,x>) nu(dx), so that the total mass equals 2*pi*nuhat(0).
Oscillatory integrals use composite Gauss-Legendre with the panel count
scaled to the number of phase oscillations across the support.

nu meets the plane waves through one rule per measure type,
``plane_waves``, with 2 pi nuhat(px_i, py_j) = sum_t rows[i, t] cols[j, t],
which ``fourier_grid`` and ``fourier_batch`` sum over ``parts`` (nested Sums
flattened).  ``fourier_matrix`` is ``fourier_batch`` at the differences
p_j - p_k; on the measure ``scaled`` by e^{-|x|^a} it gives the dropped
potential W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, QuadratureFailureError, ResolutionError
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


def segment_problems(start, end):
    """Every problem with a segment's endpoints; [] when none."""
    if start[0] == end[0] and start[1] == end[1]:
        return ["segment endpoints coincide"]
    return []


def sampled_curve_problems(nodes):
    """Every problem with a sampled curve's nodes; [] when none."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 2 or len(nodes) < 4:
        return ["sampled curve needs at least 4 (x, y) nodes"]
    return []


@dataclass
class Segment(Curve):
    start: tuple[float, float]
    end: tuple[float, float]

    def __post_init__(self):
        problems = segment_problems(self.start, self.end)
        if problems:
            raise ConfigError(problems)

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
        problems = sampled_curve_problems(nodes)
        if problems:
            raise ConfigError(problems)
        nodes = np.asarray(nodes, dtype=float)
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

    def __post_init__(self):
        self._h = _as_weight(self.weight)

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

    def plane_waves(self, px, py, max_abs_p):
        """(rows, cols): e^{-i px x} w and e^{-i py y} on the nodes."""
        x, y, w = self.quad_nodes(max_abs_p)
        return np.exp(-1j * np.outer(px, x)) * w, np.exp(-1j * np.outer(py, y))


def box_problems(box):
    """Every problem with a support box (xmin, xmax, ymin, ymax); [] when none."""
    x0, x1, y0, y1 = box
    if not (x1 > x0 and y1 > y0):
        return ["box must have positive extent on both axes"]
    return []


@dataclass
class Density:
    """Absolutely continuous part nu(dx) = V(x) dx on an axis-aligned box."""

    V: Callable
    support_box: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)

    def __post_init__(self):
        problems = box_problems(self.support_box)
        if problems:
            raise ConfigError(problems)
        x0, x1, y0, y1 = self.support_box
        gx = np.linspace(x0, x1, 64)
        gy = np.linspace(y0, y1, 64)
        vals = np.asarray(self.V(gx[:, None], gy[None, :]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureFailureError("density is non-finite on its support box")

    def _tensor_rule(self, max_px, max_py):
        """Axis rules (xs, wx), (ys, wy) and V on their grid, unweighted.

        Two GL8 panels per oscillation wavelength along each axis, at that
        axis's largest frequency (max_px along x, max_py along y), and at
        least 16 panels.  The node weights are V * (wx outer wy).
        """
        x0, x1, y0, y1 = self.support_box
        px = 2 * max(8, int(np.ceil(max_px * (x1 - x0) / TWO_PI)))
        py = 2 * max(8, int(np.ceil(max_py * (y1 - y0) / TWO_PI)))
        if (px * 8) * (py * 8) > NODE_CAP:
            raise ResolutionError("density quadrature exceeds node cap",
                                  attempted_nodes=px * py * 64)
        xs, wx = uniform_rule(x0, x1, px, 8)
        ys, wy = uniform_rule(y0, y1, py, 8)
        return (xs, wx), (ys, wy), np.asarray(self.V(xs[:, None], ys[None, :]), dtype=float)

    def quad_nodes(self, max_abs_p):
        """(x, y, weights) on the tensor grid; p may point anywhere, so |p| on both axes."""
        (xs, wx), (ys, wy), v = self._tensor_rule(max_abs_p, max_abs_p)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return X.ravel(), Y.ravel(), (v * np.outer(wx, wy)).ravel()

    def plane_waves(self, px, py, max_abs_p):
        """(rows, cols): (e^{-i px x} wx) V and e^{-i py y} wy on the axis rules.

        The phase px x + py y splits by axis, so the x rule resolves
        max|px| and the y rule max|py|; ``max_abs_p``, which a curve's rule
        needs, is not read.  The rows are the real product
        (cos, sin)(px x) wx times V, so V's grid, the largest array here,
        is dropped before any complex one.
        """
        (xs, wx), (ys, wy), v = self._tensor_rule(np.max(np.abs(px), initial=0.0),
                                                  np.max(np.abs(py), initial=0.0))
        phase = np.outer(px, xs)
        half = (np.concatenate([np.cos(phase), np.sin(phase)]) * wx) @ v
        del phase, v
        # exp(-i px x) = cos(px x) - i sin(px x)
        n = len(px)
        return half[:n] - 1j * half[n:], np.exp(-1j * np.outer(py, ys)) * wy


@dataclass
class Sum:
    parts: list

    def quad_nodes(self, max_abs_p):
        """The parts' (x, y, weights) nodes, concatenated."""
        nodes = [p.quad_nodes(max_abs_p) for p in parts(self)]
        return tuple(np.concatenate(axis) for axis in zip(*nodes))


RadonMeasureSpec = CurveDelta | Density | Sum


def parts(nu: RadonMeasureSpec):
    """The curve and density parts of nu, in order, with nested Sums flattened."""
    if isinstance(nu, Sum):
        return [leaf for part in nu.parts for leaf in parts(part)]
    return [nu]


def scaled(nu: RadonMeasureSpec, g):
    """The measure g nu, each part rebuilt by its own type with its weight times g(x, y)."""
    def times_g(weight):
        return lambda x, y: weight(x, y) * g(x, y)
    return Sum([CurveDelta(p.curve, times_g(p._h)) if isinstance(p, CurveDelta)
                else Density(times_g(p.V), p.support_box) for p in parts(nu)])


# ---------------------------------------------------------------------------
# transforms


def fourier_batch(nu: RadonMeasureSpec, points):
    """nuhat at an (n, 2) array of momenta, sharing one node set per part."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    max_abs_p = float(np.max(np.hypot(points[:, 0], points[:, 1]))) if len(points) else 0.0
    out = 0.0
    for part in parts(nu):
        rows, cols = part.plane_waves(points[:, 0], points[:, 1], max_abs_p)
        out = out + np.sum(rows * cols, axis=1)
    return out / TWO_PI


def fourier_grid(nu: RadonMeasureSpec, px_values, py_values):
    """nuhat on the tensor grid px x py, returned shape (len(px), len(py)).

    Used by the plane-wave oracle, where the momenta of interest form a
    lattice of mode differences: each part's transform is the one product
    of its ``plane_waves`` factors, rows @ cols^T.
    """
    px_values = np.asarray(px_values, dtype=float)
    py_values = np.asarray(py_values, dtype=float)
    max_abs_p = float(np.hypot(np.max(np.abs(px_values), initial=0.0),
                               np.max(np.abs(py_values), initial=0.0)))
    out = 0.0
    for part in parts(nu):
        rows, cols = part.plane_waves(px_values, py_values, max_abs_p)
        out = out + rows @ cols.T
    return out / TWO_PI


def pair_distances(pts):
    """|p_j - p_k| for every pair of rows of the (N, 2) array pts."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def fourier_matrix(nu: RadonMeasureSpec, points):
    """The matrix nuhat(p_j - p_k): ``fourier_batch`` at every difference."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    return fourier_batch(nu, (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)).reshape(n, n)


# ---------------------------------------------------------------------------
# decay scans


@dataclass(frozen=True)
class DecayProfile:
    direction_angle: float
    radii: np.ndarray
    magnitudes: np.ndarray
    fitted_slope: float
    classification: str  # "decaying" | "non_decaying" | "inconclusive"


def scan_problems(r_max, angles, samples):
    """Every problem with a decay scan's arguments, as messages; [] when none."""
    problems = []
    if not (np.isfinite(r_max) and r_max > 0.0):
        problems.append("r_max must be positive")
    count = len(angles) if np.ndim(angles) else angles
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        problems.append("angles must be a count >= 1 or a non-empty list")
    if not (isinstance(samples, (int, np.integer)) and samples >= 32):
        problems.append("samples must be an integer >= 32 (16 in the tail)")
    return problems


def decay_scans(nu: RadonMeasureSpec, r_max, angles=8, samples=64):
    """``decay_scan`` on each ray: a count of equispaced angles, or a list of them."""
    problems = scan_problems(r_max, angles, samples)
    if problems:
        raise ConfigError(problems)
    if not np.ndim(angles):
        angles = [2.0 * np.pi * k / angles for k in range(angles)]
    return [decay_scan(nu, float(a), r_max, samples) for a in angles]


def decay_scan(nu: RadonMeasureSpec, alpha, r_max, samples=64):
    """|nuhat| along the ray of angle alpha, with a log-log tail slope fit."""
    problems = scan_problems(r_max, [alpha], samples)
    if problems:
        raise ConfigError(problems)
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
