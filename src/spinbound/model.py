"""Unperturbed 2D spin-orbit Hamiltonians.

The free operator acts in momentum space as multiplication by the 2x2
Hermitian matrix with diagonal p^2 and off-diagonal coupling A(p).  Its two
dispersion branches are lambda_pm(p) = p^2 +- |A(p)|; the bottom of the
continuous spectrum is kappa = inf lambda_minus, attained on a compact
minimum set (a circle for the Rashba and Dresselhaus couplings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalInputError, SearchDomainError

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# coupling specification


@dataclass(frozen=True)
class CouplingSpec:
    """The off-diagonal coupling A(p) plus the reach of the band minimum.

    ``r_growth`` asserts that the lower band's minimum lies within
    2 r_growth of the origin, where the threshold search looks for it.
    """

    kind: str  # "rashba" | "dresselhaus" | "custom"
    alpha: float = 0.0
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    r_growth: float = 1.0

    @classmethod
    def rashba(cls, alpha):
        """A(p) = alpha * (p_y + i p_x)."""
        return cls(kind="rashba", alpha=float(alpha), r_growth=max(1.0, 2.0 * abs(alpha)))

    @classmethod
    def dresselhaus(cls, alpha):
        """A(p) = -alpha * (p_x + i p_y)."""
        return cls(kind="dresselhaus", alpha=float(alpha),
                   r_growth=max(1.0, 2.0 * abs(alpha)))

    @classmethod
    def custom(cls, evaluator, r_growth):
        """Arbitrary continuous coupling; evaluator maps (px, py) arrays to complex."""
        if r_growth <= 0.0:
            raise ConfigError("r_growth must be positive")
        return cls(kind="custom", evaluator=evaluator, r_growth=float(r_growth))

    def coupling(self, px, py):
        """A(p), vectorized over momentum component arrays."""
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        if self.kind == "rashba":
            return self.alpha * (py + 1j * px)
        if self.kind == "dresselhaus":
            return -self.alpha * (px + 1j * py)
        out = np.asarray(self.evaluator(px, py), dtype=complex)
        if not np.all(np.isfinite(out)):
            raise NumericalInputError("custom coupling evaluator returned non-finite values")
        return out


# ---------------------------------------------------------------------------
# lower band and its eigenvectors


def lower_band(model: CouplingSpec, px, py):
    """Vectorized lambda_minus over momentum component arrays."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    return px * px + py * py - np.abs(model.coupling(px, py))


def lower_band_vectors(model: CouplingSpec, px, py):
    """Vectorized lower-band eigenvectors; returns array shape (..., 2).

    Phase convention: the second component is 1/sqrt(2).  Where A(p) = 0
    the fixed fallback (-1, 1)/sqrt(2) is returned; any unit vector is an
    eigenvector there.
    """
    a = model.coupling(px, py)
    absa = np.abs(a)
    phase = np.where(absa > 0.0, a / np.where(absa > 0.0, absa, 1.0), 1.0 + 0.0j)
    out = np.empty(np.broadcast(np.asarray(px), np.asarray(py)).shape + (2,), dtype=complex)
    out[..., 0] = -phase / _SQRT2
    out[..., 1] = 1.0 / _SQRT2
    return out


# ---------------------------------------------------------------------------
# threshold data


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def sample(self, n):
        ang = 2.0 * np.pi * np.arange(n) / n
        return np.column_stack([self.center[0] + self.radius * np.cos(ang),
                                self.center[1] + self.radius * np.sin(ang)])


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (n, 2)
    tolerance: float

    def sample(self, n):
        pts = np.asarray(self.points, dtype=float)
        if n >= len(pts):
            return pts.copy()
        # n < len(pts), so the steps exceed 1 and the rounded indices are distinct
        idx = np.linspace(0, len(pts) - 1, n).round().astype(int)
        return pts[idx]


@dataclass(frozen=True)
class ThresholdData:
    kappa: float
    minset: Circle | PointCloud

    @property
    def minset_tolerance(self):
        if isinstance(self.minset, PointCloud):
            return self.minset.tolerance
        return 1e-10 * max(1.0, abs(self.kappa))


# polar search for the minimum of a custom coupling's lower band
_N_RADIAL = 1024
_NEWTON_STEPS = 20
_RADIAL_FACTOR = 2.0       # search disk radius = _RADIAL_FACTOR * r_growth
_MINSET_POINTS = 512
_MINSET_TOL_REL = 1e-8


def threshold(model: CouplingSpec) -> ThresholdData:
    """kappa = inf lambda_minus and a descriptor of its minimum set.

    Built-in couplings use the closed forms kappa = -alpha^2/4 with the circle
    2|p| = |alpha|.  Custom couplings are minimized on a polar grid, then
    refined by finite-difference Newton steps along each ray, all rays at
    once, a ray leaving the steps when its curvature is not positive or its
    step stalls; the minimum set is reported as a point cloud.
    """
    if model.kind in ("rashba", "dresselhaus"):
        alpha = abs(model.alpha)
        return ThresholdData(kappa=-alpha * alpha / 4.0,
                             minset=Circle(center=(0.0, 0.0), radius=alpha / 2.0))

    r_max = _RADIAL_FACTOR * model.r_growth
    angles = np.linspace(0.0, 2.0 * np.pi, _MINSET_POINTS, endpoint=False)
    radii = np.linspace(r_max / _N_RADIAL, r_max, _N_RADIAL)
    c, s = np.cos(angles), np.sin(angles)
    grid = lower_band(model, np.outer(c, radii), np.outer(s, radii))
    j = np.argmin(grid, axis=1)
    # candidate minima at the origin are allowed; at the outer rim they
    # indicate the search disk failed to bracket the infimum
    rim = np.flatnonzero(j == len(radii) - 1)
    if len(rim):
        raise SearchDomainError(
            "lower band still decreasing at the search radius %.3g "
            "(angle %.4f); enlarge r_growth" % (r_max, angles[rim[0]]))
    grid_v = grid[np.arange(len(angles)), j]

    def band(r, rays):
        return lower_band(model, r * c[rays], r * s[rays])

    best_r = radii[j]
    live = np.arange(len(angles))
    for _ in range(_NEWTON_STEPS):
        r = best_r[live]
        h = 1e-6 * np.maximum(np.abs(r), 1e-3)
        f0, fp, fm = band(r, live), band(r + h, live), band(r - h, live)
        g = (fp - fm) / (2.0 * h)
        hss = (fp - 2.0 * f0 + fm) / (h * h)
        ok = (hss > 0.0) & np.isfinite(hss)
        live, r = live[ok], r[ok]
        r_new = np.clip(r - g[ok] / hss[ok], 0.0, r_max)
        best_r[live] = r_new
        live = live[np.abs(r_new - r) >= 1e-15 * np.maximum(1.0, np.abs(r))]
        if not len(live):
            break
    best_v = band(best_r, slice(None))
    worse = best_v > grid_v
    best_r[worse], best_v[worse] = radii[j[worse]], grid_v[worse]

    kappa = float(np.min(best_v))
    tol = _MINSET_TOL_REL * max(1.0, abs(kappa))
    keep = best_v <= kappa + tol
    pts = np.column_stack([best_r[keep] * c[keep], best_r[keep] * s[keep]])
    return ThresholdData(kappa=kappa, minset=PointCloud(points=pts, tolerance=tol))
