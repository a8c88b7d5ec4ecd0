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

from .errors import NumericalInputError, SearchDomainError

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# coupling specification


@dataclass(frozen=True)
class CouplingSpec:
    """The off-diagonal coupling A(p) plus its asymptotic growth witnesses.

    ``a_growth < 1`` and ``r_growth`` assert |A(p)| <= a_growth * p^2 for
    |p| > r_growth, which keeps the lower band bounded from below.
    """

    kind: str  # "rashba" | "dresselhaus" | "custom"
    alpha: float = 0.0
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    a_growth: float = 0.5
    r_growth: float = 1.0

    @classmethod
    def rashba(cls, alpha):
        """A(p) = alpha * (p_y + i p_x)."""
        return cls(kind="rashba", alpha=float(alpha),
                   a_growth=0.5, r_growth=max(1.0, 2.0 * abs(alpha)))

    @classmethod
    def dresselhaus(cls, alpha):
        """A(p) = -alpha * (p_x + i p_y)."""
        return cls(kind="dresselhaus", alpha=float(alpha),
                   a_growth=0.5, r_growth=max(1.0, 2.0 * abs(alpha)))

    @classmethod
    def custom(cls, evaluator, a_growth, r_growth):
        """Arbitrary continuous coupling; evaluator maps (px, py) arrays to complex."""
        if not (0.0 < a_growth < 1.0):
            raise ValueError("a_growth must lie in (0, 1)")
        if r_growth <= 0.0:
            raise ValueError("r_growth must be positive")
        return cls(kind="custom", evaluator=evaluator,
                   a_growth=float(a_growth), r_growth=float(r_growth))

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
# pointwise symbol / bands / eigenbasis


@dataclass(frozen=True)
class SymbolMatrix:
    matrix: np.ndarray  # 2x2 complex
    p: tuple[float, float]


@dataclass(frozen=True)
class BandPair:
    lambda_plus: float
    lambda_minus: float


@dataclass(frozen=True)
class BandBasis:
    u_minus: np.ndarray  # lower-band unit eigenvector in C^2
    u_plus: np.ndarray


def symbol(model: CouplingSpec, p) -> SymbolMatrix:
    """Momentum-space symbol at p: [[p^2, A(p)], [conj A(p), p^2]]."""
    px, py = float(p[0]), float(p[1])
    a = complex(model.coupling(px, py))
    if not np.isfinite(a):
        raise NumericalInputError("coupling is non-finite at p=%r" % (p,))
    p2 = px * px + py * py
    m = np.array([[p2, a], [np.conj(a), p2]], dtype=complex)
    return SymbolMatrix(matrix=m, p=(px, py))


def bands(model: CouplingSpec, p) -> BandPair:
    """Dispersion branches (p^2 + |A|, p^2 - |A|) at a single momentum."""
    px, py = float(p[0]), float(p[1])
    absa = abs(complex(model.coupling(px, py)))
    p2 = px * px + py * py
    return BandPair(lambda_plus=p2 + absa, lambda_minus=p2 - absa)


def lower_band(model: CouplingSpec, px, py):
    """Vectorized lambda_minus over momentum component arrays."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    return px * px + py * py - np.abs(model.coupling(px, py))


def band_basis(model: CouplingSpec, p) -> BandBasis:
    """Orthonormal eigenbasis of the symbol.

    Phase convention: the second component of each eigenvector is 1/sqrt(2).
    At points with A(p) = 0 the fixed fallback (-1,1)/sqrt(2), (1,1)/sqrt(2)
    is returned; any unitary choice is valid there.
    """
    px, py = float(p[0]), float(p[1])
    a = complex(model.coupling(px, py))
    if a == 0.0:
        u_minus = np.array([-1.0, 1.0], dtype=complex) / _SQRT2
        u_plus = np.array([1.0, 1.0], dtype=complex) / _SQRT2
    else:
        phase = a / abs(a)
        u_minus = np.array([-phase, 1.0], dtype=complex) / _SQRT2
        u_plus = np.array([phase, 1.0], dtype=complex) / _SQRT2
    return BandBasis(u_minus=u_minus, u_plus=u_plus)


def lower_band_vectors(model: CouplingSpec, px, py):
    """Vectorized lower-band eigenvectors; returns array shape (..., 2)."""
    a = model.coupling(px, py)
    absa = np.abs(a)
    phase = np.where(absa > 0.0, a / np.where(absa > 0.0, absa, 1.0), -1.0 + 0.0j)
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
        idx = np.linspace(0, len(pts) - 1, n).round().astype(int)
        return pts[np.unique(idx)]


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


def _radial_newton(f, r0, r_lo, r_hi, steps):
    """Newton refinement of a 1D stationary point with finite differences."""
    r = r0
    for _ in range(steps):
        h = 1e-6 * max(abs(r), 1e-3)
        f0, fp, fm = f(r), f(r + h), f(r - h)
        g = (fp - fm) / (2.0 * h)
        hss = (fp - 2.0 * f0 + fm) / (h * h)
        if hss <= 0.0 or not np.isfinite(hss):
            break
        step = g / hss
        r_new = min(max(r - step, r_lo), r_hi)
        if abs(r_new - r) < 1e-15 * max(1.0, abs(r)):
            r = r_new
            break
        r = r_new
    return r


def quad_constant(model: CouplingSpec, thr: ThresholdData, p0,
                  n_angles=256, n_radial=512):
    """A global constant c with lambda_minus(p) - kappa <= c |p - p0|^2.

    Sampled maximum of the ratio over a disk of radius max(4|p0|, 4 r_growth),
    combined with the analytic bound (p^2 + |kappa|)/(|p| - |p0|)^2 evaluated
    on the disk boundary, which dominates the ratio outside the disk.
    """
    p0 = np.asarray(p0, dtype=float)
    r0 = float(np.hypot(p0[0], p0[1]))
    r_disk = max(4.0 * r0, 4.0 * model.r_growth)
    ang = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    rad = np.linspace(r_disk / n_radial, r_disk, n_radial)
    px = rad[None, :] * np.cos(ang)[:, None]
    py = rad[None, :] * np.sin(ang)[:, None]
    lam = lower_band(model, px, py) - thr.kappa
    d2 = (px - p0[0]) ** 2 + (py - p0[1]) ** 2
    mask = d2 > 1e-12
    grid_max = float(np.max(lam[mask] / d2[mask])) if np.any(mask) else 0.0
    # outside the disk: lambda_minus - kappa <= p^2 + |kappa| and the ratio
    # bound below is decreasing in |p|, so its boundary value covers the tail
    c_tail = (r_disk * r_disk + abs(thr.kappa)) / (r_disk - r0) ** 2
    return max(grid_max, c_tail)


def threshold(model: CouplingSpec) -> ThresholdData:
    """kappa = inf lambda_minus and a descriptor of its minimum set.

    Built-in couplings use the closed forms kappa = -alpha^2/4 with the circle
    2|p| = |alpha|.  Custom couplings are minimized on a polar grid with a
    radial Newton refinement per angle; the minimum set is reported as a
    point cloud.
    """
    if model.kind in ("rashba", "dresselhaus"):
        alpha = abs(model.alpha)
        return ThresholdData(kappa=-alpha * alpha / 4.0,
                             minset=Circle(center=(0.0, 0.0), radius=alpha / 2.0))

    r_max = _RADIAL_FACTOR * model.r_growth
    angles = np.linspace(0.0, 2.0 * np.pi, _MINSET_POINTS, endpoint=False)
    radii = np.linspace(r_max / _N_RADIAL, r_max, _N_RADIAL)

    best_r = np.empty_like(angles)
    best_v = np.empty_like(angles)
    for i, th in enumerate(angles):
        c, s = np.cos(th), np.sin(th)
        prof = lower_band(model, radii * c, radii * s)
        j = int(np.argmin(prof))
        # candidate minima at the origin are allowed; at the outer rim they
        # indicate the search disk failed to bracket the infimum
        if j == len(radii) - 1:
            raise SearchDomainError(
                "lower band still decreasing at the search radius %.3g "
                "(angle %.4f); enlarge r_growth" % (r_max, th))
        f = lambda r: float(lower_band(model, r * c, r * s))
        r_star = _radial_newton(f, radii[j], 0.0, r_max, _NEWTON_STEPS)
        v_star = f(r_star)
        if v_star > prof[j]:
            r_star, v_star = radii[j], float(prof[j])
        best_r[i], best_v[i] = r_star, v_star

    kappa = float(np.min(best_v))
    tol = _MINSET_TOL_REL * max(1.0, abs(kappa))
    keep = best_v <= kappa + tol
    pts = np.column_stack([best_r[keep] * np.cos(angles[keep]),
                           best_r[keep] * np.sin(angles[keep])])
    return ThresholdData(kappa=kappa, minset=PointCloud(points=pts, tolerance=tol))
