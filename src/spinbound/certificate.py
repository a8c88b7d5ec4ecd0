"""Variational certificates for eigenvalues below the band threshold.

Trial spinors are momentum-space bumps f_a concentrated at points of the
minimum set, paired with the lower-band eigenvector.  The certificate is the
negative definiteness of the Rayleigh matrix Q = T + W built from them: each
certified point contributes one eigenvalue below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fht, next_fast_len

from .errors import (CapacityError, ConfigError, NumericalInputError,
                     ResolutionError)
from .hankel import FhatProfile, fhat_profile
from .measure import fourier_matrix
from .model import (CouplingSpec, PointCloud, ThresholdData, lower_band,
                    lower_band_vectors)
from .quadrature import log_rule, merge_edges, panel_rule, uniform_rule
from .spline import cubic_spline

TOL_DEF = 1e-8
MIN_POINT_SEP = 1e-6

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# trial basis


@dataclass(frozen=True)
class TrialBasis:
    points: np.ndarray          # (N, 2) momenta on the minimum set
    a: float                    # bump exponent in (0, 2]
    profile: FhatProfile        # radial transform of exp(-|x|^a/2)


def trial_basis(model: CouplingSpec, thr: ThresholdData, points, a) -> TrialBasis:
    """Validated TrialBasis; points must sit on the minimum set of the band."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
        raise ConfigError("trial points must form an (N, 2) array, N >= 1")
    a = float(a)
    if not (0.0 < a <= 2.0):
        raise ConfigError("bump exponent a must lie in (0, 2]")
    for j in range(len(pts)):
        for k in range(j + 1, len(pts)):
            if np.hypot(*(pts[j] - pts[k])) <= MIN_POINT_SEP:
                raise ConfigError(
                    "trial points %d and %d closer than %g" % (j, k, MIN_POINT_SEP))
    gap = lower_band(model, pts[:, 0], pts[:, 1]) - thr.kappa
    worst = float(np.max(gap))
    if worst > thr.minset_tolerance:
        raise ConfigError(
            "trial point off the minimum set: lambda_- - kappa = %.3e" % worst)
    return TrialBasis(points=pts, a=a, profile=fhat_profile(a))


# ---------------------------------------------------------------------------
# closed forms


def grad_norm_sq(a):
    """Dirichlet integral of the bump exp(-|x|^a/2) over the plane: pi a / 2."""
    a = float(a)
    if not (0.0 < a <= 2.0):
        raise ConfigError("bump exponent a must lie in (0, 2]")
    return 0.5 * np.pi * a


def grad_norm_sq_quadrature(a):
    """Independent radial quadrature of |grad f_a|^2; cross-checks grad_norm_sq."""
    a = float(a)
    if not (0.0 < a <= 2.0):
        raise ConfigError("bump exponent a must lie in (0, 2]")
    # upper cut where r^a - 2 ln r stays above the working budget
    u_up = 60.0
    for _ in range(40):
        u_up = 60.0 + 2.0 * np.log(u_up)
    r_hi = u_up ** (1.0 / a)
    r_lo = max(10.0 ** (-14.0 / (2.0 * a)), 1e-280)  # omitted head < 1e-14
    r, w = log_rule(r_lo, r_hi, 8, 8)
    grad_sq = 0.25 * a * a * r ** (2.0 * a - 2.0) * np.exp(-r ** a)
    return float(2.0 * np.pi * np.sum(w * r * grad_sq))


def _bump_sq(a, r):
    """|f_a(x)|^2 = exp(-r^a) at radius r."""
    return np.exp(-np.asarray(r, dtype=float) ** a)


# ---------------------------------------------------------------------------
# point selection on the minimum set


def select_points(minset, N, strategy="equispaced"):
    N = int(N)
    if N < 1:
        raise ConfigError("point count N must be >= 1")
    if strategy not in ("equispaced", "farthest_point"):
        raise ConfigError("unknown point strategy %r" % (strategy,))
    if isinstance(minset, PointCloud):
        distinct = np.unique(np.round(np.asarray(minset.points, float), 9), axis=0)
        if N > len(distinct):
            raise CapacityError(
                "requested %d points but the minimum set has only %d" % (N, len(distinct)))
        if strategy == "equispaced":
            return minset.sample(N)
        return _farthest_point(distinct, N)
    if strategy == "equispaced":
        return minset.sample(N)
    return _farthest_point(minset.sample(512), N)


def _farthest_point(candidates, N):
    cand = np.asarray(candidates, dtype=float)
    centroid = cand.mean(axis=0)
    chosen = [int(np.argmax(np.hypot(*(cand - centroid).T)))]
    dist = np.hypot(*(cand - cand[chosen[0]]).T)
    while len(chosen) < N:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.hypot(*(cand - cand[nxt]).T))
    return cand[chosen]


# ---------------------------------------------------------------------------
# definiteness


@dataclass(frozen=True)
class DefinitenessReport:
    lambda_max: float
    negative_definite: bool


def definiteness(matrix, tol_rel=TOL_DEF) -> DefinitenessReport:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalInputError("definiteness expects a square matrix")
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > 1e-8:
        raise NumericalInputError(
            "matrix is not Hermitian (max asymmetry %.3e)" % asym)
    h = 0.5 * (m + m.conj().T)
    lam = float(np.linalg.eigvalsh(h)[-1]) if m.size else 0.0
    frob = float(np.linalg.norm(h)) if m.size else 0.0
    return DefinitenessReport(lambda_max=lam,
                              negative_definite=bool(lam < -tol_rel * max(1.0, frob)))


# ---------------------------------------------------------------------------
# rotation symmetry of the band
#
# For the Rashba and Dresselhaus couplings lambda_- is radial and a rotation
# R_phi only turns the phase of the band vector: u_-(R_phi q)_1 = chi u_-(q)_1.
# The certificate uses that where a sample about p_0 shows it: this checks
# numbers, not the coupling's name, and a point that fails keeps its own work.

# angles of the sample rays about p_0, measured from the direction of p_0;
# none points back through the origin, where u_- has no direction
_GATE_ANGLES = np.array([0.0, 0.7, 1.9, 4.4, 5.6])
_GATE_TOL = 16.0 * np.finfo(float).eps


def _gate_sample(p0, prof):
    """Momenta q = p_0 + rho e^{i psi} on the profile's rho range, five rays."""
    rho = np.geomspace(prof.rho_lo, prof.rho_hi, 256)[:, None]
    psi = np.arctan2(p0[1], p0[0]) + _GATE_ANGLES
    return ((p0[0] + rho * np.cos(psi)).ravel(), (p0[1] + rho * np.sin(psi)).ravel())


def _band_scale(model, qx, qy):
    """Size of the terms of lambda_-(q) = |q|^2 - |A(q)|, for rounding bounds."""
    return qx * qx + qy * qy + np.abs(model.coupling(qx, qy))


def _radial_band(model, sample):
    """True when lambda_-(q) = lambda_-(|q|, 0) to rounding on the sample."""
    qx, qy = sample
    r = np.hypot(qx, qy)
    dev = np.abs(lower_band(model, qx, qy) - lower_band(model, r, np.zeros_like(r)))
    return bool(np.all(dev <= _GATE_TOL * _band_scale(model, qx, qy)))


def _rotation_orbit(model, pts, sample):
    """(rep, phi, chi): p_j's band correction is chi_j Delta_rep(R_{-phi_j} x).

    Point j joins p_0's orbit (rep_j = 0) when |p_j| = |p_0| and, with
    phi_j = arg p_j - arg p_0 and chi_j = u_-(p_j)_1 / u_-(p_0)_1, both
    u_-(R q)_1 = chi_j u_-(q)_1 and lambda_-(R q) = lambda_-(q) hold to
    rounding on the sample for R = R_{phi_j}.  Any other point is its own
    representative, with phi_j = 0 and chi_j = 1.
    """
    qx, qy = sample
    n = len(pts)
    u = lower_band_vectors(model, qx, qy)[..., 0]
    lam = lower_band(model, qx, qy)
    scale = _band_scale(model, qx, qy)
    u_pts = lower_band_vectors(model, pts[:, 0], pts[:, 1])[:, 0]
    radius = np.hypot(pts[:, 0], pts[:, 1])
    angle = np.arctan2(pts[:, 1], pts[:, 0])
    rep, phi, chi = np.arange(n), np.zeros(n), np.ones(n, dtype=complex)
    for j in range(1, n):
        if abs(radius[j] - radius[0]) > _GATE_TOL * radius[0]:
            continue
        turn = angle[j] - angle[0]
        factor = u_pts[j] / u_pts[0]
        c, s = np.cos(turn), np.sin(turn)
        rx, ry = c * qx - s * qy, s * qx + c * qy
        if (np.all(np.abs(lower_band_vectors(model, rx, ry)[..., 0] - factor * u)
                   <= _GATE_TOL)
                and np.all(np.abs(lower_band(model, rx, ry) - lam) <= _GATE_TOL * scale)):
            rep[j], phi[j], chi[j] = 0, turn, factor
    return rep, phi, chi


# ---------------------------------------------------------------------------
# kinetic matrix


def kinetic_matrix(model: CouplingSpec, thr: ThresholdData, basis: TrialBasis):
    """T_jk = integral of (lambda_-(p) - kappa) fhat(|p-p_j|) fhat(|p-p_k|) dp.

    Each entry is split along the perpendicular bisector of (p_j, p_k) and
    integrated in polar coordinates about the nearer bump center, so the
    near-singular concentration of fhat is always radially resolved.  When
    lambda_- is radial, the half-plane about c facing o depends only on
    |c|, |o| and |c - o| (any rotation or reflection carries it, and its
    rule, onto another with the same three), so one integral is computed
    per distinct triple: the two halves of a pair on one circle coincide.
    """
    pts = basis.points
    n = len(pts)
    centre = np.repeat(pts, n, axis=0)          # slot j * n + k: about p_j,
    other = np.tile(pts, (n, 1))                # facing p_k
    diagonal = np.eye(n, dtype=bool).ravel()
    if _radial_band(model, _gate_sample(pts[0], basis.profile)):
        key = np.round(np.column_stack([np.hypot(*centre.T), np.hypot(*other.T),
                                        np.hypot(*(other - centre).T)]), 12)
    else:
        key = np.arange(n * n)[:, None]
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    half = np.array([_kinetic_halfplane(model, thr.kappa, basis.profile, centre[s],
                                        None if diagonal[s] else other[s])
                     for s in first])
    H = half[inverse.ravel()].reshape(n, n)
    T = H + H.T
    np.fill_diagonal(T, np.diag(H))
    return T


def _kinetic_halfplane(model, kappa, prof, center, other):
    """Polar integral about `center`, restricted to its bisector half-plane."""
    if other is None:
        # the angular rule starts at arg(center), so it turns with the point
        d, axis = 0.0, float(np.arctan2(center[1], center[0]))
    else:
        d = float(np.hypot(*(other - center)))
        axis = float(np.arctan2(other[1] - center[1], other[0] - center[0]))
    t_ref, w_ref = uniform_rule(0.0, 1.0, 16, 8)
    # at a = 2 the table ends at rho = 37 with fhat 0 past it, so its end
    # counts as reaching the guard; for a < 2 it ends far beyond any guard
    rho_guard = min(10.0 * (1.0 + np.hypot(*center) + d), prof.rho_hi)
    k_lo = int(np.floor(np.log10(prof.rho_lo)))
    k_hi = int(np.ceil(np.log10(prof.rho_hi)))
    cum = 0.0
    converged = False
    for k in range(k_lo, k_hi):
        lo = max(10.0 ** k, prof.rho_lo)
        hi = min(10.0 ** (k + 1), prof.rho_hi)
        if hi <= lo:
            continue
        rho, w_rho = log_rule(lo, hi, 4, 8)
        if other is None:
            beta = np.zeros_like(rho)
        else:
            beta = np.where(rho > 0.5 * d,
                            np.arccos(np.clip(0.5 * d / rho, -1.0, 1.0)), 0.0)
        span = 2.0 * np.pi - 2.0 * beta
        theta = axis + beta[:, None] + span[:, None] * t_ref[None, :]
        w_ang = span[:, None] * w_ref[None, :]
        px = center[0] + rho[:, None] * np.cos(theta)
        py = center[1] + rho[:, None] * np.sin(theta)
        gap = np.maximum(lower_band(model, px, py) - kappa, 0.0)
        # near the band minimum the subtraction cancels to rounding noise;
        # a spurious positive residue there gets multiplied by the enormous
        # fhat peak, so clamp values below the noise floor to exact zero
        noise = 64.0 * np.finfo(float).eps * (px * px + py * py + abs(kappa) + 1.0)
        gap[gap < noise] = 0.0
        f_c = prof(rho)[:, None]
        if other is None:
            f_o = f_c
        else:
            f_o = prof(np.hypot(px - other[0], py - other[1]))
        # group so extremes cancel before they overflow: gap grows like
        # rho^2 while fhat decays like rho^-(2+a)
        dec = float(np.sum((w_rho[:, None] * w_ang * rho[:, None])
                           * ((gap * f_c) * f_o)))
        cum += dec
        if hi >= rho_guard and cum != 0.0 and abs(dec) < 1e-6 * abs(cum):
            converged = True
            break
    if not converged:
        raise ResolutionError(
            "kinetic quadrature annuli did not fall below 1e-6 relative "
            "within the tabulated radial range")
    return cum


# ---------------------------------------------------------------------------
# potential matrices


def _pair_scale(pts):
    n = len(pts)
    mx = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            mx = max(mx, float(np.hypot(*(pts[j] - pts[k]))))
    return mx


def potential_matrix_dropped(nu, basis: TrialBasis):
    """W_jk with the band phase dropped: int e^{-i<p_j-p_k,x>} |f_a|^2 nu(dx)."""
    pts = basis.points
    x, y, w = nu.quad_nodes(_pair_scale(pts) + 1.0)
    density = w * _bump_sq(basis.a, np.hypot(x, y))
    phases = np.exp(-1j * (pts[:, 0][:, None] * x[None, :]
                           + pts[:, 1][:, None] * y[None, :]))
    return (phases * density) @ phases.conj().T


def potential_matrix_exact(model: CouplingSpec, nu, basis: TrialBasis):
    """W_jk = nu(Psi_j, Psi_k) with the full lower-band spinor structure.

    Psi_j(x) = e^{i<p_j,x>} (u_-(p_j) f_a(|x|) + Delta_j(x) e_1): the second
    spinor component of u_- is constant by the phase convention, so the band
    correction Delta_j lives in the first component only.  Its radial modes
    are computed once per rotation orbit (see ``_rotation_orbit``):
    Delta_j(r, theta) = chi_j sum_m i^m e^{im(theta - phi_j)} R_m(r), with
    R_m those of the orbit's representative.
    """
    pts = basis.points
    max_p = _pair_scale(pts) + float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) + 4.0
    x, y, w = nu.quad_nodes(max_p)
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    f = np.exp(-0.5 * r ** basis.a)
    n = len(pts)
    rep, phi, chi = _rotation_orbit(model, pts, _gate_sample(pts[0], basis.profile))
    m_arr = np.arange(-_M_MAX, _M_MAX + 1)
    psi1 = np.empty((n, len(x)), dtype=complex)
    psi2 = np.empty((n, len(x)), dtype=complex)
    for i in np.unique(rep):
        # named: numpy multiplies into a large temporary in place, operands
        # swapped, which rounds complex products differently
        per_node = _node_modes(model, pts[i], basis.profile, r, m_arr)   # (T, M)
        for j in np.flatnonzero(rep == i):
            pj = pts[j]
            vj = complex(lower_band_vectors(model, pj[0], pj[1])[0])
            harmonics = np.exp(1j * np.outer(theta - phi[j], m_arr)) * (1j) ** m_arr
            delta = chi[j] * np.sum(harmonics * per_node, axis=1)
            phase = np.exp(1j * (pj[0] * x + pj[1] * y))
            psi1[j] = phase * (vj * f + delta)
            psi2[j] = phase * (f / _SQRT2)
    return (psi1.conj() * w) @ psi1.T + (psi2.conj() * w) @ psi2.T


# band-correction machinery: Delta_j(x) = sum_m i^m e^{im theta} R_m(r) with
# R_m(r) = int c_m(rho) fhat(rho) J_m(rho r) rho d rho, where c_m are the
# angular Fourier coefficients of u_-(p_j + q) - u_-(p_j) about p_j.

_N_ANGLES = 256
_M_MAX = 40
_LN_STEP = 1.0 / 200.0    # ln rho spacing of the FFTLog samples, at most
_TURN_STEP = 1.0 / 16.0   # radians R_m may turn per step in ln r
_MAX_SAMPLES = 2 ** 19    # FFTLog samples per expansion center


def _kink_ring(rj, lo, hi):
    """Edges clustered on the ring rho = rj, kept strictly inside (lo, hi)."""
    side = np.geomspace(1e-6, 0.5, 24)
    ring = rj * np.concatenate([1.0 - side, [1.0], 1.0 + side])
    return ring[(ring > lo) & (ring < hi)]


class _ModeTable:
    """Spline of the angular coefficients c_m(rho) for one expansion center.

    c_m is smooth in log rho on either side of the ring rho = |p_j| where
    the band vector direction passes through the origin; the two sides are
    fitted apart and joined at the ring, so the kink is never interpolated
    across (a point on the ring takes the inner side).  ``lo`` and ``hi``
    are the table's edges and ``rj`` the kink radius (None when off the
    table).  The table ends one decade (32 points) past ``reach``, the
    largest rho read, so the spline's end condition stays clear of it.
    """

    def __init__(self, model, pj, prof, m_arr, reach):
        rj = float(np.hypot(*pj))
        lo = max(prof.rho_lo, 1e-12 * (1.0 + rj))
        grid = np.geomspace(lo, prof.rho_hi, int(32 * np.log10(prof.rho_hi / lo)) + 2)
        grid = grid[:np.searchsorted(grid, reach) + 33]
        hi = grid[-1]
        self.rj = rj if lo < rj < hi else None
        if self.rj is not None:
            grid = merge_edges(grid, _kink_ring(rj, lo, hi))
        cm = _angular_modes(model, pj, grid, m_arr)
        self.lo, self.hi = grid[0], grid[-1]
        log_grid = np.log(grid)
        if self.rj is None:
            self._spline = cubic_spline(log_grid, cm)
        else:
            k = int(np.searchsorted(grid, rj))
            self._spline = cubic_spline(log_grid[:k + 1], cm[:k + 1]).then(
                cubic_spline(log_grid[k:], cm[k:]))

    def __call__(self, rho, cols=slice(None)):
        log_rho = np.log(np.clip(np.asarray(rho, dtype=float), self.lo, self.hi))
        return self._spline.columns(cols)(log_rho)


def _node_modes(model, pj, prof, r_nodes, m_arr):
    """R_m(r) of the expansion center pj at every node radius, shape (T, M)."""
    radii, where = np.unique(np.round(r_nodes, 12), return_inverse=True)
    pos = radii[radii > 0.0]
    # every positive radius takes the FFTLog rule, whose samples reach
    # 1e4 / r past the least one; r = 0 reads c_0 up to the profile's end
    rho_hi = max(1.0e5, 1.0e4 / pos[0]) if len(pos) else 0.0
    modes = _ModeTable(model, pj, prof, m_arr,
                       prof.rho_hi if radii[0] == 0.0 else rho_hi)
    R = np.zeros((len(radii), len(m_arr)), dtype=complex)
    if len(pos):
        # the kink of c_m on the ring rho = |p_j| makes R_m(r) turn by about
        # r |p_j| radians per unit of ln r, so the ln step shrinks with it
        step = min(_LN_STEP, _TURN_STEP / (pos[-1] * max(float(np.hypot(*pj)), 1.0)))
        R[radii > 0.0] = _hankel_fftlog(modes, prof, pos, m_arr, rho_hi, step)
    if radii[0] == 0.0:
        R[0] = _origin_mode(modes, prof, m_arr)
    return R[where]


def _angular_modes(model, pj, rho, m_arr):
    """Fourier coefficients in the polar angle of u_-(p_j + q) - u_-(p_j)."""
    phi = (np.arange(_N_ANGLES) + 0.5) * (2.0 * np.pi / _N_ANGLES)
    v0 = complex(lower_band_vectors(model, pj[0], pj[1])[0])
    sel = np.empty((len(rho), len(m_arr)), dtype=complex)
    for start in range(0, len(rho), 2048):
        chunk = rho[start:start + 2048]
        qx = pj[0] + chunk[:, None] * np.cos(phi)[None, :]
        qy = pj[1] + chunk[:, None] * np.sin(phi)[None, :]
        u = lower_band_vectors(model, qx, qy)[..., 0] - v0
        coeff = np.fft.fft(u, axis=1) / _N_ANGLES
        sel[start:start + 2048] = coeff[:, m_arr % _N_ANGLES]
    # quadrature phase offset of the half-shifted angle grid
    return sel * np.exp(-1j * m_arr[None, :] * (np.pi / _N_ANGLES))


def _hankel_fftlog(modes, prof, radii, m_arr, rho_hi, step):
    """R_m at the sorted positive radii, by one FFTLog transform per order |m|.

    g_m = c_m fhat rho is sampled at ln rho spacing at most ``step``, from
    1e-6 / r_max to rho_hi >= 1e4 / r_min, and transformed by
    ``scipy.fft.fht`` (Talman 1978; Hamilton 2000), whose output grid is
    k = 1 / rho reversed, at least four decades wider than the radii on
    each side, and holds k R_m(k), with J_-m = (-1)^m J_m.  Below the grid
    rho r < 1e-6, where c_0 = O(rho^2) and c_m J_m(rho r) = O(rho^2 r) for
    m != 0; fhat rho d rho has unit mass, so each integral loses O(1e-12)
    there.  The lowest decade of samples, where rho r < 1e-5, is tapered
    to zero, so the transform's periodic wrap in ln rho meets no jump.
    Six-point Lagrange interpolation in ln k carries R_m from the output
    rows around each radius to it, so only those rows are kept.
    """
    rho_lo = 1.0e-6 / radii[-1]
    n = next_fast_len(int(np.ceil(np.log(rho_hi / rho_lo) / step)) + 1, real=True)
    if n > _MAX_SAMPLES:
        raise ResolutionError("band-correction FFTLog grid needs %d samples, above its "
                              "budget of %d" % (n, _MAX_SAMPLES), attempted_nodes=n)
    rho = np.geomspace(rho_lo, rho_hi, n)
    t = np.minimum(np.log(rho / rho_lo) / np.log(10.0), 1.0)
    weight = (t - np.sin(2.0 * np.pi * t) / (2.0 * np.pi)) * prof(rho) * rho
    dln = np.log(rho_hi / rho_lo) / (n - 1)
    # output row i sits at ln k = i dln - ln rho_hi; each radius reads the
    # rows base .. base + 5 around it, at offset u in [2, 3) from base
    at = (np.log(radii) + np.log(rho_hi)) / dln
    base = np.floor(at).astype(int) - 2
    rows, where = np.unique(base[:, None] + np.arange(6), return_inverse=True)
    k = 1.0 / rho[::-1][rows]
    orders = np.abs(m_arr)
    unique = np.unique(orders)
    R = np.empty((len(m_arr), len(rows)), dtype=complex)
    # the +-m columns of as many orders as keep the sample table within
    # 2 _MAX_SAMPLES values; the README case takes them all at once
    per = max(1, _MAX_SAMPLES // n)
    for group in np.split(unique, np.arange(per, len(unique), per)):
        cols = np.flatnonzero(np.isin(orders, group))
        g = modes(rho, cols)
        g *= weight[:, None]
        for order in group:
            pick = orders[cols] == order
            own = cols[pick]
            out = fht(np.hstack([g[:, pick].real, g[:, pick].imag]).T, dln, mu=order)[:, rows] / k
            sign = (-1.0) ** np.minimum(m_arr[own], 0)
            R[own] = sign[:, None] * (out[:len(own)] + 1j * out[len(own):])
    u = at - base
    out = np.zeros((len(radii), len(m_arr)), dtype=complex)
    for s in range(6):
        lagrange = np.prod([(u - q) / (s - q) for q in range(6) if q != s], axis=0)
        out += lagrange[:, None] * R[:, where.reshape(-1, 6)[:, s]].T
    return out


def _origin_mode(modes, prof, m_arr):
    """R_m(0) = delta_m0 int c_0 fhat rho d rho, since J_m(0) = delta_m0.

    Log panels run to the table's end, with edges clustered on the kink
    ring; past it g = c_0 fhat rho ~ rho^-(1+a) leaves the tail g(P) P / a.
    """
    lo, hi = modes.lo, modes.hi
    edge_sets = [np.geomspace(lo, hi, 4 * int(np.ceil(np.log10(hi / lo))) + 1)]
    if modes.rj is not None:
        edge_sets.append(_kink_ring(modes.rj, lo, hi))
    rho, w = panel_rule(merge_edges(*edge_sets), 6)
    zero = m_arr == 0
    g = modes(rho)[:, zero][:, 0] * (prof(rho) * rho)
    tail = modes(hi)[zero][0] * prof(hi) * hi * hi / prof.a
    return np.where(zero, np.sum(w * g) + tail, 0.0)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class ScheduleStep:
    a: float
    lambda_max_Q: float
    negative_definite: bool
    kinetic_diagonal: tuple


@dataclass(frozen=True)
class CertificateResult:
    N: int
    a_star: float | None
    lambda_max_Q: float
    prechecked_fourier_matrix: DefinitenessReport
    certified: bool
    certified_count: int
    points: np.ndarray
    potential_form: str
    diagnostics: tuple


def certify(model: CouplingSpec, thr: ThresholdData, nu, N, a_schedule,
            point_strategy="equispaced", potential_form="exact",
            points=None) -> CertificateResult:
    schedule = [float(a) for a in a_schedule]
    problems = []
    if not schedule:
        problems.append("a_schedule must not be empty")
    if any(not (0.0 < a <= 2.0) for a in schedule):
        problems.append("a_schedule values must lie in (0, 2]")
    if any(schedule[i + 1] >= schedule[i] for i in range(len(schedule) - 1)):
        problems.append("a_schedule must be strictly decreasing")
    if potential_form not in ("exact", "dropped"):
        problems.append("potential_form must be 'exact' or 'dropped'")
    if points is not None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(pts) != N:
            problems.append("points must hold N = %d points, got %d" % (N, len(pts)))
    if problems:
        raise ConfigError(problems)
    if points is None:
        pts = select_points(thr.minset, N, point_strategy)
    precheck = definiteness(fourier_matrix(nu, pts), TOL_DEF)

    steps = []
    best_q, best_lam = None, np.inf
    a_star, certified = None, False
    for a in schedule:
        basis = trial_basis(model, thr, pts, a)
        T = kinetic_matrix(model, thr, basis)
        if potential_form == "exact":
            W = potential_matrix_exact(model, nu, basis)
        else:
            W = potential_matrix_dropped(nu, basis)
        Q = T + W
        rep = definiteness(Q, TOL_DEF)
        steps.append(ScheduleStep(a=a, lambda_max_Q=rep.lambda_max,
                                  negative_definite=rep.negative_definite,
                                  kinetic_diagonal=tuple(np.diag(T))))
        if rep.lambda_max < best_lam:
            best_lam, best_q = rep.lambda_max, Q
        if rep.negative_definite:
            a_star, certified = a, True
            break

    if certified:
        count = len(pts)
    else:
        count = 0
        for nsub in range(len(pts), 0, -1):
            if definiteness(best_q[:nsub, :nsub], TOL_DEF).negative_definite:
                count = nsub
                break
    return CertificateResult(
        N=len(pts), a_star=a_star, lambda_max_Q=float(best_lam),
        prechecked_fourier_matrix=precheck, certified=certified,
        certified_count=count, points=pts, potential_form=potential_form,
        diagnostics=tuple(steps))
