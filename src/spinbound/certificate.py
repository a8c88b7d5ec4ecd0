"""Variational certificates for eigenvalues below the band threshold.

Trial spinors are momentum-space bumps f_a concentrated at points of the
minimum set, paired with the lower-band eigenvector.  The certificate is the
inertia of the Rayleigh matrix Q = T + W built from them: by min-max and
Sylvester's law, each eigenvalue of Q below the margin contributes one
eigenvalue below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measure
from .errors import (CapacityError, ConfigError, NumericalInputError,
                     ResolutionError)
from .hankel import FhatProfile, fhat_profile
from .measure import fourier_matrix, pair_distances
from .model import (Circle, CouplingSpec, PointCloud, ThresholdData,
                    lower_band, lower_band_vectors)
from .quadrature import merge_edges, panel_rule, uniform_rule
from .spline import cubic_spline

TOL_DEF = 1e-8
MIN_POINT_SEP = 1e-6
DEFAULT_A_SCHEDULE = (0.4, 0.2, 0.1, 0.05, 0.025)

_SQRT2 = np.sqrt(2.0)
_LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# trial basis


@dataclass(frozen=True)
class TrialBasis:
    points: np.ndarray          # (N, 2) momenta on the minimum set
    a: float                    # bump exponent in (0, 2]
    profile: FhatProfile        # radial transform of exp(-|x|^a/2)
    ring: float | None = None   # r0 when rotation is a symmetry of the band (_ring_gate)


def trial_basis(model: CouplingSpec, thr: ThresholdData, points, a) -> TrialBasis:
    """Validated TrialBasis; points must sit on the minimum set of the band."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
        raise ConfigError("trial points must form an (N, 2) array, N >= 1")
    close = np.argwhere(np.triu(pair_distances(pts) <= MIN_POINT_SEP, 1))
    if len(close):
        raise ConfigError("trial points %d and %d closer than %g"
                          % (*close[0], MIN_POINT_SEP))
    gap = lower_band(model, pts[:, 0], pts[:, 1]) - thr.kappa
    worst = float(np.max(gap))
    if worst > thr.minset_tolerance:
        raise ConfigError(
            "trial point off the minimum set: lambda_- - kappa = %.3e" % worst)
    prof = fhat_profile(a)
    ms, ring = thr.minset, None
    if isinstance(ms, Circle) and tuple(ms.center) == (0.0, 0.0) and ms.radius > 0.0:
        # onto the ring itself, where the kinetic gap takes its centres, so
        # that T and W see the same points
        pts = pts * (ms.radius / np.hypot(pts[:, 0], pts[:, 1]))[:, None]
        ring = _ring_gate(model, thr.kappa, float(ms.radius), pts,
                          _gate_sample(pts[0], prof))
    return TrialBasis(points=pts, a=float(a), profile=prof, ring=ring)


# ---------------------------------------------------------------------------
# point selection on the minimum set


def _selection_problems(N):
    ok = isinstance(N, (int, np.integer)) and not isinstance(N, bool) and N >= 1
    return [] if ok else ["N must be an integer >= 1"]


def select_points(minset, N):
    """N equispaced points of the minimum set."""
    problems = _selection_problems(N)
    if problems:
        raise ConfigError(problems)
    if isinstance(minset, PointCloud):
        distinct = np.unique(np.round(np.asarray(minset.points, float), 9), axis=0)
        if N > len(distinct):
            raise CapacityError(
                "requested %d points but the minimum set has only %d" % (N, len(distinct)))
    return minset.sample(N)


# ---------------------------------------------------------------------------
# definiteness


@dataclass(frozen=True)
class DefinitenessReport:
    lambda_max: float
    negative_count: int         # eigenvalues below -TOL_DEF max(1, |h|_F)
    negative_definite: bool     # negative_count == n, and n >= 1


def definiteness(matrix) -> DefinitenessReport:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalInputError("definiteness expects a square matrix")
    # both bounds scale with the matrix, so a heavy measure is not refused
    asym = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if asym > TOL_DEF * max(1.0, float(np.linalg.norm(m))):
        raise NumericalInputError(
            "matrix is not Hermitian (max asymmetry %.3e)" % asym)
    h = 0.5 * (m + m.conj().T)
    lam = np.linalg.eigvalsh(h)
    count = int(np.count_nonzero(lam < -TOL_DEF * max(1.0, float(np.linalg.norm(h)))))
    return DefinitenessReport(lambda_max=float(lam[-1]) if len(lam) else 0.0,
                              negative_count=count, negative_definite=0 < count == len(m))


# ---------------------------------------------------------------------------
# rotation symmetry of the band
#
# For the Rashba and Dresselhaus couplings lambda_- - kappa = (|q| - r0)^2
# and a rotation R_phi only turns the phase of the band vector: u_-(R_phi
# q)_1 = chi u_-(q)_1.  ``trial_basis`` checks that once, on a sample about
# p_0: this checks numbers, not the coupling's name.  When it holds, T takes
# one integral per pair distance and W one band correction; when it does
# not, every pair and every point keeps its own work.

# angles of the sample rays about p_0, measured from the direction of p_0;
# none points back through the origin, where u_- has no direction
_GATE_ANGLES = np.array([0.0, 0.7, 1.9, 4.4, 5.6])
_GATE_TOL = 16.0 * np.finfo(float).eps


def _gate_sample(p0, prof):
    """Momenta q = p_0 + rho e^{i psi} on the profile's rho range, five rays."""
    rho = np.geomspace(prof.rho_lo, prof.rho_hi, 256)[:, None]
    psi = np.arctan2(p0[1], p0[0]) + _GATE_ANGLES
    return ((p0[0] + rho * np.cos(psi)).ravel(), (p0[1] + rho * np.sin(psi)).ravel())


def _turns(model, pts):
    """(phi, chi): phi_j = arg p_j - arg p_0, chi_j = u_-(p_j)_1 / u_-(p_0)_1."""
    angle = np.arctan2(pts[:, 1], pts[:, 0])
    u = lower_band_vectors(model, pts[:, 0], pts[:, 1])[:, 0]
    chi = u / u[0]
    chi[0] = 1.0    # u / u exactly; the division may round
    return angle - angle[0], chi


def _ring_gate(model, kappa, r0, pts, sample):
    """r0 when the sample shows rotation as a symmetry of the band, else None.

    Three things must hold to rounding on the sample q about p_0:
    lambda_-(q) - kappa = (|q| - r0)^2, and for the turn R_j of every point
    (phi_j, chi_j of ``_turns``) lambda_-(R_j q) = lambda_-(q) and
    u_-(R_j q)_1 = chi_j u_-(q)_1.  The turns are checked all at once.
    """
    qx, qy = sample
    lam = lower_band(model, qx, qy)
    # size of the terms of lambda_- = |q|^2 - |A(q)|, for the rounding bounds
    scale = qx * qx + qy * qy + np.abs(model.coupling(qx, qy))
    if np.any(np.abs(lam - kappa - (np.hypot(qx, qy) - r0) ** 2)
              > _GATE_TOL * (scale + abs(kappa))):
        return None
    phi, chi = _turns(model, pts)
    c, s = np.cos(phi[1:, None]), np.sin(phi[1:, None])
    rx, ry = c * qx - s * qy, s * qx + c * qy
    u = lower_band_vectors(model, qx, qy)[..., 0]
    if (np.all(np.abs(lower_band(model, rx, ry) - lam) <= _GATE_TOL * scale)
            and np.all(np.abs(lower_band_vectors(model, rx, ry)[..., 0] - chi[1:, None] * u)
                       <= _GATE_TOL)):
        return r0
    return None


# ---------------------------------------------------------------------------
# kinetic matrix


def kinetic_matrix(model: CouplingSpec, thr: ThresholdData, basis: TrialBasis):
    """T_jk = integral of (lambda_-(p) - kappa) fhat(|p-p_j|) fhat(|p-p_k|) dp.

    Each entry is split along the perpendicular bisector of (p_j, p_k) and
    integrated in polar coordinates about the nearer bump center, so the
    near-singular concentration of fhat is always radially resolved.  When
    the basis carries a ring of radius r0 (``basis.ring``, set by
    ``trial_basis`` where ``_ring_gate`` passes: both built-in couplings),
    the gap is taken in the bump's own coordinates, exactly (``_ring_gap``),
    and the deep and far rings take cheaper angular rules
    (``_kinetic_halfplane``).  Every point is on the ring, so the
    half-plane about c facing o depends only on d = |c - o| (a rotation or
    reflection carries it, and its rule, onto any other with the same d),
    and one integral is computed per rounded pair distance: the two halves
    of a pair coincide.  Without a ring, lambda_- - kappa is taken by
    subtraction, with 16 angular panels on every decade, for every ordered
    pair.  Each half-plane's radial end R and the closed-form tail past it
    (``_radial_end``) are fixed first; the radial nodes of the decades from
    the profile's edge rho = 1e-12 up to the largest R are then built once
    and shared by every half-plane.  A ring diagonal takes what lies below
    1e-12 from Parseval's |grad f_a|^2 = pi a / 2, so every a takes about
    20 decades; as a -> 0, T_jj / a -> (pi/2)(1 - 1/e) and
    T_jk / a -> (pi/2)(1 - 2/e).
    """
    pts = basis.points
    n = len(pts)
    centre = np.repeat(pts, n, axis=0)          # slot j * n + k: about p_j,
    other = np.tile(pts, (n, 1))                # facing p_k
    diagonal = np.eye(n, dtype=bool).ravel()
    if basis.ring is not None:
        key = np.round(np.hypot(*(other - centre).T), 12)
    else:
        key = np.arange(n * n)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    facing = [None if diagonal[s] else other[s] for s in first]
    ends = [_radial_end(basis.profile, thr.kappa, centre[s], o) for s, o in zip(first, facing)]
    decades = _decade_rules(basis.profile, max(end[0] for end in ends))
    half = np.array([_kinetic_halfplane(model, thr.kappa, basis.profile, centre[s], o,
                                        basis.ring, decades, end)
                     for s, o, end in zip(first, facing, ends)])
    H = half[inverse.ravel()].reshape(n, n)
    T = H + H.T
    np.fill_diagonal(T, np.diag(H))
    return T


# angular rules on [0, 1): the deep rings' 16-point periodic trapezoid, then
# 16 panels of 8 Gauss nodes up to the guard and 2 panels of 8 past it
_DEEP_RULE = (np.arange(16) / 16.0, np.full(16, 1.0 / 16.0))
_NEAR_RULE = uniform_rule(0.0, 1.0, 16, 8)
_FAR_RULE = uniform_rule(0.0, 1.0, 2, 8)
# deep rings: rho <= _DEEP min(r0, d / 2) (_DEEP r0 on the diagonal)
_DEEP = 1e-2
# the omitted part of a half-plane's tail is bounded by _TAIL_TOL pi a / 2,
# where pi a / 2 = |grad f_a|^2 bounds every T_jj
_TAIL_TOL = 1e-10


def _guard_radius(center, d):
    """10 (1 + |center| + d): past it the far rings' rule and the tail's bound hold."""
    return 10.0 * (1.0 + float(np.hypot(*center)) + d)


def _radial_end(prof, kappa, center, other):
    """(R, tail): where the half-plane about ``center`` stops summing decades, and the rest.

    With the gap rho^2, fhat = sum_n c_n rho^-(2 + n a) at both points and
    the full ring, the integral past R is the closed form
    2 pi sum_{m,n} c_m c_n R^-((m+n) a) / ((m+n) a), summed by powers s = m + n
    until every later one is below the rounding of the sum; an off-diagonal
    half-plane takes half of it.  The omitted terms are the next power and
    the corrections of relative size, for rho >= R,

    - (4 |c| + (|c|^2 + |kappa|) / R) / R to the gap: on a ring band
      (|p| - r0)^2 lies in [(rho - 2 r0)^2, rho^2], and any other band has
      0 <= lambda_- - kappa <= |p|^2 + |kappa|, so there the closed form
      bounds the tail from above;
    - 4 d / R to fhat at the other point, since rho <= |p - o| <= rho + d on
      the half-plane and fhat falls like rho^-(2 + a);
    - d / (2 R) to the half-plane's angular span pi + 2 arcsin(d / (2 rho)).

    R is the first decade edge 10^k at or past the guard radius
    10 (1 + |c| + d) at which their bound is below _TAIL_TOL pi a / 2.  On
    the schedule's exponents and the README circle that is 1e6 (a = 0.4)
    to 1e10 (a <= 0.05), about ten decades past 1.  The coefficients are
    the profile's own (``FhatProfile.coefficients``), which are also fhat
    past the table.  At a = 2 every c_n is 0 and R is the guard's decade
    edge; past the guard fhat^2 is below e^-100.
    """
    a = prof.a
    c = float(np.hypot(*center))
    d = 0.0 if other is None else float(np.hypot(*(other - center)))
    share = 1.0 if other is None else 0.5
    powers = np.convolve(prof.coefficients, prof.coefficients)  # sum_{m+n=s} c_m c_n
    s = np.arange(2, len(powers) + 2)
    tol = _TAIL_TOL * 0.5 * np.pi * a
    k = int(np.ceil(np.log10(_guard_radius(center, d))))
    while True:
        R = 10.0 ** k
        terms = (share * 2.0 * np.pi) * powers * R ** (-s * a) / (s * a)
        partial = np.cumsum(terms)
        # the largest of the powers past each one: a single power may be 0
        rest = np.maximum.accumulate(np.abs(terms[::-1]))[::-1]
        done = rest[1:] <= np.finfo(float).eps * np.abs(partial[:-1])
        i = int(np.argmax(done))
        rel = (4.0 * c + 5.0 * d) / R + (c * c + abs(kappa)) / (R * R)
        if done.any() and rest[i + 1] + rel * abs(partial[i]) <= tol:
            return R, float(partial[i])
        k += 1


def _decade_rules(prof, reach):
    """(lo, hi, start, rho, w): the radial rule of each decade from 1e-12 up to ``reach``.

    Every kinetic half-plane takes these radial nodes: 4 log panels of 8
    nodes per decade, from rho_lo = 1e-12 to the first decade whose hi is
    at or past ``reach``; past the table fhat is Bergstrom's series.
    Decade i spans [lo[i], hi[i]] and holds the nodes start[i]:start[i + 1],
    and the panels come from one ``panel_rule`` call.
    """
    k = range(int(np.floor(np.log10(prof.rho_lo))), int(np.ceil(np.log10(reach))))
    lo, hi = np.array([(10.0 ** j, 10.0 ** (j + 1)) for j in k if 10.0 ** j < reach]).T
    edges = np.geomspace(lo, hi, 5, axis=1)[:, :-1]
    rho, w = panel_rule(np.append(edges, hi[-1]), 8)
    return lo, hi, 32 * np.arange(len(lo) + 1), rho, w


def _ring_gap(c, r0, rho, qx, qy):
    """lambda_-(c + q) - kappa = (|c + q| - r0)^2 on a ring band, for |c| = r0.

    Taken as ((2 c.q + rho^2) / (|c + q| + r0))^2, in which nothing cancels
    however small rho = |q| is.  q must come from rho and the angle: below
    rho ~ 1e-16 r0 the sum c + q rounds q away.
    """
    return ((2.0 * (c[0] * qx + c[1] * qy) + rho * rho)
            / (np.hypot(c[0] + qx, c[1] + qy) + r0)) ** 2


def _kinetic_halfplane(model, kappa, prof, center, other, r0, decades, end):
    """Polar integral about `center`, restricted to its bisector half-plane.

    rho = |p - center| runs over the ``decades`` of ``_decade_rules`` that
    start below R, from the table's edge 1e-12, and the closed-form tail
    past R is added, where ``end`` = (R, tail) comes from ``_radial_end``.
    On a ring band (``r0``, see ``kinetic_matrix``) the gap is ``_ring_gap``
    about the stored point, which ``trial_basis`` put on the ring
    |center| = r0, and the rings fall in three angular zones:

    - deep, rho <= 1e-2 min(r0, d / 2) (1e-2 r0 on the diagonal), about
      10 decades: the bisector cuts no ring, and the integrand is a
      trigonometric polynomial in the angle whose degree-k terms fall like
      (rho / r0)^k and (rho / d)^k, which a 16-point periodic trapezoid
      integrates to rounding (Trefethen and Weideman, SIAM Rev. 56 (2014)
      385), all in one block.  2 x 8 Gauss-Legendre panels err by 5e-10
      on cos 2 theta there;
    - from there to the guard radius 10 (1 + |center| + d): 16 panels of 8
      nodes, one decade at a time;
    - past the guard, at most about 10 decades to R, the integrand is
      analytic in the angle, and 2 panels of 8 nodes take each ring, all
      in one block.

    Off the diagonal the integrand falls like rho^(2-a) per e-fold below
    the table.  The ring diagonal's head there is half of Parseval's
    2 pi int_0^inf rho^3 fhat^2 d rho = pi a / 2 less the same integral over
    the decades and the tail, since the ring gap's angular mean is rho^2 / 2
    to order (rho / r0)^2.  It integrates a nonnegative function, so it is
    cut at 0: at a = 0.4 and 0.2, where fhat is flat below the table, the
    difference is -4.2e-11 and -2.2e-12 of rounding.  N = 4 on Rashba
    alpha = 2 takes 74,240 to 81,920 integrand nodes at every a; on Rashba
    alpha = 2 and Dresselhaus alpha = 3, N = 4 and 6, a = 0.4 to 0.025, T
    is within 3.4e-16 relative of 16 panels on every decade.  Any other band takes lambda_- - kappa by subtraction, with the
    values below its rounding noise (every ring below rho ~ 1e-7, hence no
    head) clamped to 0, and 16 panels on every decade.  Rings that the
    bisector cuts nowhere share one row of angles.
    """
    if other is None:
        # the angular rule starts at arg(center), so it turns with the point
        d, axis = 0.0, float(np.arctan2(center[1], center[0]))
    else:
        d = float(np.hypot(*(other - center)))
        axis = float(np.arctan2(other[1] - center[1], other[0] - center[0]))
    lo, hi, start, rho_all, w_all = decades
    R, tail = end
    stop = int(np.searchsorted(lo, R))
    if r0 is None:
        deep = 0
        near = stop
    else:
        deep = int(np.searchsorted(hi, _DEEP * (r0 if other is None else min(r0, 0.5 * d)),
                                   side="right"))
        near = max(deep, min(stop, int(np.searchsorted(lo, _guard_radius(center, d)))))
    # the deep and the far zone are one block each, the decades between
    # one at a time
    bounds = sorted({0, deep, near, stop}.union(range(deep, near)))
    total = parseval = 0.0
    for first, last in zip(bounds, bounds[1:]):
        rho, w_rho = rho_all[start[first]:start[last]], w_all[start[first]:start[last]]
        t_ref, w_ref = (_DEEP_RULE if first < deep else
                        _NEAR_RULE if first < near else _FAR_RULE)
        if other is None or rho[-1] <= 0.5 * d:
            beta = np.zeros(1)      # no ring is cut: one row of angles for all
        else:
            beta = np.where(rho > 0.5 * d,
                            np.arccos(np.clip(0.5 * d / rho, -1.0, 1.0)), 0.0)
        span = 2.0 * np.pi - 2.0 * beta
        theta = axis + beta[:, None] + span[:, None] * t_ref[None, :]
        w_ang = span[:, None] * w_ref[None, :]
        if r0 is None:
            px = center[0] + rho[:, None] * np.cos(theta)
            py = center[1] + rho[:, None] * np.sin(theta)
            gap = np.maximum(lower_band(model, px, py) - kappa, 0.0)
            # near the band minimum the subtraction cancels to rounding
            # noise; a spurious positive residue there gets multiplied by
            # the enormous fhat peak, so clamp values below the noise floor
            # to exact zero
            noise = 64.0 * np.finfo(float).eps * (px * px + py * py + abs(kappa) + 1.0)
            gap[gap < noise] = 0.0
        else:
            qx = rho[:, None] * np.cos(theta)
            qy = rho[:, None] * np.sin(theta)
            gap = _ring_gap(center, r0, rho[:, None], qx, qy)
            px, py = center[0] + qx, center[1] + qy
        f_c = prof(rho)[:, None]
        if other is None:
            f_o = f_c
            parseval += float(np.sum(w_rho * rho * (rho * f_c[:, 0]) ** 2))
        else:
            f_o = prof(np.hypot(px - other[0], py - other[1]))
        # group so extremes cancel before they overflow: gap grows like
        # rho^2 while fhat decays like rho^-(2+a)
        total += float(np.sum((w_rho[:, None] * w_ang * rho[:, None]) * ((gap * f_c) * f_o)))
    if other is None and r0 is not None:
        # below the table the ring gap's angular mean is rho^2 / 2, and
        # 2 pi int_0^inf rho^3 fhat^2 d rho = |grad f_a|^2 = pi a / 2; the
        # head integrates a nonnegative function, so its rounding is cut at 0
        total += 0.5 * max(0.0, 0.5 * np.pi * prof.a - 2.0 * np.pi * parseval - tail)
    return total + tail


# ---------------------------------------------------------------------------
# potential matrices


def _pair_scale(pts):
    return float(np.max(pair_distances(pts)))


def potential_matrix_dropped(nu, basis: TrialBasis):
    """W_jk with the band phase dropped: int e^{-i<p_j-p_k,x>} |f_a(x)|^2 nu(dx).

    |f_a(x)|^2 = e^{-|x|^a}, so W is 2 pi times the ``fourier_matrix`` of
    the measure e^{-|x|^a} nu.
    """
    weighted = measure.scaled(nu, lambda x, y: np.exp(-np.hypot(x, y) ** basis.a))
    # measure's own name: this module's ``fourier_matrix`` is the precheck,
    # which bench/child.py times as a layer of its own
    return measure.TWO_PI * measure.fourier_matrix(weighted, basis.points)


def potential_matrix_exact(model: CouplingSpec, nu, basis: TrialBasis):
    """W_jk = nu(Psi_j, Psi_k) with the full lower-band spinor structure.

    Psi_j(x) = e^{i<p_j,x>} (u_-(p_j) f_a(|x|) + Delta_j(x) e_1): the second
    spinor component of u_- is constant by the phase convention, so the band
    correction Delta_j lives in the first component only.  With a ring
    (``basis.ring``) its radial modes R_m are computed once, at p_0, and
    turned to every point: Delta_j(r, theta) = chi_j sum_m i^m e^{im(theta
    - phi_j)} R_m(r), with phi_j and chi_j of ``_turns``.  Without one,
    every point takes its own R_m, with phi_j = 0 and chi_j = 1.  A node
    radius below _R_FLOOR, 0 included, where R_m is unresolved, raises
    ResolutionError.
    """
    pts = basis.points
    max_p = _pair_scale(pts) + float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) + 4.0
    x, y, w = nu.quad_nodes(max_p)
    r = np.hypot(x, y)
    if np.any(r < _R_FLOOR):
        raise ResolutionError("band correction unresolved at node radius %.3g, below %g"
                              % (np.min(r), _R_FLOOR))
    theta = np.arctan2(y, x)
    f = np.exp(-0.5 * r ** basis.a)
    n = len(pts)
    if basis.ring is None:
        rep, phi, chi = np.arange(n), np.zeros(n), np.ones(n, dtype=complex)
    else:
        rep = np.zeros(n, dtype=int)
        phi, chi = _turns(model, pts)
    m_arr = np.arange(-_M_MAX, _M_MAX + 1)
    radii, where = np.unique(np.round(r, 12), return_inverse=True)
    delta = np.empty((n, len(x)), dtype=complex)
    for i in np.unique(rep):
        # R_m e^{im theta} of p_i, turned to each point that shares it by the factor chi_j i^m e^{-im phi_j}; R_m is gathered
        # from its per-radius rows a block of nodes at a time, so no
        # nodes x modes table is formed
        modes = _radius_modes(model, pts[i], basis.profile, radii, m_arr)
        own = np.flatnonzero(rep == i)
        turn = chi[own] * (1j) ** m_arr[:, None] * np.exp(-1j * np.outer(m_arr, phi[own]))
        for start in range(0, len(r), _NODE_BLOCK):
            block = slice(start, start + _NODE_BLOCK)
            harmonics = modes[where[block]] * np.exp(1j * np.outer(theta[block], m_arr))
            delta[own, block] = (harmonics @ turn).T
        del modes   # before the next point's modes are built
    v = lower_band_vectors(model, pts[:, 0], pts[:, 1])[:, 0]
    phase = np.exp(1j * (pts[:, :1] * x + pts[:, 1:] * y))
    psi1 = phase * (v[:, None] * f + delta)
    psi2 = phase * (f / _SQRT2)
    return (psi1.conj() * w) @ psi1.T + (psi2.conj() * w) @ psi2.T


# band-correction machinery: Delta_j(x) = sum_m i^m e^{im theta} R_m(r) with
# R_m(r) = int c_m(rho) fhat(rho) J_m(rho r) rho d rho, where c_m are the
# angular Fourier coefficients of u_-(p_j + q) - u_-(p_j) about p_j.

_N_ANGLES = 256
_M_MAX = 40
_LN_STEP = 1.0 / 200.0    # ln rho spacing of the FFTLog samples, at most
_TURN_STEP = 1.0 / 16.0   # radians R_m may turn per step in ln r
_MAX_SAMPLES = 2 ** 19    # FFTLog samples per expansion center
_NODE_BLOCK = 2048        # nodes or radii per block of R_m rows
# the least positive node radius: FFTLog's r R_m(r) errs by about 1e-11, so
# against direct J_0 quadrature R_0 is within 1.3e-7 at r >= 1e-4, off by
# 5e-6 at 1e-5 and by 4 (a = 0.4) at 1e-10
_R_FLOOR = 1e-4
# Stirling's series coefficients B_2j / (2j (2j - 1)), j = 1..8, and the
# shift that puts its argument past |z| = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_GAMMA_SHIFT = 10


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
    across (a point on the ring takes the inner side).  The table's nodes
    are the points 10^(k/32) from ``lo``, the lowest rho read, not the
    profile's edge, to one decade past ``reach``, the largest rho read, so
    the spline's end condition stays clear of it; tables with other ends
    share those nodes.  ``lo`` and ``hi`` are the table's edges.
    """

    def __init__(self, model, pj, m_arr, lo, reach):
        rj = float(np.hypot(*pj))
        powers = np.arange(np.floor(32.0 * np.log10(lo)), np.ceil(32.0 * np.log10(reach)) + 33)
        grid = 10.0 ** (powers / 32.0)
        lo, hi = grid[0], grid[-1]
        kinked = lo < rj < hi
        if kinked:
            grid = merge_edges(grid, _kink_ring(rj, lo, hi))
        cm = _angular_modes(model, pj, grid, m_arr)
        self.lo, self.hi = lo, hi
        log_grid = np.log(grid)
        if not kinked:
            self._spline = cubic_spline(log_grid, cm)
        else:
            k = int(np.searchsorted(grid, rj))
            self._spline = cubic_spline(log_grid[:k + 1], cm[:k + 1]).then(
                cubic_spline(log_grid[k:], cm[k:]))

    def __call__(self, rho, cols=slice(None)):
        log_rho = np.log(np.clip(np.asarray(rho, dtype=float), self.lo, self.hi))
        return self._spline.columns(cols)(log_rho)


def _radius_modes(model, pj, prof, radii, m_arr):
    """R_m(r) at the sorted distinct positive radii; the mode table dies on return.

    One FFTLog rule serves every radius: its samples run from
    1e-6 / max(r_max, 1) to 1e4 / r_min past it.  ``potential_matrix_exact``
    passes no radius below _R_FLOOR, where that rule is unresolved.
    """
    rho_hi = max(1.0e5, 1.0e4 / radii[0])
    modes = _ModeTable(model, pj, m_arr, 1e-6 / max(radii[-1], 1.0), min(rho_hi, prof.rho_hi))
    # the kink of c_m on the ring rho = |p_j| makes R_m(r) turn by about
    # r |p_j| radians per unit of ln r, so the ln step shrinks with it
    step = min(_LN_STEP, _TURN_STEP / (radii[-1] * max(float(np.hypot(*pj)), 1.0)))
    R = np.zeros((len(radii), len(m_arr)), dtype=complex)
    _hankel_fftlog(modes, prof, radii, m_arr, rho_hi, step, R)
    return R


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


def _im_loggamma(x, y):
    """Im ln Gamma(x + i y) for x > 0, on the branch continuous in y from 0.

    Stirling's series at z = x + _GAMMA_SHIFT + i y (|z| > 10, so its
    eight terms reach rounding), stepped down by the recurrence
    ln Gamma(z) = ln Gamma(z + 1) - ln z, whose imaginary parts are the
    continuous angles atan2(y, x + k).  Against mpmath it is within 7e-16
    of max(1, |phase|) for |y| <= 1e4.
    """
    z = (x + _GAMMA_SHIFT) + 1j * y
    inv = 1.0 / z
    inv2 = inv * inv
    series = np.zeros_like(z)
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    phase = ((x + _GAMMA_SHIFT - 0.5) * np.angle(z) + y * (np.log(np.abs(z)) - 1.0)
             + (series * inv).imag)
    for k in range(_GAMMA_SHIFT):
        phase -= np.arctan2(y, x + k)
    return phase


def _fftlog_coefficients(n, dln, orders):
    """FFTLog coefficient tables u_mu for n samples at ln spacing dln, in turn.

    With no bias and no offset, u_mu(y) = 2^{2iy} Gamma((mu+1)/2 + iy) /
    Gamma((mu+1)/2 - iy) at y_k = k pi / (n dln), k = 0 .. n // 2 (Hamilton
    2000; scipy's ``fhtcoeff`` at bias and offset 0).  u_0 and u_1
    take one ``_im_loggamma`` each, and every other order is stepped from the one
    two below it by u_{mu+2} = u_mu (x + iy) / (x - iy), x = (mu+1)/2, in
    place: yields u_mu for each of the ascending ``orders``, valid until the
    next is yielded, so at most two tables exist.
    """
    y = np.linspace(0.0, np.pi * (n // 2) / (n * dln), n // 2 + 1)
    tables = [np.exp(2j * (_im_loggamma(0.5 * (mu + 1), y) + _LN2 * y))
              for mu in (0, 1)]
    at = [0, 1]
    for mu in orders:
        u = tables[mu % 2]
        while at[mu % 2] < mu:
            x = 0.5 * (at[mu % 2] + 1)
            u *= (x + 1j * y) / (x - 1j * y)
            at[mu % 2] += 2
        yield u


def _fftlog(samples, u):
    """FFTLog of each column of the real (n, c) samples with the table u.

    irfft(rfft(samples) u) reversed, as scipy's ``fht`` applies it; for even n
    the last coefficient is taken real, as ``fhtcoeff`` makes it.
    """
    n = len(samples)
    spectrum = np.fft.rfft(samples, axis=0)
    spectrum *= u[:, None]
    if n % 2 == 0:
        spectrum.imag[-1] = 0.0
    return np.fft.irfft(spectrum, n, axis=0)[::-1]


def _fast_len(n):
    """The least 2^i 3^j 5^k >= n, as scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that takes p35 to n or past it
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _hankel_fftlog(modes, prof, radii, m_arr, rho_hi, step, out):
    """R_m at the sorted positive radii into out, by one FFTLog transform per order |m|.

    g_m = c_m fhat rho is sampled at ln rho spacing at most ``step``, from
    1e-6 / max(r_max, 1), where the mode table starts, to
    rho_hi >= 1e4 / r_min, and transformed by FFTLog
    (Talman 1978; Hamilton 2000): rfft, times the order's coefficient table
    (``_fftlog_coefficients``, stepped from order to order by the Gamma
    recurrence), irfft.  The output grid is k = 1 / rho reversed, at least
    four decades wider than the radii on each side, and holds k R_m(k),
    with J_-m = (-1)^m J_m.  Below the grid rho < 1e-6 and rho r < 1e-6,
    where c_0 = O(rho^2) and c_m J_m(rho r) = O(rho^2 r) for m != 0; fhat
    rho d rho has unit mass, so each integral loses O(1e-12) there.  The
    lowest decade of samples is tapered to zero, so the transform's
    periodic wrap in ln rho meets no jump.
    Six-point Lagrange interpolation in ln k carries R_m from the output
    rows around each radius to it, a block of radii at a time, so only
    those rows are kept.
    """
    rho_lo = 1.0e-6 / max(radii[-1], 1.0)
    n = _fast_len(int(np.ceil(np.log(rho_hi / rho_lo) / step)) + 1)
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
    coefficients = _fftlog_coefficients(n, dln, unique)
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
            kr = _fftlog(np.hstack([g[:, pick].real, g[:, pick].imag]),
                         next(coefficients))[rows] / k[:, None]
            sign = (-1.0) ** np.minimum(m_arr[own], 0)
            R[own] = sign[:, None] * (kr[:, :len(own)] + 1j * kr[:, len(own):]).T
    u = at - base
    near = where.reshape(-1, 6)
    for start in range(0, len(radii), _NODE_BLOCK):
        block = slice(start, start + _NODE_BLOCK)
        for s in range(6):
            lagrange = np.prod([(u[block] - q) / (s - q) for q in range(6) if q != s], axis=0)
            out[block] += lagrange[:, None] * R[:, near[block, s]].T


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class ScheduleStep:
    a: float
    lambda_max_Q: float
    negative_count: int
    negative_definite: bool
    kinetic_diagonal: tuple


@dataclass(frozen=True)
class CertificateResult:
    """What ``certify`` found over the schedule steps it ran."""
    N: int
    a_star: float | None
    lambda_max_Q: float         # the smallest lambda_max of Q over the steps
    prechecked_fourier_matrix: DefinitenessReport
    certified: bool             # some step has all N eigenvalues below the margin
    certified_count: int        # the most eigenvalues of Q below it at one step
    points: np.ndarray
    potential_form: str
    diagnostics: tuple


def certify_problems(N, a_schedule, potential_form, points):
    """Every problem with ``certify``'s arguments, as messages; [] when none."""
    problems = _selection_problems(N)
    schedule = [float(a) for a in a_schedule]
    if not schedule:
        problems.append("a_schedule must not be empty")
    if any(not (0.0 < a <= 2.0) for a in schedule):
        problems.append("every a in a_schedule must lie in (0, 2]")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        problems.append("a_schedule must be strictly decreasing")
    if potential_form not in ("exact", "dropped"):
        problems.append("potential_form must be exact|dropped")
    if (points is not None and isinstance(N, (int, np.integer))
            and len(points) != N):
        problems.append("points must hold N = %d points, got %d" % (N, len(points)))
    return problems


def certify(model: CouplingSpec, thr: ThresholdData, nu, N,
            a_schedule=DEFAULT_A_SCHEDULE, potential_form="exact",
            points=None) -> CertificateResult:
    """Try each a of the schedule until Q = T + W on N trial points is negative definite.

    Each eigenvalue of Q below -TOL_DEF max(1, |Q|_F) certifies one
    eigenvalue of H below kappa; ``certified_count`` is the most at one step
    run.  ``points`` are N trial momenta on the minimum set, [x, y] pairs;
    without them N equispaced points are taken.  Raises ConfigError listing
    every problem of ``certify_problems``.
    """
    problems = certify_problems(N, a_schedule, potential_form, points)
    if problems:
        raise ConfigError(problems)
    schedule = [float(a) for a in a_schedule]
    if points is not None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    else:
        pts = select_points(thr.minset, N)
    precheck = definiteness(fourier_matrix(nu, pts))

    steps = []
    a_star, certified = None, False
    for a in schedule:
        basis = trial_basis(model, thr, pts, a)
        T = kinetic_matrix(model, thr, basis)
        if potential_form == "exact":
            W = potential_matrix_exact(model, nu, basis)
        else:
            W = potential_matrix_dropped(nu, basis)
        Q = T + W
        rep = definiteness(Q)
        steps.append(ScheduleStep(a=a, lambda_max_Q=rep.lambda_max,
                                  negative_count=rep.negative_count,
                                  negative_definite=rep.negative_definite,
                                  kinetic_diagonal=tuple(np.diag(T))))
        if rep.negative_definite:
            a_star, certified = a, True
            break

    return CertificateResult(
        N=len(pts), a_star=a_star, lambda_max_Q=min(s.lambda_max_Q for s in steps),
        prechecked_fourier_matrix=precheck, certified=certified,
        certified_count=max(s.negative_count for s in steps), points=pts,
        potential_form=potential_form, diagnostics=tuple(steps))
