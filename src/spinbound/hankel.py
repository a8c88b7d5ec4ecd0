"""Radial Fourier profile of the bump family exp(-|x|^a / 2).

Under the unitary 2D convention the transform of a radial function is the
order-zero Hankel transform fhat(rho) = int_0^inf r J0(rho r) exp(-r^a/2) dr.
It is the density of a 2D isotropic a-stable law, and for every a < 2 it
is tabulated on one window, 1280 nodes on a log grid over
rho in [1e-12, 1e12], by the rotated-contour quadrature; the Gaussian
exp(-rho^2/2) at a = 2 is its closed form at every rho.  Every a down to
7.35e-284 builds; below it the last value, fhat(1e12) = 3.03e-25 a, is not
a normal float, and the build raises ``ResolutionError``.
Direct oscillatory quadrature is hopeless because for small
a the envelope decays over astronomically wide ranges of r, so the
contour is rotated into the upper half-plane: with
theta = min(pi/2, pi/(3a)) the Hankel kernel turns into an exponentially
damped (K0 or complex Hankel-1) kernel, which depends on rho only through
rho s.  Both kernels come from one numpy K0 (``_k0``), with
H0^(1)(z) = (2 / (pi i)) K0(-i z).  In ln s the integrand is analytic in
a strip, so the trapezoid rule on a lattice of the table's own ln rho
step converges geometrically, and one lattice serves every node of the
table, which lies on that lattice (``_contour_values``): each kernel and
envelope value is computed once per build, and each node is a direct sum
over a window of the two tables.  On the schedule's exponents it agrees
with per-node Gauss-Legendre panels to 1e-13 and moves by under 1e-14
when the step is halved; it is within 1e-13 of the power-law series
summed to 60 digits wherever that series converges (a < 1), at a = 1
every node matches 0.5 / (1/4 + rho^2)^(3/2) to 1e-13, and at a = 1.5
and 1.9 it is within 1e-13 of a 20-digit mpmath quadrature at
8 <= rho <= 30.

The table is interpolated log-log by a not-a-knot cubic spline
(``spline.cubic_spline``) at the ln rho step 0.0432, off by at most
3.5e-14 (a = 0.025), 1.9e-9 (0.4), 1.9e-8 (0.9), 1.8e-7 (1.5) and 4.8e-6
(1.9) between the nodes.  Below the table the first value is held.  Past
it fhat is Bergstrom's series sum_n c_n rho^-(2 + n a) in 40 terms, whose
coefficients each profile computes once (``FhatProfile.coefficients``);
the kinetic tail integrates the same series.  At rho = 1e12 it meets the
table to 1.3e-14 (a = 1.9).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ResolutionError
from .spline import cubic_spline

_EXP_CUTOFF = 45.0  # e^-45 ~ 3e-20 of peak
_TABLE_SIZE = 1280   # log rho nodes per profile
_RHO_LO = 1e-12      # the table's window, the same for every exponent
_RHO_HI = 1e12
_SERIES_TERMS = 40   # Bergstrom's coefficients past the window
_LN2 = math.log(2.0)

# K0: the power series' reach and term count, and the exponent past which
# the integral representation's trapezoid rule stops
_K0_SERIES = 1.5
_K0_TERMS = 17
_K0_CUT = 40.0


def _k0(w):
    """K0(w) for real w > 0 or complex w with |arg w| <= 1.02, elementwise.

    For |w| <= _K0_SERIES the power series
    K0(w) = -(ln(w/2) + Euler's gamma) I0(w) + sum_k H_k (w^2/4)^k / (k!)^2,
    with H_k the harmonic numbers, in _K0_TERMS terms.  Past it
    K0(w) = e^-w int_0^inf exp(-2 w sinh^2(t/2)) dt (cosh t - 1 written as
    2 sinh^2(t/2), exact in relative terms at small t), summed by the
    trapezoid rule with step 0.3 min(1, |w|^-1/2) (1 - 2 |arg w| / pi) up
    to where Re w (cosh t - 1) passes _K0_CUT.  The integrand is entire and
    bounded by e^(|w| (1 - cos y)) on the line Im t = y <= pi/2, so the
    rule's error falls like exp(|w| - pi^2 / step) (Trefethen & Weideman,
    SIAM Rev. 56 (2014) 385); that is 1.4e-14 just past |w| = 1, hence
    the series reaches to 1.5, where it cancels by less than a factor 3.
    Against scipy.special it is within 1.7e-15 relative of k0 on
    [1.6e-38, 43], and K0(-i z) within 2.2e-15 of hankel1(0, z) at
    arg z = 0.55, 0.70 and 1.16 with |z| up to 85.
    """
    w = np.asarray(w)
    out = np.empty(w.shape, dtype=w.dtype)
    mod = np.abs(w)
    small = mod <= _K0_SERIES
    ws = w[small]
    q = 0.25 * ws * ws
    term = np.ones_like(ws)
    i0 = np.ones_like(ws)
    tail = np.zeros_like(ws)
    harmonic = 0.0
    for k in range(1, _K0_TERMS + 1):
        term *= q / (k * k)
        harmonic += 1.0 / k
        i0 += term
        tail += harmonic * term
    out[small] = tail - (np.log(0.5 * ws) + np.euler_gamma) * i0
    wl = w[~small]
    if wl.size:
        step = (0.3 * np.minimum(1.0, mod[~small] ** -0.5)
                * (1.0 - (2.0 / np.pi) * np.abs(np.angle(wl))))
        t_cut = np.arccosh(1.0 + _K0_CUT / wl.real)
        t = step[:, None] * np.arange(int(np.max(np.ceil(t_cut / step))) + 1)
        half = np.sinh(0.5 * t)
        f = np.exp(-2.0 * wl[:, None] * half * half)
        f[t > t_cut[:, None]] = 0.0
        out[~small] = np.exp(-wl) * step * (f.sum(axis=1) - 0.5)
    return out


def _contour_cuts(a):
    """Per-exponent constants of the rotated-contour rule.

    Returns (theta, c_env, s_env, ln s_env_cut, ln s_floor).  The contour
    turns by theta = min(pi/2, pi/(3a)), and c_env, s_env are cos and sin of
    a theta (c_env >= 1/2).  In u = s^a the integrand is about
    u^(2/a - 1) exp(-c_env u / 2), so the envelope cut u_cut solves
    (c_env/2) u - (2/a) ln u = _EXP_CUTOFF by fixed-point iteration (the
    plain exp(-c u/2) rule would land before the integrand peak for small
    a).  Below the peak scale u* = 4/(a c_env) the integrand grows like
    u^(2/a - 1), and s_floor = (u* exp(-1 - 22.5 a))^(1/a) keeps the
    omitted mass under exp(-45) of the result where the envelope sets the
    range.
    """
    theta = min(0.5 * np.pi, np.pi / (3.0 * a))
    c_env, s_env = np.cos(a * theta), np.sin(a * theta)
    u_cut = 2.0 * _EXP_CUTOFF / c_env
    for _ in range(40):
        u_cut = (2.0 / c_env) * (_EXP_CUTOFF + (2.0 / a) * np.log(u_cut))
    ln_u_star = math.log(4.0 / c_env) - math.log(a)
    return (theta, c_env, s_env, math.log(u_cut) / a,
            (ln_u_star - 1.0 - 22.5 * a) / a)


def _contour_values(a, rho, step):
    """fhat at nodes rho > 0 of one geometric lattice, by the rotated-contour rule.

    The nodes must lie on ln rho = ln rho[0] + i step for integers i, as
    the table grid and its subsets do.  In u = ln s the contour integral is
    int s^2 kernel(rho s) env(s) du, and the trapezoid rule on the lattice
    u_j = -ln rho[0] + j step sums it: it converges geometrically for an
    integrand analytic in a strip (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385).  Node i meets lattice point j at rho s = exp((i + j) step),
    so the kernel is evaluated once per lattice point k = i + j and the
    envelope once per j.

    Node i sums over [s_lo, s_up]: s_up is the nearer of the envelope cut
    and the kernel cut _EXP_CUTOFF / (rho sin theta), and
    s_lo = min(1e-12 s_up, s_floor), in ln s: for rho >= 1e-12 the kernel
    cut keeps s below 4.5e13 at any a.  Where the envelope sets s_up the
    window is one range of j for every node; where the kernel does, it is
    one range of k, widened to the lowest s_lo among those nodes.  So each
    group of nodes is one direct correlation of the two tables
    (np.correlate); an FFT's rounding is absolute and would swamp the
    rho^(-2-a) tail.  Where rho s_env_cut < 1 the sum drops its ln rho
    term, a zero integral whose rounding ln rho would multiply.
    """
    theta, c_env, s_env, ln_env_cut, ln_floor = _contour_cuts(a)
    ln_rho = np.log(rho)
    ln_kernel_cut = math.log(_EXP_CUTOFF / math.sin(theta)) - ln_rho
    ln_up = np.minimum(ln_env_cut, ln_kernel_cut)
    ln_lo = np.minimum(ln_up + math.log(1e-12), ln_floor)
    ln_rho0 = ln_rho[0]
    i = np.rint((ln_rho - ln_rho0) / step).astype(int)
    j_lo = np.floor((ln_lo + ln_rho0) / step).astype(int)
    j_up = np.floor((ln_up + ln_rho0) / step).astype(int)

    # envelope-limited nodes share one window of j, kernel-limited nodes one
    # window of k = i + j; each window is the hull of its nodes' ranges
    groups = []
    kernel_limited = ln_kernel_cut < ln_env_cut
    for by_kernel in (False, True):
        nodes = kernel_limited == by_kernel
        if not nodes.any():
            continue
        ni = i[nodes]
        if by_kernel:
            k_win = (np.min(ni + j_lo[nodes]), np.max(ni + j_up[nodes]))
            j_win = (k_win[0] - ni.max(), k_win[1] - ni.min())
        else:
            j_win = (j_lo[nodes].min(), j_up[nodes].max())
            k_win = (j_win[0] + ni.min(), j_win[1] + ni.max())
        groups.append((by_kernel, nodes, ni, k_win, j_win))
    k_first, k_last = min(g[3][0] for g in groups), max(g[3][1] for g in groups)
    j_first, j_last = min(g[4][0] for g in groups), max(g[4][1] for g in groups)
    x = np.exp(step * np.arange(k_first, k_last + 1))
    s = np.exp(step * np.arange(j_first, j_last + 1) - ln_rho0)
    ws = step * s * s
    sa = s ** a
    # H1_0(z) = -(2i/pi) K0(-i z); at theta = pi/2, Re[e^{2 i theta} ...]
    # collapses to a real K0 integral
    real_k0 = theta >= 0.5 * np.pi - 1e-12
    if real_k0:
        kernel = _k0(x)
        env = ws * np.exp(-0.5 * c_env * sa) * np.sin(0.5 * s_env * sa)
        env_sub = env
    else:
        kernel = (-2j / np.pi) * _k0(x * np.exp(1j * (theta - 0.5 * np.pi)))
        x_env, y_env = -0.5 * c_env * sa, -0.5 * s_env * sa
        env = ws * np.exp(x_env + 1j * y_env)
        # kernel-limited nodes take env - 1: the pure-kernel ray integral
        # vanishes exactly (d/dz [z H1] = z H0, boundary term is real), and
        # the subtraction removes the catastrophic cancellation that
        # otherwise swamps the rho^(-2-a) tail at large rho.  Where the
        # envelope sets the range (small rho) the plain form is
        # cancellation-free and the subtracted one is not.  The real part
        # expm1(x) cos y - 2 sin^2(y/2) adds two terms of one sign (x < 0,
        # |y| <= sqrt(3) |x|), so env - 1 keeps full precision at small s^a
        env_sub = ws * (np.expm1(x_env) * np.cos(y_env) - 2.0 * np.sin(0.5 * y_env) ** 2
                        + 1j * np.exp(x_env) * np.sin(y_env))

    out = np.empty(len(rho))
    for by_kernel, nodes, ni, k_win, j_win in groups:
        ks = kernel[k_win[0] - k_first:k_win[1] - k_first + 1]
        if by_kernel:
            # sum_k kernel[k] env_sub[k - i]: the kernel window slides over env_sub
            es = env_sub[j_win[0] - j_first:j_win[1] - j_first + 1]
            sums = np.correlate(es, np.conj(ks), "valid")[ni.max() - ni]
        else:
            # sum_j kernel[i + j] env[j]: the envelope window slides over the kernel
            es = env[j_win[0] - j_first:j_win[1] - j_first + 1]
            sums = np.correlate(ks, np.conj(es), "valid")[ni - ni.min()]
            # the kernel is -unit ln(rho s) + O(1) there, and fhat has no
            # ln rho term: unit sum_j env[j] is 0 but for 1e-14 of rounding
            ln_small = np.where(ln_rho[nodes] < -ln_env_cut, ln_rho[nodes], 0.0)
            sums += (1.0 if real_k0 else -2j / np.pi) * np.sum(es) * ln_small
        out[nodes] = (2.0 / np.pi) * sums if real_k0 else np.real(np.exp(2j * theta) * sums)
    return out


def _series_coefficients(a, count):
    """c_1 .. c_count of fhat(rho) = sum_n c_n rho^-(2 + n a).

    c_n = (-1)^(n+1) (2/pi) sin(pi a n / 2) Gamma(1 + a n / 2)^2 2^(a n - n)
    / n!, the 2D analogue of Bergstrom's series (Ark. Mat. 2 (1952) 375): it
    converges for every rho > 0 when a < 1 and is asymptotic for
    1 <= a < 2.  The sine is taken about the nearest
    integer, so c_n is exactly 0 where a n / 2 is one (every n at a = 2).
    """
    n = np.arange(1, count + 1)
    t = 0.5 * a * n
    k = np.rint(t)
    sine = (-1.0) ** k * np.sin(np.pi * (t - k))
    log_size = np.array([2.0 * math.lgamma(1.0 + x) - math.lgamma(1.0 + m)
                         for x, m in zip(t, n)]) + (2.0 * t - n) * _LN2
    return (-1.0) ** (n + 1) * (2.0 / np.pi) * sine * np.exp(log_size)


def _table(a):
    """The window's log-spaced rho grid and the profile's values on it, by the contour rule."""
    # nodes on the contour rule's own lattice ln _RHO_LO + i step
    ln_lo = math.log(_RHO_LO)
    step = (math.log(_RHO_HI) - ln_lo) / (_TABLE_SIZE - 1)
    grid = np.exp(ln_lo + step * np.arange(_TABLE_SIZE))
    vals = _contour_values(a, grid, step)
    # a lost sign, an overflow, or (below the floor) a tail under the
    # least normal float
    normal = (vals >= np.finfo(float).tiny) & (vals < np.inf)
    if not normal.all():
        bad = int(np.argmin(normal))
        raise ResolutionError("bump exponent a=%g has no normal profile value at "
                              "rho=%.3e" % (a, grid[bad]))
    return grid, vals


class FhatProfile:
    """fhat for one exponent: tabulated on the window, Bergstrom's series past it.

    ``coefficients`` holds c_1 .. c_{_SERIES_TERMS} of the series
    fhat = sum_n c_n rho^-(2 + n a), computed once per build.  At a = 2 the
    profile is the closed form exp(-rho^2 / 2) at every rho, and
    ``rho_hi`` = 37, past which it is below 1e-297.
    """

    def __init__(self, a):
        if not (0.0 < a <= 2.0):
            raise ConfigError("bump exponent a must lie in (0, 2]")
        self.a = float(a)
        self.coefficients = _series_coefficients(self.a, _SERIES_TERMS)
        self.rho_lo, self.rho_hi = _RHO_LO, _RHO_HI
        if self.a == 2.0:
            self.rho_hi = 37.0
            return
        self._grid, self._vals = _table(self.a)
        self._spline = cubic_spline(np.log(self._grid), np.log(self._vals))

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.a == 2.0:
            out = np.exp(-0.5 * rho * rho)
        else:
            # below the table the first value is held; past it the
            # spline's end value is overwritten
            out = self._spline(np.log(np.clip(rho, self._grid[0], self._grid[-1])))
            np.exp(out, out=out)
            far = rho >= self._grid[-1]
            if far.any():
                # past it, Bergstrom's series by Horner's rule in rho^-a
                x = rho[far] ** -self.a
                total = np.zeros_like(x)
                for c in self.coefficients[::-1]:
                    total = (total + c) * x
                out[far] = total / (rho[far] * rho[far])
        return out if out.shape else float(out)


def fhat_profile(a) -> FhatProfile:
    """Radial profile for a bump exponent a in (0, 2]."""
    return FhatProfile(float(a))
