"""Radial Fourier profile of the bump family exp(-|x|^a / 2).

Under the unitary 2D convention the transform of a radial function is the
order-zero Hankel transform fhat(rho) = int_0^inf r J0(rho r) exp(-r^a/2) dr.
It is the density of a 2D isotropic a-stable law, and is tabulated once per
exponent on a log rho grid.  Two exponents have closed forms, the Gaussian
exp(-rho^2/2) at a = 2 and 0.5 / (1/4 + rho^2)^(3/2) at a = 1; every other
exponent is tabulated from two sources:

* For a < 1, integrating exp(-r^a/2) = sum (-r^a/2)^n / n! term by term
  gives the everywhere-convergent power-law series (the 2D analogue of
  Bergstrom's expansion, Ark. Mat. 2 (1952) 375)

      fhat(rho) = sum_{n>=1} (-1)^(n+1) (2/pi) sin(pi a n/2)
                  Gamma(1 + a n/2)^2 2^(a n - n) / n! * rho^-(2 + a n).

  A node keeps the series value only where the sum can be trusted: no term
  near overflow, a positive sum, a rounding bound below 1e-12 of the sum,
  and a converged tail.  At small rho the terms grow huge and cancel (600
  terms at a = 0.4, rho = 1.4e-6 sum to -1.7e301), so the low-rho end fails
  the gate; for a >= 1 the series diverges and no node is trusted.
* Every other node uses the rotated-contour quadrature.  Direct oscillatory
  quadrature is hopeless because for small a the envelope decays over
  astronomically wide ranges of r, so the contour is rotated into the upper
  half-plane: with theta = min(pi/2, pi/(3a)) the Hankel kernel turns into
  an exponentially damped (K0 or complex Hankel-1) kernel and the integrand
  becomes smooth enough for log-spaced panels.

The table is interpolated log-log cubically.  Below the table the first
value is held; above it the spline's end slope carries the log-log line on
(it approximates the power-law tail fhat ~ C * rho^-(2+a), e.g.
-2.39999999999736 at a = 0.4), and the Gaussian (a = 2) is zero there.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma, gammaln, hankel1, k0

from .errors import ConfigError, ResolutionError
from .quadrature import merge_edges, panel_rule

_EXP_CUTOFF = 45.0  # e^-45 ~ 3e-20 of peak

# power-law series: term count and the trust gate's thresholds
_SERIES_TERMS = 600
_SERIES_LOG_MAX = 600.0     # ln of the largest term summed; keeps the sums finite
_SERIES_ROUNDING = 1e-12    # rounding bound allowed, relative to the sum
_SERIES_TAIL_TERMS = 20
_SERIES_TAIL = 1e-18        # largest tail term allowed, relative to the sum


def fhat_at_zero(a):
    """fhat(0) = 2^(2/a) Gamma(2/a) / a (Gamma integral after u = r^a/2)."""
    return 2.0 ** (2.0 / a) * gamma(2.0 / a) / a


def _rotated_hankel_point(a, rho, nodes_per_panel=10):
    """fhat(rho) for 0 < a < 2, rho > 0 via the rotated-contour integral."""
    theta = min(0.5 * np.pi, np.pi / (3.0 * a))
    at = a * theta
    c_env = np.cos(at)            # >= 1/2 by choice of theta
    s_env = np.sin(at)
    sin_t, cos_t = np.sin(theta), np.cos(theta)

    # cutoff where the envelope beats the s ds weight: in u = s^a the
    # integrand magnitude is ~ u^(2/a - 1) exp(-c_env u / 2), so the upper
    # limit must satisfy (c_env/2) u - (2/a) ln u >= budget; solved by
    # fixed-point iteration (matters for small a, where the plain
    # exp(-c u/2) = cutoff rule lands before the integrand peak)
    u_cut = 2.0 * _EXP_CUTOFF / c_env
    for _ in range(40):
        u_cut = (2.0 / c_env) * (_EXP_CUTOFF + (2.0 / a) * np.log(u_cut))
    s_env_cut = u_cut ** (1.0 / a)
    s_kernel_cut = _EXP_CUTOFF / (rho * sin_t)
    s_up = min(s_env_cut, s_kernel_cut)
    if not np.isfinite(s_up):
        raise ResolutionError(
            "exponent a=%g too small for the contour quadrature" % a)
    # lower cut: below the integrand-peak scale u* = 4/(a c_env) the
    # integrand grows like u^(2/a - 1); u_lo = u* exp(-1 - 22.5 a) keeps the
    # omitted mass under exp(-45) of the result in the envelope-dominated
    # regime, while 1e-12 s_up covers the kernel-dominated one
    u_star = 4.0 / (a * c_env)
    s_lo = min(1e-12 * s_up,
               (u_star * np.exp(-1.0 - 22.5 * a)) ** (1.0 / a))

    edge_sets = [np.geomspace(s_lo, s_up, max(8, int(np.ceil(
        np.log10(s_up / s_lo) * 5)) + 1))]
    # oscillation of the rotated Hankel kernel, exp(i rho s cos theta)
    if cos_t > 1e-12:
        k1 = int(np.floor(rho * s_up * cos_t / np.pi))
        if k1 >= 1:
            edge_sets.append(np.arange(1, k1 + 1) * np.pi / (rho * cos_t))
    # oscillation of the rotated envelope, phase (s_env/2) s^a
    k2 = int(np.floor(s_env * s_up ** a / np.pi))
    if k2 >= 1:
        edge_sets.append((np.arange(1, k2 + 1) * np.pi / s_env) ** (1.0 / a))
    edges = merge_edges(*edge_sets)
    edges = edges[(edges >= s_lo) & (edges <= s_up)]
    edges = merge_edges(edges, [s_lo, s_up])

    s, w = panel_rule(edges, nodes_per_panel)
    env = np.exp(-0.5 * (s ** a) * (c_env + 1j * s_env))
    if theta >= 0.5 * np.pi - 1e-12:
        # H1_0(i x) = -(2i/pi) K0(x); Re[e^{2 i theta} ...] collapses to a
        # real K0 integral
        kernel = k0(np.minimum(rho * s, 700.0))
        val = (2.0 / np.pi) * np.sum(w * s * kernel * np.exp(-0.5 * c_env * s ** a)
                                     * np.sin(0.5 * s_env * s ** a))
        return float(val)
    z = rho * s * np.exp(1j * theta)
    kernel = hankel1(0, z)
    # env is replaced by env - 1: the pure-kernel ray integral vanishes
    # exactly (d/dz [z H1] = z H0, boundary term is real), and the
    # subtraction removes the catastrophic cancellation that otherwise
    # swamps the rho^(-2-a) tail at large rho
    # only in the kernel-dominated regime: at small rho the integration
    # range is set by the envelope and the plain form is cancellation-free,
    # while the subtracted one is not
    if s_kernel_cut < s_env_cut:
        ze = -0.5 * (s ** a) * (c_env + 1j * s_env)
        small = np.abs(ze) < 1e-2
        env = np.where(
            small,
            ze * (1.0 + ze * (0.5 + ze * (1.0 / 6.0 + ze / 24.0))),
            env - 1.0)
    val = np.real(np.exp(2j * theta) * np.sum(w * s * kernel * env))
    return float(val)


def _series_values(a, rho):
    """Power-law series of fhat at rho > 0, and where it can be trusted.

    Returns (values, trusted); values are meaningless where trusted is
    False.  Terms are built in log space and summed one n at a time over
    the whole grid.  A node is trusted when no term's log passes
    _SERIES_LOG_MAX, the sum S is positive, the rounding bound
    eps * sum |t_n| (1 + |ln t_n|) is at most _SERIES_ROUNDING * S, and each
    of the last _SERIES_TAIL_TERMS terms is at most _SERIES_TAIL * S.
    """
    rho = np.asarray(rho, dtype=float)
    total = np.zeros(rho.shape)
    if not a < 1.0:
        # divergent (asymptotic only) for a > 1, and convergent only for
        # rho > 1/2 at a = 1
        return total, np.zeros(rho.shape, dtype=bool)
    ln_rho = np.log(rho)
    ln_max = np.full(rho.shape, -np.inf)
    bound = np.zeros(rho.shape)
    tail = np.zeros(rho.shape)
    for n in range(1, _SERIES_TERMS + 1):
        # sin(pi a n / 2) with the argument reduced mod 2 pi, so that the
        # terms that vanish (a n / 2 an integer) are exactly zero
        half_turns = (0.5 * a * n) % 2.0
        if half_turns in (0.0, 1.0):
            continue
        sine = math.sin(math.pi * half_turns)
        ln_coeff = (math.log(2.0 / math.pi * abs(sine))
                    + 2.0 * math.lgamma(1.0 + 0.5 * a * n)
                    + (a * n - n) * math.log(2.0) - math.lgamma(n + 1.0))
        ln_term = ln_coeff - (2.0 + a * n) * ln_rho
        np.maximum(ln_max, ln_term, out=ln_max)
        term = np.exp(np.minimum(ln_term, _SERIES_LOG_MAX))
        total += math.copysign(1.0, sine) * (1.0 if n % 2 else -1.0) * term
        bound += term * (1.0 + np.abs(ln_term))
        if n > _SERIES_TERMS - _SERIES_TAIL_TERMS:
            np.maximum(tail, term, out=tail)
    trusted = ((ln_max <= _SERIES_LOG_MAX) & (total > 0.0)
               & (np.finfo(float).eps * bound <= _SERIES_ROUNDING * total)
               & (tail <= _SERIES_TAIL * total))
    return total, trusted


class FhatProfile:
    """Tabulated radial transform of exp(-|x|^a/2), extrapolated past the table."""

    def __init__(self, a, table_size=4096):
        if not (0.0 < a <= 2.0):
            raise ConfigError("bump exponent a must lie in (0, 2]")
        self.a = float(a)
        self.value_at_zero = float(fhat_at_zero(self.a))
        # the transform flattens out below 1/sqrt(<r^2>), which for small a
        # sits far below 1/<r> (heavy-tailed weight); anchor the grid there
        r2_scale = float(np.exp(np.log(2.0) / a
                                + 0.5 * (gammaln(4.0 / a) - gammaln(2.0 / a))))
        rho_lo = 1e-4 / r2_scale
        # the power-law tail regime starts around rho^(-a) << 1, which for
        # small a is astronomically far out; carry the table far enough that
        # the slowly-converging tail is resolved rather than extrapolated,
        # but stop before the ~rho^-(2+a) values go subnormal
        rho_hi = min(1e110, (0.5 * a * 1e280) ** (1.0 / (2.0 + a)))
        if self.a == 2.0:
            rho_hi = 37.0  # Gaussian tail below 1e-300 past here
        self.rho_lo, self.rho_hi = rho_lo, rho_hi
        grid = np.geomspace(rho_lo, rho_hi, table_size)
        if self.a == 2.0:
            vals = np.exp(-0.5 * grid * grid)
        elif self.a == 1.0:
            vals = 0.5 / (0.25 + grid * grid) ** 1.5
        else:
            vals, trusted = _series_values(self.a, grid)
            for i in np.flatnonzero(~trusted):
                vals[i] = _rotated_hankel_point(self.a, grid[i])
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            bad = int(np.argmin(vals))
            raise ArithmeticError(
                "Hankel profile lost positivity at rho=%.3e (a=%.3f)" % (grid[bad], a))
        self._grid = grid
        self._vals = vals
        self._spline = CubicSpline(np.log(grid), np.log(vals))
        self._end_slope = float(self._spline(np.log(grid[-1]), 1))
        self.tail_coefficient = float(vals[-1] * grid[-1] ** (2.0 + self.a))
        half = np.searchsorted(-vals, -0.5 * self.value_at_zero)
        self.rho_half = float(grid[min(half, len(grid) - 1)])

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.empty(rho.shape, dtype=float)
        lo = rho <= self._grid[0]
        hi = rho >= self._grid[-1]
        mid = ~(lo | hi)
        out[lo] = self._vals[0]
        if np.any(mid):
            out[mid] = np.exp(self._spline(np.log(rho[mid])))
        if np.any(hi):
            if self.a == 2.0:
                out[hi] = 0.0
            else:
                out[hi] = self._vals[-1] * (rho[hi] / self._grid[-1]) ** self._end_slope
        return out if out.shape else float(out)


_PROFILE_CACHE: dict[float, FhatProfile] = {}


def fhat_profile(a) -> FhatProfile:
    """Cached radial profile for a bump exponent a in (0, 2]."""
    a = float(a)
    if a not in _PROFILE_CACHE:
        _PROFILE_CACHE[a] = FhatProfile(a)
    return _PROFILE_CACHE[a]
