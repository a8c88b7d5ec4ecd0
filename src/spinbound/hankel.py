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
  the gate; for a >= 1 the series diverges and no node is trusted.  Each
  term is added only over the head of the ascending grid where it is
  nonzero (``_series_values``).
* Every other node uses the rotated-contour quadrature.  Direct oscillatory
  quadrature is hopeless because for small a the envelope decays over
  astronomically wide ranges of r, so the contour is rotated into the upper
  half-plane: with theta = min(pi/2, pi/(3a)) the Hankel kernel turns into
  an exponentially damped (K0 or complex Hankel-1) kernel and the integrand
  becomes smooth enough for log-spaced panels.  The rule covers all the
  rejected nodes in one pass (``_contour_values``): the per-exponent cuts
  are computed once, and each block of nodes gets its panels as flat
  arrays tagged with their node, one integrand evaluation and one
  np.add.reduceat.

The table is interpolated log-log by a not-a-knot cubic spline
(``spline.cubic_spline``).  Below the table the first value is held;
above it the spline's end slope carries the log-log line on (it
approximates the power-law tail fhat ~ C * rho^-(2+a), e.g.
-2.400000000001056 at a = 0.4), and the Gaussian (a = 2) is zero there.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, hankel1, k0

from .errors import ConfigError, ResolutionError
from .quadrature import gl_nodes
from .spline import cubic_spline

_EXP_CUTOFF = 45.0  # e^-45 ~ 3e-20 of peak
_CONTOUR_NODES = 10  # Gauss-Legendre points per contour panel
# contour nodes per evaluation block: 16 keeps a build's arrays near 2 MiB
# (10,000-32,000 points per block) and left the least resident heap of
# the block sizes 1-64 measured
_CONTOUR_BLOCK = 16

# power-law series: term count and the trust gate's thresholds
_SERIES_TERMS = 600
_SERIES_LOG_MAX = 600.0     # ln of the largest term summed; keeps the sums finite
_SERIES_ROUNDING = 1e-12    # rounding bound allowed, relative to the sum
_SERIES_TAIL_TERMS = 20
_SERIES_TAIL = 1e-18        # largest tail term allowed, relative to the sum
_LN_ZERO = -746.0           # exp(x) is exactly 0 in double precision below -745.14


def _contour_cuts(a):
    """Per-exponent constants of the rotated-contour rule.

    Returns (theta, c_env, s_env, s_env_cut, s_floor).  The contour turns by
    theta = min(pi/2, pi/(3a)), and c_env, s_env are cos and sin of
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
    u_star = 4.0 / (a * c_env)
    return (theta, c_env, s_env, u_cut ** (1.0 / a),
            (u_star * np.exp(-1.0 - 22.5 * a)) ** (1.0 / a))


def _ragged(counts):
    """Runs of counts[i] entries laid end to end: each entry's run and rank in it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _contour_panels(a, rho, cuts):
    """Panels of the rotated-contour rule at every node rho > 0.

    ``cuts`` is ``_contour_cuts(a)``.  A node's range is [s_lo, s_up]:
    s_up is the nearer of the envelope cut and the kernel cut
    _EXP_CUTOFF / (rho sin theta), and s_lo = min(1e-12 s_up, s_floor).
    Its panel edges are a geometric set on [s_lo, s_up], the kernel
    oscillation k pi / (rho cos theta) and the envelope oscillation
    (k pi / s_env)^(1/a), clipped to [s_lo, s_up] and merged as
    ``quadrature.merge_edges`` merges them.

    Returns (lo, hi, node, kernel_limited): the panel ends, node after
    node, the node of each panel, and whether the kernel cut lies below the
    envelope cut at each node.
    """
    theta, _, s_env, s_env_cut, s_floor = cuts
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    s_kernel_cut = _EXP_CUTOFF / (rho * sin_t)
    s_up = np.minimum(s_env_cut, s_kernel_cut)
    if not np.all(np.isfinite(s_up)):
        raise ResolutionError(
            "exponent a=%g too small for the contour quadrature" % a)
    s_lo = np.minimum(1e-12 * s_up, s_floor)

    # geometric set, as np.geomspace builds it: 10 ** (j step + log10 s_lo)
    # with the ends set exactly
    count = np.maximum(8, np.ceil(np.log10(s_up / s_lo) * 5.0).astype(int) + 1)
    node, j = _ragged(count)
    log_lo = np.log10(s_lo)
    step = (np.log10(s_up) - log_lo) / (count - 1)
    geo = 10.0 ** (j * step[node] + log_lo[node])
    geo = np.where(j == 0, s_lo[node], np.where(j == count[node] - 1, s_up[node], geo))
    nodes, edges = [node], [geo]
    if cos_t > 1e-12:
        # oscillation of the rotated Hankel kernel, exp(i rho s cos theta)
        node, k = _ragged(np.floor(rho * s_up * cos_t / np.pi).astype(int))
        nodes.append(node)
        edges.append((k + 1) * np.pi / (rho[node] * cos_t))
    # oscillation of the rotated envelope, phase (s_env/2) s^a
    node, k = _ragged(np.floor(s_env * s_up ** a / np.pi).astype(int))
    nodes.append(node)
    edges.append(((k + 1) * np.pi / s_env) ** (1.0 / a))

    node, e = np.concatenate(nodes), np.concatenate(edges)
    inside = (e >= s_lo[node]) & (e <= s_up[node])
    node, e = node[inside], e[inside]
    order = np.lexsort((e, node))
    node, e = node[order], e[order]
    starts = np.ones(len(e), dtype=bool)
    starts[1:] = node[1:] != node[:-1]
    keep = starts.copy()
    keep[1:] |= np.diff(e) > 1e-14 * np.maximum(e[1:], 1e-300)
    node, e, starts = node[keep], e[keep], starts[keep]
    # a panel joins each edge to the next one of the same node
    left = np.flatnonzero(~starts[1:])
    return e[left], e[left + 1], node[left], s_kernel_cut < s_env_cut


def _contour_values(a, rho):
    """fhat at every node rho > 0 for 0 < a < 2, by the rotated-contour rule.

    Nodes are taken _CONTOUR_BLOCK at a time: their panels are built, the
    integrand is evaluated at every Gauss-Legendre point, and
    np.add.reduceat adds up each node's panel sums.
    """
    cuts = _contour_cuts(a)
    theta, c_env, s_env = cuts[:3]
    x, w = gl_nodes(_CONTOUR_NODES)
    # H1_0(i x) = -(2i/pi) K0(x); at theta = pi/2, Re[e^{2 i theta} ...]
    # collapses to a real K0 integral
    real_k0 = theta >= 0.5 * np.pi - 1e-12
    out = np.empty(len(rho))
    for b in range(0, len(rho), _CONTOUR_BLOCK):
        block = rho[b:b + _CONTOUR_BLOCK]
        lo, hi, node, kernel_limited = _contour_panels(a, block, cuts)
        half = (0.5 * (hi - lo))[:, None]
        s = (0.5 * (hi + lo))[:, None] + half * x
        # weight times s first: below a ~ 0.017 this product overflows,
        # which FhatProfile reports as a ResolutionError
        ws = half * w * s
        r = block[node][:, None]
        sa = s ** a
        if real_k0:
            f = (ws * k0(np.minimum(r * s, 700.0)) * np.exp(-0.5 * c_env * sa)
                 * np.sin(0.5 * s_env * sa))
        else:
            ze = -0.5 * sa * (c_env + 1j * s_env)
            env = np.exp(ze)
            # env is replaced by env - 1 where the kernel cut sets the range:
            # the pure-kernel ray integral vanishes exactly (d/dz [z H1] =
            # z H0, boundary term is real), and the subtraction removes the
            # catastrophic cancellation that otherwise swamps the rho^(-2-a)
            # tail at large rho.  Where the envelope sets the range (small
            # rho) the plain form is cancellation-free and the subtracted
            # one is not
            sub = np.broadcast_to(kernel_limited[node][:, None], ze.shape)
            head = sub & (np.abs(ze) < 1e-2)
            env[sub] -= 1.0
            z = ze[head]
            env[head] = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
            f = ws * hankel1(0, r * s * np.exp(1j * theta)) * env
        sums = np.add.reduceat(f.sum(axis=1), np.flatnonzero(np.diff(node, prepend=-1)))
        if real_k0:
            out[b:b + _CONTOUR_BLOCK] = (2.0 / np.pi) * sums
        else:
            out[b:b + _CONTOUR_BLOCK] = np.real(np.exp(2j * theta) * sums)
    return out


def _series_values(a, rho):
    """Power-law series of fhat at ascending rho > 0, and where it can be trusted.

    Returns (values, trusted); values are unspecified where trusted is
    False.  Terms are built in log space and summed one n at a time.  A node
    is trusted when no term's log passes _SERIES_LOG_MAX, the sum S is
    positive, the rounding bound eps * sum |t_n| (1 + |ln t_n|) is at most
    _SERIES_ROUNDING * S, and each of the last _SERIES_TAIL_TERMS terms is
    at most _SERIES_TAIL * S.

    ln t_n = ln c_n - (2 + a n) ln rho falls with rho, so on the ascending
    grid term n is added only up to the node where ln t_n drops below
    _LN_ZERO: past it exp(ln t_n) is exactly 0, and adding it would change
    no sum, bound or maximum.
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
    # ln t_n, t_n and a spare row, written in place over each term's nodes:
    # temporaries sized to each term's nodes left the malloc heap laid out
    # otherwise and lifted the weak-well benchmark's peak RSS by 0.3 MiB
    work = np.empty((3,) + rho.shape)
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
        nonzero = slice(0, int(np.searchsorted(ln_rho, (ln_coeff - _LN_ZERO) / (2.0 + a * n),
                                               side="right")))
        ln_term, term, spare = work[:, nonzero]
        np.multiply(2.0 + a * n, ln_rho[nonzero], out=ln_term)
        np.subtract(ln_coeff, ln_term, out=ln_term)
        np.maximum(ln_max[nonzero], ln_term, out=ln_max[nonzero])
        np.minimum(ln_term, _SERIES_LOG_MAX, out=term)
        np.exp(term, out=term)
        np.multiply(math.copysign(1.0, sine) * (1.0 if n % 2 else -1.0), term, out=spare)
        total[nonzero] += spare
        np.abs(ln_term, out=spare)
        spare += 1.0
        spare *= term
        bound[nonzero] += spare
        if n > _SERIES_TERMS - _SERIES_TAIL_TERMS:
            np.maximum(tail[nonzero], term, out=tail[nonzero])
    trusted = ((ln_max <= _SERIES_LOG_MAX) & (total > 0.0)
               & (np.finfo(float).eps * bound <= _SERIES_ROUNDING * total)
               & (tail <= _SERIES_TAIL * total))
    return total, trusted


def _table(a, table_size):
    """Log-spaced rho grid and the profile's values on it."""
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
    if a == 2.0:
        rho_hi = 37.0  # Gaussian tail below 1e-300 past here
    grid = np.geomspace(rho_lo, rho_hi, table_size)
    if a == 2.0:
        vals = np.exp(-0.5 * grid * grid)
    elif a == 1.0:
        vals = 0.5 / (0.25 + grid * grid) ** 1.5
    else:
        vals, trusted = _series_values(a, grid)
        vals[~trusted] = _contour_values(a, grid[~trusted])
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        bad = int(np.argmin(vals))
        raise ResolutionError(
            "Hankel profile lost positivity at rho=%.3e (a=%.3f)" % (grid[bad], a))
    return grid, vals


class FhatProfile:
    """Tabulated radial transform of exp(-|x|^a/2), extrapolated past the table."""

    def __init__(self, a, table_size=4096):
        if not (0.0 < a <= 2.0):
            raise ConfigError("bump exponent a must lie in (0, 2]")
        self.a = float(a)
        try:
            # below a ~ 0.017 the scales and the contour rule overflow in
            # double precision; raised here, so no warning is emitted
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                grid, vals = _table(self.a, table_size)
        except ArithmeticError as exc:
            raise ResolutionError(
                "bump profile at a=%g cannot be tabulated: %s" % (a, exc)) from exc
        self.rho_lo, self.rho_hi = float(grid[0]), float(grid[-1])
        self._grid = grid
        self._vals = vals
        self._spline = cubic_spline(np.log(grid), np.log(vals))
        self._end_slope = float(self._spline(np.log(grid[-1]), 1))

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


def fhat_profile(a) -> FhatProfile:
    """Radial profile for a bump exponent a in (0, 2]."""
    return FhatProfile(float(a))
