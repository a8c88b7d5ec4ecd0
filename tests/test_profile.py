import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import k0e

from spinbound.certificate import grad_norm_sq, grad_norm_sq_quadrature
from spinbound.errors import ConfigError
from spinbound.hankel import (FhatProfile, _rotated_hankel_point,
                              _series_values, fhat_at_zero, fhat_profile)
from spinbound.quadrature import log_rule


def _oracle_fhat(a, rho):
    """Independent evaluation of the bump transform for a < 1.

    Rotating the Hankel contour to the positive imaginary axis turns the
    oscillatory Bessel kernel into the monotone K0:

        fhat_a(rho) = (2/pi) * int_0^inf s K0(rho s)
                      * exp(-cos(pi a/2) s^a / 2) * sin(sin(pi a/2) s^a / 2) ds

    The integrand spans hundreds of orders of magnitude for small a, so the
    sum is accumulated in log space.
    """
    assert 0 < a < 1
    c1 = 0.5 * math.cos(0.5 * math.pi * a)
    c2 = 0.5 * math.sin(0.5 * math.pi * a)
    # envelope cut: c1 * u buys down to e^-60 against polynomial growth
    u_cut = 60.0 / c1
    for _ in range(60):
        u_cut = (60.0 + (3.0 + 2.0 / a) * math.log(u_cut)) / c1
    v_hi = math.log(u_cut) / a
    v_lo = min(-40.0, math.log(1e-3 / rho))
    panels = 800
    v, w = log_rule(math.exp(v_lo), math.exp(v_hi), panels, 12)
    v = np.log(v)        # nodes in v = ln s; log_rule weights already carry s dv

    t = math.log(rho) + v                     # ln(rho * s)
    u = np.exp(np.minimum(a * v, 700.0))      # s^a
    alive = (t < 690.0) & (c1 * u < 700.0)
    t, u, v, w = t[alive], u[alive], v[alive], w[alive]
    # ln K0: series head for tiny arguments, scaled Bessel elsewhere
    ln_k0 = np.empty_like(t)
    small = t < -30.0
    ln_k0[small] = np.log(-t[small] + math.log(2.0) - np.euler_gamma)
    x = np.exp(t[~small])
    ln_k0[~small] = np.log(k0e(x)) - x
    phase = np.sin(c2 * u)
    ln_mag = v + ln_k0 - c1 * u + np.log(np.maximum(np.abs(phase), 1e-300)) + np.log(w)
    peak = np.max(ln_mag)
    return (2.0 / math.pi) * math.exp(peak) * float(
        np.sum(np.sign(phase) * np.exp(ln_mag - peak)))


def test_value_at_zero():
    assert fhat_at_zero(1.0) == pytest.approx(4.0, rel=1e-13)
    for a in (0.25, 0.5, 1.5, 2.0):
        want = 2.0 ** (2.0 / a) * math.gamma(2.0 / a) / a
        assert fhat_at_zero(a) == pytest.approx(want, rel=1e-13)


def test_gaussian_closed_form():
    prof = fhat_profile(2.0)
    rho = np.linspace(0.01, 8.0, 200)
    assert np.max(np.abs(prof(rho) - np.exp(-0.5 * rho * rho))) < 1e-8


def test_exponential_closed_form():
    # a = 1: fhat(rho) = (1/2) / (1/4 + rho^2)^(3/2)
    prof = fhat_profile(1.0)
    rho = np.geomspace(1e-3, 1e3, 120)
    want = 0.5 / (0.25 + rho * rho) ** 1.5
    # table nodes are exact to ~1e-13; 4096-point log-spline interpolation
    # between them carries ~1e-7 relative error
    assert np.max(np.abs(prof(rho) / want - 1.0)) < 3e-7


def test_contour_rule_at_exponential():
    # the a = 1 table is the closed form; the contour rule it replaced must
    # still reproduce it, since every 1 < a < 2 table comes from that rule
    prof = fhat_profile(1.0)
    grid = np.geomspace(prof.rho_lo, prof.rho_hi, 4096)
    want = 0.5 / (0.25 + grid * grid) ** 1.5
    assert np.array_equal(prof._vals, want)
    sample = np.arange(0, grid.size, 61)
    got = np.array([_rotated_hankel_point(1.0, rho) for rho in grid[sample]])
    assert np.max(np.abs(got / want[sample] - 1.0)) < 1e-10


@pytest.mark.parametrize("a", [0.4, 0.2, 0.1, 0.05, 0.025])
def test_profile_against_contour_oracle(a):
    prof = fhat_profile(a)
    # sample across the flat head, the shoulder, and the far tail
    for rho in (prof.rho_lo * 3.0, prof.rho_half, 10.0 * prof.rho_half,
                1e4 * prof.rho_half):
        want = _oracle_fhat(a, rho)
        assert prof(rho) == pytest.approx(want, rel=1e-8)


def _mp_series(mp, a, rhos, terms):
    """The power-law series of fhat at each rho, summed in mpmath."""
    a = mp.mpf(a)
    coeffs = [(-1) ** (n + 1) * 2 / mp.pi * mp.sinpi(a * n / 2)
              * mp.gamma(1 + a * n / 2) ** 2 * mp.mpf(2) ** (a * n - n)
              / mp.factorial(n) for n in range(1, terms + 1)]
    out = []
    for rho in rhos:
        inv = 1 / mp.mpf(rho)
        step = inv ** a
        power = inv ** 2
        total = mp.mpf(0)
        for c in coeffs:
            power *= step
            total += c * power
        out.append(float(total))
    return np.array(out)


@pytest.mark.parametrize("a", [0.4, 0.1, 0.025])
def test_series_against_mpmath(a):
    mp = pytest.importorskip("mpmath")
    prof = fhat_profile(a)
    grid = np.geomspace(prof.rho_lo, prof.rho_hi, 4096)
    vals, trusted = _series_values(a, grid)
    accepted = np.flatnonzero(trusted)
    assert accepted.size > 0.6 * grid.size
    # the low-rho edge of the accepted range carries the most cancellation
    sample = np.union1d(accepted[:8], accepted[::97])
    with mp.workdps(60):
        # 800 terms: the 200 past the float sum check its truncation too
        want = _mp_series(mp, a, grid[sample], 800)
    assert np.max(np.abs(vals[sample] / want - 1.0)) < 1e-12
    # the table holds the series value wherever the gate trusts it
    assert np.array_equal(prof._vals[trusted], vals[trusted])


def test_series_gate_rejects_cancelling_node():
    # at a = 0.4 and rho ~ 1.4e-6 the terms grow past 1e300 and cancel: the
    # float sum is far off, and the node must come from the contour rule
    a = 0.4
    prof = fhat_profile(a)
    grid = np.geomspace(prof.rho_lo, prof.rho_hi, 4096)
    i = int(np.argmin(np.abs(np.log(grid / 1.4e-6))))
    vals, trusted = _series_values(a, grid[i:i + 1])
    assert not trusted[0]
    want = _rotated_hankel_point(a, grid[i])
    assert abs(vals[0] - want) > want
    assert prof(grid[i]) == pytest.approx(want, rel=1e-14)


def test_series_not_trusted_where_divergent():
    # for a > 1 the series is only asymptotic; the contour rule does all.
    # Past rho ~ 6 its first 600 terms fall fast enough to pass the
    # rounding and tail checks, so convergence must be checked apart
    grid = np.geomspace(1e-3, 1e80, 4096)
    _, trusted = _series_values(1.5, grid)
    assert not np.any(trusted)


@pytest.mark.parametrize("a", [0.4, 0.2, 0.1, 0.05])
def test_profile_positive_and_decaying(a):
    prof = fhat_profile(a)
    rho = np.geomspace(prof.rho_lo, prof.rho_hi, 400)
    vals = prof(rho)
    assert np.all(vals > 0.0)
    assert np.all(np.isfinite(vals))
    assert vals[-1] < 1e-10 * vals[0]


@pytest.mark.parametrize("a,tol", [(2.0, 1e-8), (1.0, 1e-7), (0.4, 1e-6),
                                   (0.1, 1e-6), (0.05, 1e-6)])
def test_mass_identity(a, tol):
    # int_0^inf fhat(rho) rho drho = f_a(0) = 1
    prof = fhat_profile(a)
    rho, w = log_rule(prof.rho_lo, prof.rho_hi * (1 - 1e-12), 4096, 8)
    head = 0.5 * prof.value_at_zero * prof.rho_lo ** 2
    if a == 2.0:
        tail = 0.0
    else:
        tail = prof.tail_coefficient * prof.rho_hi ** (-a) / a
    total = float(np.sum(w * rho * prof(rho))) + head + tail
    assert total == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("a,rtol", [(2.0, 1e-7), (1.0, 1e-6), (0.4, 1e-5),
                                    (0.1, 1e-5), (0.05, 1e-5)])
def test_dirichlet_identity(a, rtol):
    # Parseval form of the pi*a/2 Dirichlet integral: int fhat^2 rho^3 drho = a/4
    prof = fhat_profile(a)
    rho, w = log_rule(prof.rho_lo, prof.rho_hi * (1 - 1e-12), 4096, 8)
    # rho^3 alone overflows at the far end of the table; pair each rho^1.5
    # with one factor of fhat before squaring
    total = float(np.sum(w * (rho ** 1.5 * prof(rho)) ** 2))
    assert total == pytest.approx(0.25 * a, rel=rtol)


def test_grad_norm_closed_forms():
    assert grad_norm_sq(1.0) == pytest.approx(np.pi / 2.0, rel=1e-15)
    assert grad_norm_sq(2.0) == pytest.approx(np.pi, rel=1e-15)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
def test_grad_norm_quadrature(a):
    assert grad_norm_sq_quadrature(a) == pytest.approx(grad_norm_sq(a), abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 2.0))
def test_grad_norm_quadrature_property(a):
    assert grad_norm_sq_quadrature(a) == pytest.approx(0.5 * np.pi * a, rel=1e-6)


def test_domain_validation():
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ConfigError):
            FhatProfile(bad)
        with pytest.raises(ConfigError):
            grad_norm_sq(bad)
