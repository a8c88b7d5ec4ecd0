import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, hankel1, k0, k0e

from conftest import grad_norm_sq_quadrature, log_rule
from spinbound.errors import ConfigError, ResolutionError
from spinbound import hankel
from spinbound.hankel import (FhatProfile, _contour_cuts, _contour_values, _k0,
                              _series_coefficients, fhat_profile)
from spinbound.quadrature import merge_edges, panel_rule
from spinbound.spline import cubic_spline


def fhat_at_zero(a):
    """fhat(0) = 2^(2/a) Gamma(2/a) / a (Gamma integral after u = r^a/2)."""
    return 2.0 ** (2.0 / a) * math.gamma(2.0 / a) / a


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


def _r2_moment(a, k=1):
    """<r^2k> = 2^(2k/a) Gamma((2k+2)/a) / Gamma(2/a) of the weight r exp(-r^a/2)."""
    return math.exp(2 * k / a * math.log(2.0) + math.lgamma((2 * k + 2) / a)
                    - math.lgamma(2.0 / a))


def test_value_at_zero():
    # every table starts at rho_lo = 1e-12, where fhat = fhat(0) (1 -
    # rho^2 <r^2> / 4 + O(rho^4)); <r^2> is 483,840 at a = 0.4, 24 at a = 1
    # and 2 at a = 2, so fhat(rho_lo) = fhat(0) to 1.2e-19
    assert fhat_at_zero(1.0) == 4.0
    for a in (0.4, 1.0, 2.0):
        prof = fhat_profile(a)
        assert prof.rho_lo == pytest.approx(1e-12, rel=1e-14)
        assert prof(prof.rho_lo) == pytest.approx(fhat_at_zero(a), rel=1e-12)


@pytest.mark.parametrize("a", [0.4, 0.3, 0.2])
def test_table_head_against_small_rho_series(a):
    # J0(x) = 1 - x^2/4 + x^4/64 - ...: fhat(rho) = fhat(0) (1 - rho^2 <r^2>/4
    # + rho^4 <r^4>/64 - ...).  At the first node past 1e-4 / sqrt(<r^2>)
    # (1.5e-7 at a = 0.4, 5.6e-12 at a = 0.2) the rho^2 term is 2.5e-9 to
    # 2.8e-9, the rho^4 term 3.2e-17 to 3.8e-16, and the omitted rho^6 term
    # below 1e-21.  Below a = 0.2 that node lies under the window's edge
    prof = fhat_profile(a)
    moment = [_r2_moment(a, k) for k in (1, 2)]
    node = int(np.searchsorted(prof._grid, 1e-4 / math.sqrt(moment[0])))
    x = prof._grid[node] ** 2
    want = fhat_at_zero(a) * (1.0 - x * moment[0] / 4.0 + x * x * moment[1] / 64.0)
    assert prof._vals[node] == pytest.approx(want, rel=1e-14, abs=0.0)


def _step(prof):
    """The ln-rho step of a profile's table grid."""
    return math.log(prof.rho_hi / prof.rho_lo) / (prof._grid.size - 1)


def test_gaussian_closed_form():
    prof = fhat_profile(2.0)
    rho = np.linspace(0.01, 8.0, 200)
    assert np.max(np.abs(prof(rho) - np.exp(-0.5 * rho * rho))) < 1e-8


def test_exponential_closed_form():
    # a = 1: fhat(rho) = (1/2) / (1/4 + rho^2)^(3/2)
    prof = fhat_profile(1.0)
    rho = np.geomspace(1e-3, 1e3, 120)
    want = 0.5 / (0.25 + rho * rho) ** 1.5
    # table nodes are exact to ~1e-13; 1280-point log-spline interpolation
    # between them carries ~1e-7 relative error
    assert np.max(np.abs(prof(rho) / want - 1.0)) < 3e-7


def test_contour_rule_at_exponential():
    # the a = 1 table comes from the contour rule, as every 0 < a < 2 table
    # does, and reproduces the closed form at every node
    prof = fhat_profile(1.0)
    want = 0.5 / (0.25 + prof._grid ** 2) ** 1.5
    assert np.max(np.abs(prof._vals / want - 1.0)) < 1e-13


@pytest.mark.parametrize("a", [0.025, 0.4, 0.9, 1.0, 1.5, 1.9])
def test_one_contour_call_per_build(a, monkeypatch):
    # every node of the table comes from one lattice sum, and the nodes lie
    # on that lattice: ln rho_i = ln rho_lo + i step to rounding
    calls = []
    rule = hankel._contour_values

    def recorded(a, rho, step):
        calls.append((rho, step))
        return rule(a, rho, step)

    monkeypatch.setattr(hankel, "_contour_values", recorded)
    prof = FhatProfile(a)
    (rho, step), = calls
    assert np.array_equal(rho, prof._grid)
    assert step == pytest.approx(_step(prof), rel=1e-14)
    lattice = math.log(prof.rho_lo) + step * np.arange(rho.size)
    assert np.max(np.abs(np.log(rho) - lattice)) < 1e-13


def _scalar_contour(a, rho, nodes_per_panel=10):
    """fhat(rho) by the rotated-contour rule on Gauss-Legendre panels, one node at a time.

    The reference for the lattice rule ``_contour_values``: the same cuts
    and integrands on panels built with np.geomspace, ``merge_edges`` and
    ``panel_rule`` for the single node rho.  Each panel is split at the
    kernel's and the envelope's oscillations.
    """
    theta = min(0.5 * np.pi, np.pi / (3.0 * a))
    at = a * theta
    c_env = np.cos(at)
    s_env = np.sin(at)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    u_cut = 2.0 * 45.0 / c_env
    for _ in range(40):
        u_cut = (2.0 / c_env) * (45.0 + (2.0 / a) * np.log(u_cut))
    s_env_cut = u_cut ** (1.0 / a)
    s_kernel_cut = 45.0 / (rho * sin_t)
    s_up = min(s_env_cut, s_kernel_cut)
    u_star = 4.0 / (a * c_env)
    s_lo = min(1e-12 * s_up, (u_star * np.exp(-1.0 - 22.5 * a)) ** (1.0 / a))

    edge_sets = [np.geomspace(s_lo, s_up, max(8, int(np.ceil(
        np.log10(s_up / s_lo) * 5)) + 1))]
    if cos_t > 1e-12:
        k1 = int(np.floor(rho * s_up * cos_t / np.pi))
        if k1 >= 1:
            edge_sets.append(np.arange(1, k1 + 1) * np.pi / (rho * cos_t))
    k2 = int(np.floor(s_env * s_up ** a / np.pi))
    if k2 >= 1:
        edge_sets.append((np.arange(1, k2 + 1) * np.pi / s_env) ** (1.0 / a))
    edges = merge_edges(*edge_sets)
    edges = edges[(edges >= s_lo) & (edges <= s_up)]
    edges = merge_edges(edges, [s_lo, s_up])

    s, w = panel_rule(edges, nodes_per_panel)
    env = np.exp(-0.5 * (s ** a) * (c_env + 1j * s_env))
    if theta >= 0.5 * np.pi - 1e-12:
        kernel = k0(np.minimum(rho * s, 700.0))
        val = (2.0 / np.pi) * np.sum(w * s * kernel * np.exp(-0.5 * c_env * s ** a)
                                     * np.sin(0.5 * s_env * s ** a))
        return float(val)
    kernel = hankel1(0, rho * s * np.exp(1j * theta))
    if s_kernel_cut < s_env_cut:
        # env - 1 to full precision where s^a is small
        x, y = -0.5 * c_env * s ** a, -0.5 * s_env * s ** a
        env = (np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
               + 1j * np.exp(x) * np.sin(y))
    val = np.real(np.exp(2j * theta) * np.sum(w * s * kernel * env))
    return float(val)


@pytest.mark.parametrize("a", [0.025, 0.05, 0.1, 0.2, 0.4, 0.7, 0.9])
def test_contour_values_match_scalar_rule(a):
    prof = fhat_profile(a)
    rho, step = prof._grid, _step(prof)
    theta, _, _, ln_env_cut, _ = _contour_cuts(a)
    kernel_limited = np.log(45.0 / (rho * np.sin(theta))) < ln_env_cut
    # evenly spread nodes, and the two on each side of the switch from
    # envelope-limited (s_up = s_env_cut) to kernel-limited ranges
    sample = np.linspace(0, rho.size - 1, 24).astype(int)
    switch = np.flatnonzero(np.diff(kernel_limited))
    sample = np.union1d(sample, np.concatenate([switch, switch + 1]))
    if a == 0.4:
        assert not kernel_limited[0] and rho[switch[0]] < 2e-4
    if a >= 2.0 / 3.0:
        # the Hankel-1 branch, where kernel-limited nodes take env - 1
        assert kernel_limited[sample].any()
    want = np.array([_scalar_contour(a, r) for r in rho[sample]])
    got = _contour_values(a, rho[sample], step)
    assert np.max(np.abs(got / want - 1.0)) < 1e-13
    # the lattice has converged: half the step moves no node beyond rounding
    finer = _contour_values(a, rho[sample], 0.5 * step)
    assert np.max(np.abs(finer / got - 1.0)) < 1e-14


def _mp_fhat(mp, a, rho):
    """fhat(rho) = int_0^inf r J0(rho r) exp(-r^a/2) dr on the real axis, to 20 digits.

    Tanh-sinh on pieces of four half-periods of J0 up to where the
    envelope falls below e^-86.
    """
    with mp.workdps(20):
        a, rho = mp.mpf(a), mp.mpf(rho)
        r_max = 172 ** (1 / a)
        piece = 4 * mp.pi / rho
        edges = [k * piece for k in range(int(mp.ceil(r_max / piece)) + 1)]
        return float(mp.quad(lambda r: r * mp.besselj(0, rho * r) * mp.exp(-r ** a / 2),
                             edges))


@pytest.mark.parametrize("a", [1.5, 1.9])
def test_contour_values_against_mpmath_past_one(a):
    # for 1 < a < 2 every node comes from the contour rule.  At rho ~ 8 and
    # ~ 18 the subtracted envelope env - 1 is small over the whole
    # integrand, where a four-term Taylor head of it had been up to 6e-11
    # off; both rules now agree with the real-axis integral to 1e-13
    mp = pytest.importorskip("mpmath")
    prof = fhat_profile(a)
    for rho_near in (8.0, 18.0):
        node = np.argmin(np.abs(np.log(prof._grid / rho_near)))
        rho = prof._grid[node]
        want = _mp_fhat(mp, a, rho)
        lattice = _contour_values(a, np.array([rho]), _step(prof))[0]
        panel = _scalar_contour(a, rho)
        assert abs(lattice - want) <= max(2.0 * abs(panel - want), 1e-13 * want)
        assert abs(lattice - want) <= 1e-13 * want
        assert prof._vals[node] == pytest.approx(lattice, rel=1e-14)


@pytest.mark.parametrize("a,evaluations", [(0.4, 1162), (0.2, 1013), (0.1, 641),
                                           (0.05, 641), (1.5, 1296)])
def test_contour_kernel_evaluations(a, evaluations, monkeypatch):
    # one kernel value per lattice point of rho s per build, for all 1280
    # nodes.  Per-node Gauss-Legendre panels took 157,960 (a = 0.4) to
    # 682,750 (a = 0.05) kernel values for the low-rho nodes alone, and
    # 3,254,560 for 4096 nodes at a = 1.5.  From a = 0.1 down the kernel
    # cut sets every node's range, so the count no longer grows.  The
    # 4096-node table on a window to 1e110 took 732 / 638 / 404 / 404 /
    # 1083: its finer step spanned the same ranges of s in fewer values
    count = []
    kernel = hankel._k0

    def counted(w):
        count.append(np.size(w))
        return kernel(w)

    monkeypatch.setattr(hankel, "_k0", counted)
    FhatProfile(a)
    assert len(count) == 1 and count[0] == evaluations


@pytest.mark.parametrize("a", [0.4, 0.025, 0.9, 1.5, 1.9])
def test_kernel_on_the_lattice_matches_scipy(a, monkeypatch):
    # every kernel value of one build: K0 on a real lattice from about
    # 1e-38 up (a <= 2/3), or H0^(1) at arg theta = 1.16, 0.70 and 0.55.
    # H0^(1)(z) = (2 / (pi i)) K0(-i z), and z = i w is exact in floating
    # point, so both sides see the same argument
    seen = []

    def recorded(w):
        seen.append(w)
        return _k0(w)

    monkeypatch.setattr(hankel, "_k0", recorded)
    FhatProfile(a)
    (w,) = seen
    if a <= 2.0 / 3.0:
        assert w.dtype == float
        assert np.max(np.abs(_k0(w) / k0(w) - 1.0)) < 5e-15
    else:
        theta = _contour_cuts(a)[0]
        assert np.allclose(np.angle(w), theta - 0.5 * np.pi, rtol=0.0, atol=1e-15)
        want = hankel1(0, 1j * w)
        assert np.max(np.abs((-2j / np.pi) * _k0(w) / want - 1.0)) < 5e-15


def test_k0_matches_scipy_across_the_range():
    # the trapezoid rule's error peaks just past the series' reach (1.4e-14
    # at |w| = 1.01 if the series stopped at 1); both peak at 2.2e-15 here
    x = np.geomspace(1.6e-38, 43.0, 20_000)
    assert np.max(np.abs(_k0(x) / k0(x) - 1.0)) < 5e-15
    for theta in (0.55, 0.70, 1.16):
        w = np.geomspace(1e-30, 85.0, 20_000) * np.exp(1j * (theta - 0.5 * np.pi))
        want = hankel1(0, 1j * w)
        assert np.max(np.abs((-2j / np.pi) * _k0(w) / want - 1.0)) < 5e-15, theta


@pytest.mark.parametrize("a", [0.025, 0.05, 0.1, 0.2, 0.4, 0.9, 1.5, 1.9])
def test_grid_anchor_lgamma_matches_scipy(a):
    # the small-rho moments <r^2k> of the head tests take ln Gamma(4/a) -
    # ln Gamma(2/a), as the table's per-exponent anchor once did
    for x in (2.0 / a, 4.0 / a):
        assert math.lgamma(x) == pytest.approx(float(gammaln(x)), rel=1e-15)


def test_contour_memory_peak():
    # the contour rule holds a few lattice tables of about 1,300 points
    # each and its 1280 node sums: the a = 0.025 build peaks at 0.25 MiB of
    # arrays (0.89 MiB at a = 1.9, whose kernel is complex), where per-node
    # panels in blocks of 16 nodes peaked near 2 MiB
    tracemalloc.start()
    try:
        FhatProfile(0.025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _rho_half(prof):
    """First table radius where the profile falls to half of fhat(0)."""
    half = np.searchsorted(-prof._vals, -0.5 * fhat_at_zero(prof.a))
    return float(prof._grid[min(half, prof._grid.size - 1)])


@pytest.mark.parametrize("a", [0.4, 0.2, 0.1, 0.05, 0.025])
def test_profile_against_contour_oracle(a):
    prof = fhat_profile(a)
    rho_half = _rho_half(prof)
    # sample across the flat head, the shoulder, and the far tail
    for rho in (prof.rho_lo * 3.0, rho_half, 10.0 * rho_half, 1e4 * rho_half):
        want = _oracle_fhat(a, rho)
        assert prof(rho) == pytest.approx(want, rel=1e-8)


def _mp_coefficients(mp, a, terms):
    """c_1 .. c_terms of fhat(rho) = sum_n c_n rho^-(2 + a n), in mpmath."""
    a = mp.mpf(a)
    return [(-1) ** (n + 1) * 2 / mp.pi * mp.sinpi(a * n / 2)
            * mp.gamma(1 + a * n / 2) ** 2 * mp.mpf(2) ** (a * n - n)
            / mp.factorial(n) for n in range(1, terms + 1)]


def _mp_series(mp, a, rhos, terms):
    """The power-law series of fhat at each rho, summed in mpmath, and where it converged.

    fhat(rho) = sum_{n>=1} (-1)^(n+1) (2/pi) sin(pi a n/2) Gamma(1 + a n/2)^2
    2^(a n - n) / n! * rho^-(2 + a n) converges for every rho when a < 1
    (the 2D analogue of Bergstrom's expansion, Ark. Mat. 2 (1952) 375), but
    at small rho its terms grow huge and cancel.  A sum counts as converged
    where it is positive, no term passes 1e40 times it (so 60 digits leave
    20) and none of its last 20 terms passes 1e-20 times it.
    """
    coeffs = _mp_coefficients(mp, a, terms)
    out, converged = [], []
    for rho in rhos:
        inv = 1 / mp.mpf(rho)
        step = inv ** a
        power = inv ** 2
        total = largest = tail = mp.mpf(0)
        for n, c in enumerate(coeffs):
            power *= step
            term = c * power
            total += term
            largest = max(largest, abs(term))
            if n >= terms - 20:
                tail = max(tail, abs(term))
        out.append(float(total))
        converged.append(bool(total > 0 and largest <= mp.mpf(10) ** 40 * total
                              and tail <= mp.mpf(10) ** -20 * total))
    return np.array(out), np.array(converged)


# the least rho at which the power-law series summed in double precision
# passed a rounding and convergence check; the contour rule and that float
# sum differed most (up to 3.1e-12) there.  At a = 0.025 and 0.05 it lies
# below the table's window
_SERIES_GATE_EDGE = {0.025: 1.05e-23, 0.05: 1.91e-13, 0.1: 1.35e-7, 0.2: 2.20e-4,
                     0.4: 1.16e-2, 0.7: 0.122, 0.9: 0.317}


@pytest.mark.parametrize("a", sorted(_SERIES_GATE_EDGE))
def test_series_against_mpmath(a):
    # every 16th node and the eight from the old gate edge up, wherever
    # the 60-digit series converges, which it does on every one of them
    # from that edge to the window's end at 1e12.  The worst node is
    # 9.4e-15 off (a = 0.9, rho ~ 4e3), and the gate-edge nodes 3.4e-15
    mp = pytest.importorskip("mpmath")
    prof = fhat_profile(a)
    edge = int(np.searchsorted(prof._grid, _SERIES_GATE_EDGE[a]))
    sample = np.union1d(np.arange(0, prof._grid.size, 16), np.arange(edge, edge + 8))
    with mp.workdps(60):
        # 800 terms: the tail check sees the last 20
        want, converged = _mp_series(mp, a, prof._grid[sample], 800)
    assert converged[sample >= edge].all()
    assert np.max(np.abs(prof._vals[sample[converged]] / want[converged] - 1.0)) < 1e-13


@pytest.mark.parametrize("a", [0.4, 0.1, 0.025])
def test_kinetic_tail_coefficients_against_mpmath(a):
    # the kinetic tail past its radial end is a double sum over these
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = [float(c) for c in _mp_coefficients(mp, a, 2)]
    assert np.allclose(_series_coefficients(a, 2), want, rtol=1e-14, atol=0.0)


def test_series_coefficients_vanish_where_the_sine_does():
    # sin(pi a n / 2) = 0 for every n at a = 2 and for even n at a = 1
    assert np.all(_series_coefficients(2.0, 8) == 0.0)
    assert np.all(_series_coefficients(1.0, 8)[1::2] == 0.0)


@pytest.mark.parametrize("a", [0.4, 0.2, 0.1, 0.05])
def test_profile_positive_and_decaying(a):
    prof = fhat_profile(a)
    rho = np.geomspace(prof.rho_lo, prof.rho_hi, 400)
    vals = prof(rho)
    assert np.all(vals > 0.0)
    assert np.all(np.isfinite(vals))
    assert vals[-1] < 1e-10 * vals[0]


def _below_window(prof, k):
    """int_0^rho_lo rho^(2k-1) fhat^k d rho, fhat carried below the table by the contour rule.

    The rule's lattice runs on down to rho_flat = 1e-4 / sqrt(<r^2>), below
    which fhat = fhat(0) to 2.5e-9; between the nodes fhat is interpolated
    log-log by a cubic spline, as in the table.  Below a = 0.2 the window's
    edge 1e-12 lies above rho_flat, and at a = 0.05 a seventh of the mass
    and a tenth of int fhat^2 rho^3 d rho lie below it.
    """
    flat = min(1e-4 / math.sqrt(_r2_moment(prof.a)), prof.rho_lo)
    head = fhat_at_zero(prof.a) ** k * flat ** (2 * k) / (2 * k)
    if flat == prof.rho_lo:
        return head
    step = _step(prof)
    rho = prof.rho_lo * np.exp(-step * np.arange(int(math.log(prof.rho_lo / flat) / step) + 2))
    rho = rho[::-1]
    spline = cubic_spline(np.log(rho), np.log(_contour_values(prof.a, rho, step)))
    r, w = log_rule(rho[0], rho[-1], 16, 8)
    return (fhat_at_zero(prof.a) ** k * rho[0] ** (2 * k) / (2 * k)
            + float(np.sum(w * r ** (2 * k - 1) * np.exp(k * spline(np.log(r))))))


@pytest.mark.parametrize("a,tol", [(2.0, 1e-8), (1.0, 1e-7), (0.4, 1e-6),
                                   (0.1, 1e-6), (0.05, 1e-6)])
def test_mass_identity(a, tol):
    # int_0^inf fhat(rho) rho drho = f_a(0) = 1
    # past the table, Bergstrom's series (0 at a = 2) integrates term by term
    prof = fhat_profile(a)
    rho, w = log_rule(prof.rho_lo, prof.rho_hi * (1 - 1e-12), 4096, 8)
    head = _below_window(prof, 1)
    n = np.arange(1, prof.coefficients.size + 1)
    tail = float(np.sum(prof.coefficients * prof.rho_hi ** (-n * a) / (n * a)))
    total = float(np.sum(w * rho * prof(rho))) + head + tail
    assert total == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("a,rtol", [(2.0, 1e-7), (1.0, 1e-6), (0.4, 1e-5),
                                    (0.1, 1e-5), (0.05, 1e-5)])
def test_dirichlet_identity(a, rtol):
    # Parseval form of the pi*a/2 Dirichlet integral: int fhat^2 rho^3 drho = a/4
    prof = fhat_profile(a)
    rho, w = log_rule(prof.rho_lo, prof.rho_hi * (1 - 1e-12), 4096, 8)
    # pair each rho^1.5 with one factor of fhat before squaring; past the
    # table fhat^2 is the square of Bergstrom's series
    total = float(np.sum(w * (rho ** 1.5 * prof(rho)) ** 2)) + _below_window(prof, 2)
    powers = np.convolve(prof.coefficients, prof.coefficients)
    s = np.arange(2, powers.size + 2)
    total += float(np.sum(powers * prof.rho_hi ** (-s * a) / (s * a)))
    assert total == pytest.approx(0.25 * a, rel=rtol)


def test_grad_norm_closed_forms():
    # a = 2: int 2 pi r^3 exp(-r^2) dr = pi; a = 1: int (pi/2) r exp(-r) dr = pi/2
    assert grad_norm_sq_quadrature(1.0) == pytest.approx(np.pi / 2.0, rel=1e-12)
    assert grad_norm_sq_quadrature(2.0) == pytest.approx(np.pi, rel=1e-12)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
def test_grad_norm_quadrature(a):
    assert grad_norm_sq_quadrature(a) == pytest.approx(0.5 * np.pi * a, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 2.0))
def test_grad_norm_quadrature_property(a):
    assert grad_norm_sq_quadrature(a) == pytest.approx(0.5 * np.pi * a, rel=1e-6)


@pytest.mark.parametrize("a", [0.017, 0.0125, 0.005, 0.001, 5.8e-4, 6e-6, 1e-100, 2e-280,
                               7.4e-284])
def test_profile_builds_on_the_window(a):
    # every exponent tabulates on rho in [1e-12, 1e12], where a table
    # anchored at 1e-4 / sqrt(<r^2>) overflowed below a = 0.01704.  The
    # last node holds fhat(1e12) = 3.03e-25 a from a = 1e-60 or so down,
    # a normal float down to a = 7.35e-284
    prof = FhatProfile(a)
    assert prof.rho_lo == 1e-12 and prof.rho_hi == 1e12
    assert np.all(prof._vals >= np.finfo(float).tiny) and np.all(np.isfinite(prof._vals))
    assert np.all(np.diff(prof._vals) < 0.0)


@pytest.mark.parametrize("a", [7.3e-284, 1e-300, 5e-324])
def test_untabulable_exponent_raises_typed_error(a):
    # below a = 7.35e-284 the table's last value fhat(1e12) = 3.03e-25 a
    # is below the least normal float (at a = 1e-290 it would be 3.0e-315);
    # the failure must be a ResolutionError, with no RuntimeWarning (an
    # error here) first
    with pytest.raises(ResolutionError):
        FhatProfile(a)


# the largest relative error of the spline at the midpoints of the table's
# lattice, as measured; the ln rho step is 0.0432 at every a.  4096 nodes
# to an upper edge that fell with a (step 0.0471 at a = 1.9) gave 2.3e-13,
# 1.2e-8, 7.5e-8, 3.8e-7 and 6.7e-6
_MIDPOINT_ERROR = {0.025: 3.5e-14, 0.4: 1.9e-9, 0.9: 1.9e-8, 1.5: 1.9e-7, 1.9: 4.9e-6}


@pytest.mark.parametrize("a", sorted(_MIDPOINT_ERROR))
def test_spline_between_the_nodes(a):
    # the reference is the contour rule itself on the half-step lattice,
    # whose odd nodes are the midpoints
    prof = fhat_profile(a)
    step = _step(prof)
    half = prof.rho_lo * np.exp(0.5 * step * np.arange(2 * prof._grid.size - 1))
    want = _contour_values(a, half, 0.5 * step)
    assert np.max(np.abs(prof(half[1::2]) / want[1::2] - 1.0)) <= _MIDPOINT_ERROR[a]


@pytest.mark.parametrize("a", [0.025, 0.4, 0.9, 1.5, 1.9])
def test_series_past_the_window(a):
    # past rho = 1e12 the profile is Bergstrom's series in its 40
    # coefficients: it meets the table's last node to 1.3e-14 (a = 1.9) and
    # the series summed to 60 digits with 60 terms to 1.3e-15
    mp = pytest.importorskip("mpmath")
    prof = fhat_profile(a)
    end = prof._grid[-1]
    assert end == pytest.approx(1e12, rel=1e-13)
    assert abs(prof(end) / prof._vals[-1] - 1.0) < 1e-13
    rho = np.geomspace(end, 1e60, 25)
    with mp.workdps(60):
        want, converged = _mp_series(mp, a, rho, 60)
    assert converged.all()
    assert np.max(np.abs(prof(rho) / want - 1.0)) < 1e-13


def test_gaussian_at_every_rho():
    # a = 2 is its closed form, with no table under it
    prof = fhat_profile(2.0)
    rho = np.array([0.0, 1e-13, 1e-3, 0.5, 1.0, 8.0, 37.0, 40.0, 1e3])
    assert np.array_equal(prof(rho), np.exp(-0.5 * rho * rho))
    assert prof(3.0) == math.exp(-4.5)


@pytest.mark.parametrize("a", [0.025, 5.8e-4, 6e-6])
def test_window_against_mpmath_at_small_a(a):
    # every 64th node of the window, wherever the 60-digit series
    # converges: from a = 5.8e-4 down, on every one of them
    mp = pytest.importorskip("mpmath")
    prof = fhat_profile(a)
    sample = np.arange(0, prof._grid.size, 64)
    with mp.workdps(60):
        want, converged = _mp_series(mp, a, prof._grid[sample], 800)
    assert converged.sum() > 0.85 * sample.size
    if a < 1e-3:
        assert converged.all()
    assert np.max(np.abs(prof._vals[sample[converged]] / want[converged] - 1.0)) < 1e-13


def test_domain_validation():
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ConfigError):
            FhatProfile(bad)
        with pytest.raises(ConfigError):
            fhat_profile(bad)
