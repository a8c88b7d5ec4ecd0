import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.fft import fht, next_fast_len
from scipy.special import j0, jv, loggamma

from conftest import log_rule
from spinbound import certificate
from spinbound.certificate import (_M_MAX, _R_FLOOR, DEFAULT_A_SCHEDULE, TrialBasis, _decade_rules,
                                   _fast_len, _fftlog, _fftlog_coefficients,
                                   _gate_sample, _kinetic_halfplane, _ModeTable, _radial_end,
                                   _ring_gap,
                                   _angular_modes, _im_loggamma, _pair_scale, _radius_modes,
                                   _turns, certify,
                                   definiteness, kinetic_matrix,
                                   potential_matrix_dropped,
                                   potential_matrix_exact, select_points,
                                   trial_basis)
from spinbound.config import build_measure
from spinbound.errors import (CapacityError, ConfigError, NumericalInputError,
                              ResolutionError)
from spinbound.hankel import fhat_profile
from spinbound.measure import ClosedFormCircle, CurveDelta, Sum, fourier_matrix
from spinbound.model import (Circle, CouplingSpec, PointCloud, ThresholdData,
                             lower_band, lower_band_vectors, threshold)
from spinbound.quadrature import merge_edges, panel_rule, uniform_rule

TWO_PI_E = 2.0 * np.pi * np.exp(-1.0)


def _node_modes(model, pj, prof, r_nodes, m_arr):
    """R_m(r) of the expansion center pj at every node radius, shape (T, M)."""
    radii, where = np.unique(np.round(r_nodes, 12), return_inverse=True)
    return _radius_modes(model, pj, prof, radii, m_arr)[where]


def zero_coupling_model():
    return CouplingSpec.custom(
        lambda px, py: np.zeros(np.broadcast(px, py).shape, dtype=complex),
        r_growth=1.0)


def constant_coupling_model():
    # |A| constant => u_minus has a constant phase everywhere
    return CouplingSpec.custom(
        lambda px, py: np.full(np.broadcast(px, py).shape, 0.5j, dtype=complex),
        r_growth=1.0)


# ---------------------------------------------------------------------------
# trial basis / point selection


def test_trial_basis_validation(rashba2, thr2):
    with pytest.raises(ConfigError):
        trial_basis(rashba2, thr2, np.zeros((2, 3)), 0.5)
    with pytest.raises(ConfigError):
        trial_basis(rashba2, thr2, [(1.0, 0.0)], 2.5)
    with pytest.raises(ConfigError):
        trial_basis(rashba2, thr2, [(1.0, 0.0), (1.0, 1e-9)], 0.5)
    with pytest.raises(ConfigError):        # off the minimum set
        trial_basis(rashba2, thr2, [(2.0, 0.0)], 0.5)
    basis = trial_basis(rashba2, thr2, [(1.0, 0.0), (-1.0, 0.0)], 0.5)
    assert basis.a == 0.5 and len(basis.points) == 2


def test_select_points_examples():
    circle = Circle((0.0, 0.0), 1.0)
    assert np.allclose(select_points(circle, 2), [[1, 0], [-1, 0]], atol=1e-12)
    pts = select_points(circle, 4)
    ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    assert np.allclose(sorted(ang), [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 1e-8)
    with pytest.raises(CapacityError):
        select_points(cloud, 4)
    with pytest.raises(ConfigError):
        select_points(circle, 0)


# ---------------------------------------------------------------------------
# definiteness


def test_definiteness_examples():
    e2 = np.exp(-2.0)
    rep = definiteness(np.array([[-1.0, -e2], [-e2, -1.0]]))
    assert rep.negative_definite
    assert rep.lambda_max == pytest.approx(-1.0 + e2, abs=1e-12)
    assert not definiteness(np.zeros((2, 2))).negative_definite
    rep1 = definiteness(np.array([[-1.0, -1.0], [-1.0, -1.0]]))
    assert rep1.lambda_max == pytest.approx(0.0, abs=1e-12)
    assert not rep1.negative_definite


def test_definiteness_counts_negative_eigenvalues():
    # the count is the inertia, whatever the order of the diagonal
    for diag in ([1.0, -1.0], [-1.0, 1.0]):
        rep = definiteness(np.diag(diag))
        assert rep.negative_count == 1 and not rep.negative_definite
    rep = definiteness(np.diag([-1.0, -2.0, -1e-9]))
    assert rep.negative_count == 2 and not rep.negative_definite
    empty = definiteness(np.zeros((0, 0)))
    assert empty.negative_count == 0 and not empty.negative_definite


def test_definiteness_rejects_non_hermitian():
    with pytest.raises(NumericalInputError):
        definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_definiteness_asymmetry_bound_scales_with_the_matrix():
    # an asymmetry of 3e-8 is rounding at |m| = 1e9, not a fault
    assert definiteness(np.array([[-1e9, 3e-8], [0.0, -1e9]])).negative_count == 2


def test_certify_a_heavy_circle(rashba2, thr2):
    # at weight -1e8 the exact-form Q is asymmetric by 1.7e-8 in rounding
    heavy = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1e8)
    res = certify(rashba2, thr2, heavy, 4, [0.4])
    assert res.certified and res.certified_count == 4


# ---------------------------------------------------------------------------
# kinetic matrix


def test_kinetic_free_case_gaussian_moment():
    model = zero_coupling_model()
    thr = threshold(model)
    assert thr.kappa == pytest.approx(0.0, abs=1e-9)
    basis = trial_basis(model, thr, [(0.0, 0.0)], 2.0)
    t = kinetic_matrix(model, thr, basis)
    assert t[0, 0] == pytest.approx(np.pi, rel=1e-5)


@pytest.mark.parametrize("model_name", ["rashba", "dresselhaus"])
def test_kinetic_diagonal_bound(model_name):
    model = getattr(CouplingSpec, model_name)(2.0)
    thr = threshold(model)
    pts = select_points(thr.minset, 2)
    prev = None
    for a in (0.4, 0.2, 0.1):
        basis = trial_basis(model, thr, pts, a)
        t = kinetic_matrix(model, thr, basis)
        diag = np.real(np.diag(t))
        assert np.all(diag >= 0.0)
        # lambda_- - kappa = (|p| - alpha/2)^2 <= |p - p_j|^2, so
        # T_jj <= int |q|^2 fhat^2 dq = ||grad f_a||^2 = pi a / 2
        assert np.all(diag <= 0.5 * np.pi * a)
        if prev is not None:        # monotone decay along the schedule
            assert np.all(diag <= prev + 1e-9)
        prev = diag


def test_kinetic_diagonal_turns_with_the_point(rashba2, thr2):
    # the diagonal integral's angular rule starts at arg(p_j) and its gap is
    # taken about p_j itself; lambda_- is radial, so T_jj is the same for
    # every orientation of p_j, also at small a, where most of it sits on
    # rings far below rounding of |p_j|
    ang = 2.0 * np.pi * np.arange(12) / 12.0 + 0.05
    centres = np.column_stack([np.cos(ang), np.sin(ang)])
    for a in (0.4, 0.1, 0.05, 0.025):
        prof = fhat_profile(a)
        ends = [_radial_end(prof, thr2.kappa, c, None) for c in centres]
        decades = _decade_rules(prof, max(R for R, _ in ends))
        diag = np.array([_kinetic_halfplane(rashba2, thr2.kappa, prof, c, None,
                                            thr2.minset.radius, decades, end)
                         for c, end in zip(centres, ends)])
        assert np.ptp(diag) <= 1e-13 * np.max(np.abs(diag)), a


@pytest.mark.parametrize("a,value", [(0.1, 0.093529), (0.05, 0.048108),
                                     (0.025, 0.024426)])
def test_kinetic_diagonal_matches_the_bump_local_integral(rashba2, thr2, a, value):
    # T_jj of the gap ((2 c.q + rho^2) / (|c + q| + r0))^2 integrated on
    # 200,001 ln rho points x 4,096 angles to the end of the profile table;
    # subtracting lambda_- - kappa and clamping its rounding noise to 0 gave
    # 0.08920, 0.03371 and 0.01325, below even pi a / 4 for a <= 0.05
    basis = trial_basis(rashba2, thr2, [(np.cos(0.05), np.sin(0.05))], a)
    assert kinetic_matrix(rashba2, thr2, basis)[0, 0] == pytest.approx(value, rel=1e-5)


def test_trial_points_projected_onto_the_ring(rashba2, thr2):
    # a point one ulp off the ring is stored as its projection, so T and W
    # see the same point, and its T_jj is the projection's
    off = np.array([np.nextafter(np.cos(0.3), 2.0), np.sin(0.3)])
    onto = off / np.hypot(*off)
    basis = trial_basis(rashba2, thr2, [off], 0.05)
    assert np.array_equal(basis.points, onto[None, :])
    t_off = kinetic_matrix(rashba2, thr2, basis)[0, 0]
    t_onto = kinetic_matrix(rashba2, thr2, trial_basis(rashba2, thr2, [onto], 0.05))[0, 0]
    assert t_off == pytest.approx(t_onto, rel=1e-15)
    assert 0.0 < t_off < 0.5 * np.pi * 0.05


def _rotated(pts, turn):
    c, s = np.cos(turn), np.sin(turn)
    return pts @ np.array([[c, s], [-s, c]])


def _reference_halfplane(model, kappa, prof, center, other, r0, head=True):
    """The half-plane integral with 16 angular panels of 8 on every decade.

    The decades run to the radial end R of ``_radial_end``, and its
    closed-form tail past R is added.  With ``r0`` (a ring band) the gap is
    (|p| - r0)^2 in the bump's own coordinates, ((2 c.q + rho^2) /
    (|c + q| + r0))^2 about c = r0 center / |center|, and the diagonal
    adds the head below the table from Parseval, cut at 0, unless ``head``
    is false; without it, lambda_-(p) - kappa with its rounding noise
    clamped to 0.
    """
    if other is None:
        d, axis = 0.0, float(np.arctan2(center[1], center[0]))
    else:
        d = float(np.hypot(*(other - center)))
        axis = float(np.arctan2(other[1] - center[1], other[0] - center[0]))
    t_ref, w_ref = uniform_rule(0.0, 1.0, 16, 8)
    R, tail = _radial_end(prof, kappa, center, other)
    total = parseval = 0.0
    k_lo = int(np.floor(np.log10(prof.rho_lo)))
    k_hi = int(np.ceil(np.log10(prof.rho_hi)))
    for k in range(k_lo, k_hi):
        lo = max(10.0 ** k, prof.rho_lo)
        hi = min(10.0 ** (k + 1), prof.rho_hi)
        if lo >= R:
            break
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
        if r0 is None:
            px = center[0] + rho[:, None] * np.cos(theta)
            py = center[1] + rho[:, None] * np.sin(theta)
            gap = np.maximum(lower_band(model, px, py) - kappa, 0.0)
            noise = 64.0 * np.finfo(float).eps * (px * px + py * py + abs(kappa) + 1.0)
            gap[gap < noise] = 0.0
        else:
            c = r0 * center / np.hypot(*center)
            qx, qy = rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)
            px, py = c[0] + qx, c[1] + qy
            gap = ((2.0 * (c[0] * qx + c[1] * qy) + rho[:, None] ** 2)
                   / (np.hypot(px, py) + r0)) ** 2
        f_c = prof(rho)[:, None]
        f_o = f_c if other is None else prof(np.hypot(px - other[0], py - other[1]))
        total += float(np.sum((w_rho[:, None] * w_ang * rho[:, None]) * ((gap * f_c) * f_o)))
        parseval += float(np.sum(w_rho * rho * (rho * f_c[:, 0]) ** 2))
    if other is None and r0 is not None and head:
        total += 0.5 * max(0.0, 0.5 * np.pi * prof.a - 2.0 * np.pi * parseval - tail)
    return total + tail


def _per_point_kinetic(model, thr, basis):
    """T with both halves of every pair integrated on their own, 16 panels."""
    pts, prof = basis.points, basis.profile
    n = len(pts)
    r0 = thr.minset.radius if isinstance(thr.minset, Circle) else None

    def half(center, other):
        return _reference_halfplane(model, thr.kappa, prof, center, other, r0)

    T = np.zeros((n, n))
    for j in range(n):
        T[j, j] = half(pts[j], None)
        for k in range(j + 1, n):
            T[j, k] = T[k, j] = half(pts[j], pts[k]) + half(pts[k], pts[j])
    return T


_CUSTOM = CouplingSpec.custom(lambda px, py: 2.0 * (py + 1j * px) + 0.3,
                              r_growth=4.0)


@pytest.mark.parametrize("case", [
    ("rashba", 4, 0.4), ("rashba", 4, 0.1), ("rashba", 4, 0.025),
    ("dresselhaus", 3, 0.4), ("dresselhaus", 3, 0.1), ("dresselhaus", 3, 0.025),
    ("custom", 3, 0.4), ("custom", 3, 0.1),
], ids=lambda case: "%s-%d-a%g" % case)
def test_kinetic_matches_the_16_panel_reference(case, monkeypatch):
    # on a ring band the deep rings take a 16-point trapezoid and the rings
    # past the guard radius 2 angular panels, instead of 16 panels of 8
    # each; both sides take the gap in the bump's own coordinates.  The
    # custom coupling's basis carries no ring, so it keeps the clamped
    # subtraction and 16 panels on every decade, and its T is the
    # reference's to the last bit.  Both sides share kinetic_matrix's
    # reduction to one integral per pair distance
    kind, n, a = case
    turn = 0.3 * 2.0 * np.pi / n
    if kind == "custom":
        # the minimum set is one point, so the points skip trial_basis
        model = _CUSTOM
        thr = threshold(model)
        pts = _rotated(select_points(Circle((0.0, 0.0), 1.0), n), turn)
        basis = TrialBasis(points=pts, a=a, profile=fhat_profile(a))
    else:
        model = getattr(CouplingSpec, kind)(2.0 if kind == "rashba" else 3.0)
        thr = threshold(model)
        basis = trial_basis(model, thr, _rotated(select_points(thr.minset, n), turn), a)
    t = kinetic_matrix(model, thr, basis)
    monkeypatch.setattr(certificate, "_kinetic_halfplane",
                        lambda *args: _reference_halfplane(*args[:6]))
    t_ref = kinetic_matrix(model, thr, basis)
    if kind == "custom":
        assert np.array_equal(t, t_ref)
    assert np.max(np.abs(t - t_ref)) <= 1e-14 * np.max(np.abs(t_ref))


def _tail_at_table_end(prof, other):
    """The closed-form tail past the table's end, fhat's series summed to 40 powers."""
    a, R = prof.a, prof.rho_hi
    coeffs = prof.coefficients
    s = np.arange(2, 2 * len(coeffs) + 1)
    share = 1.0 if other is None else 0.5
    return share * 2.0 * np.pi * float(np.sum(np.convolve(coeffs, coeffs) * R ** (-s * a)
                                              / (s * a)))


@pytest.mark.parametrize("a", [0.4, 0.2])
def test_ring_diagonal_head_is_not_negative(rashba2, thr2, a):
    # the head below 1e-12 integrates a nonnegative function, but as
    # pi a / 2 less the summed part it came out at -4.2e-11 (a = 0.4) and
    # -2.2e-12 (a = 0.2), where f is flat below the window; T_jj must not
    # sit below the decade sum plus the tail
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 4), a)
    t_jj = kinetic_matrix(rashba2, thr2, basis)[0, 0]
    summed = _reference_halfplane(rashba2, thr2.kappa, basis.profile, basis.points[0], None,
                                  1.0, head=False)
    assert t_jj >= summed * (1.0 - 1e-14)


@pytest.mark.parametrize("a", DEFAULT_A_SCHEDULE)
def test_kinetic_tail_matches_the_whole_table(rashba2, thr2, a):
    # each half-plane stops at its own R (1e6 at a = 0.4, 1e10 from a = 0.05
    # on) and adds the closed-form tail past it; summing every decade of the
    # table instead, with the tail past the table's end, moves it by under
    # 1e-10, always down: past R the gap rho^2, fhat at the centre and the
    # half-plane's span pi bound the true integrand from above
    pts = select_points(thr2.minset, 4)
    prof = fhat_profile(a)
    whole = _decade_rules(prof, prof.rho_hi)
    for other in (None, pts[1], pts[2]):
        end = _radial_end(prof, thr2.kappa, pts[0], other)
        assert end[0] < prof.rho_hi
        value = _kinetic_halfplane(rashba2, thr2.kappa, prof, pts[0], other, 1.0,
                                   _decade_rules(prof, end[0]), end)
        full = _kinetic_halfplane(rashba2, thr2.kappa, prof, pts[0], other, 1.0, whole,
                                  (prof.rho_hi, _tail_at_table_end(prof, other)))
        assert 0.0 <= value - full <= 1e-10 * full


@pytest.mark.parametrize("a", [0.017, 1e-3, 5.8e-4, 6e-6, 1e-100])
def test_kinetic_matrix_below_the_old_floor(rashba2, thr2, a):
    # every exponent tabulates on one window, which used to overflow below
    # a = 0.01704, and the diagonal takes its head below the window from
    # Parseval
    pts = select_points(thr2.minset, 4)
    t = kinetic_matrix(rashba2, thr2, trial_basis(rashba2, thr2, pts, a))
    assert np.all(np.isfinite(t)) and 0.0 < t[0, 0] < 0.5 * np.pi * a


def test_kinetic_limits_as_a_goes_to_zero(rashba2, thr2):
    # c_n / a -> (-1)^(n+1) n 2^-n / n! as a -> 0, so the share of
    # |grad f_a|^2 = pi a / 2 past any fixed rho tends to
    # int_0^1 t e^-t dt = 1 - 2/e, and the rest sits on rings rho << 1.
    # There the ring gap has the angular mean rho^2 / 2 and the other
    # point's fhat is 0: T_jj / a -> (pi/2)(1 - 1/e) and T_jk / a ->
    # (pi/2)(1 - 2/e).  At a = 6e-6 they are 0.992929 and 0.415065
    pts = select_points(thr2.minset, 4)
    a = 6e-6
    t = kinetic_matrix(rashba2, thr2, trial_basis(rashba2, thr2, pts, a)) / a
    off = ~np.eye(4, dtype=bool)
    assert np.max(np.abs(np.diag(t) - 0.5 * np.pi * (1.0 - 1.0 / np.e))) < 2e-5
    assert np.max(np.abs(t[off] - 0.5 * np.pi * (1.0 - 2.0 / np.e))) < 2e-5


def _gap_nodes(model, thr, pts, a, monkeypatch):
    """The ring-gap integrand nodes of one kinetic matrix."""
    nodes = []

    def counted(c, r0, rho, qx, qy):
        nodes.append(np.size(qx))
        return _ring_gap(c, r0, rho, qx, qy)

    monkeypatch.setattr(certificate, "_ring_gap", counted)
    kinetic_matrix(model, thr, trial_basis(model, thr, pts, a))
    return sum(nodes)


@pytest.mark.parametrize("a", [0.4, 0.025, 6e-6])
def test_kinetic_work_is_flat_in_a(rashba2, thr2, monkeypatch, a):
    # the window's 10 deep decades, the decades to the guard and the far
    # zone to R: 74,240 gap nodes at a = 0.4, 80,384 at 0.025 and 81,920
    # at 6e-6 for four points, where a table anchored per exponent took
    # 214,016 at a = 0.025
    assert 0 < _gap_nodes(rashba2, thr2, select_points(thr2.minset, 4), a,
                          monkeypatch) <= 82_000


def test_kinetic_work_count(rashba2, thr2, monkeypatch):
    # at a = 0.05 a half-plane visits 22 decades, from the window's edge
    # 1e-12 to R = 1e10: 10 deep ones at 16 angles per ring, 4 or 5 more
    # below the guard radius at 128, and 8 past it at 16: 80,384 gap nodes
    # for four points, against 595,968 with 128 angles on every decade
    # below the guard
    assert 0 < _gap_nodes(rashba2, thr2, select_points(thr2.minset, 4), 0.05,
                          monkeypatch) <= 210_000


def test_kinetic_memory_peak(rashba2, thr2):
    # one decade of 32 x 128 nodes, or the 10 deep or 8 far decades of
    # 32 x 16, at a time, and the radial nodes of the 22 decades
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 4), 0.05)
    tracemalloc.start()
    try:
        kinetic_matrix(rashba2, thr2, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_kinetic_symmetry(rashba2, thr2):
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 3), 0.4)
    t = kinetic_matrix(rashba2, thr2, basis)
    assert np.max(np.abs(t - t.conj().T)) < 1e-10


# ---------------------------------------------------------------------------
# potential matrices


def test_dropped_circle_diagonal(rashba2, thr2, circle_measure):
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 2), 2.0)
    w = potential_matrix_dropped(circle_measure, basis)
    assert w[0, 0] == pytest.approx(-TWO_PI_E, rel=1e-12)
    assert np.max(np.abs(w - w.conj().T)) < 1e-14


def test_dropped_limit(rashba2, thr2, circle_measure):
    # |f_a|^2 = e^-1 identically on the unit circle, so the dropped form
    # coincides with its a -> 0 limit at every a; the deviation sits at
    # rounding level and the scheduled decrease holds within the 1e-9 slack
    pts = select_points(thr2.minset, 4)
    limit = TWO_PI_E * fourier_matrix(circle_measure, pts)
    prev = np.inf
    for a in (0.4, 0.2, 0.1):
        basis = trial_basis(rashba2, thr2, pts, a)
        dev = np.max(np.abs(potential_matrix_dropped(circle_measure, basis) - limit))
        assert dev < prev + 1e-9
        prev = dev
    assert prev < 0.05 * TWO_PI_E


def test_dropped_gaussian_diagonal_limit(rashba2, thr2, gaussian_well):
    # W_jj -> e^-1 * total_mass as a -> 0 for measures that are not
    # concentrated on the unit circle
    pts = select_points(thr2.minset, 2)
    mass = -4.0 * np.pi
    prev = np.inf
    for a in (0.4, 0.2, 0.1):
        basis = trial_basis(rashba2, thr2, pts, a)
        w = potential_matrix_dropped(gaussian_well, basis)
        dev = abs(w[0, 0] - np.exp(-1.0) * mass)
        assert dev < prev + 1e-9
        prev = dev
    assert prev < 0.05 * abs(mass)


def test_zero_measure_matrices(rashba2, thr2):
    zero = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=0.0)
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 2), 0.4)
    assert np.allclose(potential_matrix_dropped(zero, basis), 0.0)
    assert np.allclose(potential_matrix_exact(rashba2, zero, basis), 0.0)


def test_exact_equals_dropped_for_constant_phase():
    model = constant_coupling_model()
    thr = threshold(model)
    circ = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    pts = select_points(thr.minset, 1)
    basis = trial_basis(model, thr, pts, 1.0)
    we = potential_matrix_exact(model, circ, basis)
    wd = potential_matrix_dropped(circ, basis)
    assert np.max(np.abs(we - wd)) < 1e-12


def test_exact_equals_dropped_for_constant_phase_density(gaussian_well):
    # every density node has its own radius, and all of them take the one
    # FFTLog transform per order; the residual measures the whole
    # pipeline's numerical error
    model = constant_coupling_model()
    thr = threshold(model)
    pts = select_points(thr.minset, 1)
    basis = trial_basis(model, thr, pts, 1.0)
    we = potential_matrix_exact(model, gaussian_well, basis)
    wd = potential_matrix_dropped(gaussian_well, basis)
    assert np.max(np.abs(we - wd)) < 3e-5


def _weak_well():
    """The Gaussian density of the benchmark's weak-well run."""
    return build_measure({"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                          "density": {"type": "gaussian-well", "depth": 0.05,
                                      "width": 1.0}})


def _plane_wave_gram(pts, x, y, w):
    """E diag(w) E^H with E_jt = e^{-i<p_j, x_t>}, on the given nodes."""
    e = np.exp(-1j * (np.outer(pts[:, 0], x) + np.outer(pts[:, 1], y)))
    return (e * w) @ e.conj().T


@pytest.mark.parametrize("a", [0.4, 0.025])
@pytest.mark.parametrize("kind", ["circle", "weak-well", "sum"])
def test_fourier_matrix_and_dropped_are_the_plane_wave_gram(rashba2, thr2, circle_measure,
                                                            kind, a):
    # both reach nu through fourier_batch at the differences p_j - p_k; the
    # reference is the Gram of the plane waves on nu's own nodes at the
    # batch's node scale max |p_j - p_k|, with weights w and w e^{-|x|^a}
    nu = {"circle": circle_measure, "weak-well": _weak_well(),
          "sum": Sum([circle_measure, _weak_well()])}[kind]
    pts = select_points(thr2.minset, 4)
    x, y, w = nu.quad_nodes(_pair_scale(pts))
    gram = _plane_wave_gram(pts, x, y, w)
    got = 2.0 * np.pi * fourier_matrix(nu, pts)
    assert np.max(np.abs(got - gram)) <= 1e-13 * np.max(np.abs(gram))
    gram = _plane_wave_gram(pts, x, y, w * np.exp(-np.hypot(x, y) ** a))
    got = potential_matrix_dropped(nu, trial_basis(rashba2, thr2, pts, a))
    assert np.max(np.abs(got - gram)) <= 1e-13 * np.max(np.abs(gram))


def test_density_plane_waves_memory_peak(rashba2, thr2):
    # a density meets the plane waves on its axis rules, N^2 (nx + ny)
    # exponentials, never on its nx ny tensor nodes (16,384 here, which
    # took 3.4 MiB for the precheck's Gram at N = 4)
    nu = _weak_well()
    pts = select_points(thr2.minset, 4)
    basis = trial_basis(rashba2, thr2, pts, 0.025)
    for call in (lambda: fourier_matrix(nu, pts),
                 lambda: potential_matrix_dropped(nu, basis)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@pytest.mark.slow
def test_exact_matrix_brute_force(rashba2, thr2, circle_measure):
    # independent evaluation of Psi_j on the measure nodes by direct polar
    # quadrature of the band-projected inverse transform at a = 1
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    basis = trial_basis(rashba2, thr2, pts, 1.0)
    we = potential_matrix_exact(rashba2, circle_measure, basis)

    x, y, wgt = circle_measure.quad_nodes(2.0)
    prof = basis.profile
    r_nodes, r_w = log_rule(1e-6, 400.0, 160, 8)
    ang, aw = uniform_rule(0.0, 2.0 * np.pi, 128, 8)
    # p = p_j + (dx, dy) with the same offsets for both points, so
    # e^{i<p,x>} = e^{i<p_j,x>} e^{i(dx x + dy y)} and each phase block of
    # the offsets serves both
    DX = (r_nodes[:, None] * np.cos(ang)[None, :]).ravel()
    DY = (r_nodes[:, None] * np.sin(ang)[None, :]).ravel()
    F = prof(np.hypot(DX, DY))
    U = lower_band_vectors(rashba2, pts[:, 0][:, None] + DX[None, :],
                           pts[:, 1][:, None] + DY[None, :])      # (2, nodes, 2)
    amp = ((r_nodes * r_w)[:, None] * aw[None, :]).ravel() * F
    coef = np.concatenate(U * amp[None, :, None], axis=1)          # (nodes, 4)
    acc = np.zeros((len(x), 4), dtype=complex)
    # accumulate in blocks so the phase matrix stays small
    for lo in range(0, len(DX), 65536):
        hi = lo + 65536
        phase = np.exp(1j * (DX[lo:hi, None] * x[None, :] + DY[lo:hi, None] * y[None, :]))
        acc += phase.T @ coef[lo:hi]
    base = np.exp(1j * (pts[:, 0][:, None] * x[None, :] + pts[:, 1][:, None] * y[None, :]))
    psi = base[:, :, None] * acc.reshape(len(x), 2, 2).transpose(1, 0, 2) / (2.0 * np.pi)
    brute = np.einsum("jns,n,kns->jk", psi.conj(), wgt, psi)
    assert np.max(np.abs(we - brute)) < 2e-3
    assert np.max(np.abs(we - we.conj().T)) < 1e-10


def test_exact_matrix_band_overlap_limit(rashba2, thr2, circle_measure):
    # as a -> 0 the exact form converges to the band-overlap weighted limit
    #   <u_-(p_j), u_-(p_k)> * 2 pi e^-1 nuhat(p_j - p_k),
    # not to the dropped form (the trial spinors keep their band vectors)
    pts = select_points(thr2.minset, 2)
    v = lower_band_vectors(rashba2, pts[:, 0], pts[:, 1])
    gram = np.einsum("js,ks->jk", v.conj(), v)
    limit = TWO_PI_E * gram * fourier_matrix(circle_measure, pts)
    prev = np.inf
    for a in (0.4, 0.2, 0.1):
        basis = trial_basis(rashba2, thr2, pts, a)
        we = potential_matrix_exact(rashba2, circle_measure, basis)
        assert np.max(np.abs(we - we.conj().T)) < 1e-10
        dev = np.max(np.abs(we - limit))
        assert dev < prev
        prev = dev
    assert prev < 0.05 * TWO_PI_E


# The band correction's radial transform R_m(r) = int c_m fhat J_m(rho r)
# rho d rho, checked against radial quadratures of its own.


def _band_modes(model, a, pj=(1.0, 0.0)):
    pj = np.array(pj)
    m_arr = np.arange(-_M_MAX, _M_MAX + 1)
    prof = fhat_profile(a)
    return pj, m_arr, prof, _ModeTable(model, pj, m_arr, prof.rho_lo, prof.rho_hi)


def _kink_cluster(rj, depth):
    side = np.geomspace(10.0 ** -depth, 0.05, 2 * depth)
    return rj * np.concatenate([1.0 - side, 1.0 + side])


def _gaussian_modes(modes, m_arr, rr, rj=1.0):
    """R_m(rr) at a = 2 by panels of width <= min(pi/(4 r), 0.25) to rho = 40."""
    width = min(0.25 * np.pi / rr, 0.25)
    edges = merge_edges(np.linspace(0.0, 40.0, int(np.ceil(40.0 / width)) + 1),
                        _kink_cluster(rj, 10))
    rho, w = panel_rule(edges, 8)
    return ((w * rho * np.exp(-0.5 * rho * rho))[:, None] * modes(rho)
            * jv(m_arr[None, :], rho[:, None] * rr)).sum(axis=0)


def _assert_gaussian_modes(alpha, rr):
    model = CouplingSpec.rashba(alpha)
    pj, m_arr, prof, modes = _band_modes(model, 2.0, pj=(0.5 * alpha, 0.0))
    got = _node_modes(model, pj, prof, np.array([rr]), m_arr)[0]
    ref = _gaussian_modes(modes, m_arr, rr, rj=0.5 * alpha)
    assert np.max(np.abs(got - ref)) < 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("rr", [0.5, 6.0, 12.0, 70.0])
def test_radial_modes_resolve_bessel_at_gaussian_exponent(rr):
    # at a = 2 the profile table stops at rho = 37, well inside the range
    # where J_m(rho r) oscillates; reference: fine panels out to rho = 40
    # with the closed form fhat = exp(-rho^2/2).  Both sides take c_m from
    # the same mode table (its own interpolation moves R_m here by up to
    # 2.3e-4 of max|R_m|), so only the radial rule is compared, at each
    # radius against its own max|R_m(r)| (at r = 70 that is 3e-5 of the
    # peak R_0(0))
    _assert_gaussian_modes(2.0, rr)


def test_radial_modes_resolve_a_fast_kink_far_out():
    # the kink of c_m on the ring rho = |p_j| makes R_m(r) turn about
    # r |p_j| radians per unit of ln r: 210 for Rashba alpha = 6
    # (|p_j| = 3) at r = 70, where max|R_m| is 1e-6 of the peak R_0(0)
    _assert_gaussian_modes(6.0, 70.0)


def test_node_modes_refuse_a_grid_past_the_sample_budget(rashba2):
    # the ln step shrinks like 1 / (r_max |p_j|), so a measure reaching
    # |x| = 1e4 would need millions of samples; it stops before sampling
    pj, m_arr, prof, _ = _band_modes(rashba2, 0.4)
    with pytest.raises(ResolutionError) as err:
        _node_modes(rashba2, pj, prof, np.array([1.0, 1.0e4]), m_arr)
    assert err.value.attempted_nodes > 2 ** 19


def _origin_peak(model, pj, prof):
    """|R_0(0)|, the largest |R_m(r)|, by direct quadrature of c_0 fhat rho.

    At r = 0 only m = 0 survives (J_m(0) = delta_m0).  Past P = 1e6, c_0 is
    the constant -u_-(p_j)_1 and fhat rho ~ rho^-(1+a) keeps a tail, which
    is sum_n c_n P^(-n a) / (n a) by fhat's power series; at a = 0.025 it
    is a sizeable share of R_0(0).
    """
    big_p = 1e6
    decades = int(np.ceil(np.log10(big_p / prof.rho_lo)))
    edges = merge_edges([0.0], np.geomspace(prof.rho_lo, big_p, 16 * decades + 1),
                        _kink_cluster(float(np.hypot(*pj)), 10))
    rho, w = panel_rule(edges, 8)
    c0 = _angular_modes(model, pj, rho, np.array([0]))[:, 0]
    u1 = lower_band_vectors(model, pj[0], pj[1])[0]
    n = np.arange(1, len(prof.coefficients) + 1)
    past = np.sum(prof.coefficients * big_p ** (-n * prof.a) / (n * prof.a))
    return abs(np.sum(c0 * w * prof(rho) * rho) - u1 * past)


@pytest.mark.parametrize("a", [0.025, 0.4, 2.0])
def test_node_modes_mix_origin_and_positive_radii(rashba2, a):
    # repeated radii, in any order, share one row, and each row is as when
    # the distinct radii come alone; the scale is the peak |R_0(0)|
    pj, m_arr, prof, _ = _band_modes(rashba2, a)
    r = np.array([1.5, 0.02, 1.5, 9.0])
    got = _node_modes(rashba2, pj, prof, r, m_arr)
    alone = _node_modes(rashba2, pj, prof, np.array([0.02, 1.5, 9.0]), m_arr)
    peak = _origin_peak(rashba2, pj, prof)
    assert np.array_equal(got[0], got[2])
    for row, want in zip((1, 0, 3), alone):
        assert np.max(np.abs(got[row] - want)) <= 1e-9 * peak


@pytest.mark.parametrize("a", [0.4, 0.025])
def test_small_radii_alone_and_beside_one(rashba2, a):
    # the FFTLog samples start where the mode table does, 1e-6 / max(r_max, 1):
    # started at 1e-6 / r_max they dropped int c_0 fhat rho d rho below it
    # when every radius is below 1, and R_0(1e-4) alone was off from R_0(1e-4)
    # beside r = 1 by 4.1e-5 (a = 0.4), R_0(1e-6) by 28%
    pj, m_arr, prof, _ = _band_modes(rashba2, a)
    peak = _origin_peak(rashba2, pj, prof)
    for r in (0.1, 1e-2, 1e-4, 1e-6):
        alone = _node_modes(rashba2, pj, prof, np.array([r]), m_arr)[0]
        beside = _node_modes(rashba2, pj, prof, np.array([r, 1.0]), m_arr)[0]
        assert np.max(np.abs(alone - beside)) <= 1e-12 * peak, r


def _direct_origin_mode(modes, prof, r):
    """R_0(r) by direct J_0 quadrature of the mode table's c_0.

    Log panels from 1e-6 to 1 / r, clustered on the kink ring rho = 1,
    then panels of width <= pi / (2 r) to 1e5 / r.
    """
    zero = np.array([_M_MAX])   # the column of m = 0
    head = np.geomspace(1e-6, 1.0 / r, int(np.ceil(16 * np.log10(1e6 / r))) + 1)
    ring = _kink_cluster(1.0, 10)
    rho, w = panel_rule(merge_edges(head, ring[ring < 1.0 / r]), 8)
    total = np.sum(w * modes(rho, zero)[:, 0] * prof(rho) * rho * j0(rho * r))
    n = int(np.ceil((1e5 - 1.0) / (0.5 * np.pi)))
    rho, w = panel_rule(np.linspace(1.0, 1e5, n + 1) / r, 8)
    return total + np.sum(w * modes(rho, zero)[:, 0] * prof(rho) * rho * j0(rho * r))


class _FixedNodes:
    """A measure stand-in whose quadrature is the given nodes, weight -1 each."""

    def __init__(self, x, y):
        self.nodes = (np.asarray(x, float), np.asarray(y, float), -np.ones(len(x)))

    def quad_nodes(self, max_abs_p):
        return self.nodes


@pytest.mark.parametrize("a", [0.4, 0.025])
def test_small_radii_below_the_floor_are_refused(rashba2, thr2, a):
    # FFTLog returns r R_m(r) with an absolute error near 1e-11, so R_m(r)
    # drifts like 1 / r: against direct J_0 quadrature R_0 is within 1e-6
    # from the floor 1e-4 up, and off by far more below it (at a = 0.4,
    # R_0(1e-10) = -0.808i where R_0(0) = 0.264i).  potential_matrix_exact
    # refuses every node radius below the floor, the origin included
    pj, m_arr, prof, modes = _band_modes(rashba2, a)
    worst_below = 0.0
    for r in np.geomspace(1e-10, 1e-4, 7):
        got = _node_modes(rashba2, pj, prof, np.array([r]), m_arr)[0, _M_MAX]
        ref = _direct_origin_mode(modes, prof, r)
        err = abs(got - ref) / abs(ref)
        if r >= _R_FLOOR:
            assert err <= 1e-6, r
        else:
            worst_below = max(worst_below, err)
    assert worst_below > 1e-4
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 2), a)
    for r in (0.0, 1e-13, 1e-8, 0.5 * _R_FLOOR):
        with pytest.raises(ResolutionError, match="below"):
            potential_matrix_exact(rashba2, _FixedNodes([r, 1.0], [0.0, 0.0]), basis)
    w = potential_matrix_exact(rashba2, _FixedNodes([_R_FLOOR, 1.0], [0.0, 0.0]), basis)
    assert np.all(np.isfinite(w))


def test_node_modes_independent_of_the_sample_grid(rashba2):
    # the least and the largest radius set the FFTLog grid's ends, so
    # adding 1e-6 and 300 moves every sample; at a = 0.025 g_{+-1} ~
    # rho^-a is far from zero at the grid's low end, and without the taper
    # the transform's periodic wrap moved R_{+-1}(0.003) by 3e-5 of the peak
    pj, m_arr, prof, _ = _band_modes(rashba2, 0.025)
    r = np.array([0.003, 1.0])
    got = _node_modes(rashba2, pj, prof, r, m_arr)
    wide = _node_modes(rashba2, pj, prof, np.array([1e-6, 0.003, 1.0, 300.0]), m_arr)
    peak = _origin_peak(rashba2, pj, prof)
    assert np.max(np.abs(wide[1:3] - got)) < 1e-6 * peak


def test_exact_potential_memory_peak(rashba2, thr2, circle_measure):
    # one FFTLog sample table of c_m fhat rho (about 5,100 x 81) and an
    # angular FFT that walks its rows in blocks keep the README case near
    # 12 MiB of arrays
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 4), 0.4)
    tracemalloc.start()
    try:
        potential_matrix_exact(rashba2, circle_measure, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_exact_potential_memory_peak_on_a_density(rashba2, thr2, gaussian_well):
    # R_m is gathered from its per-radius rows (10,449 radii x 81) and
    # multiplied by e^{im theta} and the orbit's turn a block of nodes at a
    # time, straight into Delta, so no nodes x 81 table (103 MiB on this
    # density's 82,944 nodes) is formed.  The per-radius rows, the FFTLog
    # sample table and its spline evaluation set the peak: 0.37 of such a
    # table here and 0.38 at N = 4, against 1.19 with the table
    basis = trial_basis(rashba2, thr2, select_points(thr2.minset, 2), 1.0)
    pts = basis.points
    max_p = _pair_scale(pts) + float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) + 4.0
    table = len(gaussian_well.quad_nodes(max_p)[0]) * (2 * _M_MAX + 1) * 16
    tracemalloc.start()
    try:
        potential_matrix_exact(rashba2, gaussian_well, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * table


# FFTLog: one coefficient table per parity of the order, stepped by the Gamma
# recurrence, checked against scipy's fht, which builds each order's table
# from loggamma.


@pytest.mark.parametrize("n", [1536, 1125])
def test_fftlog_matches_scipy_fht_at_every_order(n):
    # next_fast_len(real=True) may return an odd n, where no coefficient is
    # forced real.  The coefficient phases reach about y ln y at the
    # largest y = pi / (2 dln), and both tables round them to eps times
    # that; at dln = 0.05 (phases near 100) they agree to 2e-14 of the output
    dln = 0.05
    samples = np.random.default_rng(n).standard_normal((n, 2))
    for mu, u in enumerate(_fftlog_coefficients(n, dln, range(_M_MAX + 1))):
        want = fht(samples.T, dln, mu=mu).T
        got = _fftlog(samples, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), mu


def test_im_loggamma_matches_scipy():
    # Stirling's series at x + 10 + iy and the recurrence back down; the
    # phase grows like y ln y, and both round it to a few eps of itself
    y = np.linspace(0.0, 1e4, 20_001)
    for x in (0.5, 1.0):
        want = loggamma(x + 1j * y).imag
        assert np.all(np.abs(_im_loggamma(x, y) - want)
                      <= 4.4e-15 * np.maximum(1.0, np.abs(want))), x


def test_fast_len_matches_scipy():
    for n in range(1, 20_001):
        assert _fast_len(n) == next_fast_len(n, real=True), n
    for n in np.random.default_rng(19).integers(20_001, 2 ** 19 + 1, 500):
        assert _fast_len(int(n)) == next_fast_len(int(n), real=True), n
    assert _fast_len(2 ** 19) == 2 ** 19


def test_fftlog_coefficients_against_mpmath():
    # at the band correction's own spacing dln = 0.005 the phases reach
    # 3,000 radians, and the loggamma tables u_0, u_1 are 4.7e-13 off; the
    # recurrence adds a few eps per step, so order 40 is no further off
    mp = pytest.importorskip("mpmath")
    n, dln = 1536, 0.005
    y = np.linspace(0.0, np.pi * (n // 2) / (n * dln), n // 2 + 1)[::37]
    with mp.workdps(40):
        for mu, u in enumerate(_fftlog_coefficients(n, dln, range(_M_MAX + 1))):
            x = mp.mpf(mu + 1) / 2
            want = np.array([complex(mp.power(2, 2j * mp.mpf(v)) * mp.gamma(x + 1j * mp.mpf(v))
                                     / mp.gamma(x - 1j * mp.mpf(v))) for v in y])
            assert np.max(np.abs(u[::37] - want)) < 1e-12, mu


@pytest.mark.parametrize("m_max", [0, 3, _M_MAX])
def test_node_modes_make_two_loggamma_calls(rashba2, monkeypatch, m_max):
    # u_0 and u_1 take one Im loggamma each, and every higher order is stepped
    # from them, however many orders there are
    calls = []
    phase = certificate._im_loggamma

    def counted(x, y):
        calls.append(x)
        return phase(x, y)

    monkeypatch.setattr(certificate, "_im_loggamma", counted)
    _node_modes(rashba2, np.array([1.0, 0.0]), fhat_profile(0.4),
                np.array([0.5, 1.0, 3.0]), np.arange(-m_max, m_max + 1))
    assert len(calls) == 2


def test_no_module_calls_scipy_fht():
    package = pathlib.Path(certificate.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "fht" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "fht", path.name
            elif isinstance(node, ast.Name):
                assert node.id != "fht", path.name


# Rotation orbits: one band correction per orbit, one kinetic integral per
# pair geometry, checked against the work done point by point and pair by pair.


def _per_point_loop_potential(model, nu, basis):
    """W with Delta_j summed point by point from the radial modes it shares.

    The reference for the one product per set of points that share radial
    modes in potential_matrix_exact: with a ring every point turns p_0's,
    without one each point has its own; the harmonics e^{im(theta - phi_j)}
    are formed for each point on its own.
    """
    pts = basis.points
    max_p = _pair_scale(pts) + float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) + 4.0
    x, y, w = nu.quad_nodes(max_p)
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    f = np.exp(-0.5 * r ** basis.a)
    n = len(pts)
    if basis.ring is None:
        rep, phi, chi = np.arange(n), np.zeros(n), np.ones(n, dtype=complex)
    else:
        rep = np.zeros(n, dtype=int)
        phi, chi = _turns(model, pts)
    m_arr = np.arange(-_M_MAX, _M_MAX + 1)
    psi = np.empty((n, 2, len(x)), dtype=complex)
    for i in np.unique(rep):
        per_node = _node_modes(model, pts[i], basis.profile, r, m_arr)
        for j in np.flatnonzero(rep == i):
            px, py = pts[j]
            harmonics = np.exp(1j * np.outer(theta - phi[j], m_arr)) * (1j) ** m_arr
            delta = chi[j] * np.sum(harmonics * per_node, axis=1)
            v = lower_band_vectors(model, px, py)
            phase = np.exp(1j * (px * x + py * y))
            psi[j, 0] = phase * (v[0] * f + delta)
            psi[j, 1] = phase * (v[1] * f)
    return np.einsum("jsn,n,ksn->jk", psi.conj(), w, psi)


def _per_point_potential(model, nu, basis):
    """W with every point's band correction from its own mode table."""
    pts, prof = basis.points, basis.profile
    max_p = _pair_scale(pts) + float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) + 4.0
    x, y, w = nu.quad_nodes(max_p)
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    f = np.exp(-0.5 * r ** basis.a)
    m_arr = np.arange(-_M_MAX, _M_MAX + 1)
    harmonics = np.exp(1j * np.outer(theta, m_arr)) * (1j) ** m_arr
    psi = np.empty((len(pts), 2, len(x)), dtype=complex)
    for j, (px, py) in enumerate(pts):
        delta = np.sum(harmonics * _node_modes(model, pts[j], prof, r, m_arr), axis=1)
        v = lower_band_vectors(model, px, py)
        phase = np.exp(1j * (px * x + py * y))
        psi[j, 0] = phase * (v[0] * f + delta)
        psi[j, 1] = phase * (v[1] * f)
    return np.einsum("jsn,n,ksn->jk", psi.conj(), w, psi)


@pytest.mark.parametrize("case", [
    # (coupling, alpha, N, turn of the points, measure centre, radius, a of W)
    ("rashba", 2.0, 4, 0.97, (0.0, 0.0), 1.0, 0.4),
    # every node radius differs, and all take the one FFTLog transform per
    # order; a = 2 for W (T does not see the measure)
    ("dresselhaus", 3.0, 4, 0.0, (0.4, -0.2), 1.5, 2.0),
], ids=["rashba-turned", "dresselhaus-off-centre"])
def test_orbit_reduction_matches_per_point(case):
    # pi/2 steps map the 256-angle mode grid and the kinetic rules onto
    # themselves, so the reduction agrees to rounding
    kind, alpha, n, turn, centre, radius, a_w = case
    model = getattr(CouplingSpec, kind)(alpha)
    thr = threshold(model)
    pts = _rotated(select_points(thr.minset, n), turn)
    basis = trial_basis(model, thr, pts, 0.4)
    t_ref = _per_point_kinetic(model, thr, basis)
    t = kinetic_matrix(model, thr, basis)
    assert np.max(np.abs(t - t_ref)) <= 1e-12 * np.max(np.abs(t_ref))
    nu = CurveDelta(ClosedFormCircle(centre, radius), weight=-1.0)
    basis = trial_basis(model, thr, pts, a_w)
    w_ref = _per_point_potential(model, nu, basis)
    w = potential_matrix_exact(model, nu, basis)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))


@pytest.mark.parametrize("case", ["readme-circle", "gaussian-well", "own-orbits"])
def test_exact_potential_matches_per_point_loop(case, gaussian_well):
    if case == "own-orbits":
        # a coupling that is not odd, in a hand-built basis: no ring, so
        # every point takes its own modes
        model = _WORK_CASES["non-odd-3"][0]
        pts = _rotated(select_points(Circle((0.0, 0.0), 1.0), 3), 0.3)
        basis = TrialBasis(points=pts, a=1.0, profile=fhat_profile(1.0))
        nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    else:
        model = CouplingSpec.rashba(2.0)
        thr = threshold(model)
        n, a = (4, 0.4) if case == "readme-circle" else (2, 1.0)
        basis = trial_basis(model, thr, select_points(thr.minset, n), a)
        nu = (CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
              if case == "readme-circle" else gaussian_well)
    w_ref = _per_point_loop_potential(model, nu, basis)
    w = potential_matrix_exact(model, nu, basis)
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))


def test_orbit_reduction_six_point_ring():
    # at 60 degree steps the per-point angular FFT aliases on the kink ring,
    # so the per-point W differs from the rotated one well above rounding;
    # the certificate's eigenvalue does not
    model = CouplingSpec.dresselhaus(3.0)
    thr = threshold(model)
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.5), weight=-1.0)
    basis = trial_basis(model, thr, select_points(thr.minset, 6), 0.4)
    q_ref = _per_point_kinetic(model, thr, basis) + _per_point_potential(model, nu, basis)
    q = kinetic_matrix(model, thr, basis) + potential_matrix_exact(model, nu, basis)
    lam_ref = definiteness(q_ref).lambda_max
    assert abs(definiteness(q).lambda_max - lam_ref) <= 1e-6 * abs(lam_ref)


def _count_work(monkeypatch):
    """Record mode-table builds and kinetic half-plane integrals."""
    counts = {"tables": 0, "halfplanes": 0}

    class CountedTable(_ModeTable):
        def __init__(self, *args):
            counts["tables"] += 1
            super().__init__(*args)

    def counted_halfplane(*args):
        counts["halfplanes"] += 1
        return _kinetic_halfplane(*args)

    monkeypatch.setattr(certificate, "_ModeTable", CountedTable)
    monkeypatch.setattr(certificate, "_kinetic_halfplane", counted_halfplane)
    return counts


def _skewed_ring_model():
    """A(q) = 2|q| e^{i(theta + 0.3 sin theta)}: lambda_- = (|q| - 1)^2 - 1.

    The band is the ring |q| = 1, but its vector does not turn with q, so
    rotation is no symmetry of H_0.  ``threshold`` makes a point cloud of
    any custom coupling's minimum set; this one needs ThresholdData built by
    hand to reach the ring.
    """
    def coupling(px, py):
        theta = np.arctan2(py, px)
        return 2.0 * np.hypot(px, py) * np.exp(1j * (theta + 0.3 * np.sin(theta)))
    return (CouplingSpec.custom(coupling, r_growth=4.0),
            ThresholdData(-1.0, Circle((0.0, 0.0), 1.0)))


_WORK_CASES = {
    # a ring: one table; one diagonal integral plus one per pair distance
    "rashba-4": (CouplingSpec.rashba(2.0), 4, 1, 3),
    "dresselhaus-6": (CouplingSpec.dresselhaus(3.0), 6, 1, 4),
    # neither symmetry holds: every point and every ordered pair on its own
    "non-odd-3": (_CUSTOM, 3, 3, 3 + 3 * 2),
    # a ring band whose vector does not turn: no ring, so all on its own
    "skewed-ring-4": (_skewed_ring_model()[0], 4, 4, 4 + 4 * 3),
}


@pytest.mark.parametrize("case", sorted(_WORK_CASES))
def test_orbit_reduction_work_counts(case, monkeypatch):
    model, n, tables, halfplanes = _WORK_CASES[case]
    if case == "non-odd-3":
        # the minimum set is one point, so the trial points go on the unit
        # circle in a hand-built basis, which carries no ring
        thr = threshold(model)
        pts = _rotated(select_points(Circle((0.0, 0.0), 1.0), n), 0.3)
        basis = TrialBasis(points=pts, a=1.0, profile=fhat_profile(1.0))
    else:
        thr = _skewed_ring_model()[1] if case == "skewed-ring-4" else threshold(model)
        pts = _rotated(select_points(thr.minset, n), 0.3)
        basis = trial_basis(model, thr, pts, 1.0)
    # one table exactly when the basis carries a ring
    assert (basis.ring is None) == (tables > 1)
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    counts = _count_work(monkeypatch)
    kinetic_matrix(model, thr, basis)
    potential_matrix_exact(model, nu, basis)
    assert counts == {"tables": tables, "halfplanes": halfplanes}


@pytest.mark.parametrize("kind,alpha,ring", [("rashba", 2.0, 1.0), ("rashba", -2.0, 1.0),
                                             ("dresselhaus", 3.0, 1.5)])
def test_trial_basis_ring(kind, alpha, ring):
    model = getattr(CouplingSpec, kind)(alpha)
    thr = threshold(model)
    basis = trial_basis(model, thr, _rotated(select_points(thr.minset, 4), 0.3), 0.4)
    assert basis.ring == ring


def test_certify_runs_the_gate_once_per_step(rashba2, thr2, monkeypatch):
    calls = []

    def counted(p0, prof):
        calls.append(prof.a)
        return _gate_sample(p0, prof)

    monkeypatch.setattr(certificate, "_gate_sample", counted)
    weak = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-0.05)
    res = certify(rashba2, thr2, weak, 2, [0.4, 0.2], potential_form="exact")
    assert len(res.diagnostics) == 2
    assert calls == [0.4, 0.2]


def test_scaling_covariance(rashba2, thr2):
    # doubling the weight doubles both potential forms; T does not see the
    # measure, so Q = T + W only moves down by the semidefinite W(nu1) <= 0
    pts = select_points(thr2.minset, 2)
    basis = trial_basis(rashba2, thr2, pts, 0.4)
    nu1 = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    nu2 = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-2.0)
    wd1 = potential_matrix_dropped(nu1, basis)
    wd2 = potential_matrix_dropped(nu2, basis)
    assert np.max(np.abs(wd2 - 2.0 * wd1)) < 1e-10
    we1 = potential_matrix_exact(rashba2, nu1, basis)
    we2 = potential_matrix_exact(rashba2, nu2, basis)
    assert np.max(np.abs(we2 - 2.0 * we1)) < 1e-8
    t = kinetic_matrix(rashba2, thr2, basis)
    for w1, w2 in ((wd1, wd2), (we1, we2)):
        lam1 = definiteness(t + w1).lambda_max
        lam2 = definiteness(t + w2).lambda_max
        assert lam2 <= lam1 + 1e-10


# ---------------------------------------------------------------------------
# certify


def test_certify_config_errors(rashba2, thr2, circle_measure):
    with pytest.raises(ConfigError) as info:
        certify(rashba2, thr2, circle_measure, 2, [], potential_form="banana")
    assert len(info.value.errors) == 2
    with pytest.raises(ConfigError):
        certify(rashba2, thr2, circle_measure, 2, [0.1, 0.2])
    with pytest.raises(ConfigError):
        certify(rashba2, thr2, circle_measure, 2, [3.0])
    with pytest.raises(ConfigError, match="N = 2 points, got 4"):
        certify(rashba2, thr2, circle_measure, 2, [0.4],
                points=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def test_certify_refuses_a_complex_weight_at_the_precheck(rashba2, thr2, monkeypatch):
    # the precheck's Gram has the complex mass on its diagonal, which the
    # Hermitian check of ``definiteness`` refuses before any step is built
    def no_step(*args, **kwargs):
        raise AssertionError("a schedule step ran")

    monkeypatch.setattr(certificate, "trial_basis", no_step)
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0),
                    weight=lambda x, y: np.full(np.shape(x), -1.0 + 0.5j))
    with pytest.raises(NumericalInputError, match="not Hermitian"):
        certify(rashba2, thr2, nu, 4, [0.4])


def test_certify_zero_measure(rashba2, thr2):
    zero = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=0.0)
    res = certify(rashba2, thr2, zero, 2, [0.4], potential_form="dropped")
    assert not res.certified
    assert res.certified_count == 0
    assert res.a_star is None
    assert not res.prechecked_fourier_matrix.negative_definite


def test_certify_single_point(rashba2, thr2, circle_measure):
    res = certify(rashba2, thr2, circle_measure, 1, [0.1],
                  potential_form="dropped")
    assert res.certified and res.certified_count == 1
    assert res.lambda_max_Q < 0


def test_certify_dropped_form_full(rashba2, thr2, circle_measure):
    res = certify(rashba2, thr2, circle_measure, 4, [0.4, 0.2],
                  potential_form="dropped")
    assert res.certified and res.certified_count == 4
    assert res.a_star == 0.4
    assert res.prechecked_fourier_matrix.negative_definite
    step = res.diagnostics[0]
    assert step.negative_definite and step.lambda_max_Q == res.lambda_max_Q


def test_certify_from_gaussian_exponent(rashba2, thr2, circle_measure):
    # at a = 2 the profile table ends at rho = 37, short of the kinetic
    # rule's guard radius for pairs far apart on the circle; fhat is 0 past
    # the table, so its end counts as reaching the guard
    res = certify(rashba2, thr2, circle_measure, 4, [2.0, 0.4],
                  potential_form="dropped")
    assert len(res.diagnostics) == 2
    assert res.certified and res.certified_count == 4
    assert res.a_star == 0.4


def test_certify_exact_form_on_a_far_circle(rashba2, thr2):
    # every node radius takes the same FFTLog rule, however fast J_m(rho r)
    # oscillates there, so a measure far out (|x| = 70) certifies in the
    # exact form as in the dropped one
    far = CurveDelta(ClosedFormCircle((0.0, 0.0), 70.0), weight=-1.0)
    res = certify(rashba2, thr2, far, 1, [0.4], potential_form="exact")
    assert res.certified and np.isfinite(res.lambda_max_Q)


def test_certify_partial_count(rashba2, thr2):
    # a potential too weak to certify the full block still reports the
    # number of eigenvalues of Q below the margin
    weak = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-0.05)
    res = certify(rashba2, thr2, weak, 3, [0.4], potential_form="dropped")
    basis = trial_basis(rashba2, thr2, res.points, 0.4)
    Q = kinetic_matrix(rashba2, thr2, basis) + potential_matrix_dropped(weak, basis)
    lam = np.linalg.eigvalsh(Q)
    assert res.certified_count == np.count_nonzero(
        lam < -1e-8 * max(1.0, np.linalg.norm(Q)))
    assert res.certified == (res.certified_count == 3)
    if not res.certified:
        assert res.a_star is None


def test_certify_count_does_not_depend_on_point_order(rashba2, thr2, circle_measure):
    # a leading principal block of Q depends on the order of the points and
    # read 2, 4 and 2 here; the inertia of Q does not
    pts = select_points(thr2.minset, 12)
    for order in (np.arange(12), np.r_[0:12:2, 1:12:2], np.arange(12)[::-1]):
        res = certify(rashba2, thr2, circle_measure, 12, [0.2],
                      potential_form="exact", points=pts[order])
        assert not res.certified and res.certified_count == 6


def test_certify_readme_circle_eight_points_not_certified(rashba2, thr2, circle_measure,
                                                          monkeypatch):
    # with the gap subtracted and its rounding noise clamped to 0, T was low
    # enough at a = 0.025 for Q to read negative definite (lambda_max =
    # -5.44e-4); the exact gap leaves 6 of 8
    calls = []

    def counted(matrix):
        calls.append(np.shape(matrix))
        return definiteness(matrix)

    monkeypatch.setattr(certificate, "definiteness", counted)
    res = certify(rashba2, thr2, circle_measure, 8, (0.4, 0.2, 0.1, 0.05, 0.025),
                  potential_form="exact")
    assert not res.certified and res.a_star is None
    assert [s.negative_count for s in res.diagnostics] == [4, 6, 6, 6, 6]
    assert res.certified_count == 6
    assert res.lambda_max_Q > 1e-2
    # the precheck and one eigensolve per step, each on the whole matrix
    assert calls == [(8, 8)] * 6
