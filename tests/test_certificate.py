import numpy as np
import pytest
from scipy.special import jv

from spinbound import certificate
from spinbound.certificate import (_M_MAX, TrialBasis, _kinetic_halfplane,
                                   _ModeTable, _angular_modes, _node_modes,
                                   _pair_scale, _radial_modes, certify,
                                   definiteness, kinetic_matrix,
                                   potential_matrix_dropped,
                                   potential_matrix_exact, select_points,
                                   trial_basis)
from spinbound.errors import CapacityError, ConfigError, NumericalInputError
from spinbound.hankel import fhat_profile
from spinbound.measure import ClosedFormCircle, CurveDelta, fourier_matrix
from spinbound.model import (Circle, CouplingSpec, PointCloud,
                             lower_band_vectors, quad_constant, threshold)
from spinbound.quadrature import merge_edges, panel_rule

TWO_PI_E = 2.0 * np.pi * np.exp(-1.0)


def zero_coupling_model():
    return CouplingSpec.custom(
        lambda px, py: np.zeros(np.broadcast(px, py).shape, dtype=complex),
        a_growth=0.5, r_growth=1.0)


def constant_coupling_model():
    # |A| constant => u_minus has a constant phase everywhere
    return CouplingSpec.custom(
        lambda px, py: np.full(np.broadcast(px, py).shape, 0.5j, dtype=complex),
        a_growth=0.5, r_growth=1.0)


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
    far = select_points(cloud, 2, strategy="farthest_point")
    assert len(far) == 2
    with pytest.raises(ConfigError):
        select_points(circle, 2, strategy="mystery")


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


def test_definiteness_rejects_non_hermitian():
    with pytest.raises(NumericalInputError):
        definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    c = [quad_constant(model, thr, p) for p in pts]
    prev = None
    for a in (0.4, 0.2, 0.1):
        basis = trial_basis(model, thr, pts, a)
        t = kinetic_matrix(model, thr, basis)
        diag = np.real(np.diag(t))
        assert np.all(diag >= 0.0)
        for j in range(len(pts)):
            assert diag[j] <= 0.5 * np.pi * c[j] * a
        if prev is not None:        # monotone decay along the schedule
            assert np.all(diag <= prev + 1e-9)
        prev = diag


def test_kinetic_diagonal_turns_with_the_point(rashba2, thr2):
    # the diagonal integral's angular rule starts at arg(p_j); lambda_- is
    # radial, so T_jj is the same for every orientation of p_j
    prof = fhat_profile(0.4)
    ang = 2.0 * np.pi * np.arange(12) / 12.0 + 0.05
    diag = np.array([_kinetic_halfplane(rashba2, thr2.kappa, prof,
                                        np.array([np.cos(t), np.sin(t)]), None)
                     for t in ang])
    assert np.ptp(diag) <= 1e-12 * np.max(np.abs(diag))


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


@pytest.mark.slow
def test_exact_equals_dropped_for_constant_phase_density(gaussian_well):
    # exercises the many-distinct-radii interpolation branch of the band
    # correction; the residual measures that pipeline's numerical error
    model = constant_coupling_model()
    thr = threshold(model)
    pts = select_points(thr.minset, 1)
    basis = trial_basis(model, thr, pts, 1.0)
    we = potential_matrix_exact(model, gaussian_well, basis)
    wd = potential_matrix_dropped(gaussian_well, basis)
    assert np.max(np.abs(we - wd)) < 3e-5


@pytest.mark.slow
def test_exact_matrix_brute_force(rashba2, thr2, circle_measure):
    # independent evaluation of Psi_j on the measure nodes by direct polar
    # quadrature of the band-projected inverse transform at a = 1
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    basis = trial_basis(rashba2, thr2, pts, 1.0)
    we = potential_matrix_exact(rashba2, circle_measure, basis)

    x, y, wgt = circle_measure.quad_nodes(2.0)
    prof = basis.profile
    rho, wr = [], []
    import spinbound.quadrature as q
    r_nodes, r_w = q.log_rule(1e-6, 400.0, 160, 8)
    ang, aw = q.uniform_rule(0.0, 2.0 * np.pi, 128, 8)
    PX = pts[:, 0][:, None, None] + r_nodes[None, :, None] * np.cos(ang)[None, None, :]
    PY = pts[:, 1][:, None, None] + r_nodes[None, :, None] * np.sin(ang)[None, None, :]
    F = prof(np.hypot(PX - pts[:, 0][:, None, None], PY - pts[:, 1][:, None, None]))
    U = lower_band_vectors(rashba2, PX, PY)          # (2, nr, na, 2)
    W = (r_nodes * r_w)[None, :, None] * aw[None, None, :]
    psi = np.zeros((2, len(x), 2), dtype=complex)
    for j in range(2):
        px, py = PX[j].ravel(), PY[j].ravel()
        amp = (W[0] * F[j]).ravel()
        coef = U[j].reshape(-1, 2) * amp[:, None]
        # accumulate in blocks so the phase matrix stays small
        for lo in range(0, len(px), 65536):
            hi = lo + 65536
            phase = np.exp(1j * (px[lo:hi, None] * x[None, :]
                                 + py[lo:hi, None] * y[None, :]))
            psi[j] += (phase.T @ coef[lo:hi]) / (2.0 * np.pi)
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


def _band_modes(model, a):
    pj = np.array([1.0, 0.0])
    m_arr = np.arange(-_M_MAX, _M_MAX + 1)
    prof = fhat_profile(a)
    return pj, m_arr, prof, _ModeTable(model, pj, prof, m_arr)


def _kink_cluster(rj, depth):
    side = np.geomspace(10.0 ** -depth, 0.05, 2 * depth)
    return rj * np.concatenate([1.0 - side, 1.0 + side])


@pytest.mark.parametrize("rr", [6.0, 12.0])
def test_radial_modes_resolve_bessel_at_gaussian_exponent(rashba2, rr):
    # at a = 2 the profile table stops at rho = 37, well inside the range
    # where J_m(rho r) oscillates; reference: panels of width <= pi/(4r) out
    # to rho = 40 with the closed form fhat = exp(-rho^2/2).  Both sides take
    # c_m from the mode table, so only the radial rule is compared (the
    # table's own interpolation moves R_m here by up to 2.3e-4 of max|R_m|)
    pj, m_arr, prof, modes = _band_modes(rashba2, 2.0)
    got = _radial_modes(modes, prof, rr, m_arr)
    panels = int(np.ceil(40.0 / (0.25 * np.pi / rr)))
    edges = merge_edges(np.linspace(0.0, 40.0, panels + 1), _kink_cluster(1.0, 10))
    rho, w = panel_rule(edges, 8)
    cm = modes(rho)
    ref = ((w * rho * np.exp(-0.5 * rho * rho))[:, None] * cm
           * jv(m_arr[None, :], rho[:, None] * rr)).sum(axis=0)
    assert np.max(np.abs(got - ref)) < 1e-5 * np.max(np.abs(ref))


def test_radial_modes_tail_at_origin(rashba2):
    # at r = 0 only m = 0 survives, and past the table c_0 -> -u_-(p_j)_1
    # while g = c_0 fhat rho ~ rho^-(1+a) keeps a tail g(p) p / a; at
    # a = 0.025 that tail is a sizeable share of R_0(0).  Reference: the
    # integral to P = 1e6 plus the constant c_0 times the mass past P,
    # which the identity int fhat rho d rho = f_a(0) = 1 gives
    pj, m_arr, prof, modes = _band_modes(rashba2, 0.025)
    got = _radial_modes(modes, prof, 0.0, m_arr)
    assert np.all(got[m_arr != 0] == 0.0)
    big_p = 1e6
    decades = int(np.ceil(np.log10(big_p / prof.rho_lo)))
    edges = merge_edges([0.0], np.geomspace(prof.rho_lo, big_p, 16 * decades + 1),
                        _kink_cluster(1.0, 10))
    rho, w = panel_rule(edges, 8)
    mass = w * prof(rho) * rho
    c0 = _angular_modes(rashba2, pj, rho, np.array([0]))[:, 0]
    u1 = lower_band_vectors(rashba2, pj[0], pj[1])[0]
    ref = np.sum(c0 * mass) - u1 * (1.0 - np.sum(mass))
    assert abs(got[_M_MAX] - ref) < 1e-5 * abs(ref)


# Rotation orbits: one band correction per orbit, one kinetic integral per
# pair geometry, checked against the work done point by point and pair by pair.


def _rotated(pts, turn):
    c, s = np.cos(turn), np.sin(turn)
    return pts @ np.array([[c, s], [-s, c]])


def _per_point_kinetic(model, thr, basis):
    """T with both halves of every pair integrated on their own."""
    pts, prof = basis.points, basis.profile
    n = len(pts)
    T = np.zeros((n, n))
    for j in range(n):
        T[j, j] = _kinetic_halfplane(model, thr.kappa, prof, pts[j], None)
        for k in range(j + 1, n):
            T[j, k] = T[k, j] = (_kinetic_halfplane(model, thr.kappa, prof, pts[j], pts[k])
                                 + _kinetic_halfplane(model, thr.kappa, prof, pts[k], pts[j]))
    return T


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
    # every node radius differs, so W takes the 48-radius spline branch;
    # a = 2 keeps its 48 radial rules short (T does not see the measure)
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


_WORK_CASES = {
    # one orbit: one table; one diagonal integral plus one per pair distance
    "rashba-4": (CouplingSpec.rashba(2.0), 4, 1, 3),
    "dresselhaus-6": (CouplingSpec.dresselhaus(3.0), 6, 1, 4),
    # neither symmetry holds: every point and every ordered pair on its own
    "non-odd-3": (CouplingSpec.custom(lambda px, py: 2.0 * (py + 1j * px) + 0.3,
                                      a_growth=0.5, r_growth=4.0), 3, 3, 3 + 3 * 2),
}


@pytest.mark.parametrize("case", sorted(_WORK_CASES))
def test_orbit_reduction_work_counts(case, monkeypatch):
    model, n, tables, halfplanes = _WORK_CASES[case]
    thr = threshold(model)
    # the non-odd coupling's minimum set is one point, so the trial points
    # go on the unit circle without the minimum-set check of trial_basis
    radius = thr.minset.radius if isinstance(thr.minset, Circle) else 1.0
    pts = _rotated(select_points(Circle((0.0, 0.0), radius), n), 0.3)
    basis = TrialBasis(points=pts, a=1.0, profile=fhat_profile(1.0))
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    counts = _count_work(monkeypatch)
    kinetic_matrix(model, thr, basis)
    potential_matrix_exact(model, nu, basis)
    assert counts == {"tables": tables, "halfplanes": halfplanes}


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


def test_certify_partial_count(rashba2, thr2):
    # a potential too weak to certify the full block still reports the
    # largest definite leading principal block
    weak = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-0.05)
    res = certify(rashba2, thr2, weak, 3, [0.4], potential_form="dropped")
    assert res.certified_count <= 3
    if not res.certified:
        assert res.a_star is None
        assert res.certified_count < 3
