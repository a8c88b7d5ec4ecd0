import numpy as np
import pytest
import scipy.linalg

from spinbound import oracle
from spinbound.errors import CapacityError, ConfigError, SupportError
from spinbound.measure import ClosedFormCircle, CurveDelta, Density, Sum, total_mass
from spinbound.model import CouplingSpec, threshold
from spinbound.oracle import (BoxSpec, assemble, convergence_sweep,
                              eigen_count_below, spectrum)


def _well(center, depth=2.0, half_side=8.0):
    cx, cy = center
    return Density(lambda x, y: -depth * np.exp(-0.5 * ((x - cx) ** 2 + (y - cy) ** 2)),
                   (cx - half_side, cx + half_side, cy - half_side, cy + half_side))


def _circle(center, radius=1.0, weight=-1.0):
    return CurveDelta(ClosedFormCircle(center, radius), weight=weight)


def _solve_sizes(monkeypatch):
    """Record the size of every matrix the oracle hands to eigvalsh."""
    sizes = []
    original = scipy.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return original(a, *args, **kwargs)
    monkeypatch.setattr(oracle.scipy.linalg, "eigvalsh", spy)
    return sizes


# ---------------------------------------------------------------------------
# BoxSpec


def test_boxspec_validation():
    with pytest.raises(ConfigError):
        BoxSpec(L=-1.0, K=3.0)
    with pytest.raises(ConfigError):
        BoxSpec(L=4.0, K=0.0)
    with pytest.raises(ConfigError):
        BoxSpec(L=4.0, K=3.0, edge_tol=-1e-3)
    with pytest.raises(CapacityError):
        BoxSpec(L=40.0, K=40.0).modes()


def test_mode_lattice_symmetry_and_membership():
    box = BoxSpec(L=5.0, K=3.0)
    k, n_pairs = box.modes()
    step = np.pi / box.L
    assert np.allclose(k, step * n_pairs)
    assert np.all(np.hypot(k[:, 0], k[:, 1]) <= box.K * (1 + 1e-9))
    # invariant under k -> -k: the negated rows are a permutation of the set
    rows = {tuple(r) for r in n_pairs}
    assert {(-a, -b) for a, b in rows} == rows
    assert (0, 0) in rows


def test_resolved_edge_tol():
    assert BoxSpec(L=4.0, K=2.0).resolved_edge_tol(-1.0) == pytest.approx(1e-4)
    assert BoxSpec(L=4.0, K=2.0, edge_tol=0.01).resolved_edge_tol(-1.0) == 0.01


# ---------------------------------------------------------------------------
# free operator


def test_free_spectrum_exact(rashba2, thr2):
    # with no measure the eigenvalues are exactly the two bands on the lattice
    box = BoxSpec(L=5.0, K=3.0)
    k, _ = box.modes()
    p = np.hypot(k[:, 0], k[:, 1])
    expected = np.sort(np.concatenate([p * p - 2.0 * p, p * p + 2.0 * p]))
    res = spectrum(rashba2, thr2, None, box)
    assert np.max(np.abs(res.eigenvalues - expected)) < 1e-10
    # the free operator is bounded below by kappa: nothing below the edge
    assert res.count_below == 0


def test_hermitian_assembly(rashba2, circle_measure):
    h = assemble(rashba2, circle_measure, BoxSpec(L=12.0, K=4.0))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_diagonal_coupling_is_scaled_total_mass(rashba2, gaussian_well):
    box = BoxSpec(L=10.0, K=2.0)
    h = assemble(rashba2, gaussian_well, box)
    hfree = assemble(rashba2, None, box)
    diag = np.diag(h - hfree)
    # coupling at zero mode difference: (2 pi / 4L^2) * nuhat(0), and
    # nuhat(0) = total mass / (2 pi)
    expected = total_mass(gaussian_well) / (4.0 * box.L ** 2)
    assert np.allclose(diag, expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# counting, pairing, sweeps


def test_variational_monotonicity(rashba2, thr2, circle_measure):
    # growing the basis can only lower each ordered eigenvalue
    prev = None
    for cut in (2.0, 3.0, 4.0):
        res = spectrum(rashba2, thr2, circle_measure, BoxSpec(L=6.0, K=cut))
        if prev is not None:
            n = len(prev)
            assert np.all(res.eigenvalues[:n] <= prev + 1e-10)
        prev = res.eigenvalues


def test_kramers_pairing_gaussian(thr2, gaussian_well):
    # time-reversal symmetry forces two-fold degeneracy below the edge
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    res = spectrum(model, thr, gaussian_well, BoxSpec(L=10.0, K=4.0))
    assert res.count_below >= 2
    assert res.count_below % 2 == 0
    assert len(res.pairing) == res.count_below // 2
    for _, _, gap in res.pairing:
        assert gap < 1e-9


def test_support_error():
    wide = Density(lambda x, y: -np.exp(-0.5 * (x * x + y * y)),
                   (-8.0, 8.0, -8.0, 8.0))
    with pytest.raises(SupportError):
        assemble(CouplingSpec.rashba(2.0), wide, BoxSpec(L=6.0, K=2.0))
    with pytest.raises(SupportError):
        assemble(CouplingSpec.rashba(2.0),
                 Sum([CurveDelta(ClosedFormCircle((0.0, 0.0), 7.0), weight=-1.0)]),
                 BoxSpec(L=6.0, K=2.0))


def test_sweep_validation(rashba2, thr2, circle_measure):
    with pytest.raises(ConfigError):
        convergence_sweep(rashba2, thr2, circle_measure, 6.0, [])
    with pytest.raises(ConfigError):
        convergence_sweep(rashba2, thr2, circle_measure, 6.0, [3.0, 2.0])


def test_sweep_zero_measure(rashba2, thr2):
    zero = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=0.0)
    sweep = convergence_sweep(rashba2, thr2, zero, 6.0, [2.0, 3.0])
    assert sweep.stable
    assert [r.count_below for r in sweep.results] == [0, 0]
    assert sweep.count_diffs == [0]


def test_circle_sweep_stable_count(rashba2, thr2, circle_measure):
    sweep = convergence_sweep(rashba2, thr2, circle_measure, 8.0, [4.0, 5.0])
    assert sweep.stable
    counts = [r.count_below for r in sweep.results]
    assert counts[0] == counts[1]
    assert counts[-1] >= 4
    top = sweep.results[-1]
    assert len(top.pairing) == top.count_below // 2


def test_box_doubling_consistency(thr2, gaussian_well):
    # the bound-state count is a box-independent statement once L is large
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    small = spectrum(model, thr, gaussian_well, BoxSpec(L=10.0, K=3.0))
    big = spectrum(model, thr, gaussian_well, BoxSpec(L=20.0, K=3.0))
    assert small.count_below == big.count_below
    n = min(4, small.count_below)
    assert np.max(np.abs(small.eigenvalues[:n] - big.eigenvalues[:n])) < 1e-2


def test_eigen_count_below_edge_band(rashba2, thr2):
    # eigenvalues inside the margin are marginal, not counted
    box = BoxSpec(L=4.0, K=2.0, edge_tol=0.5)
    m = np.diag([thr2.kappa - 1.0, thr2.kappa - 0.6, thr2.kappa - 0.1,
                 thr2.kappa + 0.2, 1.0, 2.0]).astype(complex)
    res = eigen_count_below(rashba2, thr2, m, box)
    assert res.count_below == 2
    assert res.marginal_count == 2


# ---------------------------------------------------------------------------
# parity split k -> -k


_SPLIT_CASES = {
    # odd coupling and centrally symmetric measure: U = P (x) sigma_z commutes
    "rashba-circle": (CouplingSpec.rashba(2.0), _circle((0.0, 0.0)),
                      BoxSpec(L=8.0, K=4.0), True),
    "dresselhaus-well": (CouplingSpec.dresselhaus(3.0), _well((0.0, 0.0)),
                         BoxSpec(L=10.0, K=3.0), True),
    # any other input takes the full eigensolve
    "off-centre-circle": (CouplingSpec.rashba(2.0), _circle((0.7, 0.3)),
                          BoxSpec(L=8.0, K=4.0), False),
    "sum-off-centre-part": (CouplingSpec.rashba(2.0),
                            Sum([_circle((0.0, 0.0)),
                                 _circle((0.7, 0.3), radius=0.5, weight=-0.5)]),
                            BoxSpec(L=8.0, K=4.0), False),
    "non-odd-coupling": (CouplingSpec.custom(lambda px, py: 2.0 * (py + 1j * px) + 0.3,
                                             a_growth=0.5, r_growth=4.0),
                         _circle((0.0, 0.0)), BoxSpec(L=8.0, K=4.0), False),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_parity_split_matches_full_eigensolve(case, monkeypatch):
    model, nu, box, split = _SPLIT_CASES[case]
    thr = threshold(model)
    h = assemble(model, nu, box)
    m = h.shape[0] // 2
    ref = scipy.linalg.eigvalsh(h)
    sizes = _solve_sizes(monkeypatch)
    res = eigen_count_below(model, thr, h, box)
    assert sizes == ([m, m] if split else [2 * m])

    assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10
    edge = box.resolved_edge_tol(thr.kappa)
    below = ref < thr.kappa - edge
    assert res.count_below == int(np.sum(below))
    assert res.marginal_count == int(np.sum((ref >= thr.kappa - edge)
                                            & (ref < thr.kappa + edge)))
    assert ([(i, j) for i, j, _ in res.pairing]
            == [(i, j) for i, j, _ in oracle._greedy_pairs(ref[below])])
    # the split cases bind Kramers pairs; their halves come from different blocks
    if split:
        assert res.count_below >= 2
        assert len(res.pairing) == res.count_below // 2


def test_parity_split_needs_the_lattice_size(rashba2, thr2, circle_measure, monkeypatch):
    # a matrix of another box's lattice is solved whole
    h = assemble(rashba2, circle_measure, BoxSpec(L=6.0, K=2.0))
    sizes = _solve_sizes(monkeypatch)
    res = eigen_count_below(rashba2, thr2, h, BoxSpec(L=6.0, K=3.0))
    assert sizes == [h.shape[0]]
    assert np.max(np.abs(res.eigenvalues - scipy.linalg.eigvalsh(h))) < 1e-10


def test_kramers_pairing_off_centre_well(monkeypatch):
    # time reversal pairs the bound states without inversion symmetry too:
    # the well sits at (1, 0.5) on a support square of side 5 around it
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    box = BoxSpec(L=5.0, K=4.0)
    sizes = _solve_sizes(monkeypatch)
    res = spectrum(model, thr, _well((1.0, 0.5), half_side=2.5), box)
    assert sizes == [2 * res.mode_count]
    assert res.count_below >= 2
    assert res.count_below % 2 == 0
    assert len(res.pairing) == res.count_below // 2
    for _, _, gap in res.pairing:
        assert gap < 1e-9
