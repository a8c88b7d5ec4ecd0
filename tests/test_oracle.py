import numpy as np
import pytest
import scipy.linalg

from spinbound import oracle
from spinbound.errors import CapacityError, ConfigError, SupportError
from spinbound.measure import (ClosedFormCircle, CurveDelta, Density, Segment, Sum,
                               total_mass)
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
    # invariant under quarter turns: the turned rows are a permutation of the set
    rows = {tuple(r) for r in n_pairs}
    assert {(-b, a) for a, b in rows} == rows
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
# rotation sectors


# (model, measure, box, sizes of the blocks spectrum() solves).  The box
# lattices have M = 1 + 4 * 81 = 325 and M = 1 + 4 * 73 = 293 modes; with
# four sectors the origin's spin-up state joins sector 0 and its spin-down
# state the sector of phi (R turns counterclockwise, so Rashba has
# phi = -i and Dresselhaus phi = i).  Time reversal pairs sector j with
# sector p - j, and only the lower sector of each pair is solved: 0 and 1
# of Rashba's 163/162/162/163, 0 and 2 of Dresselhaus's 147/147/146/146
_SPLIT_CASES = {
    # C4-symmetric measures: U = P_R (x) diag(1, phi) commutes
    "rashba-circle": (CouplingSpec.rashba(2.0), _circle((0.0, 0.0)),
                      BoxSpec(L=8.0, K=4.0), [163, 162]),
    "dresselhaus-well": (CouplingSpec.dresselhaus(3.0), _well((0.0, 0.0)),
                         BoxSpec(L=10.0, K=3.0), [147, 146]),
    # a centred segment keeps only the half turn, with phi = -1: two
    # sectors of 325, one Kramers pair
    "rashba-segment": (CouplingSpec.rashba(2.0),
                       CurveDelta(Segment((-1.0, 0.0), (1.0, 0.0)), weight=-1.0),
                       BoxSpec(L=8.0, K=4.0), [325]),
    # any other input is one block
    "off-centre-circle": (CouplingSpec.rashba(2.0), _circle((0.7, 0.3)),
                          BoxSpec(L=8.0, K=4.0), [650]),
    "sum-off-centre-part": (CouplingSpec.rashba(2.0),
                            Sum([_circle((0.0, 0.0)),
                                 _circle((0.7, 0.3), radius=0.5, weight=-0.5)]),
                            BoxSpec(L=8.0, K=4.0), [650]),
    "non-odd-coupling": (CouplingSpec.custom(lambda px, py: 2.0 * (py + 1j * px) + 0.3,
                                             a_growth=0.5, r_growth=4.0),
                         _circle((0.0, 0.0)), BoxSpec(L=8.0, K=4.0), [650]),
    # a vanishing coupling fits phi = 1, whose sectors 0 and 2 are their own
    # time-reversal partners: all four are solved, the origin's two spin
    # states both in sector 0
    "zero-coupling": (CouplingSpec.rashba(0.0), _circle((0.0, 0.0)),
                      BoxSpec(L=8.0, K=4.0), [164, 162, 162, 162]),
}
# the cases solved one block per Kramers pair
_PAIRED = ("dresselhaus-well", "rashba-circle", "rashba-segment")


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_parity_split_matches_full_eigensolve(case, monkeypatch):
    # the rotation sectors generalise the k -> -k parity split (the half turn)
    model, nu, box, sizes = _SPLIT_CASES[case]
    thr = threshold(model)
    ref = scipy.linalg.eigvalsh(assemble(model, nu, box))
    solved = _solve_sizes(monkeypatch)
    res = spectrum(model, thr, nu, box)
    assert solved == sizes
    assert res.mode_count == len(ref) // 2

    assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10
    edge = box.resolved_edge_tol(thr.kappa)
    below = ref < thr.kappa - edge
    assert res.count_below == int(np.sum(below))
    assert res.marginal_count == int(np.sum((ref >= thr.kappa - edge)
                                            & (ref < thr.kappa + edge)))
    assert ([(i, j) for i, j, _ in res.pairing]
            == [(i, j) for i, j, _ in oracle._greedy_pairs(ref[below])])
    # the paired cases bind Kramers pairs; both halves come from one block
    if case in _PAIRED:
        assert res.count_below >= 2
        assert len(res.pairing) == res.count_below // 2
        assert all(gap == 0.0 for _, _, gap in res.pairing)


@pytest.mark.parametrize("case", _PAIRED)
def test_kramers_partners_across_sectors(case):
    # time reversal turns sector omega into sector phi / omega, another
    # block, so each block's spectrum (its bound states below kappa too)
    # must equal its partner's: a cross-check of how the blocks are built,
    # and of solving one block per pair
    model, nu, box, _ = _SPLIT_CASES[case]
    kappa = threshold(model).kappa
    n_pairs, a, table = oracle._operator_data(model, nu, box)
    step = np.pi / box.L
    n, p, paired, table, a = oracle._symmetry(model, n_pairs, a, table, step)
    # the pairing rests on a real table (and an odd coupling)
    assert paired and np.isrealobj(table)
    blocks = oracle._blocks(n_pairs, step, n, p, table, a, range(n))
    eigs = [scipy.linalg.eigvalsh(b) for b in blocks]
    assert sum(int(np.sum(e < kappa)) for e in eigs) >= 2
    for j in range(n):
        partner = (p - j) % n
        assert partner != j
        assert len(eigs[j]) == len(eigs[partner])
        assert np.max(np.abs(eigs[j] - eigs[partner])) < 1e-10


@pytest.mark.parametrize("weight, sizes", [(1e-15, [163, 162]),
                                           (1e-13, [650])])
def test_sector_gate_at_one_rounding_unit(weight, sizes, monkeypatch):
    # an off-centre circle of weight 1e-13 breaks C4 (and C2) by about four
    # rounding units of ||H||_F, one of weight 1e-15 by a twentieth of one
    model = CouplingSpec.rashba(2.0)
    nu = Sum([_circle((0.0, 0.0)),
              _circle((0.7, 0.3), radius=0.5, weight=-weight)])
    box = BoxSpec(L=8.0, K=4.0)
    solved = _solve_sizes(monkeypatch)
    res = spectrum(model, threshold(model), nu, box)
    assert solved == sizes
    ref = scipy.linalg.eigvalsh(assemble(model, nu, box))
    assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10


@pytest.mark.parametrize("imag, sizes", [(7e-16, [163, 162]),
                                         (6e-14, [163, 162, 162, 163])])
def test_time_reversal_gate_at_one_rounding_unit(imag, sizes, monkeypatch):
    # an imaginary part imag * nuhat keeps the centred circle's table
    # invariant under the quarter turn but breaks time reversal: by about
    # four rounding units of ||H||_F at 6e-14, a twentieth of one at 7e-16.
    # Past the budget all four sectors are solved, as without the pairing
    model = CouplingSpec.rashba(2.0)
    nu = _circle((0.0, 0.0))
    box = BoxSpec(L=8.0, K=4.0)
    grid = oracle.fourier_grid
    monkeypatch.setattr(oracle, "fourier_grid",
                        lambda *args: grid(*args) * (1.0 + 1j * imag))
    ref = scipy.linalg.eigvalsh(assemble(model, nu, box))
    solved = _solve_sizes(monkeypatch)
    res = spectrum(model, threshold(model), nu, box)
    assert solved == sizes
    assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10


def test_eigen_count_below_solves_the_matrix_as_given(rashba2, thr2, circle_measure,
                                                      monkeypatch):
    # a symmetric operator's matrix, and one of another box's lattice, are
    # each solved whole
    matrices = [assemble(rashba2, circle_measure, BoxSpec(L=6.0, K=cut))
                for cut in (3.0, 2.0)]
    refs = [scipy.linalg.eigvalsh(h) for h in matrices]
    solved = _solve_sizes(monkeypatch)
    for h, ref in zip(matrices, refs):
        res = eigen_count_below(rashba2, thr2, h, BoxSpec(L=6.0, K=3.0))
        assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10
        assert res.mode_count == h.shape[0] // 2
    assert solved == [h.shape[0] for h in matrices]


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
