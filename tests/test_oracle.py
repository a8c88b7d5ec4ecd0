import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spinbound import oracle
from spinbound.cli import main
from spinbound.config import build_measure
from spinbound.errors import CapacityError, ConfigError, NumericalInputError, SupportError
from spinbound.measure import ClosedFormCircle, CurveDelta, Density, Segment, Sum
from spinbound.model import CouplingSpec, threshold
from spinbound.oracle import (BoxSpec, assemble, convergence_sweep,
                              eigen_count_below, spectrum)


def _well(center, depth=2.0, half_side=8.0):
    cx, cy = center
    return Density(lambda x, y: -depth * np.exp(-0.5 * ((x - cx) ** 2 + (y - cy) ** 2)),
                   (cx - half_side, cx + half_side, cy - half_side, cy + half_side))


def _circle(center, radius=1.0, weight=-1.0):
    return CurveDelta(ClosedFormCircle(center, radius), weight=weight)


REAL, COMPLEX = "float64", "complex128"


def _solve_sizes(monkeypatch):
    """Record the size and dtype of every matrix the oracle hands to its eigensolver."""
    sizes = []
    original = oracle._eigvalsh

    def spy(a):
        sizes.append((np.shape(a)[0], np.asarray(a).dtype.name))
        return original(a)
    monkeypatch.setattr(oracle, "_eigvalsh", spy)
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
    expected = np.sum(gaussian_well.quad_nodes(0.0)[2]) / (4.0 * box.L ** 2)
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
    # time-reversal symmetry forces two-fold degeneracy below the edge.
    # spectrum() takes both halves of a pair from one block, so the gaps
    # come from the dense matrix, where the halves are solved apart
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    box = BoxSpec(L=10.0, K=4.0)
    ref = scipy.linalg.eigvalsh(assemble(model, gaussian_well, box))
    res = spectrum(model, thr, gaussian_well, box)
    assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10
    below = ref[ref < thr.kappa - box.resolved_edge_tol(thr.kappa)]
    assert len(below) == res.count_below
    assert res.count_below >= 2
    assert res.count_below % 2 == 0
    pairs = oracle._greedy_pairs(below)
    assert len(pairs) == res.count_below // 2
    for _, _, gap in pairs:
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


def _nan_in_table(monkeypatch):
    """Make oracle.fourier_grid put one NaN into the potential table."""
    grid = oracle.fourier_grid

    def poisoned(*args):
        table = grid(*args)
        table[1, 2] = np.nan
        return table
    monkeypatch.setattr(oracle, "fourier_grid", poisoned)


def test_non_finite_potential_raises_typed_error(rashba2, thr2, circle_measure,
                                                 monkeypatch):
    # np.linalg.eigvalsh returns NaN eigenvalues for a matrix with a NaN
    # entry and raises nothing, so the table is checked before any block
    _nan_in_table(monkeypatch)
    solved = _solve_sizes(monkeypatch)
    with pytest.raises(NumericalInputError, match="non-finite"):
        spectrum(rashba2, thr2, circle_measure, BoxSpec(L=6.0, K=2.5))
    assert solved == []


def test_non_finite_potential_exits_3(tmp_path, monkeypatch, capsys):
    _nan_in_table(monkeypatch)
    doc = {"model": {"type": "rashba", "alpha": 2.0},
           "measure": {"type": "curve", "weight": -1.0,
                       "curve": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0}},
           "oracle": {"L": 6.0, "cutoffs": [2.5]}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["oracle", "-c", str(cfg), "-o", str(tmp_path / "r.json")]) == 3
    assert "non-finite" in capsys.readouterr().err


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


# (model, measure, box, sizes of the blocks spectrum() solves, their dtype).
# The box lattices have M = 1 + 4 * 81 = 325 and M = 1 + 4 * 73 = 293
# modes; with four sectors the origin's spin-up state joins sector 0 and
# its spin-down state the sector of phi (R turns counterclockwise, so
# Rashba has phi = -i and Dresselhaus phi = i).  Time reversal pairs sector
# j with sector p - j, and only the lower sector of each pair is solved: 0
# and 1 of Rashba's 163/162/162/163, 0 and 2 of Dresselhaus's
# 147/147/146/146.  A block is real when Theta = K P_m diag(1, chi), for
# one of the lattice's mirrors m, commutes as well: K P_m is the mirror
# x -> -x in position space for m (k_x, k_y) = (k_x, -k_y), y -> -y for
# (-k_x, k_y), and the diagonals' mirrors for the other two
_SPLIT_CASES = {
    # C4-symmetric measures: U = P_R (x) diag(1, phi) commutes, and Theta
    # with chi = -1 for Rashba, +1 for Dresselhaus
    "rashba-circle": (CouplingSpec.rashba(2.0), _circle((0.0, 0.0)),
                      BoxSpec(L=8.0, K=4.0), [163, 162], REAL),
    "dresselhaus-well": (CouplingSpec.dresselhaus(3.0), _well((0.0, 0.0)),
                         BoxSpec(L=10.0, K=3.0), [147, 146], REAL),
    # a turned gauge, A -> e^(0.4 i) A, fits chi = -e^(-0.8 i), not real
    "turned-gauge-rashba": (CouplingSpec.custom(
        lambda px, py: np.exp(0.4j) * 2.0 * (py + 1j * px), r_growth=4.0),
        _circle((0.0, 0.0)), BoxSpec(L=8.0, K=4.0), [163, 162], REAL),
    # a centred segment keeps only the half turn, with phi = -1: two
    # sectors of 325, one Kramers pair
    "rashba-segment": (CouplingSpec.rashba(2.0),
                       CurveDelta(Segment((-1.0, 0.0), (1.0, 0.0)), weight=-1.0),
                       BoxSpec(L=8.0, K=4.0), [325], REAL),
    # without the half turn the operator is one block of 2M, real when a
    # mirror keeps the measure: off the centre along the x-axis
    "x-axis-circle": (CouplingSpec.rashba(2.0), _circle((0.7, 0.0)),
                      BoxSpec(L=8.0, K=4.0), [650], REAL),
    "sum-x-axis-part": (CouplingSpec.rashba(2.0),
                        Sum([_circle((0.0, 0.0)),
                             _circle((0.7, 0.0), radius=0.5, weight=-0.5),
                             CurveDelta(Segment((-1.0, 0.0), (1.0, 0.0)), weight=-0.5)]),
                        BoxSpec(L=8.0, K=4.0), [650], REAL),
    "diagonal-circle": (CouplingSpec.dresselhaus(3.0), _circle((0.5, 0.5)),
                        BoxSpec(L=8.0, K=4.0), [650], REAL),
    # and complex when none does
    "off-centre-circle": (CouplingSpec.rashba(2.0), _circle((0.7, 0.3)),
                          BoxSpec(L=8.0, K=4.0), [650], COMPLEX),
    "sum-off-centre-part": (CouplingSpec.rashba(2.0),
                            Sum([_circle((0.0, 0.0)),
                                 _circle((0.7, 0.3), radius=0.5, weight=-0.5)]),
                            BoxSpec(L=8.0, K=4.0), [650], COMPLEX),
    # A = 2 (p_y + i p_x) + 0.3 breaks the turns, but conj A(k) = A(-k_x, k_y)
    # keeps the mirror y -> -y with chi = 1.  A constant c keeps x -> -x when
    # it is imaginary and a diagonal's mirror when it is a real multiple of
    # 1 + i or 1 - i; 0.3 + 0.1 i keeps none
    "non-odd-coupling": (CouplingSpec.custom(lambda px, py: 2.0 * (py + 1j * px) + 0.3,
                                             r_growth=4.0),
                         _circle((0.0, 0.0)), BoxSpec(L=8.0, K=4.0), [650], REAL),
    "no-mirror-coupling": (CouplingSpec.custom(
        lambda px, py: 2.0 * (py + 1j * px) + 0.3 + 0.1j, r_growth=4.0),
        _circle((0.0, 0.0)), BoxSpec(L=8.0, K=4.0), [650], COMPLEX),
    # a vanishing coupling fits phi = 1, whose sectors 0 and 2 are their own
    # time-reversal partners: all four are solved, the origin's two spin
    # states both in sector 0.  It fits chi = 1 too, without dividing 0 by 0
    "zero-coupling": (CouplingSpec.rashba(0.0), _circle((0.0, 0.0)),
                      BoxSpec(L=8.0, K=4.0), [164, 162, 162, 162], REAL),
}
# the cases solved one block per Kramers pair
_PAIRED = ("dresselhaus-well", "rashba-circle", "rashba-segment", "turned-gauge-rashba")


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_parity_split_matches_full_eigensolve(case, monkeypatch):
    # the rotation sectors generalise the k -> -k parity split (the half turn)
    model, nu, box, sizes, dtype = _SPLIT_CASES[case]
    thr = threshold(model)
    ref = scipy.linalg.eigvalsh(assemble(model, nu, box))
    solved = _solve_sizes(monkeypatch)
    res = spectrum(model, thr, nu, box)
    assert solved == [(size, dtype) for size in sizes]
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


def _reference_real_form(h, rows, cols):
    """h in the real bases ``rows`` and ``cols``, from the dense complex h."""
    g = h[np.ix_(rows.first, cols.first)] * np.outer(np.conj(rows.phase), cols.phase)
    g_partner = (h[np.ix_(rows.first, cols.partner)]
                 * np.outer(np.conj(rows.phase), cols.partner_phase))
    m_r, m_c, k_r, k_c = len(rows.first), len(cols.first), rows.lower, cols.lower
    out = np.empty((m_r + k_r, m_c + k_c))
    out[:m_r, :m_c] = g.real + g_partner.real
    out[m_r:, :m_c] = g.imag[:k_r] + g_partner.imag[:k_r]
    out[:m_r, m_c:] = g_partner.imag[:, :k_c] - g.imag[:, :k_c]
    out[m_r:, m_c:] = g.real[:k_r, :k_c] - g_partner.real[:k_r, :k_c]
    out[k_r:m_r] *= np.sqrt(0.5)
    out[:, k_c:m_c] *= np.sqrt(0.5)
    return out


def _reference_blocks(n_pairs, step, n, p, table, a, sectors, mirror):
    """The sector blocks assembled the direct way: each sector's complex
    potential from its own gather and one complex product, the coupling as
    a dense complex matrix, both put through the real form, and every part
    scattered into a zeroed block in ascending norm2."""
    quarters = 4 // n
    orbit = np.stack([oracle._turn(n_pairs, d * quarters) for d in range(n)])
    width = 2 * int(np.max(np.abs(n_pairs))) + 1
    keys = orbit[..., 0] * width + orbit[..., 1]
    rep = keys[0] == np.min(keys, axis=0)
    r = n_pairs[rep]
    m = len(r)
    if mirror is not None:
        image = np.stack([oracle._turn(oracle._mirror(r, mirror[0]), -d * quarters)
                          for d in range(n)])
        e = np.argmin(image[..., 0] * width + image[..., 1], axis=0)
        partner = oracle._position(r, image[e, np.arange(m)])
    p2 = step * step * np.sum(r * r, axis=1)
    norm2 = np.sum(r * r, axis=1)
    ar = a[rep]
    off, side = (len(table) - 1) // 2, len(table)
    start = (r[:, 0] * side + r[:, 1] + off * (side + 1))[:, None]
    for j in sectors:
        down = (j - p) % n
        pots = {}
        for s in (j, down):
            g = np.stack([np.take(table, start - (t[:, 0] * side + t[:, 1]))
                          for t in (oracle._turn(r, f * quarters) for f in range(n))])
            omega = oracle._QUARTER[s * np.arange(n) * quarters % 4]
            pots[s] = np.tensordot(omega, g, axes=1)
            pots[s][-1, :] /= np.sqrt(n)
            pots[s][:, -1] /= np.sqrt(n)
        mu, md = m - (j != 0), m - (down != 0)
        both = np.arange(min(mu, md))
        if mirror is None:
            spins = (np.arange(mu), np.arange(md))
            quads = (pots[j][:mu, :mu], pots[down][:md, :md])
        else:
            up = oracle._real_basis(partner[:mu], oracle._QUARTER[j * e[:mu] * quarters % 4])
            dn = oracle._real_basis(partner[:md], np.conj(mirror[1])
                                    * oracle._QUARTER[down * e[:md] * quarters % 4])
            spins = (np.concatenate([up.first, up.first[:up.lower]]),
                     np.concatenate([dn.first, dn.first[:dn.lower]]))
            quads = (_reference_real_form(pots[j], up, up),
                     _reference_real_form(pots[down], dn, dn))
        rows = np.concatenate(spins)
        order = np.argsort(norm2[rows], kind="stable")
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        at_up, at_dn = at[:len(spins[0])], at[len(spins[0]):]
        h = np.zeros((len(rows),) * 2, dtype=quads[0].dtype)
        h[np.ix_(at_up, at_up)] = quads[0]
        h[np.ix_(at_dn, at_dn)] = quads[1]
        if mirror is None:
            h[at_up[both], at_dn[both]] = ar[both]
            h[at_dn[both], at_up[both]] = np.conj(ar[both])
        else:
            coupling = np.zeros((mu, md), dtype=complex)
            coupling[both, both] = ar[both]
            cross = _reference_real_form(coupling, up, dn)
            h[np.ix_(at_up, at_dn)] = cross
            h[np.ix_(at_dn, at_up)] = cross.T
        h[np.diag_indices(len(h))] += p2[rows[order]]
        yield h, norm2[rows[order]]


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_blocks_match_the_direct_assembly(case):
    # every sector's block, in every gate outcome (four, two and one
    # sectors; paired or not; real or complex; a vanishing coupling)
    model, nu, box, _, _ = _SPLIT_CASES[case]
    n_pairs, a, table = oracle._operator_data(model, nu, box)
    step = np.pi / box.L
    n, p, paired, mirror, table, a = oracle._symmetry(model, n_pairs, a, table, step)
    got = list(oracle._blocks(n_pairs, step, n, p, table, a, range(n), mirror))
    want = list(_reference_blocks(n_pairs, step, n, p, table, a, range(n), mirror))
    assert len(got) == len(want) == n
    for (h, norm2), (ref, ref_norm2) in zip(got, want):
        assert h.dtype == ref.dtype and h.shape == ref.shape
        assert np.array_equal(norm2, ref_norm2)
        assert np.max(np.abs(h - ref)) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_few_mode_lattices(case):
    # K = 0.2 keeps the origin alone, and 0.5 one or two orbits of four
    # besides (L = 8, 10): some sectors then have one spin state or none
    model, nu, box, _, _ = _SPLIT_CASES[case]
    thr = threshold(model)
    for cutoff in (0.2, 0.5):
        b = BoxSpec(L=box.L, K=cutoff)
        ref = scipy.linalg.eigvalsh(assemble(model, nu, b))
        assert np.max(np.abs(spectrum(model, thr, nu, b).eigenvalues - ref)) < 1e-10


# no n^2 lies in ((3.0 L / pi)^2, (3.05 L / pi)^2] at L = 8 (58.4, 60.3] or
# at L = 10 (91.2, 94.3], so those two cutoffs share a mode set
_SWEEP_CUTOFFS = [3.0, 3.05, 4.0]


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_sweep_matches_each_cutoff(case, monkeypatch):
    # the sweep builds the blocks at the largest cutoff and solves each
    # smaller cutoff as their leading corner: each cutoff must still be
    # that cutoff's own operator, block for block
    model, nu, box, _, _ = _SPLIT_CASES[case]
    thr = threshold(model)
    boxes = [BoxSpec(L=box.L, K=c) for c in _SWEEP_CUTOFFS]
    assert np.array_equal(boxes[0].modes()[1], boxes[1].modes()[1])
    solved = _solve_sizes(monkeypatch)
    lone = []
    for b in boxes:
        spectrum(model, thr, nu, b)
        lone.append(solved[:])
        solved.clear()
    sweep = convergence_sweep(model, thr, nu, box.L, _SWEEP_CUTOFFS)
    # each block is solved at every cutoff before the next is built
    assert solved == [s for block in zip(*lone) for s in block]
    assert np.array_equal(sweep.results[0].eigenvalues, sweep.results[1].eigenvalues)
    for b, res in zip(boxes, sweep.results):
        ref = scipy.linalg.eigvalsh(assemble(model, nu, b))
        assert res.mode_count == len(ref) // 2 == len(b.modes()[1])
        assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10
        edge = b.resolved_edge_tol(thr.kappa)
        below = ref < thr.kappa - edge
        assert res.count_below == int(np.sum(below))
        assert res.marginal_count == int(np.sum((ref >= thr.kappa - edge)
                                                & (ref < thr.kappa + edge)))
        assert ([(i, j) for i, j, _ in res.pairing]
                == [(i, j) for i, j, _ in oracle._greedy_pairs(ref[below])])


def _calls(monkeypatch, name):
    """Count the calls of oracle.<name>."""
    calls = []
    original = getattr(oracle, name)

    def counted(*args):
        calls.append(name)
        return original(*args)
    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_sweep_builds_one_operator(rashba2, thr2, circle_measure, monkeypatch):
    # one table and one gate per sweep, and spectrum is its one-cutoff case
    grids = _calls(monkeypatch, "fourier_grid")
    gates = _calls(monkeypatch, "_symmetry")
    convergence_sweep(rashba2, thr2, circle_measure, 8.0, [2.0, 3.0, 4.0])
    assert (len(grids), len(gates)) == (1, 1)
    sweeps = _calls(monkeypatch, "convergence_sweep")
    spectrum(rashba2, thr2, circle_measure, BoxSpec(L=8.0, K=4.0))
    assert (len(grids), len(gates), len(sweeps)) == (2, 2, 1)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_at_close_cutoffs(monkeypatch):
    # the one complex block of 650 rows (6.8 MB) dominates: a lone spectrum
    # holds it and less than half as much besides, and a sweep that held it
    # and a copy of a corner at once would peak near twice that (the
    # eigensolver's own copy is not traced)
    model, nu, _, _, _ = _SPLIT_CASES["off-centre-circle"]
    thr = threshold(model)
    assert len(BoxSpec(L=8.0, K=3.9).modes()[1]) < len(BoxSpec(L=8.0, K=4.0).modes()[1])
    solved = _solve_sizes(monkeypatch)
    lone = _traced_peak(lambda: spectrum(model, thr, nu, BoxSpec(L=8.0, K=4.0)))
    sweep = _traced_peak(lambda: convergence_sweep(model, thr, nu, 8.0, [3.9, 4.0]))
    assert solved[0] == (650, COMPLEX)
    assert lone < 1.5 * 650 * 650 * 16
    assert sweep <= 1.1 * lone


def test_sweep_memory_weak_well():
    # the weak-well operator at L = 10: two real blocks of 569 and 568 rows
    # (2.5 MiB each) from one gather of the table (1.4 MiB).  Building each
    # sector's complex potentials from a gather of its own, and their real
    # forms from complex gathers, peaked at 12.1 MiB; the sweep peaks at
    # 5.7 MiB
    model = CouplingSpec.rashba(2.0)
    nu = build_measure({"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                        "density": {"type": "gaussian-well", "depth": 0.05, "width": 1.0}})
    thr = threshold(model)
    peak = _traced_peak(lambda: convergence_sweep(model, thr, nu, 10.0, [5.0, 6.0]))
    assert peak < 6.2 * 2 ** 20


def test_fourier_grid_density_memory():
    # the weak-well density on the K = 6 difference axis of L = 10 takes
    # 496 x 496 nodes, each axis's rule at its own largest frequency; the
    # transform must never hold a complex copy of them
    nu = build_measure({"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                        "density": {"type": "gaussian-well", "depth": 0.05, "width": 1.0}})
    axis = (np.pi / 10.0) * np.arange(-38, 39)
    (xs, _), (ys, _), _ = nu._tensor_rule(axis[-1], axis[-1])
    assert (len(axis), len(xs), len(ys)) == (77, 496, 496)
    peak = _traced_peak(lambda: oracle.fourier_grid(nu, axis, axis))
    assert peak < 496 * 496 * 16


def test_sweep_fails_fast_at_the_mode_cap(rashba2, thr2, circle_measure, monkeypatch):
    # L = 20: K = 5 has 3181 modes, K = 6 has 4581, past the cap; the top
    # cutoff is built first, so nothing is transformed or solved
    grids = _calls(monkeypatch, "fourier_grid")
    solved = _solve_sizes(monkeypatch)
    with pytest.raises(CapacityError):
        convergence_sweep(rashba2, thr2, circle_measure, 20.0, [5.0, 6.0])
    assert grids == [] and solved == []


def test_mode_cap_exits_3(tmp_path, monkeypatch, capsys):
    grids = _calls(monkeypatch, "fourier_grid")
    doc = {"model": {"type": "rashba", "alpha": 2.0},
           "measure": {"type": "curve", "weight": -1.0,
                       "curve": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0}},
           "oracle": {"L": 20.0, "cutoffs": [5.0, 6.0]}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["oracle", "-c", str(cfg), "-o", str(tmp_path / "r.json")]) == 3
    assert "cap is 4000" in capsys.readouterr().err
    assert grids == []


@pytest.mark.parametrize("case", _PAIRED)
def test_kramers_partners_across_sectors(case):
    # time reversal turns sector omega into sector phi / omega, another
    # block, so each block's spectrum (its bound states below kappa too)
    # must equal its partner's: a cross-check of how the blocks are built,
    # and of solving one block per pair
    model, nu, box, _, _ = _SPLIT_CASES[case]
    kappa = threshold(model).kappa
    n_pairs, a, table = oracle._operator_data(model, nu, box)
    step = np.pi / box.L
    n, p, paired, mirror, table, a = oracle._symmetry(model, n_pairs, a, table, step)
    # the pairing rests on a real table (and an odd coupling)
    assert paired and np.isrealobj(table)
    blocks = oracle._blocks(n_pairs, step, n, p, table, a, range(n), mirror)
    eigs = [scipy.linalg.eigvalsh(h) for h, _ in blocks]
    assert sum(int(np.sum(e < kappa)) for e in eigs) >= 2
    for j in range(n):
        partner = (p - j) % n
        assert partner != j
        assert len(eigs[j]) == len(eigs[partner])
        assert np.max(np.abs(eigs[j] - eigs[partner])) < 1e-10


@pytest.mark.parametrize("weight, sizes", [(1e-15, [(163, REAL), (162, REAL)]),
                                           (1e-13, [(650, COMPLEX)])])
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


@pytest.mark.parametrize("imag, sizes", [(7e-16, [(163, REAL), (162, REAL)]),
                                         (6e-14, [(163, COMPLEX), (162, COMPLEX),
                                                  (162, COMPLEX), (163, COMPLEX)])])
def test_time_reversal_gate_at_one_rounding_unit(imag, sizes, monkeypatch):
    # an imaginary part imag * nuhat keeps the centred circle's table
    # invariant under the quarter turn but breaks time reversal: by about
    # four rounding units of ||H||_F at 6e-14, a twentieth of one at 7e-16.
    # Past the budget all four sectors are solved, as without the pairing;
    # the mirror, which takes table(q) to conj table(m q), breaks with it
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


def _chiral(px, py):
    """sin(4 theta) of the momentum grid px x py: C4-even, odd under every mirror."""
    x, y = np.asarray(px)[:, None], np.asarray(py)[None, :]
    r2 = x * x + y * y
    return 4.0 * x * y * (x * x - y * y) / np.where(r2 > 0.0, r2 * r2, 1.0)


@pytest.mark.parametrize("chiral, sizes", [(1e-15, [(163, REAL), (162, REAL)]),
                                           (9e-14, [(163, COMPLEX), (162, COMPLEX)])])
def test_mirror_gate_at_one_rounding_unit(chiral, sizes, monkeypatch):
    # a real factor 1 + chiral * sin(4 theta) keeps the centred circle's
    # table invariant under the quarter turn and time reversal but breaks
    # the mirror: by about four rounding units of ||H||_F at 9e-14, a
    # twentieth of one at 1e-15.  Past the budget the Kramers pairs are
    # still solved one block each, as complex matrices
    model = CouplingSpec.rashba(2.0)
    nu = _circle((0.0, 0.0))
    box = BoxSpec(L=8.0, K=4.0)
    grid = oracle.fourier_grid
    monkeypatch.setattr(oracle, "fourier_grid",
                        lambda nu, px, py: grid(nu, px, py) * (1.0 + chiral * _chiral(px, py)))
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
    assert solved == [(h.shape[0], COMPLEX) for h in matrices]


def test_kramers_pairing_off_centre_well(monkeypatch):
    # time reversal pairs the bound states without inversion symmetry too:
    # the well sits at (1, 0.5) on a support square of side 5 around it
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    box = BoxSpec(L=5.0, K=4.0)
    sizes = _solve_sizes(monkeypatch)
    res = spectrum(model, thr, _well((1.0, 0.5), half_side=2.5), box)
    assert sizes == [(2 * res.mode_count, COMPLEX)]
    assert res.count_below >= 2
    assert res.count_below % 2 == 0
    assert len(res.pairing) == res.count_below // 2
    for _, _, gap in res.pairing:
        assert gap < 1e-9
