import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bessel_j0_series
from spinbound.config import build_measure
from spinbound.errors import DegenerateInputError, ResolutionError
from spinbound.measure import (ClosedFormCircle, CurveDelta, Density,
                               SampledCurve, Segment, Sum, decay_scan, fourier,
                               fourier_batch, fourier_grid, fourier_matrix,
                               total_mass)

momenta = st.tuples(st.floats(-10, 10), st.floats(-10, 10))


def unit_segment():
    return CurveDelta(Segment((0.0, 0.0), (1.0, 0.0)), weight=-1.0)


# ---------------------------------------------------------------------------
# transforms against closed forms


def test_circle_transform_is_bessel(circle_measure):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-7, 7, size=(50, 2))
    got = fourier_batch(circle_measure, pts)
    want = -bessel_j0_series(np.hypot(pts[:, 0], pts[:, 1]))
    assert np.max(np.abs(got - want)) < 1e-10


def test_offcenter_circle_transform():
    nu = CurveDelta(ClosedFormCircle((0.5, -1.0), 2.0), weight=-1.0)
    p = np.array([1.2, 0.7])
    want = -2.0 * bessel_j0_series(2.0 * np.hypot(*p)) * np.exp(
        -1j * (p[0] * 0.5 + p[1] * -1.0))
    assert abs(fourier(nu, p) - want) < 1e-10


def test_segment_transform_closed_form():
    nu = unit_segment()
    for px, py in [(3.0, 0.0), (3.0, 5.0), (0.7, -2.0)]:
        want = -(1.0 / (2.0 * np.pi)) * np.exp(-0.5j * px) * np.sinc(px / (2 * np.pi))
        assert abs(fourier(nu, (px, py)) - want) < 1e-12
    with pytest.raises(DegenerateInputError):
        Segment((1.0, 1.0), (1.0, 1.0))


def test_gaussian_density_transform(gaussian_well):
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    got = fourier_batch(gaussian_well, pts)
    want = -2.0 * np.exp(-0.5 * np.sum(pts ** 2, axis=1))
    assert np.max(np.abs(got - want)) < 1e-12


def test_total_mass_examples(circle_measure, gaussian_well):
    assert total_mass(circle_measure) == pytest.approx(-2.0 * np.pi, rel=1e-12)
    assert total_mass(unit_segment()) == pytest.approx(-1.0, rel=1e-12)
    assert total_mass(gaussian_well) == pytest.approx(-4.0 * np.pi, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(momenta)
def test_hermitian_symmetry(p):
    nu = CurveDelta(ClosedFormCircle((0.3, 0.1), 1.0), weight=-1.0)
    assert abs(fourier(nu, (-p[0], -p[1])) - np.conj(fourier(nu, p))) < 1e-12


def test_sum_linearity(circle_measure, gaussian_well):
    combined = Sum([circle_measure, gaussian_well])
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, size=(10, 2))
    got = fourier_batch(combined, pts)
    want = fourier_batch(circle_measure, pts) + fourier_batch(gaussian_well, pts)
    assert np.max(np.abs(got - want)) < 1e-12
    assert combined.nonpositive


def test_normalization(circle_measure, gaussian_well):
    for nu in (circle_measure, gaussian_well, unit_segment()):
        mass = total_mass(nu)
        assert 2.0 * np.pi * fourier(nu, (0.0, 0.0)) == pytest.approx(mass, rel=1e-10)


def test_quadrature_convergence(circle_measure):
    # appending a far momentum forces a finer node rule for the whole batch;
    # the values at the original momenta must be unaffected
    for p in [(1.0, 0.0), (0.0, 5.0), (7.0, 7.0)]:
        coarse = fourier_batch(circle_measure, [p])[0]
        fine = fourier_batch(circle_measure, [p, (40.0, 0.0)])[0]
        assert abs(coarse - fine) < 1e-9


def test_fourier_grid_matches_batch(circle_measure, gaussian_well):
    px = np.linspace(-2, 2, 5)
    py = np.linspace(-1, 3, 4)
    pts = np.array([(x, y) for x in px for y in py])
    for nu in (circle_measure, gaussian_well, Sum([circle_measure, gaussian_well])):
        grid = fourier_grid(nu, px, py)
        batch = fourier_batch(nu, pts).reshape(5, 4)
        assert np.max(np.abs(grid - batch)) < 1e-10


def test_resolution_cap(circle_measure):
    with pytest.raises(ResolutionError):
        fourier(circle_measure, (1e6, 0.0))


# ---------------------------------------------------------------------------
# sampled curves


def _circle_nodes():
    ang = np.linspace(0.0, 2.0 * np.pi, 17)   # the last node repeats the first
    return np.column_stack([np.cos(ang), np.sin(ang)])


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_sampled_curve_passes_through_its_nodes(closed):
    nodes = _circle_nodes()
    # a closed curve gets its closing node appended
    curve = SampledCurve(nodes[:-1] if closed else nodes, closed=closed)
    x, y = curve.point(np.linspace(0.0, 1.0, 17))
    assert np.max(np.abs(x - nodes[:, 0])) < 1e-14
    assert np.max(np.abs(y - nodes[:, 1])) < 1e-14
    x, y = curve.point(np.linspace(0.0, 1.0, 401))
    assert np.max(np.abs(np.hypot(x, y) - 1.0)) < (1e-4 if closed else 1e-2)
    assert curve.length() == pytest.approx(2.0 * np.pi, rel=1e-3)


@pytest.mark.parametrize("gap", [0.0, 1e-10], ids=["exact", "near"])
def test_closed_sampled_curve_is_smooth_across_the_seam(gap):
    # a last node equal or allclose to the first closes the curve itself
    nodes = _circle_nodes()
    nodes[-1, 0] += gap
    curve = SampledCurve(nodes, closed=True)
    start = np.array(curve.derivative(0.0))
    end = np.array(curve.derivative(np.nextafter(1.0, 0.0)))
    assert np.max(np.abs(end - start)) < 1e-12 * np.max(np.abs(start))
    # the curve closes on the first node, not on the perturbed last one
    assert np.allclose(curve.point(np.nextafter(1.0, 0.0)), (1.0, 0.0), rtol=0.0, atol=1e-14)
    # the open curve through the same nodes has a corner at its ends
    open_curve = SampledCurve(nodes)
    corner = np.array(open_curve.derivative(1.0)) - np.array(open_curve.derivative(0.0))
    assert np.max(np.abs(corner)) > 1.0


# ---------------------------------------------------------------------------
# fourier_matrix / Bochner


def test_fourier_matrix_gaussian_example():
    nu = Density(lambda x, y: -np.exp(-0.5 * (x * x + y * y)),
                 (-8.0, 8.0, -8.0, 8.0))
    m = fourier_matrix(nu, [(1.0, 0.0), (-1.0, 0.0)])
    want = np.array([[-1.0, -np.exp(-2.0)], [-np.exp(-2.0), -1.0]])
    assert np.max(np.abs(m - want)) < 1e-10
    eig = np.linalg.eigvalsh(m)
    assert eig[-1] == pytest.approx(-1.0 + np.exp(-2.0), abs=1e-10)
    assert eig[-1] < 0


def test_fourier_matrix_single_negative_mass(circle_measure):
    m = fourier_matrix(circle_measure, [(1.0, 0.0)])
    assert m.shape == (1, 1)
    assert m[0, 0].real < 0


def test_bochner_semidefinite(circle_measure, gaussian_well):
    rng = np.random.default_rng(11)
    for nu in (circle_measure, gaussian_well, Sum([circle_measure, gaussian_well]),
               unit_segment()):
        assert nu.nonpositive
        pts = rng.uniform(-3, 3, size=(5, 2))
        m = fourier_matrix(nu, pts)
        lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        assert lam[-1] <= 1e-10 * max(1.0, np.linalg.norm(m))


# ---------------------------------------------------------------------------
# decay scans


def test_circle_decay(circle_measure):
    for k in range(8):
        prof = decay_scan(circle_measure, 2.0 * np.pi * k / 8.0, 60.0, 96)
        assert prof.classification == "decaying"
        assert prof.fitted_slope <= -0.4


def test_segment_nondecaying_direction():
    prof = decay_scan(unit_segment(), np.pi / 2.0, 40.0, 64)
    assert prof.classification == "non_decaying"
    level = np.mean(prof.magnitudes[len(prof.magnitudes) // 2:])
    assert level == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-8)


def test_segment_decaying_direction():
    prof = decay_scan(unit_segment(), 0.0, 200.0, 128)
    assert prof.classification == "decaying"
    assert prof.fitted_slope == pytest.approx(-1.0, abs=0.15)


def test_density_decay_at_rounding_floor():
    # the weak Gaussian well's transform falls to the 1e-19 rounding floor
    # well before r = 10, so the tail's fitted slope is flat (about 1e-15);
    # a tail wholly at that floor still counts as decaying
    well = build_measure({"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                          "density": {"type": "gaussian-well", "depth": 0.05,
                                      "width": 1.0}})
    for k in range(3):
        prof = decay_scan(well, 2.0 * np.pi * k / 3.0, 20.0, 48)
        assert prof.classification == "decaying"


def test_segment_nondecay_direction_examples():
    # along the ray perpendicular to a segment through the origin the phase
    # vanishes, so |nuhat| stays at length / (2 pi) for every orientation
    for end, alpha in (((1.0, 0.0), np.pi / 2), ((1.0, 1.0), 3 * np.pi / 4),
                       ((0.0, 1.0), 0.0)):
        seg = Segment((0.0, 0.0), end)
        prof = decay_scan(CurveDelta(seg, weight=-1.0), alpha, 40.0, 64)
        assert prof.classification == "non_decaying"
        assert np.allclose(prof.magnitudes, seg.length() / (2.0 * np.pi), rtol=1e-10)
