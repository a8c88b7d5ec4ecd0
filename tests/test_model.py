import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbound.model import (Circle, CouplingSpec, PointCloud, band_basis,
                             bands, lower_band, lower_band_vectors,
                             quad_constant, symbol, threshold)

momenta = st.tuples(st.floats(-20, 20), st.floats(-20, 20))


def test_symbol_rashba_example(rashba2):
    m = symbol(rashba2, (1.0, 0.0)).matrix
    assert np.allclose(m, [[1.0, 2.0j], [-2.0j, 1.0]])


def test_symbol_zero_momentum(rashba2):
    assert np.allclose(symbol(rashba2, (0.0, 0.0)).matrix, 0.0)
    assert np.allclose(symbol(CouplingSpec.dresselhaus(1.0), (0.0, 0.0)).matrix, 0.0)


def test_symbol_dresselhaus_example():
    m = symbol(CouplingSpec.dresselhaus(1.0), (0.0, 1.0)).matrix
    assert np.allclose(m, [[1.0, -1.0j], [1.0j, 1.0]])


def test_bands_examples(rashba2):
    pair = bands(rashba2, (1.0, 0.0))
    assert pair.lambda_plus == pytest.approx(3.0)
    assert pair.lambda_minus == pytest.approx(-1.0)
    pair0 = bands(rashba2, (0.0, 0.0))
    assert pair0.lambda_plus == 0.0 and pair0.lambda_minus == 0.0


def test_lower_band_on_minimum_circle(rashba2):
    ang = np.linspace(0.0, 2.0 * np.pi, 17)
    assert np.allclose(lower_band(rashba2, np.cos(ang), np.sin(ang)), -1.0)


@settings(max_examples=60, deadline=None)
@given(momenta)
def test_bands_match_symbol_eigenvalues(p):
    model = CouplingSpec.rashba(2.0)
    eig = np.linalg.eigvalsh(symbol(model, p).matrix)
    pair = bands(model, p)
    scale = max(1.0, abs(pair.lambda_plus))
    assert abs(eig[0] - pair.lambda_minus) <= 1e-12 * scale
    assert abs(eig[1] - pair.lambda_plus) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(momenta, st.floats(0.1, 5.0))
def test_rashba_dresselhaus_share_bands(p, alpha):
    br = bands(CouplingSpec.rashba(alpha), p)
    bd = bands(CouplingSpec.dresselhaus(alpha), p)
    assert br.lambda_plus == pytest.approx(bd.lambda_plus, abs=1e-12)
    assert br.lambda_minus == pytest.approx(bd.lambda_minus, abs=1e-12)


def test_band_basis_example(rashba2):
    basis = band_basis(rashba2, (1.0, 0.0))
    assert np.allclose(basis.u_minus, np.array([-1.0j, 1.0]) / np.sqrt(2.0))


def test_band_basis_degenerate_fallback(rashba2):
    basis = band_basis(rashba2, (0.0, 0.0))
    assert np.allclose(basis.u_minus, np.array([-1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(basis.u_plus, np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_band_basis_eigenvector_residuals(rashba2):
    rng = np.random.default_rng(7)
    for p in rng.uniform(-10, 10, size=(100, 2)):
        m = symbol(rashba2, p).matrix
        pair = bands(rashba2, p)
        basis = band_basis(rashba2, p)
        assert np.linalg.norm(m @ basis.u_minus - pair.lambda_minus * basis.u_minus) < 1e-12 * max(1, abs(pair.lambda_minus))
        assert np.linalg.norm(m @ basis.u_plus - pair.lambda_plus * basis.u_plus) < 1e-12 * max(1, abs(pair.lambda_plus))
        assert abs(np.vdot(basis.u_minus, basis.u_plus)) < 1e-14
        assert np.linalg.norm(basis.u_minus) == pytest.approx(1.0, abs=1e-14)
        # phase convention: second component real 1/sqrt(2) off the degeneracy
        if np.hypot(*p) > 1e-12:
            assert basis.u_minus[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)


def test_lower_band_vectors_match_band_basis(rashba2):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(32, 2))
    vecs = lower_band_vectors(rashba2, pts[:, 0], pts[:, 1])
    for p, v in zip(pts, vecs):
        assert np.allclose(v, band_basis(rashba2, p).u_minus, atol=1e-14)


def test_threshold_rashba_closed_form(thr2):
    assert thr2.kappa == pytest.approx(-1.0, abs=1e-10)
    assert isinstance(thr2.minset, Circle)
    assert thr2.minset.radius == pytest.approx(1.0, abs=1e-10)


def test_threshold_dresselhaus_closed_form():
    thr = threshold(CouplingSpec.dresselhaus(3.0))
    assert thr.kappa == pytest.approx(-2.25, abs=1e-10)
    assert thr.minset.radius == pytest.approx(1.5, abs=1e-10)


def test_threshold_custom_scalar_coupling():
    model = CouplingSpec.custom(lambda px, py: np.hypot(px, py) + 0.0j,
                                a_growth=0.5, r_growth=2.0)
    thr = threshold(model)
    assert thr.kappa == pytest.approx(-0.25, abs=1e-6)
    assert isinstance(thr.minset, PointCloud)
    radii = np.hypot(thr.minset.points[:, 0], thr.minset.points[:, 1])
    assert np.max(np.abs(radii - 0.5)) < 1e-4


def test_kappa_is_global_lower_bound(rashba2, thr2):
    gx = np.linspace(-6, 6, 301)
    lam = lower_band(rashba2, gx[:, None], gx[None, :])
    assert np.min(lam) >= thr2.kappa - 1e-12


def test_quadratic_domination_constant(rashba2, thr2):
    p0 = np.array([1.0, 0.0])
    c = quad_constant(rashba2, thr2, p0)
    assert c > 0
    gx = np.linspace(-8, 8, 241)
    lam = lower_band(rashba2, gx[:, None], gx[None, :]) - thr2.kappa
    d2 = (gx[:, None] - p0[0]) ** 2 + (gx[None, :] - p0[1]) ** 2
    mask = d2 > 1e-12
    assert np.all(lam[mask] <= c * d2[mask] * (1 + 1e-9))


def test_custom_coupling_validation():
    with pytest.raises(ValueError):
        CouplingSpec.custom(lambda px, py: px + 0j, a_growth=1.5, r_growth=1.0)
    with pytest.raises(ValueError):
        CouplingSpec.custom(lambda px, py: px + 0j, a_growth=0.5, r_growth=-1.0)


def test_minset_samplers():
    circle = Circle((0.0, 0.0), 2.0)
    pts = circle.sample(4)
    assert np.allclose(pts, [[2, 0], [0, 2], [-2, 0], [0, -2]], atol=1e-12)
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1e-8)
    assert len(cloud.sample(2)) == 2
    assert len(cloud.sample(5)) == 3
