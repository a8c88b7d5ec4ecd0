import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbound.errors import ConfigError
from spinbound.model import (Circle, CouplingSpec, PointCloud, lower_band,
                             lower_band_vectors, threshold)

momenta = st.tuples(st.floats(-20, 20), st.floats(-20, 20))


def _symbol(model, p):
    """The 2x2 momentum-space symbol [[p^2, A(p)], [conj A(p), p^2]]."""
    a = complex(model.coupling(p[0], p[1]))
    p2 = p[0] * p[0] + p[1] * p[1]
    return np.array([[p2, a], [np.conj(a), p2]])


def test_symbol_rashba_example(rashba2):
    # A(1, 0) = 2i: the symbol [[1, 2i], [-2i, 1]] has eigenvalues -1 and 3
    m = np.array([[1.0, 2.0j], [-2.0j, 1.0]])
    assert np.allclose(_symbol(rashba2, (1.0, 0.0)), m)
    assert lower_band(rashba2, 1.0, 0.0) == pytest.approx(np.linalg.eigvalsh(m)[0])
    v = lower_band_vectors(rashba2, 1.0, 0.0)
    assert np.allclose(m @ v, -v)


def test_symbol_zero_momentum(rashba2):
    assert rashba2.coupling(0.0, 0.0) == 0.0
    assert CouplingSpec.dresselhaus(1.0).coupling(0.0, 0.0) == 0.0


def test_symbol_dresselhaus_example():
    m = np.array([[1.0, -1.0j], [1.0j, 1.0]])
    model = CouplingSpec.dresselhaus(1.0)
    assert np.allclose(_symbol(model, (0.0, 1.0)), m)
    v = lower_band_vectors(model, 0.0, 1.0)
    assert np.allclose(m @ v, lower_band(model, 0.0, 1.0) * v)
    assert lower_band(model, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_bands_examples(rashba2):
    assert lower_band(rashba2, 1.0, 0.0) == pytest.approx(-1.0)
    assert lower_band(rashba2, 0.0, 0.0) == 0.0


def test_lower_band_on_minimum_circle(rashba2):
    ang = np.linspace(0.0, 2.0 * np.pi, 17)
    assert np.allclose(lower_band(rashba2, np.cos(ang), np.sin(ang)), -1.0)


@settings(max_examples=60, deadline=None)
@given(momenta)
def test_bands_match_symbol_eigenvalues(p):
    model = CouplingSpec.rashba(2.0)
    eig = np.linalg.eigvalsh(_symbol(model, p))
    scale = max(1.0, abs(eig[1]))
    assert abs(eig[0] - lower_band(model, p[0], p[1])) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(momenta, st.floats(0.1, 5.0))
def test_rashba_dresselhaus_share_bands(p, alpha):
    lr = lower_band(CouplingSpec.rashba(alpha), p[0], p[1])
    ld = lower_band(CouplingSpec.dresselhaus(alpha), p[0], p[1])
    assert lr == pytest.approx(ld, abs=1e-12)


def test_band_basis_example(rashba2):
    v = lower_band_vectors(rashba2, 1.0, 0.0)
    assert np.allclose(v, np.array([-1.0j, 1.0]) / np.sqrt(2.0))


def test_band_basis_degenerate_fallback(rashba2):
    # A(0) = 0: every vector is an eigenvector, and the fixed one is returned
    v = lower_band_vectors(rashba2, 0.0, 0.0)
    assert np.array_equal(v, np.array([-1.0, 1.0]) / np.sqrt(2.0))
    v = lower_band_vectors(rashba2, np.zeros(3), np.zeros(3))
    assert np.array_equal(v, np.tile([-1.0, 1.0], (3, 1)) / np.sqrt(2.0))


def test_band_basis_eigenvector_residuals(rashba2):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-10, 10, size=(100, 2))
    lam = lower_band(rashba2, pts[:, 0], pts[:, 1])
    vecs = lower_band_vectors(rashba2, pts[:, 0], pts[:, 1])
    for p, lm, v in zip(pts, lam, vecs):
        m = _symbol(rashba2, p)
        eig = np.linalg.eigvalsh(m)
        assert abs(lm - eig[0]) < 1e-12 * max(1, abs(eig[1]))
        assert np.linalg.norm(m @ v - lm * v) < 1e-12 * max(1, abs(eig[1]))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        # phase convention: second component real 1/sqrt(2)
        assert v[1] == 1.0 / np.sqrt(2.0)


def test_lower_band_vectors_match_eigh(rashba2):
    # the lower eigenvector of eigh, turned to the phase convention
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(32, 2))
    vecs = lower_band_vectors(rashba2, pts[:, 0], pts[:, 1])
    for p, v in zip(pts, vecs):
        u = np.linalg.eigh(_symbol(rashba2, p))[1][:, 0]
        u /= np.sqrt(2.0) * u[1]        # |u_2| = 1/sqrt(2): equal diagonal
        assert np.allclose(v, u, atol=1e-14)


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
                                r_growth=2.0)
    thr = threshold(model)
    assert thr.kappa == pytest.approx(-0.25, abs=1e-6)
    assert isinstance(thr.minset, PointCloud)
    radii = np.hypot(thr.minset.points[:, 0], thr.minset.points[:, 1])
    assert np.max(np.abs(radii - 0.5)) < 1e-4


def test_kappa_is_global_lower_bound(rashba2, thr2):
    gx = np.linspace(-6, 6, 301)
    lam = lower_band(rashba2, gx[:, None], gx[None, :])
    assert np.min(lam) >= thr2.kappa - 1e-12


def test_quadratic_domination_constant():
    # lambda_- - kappa = (|p| - alpha/2)^2 <= |p - p_j|^2 for p_j on the
    # minimum circle: the domination constant is c = 1 for both couplings
    gx = np.linspace(-8, 8, 241)
    for model in (CouplingSpec.rashba(2.0), CouplingSpec.dresselhaus(3.0)):
        thr = threshold(model)
        lam = lower_band(model, gx[:, None], gx[None, :]) - thr.kappa
        for pj in thr.minset.sample(5):
            d2 = (gx[:, None] - pj[0]) ** 2 + (gx[None, :] - pj[1]) ** 2
            assert np.all(lam <= d2 + 1e-12 * (1.0 + d2))


def test_custom_coupling_validation():
    with pytest.raises(ConfigError, match="r_growth must be positive"):
        CouplingSpec.custom(lambda px, py: px + 0j, r_growth=-1.0)


def test_minset_samplers():
    circle = Circle((0.0, 0.0), 2.0)
    pts = circle.sample(4)
    assert np.allclose(pts, [[2, 0], [0, 2], [-2, 0], [0, -2]], atol=1e-12)
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1e-8)
    assert len(cloud.sample(2)) == 2
    assert len(cloud.sample(5)) == 3
