import numpy as np
import pytest

from spinbound.measure import ClosedFormCircle, CurveDelta, Density
from spinbound.model import CouplingSpec, threshold


def gauss_panels(edges, nodes_per_panel):
    """Composite Gauss-Legendre rule of any node count over consecutive intervals."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    e = np.asarray(edges, dtype=float)
    half, mid = 0.5 * (e[1:] - e[:-1]), 0.5 * (e[1:] + e[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def log_rule(a, b, panels_per_decade=8, nodes_per_panel=8):
    """Composite Gauss-Legendre rule on [a, b] (0 < a < b), log-uniform panels."""
    n_panels = max(1, int(np.ceil(np.log10(b / a) * panels_per_decade)))
    return gauss_panels(np.geomspace(a, b, n_panels + 1), nodes_per_panel)


def bessel_j0_series(x):
    """J0 by its power series; independent of scipy.special.

    Accurate to ~1e-11 for |x| <= 12 in double precision (cancellation grows
    with x, so this oracle is only used at moderate arguments).
    """
    x = np.asarray(x, dtype=float)
    q = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 60):
        term = term * q / (k * k)
        total = total + term
    return total


def grad_norm_sq_quadrature(a):
    """|grad f_a|^2 of the bump f_a = exp(-|x|^a/2), integrated over the plane.

    A radial log rule on [r_lo, r_hi]: the omitted head is below 1e-14, and
    past r_hi the integrand r^(2a-1) exp(-r^a) is below e^-60.  The closed
    form is pi a / 2.
    """
    u_up = 60.0
    for _ in range(40):
        u_up = 60.0 + 2.0 * np.log(u_up)
    r_hi = u_up ** (1.0 / a)
    r_lo = max(10.0 ** (-14.0 / (2.0 * a)), 1e-280)
    r, w = log_rule(r_lo, r_hi, 8, 8)
    grad_sq = 0.25 * a * a * r ** (2.0 * a - 2.0) * np.exp(-r ** a)
    return float(2.0 * np.pi * np.sum(w * r * grad_sq))


@pytest.fixture(scope="session")
def rashba2():
    return CouplingSpec.rashba(2.0)


@pytest.fixture(scope="session")
def thr2(rashba2):
    return threshold(rashba2)


@pytest.fixture(scope="session")
def circle_measure():
    """nu = -delta on the unit circle."""
    return CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)


@pytest.fixture(scope="session")
def gaussian_well():
    """nu(dx) = -2 exp(-|x|^2/2) dx, truncated where the tail is ~1e-14."""
    return Density(lambda x, y: -2.0 * np.exp(-0.5 * (x * x + y * y)),
                   (-8.0, 8.0, -8.0, 8.0))
