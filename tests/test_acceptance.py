"""End-to-end acceptance suite: one test per headline guarantee.

Each test prints a single PASS line on success (visible with -v/-s); a
failure is an ordinary assertion error.
"""

import json
import time

import numpy as np

import spinbound.report as rep
from spinbound.certificate import (certify, kinetic_matrix, select_points,
                                   trial_basis, potential_matrix_dropped)
from spinbound.cli import main
from spinbound.measure import (ClosedFormCircle, CurveDelta, Density, Segment,
                               decay_scan, fourier_batch, fourier_matrix)
from spinbound.model import CouplingSpec, threshold
from spinbound.oracle import BoxSpec, convergence_sweep, spectrum

from conftest import bessel_j0_series, grad_norm_sq_quadrature

TWO_PI_E = 2.0 * np.pi * np.exp(-1.0)


def _ok(num, text):
    print("PASS criterion %d: %s" % (num, text))


def test_criterion_1_threshold_closed_forms():
    t0 = time.perf_counter()
    thr_r = threshold(CouplingSpec.rashba(2.0))
    assert abs(thr_r.kappa - (-1.0)) < 1e-10
    assert abs(thr_r.minset.radius - 1.0) < 1e-10
    thr_d = threshold(CouplingSpec.dresselhaus(3.0))
    assert abs(thr_d.kappa - (-2.25)) < 1e-10
    assert abs(thr_d.minset.radius - 1.5) < 1e-10
    assert time.perf_counter() - t0 < 1.0
    _ok(1, "band minima and minimum-set radii match the closed forms")


def test_criterion_2_dirichlet_integral():
    t0 = time.perf_counter()
    for a in (0.25, 0.5, 1.0, 2.0):
        assert abs(grad_norm_sq_quadrature(a) - 0.5 * np.pi * a) < 1e-6
    assert time.perf_counter() - t0 < 1.0
    _ok(2, "numerically integrated |grad f_a|^2 equals pi*a/2 at 1e-6")


def test_criterion_3_circle_transform_oracle():
    t0 = time.perf_counter()
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    rng = np.random.default_rng(20260826)
    r = 10.0 * np.sqrt(rng.uniform(0.0, 1.0, 100))
    ang = rng.uniform(0.0, 2.0 * np.pi, 100)
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    got = fourier_batch(nu, pts)
    want = np.array([-bessel_j0_series(ri) for ri in r])
    assert np.max(np.abs(got - want)) < 1e-8
    assert time.perf_counter() - t0 < 10.0
    _ok(3, "unit-circle transform matches -J0(|p|) against a series oracle")


def test_criterion_4_dropped_form_limit():
    t0 = time.perf_counter()
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    pts = select_points(thr.minset, 4)
    limit = TWO_PI_E * fourier_matrix(nu, pts)
    scale = abs(TWO_PI_E * fourier_batch(nu, np.zeros((1, 2)))[0])
    prev = np.inf
    for a in (0.4, 0.2, 0.1):
        basis = trial_basis(model, thr, pts, a)
        dev = np.max(np.abs(potential_matrix_dropped(nu, basis) - limit))
        # on the unit circle the dropped form hits its limit at every a up
        # to quadrature error, so allow identical-to-roundoff steps
        assert dev < prev + 1e-9
        prev = dev
    assert prev < 0.05 * scale
    assert time.perf_counter() - t0 < 120.0
    _ok(4, "dropped potential matrix converges to 2*pi*e^-1 * nuhat")


def test_criterion_5_kinetic_diagonal_bound():
    t0 = time.perf_counter()
    for model in (CouplingSpec.rashba(2.0), CouplingSpec.dresselhaus(3.0)):
        thr = threshold(model)
        pts = select_points(thr.minset, 3)
        for a in (0.4, 0.2, 0.1):
            basis = trial_basis(model, thr, pts, a)
            tdiag = np.real(np.diag(kinetic_matrix(model, thr, basis)))
            # lambda_- - kappa <= c |p - p_j|^2 with c = 1 for both couplings
            assert np.all((-1e-12 <= tdiag) & (tdiag <= 0.5 * np.pi * a * (1.0 + 1e-9)))
    assert time.perf_counter() - t0 < 60.0
    _ok(5, "0 <= T_jj <= (pi/2) a for both built-in models")


def test_criterion_6_end_to_end_certified_vs_oracle():
    t0 = time.perf_counter()
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    nu = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    result = certify(model, thr, nu, N=4,
                     a_schedule=(0.4, 0.2, 0.1, 0.05, 0.025),
                     potential_form="exact")
    assert result.certified
    assert result.a_star is not None
    assert result.certified_count == 4
    sweep = convergence_sweep(model, thr, nu, 12.0, [5.0, 6.0])
    assert sweep.stable
    assert sweep.results[-1].count_below >= 4
    assert time.perf_counter() - t0 < 900.0
    _ok(6, "N=4 certificate succeeds and the box oracle counts >= 4 states")


def test_criterion_7_decay_dichotomy():
    t0 = time.perf_counter()
    seg = CurveDelta(Segment((-0.5, 0.0), (0.5, 0.0)), weight=1.0)
    across = decay_scan(seg, np.pi / 2.0, 200.0)
    assert across.classification == "non_decaying"
    level = float(np.mean(across.magnitudes[len(across.magnitudes) // 2:]))
    assert abs(level - 1.0 / (2.0 * np.pi)) < 1e-8
    along = decay_scan(seg, 0.0, 200.0)
    assert along.classification == "decaying"
    circ = CurveDelta(ClosedFormCircle((0.0, 0.0), 1.0), weight=-1.0)
    for k in range(8):
        ray = decay_scan(circ, 2.0 * np.pi * k / 8.0, 200.0)
        assert ray.classification == "decaying"
        assert ray.fitted_slope <= -0.4
    assert time.perf_counter() - t0 < 60.0
    _ok(7, "segment rays split non-decaying/decaying; circle decays ~r^-1/2")


def test_criterion_8_kramers_pairing():
    t0 = time.perf_counter()
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    well = Density(lambda x, y: -2.0 * np.exp(-0.5 * (x * x + y * y)),
                   (-8.0, 8.0, -8.0, 8.0))
    res = spectrum(model, thr, well, BoxSpec(L=10.0, K=4.0))
    assert res.count_below >= 2
    assert res.count_below % 2 == 0
    assert len(res.pairing) == res.count_below // 2
    for _, _, gap in res.pairing:
        assert gap < 1e-6
    assert time.perf_counter() - t0 < 600.0
    _ok(8, "all bound-state eigenvalues are two-fold degenerate at 1e-6")


def test_criterion_9_property_suites(tmp_path):
    t0 = time.perf_counter()
    nu = CurveDelta(ClosedFormCircle((0.3, -0.2), 1.5), weight=-1.0)
    rng = np.random.default_rng(7)
    pts = rng.normal(0.0, 3.0, (40, 2))
    # Hermitian symmetry of the transform
    assert np.max(np.abs(fourier_batch(nu, -pts)
                         - np.conj(fourier_batch(nu, pts)))) < 1e-12
    # Bochner: a nonpositive measure gives a negative semidefinite Gram
    gram = fourier_matrix(nu, pts[:12])
    assert np.max(np.linalg.eigvalsh(gram)) < 1e-10
    # free-case oracle exactness
    model = CouplingSpec.rashba(2.0)
    thr = threshold(model)
    box = BoxSpec(L=5.0, K=3.0)
    k, _ = box.modes()
    p = np.hypot(k[:, 0], k[:, 1])
    expected = np.sort(np.concatenate([p * p - 2.0 * p, p * p + 2.0 * p]))
    res = spectrum(model, thr, None, box)
    assert np.max(np.abs(res.eigenvalues - expected)) < 1e-10
    assert res.count_below == 0
    # determinism of reports
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"type": "rashba", "alpha": 2.0},
        "measure": {"type": "curve",
                    "curve": {"type": "circle", "center": [0.0, 0.0],
                              "radius": 1.0},
                    "weight": -1.0},
        "certify": {"N": 2, "a_schedule": [0.4], "potential_form": "dropped"},
    }))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["certify", "-c", str(cfg), "-o", a]) == 0
    assert main(["certify", "-c", str(cfg), "-o", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert rep.dump_json({"x": np.pi}) == rep.dump_json({"x": np.pi})
    assert time.perf_counter() - t0 < 300.0
    _ok(9, "symmetry, semidefiniteness, oracle exactness, determinism")
