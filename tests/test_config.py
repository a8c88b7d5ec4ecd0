import json

import numpy as np
import pytest

from spinbound.config import (build_measure, build_model, parse_config,
                              serialize_config)
from spinbound.errors import ConfigError
from spinbound.measure import CurveDelta, Density, Sum, fourier_batch


VALID = {
    "model": {"type": "rashba", "alpha": 2.0},
    "measure": {"type": "curve",
                "curve": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
                "weight": -1.0},
    "certify": {"N": 4, "a_schedule": [0.4, 0.2], "potential_form": "dropped"},
    "oracle": {"L": 8.0, "cutoffs": [4.0, 5.0]},
    "output": {"report_json": "out.json"},
}


def test_parse_valid_config():
    cfg = parse_config(json.dumps(VALID))
    assert cfg.model["alpha"] == 2.0
    assert cfg.certify["N"] == 4
    assert cfg.scan is None


def test_round_trip():
    cfg = parse_config(json.dumps(VALID))
    again = parse_config(serialize_config(cfg))
    assert again.raw == cfg.raw


def test_malformed_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse_config(b"\xff\xfe")


def test_missing_alpha():
    bad = {"model": {"type": "rashba"}}
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(json.dumps(bad))


def test_a_out_of_range():
    bad = dict(VALID)
    bad["certify"] = {"N": 2, "a_schedule": [3.0]}
    with pytest.raises(ConfigError, match="\\(0, 2]"):
        parse_config(json.dumps(bad))


def test_schedule_must_decrease():
    bad = dict(VALID)
    bad["certify"] = {"N": 2, "a_schedule": [0.2, 0.4]}
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(json.dumps(bad))


def test_unknown_keys_rejected():
    bad = dict(VALID)
    bad["extra_section"] = {}
    with pytest.raises(ConfigError, match="extra_section"):
        parse_config(json.dumps(bad))


def test_custom_model_rejected():
    bad = {"model": {"type": "custom"}}
    with pytest.raises(ConfigError, match="library API"):
        parse_config(json.dumps(bad))


def test_all_problems_collected():
    bad = {
        "model": {"type": "rashba"},                        # missing alpha
        "certify": {"N": 0, "a_schedule": [3.0]},           # two problems
        "oracle": {"L": -1.0, "cutoffs": [5.0, 4.0]},       # two problems
        "bogus": 1,                                         # one problem
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(bad))
    text = str(err.value)
    for fragment in ("alpha", "N must be", "(0, 2]", "L", "increasing", "bogus"):
        assert fragment in text


def test_build_model_kinds():
    r = build_model({"type": "rashba", "alpha": 2.0})
    d = build_model({"type": "dresselhaus", "alpha": 2.0})
    ar = r.coupling(np.array([1.0]), np.array([0.0]))[0]
    ad = d.coupling(np.array([1.0]), np.array([0.0]))[0]
    assert ar == pytest.approx(2.0j)
    assert ad == pytest.approx(-2.0)


def test_build_measure_circle():
    nu = build_measure(VALID["measure"])
    assert isinstance(nu, CurveDelta)
    # weight -1 on the unit circle: nuhat(p) = -J0(|p|); J0(0) = 1
    val = fourier_batch(nu, np.array([[0.0, 0.0]]))[0]
    assert val == pytest.approx(-1.0, rel=1e-12)


def test_build_measure_gaussian_well():
    section = {"type": "density",
               "density": {"type": "gaussian-well", "depth": 2.0},
               "box": [-8.0, 8.0, -8.0, 8.0]}
    nu = build_measure(section)
    assert isinstance(nu, Density)
    # nu = -2 exp(-|x|^2/2) => nuhat(p) = -2 exp(-|p|^2/2)
    val = fourier_batch(nu, np.array([[1.0, 0.0]]))[0]
    assert val == pytest.approx(-2.0 * np.exp(-0.5), rel=1e-8)


def test_build_measure_sampled_density_and_sum():
    xs = np.linspace(-2.0, 2.0, 41)
    grid = -np.exp(-0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2))
    section = {
        "type": "sum",
        "parts": [
            {"type": "density",
             "density": {"type": "sampled", "values": grid.tolist()},
             "box": [-2.0, 2.0, -2.0, 2.0]},
            {"type": "curve",
             "curve": {"type": "segment", "start": [0.0, 0.0], "end": [1.0, 0.0]},
             "weight": -0.5},
        ],
    }
    nu = build_measure(section)
    assert isinstance(nu, Sum) and len(nu.parts) == 2
    assert np.isfinite(fourier_batch(nu, np.array([[0.5, 0.5]]))[0].real)


def test_measure_validation_nested():
    bad = {"measure": {"type": "sum", "parts": [
        {"type": "curve", "curve": {"type": "circle", "center": [0.0],
                                    "radius": -1.0}}]}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(bad))
    assert "measure.parts[0].curve" in str(err.value)
