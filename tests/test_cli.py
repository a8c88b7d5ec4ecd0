import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import spinbound.cli as cli
import spinbound.report as rep
from spinbound.cli import main


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _certify_doc(weight=-1.0, form="dropped"):
    return {
        "model": {"type": "rashba", "alpha": 2.0},
        "measure": {"type": "curve",
                    "curve": {"type": "circle", "center": [0.0, 0.0],
                              "radius": 1.0},
                    "weight": weight},
        "certify": {"N": 2, "a_schedule": [0.4], "potential_form": form},
    }


# ---------------------------------------------------------------------------
# exit codes


def test_certify_exit_ok(tmp_path):
    cfg = _write(tmp_path, "c.json", _certify_doc())
    out = str(tmp_path / "report.json")
    assert main(["certify", "-c", cfg, "-o", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["certificate"]["certified"] is True


def test_certify_exit_not_certified(tmp_path):
    cfg = _write(tmp_path, "c.json", _certify_doc(weight=0.0))
    out = str(tmp_path / "report.json")
    assert main(["certify", "-c", cfg, "-o", out]) == 1
    doc = json.loads(open(out).read())
    assert doc["certificate"]["certified"] is False


def test_exit_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", "-c", str(bad)]) == 2
    assert main(["certify", "-c", str(tmp_path / "missing.json")]) == 2
    for key in ("bogus", "seed"):
        unknown = _certify_doc()
        unknown[key] = 1
        assert main(["certify", "-c", _write(tmp_path, "u.json", unknown)]) == 2
    # syntactically valid config but missing the section the subcommand needs
    partial = {"model": {"type": "rashba", "alpha": 2.0}}
    assert main(["certify", "-c", _write(tmp_path, "p.json", partial)]) == 2


def test_exit_numerical_error(tmp_path):
    # Fourier transform of a density demands unresolvable quadrature at
    # astronomically large momenta
    doc = {"measure": {"type": "density",
                       "density": {"type": "gaussian-well", "depth": 1.0},
                       "box": [-6.0, 6.0, -6.0, 6.0]}}
    cfg = _write(tmp_path, "c.json", doc)
    out = str(tmp_path / "f.csv")
    code = main(["fourier", "-c", cfg, "-o", out, "--grid", "1e8:3e8:1e8"])
    assert code == 3


# ---------------------------------------------------------------------------
# fourier / scan output


def test_fourier_values_circle(tmp_path):
    from scipy.special import j0
    doc = {"measure": _certify_doc()["measure"]}
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "f.csv"
    assert main(["fourier", "-c", cfg, "-o", str(out), "--grid", "1:3:1"]) == 0
    lines = out.read_bytes().split(b"\n")
    assert lines[0] == b"p_abs,px,py,nuhat_re,nuhat_im,nuhat_abs"
    for line, p in zip(lines[1:4], (1.0, 2.0, 3.0)):
        cols = line.decode().split(",")
        assert float(cols[0]) == p
        assert float(cols[3]) == pytest.approx(-j0(p), abs=1e-12)
        assert abs(float(cols[4])) < 1e-12


def test_scan_decay_csv(tmp_path):
    doc = {"measure": _certify_doc()["measure"],
           "scan": {"r_max": 200.0, "angles": 2, "samples": 64}}
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "scan.csv"
    assert main(["scan-decay", "-c", cfg, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "angle,r,abs_nuhat,fitted_slope,classification"
    assert "decaying" in text
    # CSV always uses LF endings
    assert b"\r" not in out.read_bytes()


def _oracle_doc():
    return {"model": {"type": "rashba", "alpha": 2.0},
            "measure": _certify_doc()["measure"],
            "oracle": {"L": 6.0, "cutoffs": [2.5, 3.0]}}


def test_oracle_subcommand_with_eigenvalues(tmp_path):
    doc = _oracle_doc()
    cfg = _write(tmp_path, "c.json", doc)
    out = str(tmp_path / "o.json")
    eig = tmp_path / "eigs.csv"
    assert main(["oracle", "-c", cfg, "-o", out, "--eigenvalues", str(eig)]) == 0
    doc = json.loads(open(out).read())
    assert doc["oracle"]["stable"] in (True, False)
    lines = eig.read_text().splitlines()
    assert lines[0] == "cutoff,index,eigenvalue"
    rows = [line.split(",") for line in lines[1:]]
    results = doc["oracle"]["results"]
    assert len(rows) == sum(2 * r["mode_count"] for r in results)
    for cutoff, result in zip(doc["oracle"]["cutoffs"], results):
        mine = [row for row in rows if float(row[0]) == cutoff]
        assert len(mine) == 2 * result["mode_count"]
        assert [int(row[1]) for row in mine] == list(range(len(mine)))
        values = [float(row[2]) for row in mine]
        assert values == sorted(values)
        # both files print floats that round-trip, so the match is exact
        assert values[:result["count_below"]] == result["eigenvalues_below"]


def test_oracle_edge_tol_reaches_every_cutoff(tmp_path):
    doc = _oracle_doc()
    doc["oracle"]["edge_tol"] = 0.5
    cfg = _write(tmp_path, "c.json", doc)
    out = str(tmp_path / "o.json")
    assert main(["oracle", "-c", cfg, "-o", out]) == 0
    results = json.loads(open(out).read())["oracle"]["results"]
    assert [r["edge_tol"] for r in results] == [0.5, 0.5]


def test_report_builds_once_per_run(tmp_path, monkeypatch):
    calls = {"build_measure": 0, "threshold": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    doc = _certify_doc()
    doc["oracle"] = _oracle_doc()["oracle"]
    doc["scan"] = {"r_max": 50.0, "angles": 1, "samples": 32}
    cfg = _write(tmp_path, "c.json", doc)
    out = str(tmp_path / "r.json")
    assert main(["report", "-c", cfg, "-o", out]) == 0
    parsed = json.loads(open(out).read())
    assert {"certificate", "oracle", "decay_profiles"} <= set(parsed)
    assert calls == {"build_measure": 1, "threshold": 1}


def test_report_writes_configured_csvs(tmp_path):
    # report writes the same CSV tables as oracle and scan-decay would
    doc = _oracle_doc()
    doc["scan"] = {"r_max": 50.0, "angles": 2, "samples": 32}
    names = {"eigenvalues_csv": "eigs.csv", "profile_csv": "scan.csv"}
    doc["output"] = {key: str(tmp_path / ("report-" + name))
                     for key, name in names.items()}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["report", "-c", cfg, "-o", str(tmp_path / "r.json")]) == 0
    doc["output"] = {key: str(tmp_path / ("single-" + name))
                     for key, name in names.items()}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["oracle", "-c", cfg, "-o", str(tmp_path / "o.json")]) == 0
    assert main(["scan-decay", "-c", cfg]) == 0
    for name in names.values():
        report_csv = (tmp_path / ("report-" + name)).read_bytes()
        assert report_csv == (tmp_path / ("single-" + name)).read_bytes()
        assert len(report_csv.splitlines()) > 2


# ---------------------------------------------------------------------------
# determinism


def test_report_determinism(tmp_path):
    doc = _certify_doc()
    doc["scan"] = {"r_max": 100.0, "angles": 1, "samples": 64}
    cfg = _write(tmp_path, "c.json", doc)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["report", "-c", cfg, "-o", a]) == 0
    assert main(["report", "-c", cfg, "-o", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_timing_opt_in(tmp_path):
    doc = _certify_doc()
    doc["output"] = {"timing": True}
    cfg = _write(tmp_path, "c.json", doc)
    out = str(tmp_path / "r.json")
    assert main(["certify", "-c", cfg, "-o", out]) == 0
    parsed = json.loads(open(out).read())
    assert parsed["timing"]["certify_seconds"] > 0.0


# ---------------------------------------------------------------------------
# report serialization


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert float(rep._format_float(x)) == x


def test_dump_json_deterministic_and_sorted():
    doc = {"b": np.float64(1.5), "a": {"z": np.arange(3), "y": 1 + 2j},
           "c": [True, None, "s"]}
    one = rep.dump_json(doc)
    two = rep.dump_json(doc)
    assert one == two
    assert one.index('"a"') < one.index('"b"') < one.index('"c"')
    parsed = json.loads(one)
    assert parsed["a"]["z"] == [0, 1, 2]
    assert parsed["a"]["y"] == {"im": 2.0, "re": 1.0}
