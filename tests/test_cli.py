import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import spinbound
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


def test_certify_closed_curve_with_near_repeated_end(tmp_path):
    # a last node allclose to the first closes the sampled curve, and the
    # run completes instead of failing in the periodic spline
    doc = _certify_doc()
    doc["measure"]["curve"] = {
        "type": "sampled", "closed": True,
        "nodes": [[1, 0], [0, 1], [-1, 0], [0, -1], [1.0000000001, 0]]}
    out = tmp_path / "report.json"
    assert main(["certify", "-c", _write(tmp_path, "c.json", doc), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["certified"] is True


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


def test_timing_key_is_unknown(tmp_path, capsys):
    # wall-clock timing belongs to bench/run.py; the report has no timing key
    doc = _certify_doc()
    doc["output"] = {"timing": True}
    assert main(["certify", "-c", _write(tmp_path, "c.json", doc)]) == 2
    assert "unknown key 'timing'" in capsys.readouterr().err


def test_point_strategy_is_an_unknown_key(tmp_path, capsys):
    # trial points are N equispaced ones, or certify.points, so there is
    # no strategy to name, and a config that names one is refused
    doc = _certify_doc()
    doc["certify"]["point_strategy"] = "equispaced"
    assert main(["certify", "-c", _write(tmp_path, "c.json", doc)]) == 2
    assert "unknown key 'point_strategy'" in capsys.readouterr().err


def test_certify_exit_untabulable_exponent(tmp_path, capsys):
    # a valid a whose bump profile cannot be tabulated (below a = 7.35e-284
    # its value at rho = 1e12 is not a normal float) is a numerical failure
    # (3), not a completed run that did not certify (1)
    doc = _certify_doc()
    doc["certify"]["a_schedule"] = [5e-324]
    assert main(["certify", "-c", _write(tmp_path, "c.json", doc)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["rashba", "dresselhaus"])
def test_certify_counts_ten_states_at_small_a(tmp_path, kind):
    # the README circle with 48 points at a = 2e-4: the Kramers pairs up
    # to j = +-9/2 sink below the margin, the pair j = +-11/2 not yet, so
    # 10 of the 48 eigenvalues of Q certify and the run exits 1
    doc = _certify_doc(form="exact")
    doc["model"] = {"type": kind, "alpha": 2.0}
    doc["certify"].update(N=48, a_schedule=[2e-4])
    out = tmp_path / "report.json"
    assert main(["certify", "-c", _write(tmp_path, "c.json", doc), "-o", str(out)]) == 1
    assert json.loads(out.read_text())["certificate"]["certified_count"] == 10


def test_module_entry_point_exit_code(tmp_path):
    # python -m spinbound.cli runs main() and hands its code to the shell
    src = os.path.dirname(os.path.dirname(spinbound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "spinbound.cli", "certify", "-c",
         str(tmp_path / "missing.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "cannot read config file" in proc.stderr


def test_certify_and_oracle_run_without_scipy(tmp_path):
    # the package runs on numpy alone: importing scipy.special costs about
    # 0.2 s of start-up and scipy.linalg 0.05 s.  A full certify and oracle
    # run, not only an import, so that an import made inside a function
    # would be caught too
    doc = _certify_doc()
    doc["oracle"] = {"L": 6.0, "cutoffs": [2.5]}
    cfg = _write(tmp_path, "c.json", doc)
    code = ("import sys; from spinbound.cli import main; "
            "codes = [main([sub, '-c', sys.argv[1], '-o', sys.argv[2] + sub]) "
            "for sub in ('certify', 'oracle')]; "
            "print(codes, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(spinbound.__file__))
    proc = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "report-")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def test_certify_leaves_numpy_ma_unimported(tmp_path):
    # np.unique without index, inverse or counts asks np.ma.is_masked, and
    # numpy imports numpy.ma on that first use: 12-15 ms of a fresh CLI
    # certify.  The README config and the weak-well density, each certified
    # in a process that has imported numpy alone
    readme = _certify_doc(form="exact")
    readme["certify"].update(N=4, a_schedule=[0.4, 0.2, 0.1])
    weak = {"model": {"type": "rashba", "alpha": 2.0},
            "measure": {"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                        "density": {"type": "gaussian-well", "depth": 0.05, "width": 1.0}},
            "certify": {"N": 4, "a_schedule": [0.4, 0.2, 0.1, 0.05, 0.025],
                        "potential_form": "dropped"}}
    cfgs = [_write(tmp_path, "readme.json", readme), _write(tmp_path, "weak.json", weak)]
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; "
            "from spinbound.cli import main; "
            "codes = [main(['certify', '-c', c, '-o', c + '.out']) for c in sys.argv[1:]]; "
            "print(before, codes, 'numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(spinbound.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *cfgs],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False [0, 0] False"


def test_pyproject_keeps_scipy_to_the_test_extra():
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.25"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]


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


@pytest.mark.parametrize("grid", ["1:3", "1:3:1:1", "1:x:1", "3:1:1", "1:3:0"])
def test_exit_config_error_on_a_malformed_grid(tmp_path, grid):
    cfg = _write(tmp_path, "c.json", {"measure": _certify_doc()["measure"]})
    out = tmp_path / "f.csv"
    assert main(["fourier", "-c", cfg, "-o", str(out), "--grid", grid]) == 2
    assert not out.exists()


@pytest.mark.parametrize("option", [("--grid", "0:nan:1"), ("--grid", "0:inf:1"),
                                    ("--grid", "0:1:nan"), ("--angle", "nan")],
                         ids=["stop-nan", "stop-inf", "step-nan", "angle-nan"])
def test_exit_config_error_on_a_non_finite_fourier_input(tmp_path, option):
    # a traceback would exit 1, which reads as "not certified"
    cfg = _write(tmp_path, "c.json", {"measure": _certify_doc()["measure"]})
    out = tmp_path / "f.csv"
    args = dict([("--grid", "1:3:1"), option])
    argv = ["fourier", "-c", cfg, "-o", str(out)] + [x for kv in args.items() for x in kv]
    assert main(argv) == 2
    assert not out.exists()


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


def test_scan_decay_density_reach(tmp_path, capsys):
    # the weak-well density's axis rules each resolve their own frequency,
    # so three rays reach r_max = 40 under the node cap (the ray at 120
    # degrees takes 102 x 178 panels); at r_max = 60 that ray needs
    # 154 x 266 panels, past the cap
    doc = {"measure": {"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                       "density": {"type": "gaussian-well", "depth": 0.05, "width": 1.0}},
           "scan": {"r_max": 40.0, "angles": 3, "samples": 48}}
    out = tmp_path / "scan.csv"
    assert main(["scan-decay", "-c", _write(tmp_path, "c.json", doc), "-o", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3 * 48
    assert {row.split(",")[4] for row in rows} == {"decaying"}
    doc["scan"]["r_max"] = 60.0
    assert main(["scan-decay", "-c", _write(tmp_path, "c.json", doc), "-o", str(out)]) == 3
    assert "density quadrature exceeds node cap" in capsys.readouterr().err


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


@pytest.mark.parametrize("section, key, value", [
    ("certify", "a_schedule", [0.3]),
    ("scan", "samples", 48),
    ("certify", "potential_form", "dropped"),
    ("certify", "points", [[0.0, 1.0], [0.0, -1.0]]),
    ("oracle", "edge_tol", 0.5),
    ("scan", "angles", [0.5]),
])
def test_run_keys_reach_the_call(tmp_path, monkeypatch, section, key, value):
    # a run section is the keyword arguments of one library call: an
    # optional key set to a non-default value reaches it as given, and an
    # absent key is left to the call's own default
    call = {"certify": "certify", "oracle": "convergence_sweep",
            "scan": "decay_scans"}[section]
    seen = {}
    original = getattr(cli, call)

    def captured(*args, **kwargs):
        seen.update(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, call, captured)
    doc = {"model": {"type": "rashba", "alpha": 2.0},
           "measure": _certify_doc()["measure"],
           "certify": {"N": 2},
           "oracle": {"L": 6.0, "cutoffs": [2.5, 3.0]},
           "scan": {"r_max": 50.0}}
    doc[section][key] = value
    default = inspect.signature(original).parameters[key].default
    assert value != (list(default) if isinstance(default, tuple) else default)
    out = tmp_path / "r.json"
    subcommand = "scan-decay" if section == "scan" else section
    assert main([subcommand, "-c", _write(tmp_path, "c.json", doc), "-o", str(out)]) == 0
    assert seen == doc[section]
    if key == "edge_tol":
        results = json.loads(out.read_text())["oracle"]["results"]
        assert [r["edge_tol"] for r in results] == [0.5, 0.5]


def test_oracle_json_and_csv_print_eigenvalues_alike(tmp_path):
    # JSON and CSV share one float format, so each eigenvalue below kappa
    # is the same text in both files
    cfg = _write(tmp_path, "c.json", _oracle_doc())
    out = tmp_path / "o.json"
    eig = tmp_path / "eigs.csv"
    assert main(["oracle", "-c", cfg, "-o", str(out),
                 "--eigenvalues", str(eig)]) == 0
    text = out.read_text()
    oracle = json.loads(text)["oracle"]
    rows = [line.split(",") for line in eig.read_text().splitlines()[1:]]
    blocks = re.findall(r'"eigenvalues_below": \[\n(.*?)\n *\]', text, re.S)
    assert len(blocks) == len(oracle["results"])
    for cutoff, result, block in zip(oracle["cutoffs"], oracle["results"], blocks):
        assert result["count_below"] > 0
        json_text = [line.strip().rstrip(",") for line in block.splitlines()]
        csv_text = [row[2] for row in rows if float(row[0]) == cutoff]
        assert json_text == csv_text[:result["count_below"]]


def _full_doc():
    doc = _certify_doc()
    doc["oracle"] = _oracle_doc()["oracle"]
    doc["scan"] = {"r_max": 50.0, "angles": 2, "samples": 32}
    return doc


def test_report_matches_single_subcommands(tmp_path, capsys):
    # report runs the certify, oracle and scan sections a config holds,
    # and each section equals the one its own subcommand writes
    cfg = _write(tmp_path, "c.json", _full_doc())
    parsed = {}
    for sub in ("report", "certify", "oracle", "scan-decay"):
        assert main([sub, "-c", cfg]) == 0
        parsed[sub] = json.loads(capsys.readouterr().out)
    report = parsed["report"]
    assert report["threshold"] == parsed["certify"]["threshold"]
    assert report["threshold"] == parsed["oracle"]["threshold"]
    assert report["certificate"] == parsed["certify"]["certificate"]
    assert report["oracle"] == parsed["oracle"]["oracle"]
    assert report["decay_profiles"] == parsed["scan-decay"]["decay_profiles"]
    assert "certificate" not in parsed["oracle"]
    assert "oracle" not in parsed["certify"]


def test_report_exit_not_certified(tmp_path):
    doc = _full_doc()
    doc["measure"]["weight"] = 0.0
    out = tmp_path / "r.json"
    assert main(["report", "-c", _write(tmp_path, "c.json", doc),
                 "-o", str(out)]) == 1
    parsed = json.loads(out.read_text())
    assert parsed["certificate"]["certified"] is False
    assert {"oracle", "decay_profiles"} <= set(parsed)


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


# ---------------------------------------------------------------------------
# report serialization


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert json.loads(rep.dump_json({"x": x}))["x"] == x


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


# ---------------------------------------------------------------------------
# benchmark harness


def test_benchmark_wrap_points_exist(monkeypatch):
    # a traced benchmark round wraps each (module, attribute) of
    # bench/child.py's _WRAPPED by getattr; every one must still exist
    path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(child)
    assert child._WRAPPED
    for owner, attr, name, _ in child._WRAPPED:
        assert callable(getattr(owner, attr, None)), name
    assert callable(getattr(cli, child._ROOT_SPAN[0].split(".")[1], None))
