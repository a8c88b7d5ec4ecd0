"""Benchmark of spinbound's ``certify`` and ``oracle`` runs.

    python3 bench/run.py --workload readme-circle --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Every round is a fresh interpreter (``bench/child.py``) with one
BLAS/OpenMP thread that calls ``spinbound.cli.main`` for ``certify`` and
then ``oracle`` on the workload's config, with fixed reference work
(``bench/reference.py``) timed before, between and after the calls.  The
time metrics are wall times rescaled to a host on which the reference work
takes ``REF_S`` seconds, which takes most of a shared host's drift in speed
out of them.  Rounds repeat until ``--seconds`` have passed, and a run makes
at least ``MIN_ROUNDS``.  Both reports of every round are checked by
``bench/check.py``; each CLI call is one operation, and it fails when its
exit code is not 0 or its report fails a check.

With ``--trace 0`` the run first times a few fresh interpreter starts
(``setup_s``) and reports the end-to-end metrics; with ``--trace 1`` the
rounds run with the layer wrappers installed and the per-layer metrics are
reported.  Medians over the run's rounds are printed, last, as one JSON
object.  Reports, spans and the round details go to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_certify, check_oracle, self_test

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
CHILD = BENCH / "child.py"

SETUP_STARTS = 4
# a run makes at least this many rounds: one certify call spans too few of
# the host's swings in speed to repeat within a tenth from run to run
MIN_ROUNDS = 2
# reference work time (s) of the host that wall times are rescaled to: the
# median that reference.reference_s took on the host of the README's figures
REF_S = 0.75
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# golden-ratio steps spread the seeds' rotation angles evenly
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _circle(radius):
    return {"type": "curve", "weight": -1.0,
            "curve": {"type": "circle", "center": [0.0, 0.0], "radius": radius}}


WORKLOADS = {
    # the README config, with the oracle box shrunk from L=12 to L=10 so
    # that a run of two rounds fits the time budget: exact potential on the
    # unit circle, dense eigensolve at dimension ~2300
    "readme-circle": {
        "model": {"type": "rashba", "alpha": 2.0},
        "measure": _circle(1.0),
        "certify": {"N": 4, "a_schedule": [0.4, 0.2, 0.1],
                    "potential_form": "exact"},
        "oracle": {"L": 10.0, "cutoffs": [5.0, 6.0]},
    },
    # exact potential and N^2 kinetic pairs dominate; the oracle is ~1%
    "dresselhaus-ring": {
        "model": {"type": "dresselhaus", "alpha": 3.0},
        "measure": _circle(1.5),
        "certify": {"N": 6, "a_schedule": [0.4, 0.2, 0.1],
                    "potential_form": "exact"},
        "oracle": {"L": 8.0, "cutoffs": [3.0, 4.0]},
    },
    # weak density: the schedule runs down to a = 0.05 (four profile
    # builds, small-a kinetic integrals), density transforms in the oracle
    "weak-well": {
        "model": {"type": "rashba", "alpha": 2.0},
        "measure": {"type": "density", "box": [-8.0, 8.0, -8.0, 8.0],
                    "density": {"type": "gaussian-well", "depth": 0.05,
                                "width": 1.0}},
        "certify": {"N": 4, "a_schedule": [0.4, 0.2, 0.1, 0.05, 0.025],
                    "potential_form": "dropped"},
        "oracle": {"L": 10.0, "cutoffs": [5.0, 6.0]},
    },
}

# one oracle call of dresselhaus-ring takes ~0.2 s, too short to time
# alone on a shared machine: its oracle_s is the median of several calls,
# which together span several seconds of the host's changing speed
ORACLE_CALLS = {"dresselhaus-ring": 25}

END_TO_END = {"setup_s": "s", "certify_s": "s", "oracle_s": "s", "peak_rss_mb": "MiB"}
# self times (s) per layer and the counts that explain them; child.py
# computes them from the spans of a traced round
PER_LAYER = {
    "model.threshold_s": "s",
    "hankel.profile_s": "s",
    "hankel.profiles": "count",
    "certificate.kinetic_s": "s",
    "certificate.schedule_steps": "count",
    "certificate.potential_exact_s": "s",
    "certificate.potential_dropped_s": "s",
    "certificate.definiteness_s": "s",
    "certificate.self_s": "s",
    "measure.quad_nodes": "count",
    "measure.fourier_matrix_s": "s",
    "measure.fourier_grid_s": "s",
    "oracle.assemble_s": "s",
    "oracle.eigensolve_s": "s",
    "oracle.self_s": "s",
    "oracle.modes": "count",
    "oracle.matrix_bytes": "bytes",
    "cli.self_s": "s",
}


def workload(name, seed):
    """Config of a workload, and the facts its checks need.

    The seed rotates the N equispaced trial points on the minimum set by a
    fraction of 2 pi / N; every workload measure is rotation-invariant about
    the origin, so every check holds on every seed.
    """
    config = copy.deepcopy(WORKLOADS[name])
    alpha = config["model"]["alpha"]
    n = config["certify"]["N"]
    offset = (seed * _GOLDEN) % 1.0
    angles = [2.0 * math.pi * (k + offset) / n for k in range(n)]
    points = [[0.5 * abs(alpha) * math.cos(t), 0.5 * abs(alpha) * math.sin(t)]
              for t in angles]
    config["certify"]["points"] = points
    spec = {"alpha": alpha, "N": n, "points": points}
    measure = config["measure"]
    if measure["type"] == "curve":
        spec.update(measure="circle", radius=measure["curve"]["radius"],
                    weight=measure["weight"])
    else:
        well = measure["density"]
        spec.update(measure="gaussian-well", depth=well["depth"], width=well["width"])
    return config, spec


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # let the warm-up start write spinbound's bytecode, so that the timed
    # starts load it as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _child(args, env, deadline):
    """Run child.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("child %s exited %d:\n%s"
                           % (args[0], proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def setup_times(config_path, env, deadline):
    """Fresh-interpreter start to config parsed, after one warm-up start."""
    _child(["setup", str(config_path)], env, deadline)
    times = []
    for _ in range(SETUP_STARTS):
        start = time.monotonic()
        times.append(_child(["setup", str(config_path)], env, deadline)["ready"] - start)
    return times


def run_round(config_path, out_dir, spec, oracle_calls, env, deadline, trace):
    """One fresh-process round: its timings and each operation's problems."""
    for stale in out_dir.glob("*.json"):
        if stale != config_path:
            stale.unlink()
    args = ["run", str(config_path), str(out_dir), str(oracle_calls)]
    result = _child(args + (["--trace"] if trace else []), env, deadline)
    calls = [("certify", "certify.json", result["certify_exit"])]
    calls += [("oracle", "oracle-%d.json" % i, code)
              for i, code in enumerate(result["oracle_exit"])]
    reports, problems = {}, []
    for op, name, code in calls:
        found = [] if code == 0 else ["exit code %d" % code]
        try:
            with open(out_dir / name) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(found + ["no readable report: %s" % exc])
            continue
        if op == "certify":
            found += check_certify(report, spec)
        else:
            certified = reports.get("certify", {}).get("certificate", {}).get(
                "certified_count", spec["N"])
            found += check_oracle(report, spec, certified)
        reports.setdefault(op, report)
        problems.append(found)
    result["problems"] = problems
    return result, reports


def speed_factor(result):
    """REF_S over the mean of a round's three reference times.

    The host's speed changes within seconds as well as over minutes.  The
    mean of all three times gauges the round's speed with less noise than
    the two around one call, and the few seconds it misses average out
    over a call of several seconds.
    """
    return REF_S / statistics.fmean(result["ref_s"])


def measure(name, seed, seconds, trace):
    config, spec = workload(name, seed)
    out_dir = RUNS / ("%s-seed%d-trace%d" % (name, seed, trace))
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    # a traced round makes one oracle call, so its layer numbers describe
    # one user run
    oracle_calls = 1 if trace else ORACLE_CALLS.get(name, 1)
    env = _child_env()
    deadline = time.monotonic() + RUN_LIMIT_S

    setup = [] if trace else setup_times(config_path, env, deadline)
    rounds, missed = [], None
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        result, reports = run_round(config_path, out_dir, spec, oracle_calls,
                                    env, deadline, trace)
        rounds.append(result)
        if missed is None and len(reports) == 2:
            missed = self_test(reports["certify"], reports["oracle"], spec)

    ops = [p for r in rounds for p in r["problems"]]
    if trace:
        units = PER_LAYER
        values = {m: statistics.median(r["layers"][m] for r in rounds) for m in units}
    else:
        units = END_TO_END
        # the setup starts run just before the first round, whose reference
        # times gauge the host's speed for them too
        values = {
            "setup_s": statistics.median(setup) * speed_factor(rounds[0]),
            "certify_s": statistics.median(r["certify_wall_s"] * speed_factor(r)
                                           for r in rounds),
            "oracle_s": statistics.median(t * speed_factor(r) for r in rounds
                                          for t in r["oracle_wall_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    summary = {
        "correct": missed == [] and not any(ops),
        "attempted": len(ops),
        "failed": sum(bool(p) for p in ops),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "setup_s": setup, "rounds": rounds,
                   "self_test_missed": missed, "summary": summary}, fh, indent=2)
    return summary, rounds, missed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinbound" / "__init__.py").is_file():
        print("bench: no spinbound sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    summary, rounds, missed = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    for i, r in enumerate(rounds):
        for op, problems in enumerate(r["problems"]):
            for p in problems:
                print("round %d, call %d: %s" % (i, op, p))
    if missed:
        print("self-test: doctored reports accepted: %s" % ", ".join(missed))
    for m, v in summary["metrics"].items():
        print("%-32s %14.6g %s" % (m, v["value"], v["unit"]))
    if not args.trace:
        print("unscaled medians: certify %.4g s, oracle %.4g s, reference work %.4g s"
              % (statistics.median(r["certify_wall_s"] for r in rounds),
                 statistics.median(t for r in rounds for t in r["oracle_wall_s"]),
                 statistics.median(t for r in rounds for t in r["ref_s"])))
    print("operations: %d attempted, %d failed" % (summary["attempted"], summary["failed"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
