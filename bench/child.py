"""One benchmark round, run in a fresh interpreter by ``bench/run.py``.

    python3 bench/child.py setup CONFIG
    python3 bench/child.py run CONFIG OUT_DIR ORACLE_CALLS [--trace]

Both modes import spinbound, numpy and scipy and parse CONFIG first.
``setup`` then prints the monotonic clock reading, so the parent can time
the interpreter start.  ``run`` calls ``spinbound.cli.main`` for
``certify`` once and then for ``oracle`` ORACLE_CALLS times on CONFIG,
writes the reports into OUT_DIR (``certify.json``, ``oracle-<i>.json``) and
prints one JSON line with the wall time and exit code of every call, the
peak resident memory of this process, and the times of the reference work
(``reference.py``, in a process of its own) run before certify, between
certify and oracle, and after the last oracle call.

With ``--trace`` the public functions of each layer are wrapped, on the
names their callers look up, before the two calls, and the reference work
is left out (its times read 0).  The spans (name, start, end, parent) stay
in memory and go to OUT_DIR/spans.json when the round ends; the JSON line
then also carries the per-layer self times and counts.  No program code is
changed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (setup time covers numpy and scipy)
import scipy  # noqa: F401
from spinbound import certificate, cli, hankel, measure, oracle
from spinbound.config import parse_config

# (module, attribute, span name, per-layer metric the span's self time feeds)
_WRAPPED = (
    (cli, "build_model", "cli.build_model", "cli.self_s"),
    (cli, "build_measure", "cli.build_measure", "cli.self_s"),
    (cli, "threshold", "cli.threshold", "model.threshold_s"),
    (cli, "certify", "cli.certify", "certificate.self_s"),
    (cli, "convergence_sweep", "cli.convergence_sweep", "oracle.self_s"),
    (certificate, "fhat_profile", "certificate.fhat_profile", "hankel.profile_s"),
    (hankel, "FhatProfile", "hankel.FhatProfile", "hankel.profile_s"),
    (certificate, "kinetic_matrix", "certificate.kinetic_matrix",
     "certificate.kinetic_s"),
    (certificate, "potential_matrix_exact", "certificate.potential_matrix_exact",
     "certificate.potential_exact_s"),
    (certificate, "potential_matrix_dropped",
     "certificate.potential_matrix_dropped", "certificate.potential_dropped_s"),
    (certificate, "fourier_matrix", "certificate.fourier_matrix",
     "measure.fourier_matrix_s"),
    (certificate, "definiteness", "certificate.definiteness",
     "certificate.definiteness_s"),
    (oracle, "assemble", "oracle.assemble", "oracle.assemble_s"),
    (oracle, "fourier_grid", "oracle.fourier_grid", "measure.fourier_grid_s"),
    (oracle, "eigen_count_below", "oracle.eigen_count_below",
     "oracle.eigensolve_s"),
)
_ROOT_SPAN = ("cli.main", "cli.self_s")


class Tracer:
    """Spans and counters of one round, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = {"measure.quad_nodes": 0, "oracle.modes": 0,
                       "oracle.matrix_bytes": 0}
        self._open = []

    def wrap(self, name, fn, tally=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
            if tally is not None:
                tally(result)
            return result
        return traced

    def install(self):
        for owner, attr, name, _ in _WRAPPED:
            tally = self._tally_matrix if name == "oracle.assemble" else None
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), tally))
        for cls in (measure.CurveDelta, measure.Density):
            cls.quad_nodes = self._counted_nodes(cls.quad_nodes)

    def _tally_matrix(self, matrix):
        self.counts["oracle.modes"] += matrix.shape[0] // 2
        self.counts["oracle.matrix_bytes"] = max(self.counts["oracle.matrix_bytes"],
                                                 matrix.nbytes)

    def _counted_nodes(self, method):
        def counted(nu, *args, **kwargs):
            nodes = method(nu, *args, **kwargs)
            self.counts["measure.quad_nodes"] += len(nodes[0])
            return nodes
        return counted

    def layer_metrics(self):
        """Self time per layer (span minus its children) plus the counts."""
        metric_of = {name: metric for _, _, name, metric in _WRAPPED}
        metric_of[_ROOT_SPAN[0]] = _ROOT_SPAN[1]
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = dict.fromkeys(metric_of.values(), 0.0)
        for (name, *_), t in zip(self.spans, self_time):
            out[metric_of[name]] += t
        names = [span[0] for span in self.spans]
        out["hankel.profiles"] = names.count("hankel.FhatProfile")
        out["certificate.schedule_steps"] = names.count("certificate.kinetic_matrix")
        out.update(self.counts)
        return out


def _run(config_path, out_dir, oracle_calls, tracer, reference):
    main = cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.wrap(_ROOT_SPAN[0], main)
    ref_s = [reference()]
    t0 = time.perf_counter()
    certify_exit = main(["certify", "-c", config_path,
                         "-o", str(out_dir / "certify.json")])
    result = {"certify_wall_s": time.perf_counter() - t0,
              "certify_exit": certify_exit,
              "oracle_wall_s": [], "oracle_exit": [], "ref_s": ref_s}
    ref_s.append(reference())
    for i in range(oracle_calls):
        t0 = time.perf_counter()
        result["oracle_exit"].append(main(["oracle", "-c", config_path,
                                           "-o", str(out_dir / ("oracle-%d.json" % i))]))
        result["oracle_wall_s"].append(time.perf_counter() - t0)
    ref_s.append(reference())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(out_dir / "spans.json", "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        result["layers"] = tracer.layer_metrics()
    return result


def main(argv):
    mode, config_path = argv[0], argv[1]
    with open(config_path, "rb") as fh:
        parse_config(fh.read())
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    out_dir, oracle_calls = Path(argv[2]), int(argv[3])
    if "--trace" in argv[4:]:
        result = _run(config_path, out_dir, oracle_calls, Tracer(), lambda: 0.0)
    else:
        # imported here, so that setup_s covers only what spinbound imports
        from reference import ReferenceWorker
        with ReferenceWorker() as reference:
            result = _run(config_path, out_dir, oracle_calls, None, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
