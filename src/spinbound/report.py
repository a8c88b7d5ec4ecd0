"""Machine-readable reports: deterministic JSON and CSV emission.

Both formats write floats in Python's shortest round-trip form, JSON keys
are sorted, and no timestamps are embedded, so identical inputs produce
byte-identical files.  Wall-clock timing is the benchmark harness's job
(``bench/run.py``).
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_TAG = "spinbound-report/1"


def _plain(value):
    """JSON form of the numpy and complex values the json module lacks."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError("cannot serialize %r" % type(value))


def dump_json(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True, default=_plain) + "\n"


def write_csv(target, header, rows):
    """Comma-separated table, LF endings, shortest round-trip float text.

    ``target`` is a path or an open text stream.
    """
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    target.write(",".join(header) + "\n")
    for row in rows:
        target.write(",".join(repr(float(c)) if isinstance(c, (float, np.floating))
                              else str(c) for c in row) + "\n")


# ---------------------------------------------------------------------------
# result-object converters


def threshold_section(thr):
    minset = thr.minset
    if hasattr(minset, "radius"):
        ms = {"kind": "circle", "center": list(minset.center),
              "radius": minset.radius}
    else:
        ms = {"kind": "point_cloud",
              "points": np.asarray(minset.points).tolist(),
              "tolerance": minset.tolerance}
    return {"kappa": thr.kappa, "minimum_set": ms}


def certificate_section(result):
    return {
        "N": result.N,
        "a_star": result.a_star,
        "lambda_max_Q": result.lambda_max_Q,
        "certified": result.certified,
        "certified_count": result.certified_count,
        "potential_form": result.potential_form,
        "points": np.asarray(result.points).tolist(),
        "fourier_precheck": {
            "lambda_max": result.prechecked_fourier_matrix.lambda_max,
            "negative_definite": result.prechecked_fourier_matrix.negative_definite,
        },
        "schedule": [
            {"a": s.a, "lambda_max_Q": s.lambda_max_Q,
             "negative_definite": s.negative_definite,
             "kinetic_diagonal": list(s.kinetic_diagonal)}
            for s in result.diagnostics
        ],
    }


def spectrum_section(result):
    return {
        "count_below": result.count_below,
        "marginal_count": result.marginal_count,
        "mode_count": result.mode_count,
        "kappa": result.kappa,
        "edge_tol": result.edge_tol,
        "eigenvalues_below": result.eigenvalues[
            result.eigenvalues < result.kappa - result.edge_tol].tolist(),
        "pairing": [{"index": i, "partner": j, "relative_gap": g}
                    for i, j, g in result.pairing],
    }


def sweep_section(sweep):
    return {
        "cutoffs": list(sweep.cutoffs),
        "counts_below": [r.count_below for r in sweep.results],
        "count_diffs": list(sweep.count_diffs),
        "stable": sweep.stable,
        "results": [spectrum_section(r) for r in sweep.results],
    }


def profile_section(profile):
    return {
        "direction_angle": profile.direction_angle,
        "fitted_slope": profile.fitted_slope,
        "classification": profile.classification,
        "radii": profile.radii.tolist(),
        "magnitudes": profile.magnitudes.tolist(),
    }
