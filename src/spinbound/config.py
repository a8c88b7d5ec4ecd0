"""JSON run configuration: parsing, validation, and reconstruction.

Every section is validated up front and all problems are collected into a
single ConfigError, so a bad config reports everything wrong with it in one
pass instead of failing on the first key.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from .certificate import certify, certify_problems
from .errors import ConfigError
from .measure import (ClosedFormCircle, CurveDelta, Density, SampledCurve, Segment,
                      Sum, box_problems, decay_scans, sampled_curve_problems,
                      scan_problems, segment_problems)
from .model import CouplingSpec
from .oracle import convergence_sweep, sweep_problems
from .spline import bilinear


@dataclass
class RunConfig:
    """Validated run configuration; raw holds the parsed JSON document."""

    raw: dict
    model: dict | None = None
    measure: dict | None = None
    certify: dict | None = None
    oracle: dict | None = None
    scan: dict | None = None
    output: dict = field(default_factory=dict)


class _Collector:
    def __init__(self):
        self.problems = []

    def add(self, path, message):
        self.problems.append("%s: %s" % (path, message))


def _check_keys(obj, path, required, optional, sink):
    missing = [k for k in required if k not in obj]
    unknown = [k for k in obj if k not in required and k not in optional]
    for k in missing:
        sink.add(path, "missing required key %r" % k)
    for k in unknown:
        sink.add(path, "unknown key %r" % k)
    return not missing and not unknown


def _finite(v):
    """A finite JSON number; JSON booleans are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and bool(np.isfinite(v))


def _numbers(v):
    return isinstance(v, list) and all(_finite(c) for c in v)


def _pair(v):
    return isinstance(v, list) and len(v) == 2 and _numbers(v)


def _number(obj, key, path, sink, positive=False):
    v = obj.get(key)
    if not _finite(v):
        sink.add(path, "%r must be a finite number" % key)
    elif positive and v <= 0.0:
        sink.add(path, "%r = %g out of range" % (key, v))


def _point(value, path, sink):
    if _pair(value):
        return (float(value[0]), float(value[1]))
    sink.add(path, "expected a finite [x, y] pair")
    return None


def _validate_model(section, sink):
    if not isinstance(section, dict):
        sink.add("model", "must be an object")
        return
    kind = section.get("type")
    if kind in ("rashba", "dresselhaus"):
        if _check_keys(section, "model", ("type", "alpha"), (), sink):
            _number(section, "alpha", "model", sink)
    elif kind == "custom":
        sink.add("model", "custom couplings need a Python evaluator; "
                          "use the library API (CouplingSpec.custom)")
    else:
        sink.add("model", "type must be 'rashba' or 'dresselhaus', got %r" % (kind,))


def _validate_curve(section, path, sink):
    if not isinstance(section, dict):
        sink.add(path, "must be an object")
        return
    kind = section.get("type")
    if kind == "circle":
        if _check_keys(section, path, ("type", "center", "radius"), (), sink):
            _point(section["center"], path + ".center", sink)
            _number(section, "radius", path, sink, positive=True)
    elif kind == "segment":
        if _check_keys(section, path, ("type", "start", "end"), (), sink):
            a = _point(section["start"], path + ".start", sink)
            b = _point(section["end"], path + ".end", sink)
            if a is not None and b is not None:
                for problem in segment_problems(a, b):
                    sink.add(path, problem)
    elif kind == "sampled":
        if _check_keys(section, path, ("type", "nodes"), ("closed",), sink):
            nodes = section["nodes"]
            if not isinstance(nodes, list):
                sink.add(path, "nodes must be a list of [x, y] pairs")
            elif all(_point(n, path + ".nodes[%d]" % i, sink) is not None
                     for i, n in enumerate(nodes)):
                for problem in sampled_curve_problems(nodes):
                    sink.add(path, problem)
            if "closed" in section and not isinstance(section["closed"], bool):
                sink.add(path, "'closed' must be a boolean")
    else:
        sink.add(path, "curve type must be circle|segment|sampled, got %r" % (kind,))


def _validate_density(section, path, sink):
    if not isinstance(section, dict):
        sink.add(path, "must be an object")
        return
    kind = section.get("type")
    if kind == "gaussian-well":
        if _check_keys(section, path, ("type", "depth"), ("width", "center"), sink):
            _number(section, "depth", path, sink, positive=True)
            if "width" in section:
                _number(section, "width", path, sink, positive=True)
            if "center" in section:
                _point(section["center"], path + ".center", sink)
    elif kind == "sampled":
        if _check_keys(section, path, ("type", "values"), (), sink):
            v = section["values"]
            rows_ok = (isinstance(v, list) and len(v) >= 2
                       and all(isinstance(r, list) and len(r) == len(v[0]) >= 2
                               for r in v))
            if not rows_ok:
                sink.add(path, "values must be a rectangular grid, >= 2 per axis")
            elif not all(_numbers(r) for r in v):
                sink.add(path, "values must all be finite numbers")
    else:
        sink.add(path, "density type must be gaussian-well|sampled, got %r" % (kind,))


def _validate_measure(section, path, sink, depth=0):
    if depth > 8:
        sink.add(path, "measure nesting too deep")
        return
    if not isinstance(section, dict):
        sink.add(path, "must be an object")
        return
    kind = section.get("type")
    if kind == "curve":
        if _check_keys(section, path, ("type", "curve"), ("weight",), sink):
            _validate_curve(section["curve"], path + ".curve", sink)
            if "weight" in section:
                _number(section, "weight", path, sink)
    elif kind == "density":
        if _check_keys(section, path, ("type", "density", "box"), (), sink):
            _validate_density(section["density"], path + ".density", sink)
            box = section["box"]
            if not (_numbers(box) and len(box) == 4):
                sink.add(path, "box must be [xmin, xmax, ymin, ymax]")
            else:
                for problem in box_problems(box):
                    sink.add(path, problem)
    elif kind == "sum":
        if _check_keys(section, path, ("type", "parts"), (), sink):
            parts = section["parts"]
            if not isinstance(parts, list) or not parts:
                sink.add(path, "parts must be a non-empty list")
            else:
                for i, part in enumerate(parts):
                    _validate_measure(part, path + ".parts[%d]" % i, sink, depth + 1)
    else:
        sink.add(path, "measure type must be curve|density|sum, got %r" % (kind,))


# A run section holds the keyword arguments of the library call it
# configures: the call's signature holds their defaults, its problem list
# their rules, and this table only the JSON shape of each value (None: any).
_NUMBER = (_finite, "a finite number")
_NUMBERS = (_numbers, "a list of finite numbers")
_RUN_SECTIONS = {
    "certify": (certify, certify_problems, {
        "N": _NUMBER, "a_schedule": _NUMBERS,
        "potential_form": None,
        "points": (lambda v: isinstance(v, list) and all(map(_pair, v)),
                   "a list of finite [x, y] pairs")}),
    "oracle": (convergence_sweep, sweep_problems,
               {"L": _NUMBER, "cutoffs": _NUMBERS, "edge_tol": _NUMBER}),
    "scan": (decay_scans, scan_problems, {
        "r_max": _NUMBER, "samples": _NUMBER,
        "angles": (lambda v: _finite(v) or _numbers(v),
                   "a count or a list of finite numbers")}),
}


def _validate_run(name, section, sink):
    """Key set and JSON shapes of a run section, then its call's problems.

    The problem list reads values of the right shape only, so it runs once
    every key has one.
    """
    if not isinstance(section, dict):
        sink.add(name, "must be an object")
        return
    call, problems, shapes = _RUN_SECTIONS[name]
    params = inspect.signature(call).parameters
    required = [k for k in shapes if params[k].default is params[k].empty]
    if not _check_keys(section, name, required, shapes, sink):
        return
    misshapen = [k for k, v in section.items() if shapes[k] and not shapes[k][0](v)]
    for k in misshapen:
        sink.add(name, "%r must be %s" % (k, shapes[k][1]))
    if not misshapen:
        for problem in problems(**{k: section.get(k, params[k].default)
                                   for k in shapes}):
            sink.add(name, problem)


def _validate_output(section, sink):
    if not isinstance(section, dict):
        sink.add("output", "must be an object")
        return
    allowed = ("report_json", "eigenvalues_csv", "profile_csv", "fourier_csv")
    _check_keys(section, "output", (), allowed, sink)
    for key in allowed:
        if key in section and not isinstance(section[key], str):
            sink.add("output", "%r must be a path string" % key)


def parse_config(text) -> RunConfig:
    """Validate a UTF-8 JSON config; raises ConfigError listing every problem."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(["config is not valid UTF-8: %s" % exc]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(["malformed JSON: %s" % exc]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top-level config must be a JSON object"])

    sink = _Collector()
    _check_keys(doc, "config", (),
                ("model", "measure", "certify", "oracle", "scan", "output"),
                sink)
    if "model" in doc:
        _validate_model(doc["model"], sink)
    if "measure" in doc:
        _validate_measure(doc["measure"], "measure", sink)
    for name in _RUN_SECTIONS:
        if name in doc:
            _validate_run(name, doc[name], sink)
    if "output" in doc:
        _validate_output(doc["output"], sink)
    if sink.problems:
        raise ConfigError(sink.problems)
    return RunConfig(raw=doc, model=doc.get("model"), measure=doc.get("measure"),
                     certify=doc.get("certify"), oracle=doc.get("oracle"),
                     scan=doc.get("scan"), output=doc.get("output", {}))


# ---------------------------------------------------------------------------
# construction of domain objects from validated sections


def build_model(section) -> CouplingSpec:
    if section["type"] == "rashba":
        return CouplingSpec.rashba(section["alpha"])
    return CouplingSpec.dresselhaus(section["alpha"])


def _build_curve(section):
    if section["type"] == "circle":
        return ClosedFormCircle(tuple(section["center"]), float(section["radius"]))
    if section["type"] == "segment":
        return Segment(tuple(section["start"]), tuple(section["end"]))
    return SampledCurve(np.asarray(section["nodes"], dtype=float),
                        closed=section.get("closed", False))


def _build_density(section, box):
    if section["type"] == "gaussian-well":
        depth = float(section["depth"])
        width = float(section.get("width", 1.0))
        cx, cy = section.get("center", (0.0, 0.0))
        inv = 0.5 / (width * width)

        # separable: on an axis grid it takes one exponential per axis node
        # and allocates the grid once
        def well(x, y):
            return -depth * np.exp(-inv * (x - cx) ** 2) * np.exp(-inv * (y - cy) ** 2)

        return Density(well, tuple(box))
    values = np.asarray(section["values"], dtype=float)
    xs = np.linspace(box[0], box[1], values.shape[0])
    ys = np.linspace(box[2], box[3], values.shape[1])

    def sampled(x, y):
        return bilinear(xs, ys, values, x, y)

    return Density(sampled, tuple(box))


def build_measure(section):
    if section["type"] == "curve":
        return CurveDelta(_build_curve(section["curve"]),
                          weight=float(section.get("weight", 1.0)))
    if section["type"] == "density":
        return _build_density(section["density"], section["box"])
    return Sum([build_measure(part) for part in section["parts"]])
