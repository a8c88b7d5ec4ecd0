"""JSON run configuration: parsing, validation, and reconstruction.

Every section is validated up front and all problems are collected into a
single ConfigError, so a bad config reports everything wrong with it in one
pass instead of failing on the first key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import ConfigError
from .measure import ClosedFormCircle, CurveDelta, Density, SampledCurve, Segment, Sum
from .model import CouplingSpec

DEFAULT_A_SCHEDULE = (0.4, 0.2, 0.1, 0.05, 0.025)


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


def _number(obj, key, path, sink, lo=None, hi=None, lo_open=False, hi_open=False):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not np.isfinite(v):
        sink.add(path, "%r must be a finite number" % key)
        return None
    v = float(v)
    if lo is not None and (v <= lo if lo_open else v < lo):
        sink.add(path, "%r = %g out of range" % (key, v))
        return None
    if hi is not None and (v >= hi if hi_open else v > hi):
        sink.add(path, "%r = %g out of range" % (key, v))
        return None
    return v


def _point(value, path, sink):
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    and np.isfinite(c) for c in value)):
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
            _number(section, "radius", path, sink, lo=0.0, lo_open=True)
    elif kind == "segment":
        if _check_keys(section, path, ("type", "start", "end"), (), sink):
            a = _point(section["start"], path + ".start", sink)
            b = _point(section["end"], path + ".end", sink)
            if a is not None and a == b:
                sink.add(path, "segment endpoints coincide")
    elif kind == "sampled":
        if _check_keys(section, path, ("type", "nodes"), ("closed",), sink):
            nodes = section["nodes"]
            ok = (isinstance(nodes, list) and len(nodes) >= 4
                  and all(_point(n, path + ".nodes[%d]" % i, sink) is not None
                          for i, n in enumerate(nodes)))
            if not ok and not isinstance(nodes, list):
                sink.add(path, "nodes must be a list of [x, y] pairs")
            elif isinstance(nodes, list) and len(nodes) < 4:
                sink.add(path, "sampled curve needs at least 4 nodes")
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
            _number(section, "depth", path, sink, lo=0.0, lo_open=True)
            if "width" in section:
                _number(section, "width", path, sink, lo=0.0, lo_open=True)
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
            elif not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                         and np.isfinite(c) for r in v for c in r):
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
            if (not isinstance(box, list) or len(box) != 4
                    or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                               and np.isfinite(c) for c in box)):
                sink.add(path, "box must be [xmin, xmax, ymin, ymax]")
            elif not (box[1] > box[0] and box[3] > box[2]):
                sink.add(path, "box must have positive extent on both axes")
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


def _validate_certify(section, sink):
    if not isinstance(section, dict):
        sink.add("certify", "must be an object")
        return
    if not _check_keys(section, "certify", ("N",),
                       ("a_schedule", "point_strategy", "potential_form", "points"),
                       sink):
        return
    n = section.get("N")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        sink.add("certify", "N must be an integer >= 1")
    sched = section.get("a_schedule", list(DEFAULT_A_SCHEDULE))
    if (not isinstance(sched, list) or not sched
            or not all(isinstance(a, (int, float)) and not isinstance(a, bool)
                       and np.isfinite(a) for a in sched)):
        sink.add("certify", "a_schedule must be a non-empty list of numbers")
    else:
        if any(not (0.0 < a <= 2.0) for a in sched):
            sink.add("certify", "every a in a_schedule must lie in (0, 2]")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            sink.add("certify", "a_schedule must be strictly decreasing")
    strat = section.get("point_strategy", "equispaced")
    if strat not in ("equispaced", "farthest_point"):
        sink.add("certify", "point_strategy must be equispaced|farthest_point")
    form = section.get("potential_form", "exact")
    if form not in ("exact", "dropped"):
        sink.add("certify", "potential_form must be exact|dropped")
    pts = section.get("points")
    if pts is not None:
        if (not isinstance(pts, list) or not pts
                or any(_point(p, "certify.points[%d]" % i, sink) is None
                       for i, p in enumerate(pts))):
            if not isinstance(pts, list):
                sink.add("certify", "points must be a list of [x, y] pairs")


def _validate_oracle(section, sink):
    if not isinstance(section, dict):
        sink.add("oracle", "must be an object")
        return
    if not _check_keys(section, "oracle", ("L", "cutoffs"), ("edge_tol",), sink):
        return
    _number(section, "L", "oracle", sink, lo=0.0, lo_open=True)
    cutoffs = section.get("cutoffs")
    if (not isinstance(cutoffs, list) or not cutoffs
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       and np.isfinite(c) and c > 0 for c in cutoffs)):
        sink.add("oracle", "cutoffs must be a non-empty list of positive numbers")
    elif any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        sink.add("oracle", "cutoffs must be strictly increasing")
    if "edge_tol" in section:
        _number(section, "edge_tol", "oracle", sink, lo=0.0)


def _validate_scan(section, sink):
    if not isinstance(section, dict):
        sink.add("scan", "must be an object")
        return
    if not _check_keys(section, "scan", ("r_max",), ("angles", "samples"), sink):
        return
    _number(section, "r_max", "scan", sink, lo=0.0, lo_open=True)
    angles = section.get("angles", 8)
    if isinstance(angles, int) and not isinstance(angles, bool):
        if angles < 1:
            sink.add("scan", "angles count must be >= 1")
    elif isinstance(angles, list):
        if not angles or not all(isinstance(a, (int, float))
                                 and not isinstance(a, bool) and np.isfinite(a)
                                 for a in angles):
            sink.add("scan", "angles must be a non-empty list of numbers")
    else:
        sink.add("scan", "angles must be a count or an explicit list")
    samples = section.get("samples", 64)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 32:
        sink.add("scan", "samples must be an integer >= 32")


def _validate_output(section, sink):
    if not isinstance(section, dict):
        sink.add("output", "must be an object")
        return
    allowed = ("report_json", "eigenvalues_csv", "profile_csv",
               "fourier_csv", "timing")
    _check_keys(section, "output", (), allowed, sink)
    for key in allowed[:-1]:
        if key in section and not isinstance(section[key], str):
            sink.add("output", "%r must be a path string" % key)
    if "timing" in section and not isinstance(section["timing"], bool):
        sink.add("output", "'timing' must be a boolean")


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
    if "certify" in doc:
        _validate_certify(doc["certify"], sink)
    if "oracle" in doc:
        _validate_oracle(doc["oracle"], sink)
    if "scan" in doc:
        _validate_scan(doc["scan"], sink)
    if "output" in doc:
        _validate_output(doc["output"], sink)
    if sink.problems:
        raise ConfigError(sink.problems)
    return RunConfig(raw=doc, model=doc.get("model"), measure=doc.get("measure"),
                     certify=doc.get("certify"), oracle=doc.get("oracle"),
                     scan=doc.get("scan"), output=doc.get("output", {}))


def serialize_config(config: RunConfig) -> str:
    """JSON text whose parse reproduces the config (round-trip identity)."""
    return json.dumps(config.raw, sort_keys=True, indent=2) + "\n"


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

        def well(x, y):
            return -depth * np.exp(-inv * ((x - cx) ** 2 + (y - cy) ** 2))

        return Density(well, tuple(box))
    values = np.asarray(section["values"], dtype=float)
    xs = np.linspace(box[0], box[1], values.shape[0])
    ys = np.linspace(box[2], box[3], values.shape[1])
    interp = RegularGridInterpolator((xs, ys), values, bounds_error=False,
                                     fill_value=0.0)

    def sampled(x, y):
        pts = np.column_stack([np.broadcast_to(x, np.broadcast(x, y).shape).ravel(),
                               np.broadcast_to(y, np.broadcast(x, y).shape).ravel()])
        return interp(pts).reshape(np.broadcast(x, y).shape)

    return Density(sampled, tuple(box))


def build_measure(section):
    if section["type"] == "curve":
        return CurveDelta(_build_curve(section["curve"]),
                          weight=float(section.get("weight", 1.0)))
    if section["type"] == "density":
        return _build_density(section["density"], section["box"])
    return Sum([build_measure(part) for part in section["parts"]])
