"""Command-line front end.

Subcommands map one-to-one onto the library pipelines: ``certify`` runs the
variational certificate, ``oracle`` runs the plane-wave eigenvalue sweep,
``scan-decay`` and ``fourier`` emit transform tables, and ``report`` merges
everything the config asks for.  Exit codes: 0 success/certified, 1
completed but not certified, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import report as rep
from .certificate import certify
from .config import (DEFAULT_A_SCHEDULE, build_measure, build_model,
                     parse_config)
from .errors import ConfigError, SpinboundError
from .measure import decay_scan, fourier_batch
from .model import threshold
from .oracle import convergence_sweep

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_grid(text):
    """'start:stop:step' -> inclusive 1-D grid of |p| values."""
    parts = text.split(":")
    try:
        start, stop, step = (float(p) for p in parts)
    except (ValueError, TypeError):
        raise ConfigError(["--grid must be 'start:stop:step', got %r" % text])
    if len(parts) != 3 or step <= 0 or stop < start:
        raise ConfigError(["--grid must be 'start:stop:step' with step > 0"])
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _require(config, sections, subcommand):
    missing = [s for s in sections if getattr(config, s.replace("-", "_")) is None]
    if missing:
        raise ConfigError(["subcommand %r needs config section(s): %s"
                           % (subcommand, ", ".join(missing))])


def _scan_angles(scan_section):
    angles = scan_section.get("angles", 8)
    if isinstance(angles, int):
        return [2.0 * np.pi * k / angles for k in range(angles)]
    return [float(a) for a in angles]


def _base_report(config):
    return {"schema": rep.SCHEMA_TAG, "config": config.raw}


def _build(config):
    """The model, its threshold data and the measure of a config."""
    model = build_model(config.model)
    return model, threshold(model), build_measure(config.measure)


def _run_certify_section(config, model, thr, nu):
    cert = config.certify
    points = cert.get("points")
    return certify(model, thr, nu, cert["N"],
                   cert.get("a_schedule", list(DEFAULT_A_SCHEDULE)),
                   point_strategy=cert.get("point_strategy", "equispaced"),
                   potential_form=cert.get("potential_form", "exact"),
                   points=np.asarray(points, float) if points else None)


def _run_oracle_section(config, model, thr, nu):
    osec = config.oracle
    edge_tol = osec.get("edge_tol")
    return convergence_sweep(model, thr, nu, osec["L"], osec["cutoffs"],
                             edge_tol=None if edge_tol is None else float(edge_tol))


def _write_report(document, config, out_path):
    path = out_path or config.output.get("report_json")
    text = rep.dump_json(document)
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_certify(config, args):
    t0 = time.perf_counter()
    model, thr, nu = _build(config)
    result = _run_certify_section(config, model, thr, nu)
    doc = _base_report(config)
    doc["threshold"] = rep.threshold_section(thr)
    doc["certificate"] = rep.certificate_section(result)
    if config.output.get("timing", False):
        doc["timing"] = {"certify_seconds": time.perf_counter() - t0}
    _write_report(doc, config, args.output)
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def _cmd_oracle(config, args):
    t0 = time.perf_counter()
    model, thr, nu = _build(config)
    sweep = _run_oracle_section(config, model, thr, nu)
    doc = _base_report(config)
    doc["threshold"] = rep.threshold_section(thr)
    doc["oracle"] = rep.sweep_section(sweep)
    if config.output.get("timing", False):
        doc["timing"] = {"oracle_seconds": time.perf_counter() - t0}
    _write_report(doc, config, args.output)
    eig_path = args.eigenvalues or config.output.get("eigenvalues_csv")
    if eig_path:
        _write_eigenvalues(eig_path, sweep)
    return EXIT_OK


def _write_eigenvalues(path, sweep):
    rows = [(c, i, float(e))
            for c, r in zip(sweep.cutoffs, sweep.results)
            for i, e in enumerate(r.eigenvalues)]
    rep.write_csv(path, ("cutoff", "index", "eigenvalue"), rows)


def _decay_profiles(nu, scan):
    return [decay_scan(nu, ang, scan["r_max"], scan.get("samples", 64))
            for ang in _scan_angles(scan)]


def _write_profiles(path, profiles):
    rows = [(p.direction_angle, float(r), float(m), p.fitted_slope,
             p.classification)
            for p in profiles
            for r, m in zip(p.radii, p.magnitudes)]
    header = ("angle", "r", "abs_nuhat", "fitted_slope", "classification")
    rep.write_csv(path, header, rows)


def _cmd_scan_decay(config, args):
    profiles = _decay_profiles(build_measure(config.measure), config.scan)
    path = args.output or config.output.get("profile_csv")
    if path:
        _write_profiles(path, profiles)
    else:
        doc = _base_report(config)
        doc["decay_profiles"] = [rep.profile_section(p) for p in profiles]
        _write_report(doc, config, None)
    return EXIT_OK


def _cmd_fourier(config, args):
    if args.grid is None:
        raise ConfigError(["fourier requires --grid 'start:stop:step'"])
    nu = build_measure(config.measure)
    radii = _parse_grid(args.grid)
    ang = float(args.angle)
    pts = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    vals = fourier_batch(nu, pts)
    rows = [(float(r), float(px), float(py), float(v.real), float(v.imag),
             float(abs(v)))
            for r, (px, py), v in zip(radii, pts, vals)]
    header = ("p_abs", "px", "py", "nuhat_re", "nuhat_im", "nuhat_abs")
    path = args.output or config.output.get("fourier_csv")
    if path:
        rep.write_csv(path, header, rows)
    else:
        for line in [",".join(header)] + [",".join(repr(c) if isinstance(c, float)
                                                   else str(c) for c in row)
                                          for row in rows]:
            sys.stdout.write(line + "\n")
    return EXIT_OK


def _cmd_report(config, args):
    t0 = time.perf_counter()
    model, thr, nu = _build(config)
    doc = _base_report(config)
    timing = {}
    certified = True
    if config.certify is not None:
        t = time.perf_counter()
        result = _run_certify_section(config, model, thr, nu)
        doc["threshold"] = rep.threshold_section(thr)
        doc["certificate"] = rep.certificate_section(result)
        certified = result.certified
        timing["certify_seconds"] = time.perf_counter() - t
    if config.oracle is not None:
        t = time.perf_counter()
        sweep = _run_oracle_section(config, model, thr, nu)
        doc.setdefault("threshold", rep.threshold_section(thr))
        doc["oracle"] = rep.sweep_section(sweep)
        timing["oracle_seconds"] = time.perf_counter() - t
        if config.output.get("eigenvalues_csv"):
            _write_eigenvalues(config.output["eigenvalues_csv"], sweep)
    if config.scan is not None:
        profiles = _decay_profiles(nu, config.scan)
        doc["decay_profiles"] = [rep.profile_section(p) for p in profiles]
        if config.output.get("profile_csv"):
            _write_profiles(config.output["profile_csv"], profiles)
    if config.output.get("timing", False):
        timing["total_seconds"] = time.perf_counter() - t0
        doc["timing"] = timing
    _write_report(doc, config, args.output)
    return EXIT_OK if certified else EXIT_NOT_CERTIFIED


_SECTIONS_NEEDED = {
    "certify": ("model", "measure", "certify"),
    "oracle": ("model", "measure", "oracle"),
    "scan-decay": ("measure", "scan"),
    "fourier": ("measure",),
    "report": ("model", "measure"),
}

_HANDLERS = {
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "scan-decay": _cmd_scan_decay,
    "fourier": _cmd_fourier,
    "report": _cmd_report,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spinbound",
        description="Certified bound-state counts for 2D spin-orbit "
                    "Hamiltonians with measure potentials.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True,
                       help="path to a JSON run configuration")
        p.add_argument("-o", "--output", default=None,
                       help="output path (JSON report or CSV table)")
        if name == "oracle":
            p.add_argument("--eigenvalues", default=None,
                           help="also write the full spectra as CSV")
        if name == "fourier":
            p.add_argument("--grid", default=None,
                           help="|p| grid as 'start:stop:step'")
            p.add_argument("--angle", default=0.0, type=float,
                           help="ray angle in radians")
    return parser


def run(subcommand, config, args=None):
    """Dispatch a validated RunConfig; returns the process exit code."""
    if args is None:
        args = argparse.Namespace(output=None, eigenvalues=None,
                                  grid=None, angle=0.0)
    _require(config, _SECTIONS_NEEDED[subcommand], subcommand)
    return _HANDLERS[subcommand](config, args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(["cannot read config file: %s" % exc])
        config = parse_config(text)
        return run(args.subcommand, config, args)
    except ConfigError as exc:
        for problem in exc.errors:
            print("config error: %s" % problem, file=sys.stderr)
        return EXIT_CONFIG
    except SpinboundError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
