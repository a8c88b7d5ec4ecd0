"""Command-line front end.

``certify``, ``oracle`` and ``report`` share one runner that writes one
JSON report: ``certify`` runs the variational certificate, ``oracle`` the
plane-wave eigenvalue sweep, and ``report`` every one of certify, oracle and
scan that the config holds.  ``scan-decay`` and ``fourier`` write transform
tables as CSV.  Exit codes: 0 success/certified, 1 completed but a certify
section did not certify, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import report as rep
from .certificate import certify
from .config import build_measure, build_model, parse_config
from .errors import ConfigError, SpinboundError
from .measure import decay_scans, fourier_batch
from .model import threshold
from .oracle import convergence_sweep

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_grid(text):
    """'start:stop:step' -> inclusive 1-D grid of |p| values."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except (ValueError, TypeError):
        raise ConfigError(["--grid must be 'start:stop:step', got %r" % text])
    if not np.all(np.isfinite([start, stop, step])):
        raise ConfigError(["--grid parts must be finite, got %r" % text])
    if step <= 0 or stop < start:
        raise ConfigError(["--grid must be 'start:stop:step' with step > 0"])
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _require(config, sections, subcommand):
    missing = [s for s in sections if getattr(config, s.replace("-", "_")) is None]
    if missing:
        raise ConfigError(["subcommand %r needs config section(s): %s"
                           % (subcommand, ", ".join(missing))])


def _base_report(config):
    return {"schema": rep.SCHEMA_TAG, "config": config.raw}


def _build(config):
    """The model, its threshold data and the measure of a config."""
    model = build_model(config.model)
    return model, threshold(model), build_measure(config.measure)


def _write_report(document, config, out_path):
    path = out_path or config.output.get("report_json")
    text = rep.dump_json(document)
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_pipeline(config, args, sections):
    """Run the named certify/oracle/scan sections into one JSON report."""
    model, thr, nu = _build(config)
    doc = _base_report(config)
    code = EXIT_OK
    if "certify" in sections or "oracle" in sections:
        doc["threshold"] = rep.threshold_section(thr)
    if "certify" in sections:
        result = certify(model, thr, nu, **config.certify)
        doc["certificate"] = rep.certificate_section(result)
        if not result.certified:
            code = EXIT_NOT_CERTIFIED
    if "oracle" in sections:
        sweep = convergence_sweep(model, thr, nu, **config.oracle)
        doc["oracle"] = rep.sweep_section(sweep)
        eig_path = (getattr(args, "eigenvalues", None)
                    or config.output.get("eigenvalues_csv"))
        if eig_path:
            _write_eigenvalues(eig_path, sweep)
    if "scan" in sections:
        profiles = decay_scans(nu, **config.scan)
        doc["decay_profiles"] = [rep.profile_section(p) for p in profiles]
        if config.output.get("profile_csv"):
            _write_profiles(config.output["profile_csv"], profiles)
    _write_report(doc, config, args.output)
    return code


def _write_eigenvalues(path, sweep):
    rows = [(c, i, float(e))
            for c, r in zip(sweep.cutoffs, sweep.results)
            for i, e in enumerate(r.eigenvalues)]
    rep.write_csv(path, ("cutoff", "index", "eigenvalue"), rows)


def _write_profiles(path, profiles):
    rows = [(p.direction_angle, float(r), float(m), p.fitted_slope,
             p.classification)
            for p in profiles
            for r, m in zip(p.radii, p.magnitudes)]
    header = ("angle", "r", "abs_nuhat", "fitted_slope", "classification")
    rep.write_csv(path, header, rows)


def _cmd_scan_decay(config, args):
    profiles = decay_scans(build_measure(config.measure), **config.scan)
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
    if not np.isfinite(ang):
        raise ConfigError(["--angle must be finite, got %r" % args.angle])
    pts = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    vals = fourier_batch(nu, pts)
    rows = [(float(r), float(px), float(py), float(v.real), float(v.imag),
             float(abs(v)))
            for r, (px, py), v in zip(radii, pts, vals)]
    header = ("p_abs", "px", "py", "nuhat_re", "nuhat_im", "nuhat_abs")
    rep.write_csv(args.output or config.output.get("fourier_csv") or sys.stdout,
                  header, rows)
    return EXIT_OK


_SECTIONS_NEEDED = {
    "certify": ("model", "measure", "certify"),
    "oracle": ("model", "measure", "oracle"),
    "scan-decay": ("measure", "scan"),
    "fourier": ("measure",),
    "report": ("model", "measure"),
}

_HANDLERS = {
    "certify": lambda config, args: _cmd_pipeline(config, args, ("certify",)),
    "oracle": lambda config, args: _cmd_pipeline(config, args, ("oracle",)),
    "scan-decay": _cmd_scan_decay,
    "fourier": _cmd_fourier,
    "report": lambda config, args: _cmd_pipeline(
        config, args, [s for s in ("certify", "oracle", "scan")
                       if getattr(config, s) is not None]),
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


if __name__ == "__main__":
    sys.exit(main())
