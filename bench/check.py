"""Checks of the certify and oracle reports against independent computations.

Each check either recomputes a quantity without spinbound (closed-form
thresholds, closed-form Fourier transforms of the workload measures) or
tests a property the method must have (the kinetic bound, the variational
lower bound, Kramers pairing).  A check returns the list of problems it
found; an empty list means the report passed.  ``self_test`` feeds the
checks doctored copies of real reports and lists every doctored report that
was not rejected.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.special import j0

PRECHECK_RTOL = 1e-8
PAIR_GAP = 1e-6


def closed_form_gram(spec, points):
    """nuhat(p_j - p_k) of the workload measure, from its closed form."""
    p = np.asarray(points, dtype=float)
    dist = np.hypot(p[:, None, 0] - p[None, :, 0], p[:, None, 1] - p[None, :, 1])
    if spec["measure"] == "circle":
        # (1/2pi) * weight * integral over the circle of e^{-i<p,x>} ds
        r = spec["radius"]
        return spec["weight"] * r * j0(r * dist)
    # Gaussian well -depth * exp(-|x|^2 / (2 w^2)) transforms to
    # -depth * w^2 * exp(-w^2 |p|^2 / 2)
    w2 = spec["width"] ** 2
    return -spec["depth"] * w2 * np.exp(-0.5 * w2 * dist ** 2)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_threshold(report, spec):
    problems = []
    alpha = spec["alpha"]
    thr = report["threshold"]
    if not _close(thr["kappa"], -alpha * alpha / 4.0, 1e-14):
        problems.append("kappa %r is not -alpha^2/4" % thr["kappa"])
    ms = thr["minimum_set"]
    if ms.get("kind") != "circle" or not _close(ms["radius"], abs(alpha) / 2.0, 1e-14):
        problems.append("minimum set is not the circle of radius |alpha|/2")
    return problems


def check_certify(report, spec):
    problems = check_threshold(report, spec)
    cert = report["certificate"]
    points = np.asarray(cert["points"], dtype=float)
    if points.shape != np.shape(spec["points"]) or not np.allclose(
            points, spec["points"], rtol=0.0, atol=1e-12):
        problems.append("reported trial points differ from the configured ones")
        return problems
    lam = float(np.linalg.eigvalsh(closed_form_gram(spec, points))[-1])
    if not _close(cert["fourier_precheck"]["lambda_max"], lam, PRECHECK_RTOL):
        problems.append("fourier precheck lambda_max %r, closed form %r"
                        % (cert["fourier_precheck"]["lambda_max"], lam))
    if cert["certified"] is not True:
        problems.append("not certified")
    if cert["certified_count"] != spec["N"]:
        problems.append("certified_count %r is not N = %d"
                        % (cert["certified_count"], spec["N"]))
    for step in cert["schedule"]:
        # lambda_- - kappa = (|p| - |alpha|/2)^2 <= |p - p_j|^2 for both
        # built-in couplings, so T_jj <= ||grad f_a||^2 = (pi/2) a
        bound = 0.5 * math.pi * step["a"]
        if not all(0.0 <= t <= bound for t in step["kinetic_diagonal"]):
            problems.append("kinetic diagonal outside [0, pi a / 2] at a = %r"
                            % step["a"])
    return problems


def check_oracle(report, spec, certified_count):
    problems = check_threshold(report, spec)
    kappa = -spec["alpha"] ** 2 / 4.0
    sweep = report["oracle"]
    counts = [r["count_below"] for r in sweep["results"]]
    if sweep["counts_below"] != counts:
        problems.append("counts_below disagrees with the per-cutoff results")
    if not (sweep["stable"] is True and len(counts) >= 2 and counts[-1] == counts[-2]):
        problems.append("sweep is not stable: %r" % (counts,))
    if not counts or counts[-1] < certified_count:
        problems.append("oracle count %r below the certified lower bound %r"
                        % (counts[-1:], certified_count))
    for cutoff, res in zip(sweep["cutoffs"], sweep["results"]):
        eigs = res["eigenvalues_below"]
        n = res["count_below"]
        where = "cutoff %r" % cutoff
        if len(eigs) != n or n % 2:
            problems.append("%s: count %r is odd or disagrees with its %d "
                            "eigenvalues" % (where, n, len(eigs)))
        if any(not e < kappa for e in eigs):
            problems.append("%s: an eigenvalue lies at or above kappa" % where)
        partners = sorted(i for p in res["pairing"] for i in (p["index"], p["partner"]))
        if partners != list(range(len(eigs))):
            problems.append("%s: not every state sits in a Kramers pair" % where)
            continue
        for p in res["pairing"]:
            a, b = eigs[p["index"]], eigs[p["partner"]]
            if abs(a - b) >= PAIR_GAP * max(abs(a), abs(b)):
                problems.append("%s: Kramers gap %.3e too wide"
                                % (where, abs(a - b) / max(abs(a), abs(b))))
    return problems


def _doctored(certify_report, oracle_report):
    """(description, certify report, oracle report) with one fault each."""
    def edit(which, change):
        c, o = copy.deepcopy(certify_report), copy.deepcopy(oracle_report)
        change(c if which == "certify" else o)
        return c, o

    def last(o):
        return o["oracle"]["results"][-1]

    def drop_state(o):
        last(o)["eigenvalues_below"].pop()
        last(o)["count_below"] -= 1
        o["oracle"]["counts_below"][-1] -= 1

    def split_pair(o):
        eigs = last(o)["eigenvalues_below"]
        eigs[1] = eigs[0] * (1.0 - 1e-5)

    def lose_states(o):
        for res in o["oracle"]["results"]:
            res["eigenvalues_below"] = res["eigenvalues_below"][:2]
            res["pairing"] = res["pairing"][:1]
            res["count_below"] = 2
        o["oracle"]["counts_below"] = [2] * len(o["oracle"]["results"])

    cases = {
        "kappa shifted": ("certify", lambda c: c["threshold"].update(
            kappa=c["threshold"]["kappa"] * (1.0 + 1e-9))),
        "minimum-set radius": ("oracle", lambda o: o["threshold"]["minimum_set"].update(
            radius=o["threshold"]["minimum_set"]["radius"] * 1.01)),
        "precheck off by 1e-6": ("certify", lambda c: c["certificate"]["fourier_precheck"]
                                 .update(lambda_max=c["certificate"]["fourier_precheck"]
                                         ["lambda_max"] * (1.0 + 1e-6))),
        "not certified": ("certify", lambda c: c["certificate"].update(certified=False)),
        "count below N": ("certify", lambda c: c["certificate"].update(
            certified_count=c["certificate"]["certified_count"] - 1)),
        "points rotated": ("certify", lambda c: c["certificate"].update(
            points=[[y, -x] for x, y in c["certificate"]["points"]])),
        "kinetic above pi a / 2": ("certify", lambda c: c["certificate"]["schedule"][-1]
                                   ["kinetic_diagonal"].__setitem__(
                                       0, 0.51 * math.pi * c["certificate"]
                                       ["schedule"][-1]["a"])),
        "kinetic negative": ("certify", lambda c: c["certificate"]["schedule"][0]
                             ["kinetic_diagonal"].__setitem__(0, -1e-12)),
        "unstable sweep": ("oracle", lambda o: o["oracle"].update(stable=False)),
        "oracle below certificate": ("oracle", lose_states),
        "odd count": ("oracle", drop_state),
        "Kramers pair split": ("oracle", split_pair),
        "eigenvalue at kappa": ("oracle", lambda o: last(o)["eigenvalues_below"]
                                .__setitem__(-1, o["threshold"]["kappa"])),
    }
    for name, (which, change) in cases.items():
        yield (name, which) + edit(which, change)


def self_test(certify_report, oracle_report, spec):
    """Names of doctored reports the checks failed to reject."""
    missed = []
    for name, which, c, o in _doctored(certify_report, oracle_report):
        if which == "certify":
            problems = check_certify(c, spec)
        else:
            problems = check_oracle(o, spec, c["certificate"]["certified_count"])
        if not problems:
            missed.append(name)
    return missed
