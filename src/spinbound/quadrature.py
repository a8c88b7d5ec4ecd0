"""Composite Gauss-Legendre rules on arbitrary panel decompositions."""

import numpy as np

# the one rule every panel takes: 8 Gauss-Legendre nodes and weights on [-1, 1]
_GL8 = np.polynomial.legendre.leggauss(8)


def panel_rule(edges):
    """Nodes/weights of composite 8-point Gauss-Legendre over consecutive intervals.

    ``edges`` is an increasing 1D array; each [edges[i], edges[i+1]] gets
    the 8-point rule.
    """
    x, w = _GL8
    e = np.asarray(edges, dtype=float)
    lo, hi = e[:-1], e[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def uniform_rule(a, b, n_panels):
    """Composite rule on [a, b] with equal-width panels."""
    return panel_rule(np.linspace(a, b, n_panels + 1))


def merge_edges(*edge_sets):
    """Sorted union of several edge arrays, duplicates (1e-14 relative) removed."""
    e = np.sort(np.concatenate([np.asarray(s, dtype=float) for s in edge_sets]))
    if len(e) < 2:
        return e
    keep = np.concatenate([[True], np.diff(e) > 1e-14 * np.maximum(np.abs(e[1:]), 1e-300)])
    return e[keep]
