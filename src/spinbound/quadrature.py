"""Composite Gauss-Legendre rules on arbitrary panel decompositions."""

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_nodes(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def panel_rule(edges, nodes_per_panel=8):
    """Nodes/weights of composite Gauss-Legendre over consecutive intervals.

    ``edges`` is an increasing 1D array; each [edges[i], edges[i+1]] gets an
    ``nodes_per_panel``-point rule.
    """
    x, w = gl_nodes(nodes_per_panel)
    e = np.asarray(edges, dtype=float)
    lo, hi = e[:-1], e[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def uniform_rule(a, b, n_panels, nodes_per_panel=8):
    """Composite rule on [a, b] with equal-width panels."""
    edges = np.linspace(a, b, n_panels + 1)
    return panel_rule(edges, nodes_per_panel)


def merge_edges(*edge_sets):
    """Sorted union of several edge arrays, duplicates (1e-14 relative) removed."""
    e = np.sort(np.concatenate([np.asarray(s, dtype=float) for s in edge_sets]))
    if len(e) < 2:
        return e
    keep = np.concatenate([[True], np.diff(e) > 1e-14 * np.maximum(np.abs(e[1:]), 1e-300)])
    return e[keep]
