"""Brute-force eigenvalue counting on a periodic box.

The perturbed operator is assembled in a truncated plane-wave basis
e^{i<k,x>}/(2L) on [-L, L]^2 with modes k on the lattice (pi/L) Z^2,
|k| <= K.  The measure enters only through its Fourier transform at mode
differences, so curve measures need no spatial grid.  A dense Hermitian
eigensolve then counts eigenvalues below the band minimum kappa, which is
the independent check against the variational certificate.

When the coupling is odd, A(-k) = -A(k), and nuhat is even (a centrally
symmetric measure), U = P (x) sigma_z commutes with the assembled matrix,
where P maps mode k to mode -k.  The eigensolve then runs on U's two
M x M eigenspace blocks instead of the whole 2M x 2M matrix; any other
matrix takes the full eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, ConfigError, NumericalInputError, SupportError
from .measure import Density, RadonMeasureSpec, Sum, fourier_grid
from .model import CouplingSpec, ThresholdData

_MODE_CAP = 4000
_PAIR_REL_GAP = 1e-6
_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box half-side, momentum cutoff, and continuum-edge margin.

    ``edge_tol`` is the energy margin below kappa used when counting; the
    default (None) resolves to 1e-4 * |kappa| at count time.  Eigenvalues
    inside the margin band are reported as marginal, not counted -- box
    truncation blurs the continuum edge.
    """

    L: float
    K: float
    edge_tol: float | None = None

    def __post_init__(self):
        problems = []
        if not (np.isfinite(self.L) and self.L > 0.0):
            problems.append("box half-side L must be positive")
        if not (np.isfinite(self.K) and self.K > 0.0):
            problems.append("momentum cutoff K must be positive")
        if self.edge_tol is not None and not (np.isfinite(self.edge_tol)
                                              and self.edge_tol >= 0.0):
            problems.append("edge_tol must be nonnegative")
        if problems:
            raise ConfigError(problems)

    def modes(self):
        """Lattice momenta (pi/L) * n with |k| <= K, shape (M, 2).

        The integer grid is scanned over the symmetric range |n_i| <= n_max,
        so the returned set is invariant under k -> -k.
        """
        step = np.pi / self.L
        n_max = int(np.floor(self.K / step))
        axis = np.arange(-n_max, n_max + 1)
        nx, ny = np.meshgrid(axis, axis, indexing="ij")
        keep = (nx * nx + ny * ny) * step * step <= self.K * self.K * (1 + 1e-12)
        n_pairs = np.column_stack([nx[keep], ny[keep]])
        if len(n_pairs) > _MODE_CAP:
            raise CapacityError(
                "mode lattice has %d points, cap is %d (shrink L or K)"
                % (len(n_pairs), _MODE_CAP))
        return step * n_pairs, n_pairs

    def resolved_edge_tol(self, kappa):
        if self.edge_tol is not None:
            return self.edge_tol
        return 1e-4 * abs(kappa)


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum of one truncated assembly, sorted ascending."""

    eigenvalues: np.ndarray
    count_below: int
    mode_count: int
    pairing: list          # (index, partner_index, relative_gap) below kappa
    marginal_count: int    # inside the edge band around kappa, not counted
    kappa: float
    edge_tol: float


@dataclass(frozen=True)
class SweepResult:
    results: list
    cutoffs: list
    count_diffs: list      # consecutive count_below differences
    stable: bool           # top two cutoffs agree on count_below


def _check_support(nu: RadonMeasureSpec, L):
    if isinstance(nu, Sum):
        for part in nu.parts:
            _check_support(part, L)
        return
    if isinstance(nu, Density):
        x0, x1, y0, y1 = nu.support_box
        reach = max(abs(x0), abs(x1), abs(y0), abs(y1))
    else:
        x, y = nu.curve.point(np.linspace(0.0, 1.0, 4096))
        reach = max(np.max(np.abs(x)), np.max(np.abs(y)))
    if reach >= L:
        raise SupportError(
            "measure support reaches |coordinate| = %.6g, box requires < L = %.6g"
            % (reach, L))


def assemble(model: CouplingSpec, nu: RadonMeasureSpec | None, box: BoxSpec):
    """Truncated operator as a dense Hermitian 2M x 2M array.

    Spin components are interleaved: row 2j is (mode k_j, spin up), row
    2j+1 is (mode k_j, spin down).  The diagonal 2x2 blocks are the free
    symbol at k_j; the potential couples equal spins with the constant
    (2*pi/(4 L^2)) * nuhat(k_j - k_l).
    """
    k, n_pairs = box.modes()
    m = len(k)
    kx, ky = k[:, 0], k[:, 1]
    a = np.asarray(model.coupling(kx, ky), dtype=complex)
    if not np.all(np.isfinite(a)):
        raise NumericalInputError("coupling is non-finite on the mode lattice")
    p2 = kx * kx + ky * ky

    out = np.zeros((2 * m, 2 * m), dtype=complex)
    if nu is not None:
        _check_support(nu, box.L)
        step = np.pi / box.L
        n_max = int(np.max(np.abs(n_pairs)))
        diff_axis = step * np.arange(-2 * n_max, 2 * n_max + 1)
        table = fourier_grid(nu, diff_axis, diff_axis)
        ix = n_pairs[:, 0:1] - n_pairs[None, :, 0] + 2 * n_max
        iy = n_pairs[:, 1:2] - n_pairs[None, :, 1] + 2 * n_max
        coupling = (2.0 * np.pi / (4.0 * box.L * box.L)) * table[ix, iy]
        out[0::2, 0::2] = coupling
        out[1::2, 1::2] = coupling
    out[0::2, 0::2] += np.diag(p2)
    out[1::2, 1::2] += np.diag(p2)
    out[0::2, 1::2] += np.diag(a)
    out[1::2, 0::2] += np.diag(np.conj(a))
    return out


def _greedy_pairs(eigs):
    """Greedily match consecutive eigenvalues with small relative gap."""
    pairs = []
    i = 0
    while i + 1 < len(eigs):
        scale = max(abs(eigs[i]), abs(eigs[i + 1]), 1e-300)
        gap = abs(eigs[i + 1] - eigs[i]) / scale
        if gap < _PAIR_REL_GAP:
            pairs.append((i, i + 1, float(gap)))
            i += 2
        else:
            i += 1
    return pairs


def _partners(n_pairs):
    """Index of the mode -k for each mode k of an inversion-symmetric lattice."""
    width = 2 * int(np.max(np.abs(n_pairs))) + 1
    key = n_pairs[:, 0] * width + n_pairs[:, 1]
    sorter = np.argsort(key)
    return sorter[np.searchsorted(key, -key, sorter=sorter)]


def _sector(pairs, mirror, zero, sign):
    """Orthonormal basis of U's eigenspace for eigenvalue ``sign``.

    Basis vector r is c1[r] e_{i1[r]} + c2[r] e_{i2[r]} in the interleaved
    row numbering of ``assemble``: (|k up> + sign |-k up>)/sqrt2 and
    (|k down> - sign |-k down>)/sqrt2 for each mode k in ``pairs`` (one of
    each pair {k, -k}, with -k at ``mirror``), then the zero mode's spin up
    (sign +1) or spin down (sign -1), written as two halves of itself.
    """
    i0 = 2 * zero + (sign < 0)
    i1 = np.append(np.column_stack([2 * pairs, 2 * pairs + 1]).ravel(), i0)
    i2 = np.append(np.column_stack([2 * mirror, 2 * mirror + 1]).ravel(), i0)
    c1 = np.append(np.full(2 * len(pairs), _SQRT_HALF), 0.5)
    c2 = np.append(np.tile([sign * _SQRT_HALF, -sign * _SQRT_HALF], len(pairs)), 0.5)
    return i1, i2, c1, c2


def _block(h, rows, cols):
    """rows^T h cols for two sector bases, by four index gathers of h."""
    i1, i2, c1, c2 = rows
    j1, j2, d1, d2 = cols
    out = np.zeros((len(i1), len(j1)), dtype=h.dtype)
    for i, c in ((i1, c1), (i2, c2)):
        for j, d in ((j1, d1), (j2, d2)):
            term = h[np.ix_(i, j)]
            term *= c[:, None]
            term *= d
            out += term
    return out


def _parity_blocks(matrix, box):
    """The two diagonal blocks of ``matrix`` in U's eigenspaces, or None.

    U = P (x) sigma_z with P: k -> -k on the box's mode lattice.  The split
    is taken only when the block coupling the two eigenspaces has Frobenius
    norm at most one rounding unit of ``matrix``'s: by Weyl's inequality,
    dropping it then moves no eigenvalue by more than that.  None when the
    matrix is not of the lattice's size or U is not a symmetry of it.
    """
    try:
        _, n_pairs = box.modes()
    except CapacityError:
        return None
    if matrix.shape != (2 * len(n_pairs), 2 * len(n_pairs)):
        return None
    partner = _partners(n_pairs)
    index = np.arange(len(n_pairs))
    pairs = index[index < partner]
    zero = index[index == partner][0]
    plus, minus = (_sector(pairs, partner[pairs], zero, sign) for sign in (1, -1))
    coupling = np.linalg.norm(_block(matrix, plus, minus))
    if not coupling <= np.finfo(float).eps * np.linalg.norm(matrix):
        return None
    return _block(matrix, plus, plus), _block(matrix, minus, minus)


def _eigvalsh(matrix, overwrite_a=False):
    try:
        return scipy.linalg.eigvalsh(matrix, overwrite_a=overwrite_a)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalInputError("dense eigensolver failed: %s" % exc) from exc


def eigen_count_below(model: CouplingSpec, thr: ThresholdData, matrix,
                      box: BoxSpec) -> SpectrumResult:
    """Sorted spectrum of an assembled matrix and the count below the edge band.

    A matrix that the parity U commutes with is solved as its two M x M
    blocks, each bound state appearing once in each (time reversal maps one
    block onto the other); any other matrix takes one full eigensolve.
    """
    matrix = np.asarray(matrix)
    blocks = _parity_blocks(matrix, box)
    if blocks is None:
        eigs = _eigvalsh(matrix)
    else:
        # block.T is Fortran-ordered, so LAPACK works on it in place; it is
        # conj(block), which has the same real eigenvalues
        eigs = np.sort(np.concatenate([_eigvalsh(b.T, overwrite_a=True)
                                      for b in blocks]))
    edge = box.resolved_edge_tol(thr.kappa)
    below = eigs < thr.kappa - edge
    marginal = int(np.sum((eigs >= thr.kappa - edge) & (eigs < thr.kappa + edge)))
    return SpectrumResult(
        eigenvalues=eigs,
        count_below=int(np.sum(below)),
        mode_count=matrix.shape[0] // 2,
        pairing=_greedy_pairs(eigs[below]),
        marginal_count=marginal,
        kappa=thr.kappa,
        edge_tol=edge,
    )


def spectrum(model: CouplingSpec, thr: ThresholdData, nu, box: BoxSpec):
    """assemble + eigen_count_below in one call."""
    return eigen_count_below(model, thr, assemble(model, nu, box), box)


def convergence_sweep(model: CouplingSpec, thr: ThresholdData, nu,
                      L, cutoffs, edge_tol=None) -> SweepResult:
    """Counts across increasing cutoffs; stable means the top two agree.

    ``edge_tol`` is passed to every cutoff's BoxSpec (None: its default).

    Only a stable sweep should be treated as ground truth for the
    certificate cross-check -- an unstable count is a discretization
    artifact, not a spectral statement.
    """
    cutoffs = [float(c) for c in cutoffs]
    if len(cutoffs) < 1:
        raise ConfigError(["cutoff list is empty"])
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError(["cutoffs must be strictly increasing: %r" % (cutoffs,)])
    results = [spectrum(model, thr, nu, BoxSpec(L=L, K=c, edge_tol=edge_tol))
               for c in cutoffs]
    counts = [r.count_below for r in results]
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    stable = len(counts) >= 2 and counts[-1] == counts[-2]
    return SweepResult(results=results, cutoffs=cutoffs,
                       count_diffs=diffs, stable=stable)
