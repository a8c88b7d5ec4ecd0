"""Brute-force eigenvalue counting on a periodic box.

The perturbed operator is assembled in a truncated plane-wave basis
e^{i<k,x>}/(2L) on [-L, L]^2 with modes k on the lattice (pi/L) Z^2,
|k| <= K.  The measure enters only through its Fourier transform at mode
differences, so curve measures need no spatial grid.  A dense Hermitian
eigensolve then counts eigenvalues below the band minimum kappa, which is
the independent check against the variational certificate.

The lattice and the cutoff are invariant under the turn R by 2 pi / n for
n = 4, 2 and 1.  When nuhat is too and A(R k) = phi A(k) for an n-th root
of unity phi, U = P_R (x) diag(1, phi) commutes with the operator, where
(P_R psi)(k) = psi(R k).  ``spectrum`` then solves U's n eigenspace blocks
of about 2M/n each, built straight from the table of nuhat at mode
differences and from the coupling on one representative mode per rotation
orbit; the 2M x 2M matrix is never formed.  It takes the largest n whose
gate passes.  The gate averages the table and the coupling over the group,
which defines an operator H_s that U commutes with exactly, and splits only
when ||H - H_s||_F, summed from the table's asymmetry weighted by how often
each mode difference occurs, is at most one rounding unit of ||H||_F: by
Weyl's inequality no eigenvalue then moves by more than that.  n = 1 is
the whole operator as one block, which is what ``assemble`` returns.
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
_QUARTER = np.array([1.0, 1.0j, -1.0, -1.0j])    # i^q, exactly


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
        so the returned set is invariant under quarter turns.
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


def _turn(n_pairs, quarters):
    """Integer lattice points turned counterclockwise by quarters * 90 degrees."""
    x, y = n_pairs[..., 0], n_pairs[..., 1]
    for _ in range(quarters % 4):
        x, y = -y, x
    return np.stack([x, y], axis=-1)


def _operator_data(model: CouplingSpec, nu, box: BoxSpec):
    """Integer mode indices, A on the modes, and the potential table.

    ``table[q + 2 n_max]`` is (2 pi / (4 L^2)) nuhat((pi/L) q) for every
    difference q of two modes' integer indices, and zero without a measure.
    """
    k, n_pairs = box.modes()
    a = np.asarray(model.coupling(k[:, 0], k[:, 1]), dtype=complex)
    if not np.all(np.isfinite(a)):
        raise NumericalInputError("coupling is non-finite on the mode lattice")
    n_max = int(np.max(np.abs(n_pairs)))
    if nu is None:
        return n_pairs, a, np.zeros((4 * n_max + 1,) * 2, dtype=complex)
    _check_support(nu, box.L)
    diff_axis = (np.pi / box.L) * np.arange(-2 * n_max, 2 * n_max + 1)
    table = (2.0 * np.pi / (4.0 * box.L * box.L)) * fourier_grid(nu, diff_axis, diff_axis)
    return n_pairs, a, table


def _symmetry(model: CouplingSpec, n_pairs, a, table, step):
    """(n, p, table, a) for the largest group Z_n the operator keeps.

    For n = 4 and 2, phi = i^(4p/n) is the n-th root of unity that best
    fits A(R k) = phi A(k), and the table and the coupling are averaged over
    the group: table_s(q) = mean_d table(R^d q) and a_s(k) = mean_d
    phi^-d A(R^d k).  They define an operator H_s that U commutes with
    exactly.  The averages are returned when ||H - H_s||_F <= eps ||H||_F;
    both norms are summed over mode differences q, each weighted by the
    number of mode pairs at that difference.  Otherwise n = 1 and the
    plain data.
    """
    n_max = (len(table) - 1) // 4
    mask = np.zeros((2 * n_max + 1,) * 2)
    mask[n_pairs[:, 0] + n_max, n_pairs[:, 1] + n_max] = 1.0
    # the mode set is invariant under k -> -k, so counting pairs with
    # k + l = q counts the pairs with k - l = q: mask convolved with itself,
    # whose integer values the FFT returns to well within rounding
    freq = np.fft.rfft2(mask, s=table.shape)
    pairs = np.rint(np.fft.irfft2(freq * freq, s=table.shape))
    p2 = step * step * np.sum(n_pairs * n_pairs, axis=1)
    t0 = table[2 * n_max, 2 * n_max]
    # ||H||_F^2: two spin copies of P + V (its diagonal is p^2 + t(0)), plus A
    norm2 = 2.0 * (np.sum(pairs * np.abs(table) ** 2) - len(a) * abs(t0) ** 2
                   + np.sum(np.abs(p2 + t0) ** 2) + np.sum(np.abs(a) ** 2))
    for n in (4, 2):
        quarters = 4 // n
        roots = _QUARTER[::quarters]
        # the turned lattice is the lattice, so these values are finite too
        turned = [model.coupling(*(step * _turn(n_pairs, d * quarters)).T)
                  for d in range(n)]
        p = int(np.argmin([np.linalg.norm(turned[1] - w * a) for w in roots]))
        a_s = np.mean([roots[-p * d % n] * t for d, t in enumerate(turned)], axis=0)
        table_s = np.mean([np.rot90(table, -d * quarters) for d in range(n)], axis=0)
        defect2 = 2.0 * (np.sum(pairs * np.abs(table - table_s) ** 2)
                         + np.sum(np.abs(a - a_s) ** 2))
        if defect2 <= np.finfo(float).eps ** 2 * norm2:
            return n, p, table_s, a_s
    return 1, 0, table, a


def _blocks(n_pairs, step, n, p, table, a):
    """U's n eigenspace blocks of the operator, sector j having U = i^(4j/n).

    With omega = i^(4j/n), sector j's basis is sum_d omega^d |R^d r, up>
    and sum_d (omega/phi)^d |R^d r, down>, over d < n and divided by
    sqrt(n), for the orbit representatives r, spin up first.  Its potential
    block is V_omega = sum_f omega^f G_f with G_f[r, s] = table(r - R^f s).
    The origin is its own orbit: its row and column carry 1/sqrt(n), its
    spin-up state lives in sector 0 and its spin-down state in the sector
    with omega = phi.  For n = 1 this is the whole operator.
    """
    quarters = 4 // n
    orbit = np.stack([_turn(n_pairs, d * quarters) for d in range(n)])
    width = 2 * int(np.max(np.abs(n_pairs))) + 1
    keys = orbit[..., 0] * width + orbit[..., 1]
    rep = keys[0] == np.min(keys, axis=0)
    r = n_pairs[rep]
    m = len(r)
    zero = int(np.flatnonzero(~np.any(r, axis=1))[0])
    off = (len(table) - 1) // 2
    pots = np.zeros((n, m, m), dtype=complex)
    for f in range(n):
        s = _turn(r, f * quarters)
        g = table[r[:, None, 0] - s[None, :, 0] + off, r[:, None, 1] - s[None, :, 1] + off]
        for j in range(n):
            pots[j] += _QUARTER[j * f * quarters % 4] * g
    pots[:, zero, :] /= np.sqrt(n)
    pots[:, :, zero] /= np.sqrt(n)
    k = step * r
    p2 = k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1]
    ar = a[rep]
    diag = np.arange(m)
    blocks = []
    for j in range(n):
        h = np.zeros((2 * m, 2 * m), dtype=complex)
        h[:m, :m] = pots[j]
        h[m:, m:] = pots[(j - p) % n]
        h[diag, diag] += p2
        h[m + diag, m + diag] += p2
        h[diag, m + diag] = ar
        h[m + diag, diag] = np.conj(ar)
        drop = [zero] * (j != 0) + [m + zero] * ((j - p) % n != 0)
        if drop:
            h = np.delete(np.delete(h, drop, axis=0), drop, axis=1)
        blocks.append(h)
    return blocks


def _sector_blocks(model: CouplingSpec, nu, box: BoxSpec):
    """(p, blocks): phi = i^(4p/n) and the n sector blocks, n = len(blocks)."""
    n_pairs, a, table = _operator_data(model, nu, box)
    step = np.pi / box.L
    n, p, table, a = _symmetry(model, n_pairs, a, table, step)
    return p, _blocks(n_pairs, step, n, p, table, a)


def assemble(model: CouplingSpec, nu: RadonMeasureSpec | None, box: BoxSpec):
    """Truncated operator as a dense Hermitian 2M x 2M array.

    Rows 0..M-1 are the modes k_j with spin up, rows M..2M-1 the same modes
    with spin down, in the order of ``box.modes()``.  The diagonal of each
    spin block is the kinetic term |k_j|^2, the spin blocks are coupled by
    A(k_j), and the potential couples equal spins with the constant
    (2*pi/(4 L^2)) * nuhat(k_j - k_l).
    """
    n_pairs, a, table = _operator_data(model, nu, box)
    return _blocks(n_pairs, np.pi / box.L, 1, 0, table, a)[0]


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


def _eigvalsh(matrix, overwrite_a=False):
    try:
        return scipy.linalg.eigvalsh(matrix, overwrite_a=overwrite_a)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalInputError("dense eigensolver failed: %s" % exc) from exc


def _counted(eigs, thr: ThresholdData, box: BoxSpec) -> SpectrumResult:
    """Count and pair a sorted spectrum below the edge band."""
    edge = box.resolved_edge_tol(thr.kappa)
    below = eigs < thr.kappa - edge
    marginal = int(np.sum((eigs >= thr.kappa - edge) & (eigs < thr.kappa + edge)))
    return SpectrumResult(
        eigenvalues=eigs,
        count_below=int(np.sum(below)),
        mode_count=len(eigs) // 2,
        pairing=_greedy_pairs(eigs[below]),
        marginal_count=marginal,
        kappa=thr.kappa,
        edge_tol=edge,
    )


def eigen_count_below(model: CouplingSpec, thr: ThresholdData, matrix,
                      box: BoxSpec) -> SpectrumResult:
    """Sorted spectrum of an assembled matrix and the count below the edge band.

    The matrix is solved as given, in one eigensolve.
    """
    return _counted(_eigvalsh(np.asarray(matrix)), thr, box)


def spectrum(model: CouplingSpec, thr: ThresholdData, nu, box: BoxSpec):
    """The operator's spectrum and count, solved sector by sector.

    Time reversal maps each sector onto a sector of its own Kramers
    partners, so every bound state comes with its partner in the merged
    spectrum, whether the two share a block or not.
    """
    _, blocks = _sector_blocks(model, nu, box)
    # block.T is Fortran-ordered, so LAPACK works on it in place; it is
    # conj(block), which has the same real eigenvalues
    eigs = np.sort(np.concatenate([_eigvalsh(b.T, overwrite_a=True) for b in blocks]))
    return _counted(eigs, thr, box)


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
