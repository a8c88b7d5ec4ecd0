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

Time reversal T = i sigma_y K takes psi(k) to i sigma_y conj psi(-k).  It
commutes with the operator when table(-q) = conj table(q), as for every
real measure, and A is odd.  T U T^-1 = conj(phi) U, so T carries sector j
(U = omega) onto sector (p - j) mod n (U = phi / omega), where
phi = i^(4p/n).  For n > 1 a nonzero odd A forces p odd, so no sector is
its own partner and the n sectors form n/2 Kramers pairs with equal
spectra (a vanishing A fits phi = 1 and is not paired).  For odd p the
gate then averages over T as well, which makes the averaged table real (it
is already even under the half turn) and the coupling exactly odd, and
counts both defects in the same one-rounding-unit budget.  When that
passes, ``spectrum`` builds and solves one block per pair and counts its
eigenvalues twice; otherwise, and for n = 1, it solves every block.
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
    """(n, p, paired, table, a) for the largest group Z_n the operator keeps.

    For n = 4 and 2, phi = i^(4p/n) is the n-th root of unity that best
    fits A(R k) = phi A(k), and the table and the coupling are averaged over
    the group: table_s(q) = mean_d table(R^d q) and a_s(k) = mean_d
    phi^-d A(R^d k).  They define an operator H_s that U commutes with
    exactly.  The averages are returned when ||H - H_s||_F <= eps ||H||_F;
    both norms are summed over mode differences q, each weighted by the
    number of mode pairs at that difference.  Otherwise n = 1 and the
    plain data.

    ``paired`` is True when the average over time reversal as well, a real
    table and an odd coupling, fits the same budget; the table and the
    coupling returned are then those.
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
    budget2 = np.finfo(float).eps ** 2 * norm2
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
        if defect2 > budget2:
            continue
        # T takes table(q) to conj table(-q) and A(k) to -A(-k); table_s is
        # even under the half turn, so its T average is its real part, and
        # the modes are listed so that -k is the reversed order.  The two
        # averages commute, so their defects add in squares.  A coupling
        # that vanishes fits every phi, and an even p leaves sectors that
        # are their own partners, so only an odd p pairs
        a_t = 0.5 * (a_s - a_s[::-1])
        defect2 += 2.0 * (np.sum(pairs * table_s.imag ** 2)
                          + np.sum(np.abs(a_s - a_t) ** 2))
        if defect2 <= budget2 and p % 2:
            return n, p, True, table_s.real, a_t
        return n, p, False, table_s, a_s
    return 1, 0, False, table, a


def _blocks(n_pairs, step, n, p, table, a, sectors):
    """U's eigenspace blocks of the operator for the listed sectors j.

    With omega = i^(4j/n), the eigenvalue of U, sector j's basis is
    sum_d omega^d |R^d r, up> and sum_d (omega/phi)^d |R^d r, down>, over
    d < n and divided by sqrt(n), for the orbit representatives r, spin up
    first.  Its potential block is V_omega = sum_f omega^f G_f with
    G_f[r, s] = table(r - R^f s).  The origin is its own orbit: its row and
    column carry 1/sqrt(n), its spin-up state lives in sector 0 and its
    spin-down state in the sector with omega = phi.  For n = 1 this is the
    whole operator, in the order of the modes.
    """
    quarters = 4 // n
    orbit = np.stack([_turn(n_pairs, d * quarters) for d in range(n)])
    width = 2 * int(np.max(np.abs(n_pairs))) + 1
    keys = orbit[..., 0] * width + orbit[..., 1]
    rep = keys[0] == np.min(keys, axis=0)
    # the modes ascend in key; for n > 1 every other orbit holds a mode of
    # negative key, so the origin (key 0) is the last representative, and
    # a sector without one of its spin states keeps the leading rows
    r = n_pairs[rep]
    m = len(r)
    off = (len(table) - 1) // 2
    pots = np.zeros((n, m, m), dtype=complex)
    for f in range(n):
        s = _turn(r, f * quarters)
        g = table[r[:, None, 0] - s[None, :, 0] + off, r[:, None, 1] - s[None, :, 1] + off]
        for j in range(n):
            pots[j] += _QUARTER[j * f * quarters % 4] * g
    pots[:, -1, :] /= np.sqrt(n)
    pots[:, :, -1] /= np.sqrt(n)
    k = step * r
    p2 = k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1]
    ar = a[rep]
    blocks = []
    for j in sectors:
        down = (j - p) % n
        mu, md = m - (j != 0), m - (down != 0)
        up_diag, down_diag = np.arange(mu), mu + np.arange(md)
        h = np.zeros((mu + md, mu + md), dtype=complex)
        h[:mu, :mu] = pots[j][:mu, :mu]
        h[mu:, mu:] = pots[down][:md, :md]
        h[up_diag, up_diag] += p2[:mu]
        h[down_diag, down_diag] += p2[:md]
        both = min(mu, md)
        h[up_diag[:both], down_diag[:both]] = ar[:both]
        h[down_diag[:both], up_diag[:both]] = np.conj(ar[:both])
        blocks.append(h)
    return blocks


def _sector_blocks(model: CouplingSpec, nu, box: BoxSpec):
    """(copies, blocks): the sector blocks to solve, each solved spectrum
    standing for ``copies`` sectors.

    Time reversal carries sector j onto sector (p - j) mod n, whose block
    has the same spectrum; when the gate pairs them, only the lower sector
    of each pair is built.
    """
    n_pairs, a, table = _operator_data(model, nu, box)
    step = np.pi / box.L
    n, p, paired, table, a = _symmetry(model, n_pairs, a, table, step)
    sectors = [j for j in range(n) if not paired or j < (p - j) % n]
    return 1 + paired, _blocks(n_pairs, step, n, p, table, a, sectors)


def assemble(model: CouplingSpec, nu: RadonMeasureSpec | None, box: BoxSpec):
    """Truncated operator as a dense Hermitian 2M x 2M array.

    Rows 0..M-1 are the modes k_j with spin up, rows M..2M-1 the same modes
    with spin down, in the order of ``box.modes()``.  The diagonal of each
    spin block is the kinetic term |k_j|^2, the spin blocks are coupled by
    A(k_j), and the potential couples equal spins with the constant
    (2*pi/(4 L^2)) * nuhat(k_j - k_l).
    """
    n_pairs, a, table = _operator_data(model, nu, box)
    return _blocks(n_pairs, np.pi / box.L, 1, 0, table, a, [0])[0]


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

    Time reversal T maps each sector onto a sector of its own Kramers
    partners.  When the gate pairs the sectors, each block solved stands
    for itself and its partner, so every eigenvalue it has is counted
    twice and the two halves of a Kramers pair are equal; otherwise every
    sector is solved and the halves come from different blocks.
    """
    copies, blocks = _sector_blocks(model, nu, box)
    # block.T is Fortran-ordered, so LAPACK works on it in place; it is
    # conj(block), which has the same real eigenvalues
    eigs = np.sort(np.concatenate([np.repeat(_eigvalsh(b.T, overwrite_a=True), copies)
                                   for b in blocks]))
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
