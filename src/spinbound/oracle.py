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

The mirror m (k_x, k_y) = (k_x, -k_y) keeps the lattice too, and
m R = R^-1 m.  The antiunitary Theta = K P_m diag(1, chi), with K entrywise
complex conjugation and chi the unit phase of conj A(k) = chi A(m k),
commutes with the operator when table(m q) = conj table(q) and the
coupling fits (chi = -1 for Rashba, +1 for Dresselhaus).  In position space
K P_m is the mirror x -> -x; R^s m for s = 1, 2, 3 are the lattice's other
mirrors (a diagonal, y -> -y, the other diagonal).  Theta maps every
sector onto itself, so conj(h) = P h P^H on each block h for a phased
permutation P of its rows, and h is unitarily equivalent to a real
symmetric matrix of the same size, which LAPACK solves three to four
times faster than a complex Hermitian one.  The gate averages over Theta
as well, for the first mirror R^s m, s < 4/n, that fits the same budget;
when one does, every block is solved real, whatever n, and otherwise
complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _mirror(n_pairs, quarters):
    """Integer lattice points mirrored, (x, y) -> (x, -y), then turned."""
    return _turn(n_pairs * np.array([1, -1]), quarters)


def _position(n_pairs, points):
    """Indices of integer lattice points in ``n_pairs``, which ascend in key."""
    width = 2 * int(np.max(np.abs(n_pairs))) + 1
    return np.searchsorted(n_pairs[:, 0] * width + n_pairs[:, 1],
                           points[..., 0] * width + points[..., 1])


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
    """(n, p, paired, mirror, table, a): the group the operator keeps.

    For n = 4 and 2, phi = i^(4p/n) is the n-th root of unity that best
    fits A(R k) = phi A(k), and the table and the coupling are averaged over
    the group: table_s(q) = mean_d table(R^d q) and a_s(k) = mean_d
    phi^-d A(R^d k).  They define an operator H_s that U commutes with
    exactly.  The largest n is taken whose average moves H by
    ||H - H_s||_F <= eps ||H||_F; both norms are summed over mode
    differences q, each weighted by the number of mode pairs at that
    difference.  Otherwise n = 1 and the plain data.

    ``paired`` is True when the average over time reversal as well, a real
    table and an odd coupling, fits the same budget.  ``mirror`` is
    (s, chi) when, in addition, the average over Theta = K P_m diag(1, chi)
    does, for the lattice mirror m = R^s m_0 with m_0 (k_x, k_y) =
    (k_x, -k_y) and chi the unit phase that best fits conj A(k) = chi A(m k):
    table(q) <-> conj table(m q) and a(k) <-> conj(chi) conj a(m k).  The
    mirrors R^s m_0 for s < 4/n are tried in turn, as the others are the
    same up to a turn in Z_n; None when none fits.  Each average is
    returned only when it is taken, and the returned table and coupling
    are the last ones taken.
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

    def defect2(table, a, table_s, a_s):
        return 2.0 * (np.sum(pairs * np.abs(table - table_s) ** 2)
                      + np.sum(np.abs(a - a_s) ** 2))

    # the averages over Z_n, T and Theta commute, and each is an orthogonal
    # projection in the Frobenius inner product, so their defects add in
    # squares
    n, p, used2 = 1, 0, 0.0
    for n_try in (4, 2):
        quarters = 4 // n_try
        roots = _QUARTER[::quarters]
        # the turned lattice is the lattice, so these values are finite too
        turned = [model.coupling(*(step * _turn(n_pairs, d * quarters)).T)
                  for d in range(n_try)]
        p_try = int(np.argmin([np.linalg.norm(turned[1] - w * a) for w in roots]))
        a_s = np.mean([roots[-p_try * d % n_try] * t for d, t in enumerate(turned)],
                      axis=0)
        table_s = np.mean([np.rot90(table, -d * quarters) for d in range(n_try)], axis=0)
        d2 = defect2(table, a, table_s, a_s)
        if d2 <= budget2:
            n, p, used2, table, a = n_try, p_try, d2, table_s, a_s
            break
    # T takes table(q) to conj table(-q) and A(k) to -A(-k); for n > 1 the
    # averaged table is even under the half turn, so its T average is its
    # real part, and the modes are listed so that -k is the reversed order.  A coupling that
    # vanishes fits every phi, and an even p leaves sectors that are their
    # own partners, so only an odd p pairs
    paired = False
    if p % 2:
        table_t, a_t = table.real, 0.5 * (a - a[::-1])
        d2 = defect2(table, a, table_t, a_t)
        if used2 + d2 <= budget2:
            paired, used2, table, a = True, used2 + d2, table_t, a_t
    diffs = np.arange(-2 * n_max, 2 * n_max + 1)
    grid = np.stack(np.meshgrid(diffs, diffs, indexing="ij"), axis=-1)
    for s in range(4 // n):
        image = a[_position(n_pairs, _mirror(n_pairs, s))]
        fit = np.vdot(image, np.conj(a))
        chi = fit / abs(fit) if fit else 1.0     # a vanishing coupling fits any chi
        q = _mirror(grid, s) + 2 * n_max
        table_m = 0.5 * (table + np.conj(table[q[..., 0], q[..., 1]]))
        a_m = 0.5 * (a + np.conj(chi * image))
        d2 = defect2(table, a, table_m, a_m)
        if used2 + d2 <= budget2:
            return n, p, paired, (s, chi), table_m, a_m
    return n, p, paired, None, table, a


class _RealBasis(NamedTuple):
    """A real basis of one spin's rows of a block that Theta maps to itself.

    P[r, partner[r]] = c_r is the phased permutation of conj(h) = P h P^H,
    with partner an involution and c constant on its pairs.  Rephasing row
    r by d_r, with d = 1 on the lower index i of a pair, conj(c_i) on its
    partner and sqrt(conj c) at a fixed point, makes P a plain permutation.
    Then the basis is u = (e_i + e_j)/sqrt(2) over the pairs' lower indices
    and e_i over the fixed points, followed by w = i (e_i - e_j)/sqrt(2)
    over the lower indices.
    """

    first: np.ndarray      # the pairs' lower indices, then the fixed points
    partner: np.ndarray    # their partners
    lower: int             # the number of pairs
    phase: np.ndarray      # d on the first rows
    partner_phase: np.ndarray   # d on the partners' rows


def _real_basis(partner, phase):
    index = np.arange(len(partner))
    lower, fixed = index[partner > index], index[partner == index]
    root = np.sqrt(np.conj(phase[fixed]))
    first = np.concatenate([lower, fixed])
    return _RealBasis(first, partner[first], len(lower),
                      np.concatenate([np.ones(len(lower)), root]),
                      np.concatenate([np.conj(phase[lower]), root]))


def _real_form(h, rows: _RealBasis, cols: _RealBasis):
    """h in the real bases ``rows`` and ``cols``, a real matrix.

    Needs conj(h) = P_rows h P_cols^H.  With G and G' the rephased
    h[rows.first, cols.first] and h[rows.first, cols.partner], that gives
    the u rows against the u columns as Re(G + G'), w against u as
    Im(G + G'), u against w as Im(G' - G) and w against w as Re(G - G'),
    with 1/sqrt(2) on every fixed point's row and column.
    """
    g = h[np.ix_(rows.first, cols.first)] * np.outer(np.conj(rows.phase), cols.phase)
    g_partner = (h[np.ix_(rows.first, cols.partner)]
                 * np.outer(np.conj(rows.phase), cols.partner_phase))
    m_r, m_c, k_r, k_c = len(rows.first), len(cols.first), rows.lower, cols.lower
    out = np.empty((m_r + k_r, m_c + k_c))
    out[:m_r, :m_c] = g.real + g_partner.real
    out[m_r:, :m_c] = g.imag[:k_r] + g_partner.imag[:k_r]
    out[:m_r, m_c:] = g_partner.imag[:, :k_c] - g.imag[:, :k_c]
    out[m_r:, m_c:] = g.real[:k_r, :k_c] - g_partner.real[:k_r, :k_c]
    out[k_r:m_r] *= np.sqrt(0.5)
    out[:, k_c:m_c] *= np.sqrt(0.5)
    return out


def _sector_potentials(table, r, n, sectors):
    """V_omega = sum_f omega^f G_f over the representatives r, per listed sector.

    G_f[r, s] = table(r - R^f s) is gathered by flat index into the table,
    whose axes run over -2 n_max..2 n_max, and the sectors' sums are one
    product with the rows of the matrix of omega^f that the sectors pick;
    the origin's row and column carry 1/sqrt(n).  Returns {sector: V}.
    """
    quarters, m = 4 // n, len(r)
    off, side = (len(table) - 1) // 2, len(table)
    g = np.empty((n, m, m), dtype=table.dtype)
    for f in range(n):
        s = _turn(r, f * quarters)
        np.take(table, (r[:, None, 0] - s[None, :, 0] + off) * side
                + (r[:, None, 1] - s[None, :, 1] + off), out=g[f])
    omega = _QUARTER[np.outer(sectors, np.arange(n)) * quarters % 4]
    pots = (omega @ g.reshape(n, -1)).reshape(len(sectors), m, m)
    pots[:, -1, :] /= np.sqrt(n)
    pots[:, :, -1] /= np.sqrt(n)
    return dict(zip(sectors, pots))


def _blocks(n_pairs, step, n, p, table, a, sectors, mirror=None):
    """U's eigenspace blocks of the operator for the listed sectors j, one by one.

    With omega = i^(4j/n), the eigenvalue of U, sector j's basis is
    sum_d omega^d |R^d r, up> and sum_d (omega/phi)^d |R^d r, down>, over
    d < n and divided by sqrt(n), for the orbit representatives r, spin up
    first.  Its potential block is ``_sector_potentials``' V_omega.  The
    origin is its own orbit: its row and column carry 1/sqrt(n), its
    spin-up state lives in sector 0 and its spin-down state in the sector
    with omega = phi.  For n = 1 this is the whole operator, in the order
    of the modes.

    With ``mirror`` = (s, chi) from ``_symmetry``, Theta maps every sector
    onto itself: m R^f = R^-f m turns conj(h) into P h P^H, where P takes
    r to the representative r' of m r = R^e r', with phase omega^e on
    spin-up rows and conj(chi) (omega/phi)^e on spin-down rows.  Each block
    is then returned real, in the ``_RealBasis`` of each spin's rows, built
    quadrant by quadrant from the potential blocks and the coupling, so the
    complex block is never formed.  Without it the blocks are complex.
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
    if mirror is not None:
        # the representative of m r is the turn R^-e (m r) of least key;
        # m fixes the origin, so the leading rows map among themselves
        image = np.stack([_turn(_mirror(r, mirror[0]), -d * quarters) for d in range(n)])
        e = np.argmin(image[..., 0] * width + image[..., 1], axis=0)
        partner = _position(r, image[e, np.arange(m)])
    # sector j's block reads the potentials of j and of its spin-down
    # sector (j - p) mod n only
    pots = _sector_potentials(table, r, n, sorted({s for j in sectors
                                                   for s in (j, (j - p) % n)}))
    k = step * r
    p2 = k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1]
    ar = a[rep]
    for j in sectors:
        down = (j - p) % n
        mu, md = m - (j != 0), m - (down != 0)
        both = np.arange(min(mu, md))
        if mirror is None:
            h = np.zeros((mu + md, mu + md), dtype=complex)
            h[:mu, :mu] = pots[j][:mu, :mu]
            h[mu:, mu:] = pots[down][:md, :md]
            h[np.diag_indices(mu + md)] += np.concatenate([p2[:mu], p2[:md]])
            h[both, mu + both] = ar[both]
            h[mu + both, both] = np.conj(ar[both])
        else:
            # P keeps the spins apart, so each quadrant has its real form;
            # P fixes |k|, so the kinetic diagonal stays diagonal
            up = _real_basis(partner[:mu], _QUARTER[j * e[:mu] * quarters % 4])
            dn = _real_basis(partner[:md], np.conj(mirror[1])
                             * _QUARTER[down * e[:md] * quarters % 4])
            coupling = np.zeros((mu, md), dtype=complex)
            coupling[both, both] = ar[both]
            cross = _real_form(coupling, up, dn)
            h = np.block([[_real_form(pots[j], up, up), cross],
                          [cross.T, _real_form(pots[down], dn, dn)]])
            h[np.diag_indices(len(h))] += p2[np.concatenate(
                [up.first, up.first[:up.lower], dn.first, dn.first[:dn.lower]])]
        yield h
        # drop this block before the next is built
        del h


def _sector_blocks(model: CouplingSpec, nu, box: BoxSpec):
    """(copies, blocks): the sector blocks to solve, built one at a time as
    they are read, each solved spectrum standing for ``copies`` sectors.

    Time reversal carries sector j onto sector (p - j) mod n, whose block
    has the same spectrum; when the gate pairs them, only the lower sector
    of each pair is built.
    """
    n_pairs, a, table = _operator_data(model, nu, box)
    step = np.pi / box.L
    n, p, paired, mirror, table, a = _symmetry(model, n_pairs, a, table, step)
    sectors = [j for j in range(n) if not paired or j < (p - j) % n]
    return 1 + paired, _blocks(n_pairs, step, n, p, table, a, sectors, mirror)


def assemble(model: CouplingSpec, nu: RadonMeasureSpec | None, box: BoxSpec):
    """Truncated operator as a dense Hermitian 2M x 2M array.

    Rows 0..M-1 are the modes k_j with spin up, rows M..2M-1 the same modes
    with spin down, in the order of ``box.modes()``.  The diagonal of each
    spin block is the kinetic term |k_j|^2, the spin blocks are coupled by
    A(k_j), and the potential couples equal spins with the constant
    (2*pi/(4 L^2)) * nuhat(k_j - k_l).
    """
    n_pairs, a, table = _operator_data(model, nu, box)
    return next(_blocks(n_pairs, np.pi / box.L, 1, 0, table, a, [0]))


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
    sector is solved and the halves come from different blocks.  When the
    gate keeps Theta, every block is a real symmetric matrix with the
    sector's spectrum; otherwise it is the complex Hermitian block.
    """
    copies, blocks = _sector_blocks(model, nu, box)
    # each block is solved before the next is built.  block.T is
    # Fortran-ordered, so LAPACK works on it in place; it is conj(block),
    # or for a real block its transpose, with the same eigenvalues
    eigs = []
    for block in blocks:
        eigs.append(np.repeat(_eigvalsh(block.T, overwrite_a=True), copies))
        del block
    return _counted(np.sort(np.concatenate(eigs)), thr, box)


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
