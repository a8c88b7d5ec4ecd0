"""Brute-force eigenvalue counting on a periodic box.

The perturbed operator is assembled in a truncated plane-wave basis
e^{i<k,x>}/(2L) on [-L, L]^2 with modes k on the lattice (pi/L) Z^2,
|k| <= K.  The measure enters only through its Fourier transform at mode
differences, so curve measures need no spatial grid.  A dense Hermitian
eigensolve (numpy's LAPACK ``eigvalsh``) then counts eigenvalues below the
band minimum kappa, which is the independent check against the variational
certificate.  That solver returns NaN for a matrix with a non-finite entry
and raises nothing, so the coupling and the potential table are checked
finite first (NumericalInputError).

A sweep over cutoffs at one L builds one operator, at the largest cutoff:
one table, one symmetry gate, and each block once.  Every smaller cutoff's
operator is a compression of it, and its blocks are the leading corners of
the same blocks once their rows are ordered by |k|; ``spectrum`` is the
sweep of one cutoff.  A cutoff past the mode cap fails before anything is
transformed or solved.

The lattice and the cutoff are invariant under the turn R by 2 pi / n for
n = 4, 2 and 1.  When nuhat is too and A(R k) = phi A(k) for an n-th root
of unity phi, U = P_R (x) diag(1, phi) commutes with the operator, where
(P_R psi)(k) = psi(R k).  The sweep then solves U's n eigenspace blocks
of about 2M/n each, built straight from the table of nuhat at mode
differences and from the coupling on one representative mode per rotation
orbit; the 2M x 2M matrix is never formed.  It takes the largest n whose
gate passes.  The gate averages the table and the coupling over the group,
which defines an operator H_s that U commutes with exactly, and splits only
when ||H - H_s||_F, summed from the table's asymmetry weighted by how often
each mode difference occurs, is at most one rounding unit of ||H||_F: by
Weyl's inequality no eigenvalue then moves by more than that.  The gate
reads the largest cutoff's H; a smaller cutoff's compression moves by no
more, so its bound is that same eps ||H||_F.  n = 1 is the whole operator
as one block, which is what ``assemble`` returns.

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
passes, the sweep builds and solves one block per pair and counts its
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

A sweep gathers the table once, at r - R^f s for the representatives r, s
and each turn f, in the table's dtype, which is real whenever the gate
pairs the sectors.  A sector's potential sum_f omega^f G_f then takes adds
and subtracts only, as each omega^f is 1, i, -1 or -i.  With Theta the
gather's rows and columns are ordered so that each spin's real form reads
slices of those sums, in real arithmetic but for the few fixed points, and
the coupling's real form is its O(M) nonzeros.  Each block is gathered
from these parts straight into ascending |k|, a slab of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, NumericalInputError, SupportError
from .measure import Density, RadonMeasureSpec, fourier_grid, parts
from .model import CouplingSpec, ThresholdData

_MODE_CAP = 4000
_PAIR_REL_GAP = 1e-6
_QUARTER = np.array([1.0, 1.0j, -1.0, -1.0j])    # i^q, exactly
# rows of a block gathered at once: a slab of the largest blocks (M = 4000
# modes, n = 1, complex) takes 8 MB
_SLAB_ROWS = 128


def sweep_problems(L, cutoffs, edge_tol):
    """Every problem with a box half-side, its cutoffs and edge margin; [] when none."""
    problems = []
    if not (np.isfinite(L) and L > 0.0):
        problems.append("box half-side L must be positive")
    if len(cutoffs) < 1:
        problems.append("cutoffs must not be empty")
    elif not all(np.isfinite(c) and c > 0.0 for c in cutoffs):
        problems.append("every cutoff K must be positive")
    elif any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        problems.append("cutoffs must be strictly increasing")
    if edge_tol is not None and not (np.isfinite(edge_tol) and edge_tol >= 0.0):
        problems.append("edge_tol must be nonnegative")
    return problems


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
        problems = sweep_problems(self.L, [self.K], self.edge_tol)
        if problems:
            raise ConfigError(problems)

    def modes(self):
        """Lattice momenta (pi/L) * n with |k| <= K, shape (M, 2).

        The integer grid is scanned over the symmetric range |n_i| <= n_max,
        one past K / step, so the returned set is invariant under quarter
        turns and is every n that ``inside`` accepts, in ascending key.
        """
        step = np.pi / self.L
        n_max = int(np.floor(self.K / step)) + 1
        axis = np.arange(-n_max, n_max + 1)
        nx, ny = np.meshgrid(axis, axis, indexing="ij")
        keep = self.inside(nx * nx + ny * ny)
        n_pairs = np.column_stack([nx[keep], ny[keep]])
        if len(n_pairs) > _MODE_CAP:
            raise CapacityError(
                "mode lattice has %d points, cap is %d (shrink L or K)"
                % (len(n_pairs), _MODE_CAP))
        return step * n_pairs, n_pairs

    def inside(self, norm2):
        """Whether the integer modes n of squared length ``norm2`` have |k| <= K."""
        step = np.pi / self.L
        return norm2 * step * step <= self.K * self.K * (1 + 1e-12)

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
    for part in parts(nu):
        if isinstance(part, Density):
            x0, x1, y0, y1 = part.support_box
            reach = max(abs(x0), abs(x1), abs(y0), abs(y1))
        else:
            x, y = part.curve.point(np.linspace(0.0, 1.0, 4096))
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
    # the eigensolver would return NaN for a block with a non-finite entry
    if not np.all(np.isfinite(table)):
        raise NumericalInputError("potential is non-finite at the mode differences")
    return n_pairs, a, table


def _symmetry(model: CouplingSpec, n_pairs, a, table, step):
    """(n, p, paired, mirror, table, a): the group the operator keeps.

    A sweep calls it once, on the largest cutoff's operator, whose
    compressions are every smaller cutoff's: their defects are no larger,
    so the one budget bounds every cutoff's eigenvalues.

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


def _sector_potentials(g, j, n):
    """(re, im) with V_omega = re + i im = sum_f omega^f G_f, omega = i^(4j/n).

    ``g`` holds the G_f, gathered once per sweep.  Each omega^f is 1, i, -1
    or -i, so re and im are signed sums of the G_f, taken in f order and in
    g's dtype; im is None when no omega^f is imaginary, and for n = 1 re is
    G_0 itself.
    """
    sums = [None, None]
    for f in range(n):
        q = j * (4 // n) * f % 4        # omega^f = i^q
        total, negative = sums[q % 2], q >= 2
        if total is None:
            sums[q % 2] = -g[f] if negative else g[f]
        elif total.base is g:
            sums[q % 2] = total - g[f] if negative else total + g[f]
        else:
            (np.subtract if negative else np.add)(total, g[f], out=total)
    return sums[0], sums[1]


def _real_parts(re, im):
    """V = re + i im as real arrays (vr, vi); vi is None when V is real."""
    if not np.iscomplexobj(re):
        return re, im
    v = re if im is None else re + 1j * im
    return v.real, v.imag


def _complex(re, im):
    """V = re + i im as one complex array, re itself when that is V."""
    if im is None:
        return re if np.iscomplexobj(re) else re.astype(complex)
    return re + 1j * im


def _real_form(vr, vi, basis: _RealBasis, out):
    """Write V = vr + i vi in the real basis ``basis`` of its rows and columns into out.

    V's rows are ``basis.first``, the pairs' lower indices and then the
    fixed points, and its columns the lower indices, their partners and the
    fixed points; vi is None when V is real.  Needs conj(V) = P V P^H.
    With g and g' the rephased V[first, first] and V[first, partner], the
    u rows against the u columns are Re(g + g'), w against u Im(g + g'),
    u against w Im(g' - g) and w against w Re(g - g'), with 1/sqrt(2) on
    every fixed point's row and column.  Between lower indices g is V and
    g' is V times the partners' phases conj(c), a power of i for the
    built-in couplings, so those four quadrants are taken in real
    arithmetic; the fixed points' few rows and columns, whose phases are
    complex square roots, are taken complex.
    """
    k, mf = basis.lower, len(basis.first)
    gamma = basis.partner_phase[:k]
    re_lower, re_partner = vr[:k, :k], vr[:k, k:2 * k]
    re_g = re_partner * gamma.real            # Re and Im of V[lower, partner] gamma
    im_g = re_partner * gamma.imag
    if vi is not None:
        im_lower, im_partner = vi[:k, :k], vi[:k, k:2 * k]
        re_g -= im_partner * gamma.imag
        im_g += im_partner * gamma.real
    np.add(re_lower, re_g, out=out[:k, :k])
    np.subtract(re_lower, re_g, out=out[mf:, mf:])
    if vi is None:
        out[mf:, :k] = im_g
        out[:k, mf:] = im_g
    else:
        np.add(im_lower, im_g, out=out[mf:, :k])
        np.subtract(im_g, im_lower, out=out[:k, mf:])
    # the fixed points' rows against the lower columns, and every row
    # against the fixed columns, on which g' = g
    rows = vr[k:mf, :2 * k] if vi is None else vr[k:mf, :2 * k] + 1j * vi[k:mf, :2 * k]
    conj_root = np.conj(basis.phase[k:])
    g, g_partner = rows[:, :k] * conj_root[:, None], rows[:, k:] * np.outer(conj_root, gamma)
    out[k:mf, :k] = g.real + g_partner.real
    out[k:mf, mf:] = g_partner.imag - g.imag
    cols = vr[:, 2 * k:] if vi is None else vr[:, 2 * k:] + 1j * vi[:, 2 * k:]
    g = cols * np.outer(np.conj(basis.phase), basis.phase[k:])
    out[:mf, k:mf] = g.real + g.real
    out[mf:, k:mf] = g.imag[:k] + g.imag[:k]
    out[k:mf] *= np.sqrt(0.5)
    out[:, k:mf] *= np.sqrt(0.5)


def _coupling(ar, up: _RealBasis, dn: _RealBasis):
    """(rows, cols, values): A's nonzeros from up's rows to dn's columns, in their real bases.

    A joins the two spin states of one representative, and P maps each
    representative's pair of states onto its partner's, so only the rows of
    one representative meet.  A pair's lower index has Re A between the u
    rows and between the w rows, and Im A and -Im A between w and u and
    between u and w; a fixed point has Re(A conj(d_up) d_dn) between its u
    rows, times 1/sqrt(2) for its row and for its column.
    """
    k, both = up.lower, min(len(up.first), len(dn.first))
    lower, fixed = np.arange(k), np.arange(k, both)
    a = ar[up.first[:k]]
    f = ar[up.first[k:both]] * (np.conj(up.phase[k:both]) * dn.phase[k:both])
    w_up, w_dn = len(up.first) + lower, len(dn.first) + lower
    # a fixed point's g' = g, and 1/sqrt(2) for its row, then its column,
    # as ``_real_form`` takes them
    return (np.concatenate([lower, w_up, lower, w_up, fixed]),
            np.concatenate([lower, lower, w_dn, w_dn, fixed]),
            np.concatenate([a.real, a.imag, -a.imag, a.real,
                            (f.real + f.real) * np.sqrt(0.5) * np.sqrt(0.5)]))


def _layout(source, spins, coupling, norm2, p2):
    """(h, norm2): the block from its spins' parts, its rows in ascending norm2.

    ``spins`` lists the representatives of each spin's rows, and source[s]
    is spin s's part, the potential (or its real form) on those rows, or
    source[0] serves both spins.  One stable permutation puts the rows in
    ascending norm2, and the block is gathered straight into that order,
    a slab of rows at a time: each slab's rows are taken from the source,
    then their columns, and the entries between opposite spins are
    zeroed.  ``coupling`` (rows of spin up, columns of spin down, values)
    then joins the spins, and the kinetic term goes on the diagonal.
    """
    rows = np.concatenate(spins)
    order = np.argsort(norm2[rows], kind="stable")
    up = len(spins[0])
    spin = order >= up
    index = order - up * spin
    flat = source.reshape(len(source) * source.shape[1], source.shape[2])
    source_row = (spin if len(source) > 1 else 0) * source.shape[1] + index
    h = np.empty((len(order),) * 2, dtype=source.dtype)
    for start in range(0, len(h), _SLAB_ROWS):
        slab = slice(start, start + _SLAB_ROWS)
        # the indices are in range; a mode other than "raise" writes out unbuffered
        np.take(flat[source_row[slab]], index, axis=1, out=h[slab], mode="clip")
        # +0.0, which a product with the mask would leave as -0.0 where the
        # taken entry is negative: the eigensolver's reflectors read its sign
        np.putmask(h[slab], spin[slab, None] != spin, 0.0)
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    row, col, values = coupling
    h[at[row], at[up + col]] = values
    h[at[up + col], at[row]] = np.conj(values)
    h[np.diag_indices(len(h))] += p2[rows[order]]
    return h, norm2[rows[order]]


def _blocks(n_pairs, step, n, p, table, a, sectors, mirror=None):
    """(h, norm2): U's eigenspace blocks for the listed sectors j, one by one.

    With omega = i^(4j/n), the eigenvalue of U, sector j's basis is
    sum_d omega^d |R^d r, up> and sum_d (omega/phi)^d |R^d r, down>, over
    d < n and divided by sqrt(n), for the orbit representatives r.  Its
    potential block is V_omega[r, s] = sum_f omega^f G_f[r, s] with
    G_f[r, s] = table(r - R^f s), which is gathered once per sweep, in the
    table's dtype, and each V_omega is formed from it by
    ``_sector_potentials``.  The origin is its own orbit: its row and
    column carry 1/sqrt(n), its spin-up state lives in sector 0 and its
    spin-down state in the sector with omega = phi.  For n = 1 this is the
    whole operator.

    With ``mirror`` = (s, chi) from ``_symmetry``, Theta maps every sector
    onto itself: m R^f = R^-f m turns conj(h) into P h P^H, where P takes
    r to the representative r' of m r = R^e r', with phase omega^e on
    spin-up rows and conj(chi) (omega/phi)^e on spin-down rows.  Each block
    is then real, in the ``_RealBasis`` of each spin's rows: G is gathered
    on the rows of the pairs' lower indices and the fixed points and on
    the columns of those indices and their partners, so that each spin's
    ``_real_form`` reads slices of V_omega, taken in real arithmetic, and
    the coupling's real form is its O(M) nonzeros (``_coupling``).  The
    complex block is never formed.  Without it the blocks are complex.

    Every row belongs to one representative r, and ``norm2`` is its integer
    |r|^2.  ``_layout`` gathers the rows into ascending norm2 by one stable
    permutation, so the rows of a smaller cutoff's block lead: the turns
    and the mirror keep |r|, an orbit's representative is the same at every
    cutoff, and the real basis pairs rows of equal |r|.  That cutoff's block
    is then the leading corner h[:size, :size], up to the order of its rows.
    While a block is solved, only G and that block are held.
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
    index = np.arange(m)
    rows = cols = index
    if mirror is not None:
        # the representative of m r is the turn R^-e (m r) of least key;
        # m fixes the origin, so the leading rows map among themselves
        image = np.stack([_turn(_mirror(r, mirror[0]), -d * quarters) for d in range(n)])
        e = np.argmin(image[..., 0] * width + image[..., 1], axis=0)
        partner = _position(r, image[e, index])
        lower, fixed = index[partner > index], index[partner == index]
        rows = np.concatenate([lower, fixed])
        cols = np.concatenate([lower, partner[lower], fixed])
    # G_f by flat index into the table, whose axes run over -2 n_max..2 n_max:
    # the flat index of r - s is that of r less that of s, plus the origin's
    off, side = (len(table) - 1) // 2, len(table)
    start = (r[rows, 0] * side + r[rows, 1] + off * (side + 1))[:, None]
    g = np.empty((n, len(rows), len(cols)), dtype=table.dtype)
    for f in range(n):
        s = _turn(r[cols], f * quarters)
        np.take(table, start - (s[:, 0] * side + s[:, 1]), out=g[f])
    # the origin is last on both axes (for n = 1 the division is by one)
    g[:, -1, :] /= np.sqrt(n)
    g[:, :, -1] /= np.sqrt(n)
    k = step * r
    p2 = k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1]
    norm2 = np.sum(r * r, axis=1)
    ar = a[rep]

    def parts(j):
        """(source, spins, coupling) of sector j's block, for ``_layout``."""
        down = (j - p) % n
        sizes = (m - (j != 0), m - (down != 0))
        # the block reads the potentials of j and of its spin-down sector only
        pots = {s: _sector_potentials(g, s, n) for s in (j, down)}
        if mirror is None:
            source = (_complex(*pots[j])[None] if down == j
                      else np.stack([_complex(*pots[j]), _complex(*pots[down])]))
            both = index[:min(sizes)]
            return source, [index[:size] for size in sizes], (both, both, ar[both])
        # P keeps the spins apart, so each spin's part has its real form;
        # a spin one row short leaves zeros that only opposite-spin
        # entries, which _layout zeroes, read
        bases = [_real_basis(partner[:sizes[0]], _QUARTER[j * e[:sizes[0]] * quarters % 4]),
                 _real_basis(partner[:sizes[1]], np.conj(mirror[1])
                             * _QUARTER[down * e[:sizes[1]] * quarters % 4])]
        source = np.zeros((2,) + (max(sizes),) * 2)
        for part, sector, basis, size in zip(source, (j, down), bases, sizes):
            vr, vi = _real_parts(*pots[sector])
            mf = len(basis.first)
            _real_form(vr[:mf, :size], None if vi is None else vi[:mf, :size],
                       basis, part[:size, :size])
        return (source, [np.concatenate([b.first, b.first[:b.lower]]) for b in bases],
                _coupling(ar, *bases))

    for j in sectors:
        # the parts are dropped before the block is yielded, so that the
        # eigensolver's copy of it is the only other large array
        yield _layout(*parts(j), norm2, p2)


def assemble(model: CouplingSpec, nu: RadonMeasureSpec | None, box: BoxSpec):
    """Truncated operator as a dense Hermitian 2M x 2M array.

    Its rows are the states (k_j, spin) for the modes k_j of
    ``box.modes()``, ordered by |k_j|; at equal |k_j| the spin-up states
    come first, each spin in the order of the modes.  The diagonal is the
    kinetic term |k_j|^2, the coupling A(k_j) joins the two spin states of
    one mode, and the potential couples equal spins with the constant
    (2*pi/(4 L^2)) * nuhat(k_j - k_l).
    """
    n_pairs, a, table = _operator_data(model, nu, box)
    return next(_blocks(n_pairs, np.pi / box.L, 1, 0, table, a, [0]))[0]


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


def _eigvalsh(matrix):
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
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
    """The operator's spectrum and count: the sweep of the one cutoff box.K."""
    return convergence_sweep(model, thr, nu, box.L, [box.K], box.edge_tol).results[0]


def convergence_sweep(model: CouplingSpec, thr: ThresholdData, nu,
                      L, cutoffs, edge_tol=None) -> SweepResult:
    """Counts across increasing cutoffs; stable means the top two agree.

    ``edge_tol`` is passed to every cutoff's BoxSpec (None: its default).

    The operator is built once, at the largest cutoff: one table of nuhat,
    one symmetry gate, and each solved sector's block built once.  At one
    L every smaller cutoff's operator is a compression of it, and its
    block is the leading corner of the same sector's block, which is
    solved in place of a block of its own.  The gate thus reads the
    largest cutoff's operator H: each cutoff's compression moves by no
    more than H does, so by Weyl's inequality no eigenvalue at any cutoff
    moves by more than eps ||H||_F.

    Time reversal T maps each sector onto a sector of its own Kramers
    partners.  When the gate pairs the sectors, each block solved stands
    for itself and its partner, so every eigenvalue it has is counted
    twice and the two halves of a Kramers pair are equal; otherwise every
    sector is solved and the halves come from different blocks.  When the
    gate keeps Theta, every block is a real symmetric matrix with the
    sector's spectrum; otherwise it is the complex Hermitian block.

    Only a stable sweep should be treated as ground truth for the
    certificate cross-check -- an unstable count is a discretization
    artifact, not a spectral statement.
    """
    cutoffs = [float(c) for c in cutoffs]
    edge_tol = None if edge_tol is None else float(edge_tol)
    problems = sweep_problems(L, cutoffs, edge_tol)
    if problems:
        raise ConfigError(problems)
    boxes = [BoxSpec(L=L, K=c, edge_tol=edge_tol) for c in cutoffs]
    n_pairs, a, table = _operator_data(model, nu, boxes[-1])
    step = np.pi / L
    n, p, paired, mirror, table, a = _symmetry(model, n_pairs, a, table, step)
    # time reversal carries sector j onto sector (p - j) mod n, whose block
    # has the same spectrum; when the gate pairs them, only the lower
    # sector of each pair is built
    sectors = [j for j in range(n) if not paired or j < (p - j) % n]
    eigs = [[] for _ in boxes]
    # each block is solved at every cutoff before the next is built
    for h, norm2 in _blocks(n_pairs, step, n, p, table, a, sectors, mirror):
        for out, box in zip(eigs, boxes):
            size = int(np.count_nonzero(box.inside(norm2)))
            out.append(np.repeat(_eigvalsh(h[:size, :size]), 1 + paired))
        del h
    results = [_counted(np.sort(np.concatenate(e)), thr, box)
               for e, box in zip(eigs, boxes)]
    counts = [r.count_below for r in results]
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    stable = len(counts) >= 2 and counts[-1] == counts[-2]
    return SweepResult(results=results, cutoffs=cutoffs,
                       count_diffs=diffs, stable=stable)
