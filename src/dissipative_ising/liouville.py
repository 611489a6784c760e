"""Full quantum treatment on the Dicke manifold: Liouvillian spectra.

The master equation for the collective spin with Hamiltonian

    H = (1-p) [ (V/2N) Jx^2 + g Jz ] + p [ (V/2N) Jz^2 + g Jx ]

and collective decay at rate Gamma reads

    drho/dt = -i [H, rho] + (Gamma/2N) (2 J- rho J+ - {J+ J-, rho}).

L maps Hermitian matrices to Hermitian matrices, so it acts on the
real coordinates of rho in an orthonormal (Hilbert-Schmidt) basis of
Hermitian matrices.  With d = N + 1 the coordinates are the d diagonal
entries rho_kk, then sqrt(2) Re rho_jk and then sqrt(2) Im rho_jk over
the upper triangle j < k in row-major order (``vec``/``unvec``).  H and
J- are real, so writing rho = R + iS with R real symmetric and S real
antisymmetric splits the equation into

    dR/dt = D(R) + [H, S],        dS/dt = D(S) - [H, R],

with the real dissipator D(X) = (Gamma/2N)(2 J- X J+ - {J+ J-, X}), and
the matrix of L in these coordinates is real.  It is Q^dag L_c Q for
the unitary Q whose columns are the basis matrices, column-stacked, and
L_c the complex Kronecker form, so the spectrum is that of L_c.  L is
linear in Gamma/2N, (1-p)V/2N, (1-p)g, pV/2N and pg, so
``build_liouvillian`` combines five unit couplings, built once for the
latest N (``_couplings``).

Eigenvalue conventions: the spectrum lies in the closed left half
plane and is closed under conjugation; the eigenvector of the (unique,
for generic finite N) zero eigenvalue is the steady state, and the gap
is |Re| of the nonzero eigenvalue closest to the imaginary axis (the
asymptotic decay rate).

Each question has one route, for every N up to ``N_LIMIT``, and each
runs in real arithmetic on one kind of sparse factor, LAPACK's banded
LU (``_BandedLU``).  Ordered by anti-diagonal level j + k, the
coordinates make L a band matrix with half-bandwidths 2(N + 1) + 2
(``_band_order``):

* steady state: L with the row of one population rho_kk replaced by
  ``scale`` e_k^T is still banded, and its solution z for e_k has
  L z = 0 exactly, because the trace row is L's left null vector;
  rho = z / tr z (``steady_state``, ``_sector_solver``);
* gap: the blocks of L are factored as for the steady state, and the
  one that holds the populations gives rho.  At p = 0, L is
  block-diagonal in the parity of j - k (the symmetry sectors of
  Minganti et al., PRA 98, 042118 (2018)), and the two sectors are
  factored, each in its own restricted band order, and searched apart.
  A block's eigenvalues come from a dense eigendecomposition up to
  ``DENSE_N_MAX`` spins and, above it, from one Arnoldi pass on L^-1
  over the traceless matrices, the ``GAP_K - 1`` nonzero modes nearest
  zero.  This is the only size
  dispatch in the package, and its settings are internal to it
  (``liouvillian_gap``);
* time evolution: exp(dt L) of the real linear system from each output
  time to the next, by a shift-and-invert Krylov exponential on one
  banded LU of I - gamma L per interval length (``propagate``, behind
  ``evolve_rho`` and ``ramped_evolution``).  The steps are not bound by
  the stiffness of L, whose eigenvalues reach |lambda| = 27 to 37 at
  N = 30.

ARPACK (scipy.sparse.linalg) loads on first use: ``eigs`` is a module
attribute that imports scipy's on the first call, because only the gap
above ``DENSE_N_MAX`` spins calls it and its import would otherwise
cost every process, sweep workers included, at start-up.  The code
calls it by this name, so a caller can still replace it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import IntegrationError, SolverError
from .meanfield import ModelParams, _on_first_call
from .operators import DickeBasis, build_basis, op_cartesian, op_ladder

__all__ = [
    "LiouvillianMatrix",
    "SteadyStateResult",
    "SpectralResult",
    "build_hamiltonian",
    "build_liouvillian",
    "vec",
    "unvec",
    "dicke_state_rho",
    "steady_state",
    "liouvillian_gap",
    "propagate",
    "evolve_rho",
    "magnetization",
    "ramped_evolution",
]

# Each block's eigenvalues for the gap come from a dense full
# diagonalization up to this spin count and from an Arnoldi pass on L^-1
# for the GAP_K modes nearest zero (the zero mode among them) beyond it.
# The steady state comes from the pinned factor at every N.
DENSE_N_MAX = 30
GAP_K = 16
# Krylov space of that Arnoldi pass, about six times the modes sought.
# On the banded LU, the 35 points of an N = 50, V = -5 gap grid (p in
# linspace(0, 1, 5), g in linspace(-3, 3, 7)) took 1.9-2.0 s and 4 285
# solves at 90 vectors, against 2.3 s and 5 172 at 64, 2.9-3.2 s and
# 6 610 at 48, 3.1-3.7 s and 8 023 at 32, and 2.4-2.7 s and 5 218 at 120
# (one BLAS thread, 2-core box); every gap stayed within 8.1e-14 of the
# one at 90.
_KRYLOV_DIM = 90
# The one cap on N for every quantum solver and sweep.
N_LIMIT = 200
# vec rejects a matrix whose anti-Hermitian part exceeds this times
# max(max-abs entry, 1): an absolute 1e-12 for every density matrix,
# whose entries are at most 1 in modulus.
HERMITIAN_TOL = 1e-12

eigs = _on_first_call("scipy.sparse.linalg", "eigs")

_SQRT2 = np.sqrt(2.0)
# propagate's shift-and-invert Krylov exponential (``_exponential``).  The
# shift gamma is this fraction of the interval.  Of fractions from 0.005
# to 1 it needed the fewest Krylov vectors, or at most 10 more, at
# N = 10 and 30 over intervals from 0.01 to 100.
_SHIFT_FRACTION = 0.02
# Most Krylov vectors for one interval.  The 40-unit windows of an N = 30
# ramp use 10 to 55, intervals of 5 to 20 at N = 30 up to 100, and at
# N = 100 up to 165; an interval that does not converge within the cap is
# split in two halves.
_KRYLOV_MAX = 120
# Successive approximants are compared every this many vectors.
_KRYLOV_CHECK = 5
# The stop target is this fraction of the caller's error scale,
# min(atol, rtol |y|).  The difference of two approximants understates
# the error of the later one where convergence stalls: on the N = 30 ramp
# at rtol 1e-8, atol 1e-10, a fraction of 1 left magnetizations 8.7e-12
# from DOP853 at rtol 1e-12, and 1e-2 leaves 3.0e-13.
_TARGET_FRACTION = 1e-2
# The steady state's solve pins the fully-down population, and pins the
# largest one instead where that one is below this fraction of it
# (``_sector_solver``).  At N = 50, V = -5, g = -3, p = 0.75 the ratio
# is 1.3e-5, and the gap computed with that pin moves by 1.4e-9.
_PIN_RATIO = 1e-2
# _BandedLU compacts a trimmed band this many columns at a time.
_COMPACT_COLUMNS = 256
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LiouvillianMatrix:
    """Real matrix of the Liouvillian on the coordinates of ``vec``.

    ``scale`` is the max-abs entry of ``matrix``; it is the norm behind
    the zero-eigenvalue threshold and the marginal-separation warning.
    """

    matrix: sp.csr_matrix
    basis: DickeBasis
    params: ModelParams

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def scale(self) -> float:
        return float(np.abs(self.matrix.data).max(initial=0.0))


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state density matrix; the zero eigenvalue is simple."""

    rho: np.ndarray
    residual: float
    zero_multiplicity: int


@dataclass(frozen=True)
class SpectralResult:
    """Liouvillian eigenvalues (descending real part), gap, steady state.

    ``eigenvalues`` is the whole spectrum up to ``DENSE_N_MAX`` spins, and
    above it the exact zero and the ``GAP_K - 1`` nonzero eigenvalues
    nearest zero of each block (``liouvillian_gap``).
    """

    eigenvalues: np.ndarray
    gap: float
    steady_state: np.ndarray
    zero_multiplicity: int


def _require_matching_n(params: ModelParams, basis: DickeBasis):
    if params.N is None:
        raise ValueError("params.N must be set for quantum solvers")
    if params.N != basis.n_spins:
        raise ValueError(
            f"params.N={params.N} does not match basis spin count {basis.n_spins}"
        )


def build_hamiltonian(params: ModelParams, basis: DickeBasis) -> np.ndarray:
    """Dense Hamiltonian matrix on the Dicke manifold (Hermitian)."""
    _require_matching_n(params, basis)
    jx, _jy, jz = op_cartesian(basis)
    v, g, p, n = params.V, params.g, params.p, params.N
    h0 = (v / (2.0 * n)) * (jx @ jx) + g * jz
    h1 = (v / (2.0 * n)) * (jz @ jz) + g * jx
    return (1.0 - p) * h0 + p * h1


def _unit_coordinates(dim: int):
    """Coordinates of each matrix unit E_ab, flat index a * dim + b.

    Returns (slot, weight) arrays for the symmetric part and for the
    antisymmetric part.  E_aa is the diagonal coordinate a, weight 1,
    with no antisymmetric slot (-1).  For a != b, E_ab has weight
    1/sqrt(2) on the sqrt(2) Re coordinate of the pair {a, b} and
    +-1/sqrt(2) on its sqrt(2) Im coordinate (+ above the diagonal).
    These weights are the columns of the isometries Ps and Pa that carry
    real superoperators to coordinates (``_couplings``).
    """
    a, b = np.divmod(np.arange(dim * dim), dim)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pair = lo * dim - lo * (lo + 1) // 2 + hi - lo - 1  # rank of (lo, hi) in np.triu_indices
    diag = a == b
    n_sym = dim + dim * (dim - 1) // 2
    sym = (np.where(diag, a, dim + pair), np.where(diag, 1.0, 1.0 / _SQRT2))
    anti = (np.where(diag, -1, n_sym + pair), np.where(a < b, 1.0, -1.0) / _SQRT2)
    return sym, anti


@dataclass(frozen=True)
class _Couplings:
    """The five unit couplings of L for one d on their union CSR pattern, and ``_band_order(d)``.

    The rows of ``data`` hold the entries of D, C[Jx^2], C[Jz], C[Jz^2]
    and C[Jx] in the pattern of ``indices`` and ``indptr``
    (``build_liouvillian``).  The arrays are read-only, since the one
    cached instance is shared.
    """

    indices: np.ndarray
    indptr: np.ndarray
    data: np.ndarray
    order: np.ndarray


@functools.lru_cache(maxsize=1)
def _couplings(dim: int) -> _Couplings:
    """The unit couplings of L for d = ``dim`` (``_Couplings``); only the latest d is kept.

    The dissipator D(X) = 2 J- X J+ - {J+J-, X} and each commutator
    C_A(X) = [A, X] are real maps of real matrices.  Their entries
    between matrix units are carried to coordinates through the
    isometries of ``_unit_coordinates``, Ps onto the diagonal and
    sqrt(2) Re coordinates and Pa onto the sqrt(2) Im ones:

        D -> [[Ps^T D Ps, 0], [0, Pa^T D Pa]],
        C[A] -> [[0, Ps^T C_A Pa], [-Pa^T C_A Ps, 0]].

    Duplicates are summed, and entries that are zero in all five are
    left out of the pattern.
    """
    basis = build_basis(dim - 1)
    jx, _jy, jz = (op.real for op in op_cartesian(basis))
    jminus, _jplus = op_ladder(basis)
    lower = np.diagonal(jminus.real, -1)  # J-[k+1, k]
    k_diag = np.append(lower**2, 0.0)  # J+J- is diagonal
    units = np.arange(dim * dim)
    a, b = np.divmod(units, dim)
    # (row unit, column unit, value) of D: X_ce feeds (c+1, e+1) through
    # 2 J- X J+, and every X_ab itself through -{J+J-, X}
    c, e = np.divmod(np.arange((dim - 1) ** 2), dim - 1)
    dissipator = (
        np.concatenate([units, (c + 1) * dim + e + 1]),
        np.concatenate([units, c * dim + e]),
        np.concatenate([-(k_diag[a] + k_diag[b]), 2.0 * lower[c] * lower[e]]),
    )
    t = np.arange(dim)

    def commutator(op):
        # X_xt feeds (a, t) through A_ax, X_tx feeds (t, b) through -A_xb
        h_row, h_col = np.nonzero(op)
        h_val = op[h_row, h_col]
        return (
            np.concatenate([(h_row[:, None] * dim + t).ravel(), (t[:, None] * dim + h_col).ravel()]),
            np.concatenate([(h_col[:, None] * dim + t).ravel(), (t[:, None] * dim + h_row).ravel()]),
            np.concatenate([np.repeat(h_val, dim), -np.tile(h_val, dim)]),
        )

    sym, anti = _unit_coordinates(dim)
    blocks = [[(dissipator, sym, sym, 1.0), (dissipator, anti, anti, 1.0)]]
    for op in (jx @ jx, jz, jz @ jz, jx):
        comm = commutator(op)
        blocks.append([(comm, sym, anti, 1.0), (comm, anti, sym, -1.0)])
    rows, cols, vals, which = [], [], [], []
    for i, coupling in enumerate(blocks):
        for (r, col, v), (r_slot, r_w), (c_slot, c_w), sign in coupling:
            keep = (r_slot[r] >= 0) & (c_slot[col] >= 0)
            r, col, v = r[keep], col[keep], v[keep]
            rows.append(r_slot[r])
            cols.append(c_slot[col])
            vals.append(sign * v * r_w[r] * c_w[col])
            which.append(np.full(r.size, i))
    n = dim * dim
    pattern, slot = np.unique(np.concatenate(rows) * n + np.concatenate(cols), return_inverse=True)
    data = np.bincount(np.concatenate(which) * pattern.size + slot, weights=np.concatenate(vals),
                       minlength=len(blocks) * pattern.size).reshape(len(blocks), -1)
    nonzero = data.any(axis=0)
    row, col = np.divmod(pattern[nonzero], n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    couplings = _Couplings(indices=col.astype(np.int32), indptr=indptr,
                           data=np.ascontiguousarray(data[:, nonzero]), order=_band_order(dim))
    for array in (couplings.indices, couplings.indptr, couplings.data, couplings.order):
        array.flags.writeable = False
    return couplings


def build_liouvillian(params: ModelParams, basis: DickeBasis) -> LiouvillianMatrix:
    """Sparse real matrix of the Liouvillian on the coordinates of :func:`vec`.

    L is linear in five unit couplings (``_couplings``):

        L = (Gamma/2N) D + (1-p)(V/2N) C[Jx^2] + (1-p) g C[Jz]
            + p (V/2N) C[Jz^2] + p g C[Jx],

    with D the dissipator at unit rate and C[A] the real form of
    -i[A, .].  They are built once per N on one CSR pattern, so a build
    is one product of the five coefficients with their entries, on
    fresh copies of the pattern, and entries that come out exactly zero
    are dropped; at p = 0 the couplings that cross the parity of j - k
    have coefficient 0, so no entry links the two parity sectors.
    """
    _require_matching_n(params, basis)
    if params.N > N_LIMIT:
        raise ValueError(
            f"N={params.N} exceeds the supported maximum {N_LIMIT} "
            f"(Liouvillian dimension would be {(params.N + 1) ** 2})"
        )
    units = _couplings(basis.dim)
    v, g, p, n = params.V, params.g, params.p, params.N
    coef = np.array([params.Gamma / (2.0 * n), (1.0 - p) * v / (2.0 * n), (1.0 - p) * g,
                     p * v / (2.0 * n), p * g])
    size = basis.dim * basis.dim
    # eliminate_zeros works in place, so the shared pattern is copied
    lmat = sp.csr_matrix((coef @ units.data, units.indices.copy(), units.indptr.copy()),
                         shape=(size, size))
    lmat.eliminate_zeros()
    return LiouvillianMatrix(matrix=lmat, basis=basis, params=params)


def vec(rho: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the orthonormal Hermitian basis.

    The d diagonal entries, then sqrt(2) Re rho_jk and sqrt(2) Im rho_jk
    over the upper triangle j < k in row-major order.  A matrix whose
    anti-Hermitian part exceeds 1e-12 times max(max-abs entry, 1), an
    absolute 1e-12 for every density matrix, raises ``ValueError``;
    below that, its Hermitian part is taken.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    skew = np.abs(rho - rho.conj().T).max()
    if skew > HERMITIAN_TOL * max(np.abs(rho).max(), 1.0):
        raise ValueError(
            f"rho is not Hermitian: max |rho - rho^dag| = {skew:.3e}; "
            "the anti-Hermitian part has no real coordinates"
        )
    rows, cols = np.triu_indices(rho.shape[0], 1)
    upper = (rho[rows, cols] + np.conj(rho[cols, rows])) * (_SQRT2 / 2.0)
    return np.concatenate([np.diag(rho).real, upper.real, upper.imag])


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """The matrix with coordinates ``v``: inverse of :func:`vec`.

    The map is extended complex-linearly, so a complex ``v`` (an
    eigenvector of the real matrix) gives a non-Hermitian matrix; a real
    ``v`` gives an exactly Hermitian one.
    """
    v = np.asarray(v)
    if v.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} coordinates, got shape {v.shape}")
    rows, cols = np.triu_indices(dim, 1)
    re, im = v[dim:dim + rows.size], v[dim + rows.size:]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.arange(dim), np.arange(dim)] = v[:dim]
    rho[rows, cols] = (re + 1j * im) / _SQRT2
    rho[cols, rows] = (re - 1j * im) / _SQRT2
    return rho


def dicke_state_rho(basis: DickeBasis, m: float) -> np.ndarray:
    """Projector |j, m><j, m| as a density matrix."""
    k = basis.index_of_m(m)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[k, k] = 1.0
    return rho


def _band_order(dim: int) -> np.ndarray:
    """The coordinates of ``vec`` in anti-diagonal order: by s = j + k, then j, Re before Im.

    Every term of L links coordinates at most two levels of s apart: H
    moves one index of rho_jk by 1 or 2, the dissipator maps (j, k) to
    (j + 1, k + 1), and folding (k, j) onto the upper triangle keeps s.
    A level holds at most d + 1 coordinates, so in this order L and
    I - gamma L are band matrices with half-bandwidths of about 2d:
    2(N + 1) + 2 for N >= 4 and p < 1, and less at p = 1, where H has no
    Jx^2 (``_BandedLU``).
    """
    rows, cols = np.triu_indices(dim, 1)
    diag = np.arange(dim)
    j = np.concatenate([diag, rows, rows])
    k = np.concatenate([diag, cols, cols])
    imag = np.repeat([0, 0, 1], [dim, rows.size, rows.size])
    return np.lexsort((imag, j, j + k))


class _BandedLU:
    """LU of ``matrix`` + diag(``diagonal``) by LAPACK's banded ``dgbtrf``, coordinates in ``order``.

    The one sparse factorization of the package.  ``matrix`` has the
    sparsity of L or of one of its parity blocks, and ``order`` is
    ``_band_order`` or its restriction to that block, in which it is a
    band matrix: I - gamma L for propagation, and L with one population
    row pinned, or the odd block, for the steady state and the gap.  The
    band storage is written straight from the CSR in Fortran order, so
    that ``dgbtrf`` factors it in place; ``kl`` and ``ku`` are the
    half-bandwidths measured from the nonzeros.

    ``dgbtrf`` leaves room for kl superdiagonals of fill above U's ku,
    and row swaps fill them from the inside out.  The leading band rows
    that stayed zero, up to ku of them, are dropped (``_drop_rows``), so
    that ``dgbtrs`` sweeps only the superdiagonals U has.  On an N = 30
    ramp at V = -5, g = -1 that is all 64 fill rows of I - gamma L at
    p < 1 (33 of 61 at p = 1, where ku = 33); on the N = 50 gap grid
    it is 1 to 58 of the 104 of the pinned whole-space factors.  The
    skipped terms are products with zero, so the solutions are
    bit-identical.  ``solve`` gathers the right-hand side into
    ``order``, runs ``dgbtrs`` and scatters the solution back.  A zero
    pivot raises ``SolverError`` naming the matrix (``name``): no
    unchecked factor is kept.
    """

    def __init__(self, matrix: sp.csr_matrix, diagonal: np.ndarray, order: np.ndarray, name: str):
        n = matrix.shape[0]
        self.order = order
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[order] = np.arange(n)
        rows = self.rank[np.repeat(np.arange(n), np.diff(matrix.indptr))]
        cols = self.rank[matrix.indices]
        offset = rows - cols
        self.kl, self.ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        height = 2 * self.kl + self.ku + 1
        # entry (i, j) of the matrix sits in row kl + ku + i - j of column j;
        # bincount sums duplicates (and counts in integers if there are no
        # entries), and its (n, height) reshape transposed is the
        # Fortran-ordered (height, n) band
        band = np.bincount(cols * height + self.kl + self.ku + offset,
                           weights=matrix.data, minlength=n * height)
        band = band.astype(float, copy=False).reshape(n, height).T
        band[self.kl + self.ku] += diagonal[order]
        band, self.pivots, info = scipy.linalg.lapack.dgbtrf(
            band, self.kl, self.ku, overwrite_ab=1)
        if info > 0:
            raise SolverError(
                f"{name} is singular: pivot {info} of {n} of its banded LU is zero"
            )
        if info < 0:
            raise SolverError(f"dgbtrf rejected argument {-info}")
        filled = np.flatnonzero(band[:self.ku].any(axis=1))
        self.band = _drop_rows(band, int(filled[0]) if filled.size else self.ku)

    def solve(self, r: np.ndarray) -> np.ndarray:
        # the band keeps U's superdiagonals above its kl + 1 rows of diagonal
        # and multipliers
        x, info = scipy.linalg.lapack.dgbtrs(
            self.band, self.kl, self.band.shape[0] - 2 * self.kl - 1, r[self.order],
            self.pivots, overwrite_b=1)
        if info:
            raise SolverError(f"dgbtrs rejected argument {-info}")
        return x[self.rank]


def _drop_rows(band: np.ndarray, count: int) -> np.ndarray:
    """``band[count:]`` as a Fortran-ordered array in ``band``'s own buffer.

    Each column moves to its new place in the flat buffer, never past
    its old one, ``_COMPACT_COLUMNS`` columns at a time: an overlapping
    assignment buffers its source, so only that many columns are ever
    copied at once, never a second band.
    """
    if not count:
        return band
    height, n = band.shape
    kept = height - count
    flat = band.T.reshape(-1)  # a view, since band is Fortran-ordered
    for start in range(0, n, _COMPACT_COLUMNS):
        stop = min(start + _COMPACT_COLUMNS, n)
        flat[start * kept:stop * kept].reshape(stop - start, kept)[...] = band.T[start:stop, count:]
    return flat[:n * kept].reshape(n, kept).T


def _sectors(liouv: LiouvillianMatrix):
    """(name, coordinates, band order, trace) of each block of L that the gap factors.

    At p = 0 every term of L conserves the parity of j - k: H = (V/2N)
    Jx^2 + g Jz couples Dicke levels an even number apart, and the
    dissipator moves rho_jk to rho_(j+1)(k+1).  So L is block-diagonal
    in (j - k) mod 2.  The even block holds the d diagonal coordinates,
    first, and so the steady state (``trace`` = d); every matrix of the
    odd block is traceless (``trace`` = 0).  Elsewhere there is one
    block, all coordinates (``None``).  Each block's band order is
    ``_band_order`` restricted to it, in the block's own numbering; at
    N = 50 it gives half-bandwidths of 54 and 53, against 104 for the
    whole space.
    """
    dim = liouv.basis.dim
    order = _couplings(dim).order
    if liouv.params.p != 0.0:
        return [("whole space", None, order, dim)]
    rows, cols = np.triu_indices(dim, 1)
    is_odd = np.concatenate([np.zeros(dim, dtype=bool), np.tile((cols - rows) % 2 == 1, 2)])
    rank = np.argsort(order)  # each coordinate's place in the band order
    even, odd = np.flatnonzero(~is_odd), np.flatnonzero(is_odd)
    return [("even sector", even, np.argsort(rank[even]), dim),
            ("odd sector", odd, np.argsort(rank[odd]), 0)]


def _sector_solver(block: sp.csr_matrix, order: np.ndarray, trace: int, scale: float, sector: str):
    """One block's steady state and the map r -> L^-1 r on its traceless matrices.

    A block with ``trace`` = 0 (all of it traceless, and invertible) is
    factored as it is, and its steady state is None.

    A block with ``trace`` > 0 holds the populations, its first
    ``trace`` coordinates, and L is singular on it.  The row of one
    population k is replaced by ``scale`` e_k^T, which keeps the band of
    L, and z solves that pinned system for e_k.  The trace row is L's
    left null vector, so L z = 0 exactly: the rows other than k give
    (L z)_i = 0, and the trace row then gives (L z)_k = 0.  The steady
    state is z / tr z.  The pinned matrix is invertible exactly when the
    zero eigenvalue of the block is simple and the steady state has
    population at k, and it grows ill-conditioned as that population
    falls.  So the fully-down level, k = d - 1, is pinned first; if z's
    population there is below ``_PIN_RATIO`` of its largest, that factor
    is released and the block is factored once more, pinned at the
    largest.

    The pinned system's solution y for any r has (L y)_i = r_i for
    i != k, and by the trace row (L y)_k makes L y traceless.  So for a
    traceless r, L y = r, and y - tr(y) rho_ss is the traceless
    preimage.  The map r -> y - tr(y) rho_ss is L^-1 on the traceless
    matrices and sends every r to a traceless matrix: its nonzero
    eigenvalues are 1/lambda over the nonzero modes, and the zero mode
    drops out.  The map holds the block's only factor, so dropping it
    frees the band; only one band is alive at a time.  A zero pivot
    raises ``SolverError``.
    """
    n = block.shape[0]
    if not trace:
        lu = _BandedLU(block, np.zeros(n), order, sector)
        return None, lu.solve

    def factor(k):
        pinned = block.copy()
        pinned.data[pinned.indptr[k]:pinned.indptr[k + 1]] = 0.0
        unit = np.zeros(n)
        unit[k] = 1.0
        lu = _BandedLU(pinned, scale * unit, order, f"pinned system of the {sector}")
        return lu, lu.solve(unit)

    pin = trace - 1
    lu, z = factor(pin)
    if z[pin] < _PIN_RATIO * z[:trace].max():
        del lu
        pin = int(np.argmax(z[:trace]))
        lu, z = factor(pin)
    steady = z / z[:trace].sum()

    def solve(r):
        y = lu.solve(r)
        return y - y[:trace].sum() * steady

    return steady, solve


def _steady_solution(steady: np.ndarray, coords, liouv: LiouvillianMatrix):
    """rho at unit trace from a block's steady-state coordinates, with its residual.

    The coordinates outside the block (the odd sector at p = 0) are 0.
    The coordinates are real, so rho is exactly Hermitian.  A residual
    |L vec(rho)| above 1e-8, or one that is not finite, raises
    ``SolverError``.  Positivity is checked and warned about, not
    enforced.
    """
    if coords is not None:
        full = np.zeros(liouv.dim)
        full[coords] = steady
        steady = full
    rho = unvec(steady, liouv.basis.dim)
    rho = rho / np.trace(rho).real
    residual = float(np.linalg.norm(liouv.matrix @ vec(rho)))
    if not residual <= 1e-8:
        raise SolverError(f"steady-state residual {residual:.3e} exceeds 1e-8")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-8:
        warnings.warn(
            f"extracted steady state has eigenvalue {min_eig:.2e} < -1e-8; "
            "the solve may be inaccurate",
            stacklevel=3,
        )
    return rho, residual


def _inverse_eigenvalues(solve, n: int, sector: str) -> np.ndarray:
    """The ``GAP_K - 1`` largest-modulus eigenvalues 1/lambda of L^-1 on one block.

    ``solve`` is the block's map r -> L^-1 r on the traceless matrices
    (``_sector_solver``).  One Arnoldi pass through a Krylov space of
    ``_KRYLOV_DIM`` vectors, from a fixed starting vector so that
    repeated runs are bit-identical.  An ARPACK failure raises
    ``SolverError``; nothing is retried.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator

    k = min(GAP_K - 1, n - 2)
    if k < 1:
        raise SolverError(f"{sector} of dimension {n} is too small for the iterative gap")
    operator = LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        return eigs(operator, k=k, which="LM", ncv=min(_KRYLOV_DIM, n),
                    v0=np.ones(n) / np.sqrt(n), return_eigenvectors=False)
    except ArpackError as exc:
        raise SolverError(f"Arnoldi on the {sector} failed: {exc}") from exc


def steady_state(liouv: LiouvillianMatrix) -> SteadyStateResult:
    """Steady state from one banded LU solve, for every N.

    The row of one population of the real L is replaced by ``scale``
    e_k^T, and that system's solution for e_k, which L maps to 0
    exactly, is normalized to unit trace (``_sector_solver``).  The
    fully-down population is pinned first, and the largest one if that
    one is below 1e-2 of it.  The whole space is factored at every p.
    A zero pivot (the zero eigenvalue of L is not simple) raises
    ``SolverError``, and so does a residual |L vec(rho)| above 1e-8.
    The result is Hermitian by construction and trace-normalized;
    positivity is warned about, not enforced.
    """
    dim = liouv.basis.dim
    steady = _sector_solver(liouv.matrix, _couplings(dim).order, dim, liouv.scale, "whole space")[0]
    rho, residual = _steady_solution(steady, None, liouv)
    return SteadyStateResult(rho=rho, residual=residual, zero_multiplicity=1)


def _spectral_result(vals: np.ndarray, rho: np.ndarray, liouv: LiouvillianMatrix) -> SpectralResult:
    """Gap, zero multiplicity and sorted eigenvalues; ``vals`` hold the zero mode."""
    tol = 1e-10 * max(liouv.scale, 1.0)  # |lambda| below this counts as zero
    moduli = np.abs(vals)
    nonzero = vals[moduli >= tol]
    gap = float(abs(nonzero.real.max())) if nonzero.size else 0.0
    sorted_moduli = np.sort(moduli)
    if sorted_moduli.size > 1 and tol <= sorted_moduli[1] < 10.0 * tol:
        warnings.warn(
            f"second eigenvalue modulus {sorted_moduli[1]:.2e} is within 10x of "
            f"the zero threshold {tol:.2e}; gap/steady-state separation is marginal",
            stacklevel=3,
        )
    order = np.lexsort((vals.imag, -vals.real))
    return SpectralResult(
        eigenvalues=vals[order],
        gap=gap,
        steady_state=rho,
        zero_multiplicity=max(int(np.count_nonzero(moduli < tol)), 1),
    )


def liouvillian_gap(liouv: LiouvillianMatrix) -> SpectralResult:
    """Liouvillian spectrum near zero, the asymptotic decay rate and the steady state.

    The gap is |Re| of the nonzero eigenvalue with the largest real
    part, after excluding eigenvalues with |lambda| below 1e-10 times
    ``liouv.scale``.  One loop over the blocks of ``_sectors``, one at a
    time so that only one band is alive: each is factored as in
    ``steady_state`` (``_sector_solver``), and the one that holds the
    populations gives the same rho.  A block's eigenvalues follow from N
    alone: up to ``DENSE_N_MAX`` spins its whole spectrum by dense
    ``eig``; above it the exact zero and 1/mu over the ``GAP_K - 1`` mu
    of one Arnoldi pass on L^-1 (``_inverse_eigenvalues``).  A zero pivot
    (the zero eigenvalue of L is not simple) raises ``SolverError``
    naming the block, at every N.

    Known limitation: above ``DENSE_N_MAX`` the gap is the rightmost of
    the eigenvalues smallest in modulus, not the rightmost eigenvalue.  A
    slow mode far up the imaginary axis can be missed, and the gap then
    comes out too large: at N = 50, V = -5, g = -3 it is missed at
    p = 0.75.
    """
    dense = liouv.basis.n_spins <= DENSE_N_MAX
    vals = [] if dense else [np.zeros(1, dtype=complex)]
    for sector, coords, order, trace in _sectors(liouv):
        block = liouv.matrix if coords is None else liouv.matrix[coords][:, coords]
        steady, solve = _sector_solver(block, order, trace, liouv.scale, sector)
        if trace:
            rho, _residual = _steady_solution(steady, coords, liouv)
        if dense:
            vals.append(scipy.linalg.eig(block.toarray(), right=False))
        else:
            vals.append(1.0 / _inverse_eigenvalues(solve, block.shape[0], sector))
        del solve  # the sector's factor, before the next one is built
    return _spectral_result(np.concatenate(vals), rho, liouv)


def _small_exponential(hess: np.ndarray, ratio: float):
    """exp(ratio (I - hess^-1)) e_1 and the rounding floor of its entries.

    The floor is eps times the 1-norm of the exponent.  Once the Krylov
    space has converged, successive approximants scatter by rounding
    alone: at N = 20 and 30, over windows of 0.5 and 40, by at most 0.8
    times the floor.  Overflow raises ``IntegrationError``, not a
    warning.
    """
    exponent = ratio * (np.eye(hess.shape[0]) - np.linalg.inv(hess))
    with np.errstate(all="ignore"):
        column = scipy.linalg.expm(exponent)[:, 0]
    if not np.isfinite(column).all():
        raise IntegrationError(
            "propagated state is not finite: exp(dt L) overflowed or the state was not finite"
        )
    return column, _EPS * np.abs(exponent).sum(axis=0).max()


def _krylov_exponential(lu, gamma: float, y: np.ndarray, dt: float, rtol: float, atol: float):
    """exp(dt L) y from Arnoldi on (I - gamma L)^-1, ``lu`` its factor; None if not converged.

    Shift-and-invert Krylov (Moret & Novati, BIT 44 (2004); van den Eshof
    & Hochbruck, SIAM J. Sci. Comput. 27 (2006)): with the Arnoldi
    relation (I - gamma L)^-1 V_m = V_m H_m + h v e_m^T, started from
    y / |y| with full reorthogonalization, exp(dt L) y is approximated by
    |y| V_m exp(dt (I - H_m^-1) / gamma) e_1.  Every ``_KRYLOV_CHECK``
    vectors the approximant is compared with the previous one, and it is
    returned once the two differ by at most ``_TARGET_FRACTION``
    min(atol, rtol |y|) or the rounding floor of ``_small_exponential``,
    whichever is larger.  A space that is invariant to rounding, or the
    whole space, is exact.  Past ``_KRYLOV_MAX`` vectors the result is
    None.
    """
    n = y.size
    beta = np.linalg.norm(y)
    if beta == 0.0:
        return y.copy()
    target = _TARGET_FRACTION * min(atol, rtol * beta)
    cap = min(_KRYLOV_MAX, n)
    basis = np.empty((min(4 * _KRYLOV_CHECK, cap), n))  # grown as it fills
    hess = np.zeros((cap + 1, cap))
    basis[0] = y / beta
    previous = None
    for j in range(cap):
        w = lu.solve(basis[j])
        size = np.linalg.norm(w)
        for _ in range(2):
            coef = basis[:j + 1] @ w
            w -= coef @ basis[:j + 1]
            hess[:j + 1, j] += coef
        h = hess[j + 1, j] = np.linalg.norm(w)
        m = j + 1
        done = h <= _EPS * size or m == n  # an invariant space: exact
        if done or m % _KRYLOV_CHECK == 0:
            column, floor = _small_exponential(hess[:m, :m], dt / gamma)
            if previous is not None:
                change = np.linalg.norm(column - np.append(previous, np.zeros(m - previous.size)))
                done = done or beta * change <= max(target, beta * floor)
            if done:
                return beta * (column @ basis[:m])
            previous = column
        if m == cap:
            return None
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(m, cap - m), n))])
        basis[m] = w / h


def _exponential(matrix: sp.csr_matrix, y: np.ndarray, dt: float, rtol: float, atol: float,
                 factors: dict):
    """exp(dt L) y by the shift-and-invert Krylov exponential, for one interval.

    The shift gamma is ``_SHIFT_FRACTION`` times the interval rounded to
    12 digits, so that the intervals of a uniform grid, which differ in
    their last bits, share the banded LU of I - gamma L (``_BandedLU``)
    kept in ``factors``.  Re(lambda) <= 0, so that matrix is invertible.
    An interval whose Krylov space does not converge within
    ``_KRYLOV_MAX`` vectors is marked in ``factors`` and run as two
    halves.
    """
    length = float(f"{dt:.12g}")
    gamma = _SHIFT_FRACTION * length
    if length not in factors:
        n = matrix.shape[0]
        factors[length] = _BandedLU(-gamma * matrix, np.ones(n), _couplings(math.isqrt(n)).order,
                                    "I - gamma L")
    if factors[length] is not None:
        y_end = _krylov_exponential(factors[length], gamma, y, dt, rtol, atol)
        if y_end is not None:
            return y_end
        factors[length] = None
    half = dt / 2.0
    y_half = _exponential(matrix, y, half, rtol, atol, factors)
    return _exponential(matrix, y_half, half, rtol, atol, factors)


def propagate(
    liouv: LiouvillianMatrix,
    rho0: np.ndarray,
    times,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[np.ndarray]:
    """Density matrices at the ascending ``times`` from ``rho0`` at t = 0.

    exp(dt L) on the real coordinates (``vec``), from each output time to
    the next, by a shift-and-invert Krylov exponential (``_exponential``)
    whose steps are not bound by the stiffness of L.  Each distinct
    interval length is factored once per call, so a uniform grid costs
    one banded LU (``_BandedLU``); no factor outlives the call.  A time
    equal to the previous one (or to 0) repeats the state there.  The
    only propagator for density matrices.  A ``rho0`` that is not a
    Hermitian (N + 1) x (N + 1) matrix for the N of ``liouv`` raises
    ``ValueError``; a state that overflows raises ``IntegrationError``.
    """
    times = [float(t) for t in times]
    if not times or times[0] < 0.0 or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be ascending from t >= 0, got {times}")
    dim = liouv.basis.dim
    if np.shape(rho0) != (dim, dim):
        raise ValueError(
            f"rho0 has shape {np.shape(rho0)}, but the Liouvillian of N = {liouv.basis.n_spins} "
            f"acts on {dim} x {dim} density matrices"
        )
    factors: dict = {}
    t, y = 0.0, vec(rho0)
    states = []
    for t_out in times:
        if t_out > t:
            y = _exponential(liouv.matrix, y, t_out - t, rtol, atol, factors)
            t = t_out
        states.append(unvec(y, dim))
    return states


def evolve_rho(
    rho0: np.ndarray,
    params: ModelParams,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    liouv: LiouvillianMatrix | None = None,
) -> np.ndarray:
    """Integrate the master equation from ``rho0`` for time ``t_end``.

    Runs :func:`propagate`, one shift-and-invert Krylov exponential on
    one banded LU, to ``t_end``.  The result is exactly Hermitian.  With
    the default tolerances the trace drifted by at most 2.5e-13 over 60
    random models and states (N from 2 to 30, t_end from 0.1 to 100).  A
    ``rho0`` that is not Hermitian, or whose size does not match N (of
    ``liouv`` if given, else of ``params``), raises ``ValueError``.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if liouv is None:
        if params.N is None:
            raise ValueError("params.N must be set for quantum solvers")
        liouv = build_liouvillian(params, build_basis(params.N))
    return propagate(liouv, rho0, [float(t_end)], rtol, atol)[-1]


def magnetization(rho: np.ndarray) -> np.ndarray:
    """Normalized magnetization (tr(Jx rho), tr(Jy rho), tr(Jz rho)) / (N/2).

    The spin count is inferred from the matrix dimension; imaginary
    parts of the traces (below 1e-10 for any valid density matrix) are
    discarded.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    basis = build_basis(rho.shape[0] - 1)
    jx, jy, jz = op_cartesian(basis)
    scale = basis.n_spins / 2.0
    return np.array(
        [
            np.einsum("ij,ji->", jx, rho).real / scale,
            np.einsum("ij,ji->", jy, rho).real / scale,
            np.einsum("ij,ji->", jz, rho).real / scale,
        ]
    )


def ramped_evolution(
    rho0: np.ndarray,
    schedule: list[tuple[ModelParams, float]],
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> list[tuple[ModelParams, np.ndarray]]:
    """Evolve through a parameter schedule, carrying the state across steps.

    Each schedule entry is (params, window); the density matrix is
    evolved under each parameter set for its window and the
    magnetization at the window end is recorded.  Used for finite-size
    hysteresis loops; all entries must share the same N.  A ``rho0`` whose
    size does not match that N raises ``ValueError`` (``propagate``).
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    n_values = {p.N for p, _w in schedule}
    if len(n_values) != 1 or None in n_values:
        raise ValueError(f"all schedule entries must share one N, got {n_values}")
    basis = build_basis(schedule[0][0].N)
    rho = rho0
    out: list[tuple[ModelParams, np.ndarray]] = []
    for params, window in schedule:
        if window <= 0.0:
            raise ValueError(f"schedule windows must be positive, got {window}")
        liouv = build_liouvillian(params, basis)
        rho = evolve_rho(rho, params, window, rtol=rtol, atol=atol, liouv=liouv)
        out.append((params, magnetization(rho)))
    return out
