"""Independent reference formulas the superoperator and operator tests
compare the package against.

``lindblad_rhs`` writes the master equation in direct matrix form, with
no vectorization; ``complex_liouvillian`` is the complex Kronecker form
on column-stacked rho, and ``hermitian_basis`` the unitary that carries
it to the package's real form; ``assembled_liouvillian`` assembles the
real form entry by entry from H and J- for each model, as the package
did before it combined cached unit couplings; ``op_casimir`` is
J^2 = j(j+1) I on the maximal-spin manifold.
"""

import numpy as np
import scipy.sparse as sp

from dissipative_ising import build_hamiltonian, op_ladder
from dissipative_ising.liouville import _unit_coordinates


def lindblad_rhs(rho, hamiltonian, jump, rate):
    """-i[H, rho] + rate (2 J rho J+ - J+J rho - rho J+J), J+ = jump^dagger."""
    jdag = jump.conj().T
    jdj = jdag @ jump
    comm = hamiltonian @ rho - rho @ hamiltonian
    return -1j * comm + rate * (2.0 * jump @ rho @ jdag - jdj @ rho - rho @ jdj)


def op_casimir(basis):
    """Total angular momentum squared, j(j+1) times the identity."""
    j = basis.j
    return j * (j + 1) * np.eye(basis.dim, dtype=complex)


def complex_liouvillian(params, basis):
    """L on column-stacked rho, where A rho B is (B^T kron A) vec(rho).

    L = -i (I kron H - H^T kron I)
        + (Gamma/2N) (2 (J+)^T kron J- - I kron J+J- - (J+J-)^T kron I).
    """
    ham = sp.csr_matrix(build_hamiltonian(params, basis))
    jminus, jplus = op_ladder(basis)
    jm = sp.csr_matrix(jminus)
    jp = sp.csr_matrix(jplus)
    jpjm = (jp @ jm).tocsr()
    eye = sp.identity(basis.dim, dtype=complex, format="csr")
    rate = params.Gamma / (2.0 * params.N)
    lmat = -1j * (sp.kron(eye, ham) - sp.kron(ham.T, eye))
    lmat = lmat + rate * (
        2.0 * sp.kron(jp.T, jm) - sp.kron(eye, jpjm) - sp.kron(jpjm.T, eye)
    )
    return lmat.tocsr()


def hermitian_basis(dim):
    """Unitary Q whose columns are the column-stacked basis matrices.

    E_kk, then (E_jk + E_kj)/sqrt(2), then i (E_jk - E_kj)/sqrt(2) over
    j < k in row-major order, one matrix at a time; the coordinates of a
    Hermitian rho are Q^dag vec(rho), and the real form is Q^dag L Q.
    """
    columns = []
    for k in range(dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[k, k] = 1.0
        columns.append(unit)
    pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
    for phase in (1.0, 1j):
        for j, k in pairs:
            unit = np.zeros((dim, dim), dtype=complex)
            unit[j, k] = phase / np.sqrt(2.0)
            unit[k, j] = np.conj(phase) / np.sqrt(2.0)
            columns.append(unit)
    return np.array([unit.reshape(-1, order="F") for unit in columns]).T


def assembled_liouvillian(params, basis):
    """The real form of L, assembled from H and J- for this one model.

    The dissipator D(X) = (Gamma/2N)(2 J- X J+ - {J+J-, X}) and the
    commutator C(X) = [H, X] are real maps of real matrices.  Their
    entries between matrix units are carried to coordinates through the
    isometries of ``_unit_coordinates``, Ps onto the diagonal and
    sqrt(2) Re coordinates and Pa onto the sqrt(2) Im ones:

        L = [[Ps^T D Ps,   Ps^T C Pa],
             [-Pa^T C Ps,  Pa^T D Pa]].

    Duplicates are summed, and exact zeros dropped.
    """
    dim = basis.dim
    ham = build_hamiltonian(params, basis).real
    jminus, _jplus = op_ladder(basis)
    lower = np.diagonal(jminus.real, -1)  # J-[k+1, k]
    k_diag = np.append(lower**2, 0.0)  # J+J- is diagonal
    rate = params.Gamma / (2.0 * params.N)
    units = np.arange(dim * dim)
    a, b = np.divmod(units, dim)
    # (row unit, column unit, value) of D: X_ce feeds (c+1, e+1) through
    # 2 J- X J+, and every X_ab itself through -{J+J-, X}
    c, e = np.divmod(np.arange((dim - 1) ** 2), dim - 1)
    dissipator = (
        np.concatenate([units, (c + 1) * dim + e + 1]),
        np.concatenate([units, c * dim + e]),
        np.concatenate([-rate * (k_diag[a] + k_diag[b]), 2.0 * rate * lower[c] * lower[e]]),
    )
    # and of C: X_xt feeds (a, t) through H_ax, X_tx feeds (t, b) through -H_xb
    h_row, h_col = np.nonzero(ham)
    h_val = ham[h_row, h_col]
    t = np.arange(dim)
    commutator = (
        np.concatenate([(h_row[:, None] * dim + t).ravel(), (t[:, None] * dim + h_col).ravel()]),
        np.concatenate([(h_col[:, None] * dim + t).ravel(), (t[:, None] * dim + h_row).ravel()]),
        np.concatenate([np.repeat(h_val, dim), -np.tile(h_val, dim)]),
    )
    sym, anti = _unit_coordinates(dim)
    rows, cols, vals = [], [], []
    for (r, col, v), (r_slot, r_w), (c_slot, c_w), sign in (
        (dissipator, sym, sym, 1.0),
        (dissipator, anti, anti, 1.0),
        (commutator, sym, anti, 1.0),
        (commutator, anti, sym, -1.0),
    ):
        keep = (r_slot[r] >= 0) & (c_slot[col] >= 0)
        r, col, v = r[keep], col[keep], v[keep]
        rows.append(r_slot[r])
        cols.append(c_slot[col])
        vals.append(sign * v * r_w[r] * c_w[col])
    lmat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim * dim, dim * dim),
    )
    lmat.eliminate_zeros()
    return lmat
