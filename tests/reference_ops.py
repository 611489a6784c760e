"""Independent reference formulas the superoperator and operator tests
compare the package against.

``lindblad_rhs`` writes the master equation in direct matrix form, with
no vectorization; ``complex_liouvillian`` is the complex Kronecker form
on column-stacked rho, and ``hermitian_basis`` the unitary that carries
it to the package's real form; ``op_casimir`` is J^2 = j(j+1) I on the
maximal-spin manifold.
"""

import numpy as np
import scipy.sparse as sp

from dissipative_ising import build_hamiltonian, op_ladder


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
