"""Independent reference formulas the superoperator and operator tests
compare the package against.

``lindblad_rhs`` writes the master equation in direct matrix form, with
no vectorization, as a counterpart to the Kronecker-form Liouvillian;
``op_casimir`` is J^2 = j(j+1) I on the maximal-spin manifold.
"""

import numpy as np


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
