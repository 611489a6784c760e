"""Collective spin operators on the maximal angular momentum manifold.

For an ensemble of N spin-1/2 particles the collective operators
J_a = sum_m j_a^(m) (a = x, y, z) close on the (N+1)-dimensional
subspace of maximal total spin j = N/2 (the Dicke ladder), which is
preserved by collective decay.  Everything downstream -- Hamiltonians,
Liouvillians, expectation values -- is built from the dense matrices
constructed here.

Conventions
-----------
* Basis states |j, m> are ordered by m descending from +j to -j, so Jz
  is diagonal with decreasing entries and J- has its nonzero elements
  one place below the diagonal.
* j is stored as the integer 2j so that indexing stays exact for odd N.
* All matrices are complex128 and of shape (N+1, N+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DickeBasis",
    "build_basis",
    "op_ladder",
    "op_cartesian",
    "spin_coherent_state",
]


@dataclass(frozen=True)
class DickeBasis:
    """Index bookkeeping for the j = N/2 angular-momentum ladder.

    Attributes
    ----------
    n_spins : int
        Number of spin-1/2 particles N.
    two_j : int
        Twice the total angular momentum, 2j = N.
    dim : int
        Dimension of the manifold, N + 1.
    m_values : tuple of float
        Eigenvalues of Jz in basis order, +j, +j-1, ..., -j.
    """

    n_spins: int
    two_j: int
    dim: int
    m_values: tuple[float, ...]

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    def index_of_m(self, m: float) -> int:
        """Basis index of the eigenstate |j, m> (m must be on the ladder)."""
        k = (self.two_j - round(2 * m)) / 2
        if k != int(k) or not 0 <= k < self.dim:
            raise ValueError(f"m={m} is not on the ladder for j={self.j}")
        return int(k)


def build_basis(n_spins: int) -> DickeBasis:
    """Construct the maximal-j basis for ``n_spins`` spin-1/2 particles.

    Raises
    ------
    ValueError
        If ``n_spins`` is not a positive integer.
    """
    if not isinstance(n_spins, (int, np.integer)) or isinstance(n_spins, bool):
        raise ValueError(f"spin count must be a positive integer, got {n_spins!r}")
    if n_spins < 1:
        raise ValueError(f"spin count must be >= 1, got {n_spins}")
    two_j = int(n_spins)
    dim = two_j + 1
    m_values = tuple((two_j - 2 * k) / 2.0 for k in range(dim))
    return DickeBasis(n_spins=int(n_spins), two_j=two_j, dim=dim, m_values=m_values)


def op_ladder(basis: DickeBasis) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising operators (J-, J+) on the ladder.

    Matrix elements follow <j, m-1| J- |j, m> = sqrt(j(j+1) - m(m-1));
    J+ is returned as the exact conjugate transpose of J-.
    """
    j = basis.j
    jminus = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k, m in enumerate(basis.m_values[:-1]):
        jminus[k + 1, k] = math.sqrt(j * (j + 1) - m * (m - 1))
    jplus = jminus.conj().T.copy()
    return jminus, jplus


def op_cartesian(basis: DickeBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartesian components (Jx, Jy, Jz).

    Jx = (J+ + J-)/2 and Jy = (J+ - J-)/(2i) are Hermitian tridiagonal;
    Jz is diagonal with the m values of the basis ordering.
    """
    jminus, jplus = op_ladder(basis)
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    jz = np.diag(np.asarray(basis.m_values, dtype=complex))
    return jx, jy, jz


def spin_coherent_state(basis: DickeBasis, theta: float, phi: float) -> np.ndarray:
    """Spin coherent state |theta, phi> as a normalized ladder vector.

    theta = 0 gives the top state |j, +j>, theta = pi the bottom state
    |j, -j>.  Amplitudes on |j, m = j-k> are binomial,
    sqrt(C(N, k)) cos(theta/2)^(N-k) (e^{i phi} sin(theta/2))^k.
    """
    n = basis.n_spins
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    amp = np.array(
        [
            math.sqrt(math.comb(n, k)) * c ** (n - k) * s**k * np.exp(1j * phi * k)
            for k in range(basis.dim)
        ],
        dtype=complex,
    )
    return amp / np.linalg.norm(amp)
