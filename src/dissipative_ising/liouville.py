"""Full quantum treatment on the Dicke manifold: Liouvillian spectra.

The master equation for the collective spin with Hamiltonian

    H = (1-p) [ (V/2N) Jx^2 + g Jz ] + p [ (V/2N) Jz^2 + g Jx ]

and collective decay at rate Gamma reads

    drho/dt = -i [H, rho] + (Gamma/2N) (2 J- rho J+ - {J+ J-, rho}).

Vectorizing rho by column stacking (Fortran order), A rho B maps to
(B^T kron A) vec(rho), so the Liouvillian matrix is

    L = -i (I kron H - H^T kron I)
        + (Gamma/2N) (2 (J+)^T kron J-  -  I kron J+J-  -  (J+J-)^T kron I).

For this model H is real symmetric and J- real, so the matrix above
coincides with the standard Kronecker form quoted for superoperators;
the tests cross-check it against the direct-form right-hand side.

Eigenvalue conventions: the spectrum lies in the closed left half
plane; the eigenvector of the (unique, for generic finite N) zero
eigenvalue is the steady state, and the gap is |Re| of the nonzero
eigenvalue closest to the imaginary axis (the asymptotic decay rate).

Each question has one route, for every N up to ``N_LIMIT``:

* steady state: one sparse LU solve of L with its first row replaced
  by the trace functional (``steady_state``);
* gap: a dense eigendecomposition up to ``DENSE_N_MAX`` spins and
  shift-invert Arnoldi near zero above; this is the only size
  dispatch in the package (``liouvillian_gap``);
* time evolution: one DOP853 integration of the vectorized linear
  system (``propagate``, behind ``evolve_rho`` and
  ``ramped_evolution``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigs, splu

from .errors import IntegrationError, SolverError
from .meanfield import ModelParams
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

# The gap comes from a dense full diagonalization up to this spin
# count and from shift-invert Arnoldi beyond it.
DENSE_N_MAX = 30
# The one cap on N for every quantum solver and sweep.
N_LIMIT = 200


@dataclass(frozen=True)
class LiouvillianMatrix:
    """Vectorized Liouvillian (column stacking) with its provenance."""

    matrix: sp.csr_matrix
    basis: DickeBasis
    params: ModelParams

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def scale(self) -> float:
        """Max-abs entry, the norm used for zero-eigenvalue thresholds."""
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state density matrix; the zero eigenvalue is simple."""

    rho: np.ndarray
    residual: float
    zero_multiplicity: int


@dataclass(frozen=True)
class SpectralResult:
    """Liouvillian eigenvalues (descending real part), gap, steady state."""

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


def build_liouvillian(params: ModelParams, basis: DickeBasis) -> LiouvillianMatrix:
    """Sparse matrix of the Liouvillian acting on column-stacked rho."""
    _require_matching_n(params, basis)
    if params.N > N_LIMIT:
        raise ValueError(
            f"N={params.N} exceeds the supported maximum {N_LIMIT} "
            f"(Liouvillian dimension would be {(params.N + 1) ** 2})"
        )
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
    return LiouvillianMatrix(matrix=lmat.tocsr(), basis=basis, params=params)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix (Fortran-order flatten)."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def dicke_state_rho(basis: DickeBasis, m: float) -> np.ndarray:
    """Projector |j, m><j, m| as a density matrix."""
    k = basis.index_of_m(m)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[k, k] = 1.0
    return rho


def _eigs_near_zero(matrix: sp.csr_matrix, k: int, scale: float):
    """Shift-invert Arnoldi for the k eigenvalues nearest zero.

    The Liouvillian is singular at exactly zero, so the shift starts a
    hair to the right of the origin and is backed off on factorization
    or convergence failures.  A fixed, deterministic starting vector
    keeps repeated runs bit-identical.
    """
    dim = matrix.shape[0]
    k = min(k, dim - 2)
    if k < 1:
        raise SolverError(f"matrix dimension {dim} too small for iterative solve")
    v0 = np.ones(dim, dtype=complex) / np.sqrt(dim)
    failures = []
    for sigma_rel in (1e-10, 1e-8, 1e-6, 1e-4):
        sigma = sigma_rel * max(scale, 1.0)
        try:
            vals, vecs = eigs(matrix, k=k, sigma=sigma, which="LM", v0=v0, maxiter=5000)
            return vals, vecs
        except (ArpackError, ArpackNoConvergence, RuntimeError, ValueError) as exc:
            failures.append(f"sigma={sigma:.2e}: {exc}")
    raise SolverError(
        "shift-invert Arnoldi failed for all shifts:\n" + "\n".join(failures)
    )


def _normalized_rho(rho: np.ndarray, liouv: LiouvillianMatrix):
    """Hermitian part of ``rho`` at unit trace, and its residual |L vec(rho)|.

    Positivity is checked and warned about, not enforced.
    """
    rho = (rho + rho.conj().T) / 2.0
    tr = np.trace(rho).real
    rho = rho / tr
    residual = float(np.linalg.norm(liouv.matrix @ vec(rho)))
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-8:
        warnings.warn(
            f"extracted steady state has eigenvalue {min_eig:.2e} < -1e-8; "
            "the solve may be inaccurate",
            stacklevel=3,
        )
    return rho, residual


def steady_state(liouv: LiouvillianMatrix) -> SteadyStateResult:
    """Steady state from one sparse direct solve, for every N.

    The first row of L is replaced by the trace functional, and
    L' vec(rho) = e_1 is solved by sparse LU.  Trace preservation makes
    that row a combination of the others, so the bordered matrix is
    invertible exactly when the zero eigenvalue of L is simple; a
    singular factorization raises ``SolverError``, and so does a
    residual |L vec(rho)| above 1e-8.  The result is Hermitized and
    trace-normalized; positivity is warned about, not enforced.
    """
    dim = liouv.basis.dim
    trace_row = sp.csr_matrix(
        (np.ones(dim), (np.zeros(dim, dtype=int), np.arange(dim) * (dim + 1))),
        shape=(1, dim * dim),
    )
    bordered = sp.vstack([trace_row, liouv.matrix[1:]], format="csc")
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    try:
        solution = splu(bordered).solve(rhs)
    except RuntimeError as exc:
        raise SolverError(
            f"bordered steady-state system is singular ({exc}); "
            "the zero eigenvalue is not simple"
        ) from exc
    rho, residual = _normalized_rho(unvec(solution, dim), liouv)
    if residual > 1e-8:
        raise SolverError(f"steady-state residual {residual:.3e} exceeds 1e-8")
    return SteadyStateResult(rho=rho, residual=residual, zero_multiplicity=1)


def _spectral_result(vals: np.ndarray, vecs: np.ndarray, liouv: LiouvillianMatrix) -> SpectralResult:
    """Gap, zero mode and sorted eigenvalues from (part of) the spectrum."""
    tol = 1e-10 * max(liouv.scale, 1.0)  # |lambda| below this counts as zero
    moduli = np.abs(vals)
    near_zero = np.flatnonzero(moduli < tol)
    multiplicity = int(near_zero.size)
    candidates = list(near_zero) if multiplicity else [int(np.argmin(moduli))]
    # the zero mode is the candidate with the largest trace
    modes = [unvec(vecs[:, i], liouv.basis.dim) for i in candidates]
    traces = [abs(np.trace(mode)) for mode in modes]
    best = int(np.argmax(traces))
    if traces[best] < 1e-10:
        raise SolverError(
            "zero-eigenvalue eigenvector is traceless; no steady state extracted"
        )
    rho, _residual = _normalized_rho(modes[best], liouv)

    nonzero = vals[moduli >= tol]
    if nonzero.size == 0:
        gap = 0.0
    else:
        gap = float(abs(nonzero.real.max()))
    sorted_second = np.sort(moduli)
    if sorted_second.size > 1 and tol <= sorted_second[1] < 10.0 * tol:
        warnings.warn(
            f"second eigenvalue modulus {sorted_second[1]:.2e} is within 10x of "
            f"the zero threshold {tol:.2e}; gap/steady-state separation is marginal",
            stacklevel=3,
        )
    order = np.lexsort((vals.imag, -vals.real))
    return SpectralResult(
        eigenvalues=vals[order],
        gap=gap,
        steady_state=rho,
        zero_multiplicity=max(multiplicity, 1),
    )


def liouvillian_gap(liouv: LiouvillianMatrix, k: int = 12) -> SpectralResult:
    """Liouvillian spectrum near zero and the asymptotic decay rate.

    The gap is |Re| of the nonzero eigenvalue with the largest real
    part, after excluding eigenvalues with |lambda| below 1e-10 times
    the max-abs matrix entry.  The solver follows from N alone: up to
    ``DENSE_N_MAX`` spins the full spectrum comes from a dense
    eigendecomposition; above it, shift-invert Arnoldi returns the
    ``k`` eigenvalues nearest zero.  The steady state and
    zero multiplicity come from the zero mode of the same eigensolve.
    In a gapless/degenerate window the zero multiplicity is reported
    rather than failing.

    Known limitation: the iterative gap is the rightmost of the ``k``
    eigenvalues smallest in modulus, not the rightmost eigenvalue.  A
    slow mode far up the imaginary axis is missed and the gap comes
    out too large: at N = 50, V = -5, p = 0, g = -3 it reads 0.987,
    while the full spectrum has a nonzero mode with real part -0.499.
    """
    if liouv.basis.n_spins <= DENSE_N_MAX:
        vals, vecs = scipy.linalg.eig(liouv.matrix.toarray())
    else:
        vals, vecs = _eigs_near_zero(liouv.matrix, k=k, scale=liouv.scale)
    return _spectral_result(vals, vecs, liouv)


def propagate(
    liouv: LiouvillianMatrix,
    rho0: np.ndarray,
    times,
    rtol: float,
    atol: float,
) -> list[np.ndarray]:
    """Density matrices at ``times`` from ``rho0`` at t = 0.

    One DOP853 integration of the vectorized linear system up to
    ``times[-1]``, reporting the ascending output ``times``.  The only
    propagator for density matrices.
    """
    matrix = liouv.matrix
    dim = liouv.basis.dim
    sol = solve_ivp(
        lambda _t, y: matrix @ y,
        (0.0, float(times[-1])),
        vec(rho0),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=times,
    )
    if not sol.success:
        raise IntegrationError(f"master-equation integration failed: {sol.message}")
    return [unvec(sol.y[:, i], dim) for i in range(sol.y.shape[1])]


def evolve_rho(
    rho0: np.ndarray,
    params: ModelParams,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    liouv: LiouvillianMatrix | None = None,
) -> np.ndarray:
    """Integrate the master equation from ``rho0`` for time ``t_end``.

    Runs :func:`propagate` (the adaptive explicit scheme of the
    mean-field module) to ``t_end``.  With the default tolerances trace
    and Hermiticity drift stay below 1e-9.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"rho0 must be square, got shape {rho0.shape}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    dim = rho0.shape[0]
    if liouv is None:
        if params.N is None or params.N + 1 != dim:
            raise ValueError(
                f"params.N={params.N} inconsistent with rho0 dimension {dim}"
            )
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
    hysteresis loops; all entries must share the same N.
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    n_values = {p.N for p, _w in schedule}
    if len(n_values) != 1 or None in n_values:
        raise ValueError(f"all schedule entries must share one N, got {n_values}")
    n = schedule[0][0].N
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (n + 1, n + 1):
        raise ValueError(
            f"rho0 shape {rho.shape} does not match N={n} (expected {(n + 1, n + 1)})"
        )
    basis = build_basis(n)
    out: list[tuple[ModelParams, np.ndarray]] = []
    for params, window in schedule:
        if window <= 0.0:
            raise ValueError(f"schedule windows must be positive, got {window}")
        liouv = build_liouvillian(params, basis)
        rho = evolve_rho(rho, params, window, rtol=rtol, atol=atol, liouv=liouv)
        out.append((params, magnetization(rho)))
    return out
