import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackNoConvergence, expm_multiply, spsolve

from dissipative_ising import (
    IntegrationError,
    LiouvillianMatrix,
    ModelParams,
    SolverError,
    analytic_p1,
    build_basis,
    build_hamiltonian,
    build_liouvillian,
    dicke_state_rho,
    evolve_rho,
    liouvillian_gap,
    magnetization,
    op_cartesian,
    op_ladder,
    propagate,
    ramped_evolution,
    steady_state,
    unvec,
    vec,
)
import dissipative_ising.liouville as liouville_module
from dissipative_ising.liouville import _BandedLU, _band_order, _sector_solver, _sectors
from dissipative_ising.meanfield import _dop853
from dissipative_ising.sweep import Axis, GridSpec, phase_diagram
from reference_ops import assembled_liouvillian, complex_liouvillian, hermitian_basis, lindblad_rhs

# (N, p, g, V) on which the real form and the steady state are checked
FORM_GRID = [
    (n, p, g, v)
    for n in (1, 2, 5, 10)
    for p, g, v in itertools.product(
        (0.0, 0.25, 0.5, 0.77, 1.0), (-3.0, -1.0, 0.0, 0.3, 1.0), (-5.0, 0.0, 2.0)
    )
]


def random_hermitian(rng, dim, unit_trace=False):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    if unit_trace:
        h = h / np.trace(h).real
    return h


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_model(rng, n):
    return ModelParams(
        V=float(rng.uniform(-8, 8)),
        g=float(rng.uniform(-3, 3)),
        p=float(rng.uniform(0, 1)),
        Gamma=float(rng.uniform(0.5, 2)),
        N=n,
    )


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def dense_gap(liouv):
    """Test oracle: the gap from the eigenvalues of the whole dense matrix
    above ``liouvillian_gap``'s zero threshold."""
    vals = scipy.linalg.eigvals(liouv.matrix.toarray())
    nonzero = vals[np.abs(vals) >= 1e-10 * max(liouv.scale, 1.0)]
    return float(abs(nonzero.real.max()))


class TestHamiltonian:
    def test_p0_pure_field_is_jz(self):
        prm = ModelParams(V=0, g=1, p=0, N=2)
        h = build_hamiltonian(prm, build_basis(2))
        assert np.abs(h - np.diag([1.0, 0.0, -1.0])).max() < 1e-15

    def test_p0_pure_interaction_is_jx_squared(self):
        prm = ModelParams(V=4, g=0, p=0, N=2)
        h = build_hamiltonian(prm, build_basis(2))
        expected = 0.5 * np.array([[1, 0, 1], [0, 2, 0], [1, 0, 1]], dtype=complex)
        assert np.abs(h - expected).max() < 1e-15

    def test_single_spin_interaction_is_constant(self):
        # Jx^2 = Jz^2 = I/4 for one spin, so V only shifts the energy
        basis = build_basis(1)
        for p in (0.0, 0.3, 1.0):
            h_int = build_hamiltonian(ModelParams(V=6, g=2, p=p, N=1), basis)
            h_free = build_hamiltonian(ModelParams(V=0, g=2, p=p, N=1), basis)
            diff = h_int - h_free
            assert np.abs(diff - diff[0, 0] * np.eye(2)).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 23])
    def test_hermitian(self, n):
        rng = np.random.default_rng(n)
        h = build_hamiltonian(random_model(rng, n), build_basis(n))
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams(V=1, g=1, p=0.5, N=3), build_basis(4))
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams(V=1, g=1, p=0.5), build_basis(4))


class TestLiouvillianMatrix:
    def test_size_guard(self):
        with pytest.raises(ValueError):
            build_liouvillian(ModelParams(V=1, g=1, p=0.5, N=201), build_basis(201))

    def test_pure_decay_dark_state(self):
        basis = build_basis(6)
        liouv = build_liouvillian(ModelParams(V=0, g=0, p=0, N=6), basis)
        pole = dicke_state_rho(basis, -3.0)
        assert np.abs(liouv.matrix @ vec(pole)).max() < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_trace_and_hermiticity_preservation(self, n):
        rng = np.random.default_rng(100 + n)
        basis = build_basis(n)
        liouv = build_liouvillian(random_model(rng, n), basis)
        for _ in range(20):
            rho = random_hermitian(rng, n + 1, unit_trace=True)
            image = unvec(liouv.matrix @ vec(rho), n + 1)
            assert abs(np.trace(image)) < 1e-12
            assert np.abs(image - image.conj().T).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kronecker_matches_direct_form(self, n):
        rng = np.random.default_rng(200 + n)
        basis = build_basis(n)
        prm = random_model(rng, n)
        liouv = build_liouvillian(prm, basis)
        ham = build_hamiltonian(prm, basis)
        jminus, _ = op_ladder(basis)
        rate = prm.Gamma / (2 * prm.N)
        for _ in range(5):
            rho = random_hermitian(rng, n + 1)
            via_matrix = unvec(liouv.matrix @ vec(rho), n + 1)
            direct = lindblad_rhs(rho, ham, jminus, rate)
            assert np.abs(via_matrix - direct).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_spectrum_in_left_half_plane_with_zero_mode(self, n):
        rng = np.random.default_rng(300 + n)
        liouv = build_liouvillian(random_model(rng, n), build_basis(n))
        vals = np.linalg.eigvals(liouv.matrix.toarray())
        assert vals.real.max() <= 1e-8
        assert np.abs(vals).min() < 1e-8 * max(liouv.scale, 1.0)
        # complex-conjugate pairing of the spectrum
        a = np.sort_complex(np.round(vals, 8))
        b = np.sort_complex(np.round(vals.conj(), 8))
        assert np.allclose(a, b, atol=1e-7)

    # (V, g, p, Gamma): generic, both p = 0 and p = 1, g = 0, V = 0 and
    # rates other than 1
    ASSEMBLY_MODELS = [(-5.0, -1.0, 0.6, 1.0), (-5.0, -3.0, 0.0, 1.0), (-5.0, 1.0, 1.0, 1.0),
                       (-5.0, 0.0, 0.3, 0.6), (0.0, 0.5, 0.77, 2.5), (2.0, 0.3, 0.0, 1.7),
                       (0.0, 0.0, 1.0, 1.3), (-1.0, 0.0, 0.0, 1.0)]

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    def test_cached_couplings_match_assembly_oracle(self, n):
        # oracle: the real form assembled entry by entry for each model;
        # the combination of the cached unit couplings rounds differently,
        # so agreement is to a few eps of the largest entry, with the same
        # band, and at p = 0 no stored entry links the parity sectors
        basis = build_basis(n)
        for v, g, p, gamma in self.ASSEMBLY_MODELS:
            liouv = build_liouvillian(ModelParams(V=v, g=g, p=p, Gamma=gamma, N=n), basis)
            oracle = assembled_liouvillian(liouv.params, basis)
            assert abs(liouv.matrix - oracle).max() <= 8 * np.finfo(float).eps * liouv.scale
            order, ones = _band_order(basis.dim), np.ones(liouv.dim)
            got = _BandedLU(-0.5 * liouv.matrix, ones, order, "I - gamma L")
            want = _BandedLU(-0.5 * oracle, ones, order, "I - gamma L")
            assert (got.kl, got.ku) == (want.kl, want.ku)
            if p == 0.0:
                (_, even, _, _), (_, odd, _, _) = _sectors(liouv)
                assert liouv.matrix[even][:, odd].nnz == 0 and liouv.matrix[odd][:, even].nnz == 0


class TestRealForm:
    """The real form against the complex Kronecker form of the test oracle."""

    def test_is_unitary_transform_of_complex_form_on_grid(self):
        bases = {n: hermitian_basis(n + 1) for n in (1, 2, 5, 10)}
        for n, p, g, v in FORM_GRID:
            prm = ModelParams(V=v, g=g, p=p, N=n)
            liouv = build_liouvillian(prm, build_basis(n))
            lc = complex_liouvillian(prm, build_basis(n))
            q = bases[n]
            assert liouv.matrix.dtype == np.float64
            expected = q.conj().T @ lc.toarray() @ q
            assert np.abs(liouv.matrix.toarray() - expected).max() < 1e-13, (n, p, g, v)

    def test_dense_spectrum_matches_complex_form_on_grid(self):
        # first-order perturbation bound for backward-stable eigensolvers:
        # |d lambda_i| <= kappa_i eps |L|_F, kappa_i = 1/|y_i^H x_i| from the
        # unit left and right eigenvectors of the complex form; 100 is slack
        # for the dimension factors.  Defective eigenvalues (kappa -> inf,
        # e.g. V = 0) are ill-posed in either form and get a vacuous bound.
        eps = np.finfo(float).eps
        for n, p, g, v in FORM_GRID:
            prm = ModelParams(V=v, g=g, p=p, N=n)
            liouv = build_liouvillian(prm, build_basis(n))
            lc = complex_liouvillian(prm, build_basis(n)).toarray()
            real_vals = scipy.linalg.eigvals(liouv.matrix.toarray())
            vals, left, right = scipy.linalg.eig(lc, left=True, right=True)
            kappa = 1.0 / np.abs(np.einsum("ij,ij->j", left.conj(), right))
            distance = np.abs(real_vals[:, None] - vals[None, :])
            rows, cols = linear_sum_assignment(distance)
            bound = 100.0 * kappa[cols] * eps * np.linalg.norm(lc)
            assert np.all(distance[rows, cols] <= bound), (n, p, g, v)

    def test_vec_is_oracle_coordinates(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 6):
            q = hermitian_basis(dim)
            rho = random_hermitian(rng, dim)
            coords = vec(rho)
            assert coords.dtype == np.float64
            assert np.abs(coords - q.conj().T @ rho.reshape(-1, order="F")).max() < 1e-15
            back = unvec(coords, dim)
            assert np.array_equal(back, back.conj().T)
            assert np.abs(back - rho).max() < 1e-15
            # complex coordinates extend linearly: unvec(x + iy) = unvec(x) + i unvec(y)
            other = vec(random_hermitian(rng, dim))
            mixed = unvec(coords + 1j * other, dim)
            assert np.abs(mixed - (unvec(coords, dim) + 1j * unvec(other, dim))).max() < 1e-15

    def test_non_hermitian_state_rejected(self):
        prm = ModelParams(V=-5, g=1, p=0.5, N=3)
        liouv = build_liouvillian(prm, build_basis(3))
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1j  # rho[1, 0] stays 0: an anti-Hermitian part
        with pytest.raises(ValueError, match="not Hermitian"):
            vec(rho)
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_rho(rho, prm, 1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            propagate(liouv, rho, [1.0], 1e-8, 1e-10)
        with pytest.raises(ValueError, match="not Hermitian"):
            ramped_evolution(rho, [(prm, 1.0)])
        # rounding-level asymmetry is not rejected; its Hermitian part is used
        nearly = np.eye(4, dtype=complex) / 4
        nearly[0, 1], nearly[1, 0] = 0.1 + 1e-17, 0.1
        assert np.array_equal(vec(nearly), vec((nearly + nearly.conj().T) / 2))


class TestSteadyState:
    def test_pure_decay_reaches_south_pole(self):
        basis = build_basis(5)
        liouv = build_liouvillian(ModelParams(V=0, g=0, p=0, N=5), basis)
        result = steady_state(liouv)
        assert trace_distance(result.rho, dicke_state_rho(basis, -2.5)) < 1e-10
        assert result.zero_multiplicity == 1

    def test_diagonal_interaction_keeps_pole_dark(self):
        # at p=1, g=0 the Hamiltonian is diagonal, so pure decay wins exactly
        for n in (4, 9):
            basis = build_basis(n)
            liouv = build_liouvillian(ModelParams(V=-5, g=0, p=1, N=n), basis)
            pole = dicke_state_rho(basis, -n / 2)
            assert np.abs(liouv.matrix @ vec(pole)).max() < 1e-12
            assert trace_distance(steady_state(liouv).rho, pole) < 1e-10

    def test_approaches_mean_field_with_size(self):
        z_mf = analytic_p1(ModelParams(V=-5, g=1, p=1))[2]
        z10 = magnetization(
            steady_state(
                build_liouvillian(ModelParams(V=-5, g=1, p=1, N=10), build_basis(10))
            ).rho
        )[2]
        z20 = magnetization(
            steady_state(
                build_liouvillian(ModelParams(V=-5, g=1, p=1, N=20), build_basis(20))
            ).rho
        )[2]
        assert abs(z10 - z_mf) < 0.1
        assert abs(z20 - z_mf) < abs(z10 - z_mf)

    def test_density_matrix_invariants(self):
        rng = np.random.default_rng(9)
        for n in (3, 8):
            liouv = build_liouvillian(random_model(rng, n), build_basis(n))
            rho = steady_state(liouv).rho
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_stationary_under_evolution(self):
        prm = ModelParams(V=-5, g=1, p=1, N=8)
        liouv = build_liouvillian(prm, build_basis(8))
        rho_ss = steady_state(liouv).rho
        rho_t = evolve_rho(rho_ss, prm, 50.0, liouv=liouv)
        assert trace_distance(rho_t, rho_ss) < 1e-8

    @staticmethod
    def dense_null_vector(liouv):
        # oracle: the eigenvector of the eigenvalue smallest in modulus,
        # from the full dense spectrum
        vals, vecs = scipy.linalg.eig(liouv.matrix.toarray())
        moduli = np.sort(np.abs(vals))
        assert moduli[1] > 1e3 * max(moduli[0], 1e-14)  # a simple zero mode
        rho = unvec(vecs[:, int(np.argmin(np.abs(vals)))], liouv.basis.dim)
        rho = rho / np.trace(rho)
        return (rho + rho.conj().T) / 2

    def test_matches_dense_null_vector_on_grid(self):
        cut = FORM_GRID + [(20, p, g, -5.0) for p in (0.0, 0.5, 0.77, 1.0) for g in (-3.0, 1.0)]
        for n, p, g, v in cut:
            liouv = build_liouvillian(ModelParams(V=v, g=g, p=p, N=n), build_basis(n))
            result = steady_state(liouv)
            reference = self.dense_null_vector(liouv)
            assert np.abs(result.rho - reference).max() < 1e-10, (n, p, g, v)
            assert result.residual <= 1e-8 and result.zero_multiplicity == 1

    def test_singular_or_inconsistent_system_raises(self):
        basis = build_basis(1)
        prm = ModelParams(V=1, g=1, p=0.5, N=1)
        # every rho is stationary: the bordered system is singular
        flat = LiouvillianMatrix(sp.csr_matrix((4, 4)), basis, prm)
        with pytest.raises(SolverError, match="singular"):
            steady_state(flat)
        # a map that does not preserve the trace has no steady state
        decay = LiouvillianMatrix(-sp.identity(4, format="csr"), basis, prm)
        with pytest.raises(SolverError, match="residual"):
            steady_state(decay)


class TestGap:
    def test_gap_positive_and_left_spectrum(self):
        rng = np.random.default_rng(31)
        for n in (3, 6):
            result = liouvillian_gap(
                build_liouvillian(random_model(rng, n), build_basis(n))
            )
            assert result.gap >= 0.0
            assert result.eigenvalues.real.max() <= 1e-8

    def test_iterative_matches_dense(self, monkeypatch):
        # N = 20 would take the dense branch; the Arnoldi branch is forced
        monkeypatch.setattr(liouville_module, "DENSE_N_MAX", 0)
        prm = ModelParams(V=-5, g=1, p=0, N=20)
        liouv = build_liouvillian(prm, build_basis(20))
        assert dense_gap(liouv) == pytest.approx(liouvillian_gap(liouv).gap, rel=1e-6)
        # and over a (p, g) grid: the Arnoldi pass on L^-1 returns the
        # modes nearest zero, so a slow mode far up the imaginary axis
        # can be missed (a gap off by O(0.1), always too large); where
        # the rightmost mode is among them its gap agrees with dense to
        # 1e-9
        basis = build_basis(20)
        missed = set()
        for p in (0.0, 0.25, 0.5, 0.77, 1.0):
            for g in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
                liouv = build_liouvillian(ModelParams(V=-5, g=g, p=p, N=20), basis)
                dense = dense_gap(liouv)
                iterative = liouvillian_gap(liouv).gap
                if abs(iterative - dense) > 1e-3:
                    assert iterative > dense, (p, g)
                    missed.add((p, g))
                else:
                    assert abs(iterative - dense) <= 1e-9, (p, g, iterative - dense)
        assert missed <= {(0.77, -3.0)}, missed

    def test_eigenvalues_sorted_by_real_part(self):
        liouv = build_liouvillian(ModelParams(V=-3, g=1.5, p=0.6, N=5), build_basis(5))
        vals = liouvillian_gap(liouv).eigenvalues
        assert np.all(np.diff(vals.real) <= 1e-12)


def odd_coordinates(dim):
    """Coordinates of ``vec`` whose matrix unit rho_jk has j - k odd."""
    odd = np.zeros((dim, dim), dtype=bool)
    j, k = np.indices((dim, dim))
    odd[(j - k) % 2 == 1] = True
    # a coordinate is odd when its basis matrix has only odd entries
    return np.array([odd[np.abs(unvec(e, dim)) > 0].all() for e in np.eye(dim * dim)])


class TestParitySectors:
    """At p = 0, L is block-diagonal in (j - k) mod 2 and the gap route
    solves the two parity sectors apart."""

    def test_blocks_exact_at_p0_only(self):
        basis = build_basis(20)
        odd = odd_coordinates(basis.dim)
        assert 0 < odd.sum() < odd.size
        for p, coupled in ((0.0, False), (0.25, True)):
            dense = build_liouvillian(ModelParams(V=-5, g=-3, p=p, N=20), basis).matrix.toarray()
            off_block = np.concatenate([dense[np.ix_(odd, ~odd)].ravel(), dense[np.ix_(~odd, odd)].ravel()])
            assert (np.abs(off_block).max() > 0.0) == coupled, p

    def test_p0_gap_matches_dense(self, monkeypatch):
        # the rightmost mode here is in the odd sector; N = 30 would take
        # the dense branch, and the Arnoldi branch is forced
        monkeypatch.setattr(liouville_module, "DENSE_N_MAX", 0)
        liouv = build_liouvillian(ModelParams(V=-5, g=-3, p=0, N=30), build_basis(30))
        assert abs(liouvillian_gap(liouv).gap - dense_gap(liouv)) <= 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_gap_route_steady_state(self, p):
        # N = 20 on the dense branch, N = 40 on the Arnoldi branch
        for n in (20, 40):
            liouv = build_liouvillian(ModelParams(V=-5, g=1, p=p, N=n), build_basis(n))
            spectral = liouvillian_gap(liouv)
            assert np.abs(spectral.steady_state - steady_state(liouv).rho).max() <= 1e-12, n
            assert spectral.zero_multiplicity == 1

    @pytest.mark.parametrize("n", [5, 20])
    def test_sector_split_dense_spectrum(self, n):
        # the two sectors' dense spectra together are the whole matrix's,
        # within twice the first-order bound of TestRealForm
        eps = np.finfo(float).eps
        for g in (-3.0, 1.0):
            liouv = build_liouvillian(ModelParams(V=-5, g=g, p=0, N=n), build_basis(n))
            whole = liouv.matrix.toarray()
            vals, left, right = scipy.linalg.eig(whole, left=True, right=True)
            kappa = 1.0 / np.abs(np.einsum("ij,ij->j", left.conj(), right))
            split = liouvillian_gap(liouv).eigenvalues
            assert split.size == liouv.dim
            distance = np.abs(split[:, None] - vals[None, :])
            rows, cols = linear_sum_assignment(distance)
            bound = 200.0 * kappa[cols] * eps * np.linalg.norm(whole)
            assert np.all(distance[rows, cols] <= bound), (n, g, distance[rows, cols].max())


def bordered_matrix(liouv):
    """Test oracle: L with row 0 replaced by the trace row, ones on the
    diagonal coordinates; its solution for e_0 is the steady state, and
    for [0; r[1:]] the traceless preimage of a traceless r."""
    lil = liouv.matrix.tolil()
    lil[0, :] = 0.0
    lil[0, :liouv.basis.dim] = 1.0
    return lil.tocsc()


class TestPinnedSolve:
    """The steady state and the gap factor L with one population row
    pinned; SuperLU (``spsolve``) of the bordered matrix is the oracle."""

    # (V, g, p, N): the grid, and a point whose fully-down population is
    # 9e-11 of the largest
    POINTS = [(-5.0, g, p, n) for n in (20, 50) for p in (0.0, 0.25, 0.5, 0.75, 1.0)
              for g in (-3.0, 0.0, 3.0)] + [(-5.0, -1.0, 0.5, 100)]

    @pytest.mark.parametrize("v,g,p,n", POINTS)
    def test_matches_bordered_superlu(self, v, g, p, n):
        liouv = build_liouvillian(ModelParams(V=v, g=g, p=p, N=n), build_basis(n))
        dim = liouv.basis.dim
        bordered = bordered_matrix(liouv)
        e0 = np.zeros(liouv.dim)
        e0[0] = 1.0
        reference = spsolve(bordered, e0)
        assert np.abs(vec(steady_state(liouv).rho) - reference).max() <= 1e-12 * np.abs(reference).max()
        # three fixed random traceless vectors through the gap route's
        # per-sector solves, scattered back to the whole space
        rng = np.random.default_rng(17)
        rs = rng.normal(size=(3, liouv.dim))
        rs[:, :dim] -= rs[:, :dim].mean(axis=1, keepdims=True)
        got = np.zeros_like(rs)
        for sector, coords, order, trace in _sectors(liouv):
            coords = np.arange(liouv.dim) if coords is None else coords
            block = liouv.matrix[coords][:, coords]
            steady, solve = _sector_solver(block, order, trace, liouv.scale, sector)
            if trace:
                assert np.abs(steady - reference[coords]).max() <= 1e-12 * np.abs(reference).max()
            for r, x in zip(rs, got):
                x[coords] = solve(r[coords])
        for r, x in zip(rs, got):
            rhs = r.copy()
            rhs[0] = 0.0
            expected = spsolve(bordered, rhs)
            assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max(), (p, g, n)

    @pytest.mark.parametrize("g,p,n,retried", [(-3.0, 0.75, 50, True), (-1.0, 0.5, 100, True),
                                              (0.0, 0.5, 50, False), (-3.0, 0.0, 50, False)])
    def test_one_refactorization_and_one_band_alive(self, monkeypatch, g, p, n, retried):
        # a fully-down population below 1e-2 of the largest is refactored
        # once, pinned at the largest, after the first factor is released;
        # the gap route pins the same way, and at p = 0 factors the odd
        # sector after releasing the even one
        factors = []

        def tracked_factor(*args):
            assert all(ref() is None for ref in factors)
            factor = _BandedLU(*args)
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(liouville_module, "_BandedLU", tracked_factor)
        liouv = build_liouvillian(ModelParams(V=-5.0, g=g, p=p, N=n), build_basis(n))
        populations = np.diag(steady_state(liouv).rho).real
        assert (populations[-1] < 1e-2 * populations.max()) == retried
        assert len(factors) == (2 if retried else 1)
        assert all(ref() is None for ref in factors)
        factors.clear()
        liouvillian_gap(liouv)
        assert len(factors) == (2 if retried else 1) + (p == 0.0)


class TestGapFailures:
    """A failed factorization or Arnoldi pass raises ``SolverError``
    naming its sector, and a sweep row records it; nothing is retried."""

    N = liouville_module.DENSE_N_MAX + 1  # the smallest N on the Arnoldi branch

    def gap_rows(self, p, n=N):
        grid = GridSpec(Axis("g", -3.0, -2.0, 2), None, ModelParams(V=-5, g=0, p=p, N=n))
        return phase_diagram(grid, solver="quantum", compute_gap=True)

    def test_arnoldi_failure(self, monkeypatch):
        calls = []
        real_eigs = liouville_module.eigs

        def fail_on_odd(operator, **kwargs):
            # the even sector is solved first, then the odd one
            calls.append(operator.shape)
            if len(calls) % 2 == 0:
                raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
            return real_eigs(operator, **kwargs)

        monkeypatch.setattr(liouville_module, "eigs", fail_on_odd)
        liouv = build_liouvillian(ModelParams(V=-5, g=-3, p=0, N=self.N), build_basis(self.N))
        with pytest.raises(SolverError, match="odd sector"):
            liouvillian_gap(liouv)
        assert len(calls) == 2
        calls.clear()
        rows = self.gap_rows(0.0)
        assert len(calls) == 4
        for row in rows:
            assert row.error.startswith("SolverError") and "odd sector" in row.error
            assert row.gap is None and math.isnan(row.selected_Z)

    def test_singular_factorization(self, monkeypatch):
        real_dgbtrf = scipy.linalg.lapack.dgbtrf

        def singular(band, kl, ku, **kwargs):
            # a zero first column: LAPACK reports a zero pivot
            band[:, 0] = 0.0
            return real_dgbtrf(band, kl, ku, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
        # the largest N on the dense branch and the smallest on the Arnoldi one
        for n in (self.N - 1, self.N):
            for p, sector in ((0.0, "even sector"), (0.5, "whole space")):
                liouv = build_liouvillian(ModelParams(V=-5, g=-3, p=p, N=n), build_basis(n))
                with pytest.raises(SolverError, match=sector):
                    liouvillian_gap(liouv)
                for row in self.gap_rows(p, n):
                    assert row.error.startswith("SolverError") and sector in row.error, n


class TestEvolveRho:
    def test_superradiant_decay_endpoint(self):
        basis = build_basis(6)
        prm = ModelParams(V=0, g=0, p=0, N=6)
        rho_t = evolve_rho(dicke_state_rho(basis, 3.0), prm, 80.0)
        assert trace_distance(rho_t, dicke_state_rho(basis, -3.0)) < 1e-8

    def test_trace_and_hermiticity_drift(self):
        rng = np.random.default_rng(55)
        prm = random_model(rng, 6)
        rho0 = random_density_matrix(rng, 7)
        rho_t = evolve_rho(rho0, prm, 20.0)
        assert abs(np.trace(rho_t).real - 1.0) < 1e-9
        assert np.abs(rho_t - rho_t.conj().T).max() < 1e-9

    def test_matches_independent_direct_integration(self):
        # independent oracle: integrate the direct-form right-hand side
        rng = np.random.default_rng(77)
        n = 6
        basis = build_basis(n)
        prm = random_model(rng, n)
        ham = build_hamiltonian(prm, basis)
        jminus, _ = op_ladder(basis)
        rate = prm.Gamma / (2 * prm.N)
        rho0 = random_density_matrix(rng, n + 1)

        def direct_rhs(_t, y):
            rho = y.reshape(n + 1, n + 1)
            return lindblad_rhs(rho, ham, jminus, rate).ravel()

        sol = solve_ivp(
            direct_rhs, (0.0, 5.0), rho0.ravel().astype(complex),
            method="DOP853", rtol=1e-11, atol=1e-13,
        )
        reference = sol.y[:, -1].reshape(n + 1, n + 1)
        rho_t = evolve_rho(rho0, prm, 5.0, rtol=1e-11, atol=1e-13)
        assert np.abs(rho_t - reference).max() < 1e-9

    def test_validation(self):
        prm = ModelParams(V=1, g=1, p=0.5, N=4)
        rho = np.eye(5) / 5
        with pytest.raises(ValueError):
            evolve_rho(rho, prm, -1.0)
        with pytest.raises(ValueError):
            evolve_rho(np.eye(4) / 4, prm, 1.0)  # N mismatch


class TestPropagate:
    """``propagate`` runs a shift-and-invert Krylov exponential from each
    output time to the next; ``expm_multiply`` and dense ``expm`` of the
    real Liouvillian are the oracles.  At rtol 1e-10 and atol 1e-12 the
    largest coordinate error is 3.2e-14 on the ``expm_multiply`` grid and
    8.8e-11 on the dense grid, at N = 20, p = 0, V = -5, g = -1 and an
    interval of 13, where the Krylov space misses a weakly damped mode
    at -1.06 +- 20.03i.  The bound is 1e-10."""

    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("v,g,p", [(-5.0, -1.0, 0.6), (-5.0, 1.0, 1.0), (2.0, 0.5, 0.0), (-1.0, -3.0, 0.3)])
    def test_against_expm_multiply(self, n, v, g, p):
        basis = build_basis(n)
        liouv = build_liouvillian(ModelParams(V=v, g=g, p=p, N=n), basis)
        rho0 = dicke_state_rho(basis, -basis.j)
        got = propagate(liouv, rho0, np.linspace(0.0, 10.0, 6), 1e-10, 1e-12)
        ref = expm_multiply(liouv.matrix, vec(rho0), start=0.0, stop=10.0, num=6, endpoint=True)
        assert max(np.abs(vec(a) - b).max() for a, b in zip(got, ref)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    @pytest.mark.parametrize("v,g,p", [(-5.0, -1.0, 0.0), (2.0, 0.5, 0.0), (-5.0, 1.0, 1.0), (-5.0, -3.0, 1.0)])
    def test_against_dense_expm(self, n, v, g, p):
        # oracle: scipy.linalg.expm of the dense real Liouvillian, per
        # interval from 0.01 to 40 and on a uniform snapshot grid
        basis = build_basis(n)
        liouv = build_liouvillian(ModelParams(V=v, g=g, p=p, N=n), basis)
        dense = liouv.matrix.toarray()
        rho0 = dicke_state_rho(basis, -basis.j)
        for dt in (0.01, 0.5, 5.0, 13.0, 40.0):
            got = vec(propagate(liouv, rho0, [dt], 1e-10, 1e-12)[-1])
            assert np.abs(got - scipy.linalg.expm(dt * dense) @ vec(rho0)).max() < 1e-10
        times = np.linspace(0.0, 6.0, 13)
        for t, state in zip(times, propagate(liouv, rho0, times, 1e-10, 1e-12)):
            assert np.abs(vec(state) - scipy.linalg.expm(t * dense) @ vec(rho0)).max() < 1e-10

    def test_one_factorization_per_interval_length(self, monkeypatch):
        calls = []

        def counting_factor(*args):
            calls.append(args[3])
            return _BandedLU(*args)

        monkeypatch.setattr(liouville_module, "_BandedLU", counting_factor)
        basis = build_basis(4)
        liouv = build_liouvillian(ModelParams(V=-5, g=1, p=0.5, N=4), basis)
        rho0 = dicke_state_rho(basis, -2.0)
        # the intervals of linspace differ in their last bits
        propagate(liouv, rho0, np.linspace(0.0, 6.0, 13), 1e-10, 1e-12)
        assert len(calls) == 1
        propagate(liouv, rho0, [0.5, 1.0, 3.0, 5.0], 1e-10, 1e-12)
        assert len(calls) == 3

    def test_interval_split_at_the_krylov_cap(self, monkeypatch):
        # with a cap of 20 vectors, an interval of 40 is halved down to
        # 128 steps of 0.3125: one factorization for each of 8 lengths
        calls = []

        def counting_factor(*args):
            calls.append(args[3])
            return _BandedLU(*args)

        monkeypatch.setattr(liouville_module, "_BandedLU", counting_factor)
        monkeypatch.setattr(liouville_module, "_KRYLOV_MAX", 20)
        basis = build_basis(10)
        liouv = build_liouvillian(ModelParams(V=-5.0, g=-1.0, p=0.6, N=10), basis)
        rho0 = dicke_state_rho(basis, -basis.j)
        got = vec(propagate(liouv, rho0, [40.0], 1e-10, 1e-12)[-1])
        ref = scipy.linalg.expm(40.0 * liouv.matrix.toarray()) @ vec(rho0)
        assert np.abs(got - ref).max() < 1e-10
        assert len(calls) == 8

    def test_zero_and_repeated_times(self):
        basis = build_basis(4)
        liouv = build_liouvillian(ModelParams(V=-5, g=1, p=0.5, N=4), basis)
        rho0 = random_density_matrix(np.random.default_rng(3), 5)
        states = propagate(liouv, rho0, [0.0, 0.0, 0.5, 0.5, 1.0], 1e-10, 1e-12)
        start = unvec(vec(rho0), 5)
        assert np.array_equal(states[0], start) and np.array_equal(states[1], start)
        assert np.array_equal(states[2], states[3])
        # the repeats change nothing downstream
        assert np.array_equal(states[4], propagate(liouv, rho0, [0.5, 1.0], 1e-10, 1e-12)[-1])

    def test_rho0_size_must_match(self):
        # an N = 5 Liouvillian acts on 6 x 6 density matrices; a 3 x 3 or
        # 8 x 8 rho0 is rejected, at t = 0 too, and on the paths of
        # evolve_rho with a given Liouvillian and of ramped_evolution
        prm = ModelParams(V=-5, g=1, p=0.5, N=5)
        liouv = build_liouvillian(prm, build_basis(5))
        for dim in (3, 8):
            rho0 = np.eye(dim) / dim
            message = rf"shape \({dim}, {dim}\).*6 x 6"
            for times in ([1.0], [0.0]):
                with pytest.raises(ValueError, match=message):
                    propagate(liouv, rho0, times, 1e-10, 1e-12)
            with pytest.raises(ValueError, match=message):
                evolve_rho(rho0, prm, 1.0, liouv=liouv)
            with pytest.raises(ValueError, match=message):
                ramped_evolution(rho0, [(prm, 1.0)])

    def test_times_validation(self):
        basis = build_basis(2)
        liouv = build_liouvillian(ModelParams(V=1, g=1, p=0.5, N=2), basis)
        rho0 = np.eye(3) / 3
        for times in ([], [-1.0, 1.0], [1.0, 0.5]):
            with pytest.raises(ValueError):
                propagate(liouv, rho0, times, 1e-10, 1e-12)

    def test_leaves_no_reference_to_the_liouvillian(self):
        basis = build_basis(4)
        liouv = build_liouvillian(ModelParams(V=-5, g=1, p=0.5, N=4), basis)
        matrix = weakref.ref(liouv.matrix)
        propagate(liouv, dicke_state_rho(basis, -2.0), [0.5, 1.0], 1e-10, 1e-12)
        del liouv
        gc.collect()
        assert matrix() is None

    def test_non_finite_rhs_raises(self):
        basis = build_basis(3)
        liouv = build_liouvillian(ModelParams(V=-5, g=1, p=0.5, N=3), basis)
        # a growth rate of 1e3 overflows the coordinates near t = 0.7
        growing = LiouvillianMatrix(
            matrix=(liouv.matrix + 1e3 * sp.identity(liouv.dim, format="csr")).tocsr(),
            basis=basis, params=liouv.params,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="propagated state is not finite"):
                propagate(growing, dicke_state_rho(basis, -1.5), [5.0], 1e-10, 1e-12)



class TestBandedLU:
    """The one sparse factor: LAPACK's banded LU with the coordinates in
    anti-diagonal order; ``spsolve`` is the oracle."""

    @staticmethod
    def liouvillian(n, v, g, p):
        return build_liouvillian(ModelParams(V=v, g=g, p=p, N=n), build_basis(n)).matrix

    @staticmethod
    def shifted(matrix, gamma):
        # propagation's factor of I - gamma L
        n = matrix.shape[0]
        return _BandedLU(-gamma * matrix, np.ones(n), _band_order(math.isqrt(n)), "I - gamma L")

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 30])
    def test_half_bandwidths(self, n):
        width = 2 * (n + 1) + 2
        generic = self.shifted(self.liouvillian(n, -5.0, -1.0, 0.6), 0.5)
        if n >= 4:  # below, the levels are too short to fill the band
            assert (generic.kl, generic.ku) == (width, width)
        for g, p in ((-1.0, 0.0), (-1.0, 1.0), (0.0, 0.6), (0.0, 0.0), (0.0, 1.0)):
            factor = self.shifted(self.liouvillian(n, -5.0, g, p), 0.5)
            assert factor.kl <= generic.kl and factor.ku <= generic.ku

    def test_pinned_and_sector_half_bandwidths(self, monkeypatch):
        # the pinned system keeps the band of I - gamma L; at p = 0 each
        # parity sector, in its own restricted order, has about half of it
        widths = {}

        def recording_factor(matrix, diagonal, order, name):
            factor = _BandedLU(matrix, diagonal, order, name)
            widths[name] = (factor.kl, factor.ku)
            return factor

        monkeypatch.setattr(liouville_module, "_BandedLU", recording_factor)
        for p in (0.0, 0.6):
            liouv = build_liouvillian(ModelParams(V=-5.0, g=-1.0, p=p, N=50), build_basis(50))
            steady_state(liouv)
            liouvillian_gap(liouv)
        assert widths == {
            "pinned system of the whole space": (104, 104),
            "pinned system of the even sector": (54, 54),
            "odd sector": (53, 53),
        }

    @pytest.mark.parametrize("n", [1, 2, 10, 30])
    @pytest.mark.parametrize("v,g,p", [(-5.0, -1.0, 0.6), (-5.0, -1.0, 0.0), (-5.0, 1.0, 1.0), (2.0, 0.0, 1.0)])
    def test_solve_matches_spsolve(self, n, v, g, p):
        matrix = self.liouvillian(n, v, g, p)
        rhs = np.random.default_rng(n).normal(size=matrix.shape[0])
        for gamma in (0.01, 0.8, 20.0):
            ref = spsolve((sp.identity(matrix.shape[0], format="csc") - gamma * matrix).tocsc(), rhs)
            got = self.shifted(matrix, gamma).solve(rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 10, 30])
    @pytest.mark.parametrize("v,g,p", [(-5.0, -1.0, 0.6), (-5.0, -1.0, 0.0), (-5.0, -3.0, 1.0), (0.0, 0.5, 1.0)])
    def test_trimmed_band_solves_bit_identically(self, monkeypatch, n, v, g, p):
        # every factor, propagation's and the pinned ones of the steady
        # state and the gap, keeps dgbtrf's buffer without the leading rows
        # that stayed zero; dgbtrs on an untrimmed copy of the same
        # factorization, taken before the trim, is the oracle
        dgbtrf = scipy.linalg.lapack.dgbtrf
        factored, factors = [], []

        def recording_dgbtrf(band, kl, ku, overwrite_ab):
            lu, pivots, info = dgbtrf(band, kl, ku, overwrite_ab=overwrite_ab)
            factored.append((lu, lu.copy(order="F")))
            return lu, pivots, info

        def recording_factor(*args):
            factors.append(_BandedLU(*args))
            return factors[-1]

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", recording_dgbtrf)
        monkeypatch.setattr(liouville_module, "_BandedLU", recording_factor)
        liouv = build_liouvillian(ModelParams(V=v, g=g, p=p, N=n), build_basis(n))
        steady_state(liouv)
        liouvillian_gap(liouv)
        factors.extend(self.shifted(liouv.matrix, gamma) for gamma in (0.01, 0.8, 20.0))
        assert len(factors) == len(factored)
        rng = np.random.default_rng(n)
        for factor, (lu, untrimmed) in zip(factors, factored):
            kl, ku = factor.kl, factor.ku
            dropped = untrimmed.shape[0] - factor.band.shape[0]
            assert untrimmed.shape[0] == 2 * kl + ku + 1 and 0 <= dropped <= ku
            assert not untrimmed[:dropped].any() and (dropped == ku or untrimmed[dropped].any())
            assert np.shares_memory(factor.band, lu) and factor.band.flags.f_contiguous
            rhs = rng.normal(size=factor.order.size)
            ref, info = scipy.linalg.lapack.dgbtrs(untrimmed, kl, ku, rhs[factor.order], factor.pivots)
            assert info == 0 and np.array_equal(factor.solve(rhs), ref[factor.rank])

    def test_zero_column_raises(self):
        # column 3 of I - gamma M is e_3 - gamma M[:, 3] = 0
        matrix = self.liouvillian(2, -5.0, 1.0, 0.5).tolil()
        matrix[:, 3] = 0.0
        matrix[3, 3] = 1.0 / 0.5
        with pytest.raises(SolverError, match="I - gamma L is singular"):
            self.shifted(matrix.tocsr(), 0.5)


class TestMagnetization:
    def test_poles_and_mixed_state(self):
        basis = build_basis(8)
        assert np.allclose(
            magnetization(dicke_state_rho(basis, -4.0)), [0, 0, -1], atol=1e-14
        )
        assert np.allclose(
            magnetization(dicke_state_rho(basis, 4.0)), [0, 0, 1], atol=1e-14
        )
        assert np.allclose(magnetization(np.eye(9) / 9), [0, 0, 0], atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            magnetization(np.zeros((3, 4)))


class TestRampedEvolution:
    def test_long_single_window_reaches_steady_state(self):
        prm = ModelParams(V=-5, g=1, p=1, N=8)
        basis = build_basis(8)
        rho0 = dicke_state_rho(basis, -4.0)
        records = ramped_evolution(rho0, [(prm, 800.0)])
        ss = steady_state(build_liouvillian(prm, basis))
        assert np.abs(records[0][1] - magnetization(ss.rho)).max() < 1e-4

    def test_tiny_window_keeps_initial_magnetization(self):
        prm = ModelParams(V=-5, g=1, p=0.5, N=6)
        basis = build_basis(6)
        rho0 = dicke_state_rho(basis, 3.0)
        records = ramped_evolution(rho0, [(prm, 1e-9)])
        assert np.abs(records[0][1] - magnetization(rho0)).max() < 1e-7

    def test_matches_dop853_ramp(self):
        # oracle: meanfield._dop853 at rtol 1e-12, atol 1e-14 over each
        # window, the state carried across the ten stations
        n, basis = 10, build_basis(10)
        schedule = [(ModelParams(V=-5.0, g=-1.0, p=float(p), N=n), 40.0)
                    for p in np.linspace(0.5, 1.0, 10)]
        rho0 = steady_state(build_liouvillian(schedule[0][0], basis)).rho
        y = vec(rho0)
        for (prm, window), (_prm, mag) in zip(schedule, ramped_evolution(rho0, schedule)):
            matrix = build_liouvillian(prm, basis).matrix
            y = _dop853(lambda _t, v: matrix @ v, y, 0.0, window, 1e-12, 1e-14)
            assert np.abs(mag - magnetization(unvec(y, basis.dim))).max() < 1e-12

    def test_schedule_validation(self):
        prm4 = ModelParams(V=1, g=1, p=0.5, N=4)
        prm5 = ModelParams(V=1, g=1, p=0.5, N=5)
        rho = np.eye(5) / 5
        with pytest.raises(ValueError):
            ramped_evolution(rho, [])
        with pytest.raises(ValueError):
            ramped_evolution(rho, [(prm4, 1.0), (prm5, 1.0)])
        with pytest.raises(ValueError):
            ramped_evolution(rho, [(prm4, -1.0)])


def resonance_fluorescence_rho(n: int, g: float, gamma: float) -> np.ndarray:
    """Closed-form steady state at p = 1, V = 0 (cooperative resonance
    fluorescence; Puri & Lawande, Phys. Lett. A 72, 200 (1979); Carmichael,
    J. Phys. B 13, 3551 (1980)): rho proportional to A A^dag with
    A = (1 - i c J-)^-1, c = Gamma / (g N).  J- is nilpotent, so A is the
    finite sum of (i c J-)^k; its entries are built from logarithms and
    scaled by the largest before exponentiating, so that N = 200 at small
    g does not overflow."""
    jminus, _ = op_ladder(build_basis(n))
    log_lower = np.log(np.diagonal(jminus.real, -1))  # J-[k+1, k]
    cumulative = np.concatenate([[0.0], np.cumsum(log_lower)])
    k = np.arange(n + 1)
    row, col = k[:, None], k[None, :]
    power = np.where(row >= col, row - col, 0)
    log_mod = np.where(row >= col,
                       power * math.log(gamma / (g * n)) + cumulative[row] - cumulative[col], -np.inf)
    a = np.exp(log_mod - log_mod.max()) * 1j ** power
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestExactOracles:
    """Closed forms of the quantum model at large N."""

    @staticmethod
    def assert_closed_form(rho, n, g, gamma):
        exact = resonance_fluorescence_rho(n, g, gamma)
        assert np.abs(rho - exact).max() < 1e-12
        # <J> / (N/2) of the closed form: Z from the populations, X and Y
        # from <J+> = <Jx> + i <Jy> = sum_k <m_k| J+ |m_(k+1)> rho_(k+1)k
        j, m = n / 2.0, n / 2.0 - np.arange(n + 1)
        raising = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
        j_plus = np.sum(raising * np.diagonal(exact, -1))
        expected = np.array([j_plus.real, j_plus.imag, np.sum(m * np.diag(exact).real)]) / j
        assert np.abs(magnetization(rho) - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [10, 50, 100, 200])
    @pytest.mark.parametrize("g", [0.05, 0.2, 0.5, 1.0])
    def test_cooperative_resonance_fluorescence(self, n, g):
        prm = ModelParams(V=0.0, g=g, p=1.0, N=n)
        rho = steady_state(build_liouvillian(prm, build_basis(n))).rho
        self.assert_closed_form(rho, n, g, prm.Gamma)

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("g", [0.05, 0.2, 0.5, 1.0])
    def test_cooperative_resonance_fluorescence_gap_route(self, n, g):
        prm = ModelParams(V=0.0, g=g, p=1.0, N=n)
        rho = liouvillian_gap(build_liouvillian(prm, build_basis(n))).steady_state
        self.assert_closed_form(rho, n, g, prm.Gamma)

    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_gap_is_half_gamma_at_p1_g0(self, n):
        # L is triangular in the Dicke basis; the slowest mode is the
        # coherence between the south pole and the level above it
        liouv = build_liouvillian(ModelParams(V=-5.0, g=0.0, p=1.0, N=n), build_basis(n))
        assert abs(liouvillian_gap(liouv).gap - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [50, 100])
    def test_propagation_is_the_death_chain_at_p1_g0(self, n):
        # H = (V/2N) Jz^2 is diagonal, so the populations form a pure-death
        # chain: Dicke level k decays into k + 1 at rate (Gamma/N) J-[k+1, k]^2,
        # and the coherences of a diagonal state stay 0
        prm = ModelParams(V=-5.0, g=0.0, p=1.0, N=n)
        basis = build_basis(n)
        jminus, _ = op_ladder(basis)
        rates = (prm.Gamma / n) * jminus.real**2
        chain = rates - np.diag(rates.sum(axis=0))
        rho0 = dicke_state_rho(basis, basis.j)
        times = [0.05, 0.5, 2.0, 10.0]
        states = propagate(build_liouvillian(prm, basis), rho0, times, 1e-10, 1e-12)
        for t, rho in zip(times, states):
            populations = scipy.linalg.expm(t * chain) @ np.diag(rho0).real
            assert np.abs(np.diag(rho).real - populations).max() < 1e-10
            assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-12
