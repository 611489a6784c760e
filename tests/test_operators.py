import math

import numpy as np
import pytest

from dissipative_ising import (
    build_basis,
    op_cartesian,
    op_ladder,
    spin_coherent_state,
)
from reference_ops import op_casimir


def maxabs(a):
    return np.abs(a).max()


class TestBasis:
    def test_single_spin(self):
        b = build_basis(1)
        assert b.j == 0.5
        assert b.dim == 2
        assert b.m_values == (0.5, -0.5)

    def test_two_spins(self):
        b = build_basis(2)
        assert b.j == 1.0
        assert b.dim == 3
        assert b.m_values == (1.0, 0.0, -1.0)

    def test_fifty_spins(self):
        assert build_basis(50).dim == 51

    def test_m_ordering_descending(self):
        b = build_basis(7)
        diffs = np.diff(b.m_values)
        assert np.all(diffs == -1.0)
        assert b.dim == b.two_j + 1 == 8

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3", None, True])
    def test_invalid_spin_count(self, bad):
        with pytest.raises(ValueError):
            build_basis(bad)

    def test_index_of_m(self):
        b = build_basis(4)
        assert b.index_of_m(2.0) == 0
        assert b.index_of_m(-2.0) == 4
        with pytest.raises(ValueError):
            b.index_of_m(0.3)


class TestLadder:
    def test_spin_half_coefficient(self):
        b = build_basis(1)
        jm, jp = op_ladder(b)
        # J-|1/2,+1/2> = 1 * |1/2,-1/2>
        assert jm[1, 0] == 1.0
        assert jp[0, 1] == 1.0

    def test_spin_one_coefficient(self):
        b = build_basis(2)
        jm, _ = op_ladder(b)
        # J-|1,1> = sqrt(2) |1,0>
        assert jm[1, 0] == pytest.approx(math.sqrt(2), abs=0)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_annihilates_bottom_state(self, n):
        b = build_basis(n)
        jm, _ = op_ladder(b)
        bottom = np.zeros(b.dim)
        bottom[-1] = 1.0
        assert maxabs(jm @ bottom) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 11, 40])
    def test_raising_is_exact_adjoint(self, n):
        jm, jp = op_ladder(build_basis(n))
        assert np.array_equal(jp, jm.conj().T)


class TestCartesian:
    def test_jz_diagonal(self):
        _, _, jz = op_cartesian(build_basis(1))
        assert np.array_equal(np.diag(jz), np.array([0.5, -0.5]))

    def test_spin_one_jx(self):
        jx, _, _ = op_cartesian(build_basis(2))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = expected[1, 2] = expected[2, 1] = 1 / math.sqrt(2)
        assert maxabs(jx - expected) < 1e-15

    def test_pauli_algebra_spin_half(self):
        jx, _, _ = op_cartesian(build_basis(1))
        assert maxabs(jx @ jx - np.eye(2) / 4) < 1e-16

    @pytest.mark.parametrize("n", [1, 2, 6, 31])
    def test_hermitian(self, n):
        for op in op_cartesian(build_basis(n)):
            assert maxabs(op - op.conj().T) == 0.0


class TestCasimir:
    def test_spin_half(self):
        assert maxabs(op_casimir(build_basis(1)) - 0.75 * np.eye(2)) == 0.0

    def test_spin_one(self):
        assert maxabs(op_casimir(build_basis(2)) - 2.0 * np.eye(3)) == 0.0

    def test_sum_of_squares_matches(self):
        b = build_basis(10)
        jx, jy, jz = op_cartesian(b)
        total = jx @ jx + jy @ jy + jz @ jz
        assert maxabs(total - 30.0 * np.eye(11)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 50, 100])
class TestAlgebra:
    def test_cartesian_commutators(self, n):
        jx, jy, jz = op_cartesian(build_basis(n))
        assert maxabs(jx @ jy - jy @ jx - 1j * jz) < 1e-12
        assert maxabs(jy @ jz - jz @ jy - 1j * jx) < 1e-12
        assert maxabs(jz @ jx - jx @ jz - 1j * jy) < 1e-12

    def test_casimir_commutes(self, n):
        b = build_basis(n)
        j2 = op_casimir(b)
        for op in op_cartesian(b):
            assert maxabs(j2 @ op - op @ j2) < 1e-12

    def test_ladder_commutators(self, n):
        b = build_basis(n)
        jm, jp = op_ladder(b)
        _, _, jz = op_cartesian(b)
        assert maxabs(jz @ jp - jp @ jz - jp) < 1e-12
        assert maxabs(jz @ jm - jm @ jz + jm) < 1e-12


class TestCoherentState:
    def test_poles(self):
        b = build_basis(6)
        north = spin_coherent_state(b, 0.0, 0.0)
        south = spin_coherent_state(b, math.pi, 0.0)
        assert abs(north[0]) == pytest.approx(1.0, abs=1e-15)
        assert abs(south[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_mean_spin_direction(self):
        b = build_basis(9)
        theta, phi = 1.1, 0.7
        psi = spin_coherent_state(b, theta, phi)
        jx, jy, jz = op_cartesian(b)
        j = b.j
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert psi.conj() @ jz @ psi == pytest.approx(j * math.cos(theta), abs=1e-12)
        assert psi.conj() @ jx @ psi == pytest.approx(
            j * math.sin(theta) * math.cos(phi), abs=1e-12
        )
        assert psi.conj() @ jy @ psi == pytest.approx(
            j * math.sin(theta) * math.sin(phi), abs=1e-12
        )
