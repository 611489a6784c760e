import gc
import itertools
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp

from dissipative_ising import (
    InsufficientDataError,
    IntegrationError,
    ModelParams,
    NotAFixedPointError,
    analytic_boundaries,
    analytic_p0,
    analytic_p1,
    bloch_rhs,
    classify_stability,
    continuation_sweep,
    detect_limit_cycle,
    find_fixed_points,
    integrate_trajectory,
    jacobian,
    settle,
)
from dissipative_ising import meanfield
from dissipative_ising.meanfield import (
    seed_orbit,
    ROOT_TOL,
    _capture_region,
    _dop853,
    _jacobian_many,
    _ode_rhs,
    _ParamRows,
    _polyroots,
    _rhs_many,
    _z_polynomials,
    find_fixed_points_many,
)
import bloch_oracle
from dissipative_ising.sweep import SOUTH_POLE_SEED
from newton_oracle import eigvals_classify, newton_fixed_points
from settle_oracle import norm_bound_level


def random_params(rng, p=None):
    return ModelParams(
        V=float(rng.uniform(-10, 10)),
        g=float(rng.uniform(-4, 4)),
        p=float(rng.uniform(0, 1)) if p is None else p,
        Gamma=float(rng.uniform(0.5, 2.0)),
    )


class TestModelParams:
    def test_defaults(self):
        prm = ModelParams(V=-5, g=1, p=0.5)
        assert prm.Gamma == 1.0 and prm.N is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"V": -5, "g": 1, "p": 1.5},
            {"V": -5, "g": 1, "p": -0.1},
            {"V": -5, "g": 1, "p": 0.5, "Gamma": 0.0},
            {"V": -5, "g": 1, "p": 0.5, "Gamma": -1.0},
            {"V": math.nan, "g": 1, "p": 0.5},
            {"V": -5, "g": 1, "p": 0.5, "N": 0},
            {"V": -5, "g": 1, "p": 0.5, "N": 2.5},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestBlochRhs:
    def test_north_pole_driven(self):
        prm = ModelParams(V=-5, g=1, p=1)
        assert np.allclose(bloch_rhs([0, 0, 1], prm), [0, -1, 0], atol=1e-15)

    def test_south_pole_fixed_at_p0(self):
        prm = ModelParams(V=3.7, g=2.2, p=0)
        assert np.abs(bloch_rhs([0, 0, -1], prm)).max() == 0.0

    def test_poles_fixed_undriven(self):
        prm = ModelParams(V=-5, g=0, p=0)
        assert np.abs(bloch_rhs([0, 0, 1], prm)).max() == 0.0
        assert np.abs(bloch_rhs([0, 0, -1], prm)).max() == 0.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        prm = random_params(rng)
        states = rng.normal(size=(40, 3))
        batch = _rhs_many(states, prm)
        for i in range(40):
            assert np.array_equal(batch[i], bloch_rhs(states[i], prm))

    def test_radial_flow_identity(self):
        # d(r^2)/dt = (Gamma/4) Z (r^2 - 1): all Hamiltonian terms conserve the norm
        rng = np.random.default_rng(5)
        for _ in range(200):
            prm = random_params(rng)
            s = rng.normal(size=3) * rng.uniform(0.2, 2.0)
            lhs = 2.0 * float(s @ bloch_rhs(s, prm))
            rhs = prm.Gamma / 4.0 * s[2] * (s @ s - 1.0)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestJacobian:
    def test_origin_entries(self):
        prm = ModelParams(V=-3.3, g=1.4, p=0.6, Gamma=1.7)
        m = jacobian([0, 0, 0], prm)
        assert m[0, 0] == 0.0
        assert m[2, 2] == 0.0
        assert m[0, 1] == (prm.p - 1) * prm.g

    def test_south_pole_p0_entries(self):
        m = jacobian([0, 0, -1], ModelParams(V=-5, g=1, p=0))
        assert m[0, 0] == pytest.approx(-0.125, abs=0)
        assert m[2, 2] == pytest.approx(-0.25, abs=0)
        assert m[0, 1] == pytest.approx(-1.0, abs=0)
        # (2p-1)/2 * V * Z + (1-p) g at p=0: (-1/2)(-5)(-1) + 1 = -3/2
        assert m[1, 0] == pytest.approx(-1.5, abs=0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            prm = random_params(rng)
            s = rng.normal(size=3)
            ana = jacobian(s, prm)
            num = np.empty((3, 3))
            for k in range(3):
                dv = np.zeros(3)
                dv[k] = h
                num[:, k] = (bloch_rhs(s + dv, prm) - bloch_rhs(s - dv, prm)) / (2 * h)
            scale = max(1.0, np.abs(ana).max())
            worst = max(worst, np.abs(num - ana).max() / scale)
        assert worst < 1e-6

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        prm = random_params(rng)
        states = rng.normal(size=(10, 3))
        batch = _jacobian_many(states, prm)
        for i in range(10):
            assert np.array_equal(batch[i], jacobian(states[i], prm))


class TestAnalyticP1:
    def test_reference_point(self):
        s = analytic_p1(ModelParams(V=-5, g=1, p=1))
        assert s == pytest.approx([-0.39900, 0.01995, -0.91673], abs=5e-6)

    def test_undriven_is_south_pole(self):
        assert np.array_equal(analytic_p1(ModelParams(V=-2.2, g=0, p=1)), [0, 0, -1])

    def test_unstable_region_returns_none(self):
        assert analytic_p1(ModelParams(V=-5, g=3, p=1)) is None

    def test_requires_p1(self):
        with pytest.raises(ValueError):
            analytic_p1(ModelParams(V=-5, g=1, p=0.9))

    def test_root_and_norm_identities(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 200:
            prm = random_params(rng, p=1.0)
            s = analytic_p1(prm)
            if s is None:
                continue
            found += 1
            assert abs(s @ s - 1.0) < 1e-14
            assert np.abs(bloch_rhs(s, prm)).max() < 1e-12


class TestAnalyticP0:
    def test_xi_roots(self):
        # Gamma^2 xi^2 - 4 V xi + 1 = 0 at V=-5, Gamma=1: xi = -10 +/- sqrt(99)
        prm = ModelParams(V=-5, g=1, p=0)
        states = dict((lab, st) for st, lab in analytic_p0(prm))
        xi_plus = states["++"][2] / 8.0  # Z = 8 g xi with g=1
        xi_minus_expected = -10 - math.sqrt(99)
        assert xi_plus == pytest.approx(-10 + math.sqrt(99), abs=1e-12)
        # xi- branch is not real here (eta radicand < 0), so only xi+ pair present
        assert set(states) == {"++", "+-", "pole-", "pole+"}
        assert xi_minus_expected < -19.9

    def test_reference_branch(self):
        states = dict((lab, st) for st, lab in analytic_p0(ModelParams(V=-5, g=1, p=0)))
        assert states["++"] == pytest.approx([0.91493, -0.045862, -0.40101], abs=5e-6)

    def test_interaction_below_critical_gives_only_poles(self):
        out = analytic_p0(ModelParams(V=-0.4, g=1.3, p=0))
        assert sorted(lab for _s, lab in out) == ["pole+", "pole-"]

    def test_requires_p0(self):
        with pytest.raises(ValueError):
            analytic_p0(ModelParams(V=-5, g=1, p=0.1))

    def test_root_and_norm_identities(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(500):
            prm = random_params(rng, p=0.0)
            for s, lab in analytic_p0(prm):
                checked += 1
                assert abs(s @ s - 1.0) < 1e-10
                assert np.abs(bloch_rhs(s, prm)).max() < 1e-10
        assert checked >= 1000


class TestClassifyStability:
    def test_pole_stable_below_lower_critical(self):
        fp = classify_stability([0, 0, -1], ModelParams(V=-5, g=0.001, p=0))
        assert fp.stable

    def test_pole_unstable_inside_window(self):
        fp = classify_stability([0, 0, -1], ModelParams(V=-5, g=1.0, p=0))
        assert not fp.stable

    def test_analytic_p1_point_stable(self):
        prm = ModelParams(V=-5, g=1, p=1)
        assert classify_stability(analytic_p1(prm), prm).stable

    def test_boundary_point_marginal(self):
        # radicand-zero point of the closed form: Z = 0 exactly
        g_c = math.sqrt(401.0) / 8.0
        prm = ModelParams(V=-5, g=g_c, p=1)
        d = 16 * prm.V**2 + 1.0
        state = [32 * g_c * prm.V / d, 8 * g_c / d, 0.0]
        fp = classify_stability(state, prm)
        assert not fp.stable
        assert abs(fp.eigenvalues.real.max()) < 1e-6
        assert fp.marginal

    def test_rejects_non_fixed_point(self):
        with pytest.raises(NotAFixedPointError):
            classify_stability([0.3, 0.3, 0.3], ModelParams(V=-5, g=1, p=1))

    def test_rejects_root_off_the_sphere(self):
        # an exact root on the p = 1 line Y = a/(p g) of the plane Z = 0,
        # half-way inside the sphere, where the closed form does not hold
        prm = ModelParams(V=2.0, g=-1.0, p=1.0, Gamma=0.5)
        state = [-0.5, -0.0625, 0.0]
        assert not bloch_rhs(state, prm).any()
        with pytest.raises(NotAFixedPointError, match="off the unit sphere"):
            classify_stability(state, prm)

    @pytest.mark.parametrize("v, p, zero", [(-1.0, 0.5, 0.0), (-0.5, 0.0, -0.0)])
    def test_nilpotent_equator_roots_are_marginal(self, v, p, zero):
        # at g = 0 the equator roots +/-(1, -1, 0)/sqrt(2) of these cells
        # have a nilpotent Jacobian: every eigenvalue is 0, where a general
        # eigensolver returns up to +6.4e-7 and so labelled them unstable
        prm = ModelParams(V=v, g=0.0, p=p)
        equator = [fp for fp in find_fixed_points(prm) if fp.state[2] == 0.0]
        assert len(equator) == 2
        for fp in equator:
            assert abs(abs(fp.state[0]) - math.sqrt(0.5)) < 1e-15
            assert fp.state[0] == -fp.state[1]
            jac = jacobian(fp.state, prm)
            assert np.abs(jac @ jac @ jac).max() < 1e-15
            assert fp.marginal and not fp.stable
            assert not fp.eigenvalues.any()
            max_re = fp.eigenvalues.real.max()
            # Z is -0 at p = 0, and so are the real parts it gives
            assert max_re == 0.0 and math.copysign(1.0, max_re) == math.copysign(1.0, zero)


class TestClosedFormStability:
    """The closed-form classification against the ``eigvals`` spectrum of
    ``newton_oracle.eigvals_classify``, on random cells.

    The cells are away from defective Jacobians: on every root the
    closed-form eigenvalues lie at least ``SEPARATION`` apart, where the
    spectrum of a general eigensolver is well conditioned.  The flags must
    agree on every root, and the eigenvalues to ``BOUND``; the largest
    distance on this grid is 1.06e-14.  On the equator all real parts are
    0 up to rounding and the oracle's order is set by that rounding, so
    there the eigenvalues are compared as sets.
    """

    BOUND = 2e-14
    SEPARATION = 1e-3

    @staticmethod
    def cells():
        rng = np.random.default_rng(41)

        def cell(p=None):
            return replace(random_params(rng, p=p), Gamma=float(rng.uniform(0.3, 3.0)))

        cells = [cell() for _ in range(2000)]
        cells += [cell(p) for p in (0.0, 1.0) for _ in range(300)]
        return cells + [replace(cell(), g=0.0) for _ in range(300)]

    def test_matches_eigvals_oracle(self):
        cells = self.cells()
        listed = find_fixed_points_many(cells)
        ours = [fp for cell in listed for fp in cell]
        rows = _ParamRows.of([prm for prm, cell in zip(cells, listed) for _ in cell])
        states = np.array([fp.state for fp in ours])
        ref = eigvals_classify(states, rows, [fp.residual for fp in ours])
        assert len(ours) > 8000
        assert [(a.stable, a.marginal) for a in ours] == [(b.stable, b.marginal) for b in ref]

        lam = np.array([fp.eigenvalues.astype(complex) for fp in ours])
        oracle = np.array([fp.eigenvalues.astype(complex) for fp in ref])
        pairs = list(itertools.combinations(range(3), 2))
        separation = np.min([np.abs(lam[:, i] - lam[:, j]) for i, j in pairs], axis=0)
        as_sets = np.min([np.abs(lam - oracle[:, list(order)]).max(axis=1)
                          for order in itertools.permutations(range(3))], axis=0)
        in_order = np.abs(lam - oracle).max(axis=1)
        equator = np.abs(states[:, 2]) < 1e-12
        assert separation.min() >= self.SEPARATION
        assert np.where(equator, as_sets, in_order).max() <= self.BOUND
        assert all(a.eigenvalues.dtype == b.eigenvalues.dtype for a, b in zip(ours, ref))
        # the grid holds stable, unstable and marginal roots, real and
        # complex spectra, and equator roots in the oracle's other order
        assert {fp.eigenvalues.dtype.kind for fp in ours} == {"f", "c"}
        assert any(fp.stable for fp in ours) and any(fp.marginal for fp in ours)
        assert any(not fp.stable and not fp.marginal for fp in ours)
        assert (in_order[equator] > self.BOUND).any()


class TestFindFixedPoints:
    def test_p1_unique_stable_matches_closed_form(self):
        prm = ModelParams(V=-5, g=1, p=1)
        stable = [f for f in find_fixed_points(prm) if f.stable]
        assert len(stable) == 1
        assert np.abs(stable[0].state - analytic_p1(prm)).max() < 1e-8

    def test_p1_unstable_region_has_no_stable_points(self):
        fps = find_fixed_points(ModelParams(V=-5, g=3, p=1))
        assert sum(f.stable for f in fps) == 0

    def test_p0_stable_set_is_fm_pair(self):
        prm = ModelParams(V=-5, g=1, p=0)
        stable = [f for f in find_fixed_points(prm) if f.stable]
        assert len(stable) == 2
        analytic = {lab: s for s, lab in analytic_p0(prm)}
        for fp in stable:
            lab = "++" if fp.state[0] > 0 else "+-"
            assert np.abs(fp.state - analytic[lab]).max() < 1e-8

    def test_invalid_seed_count(self):
        with pytest.raises(ValueError):
            find_fixed_points(ModelParams(V=-5, g=1, p=1), n_seeds=0)

    def test_deterministic_given_seed(self):
        prm = ModelParams(V=-5, g=0.7, p=0.3)
        a = find_fixed_points(prm, 150)
        b = find_fixed_points(prm, 150)
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.state, fb.state)

    def test_seed_arguments_unused(self):
        prm = ModelParams(V=-5, g=-0.4, p=0.65)
        a = find_fixed_points(prm, 1)
        b = find_fixed_points(prm, 400)
        assert len(a) == len(b) == 6
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.state, fb.state)

    def test_p1_lists_isolated_roots_on_sphere(self):
        # the +/-Z closed-form pair and the two points where the marginal
        # line (X, Gamma/(8g), 0) meets the sphere
        prm = ModelParams(V=-5, g=1, p=1)
        fps = find_fixed_points(prm)
        assert len(fps) == 4
        ref = analytic_p1(prm)
        assert np.abs(fps[0].state - ref).max() < 1e-12
        assert fps[0].stable and not any(fp.stable for fp in fps[1:])
        equator = sorted(fp.state[0] for fp in fps if abs(fp.state[2]) < 1e-12)
        assert equator == pytest.approx([-math.sqrt(1 - 1 / 64), math.sqrt(1 - 1 / 64)], abs=1e-12)

    def test_undriven_equator_points(self):
        # g = 0: the poles, and four equator points with (1-p)(V/2) X Y = Gamma/8
        prm = ModelParams(V=-5, g=0, p=0.4)
        fps = find_fixed_points(prm)
        equator = [fp.state for fp in fps if abs(fp.state[2]) < 0.5]
        assert len(fps) == 6 and len(equator) == 4
        for s in equator:
            assert (1 - prm.p) * prm.V / 2 * s[0] * s[1] == pytest.approx(prm.Gamma / 8, abs=1e-12)

    def test_roots_on_sphere_with_small_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            prm = random_params(rng)
            for fp in find_fixed_points(prm):
                assert abs(np.linalg.norm(fp.state) - 1.0) <= 1e-8
                assert fp.residual <= ROOT_TOL

    def test_near_singular_limits(self):
        # det A(Z) is tiny at these roots: small p pulls them toward the
        # p = 0 family, tiny g toward the g = 0 equator
        for prm in (ModelParams(V=-50, g=10, p=1e-6), ModelParams(V=-5, g=1e-5, p=0.2)):
            stable = [fp.state for fp in find_fixed_points(prm) if fp.stable]
            # the +/-X pair: a 300-seed Newton search misses one at g = 1e-5
            assert len(stable) == 2
            assert np.abs(stable[0][:2] + stable[1][:2]).max() < 1e-5

    def test_reflection_symmetry_at_p1(self):
        # stable-point count and |Z| are invariant under g -> -g at p = 1
        for g in (0.3, 1.1, 2.0, 2.45, 2.7):
            plus = [f for f in find_fixed_points(ModelParams(V=-5, g=g, p=1)) if f.stable]
            minus = [f for f in find_fixed_points(ModelParams(V=-5, g=-g, p=1)) if f.stable]
            assert len(plus) == len(minus)
            z_plus = sorted(abs(f.state[2]) for f in plus)
            z_minus = sorted(abs(f.state[2]) for f in minus)
            assert np.allclose(z_plus, z_minus, atol=1e-9)


def same_fixed_points(a, b) -> bool:
    """Whether two fixed-point lists agree bit for bit in every field."""
    return len(a) == len(b) and all(
        x.state.tobytes() == y.state.tobytes()
        and x.eigenvalues.dtype == y.eigenvalues.dtype
        and x.eigenvalues.tobytes() == y.eigenvalues.tobytes()
        and x.residual == y.residual
        and (x.stable, x.marginal) == (y.stable, y.marginal)
        for x, y in zip(a, b)
    )


def pinv_polish(states, rows):
    """The Newton polish with a pseudo-inverse (rcond 1e-10) at every step.

    The reference for the closed-form step of ``meanfield._polish``, kept
    here as dense ``eig`` is kept for the gap.
    """
    current = states
    f = _rhs_many(current, rows)
    best, best_res = states.copy(), np.abs(f).max(axis=1)
    for _ in range(meanfield._POLISH_STEPS):
        pinv = np.linalg.pinv(_jacobian_many(current, rows), rcond=1e-10)
        current = current - np.einsum("nij,nj->ni", pinv, f)
        f = _rhs_many(current, rows)
        res = np.abs(f).max(axis=1)
        better = res < best_res
        best[better] = current[better]
        best_res[better] = res[better]
    return best, best_res


class TestStackedSearch:
    """find_fixed_points_many against one-cell passes and numpy.polynomial."""

    # where a^2 = c1 d1 rounds to exactly zero the Z polynomial has degree 4
    DEGREE_FOUR = [ModelParams(V=v, g=g, p=0.45, Gamma=1.0)
                   for v in (1.1785113019775793, -1.1785113019775793) for g in (-0.3, 0.7)]
    # p = 0, p = 1 (its marginal line where |g| >= Gamma/8), g = 0, V = 0,
    # the Jordan cell g = 0, p = 1/2 and the degenerate equator centre
    # (0, 1, 1, Gamma = 8)
    GRID = [ModelParams(V=v, g=g, p=p, Gamma=gam) for v, g, p, gam in itertools.product(
        (-5.0, -1.0, 0.0, 0.7),
        (-3.0, -1.0, -0.3, 0.0, 0.1, 0.5, 1.0, 3.0),
        (0.0, 0.1, 0.25, 0.5, 0.77, 0.9, 1.0),
        (1.0, 8.0),
    )] + DEGREE_FOUR

    # Jacobians singular at their roots, so that Newton steps there take the
    # pseudo-inverse: the p = 1 equator roots (+/-0.97383, -0.22727, 0) at
    # V = -5, g = -0.55, and the equator roots of four g = 0 cells
    SINGULAR = [ModelParams(V=-5.0, g=-0.55, p=1.0)] + [
        ModelParams(V=v, g=0.0, p=p) for v, p in ((-5.0, 0.055), (-5.0, 0.21), (-5.0, 0.535), (0.7, 0.0))]

    @staticmethod
    def numpy_polynomial(prm):
        """The eliminated Z polynomial built with numpy.polynomial, trimmed."""
        v, g, p, a = prm.V, prm.g, prm.p, prm.Gamma / 8.0
        c = np.array([-(1.0 - p) * g, -p * v / 2.0])
        d = np.array([(1.0 - p) * g, (2.0 * p - 1.0) * v / 2.0])
        det = P.polysub([0.0, 0.0, a * a], P.polymul(c, d))
        nx = P.polymul(c, [0.0, -p * g])
        ny = np.array([0.0, 0.0, a * p * g])
        poly = P.polyadd(P.polymul([0.0, 0.0, a * (p * g) ** 2], det),
                         P.polymul(((1.0 - p) * v / 2.0) * nx, ny))
        return P.polysub(poly, P.polymul(a * np.array([1.0, 0.0, -1.0]), P.polymul(det, det)))

    def test_z_polynomials_match_numpy_polynomial(self):
        rng = np.random.default_rng(12)
        cells = [prm for prm in self.GRID if 0.0 < prm.p < 1.0 and prm.g != 0.0]
        cells += [random_params(rng) for _ in range(2000)]
        cells += [ModelParams(V=float(rng.choice([0.0, -5.0])), g=float(g), p=float(p))
                  for g, p in zip(rng.uniform(-3, 3, 500), rng.choice([0.5, 0.25, 0.9], 500))]
        _c, _d, polys = _z_polynomials(_ParamRows.of(cells))
        degrees = set()
        for prm, row in zip(cells, polys):
            ref = self.numpy_polynomial(prm)
            n = len(ref)
            assert np.array_equal(row[:n], ref) and not row[n:].any()
            degrees.add(n - 1)
            # the same roots, bit for bit, from a stack of one
            assert np.array_equal(_polyroots(ref[None, :])[0], P.polyroots(ref))
        assert degrees == {4, 6}

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    def test_blocks_equal_single_cells(self, block):
        grid = self.GRID
        singles = [find_fixed_points(prm) for prm in grid]
        size = block or len(grid)
        batched = [fps for i in range(0, len(grid), size)
                   for fps in find_fixed_points_many(grid[i:i + size])]
        assert len(batched) == len(grid)
        for prm, a, b in zip(grid, singles, batched):
            assert same_fixed_points(a, b), prm
        # the grid mixes real and complex spectra, stable, unstable and marginal roots
        fps = [fp for cell in singles for fp in cell]
        assert {fp.eigenvalues.dtype.kind for fp in fps} == {"f", "c"}
        assert any(fp.stable for fp in fps) and any(fp.marginal for fp in fps)
        assert any(not fp.stable and not fp.marginal for fp in fps)

    def test_newton_step_matches_pinv_polish(self, monkeypatch):
        rng = np.random.default_rng(21)
        edge = TestNewtonOracle.EDGE_P
        cells = self.GRID + self.SINGULAR + [random_params(rng) for _ in range(2000)]
        cells += [ModelParams(V=-5.0, g=-1.0, p=edge + dp) for dp in (-1e-6, -1e-9, 1e-9, 1e-6)]
        rows = _ParamRows.of(cells)
        cands, cell = meanfield._candidates(cells, rows)
        finite = np.isfinite(cands).all(axis=1)
        cands, rows = cands[finite], rows.take(cell[finite])

        def accepted(states, res):
            on_sphere = np.abs(np.linalg.norm(states, axis=1) - 1.0) <= meanfield._SPHERE_TOL
            return on_sphere & (res <= ROOT_TOL)

        ours, ours_res = meanfield._polish(cands, rows)
        ref, ref_res = pinv_polish(cands, rows)
        roots = accepted(ref, ref_res)
        assert np.array_equal(accepted(ours, ours_res), roots)
        assert np.abs(ours - ref)[roots].max() <= 1e-13

        # the same roots, in the same order and with the same flags.  Two
        # copies of a root whose Jacobian is nearly singular can tie in
        # residual at rounding level, and deduplication may then keep the
        # other copy: at V = 1.28, g = 0.45, p = 0.99981 (s_min 1.3e-4)
        # the kept copies differ by 1.2e-13.
        listed = find_fixed_points_many(cells)
        with monkeypatch.context() as patch:
            patch.setattr(meanfield, "_polish", pinv_polish)
            reference = find_fixed_points_many(cells)
        for prm, a, b in zip(cells, listed, reference):
            assert [(fp.stable, fp.marginal) for fp in a] == [(fp.stable, fp.marginal) for fp in b], prm
            assert all(np.abs(x.state - y.state).max() <= 1e-12 for x, y in zip(a, b)), prm

        # the singular cells take the pseudo-inverse, a generic cell does not
        pinv, taken = np.linalg.pinv, []
        monkeypatch.setattr(np.linalg, "pinv", lambda a, rcond: taken.append(len(a)) or pinv(a, rcond))
        for prm in self.SINGULAR + [ModelParams(V=-5.0, g=-1.0, p=0.5)]:
            taken.clear()
            one = _ParamRows.of([prm])
            states, cell = meanfield._candidates([prm], one)
            meanfield._polish(states, one.take(cell))
            assert bool(taken) == (prm in self.SINGULAR), prm

    def test_deduplication_rule(self, monkeypatch):
        # candidates of one cell, taken in order: a later copy within
        # DEDUP_TOL of the kept root replaces it only if its residual is
        # smaller, and is measured against the root kept so far
        a, b = (0.6, 0.0, 0.8), (0.6, 0.0, -0.8)
        cands = [
            (a, 5e-12),
            ((0.6, 4e-7, 0.8), 1e-11),     # larger residual: a stays
            (b, 3e-11),
            ((0.6, 5e-7, 0.8), 1e-12),     # smaller residual: replaces a
            ((0.6, 2e-6, -0.8), 4e-11),    # 2e-6 from b: a root of its own
            ((0.6, 1.2e-6, 0.8), 5e-13),   # 7e-7 from the kept copy, 1.2e-6 from a
            ((0.6, 3e-7, -0.8), 5e-11),    # larger residual: b stays
            ((0.0, 1.0, 0.0), 2e-10),      # residual above ROOT_TOL: dropped
        ]
        states = np.array([st for st, _ in cands])
        monkeypatch.setattr(meanfield, "_candidates",
                            lambda params_seq, rows: (states, np.zeros(len(states), int)))
        monkeypatch.setattr(meanfield, "_polish", lambda st, rows: (st, np.array([r for _, r in cands])))
        assert math.dist(cands[5][0], a) > meanfield.DEDUP_TOL > math.dist(cands[5][0], cands[3][0])
        fps = find_fixed_points_many([ModelParams(V=-5.0, g=-1.0, p=0.5)])[0]
        listed = sorted((tuple(fp.state), fp.residual) for fp in fps)
        assert listed == sorted([cands[5], cands[2], cands[4]])

    def test_classify_stability_is_the_stacked_classification(self, monkeypatch):
        listed = find_fixed_points_many(self.GRID)

        def refused(*args, **kwargs):
            raise AssertionError("an eigensolver ran")

        # the classification is closed-form: no eigensolver runs in it
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refused)
        for prm, cell in zip(self.GRID, listed):
            for fp in cell:
                alone = classify_stability(fp.state, prm, root_tol=10 * ROOT_TOL)
                assert same_fixed_points([alone], [fp]), prm


class TestBlochOracle:
    """The coefficient form of ``meanfield`` against the written-out formulas of
    ``bloch_oracle``, bit for bit.

    The one difference is at p = 0 where Python's ``Gamma ** 2`` rounds
    apart from ``Gamma * Gamma``: ``analytic_p0`` now forms 2 a^2 by
    multiplication, so there its branches may move by an ulp.
    """

    @staticmethod
    def cells():
        rng = np.random.default_rng(31)
        cells = TestStackedSearch.GRID + [random_params(rng) for _ in range(2000)]
        cells += [random_params(rng, p=p) for p in (0.0, 1.0) for _ in range(300)]
        cells += [replace(random_params(rng), g=0.0) for _ in range(300)]
        cells += [replace(random_params(rng), V=0.0) for _ in range(100)]
        return cells

    @staticmethod
    def pow_rounds_apart(prm) -> bool:
        return prm.p == 0.0 and prm.Gamma ** 2 != prm.Gamma * prm.Gamma

    @staticmethod
    def oracle_fixed_points(cells, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(meanfield, "_rhs_many", bloch_oracle.rhs_many)
            patch.setattr(meanfield, "_jacobian_many", bloch_oracle.jacobian_many)
            patch.setattr(meanfield, "_candidates", bloch_oracle.candidates)
            return find_fixed_points_many(cells)

    def test_flow_and_jacobian(self):
        cells = self.cells()
        rng = np.random.default_rng(32)
        states = rng.normal(size=(len(cells), 3))
        # zeros of either sign, as at the poles and on the equator, where
        # the sign of a zero result depends on how each term is formed
        zero = rng.random(states.shape) < 1.0 / 3.0
        states[zero] = np.copysign(0.0, states[zero])
        rows = _ParamRows.of(cells)
        assert _rhs_many(states, rows).tobytes() == bloch_oracle.rhs_many(states, rows).tobytes()
        assert (_jacobian_many(states, rows).tobytes()
                == bloch_oracle.jacobian_many(states, rows).tobytes())
        for prm, s in zip(cells[::7], states[::7]):
            assert bloch_rhs(s, prm).tobytes() == bloch_oracle.rhs_many(s[None], prm)[0].tobytes()
            assert jacobian(s, prm).tobytes() == bloch_oracle.jacobian_many(s[None], prm)[0].tobytes()

    def test_candidates(self):
        cells = self.cells()
        rows = _ParamRows.of(cells)
        ours, cell = meanfield._candidates(cells, rows)
        ref, ref_cell = bloch_oracle.candidates(cells, rows)
        assert np.array_equal(cell, ref_cell)
        for k in range(len(cells)):
            a, b = ours[cell == k], ref[cell == k]
            if self.pow_rounds_apart(cells[k]):
                assert np.abs(a - b).max() <= 4 * np.finfo(float).eps, cells[k]
            else:
                assert a.tobytes() == b.tobytes(), cells[k]

    def test_fixed_points(self, monkeypatch):
        cells = self.cells()
        ours = find_fixed_points_many(cells)
        ref = self.oracle_fixed_points(cells, monkeypatch)
        roots = 0
        for prm, a, b in zip(cells, ours, ref):
            if self.pow_rounds_apart(prm):
                assert [(x.stable, x.marginal) for x in a] == [(y.stable, y.marginal) for y in b], prm
                assert all(np.abs(x.state - y.state).max() <= 1e-15 for x, y in zip(a, b)), prm
            else:
                assert same_fixed_points(a, b), prm
            roots += len(a)
        assert roots > 10_000

    def test_closed_forms(self):
        cells = self.cells()
        for prm in cells:
            if prm.p == 1.0:
                ours, ref = analytic_p1(prm), bloch_oracle.analytic_p1(prm)
                assert (ours is None and ref is None) or ours.tobytes() == ref.tobytes(), prm
            if prm.p == 0.0:
                ours, ref = analytic_p0(prm), bloch_oracle.analytic_p0(prm)
                assert [lab for _s, lab in ours] == [lab for _s, lab in ref], prm
                for (a, _), (b, _) in zip(ours, ref):
                    if self.pow_rounds_apart(prm):
                        assert np.abs(a - b).max() <= 4 * np.finfo(float).eps, prm
                    else:
                        assert a.tobytes() == b.tobytes(), prm
        assert any(prm.p == 1.0 and analytic_p1(prm) is None for prm in cells)

    @pytest.mark.parametrize("gamma", [1.0, 0.37, 1.9, 8.0])
    def test_boundaries(self, gamma):
        rng = np.random.default_rng(33)
        v_values = np.concatenate([np.linspace(-10.0, 10.0, 401), [-0.5 * gamma, 0.0],
                                   rng.uniform(-10.0, 10.0, 500)])
        ours, ref = analytic_boundaries(v_values, gamma), bloch_oracle.analytic_boundaries(v_values, gamma)
        assert [list(r) for r in ours] == [list(r) for r in ref]
        for a, b in zip(ours, ref):
            assert np.array(list(a.values())).tobytes() == np.array(list(b.values())).tobytes(), a["V"]
        assert any(math.isnan(r["gplus_c"]) for r in ours) and any(r["gplus_c"] > 0 for r in ours)

    @staticmethod
    def equator_roots(prm):
        cands = (bloch_oracle.p1_candidates if prm.p == 1.0 else bloch_oracle.undriven_candidates)(prm)
        return [r for r in cands if r[2] == 0.0]

    def check_orbit(self, state, prm) -> str | None:
        ours, ref = seed_orbit(state, prm), bloch_oracle.seed_orbit(state, prm)
        kind = ours and ours.kind
        assert kind == (ref and ref.kind), (prm, state)
        if kind == "centre":
            lift = analytic_p1(prm) if prm.p == 1.0 else np.array([0.0, 0.0, -1.0])
            assert ours.point.tobytes() == lift.tobytes(), prm
        if kind == "separatrix":
            assert any(ours.point.tobytes() == r.tobytes() for r in self.equator_roots(prm)), prm
        if kind in ("centre", "separatrix"):
            # the oracle lifts with 1 - Xc^2 - Yc^2 and cuts at cos and sin of the angles
            assert np.abs(ours.point - ref.point).max() <= 2e-15, prm
        return kind

    def test_seed_orbit_from_the_pole(self):
        kinds = [self.check_orbit(SOUTH_POLE_SEED, prm) for prm in self.cells()
                 if prm.p == 1.0 or (prm.g == 0.0 and prm.p > 0.0)]
        assert len(kinds) > 600 and {"centre", "closed", None} <= set(kinds)

    def test_seed_orbit_separatrices(self):
        # states on the orbit through each equator root, a little before and
        # after it in s, as in TestSeedOrbit.test_separatrix_ends_on_the_equator_root
        rng = np.random.default_rng(34)
        kinds = []
        for k in range(400):
            g, p = (float(rng.uniform(-3, 3)), 1.0) if k % 2 else (0.0, float(rng.uniform(0.02, 0.98)))
            prm = ModelParams(V=float(rng.uniform(-8, 8)), g=g, p=p, Gamma=float(rng.uniform(0.5, 2.0)))
            a = prm.Gamma / 8.0
            m = np.array([[a, -p * prm.V / 2.0], [(2.0 * p - 1.0) * prm.V / 2.0, a]])
            centre = np.linalg.solve(m, [0.0, p * g])
            for root in self.equator_roots(prm):
                for ds in (1e-2, -1e-2):
                    xy = centre + scipy.linalg.expm(m * ds) @ (root[:2] - centre)
                    if xy @ xy < 1.0:
                        kinds.append(self.check_orbit(np.array([*xy, -math.sqrt(1.0 - xy @ xy)]), prm))
        assert kinds.count("separatrix") > 200 and "centre" in kinds


class TestTrajectory:
    def test_fixed_point_stays_fixed(self):
        traj = integrate_trajectory([0, 0, -1], ModelParams(V=2.5, g=0.8, p=0), 50.0)
        assert np.abs(traj.states - np.array([0, 0, -1.0])).max() < 1e-10

    def test_sphere_norm_drift(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            prm = random_params(rng)
            s0 = rng.normal(size=3)
            s0 /= np.linalg.norm(s0)
            traj = integrate_trajectory(s0, prm, 100.0)
            norms = (traj.states**2).sum(axis=1)
            assert np.abs(norms - 1.0).max() < 1e-8

    def test_times_strictly_increasing(self):
        traj = integrate_trajectory([0, 0, 1], ModelParams(V=-5, g=3, p=1), 20.0)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.states.shape == (traj.times.size, 3)

    def test_validation(self):
        prm = ModelParams(V=-5, g=1, p=1)
        with pytest.raises(ValueError):
            integrate_trajectory([0, 0, 1], prm, -1.0)
        with pytest.raises(ValueError):
            integrate_trajectory([0, 0, 1], prm, 10.0, rel_tol=1e-2)


def batched_rhs_solve(initial, params, t_end, rtol, atol, t_eval):
    """DOP853 on the batched right-hand side, as the integrators once called it."""
    return solve_ivp(
        lambda _t, y: _rhs_many(y[None, :], params)[0],
        (0.0, float(t_end)),
        np.asarray(initial, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
    )


def batched_rhs_endpoint(initial, params, t_end):
    """The compiled DOP853 endpoint of ``settle`` on the batched right-hand side."""
    return _dop853(
        lambda _t, y: _rhs_many(y[None, :], params)[0],
        np.asarray(initial, dtype=float), 0.0, float(t_end), 1e-12, 1e-14,
    )


class TestIntegratorRhs:
    """The integrators' scalar right-hand side gives the batched floats exactly."""

    def test_equals_batched_rhs(self):
        rng = np.random.default_rng(23)
        cases = [(random_params(rng), rng.normal(size=3)) for _ in range(300)]
        cases += [
            (random_params(rng, p=p), rng.uniform(-1, 1, size=3))
            for p in (0.0, 1.0) for _ in range(20)
        ]
        cases += [(ModelParams(V=-5, g=0, p=0.3), np.array([0.0, 0.0, -1.0]))]
        for prm, s in cases:
            scalar = np.asarray(_ode_rhs(prm)(0.0, s), dtype=float)
            assert scalar.tolist() == _rhs_many(s[None, :], prm)[0].tolist()

    def test_settle_unchanged(self):
        rng = np.random.default_rng(29)
        for _ in range(4):
            prm = random_params(rng)
            s0 = rng.normal(size=3)
            s0 /= np.linalg.norm(s0)
            ref = batched_rhs_endpoint(s0, prm, 50.0)
            assert np.array_equal(settle(s0, prm, 50.0), ref)

    def test_trajectory_unchanged(self):
        prm = ModelParams(V=-5, g=3, p=1)
        traj = integrate_trajectory([0, 0, 1], prm, 20.0)
        ref = batched_rhs_solve([0, 0, 1], prm, 20.0, 1e-10, 1e-12, np.linspace(0.0, 20.0, 2000))
        assert np.array_equal(traj.times, ref.t)
        assert np.array_equal(traj.states, ref.y.T)

    def test_continuation_unchanged(self):
        base = ModelParams(V=-5, g=-1, p=0.6)
        path = [replace(base, p=float(p)) for p in np.linspace(0.6, 1.0, 5)]
        branch = continuation_sweep(path, [0, 0, -1], settle_time=60.0)
        state = np.array([0.0, 0.0, -1.0])
        for prm, pt in zip(path, branch):
            state = batched_rhs_endpoint(state, prm, 60.0)
            assert np.array_equal(pt.state, state)


class TestCapture:
    GRID = list(itertools.product(
        (-5.0, -1.0, -0.3, 2.0),
        (-3.0, -1.0, -0.5, 0.0, 0.5, 1.5),
        (0.0, 0.2, 0.5, 0.77, 0.9, 1.0),
    ))

    def test_lyapunov_decreases_on_region_boundary(self):
        # d(e^T P e)/dt = 2 e^T P f(x* + e) < 0 wherever e^T P e = c
        rng = np.random.default_rng(31)
        checked = 0
        for v, g, p in self.GRID:
            prm = ModelParams(V=v, g=g, p=p)
            for fp in find_fixed_points(prm):
                if not fp.stable:
                    continue
                lyap, level = _capture_region(fp, prm)
                u = rng.normal(size=(200, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                # P = L L^T, so e = sqrt(c) L^-T u has e^T P e = c
                chol = np.linalg.cholesky(lyap)
                e = math.sqrt(level) * np.linalg.solve(chol.T, u.T).T
                assert np.einsum("ni,ij,nj->n", e, lyap, e) == pytest.approx(level, rel=1e-9)
                flow = np.array([bloch_rhs(fp.state + ei, prm) for ei in e])
                rate = 2.0 * np.einsum("ni,ij,nj->n", e, lyap, flow)
                assert (rate < 0.0).all(), (v, g, p, fp.state)
                checked += 1
        assert checked >= 100

    # mf_phase_select's grid of the benchmark: V = -1, p and g in 4 x 4 steps
    SELECT_GRID = [(-1.0, g, p) for p in np.linspace(0.1, 1.0, 4) for g in np.linspace(-1.05, 0.3, 4)]

    @staticmethod
    def stable_regions(grid):
        """(params, point, P, level, hessians) of every stable point of the grid."""
        for v, g, p in grid:
            prm = ModelParams(V=v, g=g, p=p)
            hess = np.transpose(_jacobian_many(np.eye(3), prm) - _jacobian_many(np.zeros((1, 3)), prm),
                                (1, 2, 0))
            for fp in find_fixed_points(prm):
                if fp.stable:
                    lyap, level = _capture_region(fp, prm)
                    yield prm, fp, lyap, level, hess

    def test_level_not_below_norm_bound_level(self):
        checked = 0
        for prm, fp, _lyap, level, _hess in self.stable_regions(self.GRID + self.SELECT_GRID):
            assert level >= norm_bound_level(fp, prm), (prm, fp.state)
            checked += 1
        assert checked >= 150
        # where the quadratic part is far below its norm bound the level is
        # far above the old one (about 19 and 25 times, sampled without margin)
        for g in (-1.05, -0.6):
            prm = ModelParams(V=-1.0, g=g, p=0.7)
            (fp,) = [fp for fp in find_fixed_points(prm) if fp.stable]
            assert _capture_region(fp, prm)[1] >= 8.0 * norm_bound_level(fp, prm), g

    def test_quadratic_bound_covers_random_directions(self):
        # Psi = max over unit u of u^T P q(u) / sqrt(u^T P u), sampled on
        # normal random directions rather than the bound's cube-face grid
        rng = np.random.default_rng(37)
        u = rng.normal(size=(100_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        worst = 0.0
        for prm, fp, lyap, _level, hess in self.stable_regions(self.GRID + self.SELECT_GRID):
            q = 0.5 * np.einsum("nj,ijk,nk->ni", u, hess, u)
            sampled = np.einsum("ni,ij,nj->n", u, lyap, q) / np.sqrt(np.einsum("ni,ij,nj->n", u, lyap, u))
            bound = meanfield._quadratic_bound(lyap, hess)
            assert bound >= sampled.max() and bound >= -sampled.min(), (prm, fp.state)
            worst = max(worst, bound / np.abs(sampled).max())
        assert worst > 1.0

    def test_direction_grid_covers_sphere(self):
        dirs, *_monomials, radius = meanfield._direction_grid()
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        rng = np.random.default_rng(41)
        u = rng.normal(size=(20_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        # the chordal distance to v or -v, from u.v
        nearest = np.sqrt(np.maximum(2.0 - 2.0 * np.abs(u @ dirs.T).max(axis=1), 0.0))
        assert nearest.max() <= radius
        assert nearest.max() > 0.5 * radius

    def test_margin_covers_root_residual(self):
        # theta = 2 sqrt(c) Psi_bar must leave (1 - theta) s^2 of decay on the
        # boundary above the residual's 2 s ||P|| |r|, |r| <= sqrt(3) ROOT_TOL,
        # at its nearest point s = sqrt(c / lambda_max(P))
        for prm, fp, lyap, level, hess in self.stable_regions(self.GRID + self.SELECT_GRID):
            eigs = np.linalg.eigvalsh(lyap)
            c_quad = 0.5 * math.sqrt(sum(np.linalg.norm(h, ord=2) ** 2 for h in hess))
            psi_bar = min(meanfield._quadratic_bound(lyap, hess), eigs[-1] * c_quad / math.sqrt(eigs[0]))
            theta = 2.0 * math.sqrt(level) * psi_bar
            s = math.sqrt(level / eigs[-1])
            assert (1.0 - theta) * s > 2.0 * eigs[-1] * math.sqrt(3.0) * ROOT_TOL, (prm, fp.state)

    def test_region_refused_where_residual_outweighs_margin(self):
        # the south pole just past g+ = 2.4937 at p = 0 is stable but weakly
        # damped (||P|| = 2.7e4): its exact residual 0 leaves the margin
        # intact, a residual at ROOT_TOL would not
        prm = ModelParams(V=-5.0, g=float(np.linspace(0.001, 3.0, 161)[133]), p=0.0)  # fig1_p0 row 133
        (pole,) = [fp for fp in find_fixed_points(prm) if fp.stable]
        assert pole.residual == 0.0 and np.array_equal(pole.state, [0.0, 0.0, -1.0])
        assert _capture_region(pole, prm) is not None
        assert _capture_region(replace(pole, residual=ROOT_TOL), prm) is None

    def test_capture_returns_root_state(self):
        prm = ModelParams(V=-5, g=1, p=1)
        stable = [fp for fp in find_fixed_points(prm) if fp.stable]
        end = settle([0, 0, -1], prm, 200.0, capture=stable)
        assert np.array_equal(end, stable[0].state)
        # the uncaptured flow ends at the same point
        assert np.abs(settle([0, 0, -1], prm, 400.0) - end).max() < 1e-10
        # a start inside the region returns at once
        assert np.array_equal(settle(stable[0].state + 1e-9, prm, 1.0, capture=stable), end)

    def test_no_capture_leaves_endpoint_unchanged(self):
        # a limit cycle coexists with the stable point and takes the pole
        prm = ModelParams(V=-5, g=1.5, p=1)
        stable = [fp for fp in find_fixed_points(prm) if fp.stable]
        s0 = [1e-3, 1e-3, -math.sqrt(1 - 2e-6)]
        assert np.array_equal(settle(s0, prm, 50.0, capture=stable), settle(s0, prm, 50.0))


class TestCompiledIntegrator:
    """``settle`` and ``continuation_sweep`` run scipy's compiled DOP853
    (``_dop853``); ``solve_ivp``'s DOP853 at the same tolerances is the
    oracle.  The two take different step sequences, so their endpoints
    agree to the integration error, not bit for bit: the largest
    distance on these grids is 9.6e-12 for settle and 5.9e-12 for
    continuation, and both bounds are 1e-10."""

    GRID = list(itertools.product((-5.0, -1.0, 2.0), (-3.0, -1.0, 0.0, 2.0), (0.0, 0.3, 0.77, 1.0)))

    @staticmethod
    def reference(state, prm, t_end):
        sol = solve_ivp(_ode_rhs(prm), (0.0, t_end), state, method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=[t_end])
        assert sol.success
        return sol.y[:, -1]

    def test_settle_against_solve_ivp(self):
        worst = 0.0
        for (v, g, p), s0 in zip(self.GRID, itertools.cycle(
                ([0.0, 0.0, -1.0], [0.6, 0.0, 0.8], [0.0, -0.6, -0.8]))):
            prm = ModelParams(V=v, g=g, p=p)
            dist = np.abs(settle(s0, prm, 50.0) - self.reference(s0, prm, 50.0)).max()
            assert dist < 1e-10, (v, g, p, s0)
            worst = max(worst, dist)
        assert worst > 0.0  # the two integrators do differ: the oracle is not a copy

    @pytest.mark.parametrize("v,g", [(-5.0, -1.0), (-5.0, 0.5), (-1.0, -1.0), (-1.0, 0.5)])
    def test_continuation_against_solve_ivp(self, v, g):
        base = ModelParams(V=v, g=g, p=0.0)
        path = [replace(base, p=float(p)) for p in np.linspace(0.0, 1.0, 6)]
        branch = continuation_sweep(path, [0, 0, -1], settle_time=60.0)
        state = np.array([0.0, 0.0, -1.0])
        for prm, pt in zip(path, branch):
            state = self.reference(state, prm, 60.0)
            assert np.abs(pt.state - state).max() < 1e-10, prm

    def test_non_finite_rhs_raises(self, monkeypatch):
        prm = ModelParams(V=-5, g=-1, p=0.6)
        scalar = meanfield._ode_rhs(prm)

        def turns_non_finite(_params):
            return lambda t, y: scalar(t, y) if t < 1.0 else (math.nan, 0.0, 0.0)

        monkeypatch.setattr(meanfield, "_ode_rhs", turns_non_finite)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="dop853: step size becomes too small"):
                settle([0, 0, -1], prm, 50.0)

    def test_rhs_exception_is_reraised(self):
        calls = []

        def fails_later(t, y):
            calls.append(t)
            if t > 1.0:
                raise ZeroDivisionError("rhs failed")
            return -y

        with pytest.raises(ZeroDivisionError, match="rhs failed"):
            _dop853(fails_later, np.ones(3), 0.0, 10.0, 1e-12, 1e-14)
        # the compiled loop gives up at once instead of calling on
        assert len(calls) < 10_000

    def test_stiffness_interruption_resumes(self, monkeypatch):
        codes = []

        class RecordingOde(scipy.integrate.ode):
            def get_return_code(self):
                codes.append(super().get_return_code())
                return codes[-1]

        monkeypatch.setattr(meanfield, "ode", RecordingOde)
        monkeypatch.setattr(meanfield, "_SOLVERS", {})
        rates = np.array([1e4, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = _dop853(lambda _t, y: -rates * y, np.ones(2), 0.0, 2.0, 1e-10, 1e-12)
        assert -4 in codes and codes[-1] == 1
        assert abs(y[1] - math.exp(-2.0)) < 1e-9 and abs(y[0]) < 1e-9

    def test_runs_keep_no_reference_to_their_callables(self):
        # the compiled code never drops the callables it is handed; a run
        # must still leave its right-hand side and stop test to be freed
        for size in (1, 3, 50):
            fun = lambda _t, y: -y  # noqa: E731
            stop = lambda y: False  # noqa: E731
            refs = weakref.ref(fun), weakref.ref(stop)
            for _ in range(3):
                _dop853(fun, np.ones(size), 0.0, 1.0, 1e-10, 1e-12, stop=stop)
            del fun, stop
            gc.collect()
            assert refs[0]() is None and refs[1]() is None

    def test_repeated_runs_hold_no_memory(self):
        # a solver per run would keep its 11 n + 21 work doubles, 88 kB
        # here, for good: 200 runs would hold 17 MB
        y0 = np.ones(1000)
        _dop853(lambda _t, y: -y, y0, 0.0, 0.01, 1e-10, 1e-12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                _dop853(lambda _t, y: -y, y0, 0.0, 0.01, 1e-10, 1e-12)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 200_000

    def test_repeated_settle_runs_hold_no_memory(self):
        # set_initial_value binds the integrator's step callback afresh on
        # every run unless it is bound once, and the compiled code keeps
        # each one it is handed: 64 bytes a run, 125 kB over these runs
        prm = ModelParams(V=-5.0, g=-1.0, p=0.6)
        s0 = np.array([0.0, 0.6, -0.8])
        settle(s0, prm, 0.05)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2000):
                settle(s0, prm, 0.05)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 32_000

    def test_failed_run_leaves_the_solver_usable(self):
        def fails(_t, _y):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            _dop853(fails, np.ones(2), 0.0, 1.0, 1e-10, 1e-12)
        y = _dop853(lambda _t, y: -y, np.ones(2), 0.0, 1.0, 1e-10, 1e-12)
        assert np.abs(y - math.exp(-1.0)).max() < 1e-9

    def test_stop_ends_at_first_step_where_true(self):
        tested = []

        def below_half(y):
            tested.append(y[0])
            return y[0] < 0.5

        y = _dop853(lambda _t, y: -y, np.ones(1), 0.0, 10.0, 1e-10, 1e-12, stop=below_half)
        # every step before the last ended above 1/2, and the run ended
        # at the first step below it
        assert all(v >= 0.5 for v in tested[:-1]) and tested[-1] < 0.5
        assert y[0] == tested[-1]


def pole_offset(d):
    """A state d off the south pole in X and in Y."""
    return np.array([d, d, -math.sqrt(1.0 - 2.0 * d * d)])


def p1_integral(states, prm):
    """ln|w| - (Gamma/4V) arg w, w = xi - i g/(Gamma/8 + i V/2), arg unwrapped."""
    w = states[:, 0] + 1j * states[:, 1] - 1j * prm.g / (prm.Gamma / 8.0 + 0.5j * prm.V)
    return np.log(np.abs(w)) - prm.Gamma / (4.0 * prm.V) * np.unwrap(np.angle(w))


def g0_integral(states, prm):
    """l2 ln|u| - l1 ln|v| in the eigen-coordinates (u, v) of M, l1 > l2 real."""
    a, p, v = prm.Gamma / 8.0, prm.p, prm.V
    lam, vec = np.linalg.eig(np.array([[a, -p * v / 2.0], [(2.0 * p - 1.0) * v / 2.0, a]]))
    assert np.isreal(lam).all()
    order = np.argsort(-lam.real)
    lam, vec = lam.real[order], vec.real[:, order]
    u, w = np.linalg.solve(vec, states[:, :2].T)
    return lam[1] * np.log(np.abs(u)) - lam[0] * np.log(np.abs(w))


class TestFirstIntegral:
    """On p = 1 and g = 0, dX/dt and dY/dt share the factor Z: with ds = Z dt
    the planar flow is affine-linear and has a first integral."""

    @pytest.mark.parametrize("v,g", [(-5.0, 3.0), (-2.0, 4.0), (-1.0, -1.05)])
    @pytest.mark.parametrize("d", [1e-3, 1e-2, 1e-1])
    def test_conserved_at_p1(self, v, g, d):
        prm = ModelParams(V=v, g=g, p=1.0)
        traj = integrate_trajectory(pole_offset(d), prm, t_end=300.0)
        z = traj.states[:, 2]
        assert (np.diff(np.sign(z)) != 0).sum() > 50  # the orbit keeps crossing the equator
        integral = p1_integral(traj.states, prm)
        assert np.abs(integral - integral[0]).max() < 1e-8

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4])
    def test_conserved_at_g0(self, p):
        prm = ModelParams(V=-5.0, g=0.0, p=p)
        traj = integrate_trajectory(pole_offset(1e-3), prm, t_end=400.0)
        z = traj.states[:, 2]
        assert (np.diff(np.sign(z)) != 0).sum() > 10
        integral = g0_integral(traj.states, prm)
        assert np.abs(integral - integral[0]).max() < 1e-6


class TestSeedOrbit:
    def test_none_off_the_lines_and_where_degenerate(self):
        seed = pole_offset(1e-3)
        for prm in (
            ModelParams(V=-5, g=-1, p=0.5),  # off both lines
            ModelParams(V=-5, g=0, p=0),  # g = 0 at p = 0
            ModelParams(V=-5, g=0, p=0.5),  # a Jordan block
            ModelParams(V=0, g=1, p=1, Gamma=8),  # the centre on the equator
        ):
            assert seed_orbit(seed, prm) is None, prm
        assert seed_orbit(-seed, ModelParams(V=-5, g=1, p=1)) is None  # a northern state

    @pytest.mark.parametrize("v,g", [(-5.0, 0.4), (-5.0, -1.2), (-0.3, 0.1), (0.0, 0.05), (2.0, 0.0)])
    def test_centre_is_the_closed_form_root(self, v, g):
        prm = ModelParams(V=v, g=g, p=1.0)
        orbit = seed_orbit(pole_offset(1e-3), prm)
        assert orbit.kind == "centre"
        assert np.abs(orbit.point - analytic_p1(prm)).max() < 1e-12

    def test_verdicts_match_integration(self):
        # closed: the trajectory reaches the equator, where the closed form
        # says; centre: it never does and ends at the centre
        rng = np.random.default_rng(7)
        cells = [(ModelParams(V=-1.0, g=0.0, p=0.2), pole_offset(1e-3))]  # |u| ~ 1e-21 at the exit
        for k in range(24):
            if k % 2:
                prm = ModelParams(V=float(rng.uniform(-6, 6)), g=float(rng.uniform(-3, 3)), p=1.0)
            else:
                prm = ModelParams(V=float(rng.uniform(-6, 6)), g=0.0, p=float(rng.uniform(0.05, 0.95)))
            cells.append((prm, pole_offset(float(10.0 ** rng.uniform(-3, -1)))))
        assert seed_orbit(cells[0][1], cells[0][0]).kind == "closed"
        kinds = []
        for prm, state in cells:
            orbit = seed_orbit(state, prm)
            if orbit is None:
                continue

            def equator(_t, y):
                return y[2]

            equator.terminal = True
            sol = solve_ivp(_ode_rhs(prm), (0.0, 600.0), state, method="DOP853",
                            rtol=1e-10, atol=1e-12, events=equator)
            kinds.append(orbit.kind)
            if orbit.kind == "closed":
                assert sol.t_events[0].size == 1, prm
                assert np.abs(sol.y_events[0][0] - orbit.point).max() < 1e-6, prm
            else:
                assert orbit.kind == "centre" and sol.t_events[0].size == 0, prm
                assert np.abs(sol.y[:, -1] - orbit.point).max() < 1e-6, prm
        assert {"closed", "centre"} <= set(kinds)

    @pytest.mark.parametrize("v,g,p", [(-5.0, 1.5, 1.0), (-1.0, 0.5, 1.0), (-5.0, 0.0, 0.8),
                                       (3.0, 0.0, 0.7)])
    def test_separatrix_ends_on_the_equator_root(self, v, g, p):
        # states on the orbit through an equator root, where the flow is
        # tangent to the equator, a little after the root in s (ds = Z dt),
        # so that the flow carries them onto it; the planar flow
        # d(X, Y)/ds = M ((X, Y) - c) is solved with expm
        prm = ModelParams(V=v, g=g, p=p)
        a = prm.Gamma / 8.0
        m = np.array([[a, -p * v / 2.0], [(2.0 * p - 1.0) * v / 2.0, a]])
        centre = np.linalg.solve(m, [0.0, p * g])
        roots = [fp.state for fp in find_fixed_points(prm) if abs(fp.state[2]) < 1e-12]
        found = 0
        for root in roots:
            xy = centre + scipy.linalg.expm(m * 1e-2) @ (root[:2] - centre)
            if xy @ xy >= 1.0:
                continue  # the orbit touches the equator from outside there
            state = np.array([xy[0], xy[1], -math.sqrt(1.0 - xy @ xy)])
            orbit = seed_orbit(state, prm)
            assert orbit.kind == "separatrix", (prm, root)
            assert np.abs(orbit.point - root).max() < 1e-9, (prm, root)
            found += 1
        assert found

    def test_pole_orbit_beside_a_stable_focus(self):
        # at p = 1, g = 1.5 the pole orbit is closed; a state on the orbit
        # through an equator root, before the root in s, runs into the focus
        prm = ModelParams(V=-5.0, g=1.5, p=1.0)
        assert seed_orbit(pole_offset(1e-3), prm).kind == "closed"
        lam = prm.Gamma / 8.0 + 0.5j * prm.V
        centre = 1j * prm.g / lam
        y = prm.Gamma / (8.0 * prm.g)
        root = complex(-math.sqrt(1.0 - y * y), y)
        xi = centre + (root - centre) * np.exp(-1e-2 * lam)
        orbit = seed_orbit(np.array([xi.real, xi.imag, -math.sqrt(1.0 - abs(xi) ** 2)]), prm)
        assert orbit.kind == "centre"
        assert np.abs(orbit.point - analytic_p1(prm)).max() < 1e-12


class TestLimitCycle:
    def test_constant_trajectory_is_none(self):
        traj = integrate_trajectory([0, 0, -1], ModelParams(V=-5, g=1, p=0), 100.0)
        assert detect_limit_cycle(traj) is None

    def test_decaying_spiral_is_none(self):
        # converges to the p=1 stable point; no persistent oscillation
        traj = integrate_trajectory([0, 0, 1], ModelParams(V=-5, g=1, p=1), 300.0)
        assert detect_limit_cycle(traj, 0.5) is None

    def test_unstable_region_has_cycle(self):
        traj = integrate_trajectory([0, 0, 1], ModelParams(V=-5, g=3, p=1), 200.0)
        cycle = detect_limit_cycle(traj, 0.5)
        assert cycle is not None
        assert cycle.period > 0
        assert cycle.z_amplitude > 0.01

    def test_short_window_raises(self):
        traj = integrate_trajectory([0, 0, 1], ModelParams(V=-5, g=3, p=1), 5.0)
        with pytest.raises(InsufficientDataError):
            detect_limit_cycle(traj, 0.9)


class TestContinuation:
    def test_tracks_closed_form_along_g(self):
        # sweep outward from the undriven point in both directions; warm
        # starts keep the branch even where a limit cycle coexists
        base = ModelParams(V=-5, g=0, p=1)
        start = np.array([0.0, 0.0, -1.0])
        for sign in (+1.0, -1.0):
            g_values = sign * np.linspace(0.0, 2.3, 13)
            path = [replace(base, g=float(g)) for g in g_values]
            branch = continuation_sweep(path, start, settle_time=300.0)
            for pt in branch:
                ref = analytic_p1(pt.params)
                assert np.abs(pt.state - ref).max() < 1e-6
                # relaxation slows critically toward |g| -> g_c, so the
                # strict residual flag is only demanded away from the edge
                if abs(pt.params.g) <= 2.0:
                    assert pt.converged

    def test_single_point_path(self):
        prm = ModelParams(V=-5, g=1, p=1)
        branch = continuation_sweep([prm], [0, 0, -1], settle_time=200.0)
        assert len(branch) == 1
        assert branch[0].converged
        assert np.abs(branch[0].state - analytic_p1(prm)).max() < 1e-6

    def test_hysteresis_branches_disagree(self):
        base = ModelParams(V=-5, g=-1, p=0)
        ps = np.linspace(0.6, 1.0, 11)
        path_up = [replace(base, p=float(p)) for p in ps]
        up = continuation_sweep(path_up, [0, 0, -1], settle_time=300.0)
        down = continuation_sweep(path_up[::-1], [0, 0, -1], settle_time=300.0)[::-1]
        dz = np.array([abs(u.state[2] - d.state[2]) for u, d in zip(up, down)])
        assert dz.max() > 0.5  # branches split over part of the range
        assert dz.min() < 1e-2  # and coincide outside it

    def test_path_validation(self):
        prm = ModelParams(V=-5, g=1, p=1)
        with pytest.raises(ValueError):
            continuation_sweep([], [0, 0, -1])
        with pytest.raises(ValueError):
            continuation_sweep([prm, prm], [0, 0, -1])  # nothing changes
        with pytest.raises(ValueError):
            # two parameters change at once
            continuation_sweep(
                [prm, ModelParams(V=-4, g=2, p=1)], [0, 0, -1]
            )


class TestNewtonOracle:
    """The exact enumeration against the multi-start Newton search."""

    # Saddle-node where the second lower branch is born at V = -5, g = -1:
    # the sharp edge of the hysteresis interval near p = 0.77.
    EDGE_P = 0.7669319806

    def test_matches_oracle_on_grid(self):
        grid = list(itertools.product(
            (-5.0, -1.0, -0.3, 0.0, 2.0),
            (-3.0, -1.0, -0.3, 0.0, 0.0063, 0.5, 2.5),
            (0.0, 0.1, 0.3, 0.5, 0.77, 0.9, 1.0),
            (1.0, 0.5),
        ))
        grid += [(-5.0, -1.0, self.EDGE_P + dp, 1.0) for dp in (-1e-4, -1e-6, 1e-6, 1e-4)]
        mismatches = []
        for v, g, p, gamma in grid:
            prm = ModelParams(V=v, g=g, p=p, Gamma=gamma)
            exact = find_fixed_points(prm)
            oracle = newton_fixed_points(prm, n_seeds=300, rng_seed=0)
            ours = [fp.state for fp in exact if fp.stable]
            theirs = [fp.state for fp in oracle if fp.stable]
            same = len(ours) == len(theirs) and all(
                min(np.abs(s - t).max() for t in theirs) <= 1e-8 for s in ours
            )
            # every root the oracle finds on the sphere is enumerated too
            on_sphere = [fp.state for fp in oracle if abs(np.linalg.norm(fp.state) - 1) <= 1e-8]
            complete = all(
                any(np.abs(s - fp.state).max() <= 1e-8 for fp in exact) for s in on_sphere
            )
            if not (same and complete):
                mismatches.append((v, g, p, gamma, len(ours), len(theirs), complete))
        assert not mismatches
