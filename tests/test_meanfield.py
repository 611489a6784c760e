import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dissipative_ising import (
    InsufficientDataError,
    ModelParams,
    NotAFixedPointError,
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
from dissipative_ising.meanfield import (
    ROOT_TOL,
    _capture_region,
    _jacobian_many,
    _ode_rhs,
    _rhs_many,
)
from newton_oracle import newton_fixed_points


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
            ref = batched_rhs_solve(s0, prm, 50.0, 1e-12, 1e-14, [50.0])
            assert np.array_equal(settle(s0, prm, 50.0), ref.y[:, -1])

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
            state = batched_rhs_solve(state, prm, 60.0, 1e-12, 1e-14, [60.0]).y[:, -1]
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
