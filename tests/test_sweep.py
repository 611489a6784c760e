import itertools
import math

import numpy as np
import pytest

import dissipative_ising.meanfield as meanfield_module
import dissipative_ising.sweep as sweep_module
from dissipative_ising import (
    ModelParams,
    analytic_boundaries,
    analytic_p1,
    hysteresis_experiment,
    multistability_map,
    phase_diagram,
)
from dissipative_ising.liouville import N_LIMIT
from dissipative_ising.meanfield import SeedOrbit, find_fixed_points, integrate_trajectory, settle
from dissipative_ising.sweep import SOUTH_POLE_SEED, Axis, GridSpec
from settle_oracle import oracle_row
from test_meanfield import same_fixed_points


FIXED = ModelParams(V=-5, g=0, p=0)


class TestGridSpec:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis("q", 0, 1, 5)
        with pytest.raises(ValueError):
            Axis("g", 0, 1, 1)
        with pytest.raises(ValueError):
            Axis("g", 1, 0, 5)

    def test_distinct_axes(self):
        with pytest.raises(ValueError):
            GridSpec(Axis("g", 0, 1, 3), Axis("g", 0, 1, 3), FIXED)

    def test_row_major_order(self):
        grid = GridSpec(Axis("g", 0.0, 1.0, 2), Axis("p", 0.0, 1.0, 3), FIXED)
        assert [(idx, prm.g, prm.p) for idx, prm in grid.points()] == [
            ((0, 0), 0.0, 0.0), ((0, 1), 0.0, 0.5), ((0, 2), 0.0, 1.0),
            ((1, 0), 1.0, 0.0), ((1, 1), 1.0, 0.5), ((1, 2), 1.0, 1.0),
        ]

    def test_one_dimensional_grid(self):
        grid = GridSpec(Axis("g", -1.0, 1.0, 5), None, FIXED)
        assert grid.shape == (5, 1)
        assert [idx for idx, _prm in grid.points()] == [(i, 0) for i in range(5)]


class TestPhaseDiagram:
    def test_p1_row_boundary(self):
        # crossing |g| = sqrt(16 V^2 + 1)/8 = 2.50312 kills the stable point
        grid = GridSpec(Axis("g", 2.4, 2.6, 5), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid, select_branch=False)
        counts = [pt.stable_count for pt in points]
        assert counts == [1, 1, 1, 0, 0]

    def test_unstable_region_flags_limit_cycle(self):
        grid = GridSpec(Axis("g", 2.9, 3.1, 2), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid)
        for pt in points:
            assert pt.stable_count == 0
            assert pt.limit_cycle
            assert math.isnan(pt.selected_Z)

    def test_selected_z_matches_closed_form(self):
        # the pole lies in the fixed point's basin across this g range
        grid = GridSpec(Axis("g", 0.4, 1.2, 3), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid)
        for pt in points:
            assert pt.selected_Z == pytest.approx(analytic_p1(pt.params)[2], abs=1e-6)

    def test_selection_reports_coexisting_cycle(self):
        # at p=1, g=1.5 the pole orbit is closed beside the stable focus, so
        # branch selection reports the cycle instead
        grid = GridSpec(Axis("g", 1.5, 1.6, 2), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid)
        for pt in points:
            assert pt.stable_count == 1
            assert math.isnan(pt.selected_Z)
            assert pt.limit_cycle

    def test_p0_row_counts(self):
        grid = GridSpec(Axis("g", 0.5, 3.0, 2), None, ModelParams(V=-5, g=0, p=0))
        points = phase_diagram(grid, select_branch=False)
        # g=0.5 inside the ordered window: the +/-X pair; g=3 outside: pole only
        assert points[0].stable_count == 2
        assert points[1].stable_count == 1

    def test_quantum_solver_rows(self):
        grid = GridSpec(Axis("g", 0.5, 1.0, 2), None, ModelParams(V=-5, g=0, p=1, N=8))
        points = phase_diagram(grid, solver="quantum", compute_gap=True)
        for pt in points:
            assert pt.error is None
            assert pt.gap is not None and pt.gap > 0
            assert -1.0 <= pt.selected_Z <= 1.0
            assert pt.magnetization is not None

    def test_quantum_requires_n(self):
        grid = GridSpec(Axis("g", 0.5, 1.0, 2), None, FIXED)
        with pytest.raises(ValueError):
            phase_diagram(grid, solver="quantum")

    def test_quantum_sweep_size_cap(self, monkeypatch):
        # the cap is checked before any point is solved
        def no_solve(task):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(sweep_module, "_quantum_point", no_solve)
        big = ModelParams(V=-5, g=0, p=1, N=N_LIMIT + 1)
        grid = GridSpec(Axis("g", 0.5, 1.0, 2), None, big)
        with pytest.raises(ValueError, match=f"capped at N={N_LIMIT}"):
            phase_diagram(grid, solver="quantum")
        # N = N_LIMIT passes the check and reaches the solver
        at_cap = GridSpec(Axis("g", 0.5, 1.0, 2), None, ModelParams(V=-5, g=0, p=1, N=N_LIMIT))
        with pytest.raises(AssertionError, match="a point was solved"):
            phase_diagram(at_cap, solver="quantum")

    def test_worker_determinism(self):
        grid = GridSpec(Axis("g", -2.0, 2.0, 3), Axis("p", 0.0, 1.0, 2), FIXED)
        a = phase_diagram(grid, workers=1)
        b = phase_diagram(grid, workers=2)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.index == pb.index
            assert pa.stable_count == pb.stable_count
            assert (pa.selected_Z == pb.selected_Z) or (
                math.isnan(pa.selected_Z) and math.isnan(pb.selected_Z)
            )
            for fa, fb in zip(pa.stable_points, pb.stable_points):
                assert np.array_equal(fa.state, fb.state)

    def test_per_point_failures_isolate(self, monkeypatch):
        real = meanfield_module._p1_candidates

        def flaky(params):
            if params.g == 1.0:
                raise RuntimeError("synthetic failure")
            return real(params)

        monkeypatch.setattr(meanfield_module, "_p1_candidates", flaky)
        grid = GridSpec(Axis("g", 0.5, 1.5, 3), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid, select_branch=False)
        assert [pt.error is not None for pt in points] == [False, True, False]
        assert points[1].error == "RuntimeError: synthetic failure"
        assert points[1].stable_count == 0
        assert points[0].stable_count == 1 and points[2].stable_count == 1

    def test_block_failure_stays_in_its_row(self, monkeypatch):
        # a non-finite Z polynomial in one generic cell makes the stacked
        # eigensolve of the whole block raise; the block's rows are then
        # searched one by one, and only that row records the failure
        grid = GridSpec(Axis("g", -0.55, -0.05, 3), Axis("p", 0.0, 1.0, 9), FIXED)
        clean = multistability_map(grid)
        assert all(pt.error is None for pt in clean)
        (target_index, target), real = list(grid.points())[13], meanfield_module._z_polynomials

        def poisoned(rows):
            c, d, poly = real(rows)
            poly[(rows.g == target.g) & (rows.p == target.p)] = math.nan
            return c, d, poly

        monkeypatch.setattr(meanfield_module, "_z_polynomials", poisoned)
        points = multistability_map(grid)
        assert [pt.index for pt in points if pt.error is not None] == [target_index]
        assert points[13].error.startswith("LinAlgError") and points[13].stable_count == 0
        for a, b in zip(clean, points):
            if b.index != target_index:
                assert (a.index, a.params, a.limit_cycle) == (b.index, b.params, b.limit_cycle)
                assert same_fixed_points(a.stable_points, b.stable_points)
                assert np.array_equal(a.selected_Z, b.selected_Z, equal_nan=True)

    def test_undecided_cycle_check_records_reason(self):
        # at V=0, g=1, p=1, Gamma=8 the planar centre lies on the equator, where
        # the closed form of the pole orbit degenerates: the trajectory creeps
        # toward that marginal root, and the cycle window sees no oscillation
        grid = GridSpec(Axis("g", 1.0, 2.0, 2), None, ModelParams(V=0, g=0, p=1, Gamma=8))
        point = multistability_map(grid)[0]
        assert point.error == "InsufficientDataError: window holds no complete oscillation"
        assert point.stable_count == 0 and not point.limit_cycle

    def test_undriven_pole_orbit_is_closed(self):
        # at V=-5, g=0, p=0.2 the pole is a saddle of the planar flow: the
        # pole orbit crosses the equator and is closed
        grid = GridSpec(Axis("p", 0.2, 0.3, 2), None, ModelParams(V=-5, g=0, p=0))
        for point in multistability_map(grid):
            assert point.stable_count == 0 and point.limit_cycle
            assert point.error is None and math.isnan(point.selected_Z)

    # (params, select_branch) -> the settle windows ("settle") and cycle
    # checks ("check") of the pole-selection schedule, in order
    SCHEDULES = {
        # on the integrable lines p = 1 and g = 0 the closed form decides:
        # a closed orbit with no stable point, at p = 1 and at g = 0
        "seed_cycle": ((-1.0, -1.05, 1.0), True, []),
        "undecided_seed": ((-5.0, 0.0, 0.2), True, []),
        # a stable focus that the pole orbit spirals into
        "captured": ((-5.0, 0.8, 1.0), True, []),
        # no selection asked for, and a stable point: nothing runs
        "no_selection": ((-5.0, 0.8, 1.0), False, []),
        # a stable point the pole does not reach in four windows, and no
        # cycle: the windows, then one check from their end.  Just past the
        # pole exchange g- = 0.0063 at p = 0 the pole spirals into a stable
        # pair with tangent eigenvalues of real part -0.001
        "stable_uncaptured": ((-5.0, 0.0197, 0.0), True, ["settle"] * 4 + ["check"]),
        # a stable point captured in window 0
        "captured_interior": ((-5.0, 0.8, 0.5), True, ["settle"]),
        # no selection asked for, and a stable point: nothing runs
        "no_selection_interior": ((-5.0, 0.8, 0.5), False, []),
    }

    @pytest.mark.parametrize("case", list(SCHEDULES))
    def test_selection_schedule(self, monkeypatch, case):
        (v, g, p), select_branch, expected = self.SCHEDULES[case]
        prm = ModelParams(V=v, g=g, p=p)
        log = []

        def settled(*args, **kwargs):
            log.append("settle")
            assert args[2] == 200.0
            return settle(*args, **kwargs)

        def checked(*args, **kwargs):
            log.append("check")
            return real_check(*args, **kwargs)

        real_check = sweep_module._detect_cycle_from
        monkeypatch.setattr(sweep_module, "settle", settled)
        monkeypatch.setattr(sweep_module, "_detect_cycle_from", checked)
        pt = sweep_module._mf_point(((0, 0), prm, select_branch))
        assert log == expected
        if select_branch and g != 0.0:
            # the row is the whole-window one, its error included (at g = 0
            # see TestSelectionOracle)
            count, z, cycle, error = oracle_row(prm)
            assert (pt.stable_count, pt.limit_cycle, pt.error) == (count, cycle, error)
            assert pt.selected_Z == z or (math.isnan(pt.selected_Z) and math.isnan(z))

    def test_cycle_check_failures_isolate(self, monkeypatch):
        def broken(traj, transient_fraction):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep_module, "detect_limit_cycle", broken)
        # short windows for speed: the pole trajectory is not captured in
        # four of them at either point, so the cycle check runs
        monkeypatch.setattr(sweep_module, "SETTLE_WINDOW", 20.0)
        grid = GridSpec(Axis("g", -3.0, -2.9, 2), None, ModelParams(V=-5, g=0, p=0.9))
        points = phase_diagram(grid)
        for pt in points:
            assert pt.error == "RuntimeError: synthetic failure"

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 1)
        negate = lambda block: [-t for t in block]  # noqa: E731
        assert sweep_module._run_tasks(negate, [-3, 4, -5], workers=8) == [3, -4, 5]

    def test_invalid_solver_and_workers(self):
        grid = GridSpec(Axis("g", 0.5, 1.5, 2), None, FIXED)
        with pytest.raises(ValueError):
            phase_diagram(grid, solver="exact")
        with pytest.raises(ValueError):
            phase_diagram(grid, workers=0)


class TestSelectionOracle:
    """Capture against whole-window selection.

    Off the integrable lines, which the closed form decides, capture is
    the only difference between the library and the oracle.
    """

    GRID = list(itertools.product(
        (-5.0, -1.0, -0.3),
        (0.0, 0.2, 0.5, 0.77, 0.9, 1.0),
        (-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.5),
    ))

    def test_matches_four_window_oracle(self):
        changed, closed = [], []
        for v, p, g in self.GRID:
            prm = ModelParams(V=v, g=g, p=p)
            count, z, cycle, error = oracle_row(prm)
            pt = sweep_module._mf_point(((0, 0), prm, True))
            same_z = pt.selected_Z == z or (math.isnan(pt.selected_Z) and math.isnan(z))
            if (pt.stable_count, pt.limit_cycle, pt.error) == (count, cycle, error) and same_z:
                continue
            # rows may differ only where the oracle neither converged nor saw a cycle
            assert math.isnan(z) and not cycle, (v, p, g)
            if g == 0.0 and pt.limit_cycle:
                closed.append((prm, pt))
            else:
                changed.append((prm, pt))
        assert changed  # the grid holds slow relaxations that only capture settles
        assert closed  # and closed g = 0 orbits the cycle window cannot call
        for prm, pt in closed:
            # at g = 0 with det M < 0 the pole is a saddle of the planar flow
            # d(X, Y)/ds = M (X, Y), ds = Z dt; the first integral
            # l2 ln|u| - l1 ln|v| (l1 > 0 > l2, u and v its eigen-coordinates)
            # makes |v| grow without bound as s falls, so the pole orbit
            # leaves the unit disk: it crosses the equator and is closed
            a, p, v = prm.Gamma / 8.0, prm.p, prm.V
            det = a * a + p * (2.0 * p - 1.0) * v * v / 4.0
            assert 0.0 < p < 1.0 and det < 0.0, prm
            assert pt.stable_count == 0 and pt.error is None and math.isnan(pt.selected_Z)
        for prm, pt in changed:
            # a slow relaxation onto the captured root that four windows
            # were too short to finish
            assert not pt.limit_cycle and pt.error is None
            end = settle(SOUTH_POLE_SEED, prm, 6000.0)
            # (a reflected pair of roots can share the selected Z)
            roots = [fp.state for fp in pt.stable_points if fp.state[2] == pt.selected_Z]
            assert min(np.abs(end - root).max() for root in roots) < 1e-13, prm


class TestIntegrableLines:
    """The closed-form pole orbit on p = 1 and g = 0 against integration."""

    @staticmethod
    def no_integration(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated on an integrable line")

        monkeypatch.setattr(sweep_module, "settle", refuse)
        monkeypatch.setattr(sweep_module, "_detect_cycle_from", refuse)

    def test_p1_subgrid_matches_whole_window_oracle(self, monkeypatch):
        self.no_integration(monkeypatch)
        cycles = 0
        for v, g in itertools.product(np.linspace(-10.0, -0.25, 8), np.linspace(-4.0, 4.0, 9)):
            prm = ModelParams(V=float(v), g=float(g), p=1.0)
            # four 100-unit windows settle every stable cell of this grid;
            # 200-unit windows give the same rows in 1.7 times the time
            count, z, cycle, error = oracle_row(prm, settle_time=100.0)
            pt = sweep_module._mf_point(((0, 0), prm, True))
            assert (pt.stable_count, pt.limit_cycle, pt.error) == (count, cycle, error), prm
            assert pt.selected_Z == z or (math.isnan(pt.selected_Z) and math.isnan(z)), prm
            cycles += cycle
        assert 0 < cycles < 72

    def test_undriven_closed_orbits_return_to_the_seed_level_set(self, monkeypatch):
        # the g = 0 column of fig3b_multistability (V = -5)
        grid = GridSpec(Axis("p", 0.0, 1.0, 41), None, ModelParams(V=-5, g=0, p=0))
        self.no_integration(monkeypatch)
        closed = [pt.params for pt in multistability_map(grid) if pt.limit_cycle]
        monkeypatch.undo()
        assert len(closed) == 19
        for prm in closed:
            traj = integrate_trajectory(SOUTH_POLE_SEED, prm, t_end=400.0)
            # the first integral l2 ln|u| - l1 ln|v| in M's eigen-coordinates
            a, p, v = prm.Gamma / 8.0, prm.p, prm.V
            lam, vec = np.linalg.eig(np.array([[a, -p * v / 2.0], [(2.0 * p - 1.0) * v / 2.0, a]]))
            lam, vec = lam.real, vec.real
            u, w = np.linalg.solve(vec, traj.states[:, :2].T)
            integral = lam[1] * np.log(np.abs(u)) - lam[0] * np.log(np.abs(w))
            assert np.abs(integral - integral[0]).max() < 1e-5, prm
            # north across the equator, back south, and through the seed again
            crossings = np.flatnonzero(np.diff(np.sign(traj.states[:, 2])))
            assert crossings.size >= 4, prm
            back = traj.times > traj.times[crossings[1]]
            assert np.linalg.norm(traj.states[back] - SOUTH_POLE_SEED, axis=1).min() < 1e-5, prm

    def test_separatrix_gives_row_error(self, monkeypatch):
        root = np.array([-0.5, 0.25, 0.0])
        monkeypatch.setattr(sweep_module, "seed_orbit",
                            lambda _state, _prm: SeedOrbit("separatrix", root))
        self.no_integration(monkeypatch)
        pt = sweep_module._mf_point(((0, 0), ModelParams(V=-5, g=1.5, p=1), True))
        assert math.isnan(pt.selected_Z) and not pt.limit_cycle
        assert pt.error == "separatrix: the pole orbit ends on the equator root (-0.5, 0.25, 0)"


class TestMultistability:
    def test_axis_names_restricted(self):
        grid = GridSpec(Axis("g", 0, 1, 2), Axis("V", -6, -4, 2), FIXED)
        with pytest.raises(ValueError):
            multistability_map(grid)

    def test_tristable_point_found(self):
        grid = GridSpec(Axis("g", -0.4, -0.3, 2), Axis("p", 0.6, 0.7, 2), FIXED)
        points = multistability_map(grid)
        assert max(pt.stable_count for pt in points) == 3


class TestBoundaries:
    def test_reference_values(self):
        rows = analytic_boundaries([-5.0], gamma=1.0)
        row = rows[0]
        assert row["gc_p1"] == pytest.approx(2.50312, abs=5e-6)
        assert row["gplus_c"] == pytest.approx(2.49373, abs=5e-6)
        assert row["gminus_c"] == pytest.approx(0.0062657, abs=5e-8)
        assert row["gplus_c_signed"] < 0 and row["gminus_c_signed"] < 0

    def test_window_closes_at_critical_interaction(self):
        row = analytic_boundaries([-0.5], gamma=1.0)[0]
        assert row["gplus_c"] == pytest.approx(row["gminus_c"], rel=1e-12)

    def test_no_window_above_critical_interaction(self):
        row = analytic_boundaries([-0.4], gamma=1.0)[0]
        assert math.isnan(row["gplus_c"]) and math.isnan(row["gminus_c"])

    def test_zero_interaction_field_boundary(self):
        row = analytic_boundaries([0.0], gamma=1.0)[0]
        assert row["gc_p1"] == pytest.approx(0.125, abs=0)
        assert math.isnan(row["gplus_c"])

    def test_no_window_for_positive_interaction(self):
        # 4V^2 >= Gamma^2 also holds for V >= Gamma/2, but there only the
        # south pole is stable at p = 0
        rows = analytic_boundaries([-5.0, 5.0], gamma=1.0)
        assert rows[0] == analytic_boundaries([-5.0], gamma=1.0)[0]
        assert rows[1]["gc_p1"] == rows[0]["gc_p1"]
        for key in ("gplus_c", "gminus_c", "gplus_c_signed", "gminus_c_signed"):
            assert math.isnan(rows[1][key])
        for g in (0.0063, 1.0, 2.49):
            stable = [fp for fp in find_fixed_points(ModelParams(V=5, g=g, p=0)) if fp.stable]
            assert [fp.state[2] for fp in stable] == [-1.0]

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            analytic_boundaries([-5.0], gamma=0.0)


class TestHysteresis:
    def test_zero_width_range_gives_identical_points(self):
        res = hysteresis_experiment(
            (0.4, 0.4, 1), ModelParams(V=-5, g=-1, p=0.4)
        )
        assert res.p_values.tolist() == [0.4]
        assert np.array_equal(res.up, res.down)
        assert res.bistable_interval is None

    def test_single_direction(self):
        res = hysteresis_experiment(
            (0.0, 0.2, 3), ModelParams(V=-5, g=-1, p=0.0), direction="up"
        )
        assert res.down is None and res.up is not None
        assert res.bistable_interval is None

    def test_mf_bistable_interval_detected(self):
        res = hysteresis_experiment(
            (0.6, 1.0, 11), ModelParams(V=-5, g=-1, p=0.6)
        )
        assert res.bistable_interval is not None
        lo, hi = res.bistable_interval
        assert 0.7 < lo < 0.85
        assert hi == pytest.approx(1.0)

    def test_quantum_solver_small_system(self):
        res = hysteresis_experiment(
            (0.5, 1.0, 6), ModelParams(V=-5, g=-1, p=0.5, N=6),
            solver="quantum", window=20.0,
        )
        assert res.up.shape == (6, 3)
        assert res.down.shape == (6, 3)
        assert res.up_converged is None

    def test_validation(self):
        prm = ModelParams(V=-5, g=-1, p=0.5)
        with pytest.raises(ValueError):
            hysteresis_experiment((0.5, 0.4, 3), prm)
        with pytest.raises(ValueError):
            hysteresis_experiment((0.4, 0.5, 1), prm)
        with pytest.raises(ValueError, match="count > 1 requires p_lo < p_hi"):
            hysteresis_experiment((0.4, 0.4, 3), prm)
        with pytest.raises(ValueError, match="count > 1 requires p_lo < p_hi"):
            hysteresis_experiment((0.4, 0.4, 3), ModelParams(V=-5, g=-1, p=0.4, N=4),
                                  solver="quantum")
        with pytest.raises(ValueError):
            hysteresis_experiment((0.4, 0.5, 3), prm, direction="sideways")
        with pytest.raises(ValueError):
            hysteresis_experiment((0.4, 0.5, 3), prm, solver="quantum")  # no N
