import itertools
import math

import numpy as np
import pytest

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
from dissipative_ising.meanfield import find_fixed_points, settle
from dissipative_ising.sweep import SOUTH_POLE_SEED, Axis, GridSpec
from settle_oracle import oracle_row


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
        points = phase_diagram(grid, select_branch=False,
                               detect_cycles=False)
        counts = [pt.stable_count for pt in points]
        assert counts == [1, 1, 1, 0, 0]

    def test_unstable_region_flags_limit_cycle(self):
        grid = GridSpec(Axis("g", 2.9, 3.1, 2), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid, settle_time=100.0)
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
        # at p=1, g=1.5 a limit cycle coexists with the stable point and
        # captures the pole, so branch selection reports the cycle instead
        grid = GridSpec(Axis("g", 1.5, 1.6, 2), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid, settle_time=150.0)
        for pt in points:
            assert pt.stable_count == 1
            assert math.isnan(pt.selected_Z)
            assert pt.limit_cycle

    def test_p0_row_counts(self):
        grid = GridSpec(Axis("g", 0.5, 3.0, 2), None, ModelParams(V=-5, g=0, p=0))
        points = phase_diagram(grid, select_branch=False,
                               detect_cycles=False)
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
        a = phase_diagram(grid, workers=1, settle_time=100.0)
        b = phase_diagram(grid, workers=2, settle_time=100.0)
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
        calls = {"n": 0}
        real = sweep_module.find_fixed_points

        def flaky(params, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return real(params, **kwargs)

        monkeypatch.setattr(sweep_module, "find_fixed_points", flaky)
        grid = GridSpec(Axis("g", 0.5, 1.5, 3), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid, select_branch=False,
                               detect_cycles=False)
        assert [pt.error is not None for pt in points] == [False, True, False]
        assert points[1].stable_count == 0
        assert points[0].stable_count == 1 and points[2].stable_count == 1

    def test_undecided_cycle_check_records_reason(self):
        # at V=-5, g=0, p=0.2 the pole trajectory neither settles nor shows
        # enough Z maxima in the cycle window to call it a cycle
        grid = GridSpec(Axis("p", 0.2, 0.3, 2), None, ModelParams(V=-5, g=0, p=0))
        point = multistability_map(grid)[0]
        assert point.error.startswith("InsufficientDataError: only 2 Z maxima")
        assert point.stable_count == 0 and not point.limit_cycle

    # (params, select_branch, detect_cycles) -> the settle windows ("settle")
    # and cycle checks ("check") of the pole-selection schedule, in order
    SCHEDULES = {
        # no stable point, a cycle at the seed: the check decides alone
        "seed_cycle": ((-1.0, -1.05, 1.0), True, True, ["check"]),
        # no stable point, the seed check cannot tell: all four windows,
        # the check before window 1 and the last check, whose error stands
        "undecided_seed": ((-5.0, 0.0, 0.2), True, True,
                           ["check", "settle", "check"] + ["settle"] * 3 + ["check"]),
        # a stable point the pole does not reach in four windows, and no
        # cycle: no seed check
        "stable_uncaptured": ((-5.0, -3.0, 0.9), True, True,
                              ["settle", "check"] + ["settle"] * 3 + ["check"]),
        # a stable point captured in window 0
        "captured": ((-5.0, 0.8, 1.0), True, True, ["settle"]),
        # without cycle detection only the windows run
        "no_cycle_check": ((-5.0, 0.0, 0.2), True, False, ["settle"] * 4),
        # no selection asked for, and a stable point: nothing runs
        "no_selection": ((-5.0, 0.8, 1.0), False, True, []),
    }

    @pytest.mark.parametrize("case", list(SCHEDULES))
    def test_selection_schedule(self, monkeypatch, case):
        (v, g, p), select_branch, detect_cycles, expected = self.SCHEDULES[case]
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
        pt = sweep_module._mf_point(((0, 0), prm, select_branch, detect_cycles, 200.0))
        assert log == expected
        if select_branch and detect_cycles:
            # the row is the whole-window one, its error included
            count, z, cycle, error = oracle_row(prm)
            assert (pt.stable_count, pt.limit_cycle, pt.error) == (count, cycle, error)
            assert pt.selected_Z == z or (math.isnan(pt.selected_Z) and math.isnan(z))

    def test_cycle_check_failures_isolate(self, monkeypatch):
        def broken(traj, transient_fraction):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep_module, "detect_limit_cycle", broken)
        grid = GridSpec(Axis("g", 2.9, 3.1, 2), None, ModelParams(V=-5, g=0, p=1))
        points = phase_diagram(grid, settle_time=20.0)
        for pt in points:
            assert pt.error == "RuntimeError: synthetic failure"

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 1)
        assert sweep_module._run_tasks(abs, [-3, 4, -5], workers=8) == [3, 4, 5]

    def test_invalid_solver_and_workers(self):
        grid = GridSpec(Axis("g", 0.5, 1.5, 2), None, FIXED)
        with pytest.raises(ValueError):
            phase_diagram(grid, solver="exact")
        with pytest.raises(ValueError):
            phase_diagram(grid, workers=0)


class TestSelectionOracle:
    """Capture and the early cycle check against whole-window selection."""

    GRID = list(itertools.product(
        (-5.0, -1.0, -0.3),
        (0.0, 0.2, 0.5, 0.77, 0.9, 1.0),
        (-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.5),
    ))

    def test_matches_four_window_oracle(self):
        changed = []
        for v, p, g in self.GRID:
            prm = ModelParams(V=v, g=g, p=p)
            count, z, cycle, error = oracle_row(prm)
            pt = sweep_module._mf_point(((0, 0), prm, True, True, 200.0))
            same_z = pt.selected_Z == z or (math.isnan(pt.selected_Z) and math.isnan(z))
            if (pt.stable_count, pt.limit_cycle, pt.error) == (count, cycle, error) and same_z:
                continue
            # rows may differ only where the oracle neither converged nor saw a cycle
            assert math.isnan(z) and not cycle, (v, p, g)
            changed.append((prm, pt))
        assert changed  # the grid holds slow relaxations that only capture settles
        for prm, pt in changed:
            # a slow relaxation onto the captured root that four windows
            # were too short to finish
            assert not pt.limit_cycle and pt.error is None
            end = settle(SOUTH_POLE_SEED, prm, 6000.0)
            # (a reflected pair of roots can share the selected Z)
            roots = [fp.state for fp in pt.stable_points if fp.state[2] == pt.selected_Z]
            assert min(np.abs(end - root).max() for root in roots) < 1e-13, prm


class TestMultistability:
    def test_axis_names_restricted(self):
        grid = GridSpec(Axis("g", 0, 1, 2), Axis("V", -6, -4, 2), FIXED)
        with pytest.raises(ValueError):
            multistability_map(grid)

    def test_tristable_point_found(self):
        grid = GridSpec(Axis("g", -0.4, -0.3, 2), Axis("p", 0.6, 0.7, 2), FIXED)
        points = multistability_map(grid, detect_cycles=False)
        assert max(pt.stable_count for pt in points) == 3

    def test_settle_time_reaches_settle(self, monkeypatch):
        # no stable point at V=-5, g=0, p=0.2: the seed check cannot tell,
        # so the pole trajectory settles in windows of the given length
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return settle(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "settle", counted)
        grid = GridSpec(Axis("p", 0.2, 0.3, 2), None, FIXED)
        points = multistability_map(grid, settle_time=50.0)
        assert points[0].stable_count == 0
        assert calls and set(calls) == {50.0}


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
            (0.4, 0.4, 1), ModelParams(V=-5, g=-1, p=0.4), settle_time=150.0
        )
        assert res.p_values.tolist() == [0.4]
        assert np.array_equal(res.up, res.down)
        assert res.bistable_interval is None

    def test_single_direction(self):
        res = hysteresis_experiment(
            (0.0, 0.2, 3), ModelParams(V=-5, g=-1, p=0.0),
            direction="up", settle_time=100.0,
        )
        assert res.down is None and res.up is not None
        assert res.bistable_interval is None

    def test_mf_bistable_interval_detected(self):
        res = hysteresis_experiment(
            (0.6, 1.0, 11), ModelParams(V=-5, g=-1, p=0.6), settle_time=200.0
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
