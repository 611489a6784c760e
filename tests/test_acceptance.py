"""Acceptance suite: every reproduction target at its stated tolerance.

Each test prints one PASS line (run with -s to see them as they go).
Targets, tolerances and runtime budgets are pinned here; nothing is
deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest
import yaml

from dissipative_ising import (
    ModelParams,
    analytic_p0,
    analytic_p1,
    bloch_rhs,
    build_basis,
    build_hamiltonian,
    build_liouvillian,
    detect_limit_cycle,
    dicke_state_rho,
    evolve_rho,
    find_fixed_points,
    integrate_trajectory,
    jacobian,
    liouvillian_gap,
    magnetization,
    op_ladder,
    steady_state,
    unvec,
    vec,
)
from dissipative_ising.cli import main
from dissipative_ising.sweep import Axis, GridSpec, hysteresis_experiment, multistability_map
from reference_ops import lindblad_rhs


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def stable_points(params):
    return [f for f in find_fixed_points(params) if f.stable]


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def test_01_closed_form_p1_agreement():
    t0 = time.perf_counter()
    for i, g in enumerate(np.linspace(-2.4, 2.4, 100)):
        prm = ModelParams(V=-5, g=float(g), p=1)
        stable = stable_points(prm)
        assert len(stable) == 1, f"expected one stable point at g={g}, got {len(stable)}"
        assert np.abs(stable[0].state - analytic_p1(prm)).max() < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s"
    report(1, f"100-point closed-form match to 1e-8 in {elapsed:.1f} s")


def test_02_p1_phase_boundary_bracket():
    target = math.sqrt(16 * 25 + 1) / 8  # 2.50312
    grid = np.round(np.arange(2.45, 2.5601, 0.01), 10)
    counts = [len(stable_points(ModelParams(V=-5, g=float(g), p=1))) for g in grid]
    assert counts[0] == 1 and counts[-1] == 0
    flips = [i for i in range(len(grid) - 1) if counts[i] == 1 and counts[i + 1] == 0]
    assert len(flips) == 1
    lo, hi = grid[flips[0]], grid[flips[0] + 1]
    assert lo < target < hi
    assert hi - lo <= 0.01 + 1e-12
    report(2, f"stability loss bracketed in [{lo}, {hi}] around {target:.5f}")


def _fm_window_markers(v, g):
    """(has stable ordered point, pole is stable) at p = 0."""
    pts = find_fixed_points(ModelParams(V=v, g=float(g), p=0))
    ordered = any(f.stable and abs(f.state[2] + 1.0) > 1e-3 for f in pts)
    pole = any(f.stable and abs(f.state[2] + 1.0) <= 1e-3 for f in pts)
    return ordered, pole


def test_03_p0_critical_points():
    # upper endpoint: the ordered pair disappears at |g+| = 2.4937
    grid_hi = np.round(np.arange(2.48, 2.5101, 0.005), 10)
    ordered = [_fm_window_markers(-5, g)[0] for g in grid_hi]
    flips = [i for i in range(len(grid_hi) - 1) if ordered[i] and not ordered[i + 1]]
    assert len(flips) == 1
    hi_edge = 0.5 * (grid_hi[flips[0]] + grid_hi[flips[0] + 1])
    assert abs(hi_edge - 2.4937) <= 0.01

    # lower endpoint: the polarized pole changes stability at |g-| = 0.0063
    grid_lo = np.round(np.arange(0.005, 0.0081, 0.0005), 10)
    pole = [_fm_window_markers(-5, g)[1] for g in grid_lo]
    flips = [i for i in range(len(grid_lo) - 1) if pole[i] and not pole[i + 1]]
    assert len(flips) == 1
    lo_edge = 0.5 * (grid_lo[flips[0]] + grid_lo[flips[0] + 1])
    assert abs(lo_edge - 0.0063) <= 0.0005

    # V above -Gamma/2: no ordered phase at any drive
    for g in np.linspace(0.02, 3.0, 12):
        assert not _fm_window_markers(-0.4, g)[0]
    report(3, f"window endpoints {lo_edge:.5f} and {hi_edge:.4f}; none at V=-0.4")


def test_04_normalization_identities():
    rng = np.random.default_rng(2024)
    n_p1 = n_p0 = 0
    for _ in range(1000):
        gamma = float(rng.uniform(0.5, 2.0))
        v = float(rng.uniform(-10, 10))
        g = float(rng.uniform(-4, 4))
        prm1 = ModelParams(V=v, g=g, p=1, Gamma=gamma)
        s = analytic_p1(prm1)
        if s is not None:
            n_p1 += 1
            assert abs(s @ s - 1.0) < 1e-10
            assert np.abs(bloch_rhs(s, prm1)).max() < 1e-10
        prm0 = ModelParams(V=v, g=g, p=0, Gamma=gamma)
        for s0, _lab in analytic_p0(prm0):
            n_p0 += 1
            assert abs(s0 @ s0 - 1.0) < 1e-10
            assert np.abs(bloch_rhs(s0, prm0)).max() < 1e-10
    assert n_p1 > 200 and n_p0 > 2000
    report(4, f"{n_p1} driven-limit and {n_p0} field-limit candidates on the sphere")


def test_05_jacobian_oracle():
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        prm = ModelParams(
            V=float(rng.uniform(-10, 10)),
            g=float(rng.uniform(-4, 4)),
            p=float(rng.uniform(0, 1)),
            Gamma=float(rng.uniform(0.5, 2)),
        )
        s = rng.normal(size=3)
        ana = jacobian(s, prm)
        num = np.empty((3, 3))
        for k in range(3):
            dv = np.zeros(3)
            dv[k] = h
            num[:, k] = (bloch_rhs(s + dv, prm) - bloch_rhs(s - dv, prm)) / (2 * h)
        worst = max(worst, np.abs(num - ana).max() / max(1.0, np.abs(ana).max()))
    assert worst < 1e-6
    report(5, f"central differences match the analytic Jacobian to {worst:.1e}")


def test_06_limit_cycle_regime():
    prm = ModelParams(V=-5, g=3, p=1)
    assert len(stable_points(prm)) == 0
    cycles = []
    for ic in ([0, 0, 1], [0, 1, 0], [1, 0, 0]):
        traj = integrate_trajectory(ic, prm, 200.0)
        cycle = detect_limit_cycle(traj, transient_fraction=0.5)
        assert cycle is not None, f"no persistent oscillation from {ic}"
        assert cycle.z_amplitude > 0.01
        cycles.append(cycle)
    distinct = 0
    for i in range(3):
        for j in range(i + 1, 3):
            amp_diff = abs(cycles[i].z_amplitude - cycles[j].z_amplitude) / max(
                cycles[i].z_amplitude, cycles[j].z_amplitude
            )
            per_diff = abs(cycles[i].period - cycles[j].period) / max(
                cycles[i].period, cycles[j].period
            )
            if amp_diff > 0.01 or per_diff > 0.01:
                distinct += 1
    assert distinct >= 1, "all three asymptotic orbits coincide"
    report(6, "persistent oscillations with initial-state-dependent orbits")


def test_07_liouvillian_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        basis = build_basis(n)
        prm = ModelParams(
            V=float(rng.uniform(-8, 8)),
            g=float(rng.uniform(-3, 3)),
            p=float(rng.uniform(0, 1)),
            Gamma=float(rng.uniform(0.5, 2)),
            N=n,
        )
        liouv = build_liouvillian(prm, basis)
        ham = build_hamiltonian(prm, basis)
        jminus, _ = op_ladder(basis)
        rate = prm.Gamma / (2 * n)
        for _ in range(20):
            a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
            rho = (a + a.conj().T) / 2
            image = unvec(liouv.matrix @ vec(rho), n + 1)
            assert abs(np.trace(image)) < 1e-12
            assert np.abs(image - image.conj().T).max() < 1e-12
            assert np.abs(image - lindblad_rhs(rho, ham, jminus, rate)).max() < 1e-12

    prm10 = ModelParams(V=-5, g=1, p=1, N=10)
    basis10 = build_basis(10)
    liouv10 = build_liouvillian(prm10, basis10)
    rho_ss = steady_state(liouv10).rho
    rho_t = evolve_rho(dicke_state_rho(basis10, 5.0), prm10, 1000.0, liouv=liouv10)
    dist = trace_distance(rho_ss, rho_t)
    assert dist < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"
    report(7, f"superoperator identities to 1e-12; late-time distance {dist:.1e} "
              f"in {elapsed:.1f} s")


def test_08_finite_size_to_mean_field():
    t0 = time.perf_counter()
    for g in (0.5, 1.0):
        z_mf = analytic_p1(ModelParams(V=-5, g=g, p=1))[2]
        deviations = []
        for n in (10, 20, 40):
            prm = ModelParams(V=-5, g=g, p=1, N=n)
            result = steady_state(build_liouvillian(prm, build_basis(n)))
            deviations.append(abs(magnetization(result.rho)[2] - z_mf))
        assert deviations[0] >= deviations[1] >= deviations[2], (
            f"g={g}: deviations {deviations} not non-increasing"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.1f} s exceeds 10 min"
    report(8, f"|Z(N) - Z_mf| non-increasing over N=10,20,40 in {elapsed:.1f} s")


def test_09_gap_closure_trend():
    basis20, basis40 = build_basis(20), build_basis(40)
    # N = 20 is on the dense side of the gap solver, N = 40 on the iterative one
    gap_20 = liouvillian_gap(
        build_liouvillian(ModelParams(V=-5, g=1, p=0, N=20), basis20)
    ).gap
    gap_40 = liouvillian_gap(
        build_liouvillian(ModelParams(V=-5, g=1, p=0, N=40), basis40), k=16
    ).gap
    gap_40_wide = liouvillian_gap(
        build_liouvillian(ModelParams(V=-5, g=4, p=0, N=40), basis40), k=16
    ).gap
    assert gap_40 < gap_20
    assert gap_40_wide >= 10.0 * gap_40
    report(9, f"gap {gap_20:.2e} -> {gap_40:.2e} with size; off-window/in-window "
              f"ratio {gap_40_wide / gap_40:.0f}x")


def test_10_tristability_exists():
    # Three stable solutions coexist in a pocket at intermediate mixing.
    # Under the Bloch equations as written, with V < 0 the pocket sits at
    # drive of the opposite sign (its mixing range matches the quoted
    # 0.5-0.9 numbers), so the scan covers both signs of the quoted
    # magnitude range |g| in [0.5, 0.9].
    fixed = ModelParams(V=-5, g=0, p=0)
    best = 0
    for sign in (+1, -1):
        lo, hi = sorted((sign * 0.5, sign * 0.9))
        grid = GridSpec(Axis("g", lo, hi, 9), Axis("p", 0.1, 0.9, 17), fixed)
        points = multistability_map(grid, workers=8, detect_cycles=False)
        best = max(best, max(pt.stable_count for pt in points))
        if best >= 3:
            break
    assert best >= 3, "no tristable point found in the scanned pocket"
    report(10, "a point with three coexisting stable solutions found")


def test_11_hysteresis_edges_and_nesting():
    base = ModelParams(V=-5, g=-1, p=0)
    mf = hysteresis_experiment((0.5, 1.0, 101), base, settle_time=200.0)
    assert mf.bistable_interval is not None
    mf_lo, mf_hi = mf.bistable_interval
    # the sharp (saddle-node) edge of the coexistence interval sits at
    # p = 0.77; the other branch survives until the pure-drive limit
    assert abs(mf_lo - 0.77) <= 0.02
    assert mf_hi >= 0.95

    intervals = {}
    for n in (20, 40):
        res = hysteresis_experiment(
            (0.5, 1.0, 26), ModelParams(V=-5, g=-1, p=0.5, N=n),
            solver="quantum", window=40.0,
        )
        assert res.bistable_interval is not None, f"no hysteresis at N={n}"
        intervals[n] = res.bistable_interval
    cell = 0.02 + 1e-9  # one finite-size grid cell of slack
    for n, (lo, hi) in intervals.items():
        assert lo >= mf_lo - cell and hi <= mf_hi + cell, (
            f"N={n} interval {(lo, hi)} not inside ({mf_lo}, {mf_hi})"
        )
    width20 = intervals[20][1] - intervals[20][0]
    width40 = intervals[40][1] - intervals[40][0]
    assert width40 > width20, f"interval did not widen: {intervals}"
    report(11, f"sharp edge at {mf_lo:.3f}; finite-size intervals {intervals} nested "
               "and widening")


def test_12_sweep_determinism(tmp_path):
    cfg = {
        "task": "mf-phase-diagram",
        "model": {"V": -5.0, "p": 1.0},
        "grid": {
            "axis1": {"name": "g", "min": -2.0, "max": 2.0, "count": 6},
            "axis2": {"name": "p", "min": 0.0, "max": 1.0, "count": 3},
        },
        "options": {"settle_time": 150.0},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / tag
        assert main([str(cfg_path), "--workers", str(workers), "--output-dir", str(out)]) == 0
        outs.append((out / "phase_diagram.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    report(12, "byte-identical CSV across reruns and worker counts 1 and 8")
