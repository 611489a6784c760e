"""Batch front-end: one config file in, plot-ready CSV tables out.

Usage: dissipative-ising CONFIG [--workers K] [--output-dir DIR]

Exit status: 0 on success, 2 for config validation errors, 3 for
solver failures, 4 for I/O failures.  Every run writes its data tables
plus a metadata.json whose embedded config reproduces the run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (
    OUTPUT_DIR_ENV,
    RunConfig,
    load_raw,
    resolved_dict,
    validate_config,
)
from .errors import ConfigError, InsufficientDataError, reason
from .liouville import (
    build_basis,
    build_liouvillian,
    dicke_state_rho,
    magnetization,
    propagate,
)
from .meanfield import (
    ModelParams,
    analytic_boundaries,
    detect_limit_cycle,
    find_fixed_points,
    integrate_trajectory,
)
from .operators import spin_coherent_state
from .sweep import (
    BRANCH_SPLIT_TOL, hysteresis_experiment, multistability_map,
    phase_diagram, quantum_point,
)
from .tables import Table, write_metadata, write_table

TOOL_NAME = "dissipative-ising"


def _fixed_point_rows(params: ModelParams, points) -> Table:
    table = Table(
        columns=[
            "V", "g", "p", "Gamma", "X", "Y", "Z", "stable", "marginal", "residual",
            "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im",
        ]
    )
    for fp in points:
        eigs = fp.eigenvalues
        table.append(
            params.V, params.g, params.p, params.Gamma,
            float(fp.state[0]), float(fp.state[1]), float(fp.state[2]),
            fp.stable, fp.marginal, fp.residual,
            float(eigs[0].real), float(eigs[0].imag),
            float(eigs[1].real), float(eigs[1].imag),
            float(eigs[2].real), float(eigs[2].imag),
        )
    return table


def _run_mf_fixed_points(cfg: RunConfig) -> dict[str, Table]:
    return {"fixed_points": _fixed_point_rows(cfg.model, find_fixed_points(cfg.model))}


def _run_mf_evolve(cfg: RunConfig) -> dict[str, Table]:
    opts = cfg.evolve
    traj_table = Table(columns=["ic", "t", "X", "Y", "Z"])
    cycle_table = Table(columns=["ic", "cycle_detected", "period", "z_amplitude", "error"])
    for i, initial in enumerate(opts.initials):
        traj = integrate_trajectory(initial, cfg.model, opts.t_end)
        for t, s in zip(traj.times, traj.states):
            traj_table.append(i, float(t), float(s[0]), float(s[1]), float(s[2]))
        try:
            cycle, error = detect_limit_cycle(traj), None
        except InsufficientDataError as exc:
            cycle, error = None, reason(exc)
        if cycle is None:
            cycle_table.append(i, False, math.nan, math.nan, error)
        else:
            cycle_table.append(i, True, cycle.period, cycle.z_amplitude, error)
    return {"trajectory": traj_table, "limit_cycle": cycle_table}


_SWEEP_COLUMNS = [
    "i1", "i2", "V", "g", "p", "Gamma", "N", "stable_count", "selected_Z",
    "limit_cycle", "X", "Y", "Z", "gap", "zero_multiplicity", "error",
]


def _sweep_tables(points, primary_name: str) -> dict[str, Table]:
    main = Table(columns=_SWEEP_COLUMNS)
    stable = Table(
        columns=["i1", "i2", "V", "g", "p", "X", "Y", "Z", "stable", "marginal", "max_eig_re"]
    )
    for pt in points:
        prm = pt.params
        mag = pt.magnetization
        main.append(
            pt.index[0], pt.index[1], prm.V, prm.g, prm.p, prm.Gamma, prm.N,
            pt.stable_count, pt.selected_Z, pt.limit_cycle,
            None if mag is None else float(mag[0]),
            None if mag is None else float(mag[1]),
            None if mag is None else float(mag[2]),
            pt.gap, pt.zero_multiplicity, pt.error,
        )
        for fp in pt.stable_points:
            stable.append(
                pt.index[0], pt.index[1], prm.V, prm.g, prm.p,
                float(fp.state[0]), float(fp.state[1]), float(fp.state[2]),
                fp.stable, fp.marginal, float(fp.eigenvalues.real.max()),
            )
    out = {primary_name: main}
    if any(pt.stable_points for pt in points):
        out["stable_points"] = stable
    return out


def _run_mf_sweep(cfg: RunConfig) -> dict[str, Table]:
    points = phase_diagram(
        cfg.grid, solver="mf", workers=cfg.workers, select_branch=cfg.options.select_branch
    )
    return _sweep_tables(points, "phase_diagram")


def _run_multistability(cfg: RunConfig) -> dict[str, Table]:
    points = multistability_map(cfg.grid, workers=cfg.workers)
    return _sweep_tables(points, "multistability")


def _run_quantum_sweep(cfg: RunConfig, compute_gap: bool) -> dict[str, Table]:
    name = "gap" if compute_gap else "steady_state"
    if cfg.grid is None:
        # a single point is a one-row sweep whose failure ends the run
        points = [quantum_point((0, 0), cfg.model, compute_gap)]
    else:
        points = phase_diagram(
            cfg.grid, solver="quantum", workers=cfg.workers, compute_gap=compute_gap
        )
    return _sweep_tables(points, name)


def _initial_rho(cfg: RunConfig, basis):
    initial = cfg.quantum_evolve.initial
    if initial == "south":
        return dicke_state_rho(basis, -basis.j)
    if initial == "north":
        return dicke_state_rho(basis, basis.j)
    if initial == "mixed":
        return np.eye(basis.dim, dtype=complex) / basis.dim
    psi = spin_coherent_state(basis, initial["theta"], initial["phi"])
    return np.outer(psi, psi.conj())


def _run_quantum_evolve(cfg: RunConfig) -> dict[str, Table]:
    opts = cfg.quantum_evolve
    basis = build_basis(cfg.model.N)
    liouv = build_liouvillian(cfg.model, basis)
    rho0 = _initial_rho(cfg, basis)
    times = np.linspace(0.0, opts.t_end, opts.n_snapshots)
    snapshots = propagate(liouv, rho0, times)
    table = Table(columns=["t", "X", "Y", "Z"])
    for t, rho in zip(times, snapshots):
        mag = magnetization(rho)
        table.append(float(t), float(mag[0]), float(mag[1]), float(mag[2]))
    return {"evolution": table}


def _run_hysteresis(cfg: RunConfig) -> dict[str, Table]:
    opts = cfg.hysteresis
    result = hysteresis_experiment(
        (opts.p_min, opts.p_max, opts.count),
        cfg.model,
        direction=opts.direction,
        solver=opts.solver,
        window=opts.window,
    )
    table = Table(columns=["direction", "i", "p", "V", "g", "X", "Y", "Z", "converged"])
    for name, states, conv in (
        ("up", result.up, result.up_converged),
        ("down", result.down, result.down_converged),
    ):
        if states is None:
            continue
        for i, p in enumerate(result.p_values):
            s = states[i]
            table.append(
                name, i, float(p), cfg.model.V, cfg.model.g,
                float(s[0]), float(s[1]), float(s[2]),
                None if conv is None else bool(conv[i]),
            )
    interval = Table(columns=["p_lower", "p_upper", "threshold"])
    if result.bistable_interval is not None:
        interval.append(*result.bistable_interval, BRANCH_SPLIT_TOL)
    return {"hysteresis": table, "bistable_interval": interval}


def _run_boundaries(cfg: RunConfig) -> dict[str, Table]:
    opts = cfg.boundaries
    rows = analytic_boundaries(
        np.linspace(opts.V_min, opts.V_max, opts.count), gamma=cfg.model.Gamma
    )
    table = Table(
        columns=["V", "gc_p1", "gplus_c", "gminus_c", "gplus_c_signed", "gminus_c_signed"]
    )
    for row in rows:
        table.append(
            row["V"], row["gc_p1"], row["gplus_c"], row["gminus_c"],
            row["gplus_c_signed"], row["gminus_c_signed"],
        )
    return {"boundaries": table}


def execute(cfg: RunConfig) -> dict[str, Table]:
    """Dispatch a validated config to the solvers; returns named tables."""
    if cfg.task == "mf-fixed-points":
        return _run_mf_fixed_points(cfg)
    if cfg.task == "mf-evolve":
        return _run_mf_evolve(cfg)
    if cfg.task == "mf-phase-diagram":
        return _run_mf_sweep(cfg)
    if cfg.task == "multistability":
        return _run_multistability(cfg)
    if cfg.task == "quantum-steady":
        return _run_quantum_sweep(cfg, compute_gap=False)
    if cfg.task == "quantum-gap":
        return _run_quantum_sweep(cfg, compute_gap=True)
    if cfg.task == "quantum-evolve":
        return _run_quantum_evolve(cfg)
    if cfg.task == "hysteresis":
        return _run_hysteresis(cfg)
    if cfg.task == "boundaries":
        return _run_boundaries(cfg)
    raise ConfigError(f"task: unknown task {cfg.task!r}")  # unreachable after validation


def resolve_output_dir(cfg: RunConfig, flag_value: str | None) -> str:
    """--output-dir flag, then config, then environment, then ./output."""
    if flag_value:
        return flag_value
    if cfg.output_dir:
        return cfg.output_dir
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return env
    return "output"


def run(cfg: RunConfig, output_dir: str) -> list[str]:
    """Execute a run and write its data tables plus metadata; returns paths."""
    t0 = time.perf_counter()
    tables = execute(cfg)
    t_solve = time.perf_counter() - t0

    os.makedirs(output_dir, exist_ok=True)
    written = []
    t1 = time.perf_counter()
    for name, table in tables.items():
        path = os.path.join(output_dir, f"{name}.csv")
        write_table(table, path)
        written.append(path)
    t_write = time.perf_counter() - t1

    meta_path = os.path.join(output_dir, "metadata.json")
    write_metadata(
        meta_path,
        config=resolved_dict(cfg),
        timings={
            "solve_s": t_solve,
            "write_s": t_write,
            "total_s": time.perf_counter() - t0,
        },
        outputs=[os.path.basename(p) for p in written],
        tool_name=TOOL_NAME,
        tool_version=__version__,
    )
    written.append(meta_path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Steady-state phase structure of the dissipative collective-spin "
        "Ising model: mean-field and Liouvillian solvers driven by a config file.",
    )
    parser.add_argument("config", help="path to a YAML config (or a metadata.json from a previous run)")
    parser.add_argument("--workers", type=int, default=None, help="override the worker count")
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        raw = load_raw(args.config)
        if args.workers is not None:
            # the flag stands for the config key: tasks without a worker
            # pool drop it with the retired-key warning
            if args.workers < 1:
                raise ConfigError(f"workers: must be >= 1, got {args.workers}")
            raw = {**raw, "workers": args.workers}
        cfg = validate_config(raw)
    except ConfigError as exc:
        print(f"{TOOL_NAME}: config error: {exc}", file=sys.stderr)
        return 2

    output_dir = resolve_output_dir(cfg, args.output_dir)
    try:
        t0 = time.perf_counter()
        written = run(cfg, output_dir)
    except (OSError,) as exc:
        print(f"{TOOL_NAME}: i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"{TOOL_NAME}: solver error: {reason(exc)}", file=sys.stderr)
        return 3
    print(
        f"{TOOL_NAME}: task {cfg.task} finished in {time.perf_counter() - t0:.2f} s; "
        f"wrote {len(written)} files to {output_dir}"
    )
    return 0


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
