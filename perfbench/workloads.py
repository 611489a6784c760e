"""The four benchmark workloads, as CLI configs.

Each workload is one config handed to ``cli.main``; one round of the
benchmark runs it once.  The grids are fixed so that the reference
values in ``refs.json`` cover every row; the workload seed only sets
the program's ``rng_seed`` (the Newton seeds of the mean-field search).
"""

from __future__ import annotations

import numpy as np

WORKLOADS = {
    # fig4c_branches_vs_p in small: every stable branch against p for
    # small negative g, no branch selection.  The fixed-point search is
    # nearly all the work.
    "mf_branch_merge": {
        "task": "mf-phase-diagram",
        "model": {"V": -5.0},
        "grid": {
            "axis1": {"name": "g", "min": -0.55, "max": -0.05, "count": 3},
            "axis2": {"name": "p", "min": 0.0, "max": 1.0, "count": 41},
        },
        "options": {"n_seeds": 300, "select_branch": False},
    },
    # A (p, g) slice with branch selection from the south pole and cycle
    # detection.  V = -1 keeps the two no-stable-point cells at p = 1
    # (limit cycles) near 3 s each; every other cell settles onto a
    # branch within the first settle windows.
    "mf_phase_select": {
        "task": "mf-phase-diagram",
        "model": {"V": -1.0},
        "grid": {
            "axis1": {"name": "p", "min": 0.1, "max": 1.0, "count": 4},
            "axis2": {"name": "g", "min": -1.05, "max": 0.3, "count": 4},
        },
        "options": {"n_seeds": 200, "select_branch": True, "detect_cycles": True},
    },
    # fig4b_gap_map_n50 in small: the iterative (shift-invert ARPACK)
    # side of the N = 30 size dispatch.
    "quantum_gap_scan": {
        "task": "quantum-gap",
        "model": {"V": -5.0, "N": 50},
        "grid": {
            "axis1": {"name": "p", "min": 0.0, "max": 1.0, "count": 5},
            "axis2": {"name": "g", "min": -3.0, "max": 3.0, "count": 7},
        },
        "options": {"gap_k": 16},
    },
    # fig5a_hysteresis_n30 in small: dense steady state at the first
    # station of each direction, then DOP853 propagation per station.
    "quantum_ramp": {
        "task": "hysteresis",
        "model": {"V": -5.0, "g": -1.0, "N": 30},
        "hysteresis": {
            "p_min": 0.5, "p_max": 1.0, "count": 26,
            "direction": "both", "solver": "quantum", "window": 40.0, "threshold": 0.05,
        },
    },
}


def config(name: str, seed: int) -> dict:
    """The CLI config of workload ``name``: one worker, rng_seed = seed."""
    return {**WORKLOADS[name], "workers": 1, "rng_seed": int(seed)}


def grid_points(name: str) -> list[tuple[float, float]]:
    """Row-major (axis1, axis2) values of a grid workload, as the CLI orders rows."""
    grid = WORKLOADS[name]["grid"]
    a1, a2 = (np.linspace(grid[k]["min"], grid[k]["max"], grid[k]["count"]) for k in ("axis1", "axis2"))
    return [(float(u), float(v)) for u in a1 for v in a2]


def ramp_p_values() -> list[float]:
    """Ascending p of the ramp stations, as the CLI orders each direction's rows."""
    h = WORKLOADS["quantum_ramp"]["hysteresis"]
    return [float(p) for p in np.linspace(h["p_min"], h["p_max"], h["count"])]


def operations(name: str) -> int:
    """Operations in one round: grid points, or ramp stations in both directions."""
    if "grid" in WORKLOADS[name]:
        return len(grid_points(name))
    return 2 * WORKLOADS[name]["hysteresis"]["count"]
