"""Branch selection by whole settle windows, kept as a test oracle.

This is the plain route to the branch reached from the south pole:
settle for up to four full windows without any capture region and
accept the endpoint only once its residual is below 1e-8, then run the
cycle check on every point that did not converge.  Off the integrable
lines p = 1 and g = 0, which it decides in closed form, the library
(``sweep._select_branch``) differs from this only by capture: it stops
settling as soon as the trajectory enters the certified capture region
of a stable point.  The tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from dissipative_ising.errors import InsufficientDataError
from dissipative_ising.meanfield import FixedPoint, ModelParams, bloch_rhs, find_fixed_points, settle
from dissipative_ising.sweep import SOUTH_POLE_SEED, _detect_cycle_from


def four_window_selection(params: ModelParams, stable: list[FixedPoint], settle_time: float):
    """(selected Z, end state, converged) after up to four whole windows."""
    end = SOUTH_POLE_SEED
    residual = math.inf
    for _ in range(4):
        end = settle(end, params, settle_time)
        residual = float(np.abs(bloch_rhs(end, params)).max())
        if residual < 1e-8:
            break
    if residual >= 1e-8:
        return math.nan, end, False
    if stable:
        dists = [np.linalg.norm(end - fp.state) for fp in stable]
        k = int(np.argmin(dists))
        if dists[k] < 1e-3:
            return float(stable[k].state[2]), end, True
    return float(end[2]), end, True


def oracle_row(params: ModelParams, settle_time: float = 200.0):
    """(stable_count, selected_Z, limit_cycle, error) of a phase-diagram row.

    The row that ``sweep.phase_diagram`` writes with branch selection and
    cycle detection on.
    """
    stable = [fp for fp in find_fixed_points(params) if fp.stable]
    selected_z, end, converged = four_window_selection(params, stable, settle_time)
    limit_cycle, error = False, None
    if not converged:
        try:
            limit_cycle = _detect_cycle_from(end, params)
        except InsufficientDataError as exc:
            error = f"{type(exc).__name__}: {exc}"
    return len(stable), selected_z, limit_cycle, error
