"""Branch selection by whole settle windows, kept as a test oracle.

This is the plain route to the branch reached from the south pole:
settle for up to four full windows without any capture region and
accept the endpoint only once its residual is below 1e-8, then run the
cycle check on every point that did not converge: a 150-unit trajectory
from the end of the fourth window, read by the heuristic
``detect_limit_cycle``.  Off the integrable lines p = 1 and g = 0,
which it decides in closed form, the library (``sweep._select_branch``)
differs from this by capture (it stops settling as soon as the
trajectory enters the certified capture region of a stable point), by
settling on past four windows where a stable point exists, and by
running no cycle check.  The tests compare the two.

``norm_bound_level`` is the level of that region as it was first built,
from norm bounds alone; the tests check that today's level never falls
below it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from dissipative_ising.errors import InsufficientDataError
from dissipative_ising.meanfield import (
    FixedPoint,
    ModelParams,
    _jacobian_many,
    bloch_rhs,
    detect_limit_cycle,
    find_fixed_points,
    integrate_trajectory,
    jacobian,
    settle,
)
from dissipative_ising.sweep import SOUTH_POLE_SEED


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


def detect_cycle_from(state, params: ModelParams) -> bool:
    """Whether the flow from ``state`` ends on a limit cycle, by the heuristic.

    Raises InsufficientDataError when the trajectory window holds too
    few oscillations to tell.
    """
    traj = integrate_trajectory(state, params, t_end=150.0, rel_tol=1e-9, abs_tol=1e-11)
    return detect_limit_cycle(traj, transient_fraction=0.3) is not None


def oracle_row(params: ModelParams, settle_time: float = 200.0):
    """(stable_count, selected_Z, limit_cycle, error) of a phase-diagram row.

    The row that ``sweep.phase_diagram`` wrote with branch selection on
    while four windows and the cycle check decided it.
    """
    stable = [fp for fp in find_fixed_points(params) if fp.stable]
    selected_z, end, converged = four_window_selection(params, stable, settle_time)
    limit_cycle, error = False, None
    if not converged:
        try:
            limit_cycle = detect_cycle_from(end, params)
        except InsufficientDataError as exc:
            error = f"{type(exc).__name__}: {exc}"
    return len(stable), selected_z, limit_cycle, error


def norm_bound_level(fp: FixedPoint, params: ModelParams) -> float:
    """Capture level lambda_min(P) rho^2 / 2, rho = 1 / (2 ||P|| C), of a stable point.

    P solves J^T P + P J = -I (here through scipy's Lyapunov solver), and
    C = sqrt(sum_i ||H_i||^2) / 2 bounds the flow's quadratic part,
    |q(e)| <= C |e|^2, over the Hessians H_i of its components.  Within
    |e| < rho, d(e^T P e)/dt <= -|e|^2 (1 - 2 ||P|| C |e|) < 0, and the
    sublevel set at lambda_min(P) rho^2 lies in that ball; the factor
    1/2 was its safety factor.
    """
    jac = jacobian(fp.state, params)
    lyap = scipy.linalg.solve_continuous_lyapunov(jac.T, -np.eye(3))
    eigs = np.linalg.eigvalsh(0.5 * (lyap + lyap.T))
    hess = np.transpose(_jacobian_many(np.eye(3), params) - _jacobian_many(np.zeros((1, 3)), params),
                        (1, 2, 0))
    c_quad = 0.5 * math.sqrt(sum(np.linalg.norm(h, ord=2) ** 2 for h in hess))
    rho = 1.0 / (2.0 * eigs[-1] * c_quad)
    return 0.5 * eigs[0] * rho * rho
