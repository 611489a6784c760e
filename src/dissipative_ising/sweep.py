"""Parameter-grid scans and hysteresis experiments.

Grid points are independent tasks: failures are recorded per row and
never abort a sweep, output order is row-major over the grid no matter
how many workers run, and every point is computed deterministically, so
results are reproducible bit for bit at any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .errors import InsufficientDataError
from .liouville import (
    N_LIMIT,
    build_basis,
    build_liouvillian,
    liouvillian_gap,
    magnetization,
    ramped_evolution,
    steady_state,
)
from .meanfield import (
    FixedPoint,
    ModelParams,
    bloch_rhs,
    continuation_sweep,
    detect_limit_cycle,
    find_fixed_points,
    integrate_trajectory,
    settle,
)

__all__ = [
    "Axis",
    "GridSpec",
    "PhasePoint",
    "HysteresisResult",
    "phase_diagram",
    "quantum_point",
    "multistability_map",
    "analytic_boundaries",
    "hysteresis_experiment",
]

SWEEPABLE_NAMES = ("V", "g", "p")

# Starting point for branch selection: the south pole nudged off the
# exact pole, which is an invariant (sometimes unstable) fixed point.
SOUTH_POLE_SEED = np.array([1e-3, 1e-3, -math.sqrt(1.0 - 2e-6)])

# Bistable-interval threshold on |Z_up - Z_down|.
BRANCH_SPLIT_TOL = 0.05


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name in {V, g, p}, inclusive range, count."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEPABLE_NAMES:
            raise ValueError(f"axis name must be one of {SWEEPABLE_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(f"axis requires start < stop, got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class GridSpec:
    """A 1D or 2D grid over model parameters around fixed defaults."""

    axis1: Axis
    axis2: Axis | None
    fixed: ModelParams

    def __post_init__(self):
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ValueError(f"grid axes must be distinct, both are {self.axis1.name!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axis1.count, self.axis2.count if self.axis2 else 1)

    def param_list(self) -> list[ModelParams]:
        """Row-major parameter sets: axis2 varies fastest."""
        out = []
        for v1 in self.axis1.values():
            base = replace(self.fixed, **{self.axis1.name: float(v1)})
            if self.axis2 is None:
                out.append(base)
            else:
                for v2 in self.axis2.values():
                    out.append(replace(base, **{self.axis2.name: float(v2)}))
        return out


@dataclass(frozen=True)
class PhasePoint:
    """Result at one grid point.

    ``stable_points`` and ``selected_Z`` come from the mean-field
    solver; ``magnetization``, ``gap`` and ``zero_multiplicity`` from
    the quantum solver.  ``error`` carries a per-point failure message
    instead of aborting the sweep.
    """

    index: tuple[int, int]
    params: ModelParams
    stable_points: list[FixedPoint]
    stable_count: int
    selected_Z: float
    limit_cycle: bool
    magnetization: np.ndarray | None = None
    gap: float | None = None
    zero_multiplicity: int | None = None
    error: str | None = None


def _select_branch(
    params: ModelParams, stable: list[FixedPoint], settle_time: float, detect_cycles: bool
):
    """Z of the stable fixed point reached from (just off) the south pole.

    Integration restarts for up to four settle windows.  Settling ends
    as soon as the trajectory enters the certified capture region of a
    stable point, which then is the selected branch.  Points that are
    neither captured nor converged after four windows report NaN.  With
    ``detect_cycles``, the cycle check runs after a first window that
    ends uncaptured, and a cycle found there ends the point.

    Returns (selected Z, end state, converged, cycle found early).
    """
    end = SOUTH_POLE_SEED
    residual = math.inf
    for window in range(4):
        end = settle(end, params, settle_time, capture=stable)
        residual = float(np.abs(bloch_rhs(end, params)).max())
        if residual < 1e-8:
            break
        if window == 0 and detect_cycles:
            # Only a cycle ends the point here.  No cycle, or too few
            # oscillations to tell yet, goes on to windows 2-4 and the
            # check after them, whose error is the one written to the row.
            try:
                if _detect_cycle_from(end, params):
                    return math.nan, end, False, True
            except InsufficientDataError:
                pass
    if residual >= 1e-8:
        return math.nan, end, False, False
    if stable:
        dists = [np.linalg.norm(end - fp.state) for fp in stable]
        k = int(np.argmin(dists))
        if dists[k] < 1e-3:
            return float(stable[k].state[2]), end, True, False
    return float(end[2]), end, True, False


def _detect_cycle_from(state, params: ModelParams) -> bool:
    """Whether the flow from ``state`` ends on a limit cycle.

    Raises InsufficientDataError when the trajectory window holds too
    few oscillations to tell.
    """
    traj = integrate_trajectory(state, params, t_end=150.0, rel_tol=1e-9, abs_tol=1e-11)
    return detect_limit_cycle(traj, transient_fraction=0.3) is not None


def _mf_point(task) -> PhasePoint:
    (index, params, select_branch, detect_cycles, settle_time) = task
    try:
        points = find_fixed_points(params)
        stable = [fp for fp in points if fp.stable]
        selected_z = math.nan
        limit_cycle = False
        error = None
        if select_branch or (detect_cycles and not stable):
            selected_z, end, converged, limit_cycle = _select_branch(
                params, stable, settle_time, detect_cycles
            )
            # a non-converged selection means the pole feeds a cycle: either
            # the bare unstable region or a cycle coexisting with fixed points
            if detect_cycles and not (converged or limit_cycle):
                try:
                    limit_cycle = _detect_cycle_from(end, params)
                except InsufficientDataError as exc:
                    error = f"{type(exc).__name__}: {exc}"
        return PhasePoint(
            index=index,
            params=params,
            stable_points=stable,
            stable_count=len(stable),
            selected_Z=selected_z,
            limit_cycle=limit_cycle,
            error=error,
        )
    except Exception as exc:  # failures isolate to this row
        return PhasePoint(
            index=index,
            params=params,
            stable_points=[],
            stable_count=0,
            selected_Z=math.nan,
            limit_cycle=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def quantum_point(index, params: ModelParams, compute_gap: bool, k: int) -> PhasePoint:
    """Quantum steady state, and optionally the gap, at one grid point.

    The magnetization comes from ``steady_state``, or with
    ``compute_gap`` from the zero mode of the ``k``-mode gap eigensolve
    (``k`` is unused without it).  Solver failures raise.
    """
    liouv = build_liouvillian(params, build_basis(params.N))
    if compute_gap:
        spectral = liouvillian_gap(liouv, k=k)
        rho, gap, mult = spectral.steady_state, spectral.gap, spectral.zero_multiplicity
    else:
        result = steady_state(liouv)
        rho, gap, mult = result.rho, None, result.zero_multiplicity
    mag = magnetization(rho)
    return PhasePoint(
        index=index,
        params=params,
        stable_points=[],
        stable_count=0,
        selected_Z=float(mag[2]),
        limit_cycle=False,
        magnetization=mag,
        gap=gap,
        zero_multiplicity=mult,
    )


def _quantum_point(task) -> PhasePoint:
    index, params = task[:2]
    try:
        return quantum_point(*task)
    except Exception as exc:  # failures isolate to this row
        return PhasePoint(
            index=index,
            params=params,
            stable_points=[],
            stable_count=0,
            selected_Z=math.nan,
            limit_cycle=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_tasks(fn, tasks, workers: int):
    # more processes than cores or tasks only adds start-up and contention
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _grid_indices(grid: GridSpec):
    n2 = grid.axis2.count if grid.axis2 else 1
    for i1 in range(grid.axis1.count):
        for i2 in range(n2):
            yield (i1, i2)


def phase_diagram(
    grid: GridSpec,
    solver: str = "mf",
    workers: int = 1,
    select_branch: bool = True,
    detect_cycles: bool = True,
    settle_time: float = 200.0,
    compute_gap: bool = False,
    gap_k: int = 12,
) -> list[PhasePoint]:
    """Scan a parameter grid with the mean-field or quantum solver.

    The mean-field solver records the stable fixed points at every
    point (enumerated exactly, see ``find_fixed_points``), the Z of the
    branch reachable from the south pole, and a limit-cycle flag where
    the pole trajectory does not settle; when the cycle check has too
    little trajectory to decide, the row's ``error`` says so and its
    other columns stand.  ``workers`` is capped at the number of CPUs
    and of grid points.  The quantum solver checks every N against
    ``liouville.N_LIMIT`` before any solve, then runs
    :func:`quantum_point` at each point: the steady-state magnetization
    and, with ``compute_gap``, the Liouvillian gap from ``gap_k``
    modes.  Rows come back in
    row-major grid order at any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    params_list = grid.param_list()
    indices = list(_grid_indices(grid))
    if solver == "mf":
        tasks = [
            (idx, prm, select_branch, detect_cycles, settle_time)
            for idx, prm in zip(indices, params_list)
        ]
        return _run_tasks(_mf_point, tasks, workers)
    if solver == "quantum":
        for prm in params_list:
            if prm.N is None:
                raise ValueError("quantum sweeps require N in the fixed parameters")
            if prm.N > N_LIMIT:
                raise ValueError(f"quantum sweeps are capped at N={N_LIMIT}, got N={prm.N}")
        tasks = [
            (idx, prm, compute_gap, gap_k)
            for idx, prm in zip(indices, params_list)
        ]
        return _run_tasks(_quantum_point, tasks, workers)
    raise ValueError(f"solver must be 'mf' or 'quantum', got {solver!r}")


def multistability_map(
    grid: GridSpec,
    workers: int = 1,
    detect_cycles: bool = True,
) -> list[PhasePoint]:
    """Stable-solution counts over a (g, p) grid at fixed V.

    Branch selection is skipped (only counts and cycle flags matter),
    which keeps large scans cheap.
    """
    names = {grid.axis1.name} | ({grid.axis2.name} if grid.axis2 else set())
    if not names <= {"g", "p"}:
        raise ValueError(f"multistability map sweeps (g, p); got axes {sorted(names)}")
    return phase_diagram(
        grid,
        solver="mf",
        workers=workers,
        select_branch=False,
        detect_cycles=detect_cycles,
    )


def analytic_boundaries(v_values, gamma: float = 1.0) -> list[dict]:
    """Closed-form phase boundaries as a table over V.

    For p = 1 the stable region ends at |g| = sqrt(16 V^2 + Gamma^2)/8.
    For p = 0 the ordered window [g-, g+] exists for V <= -Gamma/2 with
    g(+/-) = Gamma^2 / (8 (2V +/- sqrt(4V^2 - Gamma^2))) (the printed
    units-of-Gamma form rescaled to carry rate units); both the signed
    values and their magnitudes are tabulated, NaN where the window is
    closed.
    """
    if gamma <= 0.0:
        raise ValueError(f"Gamma must be positive, got {gamma}")
    rows = []
    for v in np.asarray(v_values, dtype=float):
        gc_p1 = math.sqrt(16.0 * v * v + gamma * gamma) / 8.0
        disc = 4.0 * v * v - gamma * gamma
        if disc >= 0.0 and v != 0.0:
            root = math.sqrt(disc)
            gplus = gamma * gamma / (8.0 * (2.0 * v + root))
            gminus = gamma * gamma / (8.0 * (2.0 * v - root))
        else:
            gplus = gminus = math.nan
        rows.append(
            {
                "V": float(v),
                "gc_p1": gc_p1,
                "gplus_c": abs(gplus),
                "gminus_c": abs(gminus),
                "gplus_c_signed": gplus,
                "gminus_c_signed": gminus,
            }
        )
    return rows


@dataclass(frozen=True)
class HysteresisResult:
    """Up/down sweep branches over p and the detected bistable interval."""

    p_values: np.ndarray
    up: np.ndarray | None
    down: np.ndarray | None
    up_converged: np.ndarray | None
    down_converged: np.ndarray | None
    bistable_interval: tuple[float, float] | None
    solver: str
    threshold: float


def _mf_branch(p_values, base: ModelParams, settle_time: float):
    path = [replace(base, p=float(p)) for p in p_values]
    initial = np.array([0.0, 0.0, -1.0])
    points = continuation_sweep(path, initial, settle_time=settle_time)
    states = np.array([pt.state for pt in points])
    converged = np.array([pt.converged for pt in points])
    return states, converged


def _quantum_branch(p_values, base: ModelParams, window: float):
    basis = build_basis(base.N)
    first = replace(base, p=float(p_values[0]))
    rho0 = steady_state(build_liouvillian(first, basis)).rho
    schedule = [(replace(base, p=float(p)), window) for p in p_values]
    records = ramped_evolution(rho0, schedule)
    return np.array([mag for _prm, mag in records])


def hysteresis_experiment(
    p_range: tuple[float, float, int],
    base: ModelParams,
    direction: str = "both",
    solver: str = "mf",
    settle_time: float = 200.0,
    window: float = 40.0,
    threshold: float = BRANCH_SPLIT_TOL,
) -> HysteresisResult:
    """Sweep p up and/or down and locate the bistable interval.

    The mean-field solver uses continuation with ``settle_time`` per
    station; the quantum solver evolves the density matrix for
    ``window`` per station starting from the steady state at the first
    station.  Both branches are reported on the ascending p grid; the
    bistable interval is where |Z_up - Z_down| exceeds ``threshold``.
    """
    p_lo, p_hi, count = p_range
    if count < 1:
        raise ValueError(f"p_range count must be >= 1, got {count}")
    if p_lo > p_hi:
        raise ValueError(f"p_range requires p_lo <= p_hi, got [{p_lo}, {p_hi}]")
    if count == 1 and p_lo != p_hi:
        raise ValueError("count=1 requires p_lo == p_hi")
    if direction not in ("up", "down", "both"):
        raise ValueError(f"direction must be up, down or both, got {direction!r}")
    if solver not in ("mf", "quantum"):
        raise ValueError(f"solver must be 'mf' or 'quantum', got {solver!r}")
    if solver == "quantum" and base.N is None:
        raise ValueError("quantum hysteresis requires N in the base parameters")
    p_values = np.linspace(p_lo, p_hi, count)

    up = down = up_conv = down_conv = None
    if direction in ("up", "both"):
        if solver == "mf":
            up, up_conv = _mf_branch(p_values, base, settle_time)
        else:
            up = _quantum_branch(p_values, base, window)
    if direction in ("down", "both"):
        if solver == "mf":
            states, conv = _mf_branch(p_values[::-1], base, settle_time)
            down, down_conv = states[::-1], conv[::-1]
        else:
            down = _quantum_branch(p_values[::-1], base, window)[::-1]

    interval = None
    if up is not None and down is not None:
        split = np.abs(up[:, 2] - down[:, 2]) > threshold
        if split.any():
            lo, hi = np.flatnonzero(split)[[0, -1]]
            interval = (float(p_values[lo]), float(p_values[hi]))
    return HysteresisResult(
        p_values=p_values,
        up=up,
        down=down,
        up_converged=up_conv,
        down_converged=down_conv,
        bistable_interval=interval,
        solver=solver,
        threshold=threshold,
    )
