"""Parameter-grid scans and hysteresis experiments.

Grid points are independent tasks, run in blocks of contiguous points:
failures are recorded per row and never abort a sweep, output order is
row-major over the grid no matter how many workers run, and every point
is computed deterministically and apart from the rest of its block, so
results are reproducible bit for bit at any worker count.  Branch
selection and the mean-field hysteresis run at fixed settings: settle
windows of ``SETTLE_WINDOW``, at most ``_MAX_WINDOWS`` of them for the
pole trajectory of a point with a stable point and four for one
without, and the bistable split ``BRANCH_SPLIT_TOL``.  Limit cycles are
flagged only where the closed form of the integrable lines proves the
pole orbit closed; no cycle heuristic runs here.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .errors import reason
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
    CONVERGED_TOL,
    FixedPoint,
    ModelParams,
    _capture,
    bloch_rhs,
    continuation_sweep,
    find_fixed_points,
    find_fixed_points_many,
    seed_orbit,
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
    "hysteresis_experiment",
]

SWEEPABLE_NAMES = ("V", "g", "p")

# Starting point for branch selection: the south pole nudged off the
# exact pole, which is an invariant (sometimes unstable) fixed point.
SOUTH_POLE_SEED = np.array([1e-3, 1e-3, -math.sqrt(1.0 - 2e-6)])

# Bistable-interval threshold on |Z_up - Z_down|.
BRANCH_SPLIT_TOL = 0.05

# Length of one settle window: of branch selection and of each
# mean-field hysteresis station.
SETTLE_WINDOW = 200.0

# Most settle windows of branch selection at a point with a stable point.
_MAX_WINDOWS = 100


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

    def points(self):
        """``((i1, i2), params)`` in row-major order: axis2 varies fastest."""
        for i1, v1 in enumerate(self.axis1.values()):
            base = replace(self.fixed, **{self.axis1.name: float(v1)})
            if self.axis2 is None:
                yield (i1, 0), base
                continue
            for i2, v2 in enumerate(self.axis2.values()):
                yield (i1, i2), replace(base, **{self.axis2.name: float(v2)})


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
    selected_Z: float
    limit_cycle: bool
    magnetization: np.ndarray | None = None
    gap: float | None = None
    zero_multiplicity: int | None = None
    error: str | None = None

    @property
    def stable_count(self) -> int:
        return len(self.stable_points)


def _select_branch(params: ModelParams, stable: list[FixedPoint]):
    """Z of the stable fixed point reached from (just off) the south pole.

    On the integrable lines p = 1 and g = 0 the pole orbit is decided in
    closed form (``meanfield.seed_orbit``), with no integration.  An
    orbit that tends to the planar centre selects the stable point
    there.  An orbit that crosses the equator is closed and neutral: it
    sets the limit-cycle flag, though it attracts nothing and its shape
    depends on the seed.  An orbit that ends on an equator root is a
    separatrix and gives the row's error.  Where the closed form
    degenerates, or its centre is not a stable point, the schedule below
    runs.

    Elsewhere the pole trajectory settles in windows of
    ``SETTLE_WINDOW``.  A window ends as soon as the trajectory enters
    the certified capture region of a stable point, which then is the
    selected branch; a converged trajectory selects the stable point it
    lies at, or its own Z.  Where a stable point exists, windows follow
    until capture or convergence, up to ``_MAX_WINDOWS``: the slowest
    spirals into a weakly damped point near the equator take a few
    dozen.  Where none exists nothing can capture the orbit, and four
    windows are settled.  A trajectory still undecided selects NaN and
    gives the row's error; the limit-cycle flag comes from the closed
    form alone.

    Returns (selected Z, limit cycle, error).
    """
    orbit = seed_orbit(SOUTH_POLE_SEED, params)
    if orbit is not None:
        if orbit.kind == "closed":
            return math.nan, True, None
        if orbit.kind == "separatrix":
            root = ", ".join(f"{c:.6g}" for c in orbit.point)
            return math.nan, False, f"separatrix: the pole orbit ends on the equator root ({root})"
        z = _nearest_stable_z(orbit.point, stable)
        if z is not None:
            return z, False, None
    end, capture = SOUTH_POLE_SEED, _capture(stable, params)
    windows = _MAX_WINDOWS if stable else 4
    for _ in range(windows):
        end = settle(end, params, SETTLE_WINDOW, capture=capture)
        if float(np.abs(bloch_rhs(end, params)).max()) < CONVERGED_TOL:
            z = _nearest_stable_z(end, stable)
            return (float(end[2]) if z is None else z), False, None
    return math.nan, False, (f"undecided: the pole orbit was neither captured nor converged "
                             f"within {windows * SETTLE_WINDOW:g} time units")


def _nearest_stable_z(state, stable: list[FixedPoint]) -> float | None:
    """Z of the stable point nearest ``state`` if it lies within 1e-3, else None."""
    if not stable:
        return None
    dists = [np.linalg.norm(state - fp.state) for fp in stable]
    k = int(np.argmin(dists))
    return float(stable[k].state[2]) if dists[k] < 1e-3 else None


def _failed_row(index, params: ModelParams, exc: Exception) -> PhasePoint:
    """The row of a grid point whose solve raised ``exc``."""
    return PhasePoint(index=index, params=params, stable_points=[], selected_Z=math.nan,
                      limit_cycle=False, error=reason(exc))


def _mf_point(task, fixed_points: list[FixedPoint] | None = None) -> PhasePoint:
    """The row of one grid point, from its fixed points if given, else searching them here."""
    (index, params, select_branch) = task
    try:
        if fixed_points is None:
            fixed_points = find_fixed_points(params)
        stable = [fp for fp in fixed_points if fp.stable]
        selected_z, limit_cycle, error = math.nan, False, None
        if select_branch or not stable:
            selected_z, limit_cycle, error = _select_branch(params, stable)
        return PhasePoint(index=index, params=params, stable_points=stable,
                          selected_Z=selected_z, limit_cycle=limit_cycle, error=error)
    except Exception as exc:  # failures isolate to this row
        return _failed_row(index, params, exc)


def _mf_block(tasks) -> list[PhasePoint]:
    """Rows of a block of grid points: one stacked fixed-point search, then each point."""
    try:
        found = find_fixed_points_many([task[1] for task in tasks])
    except Exception:  # rows are independent: each searches alone, and a failure stays in its row
        found = [None] * len(tasks)
    return [_mf_point(task, fps) for task, fps in zip(tasks, found)]


def quantum_point(index, params: ModelParams, compute_gap: bool) -> PhasePoint:
    """Quantum steady state, and optionally the gap, at one grid point.

    The magnetization comes from ``steady_state``, or with
    ``compute_gap`` from the steady state of ``liouvillian_gap``.
    Solver failures raise.
    """
    liouv = build_liouvillian(params, build_basis(params.N))
    if compute_gap:
        spectral = liouvillian_gap(liouv)
        rho, gap, mult = spectral.steady_state, spectral.gap, spectral.zero_multiplicity
    else:
        result = steady_state(liouv)
        rho, gap, mult = result.rho, None, result.zero_multiplicity
    mag = magnetization(rho)
    return PhasePoint(
        index=index,
        params=params,
        stable_points=[],
        selected_Z=float(mag[2]),
        limit_cycle=False,
        magnetization=mag,
        gap=gap,
        zero_multiplicity=mult,
    )


def _quantum_point(task) -> PhasePoint:
    try:
        return quantum_point(*task)
    except Exception as exc:  # failures isolate to this row
        return _failed_row(*task[:2], exc)


def _quantum_block(tasks) -> list[PhasePoint]:
    return [_quantum_point(task) for task in tasks]


def _run_tasks(fn, tasks, workers: int):
    """The rows of ``tasks`` in order; ``fn`` maps a block of contiguous tasks to its rows.

    One worker runs all tasks as one block.  With more, the blocks hold
    ``len(tasks) // (4 * workers)`` tasks (at least one) and go to a
    pool of spawned processes.  A row must not depend on its block, so
    that the output is the same at any worker count.
    """
    # more processes than cores or tasks only adds start-up and contention
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return fn(tasks)
    chunk = max(1, len(tasks) // (4 * workers))
    blocks = [tasks[i:i + chunk] for i in range(0, len(tasks), chunk)]
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        return [row for rows in pool.map(fn, blocks) for row in rows]


def phase_diagram(
    grid: GridSpec,
    solver: str = "mf",
    workers: int = 1,
    select_branch: bool = True,
    compute_gap: bool = False,
) -> list[PhasePoint]:
    """Scan a parameter grid with the mean-field or quantum solver.

    The mean-field solver records the stable fixed points at every
    point, enumerated exactly (see ``find_fixed_points``) for a whole
    block of points in one stacked pass (``find_fixed_points_many``);
    where that pass raises, each point of the block is searched alone,
    so a failure stays in its row.  With ``select_branch``, or where
    nothing is stable, it then runs the pole-selection schedule of
    ``_select_branch``, which gives the row's ``selected_Z``,
    limit-cycle flag and ``error``.  ``workers`` is capped at the
    number of CPUs and of grid points, and sets the blocks (see
    ``_run_tasks``); no row depends on its block.  The quantum solver
    checks every N against ``liouville.N_LIMIT`` before any solve, then runs
    :func:`quantum_point` at each point: the steady-state magnetization
    and, with ``compute_gap``, the Liouvillian gap, whose eigensolver
    settings ``liouvillian_gap`` picks from N.  Rows come back in the
    row-major order of ``GridSpec.points`` at any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    points = list(grid.points())
    if solver == "mf":
        tasks = [(idx, prm, select_branch) for idx, prm in points]
        return _run_tasks(_mf_block, tasks, workers)
    if solver == "quantum":
        for _idx, prm in points:
            if prm.N is None:
                raise ValueError("quantum sweeps require N in the fixed parameters")
            if prm.N > N_LIMIT:
                raise ValueError(f"quantum sweeps are capped at N={N_LIMIT}, got N={prm.N}")
        tasks = [(idx, prm, compute_gap) for idx, prm in points]
        return _run_tasks(_quantum_block, tasks, workers)
    raise ValueError(f"solver must be 'mf' or 'quantum', got {solver!r}")


def multistability_map(grid: GridSpec, workers: int = 1) -> list[PhasePoint]:
    """Stable-solution counts over a (g, p) grid at fixed V.

    Branch selection is skipped (only counts matter), which keeps large
    scans cheap.  A point with no stable fixed point still runs
    ``_select_branch``: on the integrable lines its closed form sets the
    ``limit_cycle`` flag of a closed pole orbit, and elsewhere up to four
    settle windows give the Z the orbit converges to, or the row's
    "undecided" error.
    """
    names = {grid.axis1.name} | ({grid.axis2.name} if grid.axis2 else set())
    if not names <= {"g", "p"}:
        raise ValueError(f"multistability map sweeps (g, p); got axes {sorted(names)}")
    return phase_diagram(grid, solver="mf", workers=workers, select_branch=False)


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


def _mf_branch(p_values, base: ModelParams):
    path = [replace(base, p=float(p)) for p in p_values]
    initial = np.array([0.0, 0.0, -1.0])
    points = continuation_sweep(path, initial, settle_time=SETTLE_WINDOW)
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
    window: float = 40.0,
) -> HysteresisResult:
    """Sweep p up and/or down and locate the bistable interval.

    The mean-field solver uses continuation with one ``SETTLE_WINDOW``
    per station; the quantum solver evolves the density matrix for
    ``window`` per station starting from the steady state at the first
    station.  Both branches are reported on the ascending p grid; the
    bistable interval is where |Z_up - Z_down| exceeds
    ``BRANCH_SPLIT_TOL``.
    """
    p_lo, p_hi, count = p_range
    if count < 1:
        raise ValueError(f"p_range count must be >= 1, got {count}")
    if p_lo > p_hi:
        raise ValueError(f"p_range requires p_lo <= p_hi, got [{p_lo}, {p_hi}]")
    if count == 1 and p_lo != p_hi:
        raise ValueError("count=1 requires p_lo == p_hi")
    if count > 1 and p_lo == p_hi:
        raise ValueError("count > 1 requires p_lo < p_hi")
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
            up, up_conv = _mf_branch(p_values, base)
        else:
            up = _quantum_branch(p_values, base, window)
    if direction in ("down", "both"):
        if solver == "mf":
            states, conv = _mf_branch(p_values[::-1], base)
            down, down_conv = states[::-1], conv[::-1]
        else:
            down = _quantum_branch(p_values[::-1], base, window)[::-1]

    interval = None
    if up is not None and down is not None:
        split = np.abs(up[:, 2] - down[:, 2]) > BRANCH_SPLIT_TOL
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
    )
