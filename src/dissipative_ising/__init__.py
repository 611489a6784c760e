"""Steady-state phase structure of a dissipative all-to-all Ising model.

Mean-field fixed-point and bifurcation analysis plus full Liouvillian
spectral analysis on the Dicke manifold, with batch sweeps and a CLI
that emits plot-ready CSV tables.
"""

from .errors import (
    ConfigError,
    InsufficientDataError,
    IntegrationError,
    NotAFixedPointError,
    SolverError,
)
from .liouville import (
    LiouvillianMatrix,
    SpectralResult,
    SteadyStateResult,
    build_hamiltonian,
    build_liouvillian,
    dicke_state_rho,
    evolve_rho,
    liouvillian_gap,
    magnetization,
    propagate,
    ramped_evolution,
    steady_state,
    unvec,
    vec,
)
from .meanfield import (
    ContinuationPoint,
    FixedPoint,
    LimitCycle,
    ModelParams,
    Trajectory,
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
from .operators import (
    DickeBasis,
    build_basis,
    op_cartesian,
    op_ladder,
    spin_coherent_state,
)
from .sweep import (
    Axis,
    GridSpec,
    HysteresisResult,
    PhasePoint,
    analytic_boundaries,
    hysteresis_experiment,
    multistability_map,
    phase_diagram,
)

__version__ = "0.1.0"
