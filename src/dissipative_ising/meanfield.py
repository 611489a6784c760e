"""Mean-field Bloch dynamics of the driven-dissipative collective spin.

The normalized magnetization (X, Y, Z) = <J>/(N/2) obeys the closed
Bloch equations (all rates in the same units, Gamma is the collective
decay rate, p in [0, 1] mixes the two Hamiltonian orientations):

    d(X, Y)/dt = A(Z) (X, Y) - (0, p g Z),   A(Z) = [[a Z, c0 + c1 Z], [d0 + d1 Z, a Z]],
    dZ/dt = p g Y + e X Y - a (1 - Z^2),

with c0 = -(1-p) g, c1 = -p V/2, d0 = (1-p) g, d1 = (2p-1) V/2 and
e = (1-p) V/2.  The damping a = Gamma/8 is the one mean-field
convention; ``_coefficients`` states it and every coefficient once, and
the flow, its Jacobian, the eliminated Z polynomial, the planar flow and
the closed forms all read them from there.

Total angular momentum conservation keeps on-sphere initial data on the
unit sphere: d(r^2)/dt = 2 a Z (r^2 - 1) vanishes at r = 1.

On the lines p = 1 and g = 0, c0 = d0 = 0, so dX/dt and dY/dt share the
factor Z: with ds = Z dt the planar flow of (X, Y) is affine-linear,

    d(X, Y)/ds = M ((X, Y) - centre),   M = [[a, c1], [d1, a]],   M centre = (0, p g),

and has a first integral; the flow on the sphere retraces its planar
curve across the equator, and its oscillations are closed neutral
orbits:

    p = 1:  w = X + iY - centre obeys dw/ds = (a + iV/2) w, so
            I = ln|w| - (2a/V) arg w (at V = 0, arg w alone);
    g = 0:  with real eigenvalues l1 > l2 of M and eigen-coordinates
            (u, v), I = l2 ln|u| - l1 ln|v|; with complex ones it takes
            the p = 1 form in coordinates where M is a rotation-dilation.

This module provides the right-hand side and its analytic Jacobian,
closed-form steady states for the two limiting orientations p = 1 and
p = 0, an exact enumeration of the fixed points on the sphere (closed
forms at p = 0, p = 1 and g = 0, elimination of X and Y to a polynomial
of degree <= 6 in Z elsewhere) with linear stability classification,
which runs over a whole list of parameter sets in one stacked pass
whose rows do not depend on each other,
the closed-form fate of an orbit on p = 1 and g = 0,
adaptive trajectory integration, settling that stops once a certified
capture region of a stable point is entered, limit-cycle detection,
and continuation sweeps along a parameter path.  The enumeration uses
no random numbers.  Limit-cycle detection is a heuristic on a sampled
trajectory and serves ``mf-evolve`` only: branch selection
(``sweep._select_branch``) flags cycles from the closed form alone.

Every integration is DOP853.  ``settle`` and so ``continuation_sweep``
need only endpoints and run scipy's compiled DOP853 through
``_dop853``; ``integrate_trajectory`` keeps ``solve_ivp`` for its dense
output, which the compiled code does not expose.

scipy's integrators and root finder load on first use.  ``ode`` and
``solve_ivp`` (scipy.integrate) and ``brentq`` (scipy.optimize) are
module attributes that import their scipy function on the first call
(``_on_first_call``).  Only settling, trajectories and the closed-form
fate of an orbit call them, and their import costs about 0.15 s and
20 MB in every process that loads this module, sweep workers included,
while the fixed-point search, the quantum tasks and grids without
branch selection never call them.  The code calls them by these names,
so a caller can still replace them.

Bloch vectors are plain length-3 float arrays (X, Y, Z) throughout.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, IntegrationError, NotAFixedPointError


def _on_first_call(module: str, name: str):
    """``module.name``, imported on the first call and forwarded to.

    Keeps a part of scipy that only some tasks use out of start-up.
    The returned callable is a module attribute that code calls by name,
    so a caller can still replace that attribute.
    """
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = getattr(importlib.import_module(module), name)
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


ode = _on_first_call("scipy.integrate", "ode")
solve_ivp = _on_first_call("scipy.integrate", "solve_ivp")
brentq = _on_first_call("scipy.optimize", "brentq")

__all__ = [
    "ModelParams",
    "FixedPoint",
    "SeedOrbit",
    "Trajectory",
    "LimitCycle",
    "ContinuationPoint",
    "STABILITY_TOL",
    "ROOT_TOL",
    "bloch_rhs",
    "jacobian",
    "analytic_p1",
    "analytic_p0",
    "analytic_boundaries",
    "classify_stability",
    "find_fixed_points",
    "find_fixed_points_many",
    "seed_orbit",
    "integrate_trajectory",
    "settle",
    "detect_limit_cycle",
    "continuation_sweep",
]

# Eigenvalue real parts within this band of zero count as marginal.
STABILITY_TOL = 1e-9
# Max-abs residual below which a state counts as a root of the flow.
ROOT_TOL = 1e-10
# Roots closer than this (Euclidean) are considered the same fixed point.
DEDUP_TOL = 1e-6
# A settled state whose max-abs residual is below this counts as converged.
CONVERGED_TOL = 1e-8
# A root counts as on the unit sphere when | |s| - 1 | is at most this.
_SPHERE_TOL = 1e-8
# Polynomial roots with |Im Z| and |Z| - 1 below this are real candidates;
# Newton polishing and the residual test decide which of them are roots.
_REAL_ROOT_TOL = 1e-6
# Newton steps that polish each candidate root.  Each inverts the 3x3
# Jacobian in closed form; only Jacobians with |det J| <= 1e-10 ||J||_F^3
# take a pseudo-inverse with rcond 1e-10 (see _polish).
_POLISH_STEPS = 3
# Integrator tolerances of settle and continuation_sweep.
_SETTLE_RTOL, _SETTLE_ATOL = 1e-12, 1e-14
# dop853's step budget; like solve_ivp, _dop853 runs with none, so it is
# the largest the compiled code accepts.
_NO_STEP_CAP = 2**31 - 1
# Weight of the previous error in dop853's step-size control, the
# stabilized (PI) control of Hairer & Wanner, Solving ODEs II, sec. IV.2.
# DOP853 defaults to 0 (DOPRI5 to 0.04).  It was chosen for steps held at
# the stability boundary, which settling's accuracy-bound steps are not:
# there it costs the same as 0.  It stays, because the shipped outputs
# of settle are bit-pinned to it.
_STEP_CONTROL_BETA = 0.04
# An end of an orbit's arc in the unit disk is an equator root when the
# orbit's first integral there is within this relative distance of its own.
_SEPARATRIX_TOL = 1e-9
# Margin theta < 1 of the capture level c = theta^2 / (4 Psi_bar^2); see
# _capture_region.
_CAPTURE_THETA = 0.9
# Squares per cube-face edge of the direction grid of _quadratic_bound.
_DIRECTION_GRID_N = 16


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the model, all rates in units of Gamma.

    V is the Ising interaction strength, g the Rabi frequency of the
    external field, p in [0, 1] the mixing parameter between the two
    Hamiltonian orientations, Gamma the collective decay rate.  N is
    the spin count and is only consulted by the quantum solvers.
    """

    V: float
    g: float
    p: float
    Gamma: float = 1.0
    N: int | None = None

    def __post_init__(self):
        for name in ("V", "g", "p", "Gamma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must satisfy 0 <= p <= 1, got {self.p}")
        if self.Gamma <= 0.0:
            raise ValueError(f"Gamma must be positive, got {self.Gamma}")
        if self.N is not None:
            if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
                raise ValueError(f"N must be a positive integer, got {self.N!r}")
            if self.N < 1:
                raise ValueError(f"N must be >= 1, got {self.N}")


@dataclass(frozen=True)
class _ParamRows:
    """Model parameters of a stack of rows, one array entry per row.

    It stands in for ModelParams in the stacked flow, Jacobian and Newton
    polish: every row is evaluated under its own parameters by the same
    elementwise operations, in the same order, as on its own.
    """

    V: np.ndarray
    g: np.ndarray
    p: np.ndarray
    Gamma: np.ndarray

    @classmethod
    def of(cls, params_seq) -> _ParamRows:
        return cls(*(np.array([getattr(prm, name) for prm in params_seq], dtype=float)
                     for name in ("V", "g", "p", "Gamma")))

    def take(self, index) -> _ParamRows:
        return _ParamRows(self.V[index], self.g[index], self.p[index], self.Gamma[index])


@dataclass(frozen=True)
class FixedPoint:
    """A root of the Bloch flow with its linear stability verdict.

    ``stable`` is True iff every Jacobian eigenvalue has real part
    below -STABILITY_TOL; eigenvalues within +/-STABILITY_TOL of the
    imaginary axis flag the point as ``marginal`` instead.
    """

    state: np.ndarray
    eigenvalues: np.ndarray
    stable: bool
    marginal: bool
    residual: float


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered Bloch states from one integration run."""

    times: np.ndarray
    states: np.ndarray
    params: ModelParams


@dataclass(frozen=True)
class LimitCycle:
    """Period and peak-to-trough Z amplitude of a detected cycle."""

    period: float
    z_amplitude: float


@dataclass(frozen=True)
class ContinuationPoint:
    """One station of a continuation sweep."""

    params: ModelParams
    state: np.ndarray
    converged: bool
    residual: float


def _coefficients(params: ModelParams | _ParamRows):
    """(a, c0, c1, d0, d1, pg, e) of the flow in the module docstring's form.

    a = Gamma/8 is the damping, the one mean-field convention.  Works for
    ``ModelParams`` (floats) and ``_ParamRows`` (one entry per row).
    c0 = -d0 up to the sign of a zero at p = 1: the Jacobian adds c0 =
    (p - 1) g and dX/dt subtracts d0 y, the zeros the tables were built on.
    """
    v, g, p = params.V, params.g, params.p
    return (params.Gamma / 8.0, (p - 1.0) * g, -p * v / 2.0, (1.0 - p) * g,
            (2.0 * p - 1.0) * v / 2.0, p * g, (1.0 - p) * v / 2.0)


def _flow_of(params: ModelParams | _ParamRows):
    """The Bloch flow (x, y, z) -> (fx, fy, fz) of ``params``, its coefficients computed once.

    x, y, z are floats or equal-shape arrays; with ``_ParamRows`` the
    parameters are arrays of that shape too.  Each term multiplies in
    the same order on every call, so the flow applies the same IEEE
    operations on floats and on stacks.  dY/dt keeps its written form
    in p, g and V/2, to which the endpoints of ``settle`` are pinned.
    """
    a, _c0, c1, d0, _d1, pg, e = _coefficients(params)
    g, p, half_v = params.g, params.p, params.V / 2.0
    q = 1.0 - p

    def flow(x, y, z):
        hxz = half_v * x * z
        return (
            c1 * y * z - d0 * y + a * x * z,
            p * (hxz - g * z) + q * (g * x - hxz) + a * y * z,
            pg * y + e * x * y - a * (1.0 - z * z),
        )

    return flow


def _rhs_many(states: np.ndarray, params: ModelParams | _ParamRows) -> np.ndarray:
    """Bloch right-hand side for a stack of states, shape (n, 3)."""
    return np.stack(_flow_of(params)(states[..., 0], states[..., 1], states[..., 2]), axis=-1)


def _ode_rhs(params: ModelParams):
    """Right-hand side ``f(t, y)`` for the integrators.

    It evaluates the closure of :func:`_flow_of`, its coefficients
    computed once per run, on Python floats: 0.50 us a call against
    0.80 us with the parameters looked up and combined on each call (one
    core of a 2-core x86 box), and the same floats as :func:`_rhs_many`
    on a one-row stack, since both apply the same IEEE operations in the
    same order.
    """
    flow = _flow_of(params)

    def rhs(_t, state):
        return flow(*state.tolist())

    return rhs


def bloch_rhs(state, params: ModelParams) -> np.ndarray:
    """Time derivative (dX, dY, dZ) of the Bloch vector at ``state``."""
    state = np.asarray(state, dtype=float)
    return _rhs_many(state[None, :], params)[0]


def _jacobian_many(states: np.ndarray, params: ModelParams | _ParamRows) -> np.ndarray:
    """Analytic Jacobian of the Bloch flow for a stack of states, (n, 3, 3)."""
    x, y, z = states[..., 0], states[..., 1], states[..., 2]
    a, c0, c1, d0, d1, pg, e = _coefficients(params)
    jac = np.empty((states.shape[0], 3, 3), dtype=float)
    jac[:, 0, 0] = jac[:, 1, 1] = a * z
    jac[:, 0, 1] = c0 + c1 * z
    jac[:, 0, 2] = c1 * y + a * x
    jac[:, 1, 0] = d0 + d1 * z
    jac[:, 1, 2] = d1 * x - pg + a * y
    jac[:, 2, 0] = e * y
    jac[:, 2, 1] = pg + e * x
    jac[:, 2, 2] = 2.0 * a * z
    return jac


def jacobian(state, params: ModelParams) -> np.ndarray:
    """3x3 Jacobian matrix of the Bloch flow at ``state``."""
    state = np.asarray(state, dtype=float)
    return _jacobian_many(state[None, :], params)[0]


def analytic_p1(params: ModelParams) -> np.ndarray | None:
    """Closed-form stable steady state for p = 1.

    The southern lift of the planar centre of :func:`_planar_flow`:
    (p g (beta, a) / d, -sqrt(1 - (p g)^2 / d)) with beta = V/2 and
    d = a^2 + beta^2, or None where the radicand is negative (the
    region without stable fixed points).  The returned vector lies on
    the unit sphere identically: X^2 + Y^2 = (p g)^2 / d.
    """
    if params.p != 1.0:
        raise ValueError(f"closed form requires p=1, got p={params.p}")
    lifts = _planar_flow(params)[4]
    return lifts[0] if lifts else None


def analytic_p0(params: ModelParams) -> list[tuple[np.ndarray, str]]:
    """Closed-form steady-state candidates for p = 0, with branch labels.

    At p = 0, p g = 0 and A(Z) = [[a Z, -g], [g - e Z, a Z]], so off the
    poles det A(Z) = 0, which with Z = g zeta reads
    a^2 zeta^2 - e zeta + 1 = 0: zeta(+/-) = (e +/- sqrt(e^2 - 4 a^2)) / (2 a^2).
    The first row gives Y = a zeta X, and the unit sphere
    X = eta = +/- sqrt(1 - (g^2 + a^2) zeta / e), so the nontrivial family
    is (X, Y, Z) = (eta, a eta zeta, g zeta).  Labels are two sign
    characters (zeta branch, eta sign).  The polarized poles (0, 0, -1)
    and (0, 0, +1), which are always roots at p = 0, are appended with
    labels "pole-" and "pole+".

    Only branches with a real eta are returned; every returned vector
    lies on the unit sphere (the quadratic for zeta enforces it).
    """
    if params.p != 0.0:
        raise ValueError(f"closed form requires p=0, got p={params.p}")
    a, _c0, _c1, _d0, _d1, _pg, e = _coefficients(params)
    g = params.g
    out: list[tuple[np.ndarray, str]] = []
    disc = e * e - 4.0 * a * a
    if disc >= 0.0 and e != 0.0:
        root = math.sqrt(disc)
        for s_zeta, zeta in (("+", (e + root) / (2.0 * a * a)), ("-", (e - root) / (2.0 * a * a))):
            radicand = 1.0 - (g * g + a * a) * zeta / e
            if radicand < 0.0:
                continue
            eta = math.sqrt(radicand)
            for s_eta, x in (("+", eta), ("-", -eta)):
                out.append((np.array([x, a * x * zeta, g * zeta]), s_zeta + s_eta))
    out.append((np.array([0.0, 0.0, -1.0]), "pole-"))
    out.append((np.array([0.0, 0.0, 1.0]), "pole+"))
    return out


def analytic_boundaries(v_values, gamma: float = 1.0) -> list[dict]:
    """Closed-form phase boundaries as a table over V.

    For p = 1 the stable region, where :func:`analytic_p1` has a root,
    ends at |g| = sqrt(d) = sqrt(a^2 + (V/2)^2).  For p = 0 the ordered
    window [g-, g+] is where the branches of :func:`analytic_p0` have a
    real eta, which vanishes at g = 1/zeta:
    g(+/-) = 2 a^2 / (e +/- sqrt(e^2 - 4 a^2)) with e = V/2, for
    V <= -4a.  Both the signed values and their magnitudes are
    tabulated, NaN where the window is closed.  For V > -4a it is
    closed: at V >= 4a the formula has real roots, but only the south
    pole is stable at p = 0.
    """
    if gamma <= 0.0:
        raise ValueError(f"Gamma must be positive, got {gamma}")
    rows = []
    for v in np.asarray(v_values, dtype=float).tolist():
        # e = V/2 at p = 0 is also beta at p = 1
        a, _c0, _c1, _d0, _d1, _pg, e = _coefficients(ModelParams(V=v, g=0.0, p=0.0, Gamma=gamma))
        gplus = gminus = math.nan
        if e <= -2.0 * a:
            root = math.sqrt(e * e - 4.0 * a * a)
            gplus, gminus = 2.0 * a * a / (e + root), 2.0 * a * a / (e - root)
        rows.append({"V": v, "gc_p1": math.sqrt(a * a + e * e), "gplus_c": abs(gplus),
                     "gminus_c": abs(gminus), "gplus_c_signed": gplus, "gminus_c_signed": gminus})
    return rows


def _classify(states: np.ndarray, rows: _ParamRows, residuals) -> list[FixedPoint]:
    """Linear stability of a stack of roots, each row under its own parameters.

    Rows do not depend on each other.  A stacked ``eigvals`` returns
    complex values for every row once any row's spectrum is complex, so
    each row's eigenvalues are cast back to real where its own spectrum
    is real, as a call on that row alone returns them.
    """
    eigs = np.linalg.eigvals(_jacobian_many(states, rows))
    eigs = np.take_along_axis(eigs, np.lexsort((eigs.imag, -eigs.real), axis=-1), axis=-1)
    max_re = eigs.real.max(axis=-1)
    stable = max_re < -STABILITY_TOL
    marginal = ~stable & (max_re <= STABILITY_TOL)
    complex_spectrum = eigs.imag.any(axis=-1)
    return [
        FixedPoint(
            state=state.copy(),
            eigenvalues=row.copy() if cplx else row.real.copy(),
            stable=s,
            marginal=m,
            residual=float(residual),
        )
        for state, row, s, m, cplx, residual in zip(
            states, eigs, stable.tolist(), marginal.tolist(), complex_spectrum.tolist(), residuals)
    ]


def classify_stability(state, params: ModelParams, root_tol: float = 1e-8) -> FixedPoint:
    """Linear stability of a fixed point via the Jacobian spectrum.

    This is the classification of :func:`find_fixed_points_many` on a
    stack of one root.

    Raises
    ------
    NotAFixedPointError
        If the max-abs Bloch residual at ``state`` exceeds ``root_tol``.
    """
    state = np.asarray(state, dtype=float)
    residual = float(np.abs(bloch_rhs(state, params)).max())
    if residual > root_tol:
        raise NotAFixedPointError(
            f"residual {residual:.3e} exceeds root tolerance {root_tol:.1e}"
        )
    return _classify(state[None, :], _ParamRows.of([params]), [residual])[0]


def _planar_flow(params: ModelParams):
    """(a, beta, gamma, centre, lifts) of the planar flow at p = 1 or g = 0, else None.

    There c0 = d0 = 0, so dX/dt and dY/dt share the factor Z, and with
    ds = Z dt

        d(X, Y)/ds = M ((X, Y) - centre),   M = [[a, -beta], [gamma, a]],   M centre = (0, p g),

    beta = -c1 = p V/2 and gamma = d1 = (2p-1) V/2.  At p = 1,
    centre = p g (beta, a) / d with d = det M = a^2 + beta^2; at g = 0
    (p > 0) it is the origin.  Over the centre dZ/dt vanishes on the
    unit sphere, so its ``lifts``, (centre, -Z) and (centre, Z) with
    Z = sqrt(1 - |centre|^2), are roots of the flow; none are listed
    where the centre lies outside the unit disk.
    """
    a, _c0, c1, _d0, gamma, pg, _e = _coefficients(params)
    beta = -c1
    if params.p == 1.0:
        d = a * a + beta * beta
        centre, radicand = (pg * beta / d, pg * a / d), 1.0 - pg * pg / d
    elif params.g == 0.0 and params.p > 0.0:
        # the literal origin: pg * beta / d is -0.0 where beta < 0
        centre, radicand = (0.0, 0.0), 1.0
    else:
        return None
    lifts = [np.array([*centre, s * math.sqrt(radicand)]) for s in (-1.0, 1.0)] if radicand >= 0.0 else []
    return a, beta, gamma, centre, lifts


def _tangency_points(params: ModelParams) -> list[np.ndarray]:
    """The equator roots at p = 1 or g = 0, where the planar flow is tangent to the unit circle.

    At Z = 0, dZ/dt = 0 reads p g Y + e X Y = a.  At p = 1 (e = 0) that
    is Y = a/(p g), a line of marginal roots that meets the circle in two
    points where |a/(p g)| <= 1.  At g = 0 it is X Y = a/e, which meets
    the circle in four points where |X Y| <= 1/2.
    """
    a, _c0, _c1, _d0, _d1, pg, e = _coefficients(params)
    if params.p == 1.0:
        if pg == 0.0 or abs(a / pg) > 1.0:
            return []
        y = a / pg
        x = math.sqrt(1.0 - y * y)
        return [np.array([x, y, 0.0]), np.array([-x, y, 0.0])]
    if e == 0.0 or abs(a / e) > 0.5:
        return []
    xy = a / e
    s, t = math.sqrt(1.0 + 2.0 * xy), math.sqrt(1.0 - 2.0 * xy)
    return [np.array([(u + w) / 2.0, (u - w) / 2.0, 0.0]) for u, w in ((s, t), (s, -t), (-s, t), (-s, -t))]


def _planar_candidates(params: ModelParams) -> list[np.ndarray]:
    """Roots on the sphere at p = 1 or g = 0 (p > 0): the centre's lifts, then the equator roots.

    There A(Z) = Z M, so dX/dt = dY/dt = 0 needs Z = 0 or (X, Y) at the
    centre of :func:`_planar_flow`.  (Where det M = 0 as well, whole
    circles of roots pass through the poles; they are not isolated and
    are not listed.)
    """
    return _planar_flow(params)[4] + _tangency_points(params)


def _series(*coeffs) -> np.ndarray:
    """Polynomials stacked by row from their coefficients, lowest degree first.

    Each coefficient is a scalar or an array with one entry per row.
    """
    return np.stack(np.broadcast_arrays(*coeffs), axis=-1)


def _polymul(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Row-wise products of stacked polynomials, lowest degree first.

    Each coefficient of a product accumulates its terms in the order of
    the coefficients of ``c``, as ``numpy.polynomial`` does.
    """
    out = np.zeros((c.shape[0], c.shape[1] + d.shape[1] - 1))
    for i in range(c.shape[1]):
        out[:, i:i + d.shape[1]] += c[:, i, None] * d
    return out


def _z_polynomials(rows: _ParamRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, d, poly) of :func:`_eliminated_candidates`, one row per cell.

    All three are stacked polynomials in Z, lowest degree first: the
    entries c(Z) and d(Z) of A(Z), of degree 1, and the eliminated
    polynomial, padded to degree 6.  Its leading coefficients can vanish
    exactly at special parameter values, so a row's degree can be lower.
    """
    a, c0, c1, d0, d1, pg, e = _coefficients(rows)
    c, d = _series(c0, c1), _series(d0, d1)
    det = _series(0.0, 0.0, a * a) - _polymul(c, d)
    nx = _polymul(c, _series(0.0, -pg))
    # (a p) g, not a (p g): the two round differently, and the tables
    # were built on this one
    ny = _series(0.0, 0.0, a * rows.p * rows.g)
    # Python's float power: (p g)**2 rounds differently from pg * pg about
    # once in a thousand, and this is the value the tables were built on
    pg_squared = np.array([x ** 2 for x in pg.tolist()])
    poly = (_polymul(_series(0.0, 0.0, a * pg_squared), det)
            + _polymul(e[:, None] * nx, ny))
    poly = np.pad(poly, ((0, 0), (0, 2))) - _polymul(
        a[:, None] * np.array([1.0, 0.0, -1.0]), _polymul(det, det))
    return c, d, poly


def _polyroots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of stacked polynomials of one degree, each row sorted.

    ``coeffs`` is (k, n + 1), lowest degree first, with nonzero leading
    coefficients.  The roots are the eigenvalues of the companion
    matrices, as in ``numpy.polynomial.polynomial.polyroots``.
    """
    k, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n < 1:
        return np.empty((k, 0))
    if n == 1:
        return -coeffs[:, :1] / coeffs[:, 1:]
    companion = np.zeros((k, n, n))
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
    return np.sort(np.linalg.eigvals(companion), axis=-1)


def _eliminated_candidates(rows: _ParamRows) -> tuple[np.ndarray, np.ndarray]:
    """Roots for 0 < p < 1 and g != 0 from the eliminated Z polynomial.

    At fixed Z, dX/dt = dY/dt = 0 is linear in (X, Y):

        A(Z) (X, Y) = b = (0, p g Z),   A = [a Z, c(Z); d(Z), a Z],
        c = c0 + c1 Z,   d = d0 + d1 Z   (see the module docstring),

    so X = -c p g Z / det A and Y = a p g Z^2 / det A.  Substituting into
    dZ/dt = 0 and clearing det^2 leaves a polynomial of degree <= 6 in
    Z whose real roots in [-1, 1] carry every fixed point on the sphere.
    det A cannot vanish at a fixed point here: a singular A(Z) admits a
    solution only if both Cramer numerators vanish, which needs Z = 0,
    where det A = ((1-p) g)^2 > 0.

    Cramer's rule loses accuracy where det A is small (near p = 0 and
    near g = 0), so (X, Y) is rebuilt from the singular value
    decomposition A = s1 u1 v1^T + s2 u2 v2^T instead: the component
    along v1 is u1.b / s1, and the component along v2 follows from
    X^2 + Y^2 = 1 - Z^2 up to its sign.  Both signs are returned;
    polishing and the residual test keep the right one.

    ``rows`` holds the cells; the polynomials of all of them are built
    at once and their roots found in one companion stack per degree.
    Returns the candidates (m, 3) and the row of each (m,): the roots
    with the + sign, then with the - sign, each cell's in ascending Z
    order.
    """
    c, d, poly = _z_polynomials(rows)
    nonzero = poly != 0.0
    # exact trailing zeros drop, as numpy.polynomial trims them
    size = np.where(nonzero.any(axis=1), poly.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 1)
    cells, zs = [], []
    for n in np.unique(size):
        group = np.flatnonzero(size == n)
        roots = _polyroots(poly[group, :n])
        real = (np.abs(roots.imag) <= _REAL_ROOT_TOL) & (np.abs(roots.real) <= 1.0 + _REAL_ROOT_TOL)
        cells.append(np.repeat(group, real.sum(axis=1)))
        zs.append(roots.real[real])
    cell, z = np.concatenate(cells), np.concatenate(zs)
    a, _c0, _c1, _d0, _d1, pg, _e = _coefficients(rows.take(cell))
    mats = np.empty((z.size, 2, 2))
    mats[:, 0, 0] = mats[:, 1, 1] = a * z
    # Horner's rule as numpy.polynomial.polynomial.polyval applies it
    mats[:, 0, 1] = c[cell, 0] + (c[cell, 1] + z * 0) * z
    mats[:, 1, 0] = d[cell, 0] + (d[cell, 1] + z * 0) * z
    u, s, vt = np.linalg.svd(mats)
    along_v1 = u[:, 1, 0] * pg * z / s[:, 0]
    along_v2 = np.sqrt(np.maximum(1.0 - z * z - along_v1**2, 0.0))
    xy = along_v1[:, None] * vt[:, 0, :]
    states = np.concatenate([
        np.column_stack([xy + sign * along_v2[:, None] * vt[:, 1, :], z])
        for sign in (1.0, -1.0)
    ])
    return states, np.concatenate([cell, cell])


def _candidates(params_seq: list[ModelParams], rows: _ParamRows) -> tuple[np.ndarray, np.ndarray]:
    """Approximate fixed points on the sphere of every cell, possibly repeated.

    Returns the candidates (m, 3) and the cell of each (m,), grouped by
    cell in cell order.  The closed forms serve p = 0, p = 1 and g = 0;
    the other cells share one :func:`_eliminated_candidates` pass.
    """
    cells, parts, generic = [np.empty(0, dtype=int)], [np.empty((0, 3))], []
    for k, params in enumerate(params_seq):
        if params.p == 0.0:
            cands = [s for s, _label in analytic_p0(params)]
        elif params.p == 1.0 or params.g == 0.0:
            cands = _planar_candidates(params)
        else:
            generic.append(k)
            continue
        cells.append(np.full(len(cands), k))
        parts.append(np.array(cands, dtype=float).reshape(-1, 3))
    if generic:
        generic = np.array(generic)
        states, cell = _eliminated_candidates(rows.take(generic))
        cells.append(generic[cell])
        parts.append(states)
    cell = np.concatenate(cells)
    order = np.argsort(cell, kind="stable")
    return np.concatenate(parts)[order], cell[order]


def _polish(states: np.ndarray, rows: _ParamRows) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the 3-vector system; the best iterate of each row.

    Row i is polished under the parameters of row i of ``rows``.
    Returns the polished states and their max-abs residuals.  Each step
    solves J d = f in closed form: the columns of J^-1 are r1 x r2,
    r2 x r0 and r0 x r1 over det J, with r0, r1, r2 the rows of J.  A row
    with |det J| <= 1e-10 ||J||_F^3 (the singular Jacobians of marginal
    roots) takes the pseudo-inverse with rcond 1e-10 instead.  Since
    |det J| <= s_max^2 s_min and ||J||_F >= s_max, every other row has
    s_min > 1e-10 s_max, where the pseudo-inverse truncates nothing and
    equals the inverse.
    """
    rcond = 1e-10
    current = states
    f = _rhs_many(current, rows)
    best, best_res = states.copy(), np.abs(f).max(axis=1)
    for _ in range(_POLISH_STEPS):
        jac = _jacobian_many(current, rows)
        # row k of adj is column k of det(J) J^-1
        adj = np.cross(jac[:, [1, 2, 0]], jac[:, [2, 0, 1]])
        det = np.einsum("ni,ni->n", jac[:, 0], adj[:, 0])
        # written as "not above" so that a NaN Jacobian takes the pseudo-inverse too
        singular = ~(np.abs(det) > rcond * np.sqrt(np.einsum("nij,nij->n", jac, jac)) ** 3)
        step = np.einsum("nki,nk->ni", adj, f) / np.where(singular, 1.0, det)[:, None]
        if singular.any():
            step[singular] = np.einsum("nij,nj->ni", np.linalg.pinv(jac[singular], rcond=rcond),
                                       f[singular])
        current = current - step
        f = _rhs_many(current, rows)
        res = np.abs(f).max(axis=1)
        better = res < best_res
        best[better] = current[better]
        best_res[better] = res[better]
    return best, best_res


def find_fixed_points_many(params_seq) -> list[list[FixedPoint]]:
    """:func:`find_fixed_points` of every ``ModelParams`` in ``params_seq``, in one stacked pass.

    The candidates of all cells are built together (the Z polynomials of
    all generic cells at once, their roots in one companion stack per
    degree), then polished by :func:`_polish`, deduplicated per cell
    and classified as stacks with per-row parameters.  Deduplication
    takes a cell's candidates in order: a later candidate within
    ``DEDUP_TOL`` of a kept root replaces it only if its residual is
    smaller, and is otherwise dropped.  Rows do not depend on each
    other: no operation reduces across them, so each cell's list is
    what a pass over that cell alone returns, bit for bit.  An
    exception in any cell raises from the whole pass.
    """
    params_seq = list(params_seq)
    rows = _ParamRows.of(params_seq)
    cands, cell = _candidates(params_seq, rows)
    finite = np.isfinite(cands).all(axis=1)
    cands, cell = cands[finite], cell[finite]
    states, res = _polish(cands, rows.take(cell))
    on_sphere = np.abs(np.linalg.norm(states, axis=1) - 1.0) <= _SPHERE_TOL
    keep = np.flatnonzero(on_sphere & (res <= ROOT_TOL))
    kept, kept_res = states[keep].tolist(), res[keep].tolist()
    # per cell, indices into keep of its distinct roots
    found: list[list[int]] = [[] for _ in params_seq]
    for j, (k, st, r) in enumerate(zip(cell[keep].tolist(), kept, kept_res)):
        unique = found[k]
        for m, u in enumerate(unique):
            if math.dist(st, kept[u]) < DEDUP_TOL:
                if r < kept_res[u]:
                    unique[m] = j
                break
        else:
            unique.append(j)

    owner = [k for k, unique in enumerate(found) for _ in unique]
    roots = keep[[j for unique in found for j in unique]]
    points = _classify(states[roots], rows.take(owner), res[roots])
    out: list[list[FixedPoint]] = [[] for _ in params_seq]
    for k, fp in zip(owner, points):
        out[k].append(fp)
    for fps in out:
        fps.sort(key=lambda fp: (not fp.stable, fp.state[2], fp.state[0], fp.state[1]))
    return out


def find_fixed_points(params: ModelParams, n_seeds: int = 200) -> list[FixedPoint]:
    """Every isolated fixed point of the flow on the unit sphere, classified.

    The enumeration is exact and deterministic.  For 0 < p < 1 and
    g != 0 the fixed points are the real roots in [-1, 1] of a
    polynomial of degree <= 6 in Z, obtained by solving dX/dt = dY/dt = 0
    for (X, Y) at fixed Z and eliminating them from dZ/dt = 0.  At
    p = 0 they are the closed-form candidates of :func:`analytic_p0`;
    at p = 1 and g = 0 those of :func:`_planar_candidates`: the two
    points over the planar centre (the +/-Z pair of :func:`analytic_p1`
    at p = 1, the poles at g = 0) plus the equator points where
    p g Y + e X Y = a.  Each candidate is polished by a few Newton steps
    and kept if its max-abs residual is at most ``ROOT_TOL`` and it lies
    on the unit sphere; candidates closer than ``DEDUP_TOL`` are merged.
    Roots off the sphere (possible only at Z = 0, since d(r^2)/dt =
    2 a Z (r^2 - 1)) and continua of roots are not listed.

    This is :func:`find_fixed_points_many` on a batch of one cell.
    ``n_seeds`` is unused but still checked to be >= 1; it goes once
    the benchmark's tracing no longer reads it.

    Returns stable points first, then the rest, each group ordered by
    (Z, X, Y).  An empty list is a legal result (no roots on the sphere).
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    return find_fixed_points_many([params])[0]


@dataclass(frozen=True)
class SeedOrbit:
    """Where the flow on p = 1 or g = 0 takes a state of the southern hemisphere.

    ``kind`` is "centre" where the orbit never reaches the equator and
    ends at the fixed point over the planar centre (``point``, on the
    southern hemisphere); "closed" where the orbit's arc inside the unit
    disk crosses the equator transversally at both ends, so the flow
    retraces the arc in the north and the orbit is a closed neutral
    orbit (``point`` is where the state first reaches the equator);
    "separatrix" where an end of that arc is an equator root
    (``point``), on which the flow ends.
    """

    kind: str
    point: np.ndarray | None = None


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x != 0.0 else -math.inf


def _orbit_phase(flow, seed):
    """The seed's orbit as level sets on the unit circle, or None where degenerate.

    Returns (theta, s_of, targets, splits, same_sign, backward_to_centre):
    the circle point at angle phi lies on the seed's orbit, at flow time
    s_of(phi), exactly where theta(phi) takes a value of targets(lo, hi)
    (the values in [lo, hi]) and same_sign(phi) holds.  theta is
    continuous between the angles ``splits`` and changes monotonically
    between tangency angles; ``backward_to_centre`` says whether the
    flow run backward in s tends to the centre.

    With N = M - a I, N^2 = -kappa I, kappa = beta gamma.  For kappa > 0
    (a focus) and for N = 0 (a star) zeta = t1 (X - Xc) + i (Y - Yc),
    t1 = sqrt(gamma / beta), obeys dzeta/ds = (a + i nu) zeta with
    nu = sign(beta) sqrt(kappa), so ln|zeta| - (a/nu) arg zeta is a first
    integral; theta = arg zeta - (nu/a) ln|zeta| is it, rescaled, and is
    fixed modulo 2 pi.  For kappa < 0 the eigen-coordinates u, v of M
    grow as exp(l1 s) and exp(l2 s), l1,2 = a +/- sqrt(-kappa), and
    theta = ln|u/u0|/l1 - ln|v/v0|/l2 vanishes on the orbit.  A Jordan
    block (kappa = 0, N != 0), det M = 0, a seed on an eigenline and a
    centre on the unit circle have no such form here.
    """
    a, beta, gamma, (xc, yc), _lifts = flow
    kappa = beta * gamma
    if kappa > 0.0 or beta == gamma == 0.0:
        t1 = math.sqrt(gamma / beta) if kappa > 0.0 else 1.0
        nu = math.copysign(math.sqrt(kappa), beta)
        rotation = nu / a
        # on the circle zeta = A e^{i phi} + B e^{-i phi} + C with A > |B|;
        # the lift of arg zeta is continuous where A or C dominates
        big_a, big_b, big_c = (t1 + 1.0) / 2.0, abs(t1 - 1.0) / 2.0, complex(-t1 * xc, -yc)
        if big_a > big_b + abs(big_c):
            def arg(phi, z):
                return phi + cmath.phase(z * cmath.exp(-1j * phi))
        elif abs(big_c) > big_a + big_b:
            def arg(phi, z):
                return cmath.phase(big_c) + cmath.phase(z / big_c)
        else:
            return None
        z0 = complex(t1 * (seed[0] - xc), seed[1] - yc)
        log_r0 = math.log(abs(z0))
        theta0 = cmath.phase(z0) - rotation * log_r0

        def zeta(phi):
            return complex(t1 * (math.cos(phi) - xc), math.sin(phi) - yc)

        def theta(phi):
            z = zeta(phi)
            return arg(phi, z) - rotation * math.log(abs(z))

        def s_of(phi):
            return (math.log(abs(zeta(phi))) - log_r0) / a

        def targets(lo, hi):
            k = math.ceil((lo - theta0) / (2.0 * math.pi))
            while theta0 + 2.0 * math.pi * k <= hi:
                yield theta0 + 2.0 * math.pi * k
                k += 1

        return theta, s_of, targets, [], lambda _phi: True, True

    mu = math.sqrt(-kappa)
    l1, l2 = a + mu, a - mu
    if mu == 0.0 or l2 == 0.0:
        return None

    def coords(x, y):
        return 0.5 * (-x / beta + y / mu), 0.5 * (-x / beta - y / mu)

    u0, v0 = coords(seed[0], seed[1])
    if u0 == 0.0 or v0 == 0.0:
        return None
    # on the circle u and v carry a rounding error of a few ulps of 1/|beta|
    # and 1/mu; below that they count as zero.  An orbit of a saddle with a
    # small |l2| leaves the disk where |u| is far smaller (1e-21 at V = -1,
    # p = 0.2), so its crossing is resolved only as the eigenline's.
    floor = 8.0 * np.finfo(float).eps * (1.0 / abs(beta) + 1.0 / mu)

    def circle_coords(phi):
        u, v = coords(math.cos(phi), math.sin(phi))
        return (u if abs(u) > floor else 0.0), (v if abs(v) > floor else 0.0)

    def theta(phi):
        u, v = circle_coords(phi)
        return (_log_abs(u) - _log_abs(u0)) / l1 - (_log_abs(v) - _log_abs(v0)) / l2

    def s_of(phi):
        # on the orbit both coordinates give s; the larger is the accurate one
        u, v = circle_coords(phi)
        if abs(u) >= abs(v):
            return (_log_abs(u) - _log_abs(u0)) / l1
        return (_log_abs(v) - _log_abs(v0)) / l2

    def targets(lo, hi):
        if lo <= 0.0 <= hi:
            yield 0.0

    def same_sign(phi):
        u, v = coords(math.cos(phi), math.sin(phi))
        return u * u0 > 0.0 and v * v0 > 0.0

    # u and v vanish on the eigenlines of M
    splits = [math.atan2(mu, beta), math.atan2(-mu, beta)]
    splits += [t + math.pi for t in splits]
    return theta, s_of, targets, splits, same_sign, l2 > 0.0


def seed_orbit(state, params: ModelParams) -> SeedOrbit | None:
    """The fate of the orbit through ``state`` (Z < 0) on p = 1 or g = 0, in closed form.

    On these lines the planar flow of ``_planar_flow`` is linear in s,
    so the orbit through (X, Y) is a level set of a first integral.
    The points where it meets the unit circle are the roots, on the arcs
    between the equator roots of :func:`_tangency_points` (where the
    flow is tangent to the circle), of that integral's equation; brentq
    finds each of them, with its flow time s.  The seed moves backward
    in s while Z < 0.  Without a crossing at s < 0 the seed tends to the
    centre, and the orbit ends at its southern lift; otherwise the
    nearest crossings on both sides end the orbit's arc in the disk.
    An end that meets an equator root within a relative 1e-9 of its
    integral makes a separatrix, and that root is its point.

    Returns None off those lines and where the closed form degenerates:
    see ``_orbit_phase``.
    """
    state = np.asarray(state, dtype=float)
    flow = _planar_flow(params)
    if flow is None or not state[2] < 0.0:
        return None
    phase = _orbit_phase(flow, state[:2])
    if phase is None:
        return None
    theta, s_of, targets, splits, same_sign, backward_to_centre = phase
    # each cut is (angle, index of its equator root, or -1 on an eigenline)
    roots = _tangency_points(params)
    cuts = sorted([(math.atan2(y, x) % (2.0 * math.pi), k) for k, (x, y, _z) in enumerate(roots)]
                  + [(t % (2.0 * math.pi), -1) for t in splits]) or [(0.0, -1)]
    arcs = [(lo, hi, root) for (lo, root), (hi, _) in
            zip(cuts, cuts[1:] + [(cuts[0][0] + 2.0 * math.pi, cuts[0][1])])]
    crossings = []  # (s, phi, index of the equator root there, or -1)
    for lo, hi, root in arcs:
        if not same_sign(0.5 * (lo + hi)):
            continue
        t_lo, t_hi = theta(lo), theta(hi)
        # the margin admits targets within tolerance of an arc's end; an
        # end is counted by the arc it starts
        for target in targets(min(t_lo, t_hi) - 1.0, max(t_lo, t_hi) + 1.0):
            tol = _SEPARATRIX_TOL * max(1.0, abs(target))
            if abs(t_lo - target) <= tol:
                crossings.append((s_of(lo), lo, root))
            elif abs(t_hi - target) > tol and (t_lo - target) * (t_hi - target) < 0.0:
                phi = brentq(lambda x, t=target: math.atan(theta(x) - t), lo, hi, xtol=1e-14)
                crossings.append((s_of(phi), phi, -1))
    backward = max((c for c in crossings if c[0] < 0.0), default=None)
    forward = min((c for c in crossings if c[0] > 0.0), default=None)
    if forward is None:
        return None
    if backward is None:
        lifts = flow[4]
        if not (backward_to_centre and lifts and lifts[0][2] < 0.0):
            return None
        return SeedOrbit("centre", lifts[0])
    for _s, _phi, root in (backward, forward):
        if root >= 0:
            return SeedOrbit("separatrix", roots[root])
    return SeedOrbit("closed", np.array([math.cos(backward[1]), math.sin(backward[1]), 0.0]))


class _Dop853:
    """scipy's compiled DOP853 for one state size and tolerance pair.

    The compiled code behind ``scipy.integrate.ode`` (scipy 1.17) keeps
    a reference to the right-hand side and to the step callback of every
    call and never drops it.  A solver built per run would so keep each
    run's right-hand side and capture test, with all they refer to, and
    its own work arrays alive for the life of the process.  This solver
    is built once per shape and called through two fixed methods that
    read the run's ``fun`` and ``stop`` from attributes cleared after the
    run.  The step callback the compiled code sees is the integrator's
    ``_solout``, which ``set_initial_value`` would bind afresh on every
    run, leaving one bound method (64 bytes) behind each time; it is
    bound once here, so repeated runs hand over the same objects and
    hold no memory.
    """

    def __init__(self, size: int, rtol: float, atol: float):
        self.fun = self.stop = self.failure = None
        self.nan = np.full(size, np.nan)
        self.solver = ode(self._rhs).set_integrator(
            "dop853", rtol=rtol, atol=atol, nsteps=_NO_STEP_CAP, beta=_STEP_CONTROL_BETA
        )
        self.solver.set_solout(self._step)
        integrator = self.solver._integrator
        integrator._solout = integrator._solout

    def _rhs(self, t, y):
        # the compiled loop cannot see a Python exception and would keep
        # calling; NaN makes it give up at once with a step-size failure
        try:
            return self.fun(t, y)
        except BaseException as exc:
            self.failure = exc
            return self.nan

    def _step(self, _t, y):
        return -1 if self.stop is not None and self.stop(y) else 0


# one solver per (size, rtol, atol) in this process; see _Dop853
_SOLVERS: dict[tuple[int, float, float], _Dop853] = {}


def _dop853(fun, y0, t0: float, t_end: float, rtol: float, atol: float, stop=None):
    """State at the end of a DOP853 integration of ``fun`` from (t0, y0) to t_end.

    The endpoint integrator of ``settle``:
    Hairer's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec.
    II.10) as compiled in scipy, behind ``scipy.integrate.ode``, with no
    cap on the step count and stabilized step-size control.  Its
    Python-side cost per right-hand side is the callback alone, a
    fraction of ``solve_ivp``'s stepping.  ``stop(y)`` is tested at the
    end of each accepted step, and the integration ends at the first
    step where it is true, with the state there.  Return code -4 is the
    code's advisory stiffness test, not a failure, and the run resumes
    from where it was interrupted.  Any other failure raises
    ``IntegrationError`` with dop853's message in place of its warning;
    an exception in ``fun`` is re-raised.  Not re-entrant: ``fun`` and
    ``stop`` must not call it.
    """
    key = (len(y0), rtol, atol)
    run = _SOLVERS.get(key)
    if run is None:
        run = _SOLVERS[key] = _Dop853(*key)
    run.fun, run.stop = fun, stop
    solver = run.solver
    try:
        solver.set_initial_value(y0, t0)
        while True:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                y = solver.integrate(t_end)
            ours = []
            for w in caught:  # dop853's own become the error; others pass on
                if str(w.message).startswith("dop853"):
                    ours.append(str(w.message))
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if run.failure is not None:
                raise run.failure
            code = solver.get_return_code()
            if code == -4:
                solver.set_initial_value(y, solver.t)
            elif code < 0:
                message = "; ".join(ours) or f"dop853: return code {code}"
                raise IntegrationError(f"{message} at t = {solver.t:.6g}")
            else:
                return y
    finally:
        run.fun = run.stop = run.failure = None


def integrate_trajectory(
    initial,
    params: ModelParams,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Adaptive integration of the Bloch equations from ``initial``.

    Uses ``solve_ivp``'s DOP853, an 8th-order explicit Runge-Kutta
    scheme, for its dense output, which the compiled code behind
    :func:`_dop853` does not expose.  With the default tolerances the
    unit-sphere norm drifts by less than 1e-8 over t <= 100/Gamma for
    on-sphere initial data.  Output is sampled on a uniform grid, 100
    points per time unit clipped to [2000, 50000], so downstream peak
    detection sees a regular sampling.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not 0.0 < rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must be in (0, 1e-3], got {rel_tol}")
    if not 0.0 < abs_tol <= 1e-3:
        raise ValueError(f"abs_tol must be in (0, 1e-3], got {abs_tol}")
    n_eval = int(min(50_000, max(2_000, 100 * t_end)))
    initial = np.asarray(initial, dtype=float)
    sol = solve_ivp(
        _ode_rhs(params),
        (0.0, float(t_end)),
        initial,
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=np.linspace(0.0, float(t_end), n_eval),
    )
    if not sol.success:
        raise IntegrationError(f"Bloch integration failed: {sol.message}")
    return Trajectory(times=sol.t, states=sol.y.T.copy(), params=params)


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The half-sphere directions of :func:`_quadratic_bound` and their covering radius.

    The directions are the centres of an n x n grid of squares on each of
    the faces x = 1, y = 1 and z = 1 of the cube [-1, 1]^3, projected
    onto the unit sphere.  Every unit vector or its antipode is the
    projection of a point of one of these faces, and that point lies
    within sqrt(2)/n of a centre.  Outside the unit ball x -> x/|x| is
    the nearest-point map onto it, which is 1-Lipschitz, so every unit
    vector or its antipode lies within the chordal distance r = sqrt(2)/n
    of a direction.

    Returns (directions, quadratic monomials, cubic monomials, sum2, sum3,
    r): the monomials v_a v_b (a <= b) and v_a v_b v_c (a <= b <= c) of
    each direction, and the 0/1 matrices that sum a flattened 3 x 3 or
    3 x 3 x 3 tensor onto them, so that the form sum A_abc v_a v_b v_c
    over all directions is cubic @ (A.ravel() @ sum3).  Built on first
    use: n = 16 gives 768 directions, 120 kB.
    """
    n = _DIRECTION_GRID_N
    centres = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    a, b = (c.ravel() for c in np.meshgrid(centres, centres, indexing="ij"))
    one = np.ones_like(a)
    dirs = np.concatenate([np.column_stack(face) for face in ((one, a, b), (a, one, b), (a, b, one))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    out = []
    for degree in (2, 3):
        monomials = list(itertools.combinations_with_replacement(range(3), degree))
        columns = np.column_stack([np.prod(dirs[:, list(m)], axis=1) for m in monomials])
        summing = np.zeros((3 ** degree, len(monomials)))
        for flat, index in enumerate(itertools.product(range(3), repeat=degree)):
            summing[flat, monomials.index(tuple(sorted(index)))] = 1.0
        out.append((columns, summing))
    (quadratic, sum2), (cubic, sum3) = out
    return dirs, quadratic, cubic, sum2, sum3, math.sqrt(2.0) / n


def _quadratic_bound(lyap: np.ndarray, hess: np.ndarray) -> float:
    """Certified upper bound of Psi = max over unit u of u^T P q(u) / sqrt(u^T P u).

    q(u) = (u^T H_i u / 2)_i over the Hessians H_i of the flow's three
    components, and P = ``lyap`` is positive definite.  N(u) = u^T P q(u)
    is the cubic form T(u, u, u) of the symmetrized tensor of
    K_abc = (P H_(.)bc / 2)_a, and D(u) = sqrt(u^T P u) is a norm, so
    convex.  N is odd and D even, so Psi is the largest |N| / D, and the
    directions v of :func:`_direction_grid` with their antipodes come
    within r of every unit vector.  For a unit u = v + d, |d| <= r:

        N(u) = N(v) + grad N(v).d + 3 T(v, d, d) + T(d, d, d)   (N is cubic)
        D(u) >= D(v) + grad D(v).d                              (D is convex)
        v.d = -|d|^2 / 2                                        (|u| = |v| = 1)

    with grad N(v).v = 3 N(v) and grad D(v).v = D(v).  So for s = +-1,
    psi0 the largest |N| / D on the grid and any Psi_hat >= psi0,

        s N(u) - Psi_hat D(u) <= A - (Psi_hat - psi0) S,
        A = s N - psi0 D + |a_perp| r + |3 s N - psi0 D| r^2 / 2
            + 3 |T(v, ., .)|_F r^2 + |T|_F r^3,
        S = D - |grad_perp D| r - D r^2 / 2,

    all at v, with a = s grad N - psi0 grad D and _perp the part normal
    to v.  Where every S is positive, Psi_hat = psi0 + max(0, A / S)
    over the directions and both signs makes every right-hand side <= 0,
    so Psi <= Psi_hat, which is returned; elsewhere inf.  The remainder
    is second order in r and grows with cond P: the bound exceeds the
    largest |N| / D of 4e5 random directions by at most 6 % at the
    stable points of the benchmark's V = -1 slice (cond P <= 7), but
    8.4 times at the south pole of V = -5, g = 0, p = 0 (cond P = 400).
    """
    _dirs, quadratic, cubic, sum2, sum3, r = _direction_grid()
    half = 0.5 * (lyap @ hess.reshape(3, 9))
    k = half.reshape(3, 3, 3)
    sym = ((k + k.transpose(1, 0, 2) + k.transpose(1, 2, 0)) / 3.0).reshape(3, 9)
    gram = sym @ sym.T  # |T(v, ., .)|_F^2 = v^T gram v
    # per direction: grad N (grad N_j = 3 T(e_j, v, v)), |T(v, ., .)|_F^2,
    # D^2 and |P v|^2 as quadratic forms; N and grad N . P v as cubic ones
    quad = quadratic @ (np.vstack([3.0 * sym, gram.ravel(), lyap.ravel(), (lyap @ lyap).ravel()])
                        @ sum2).T
    cubic_forms = cubic @ (np.vstack([half.ravel(), 3.0 * (lyap @ sym).ravel()]) @ sum3).T
    grad_n, d2 = quad[:, :3], quad[:, 4]
    n, n_pv = cubic_forms[:, 0], cubic_forms[:, 1]
    d = np.sqrt(d2)
    psi0 = float(np.max(np.abs(n) / d))
    # |grad_perp N|^2, |grad_perp D|^2 and their dot product, grad D = P v / D
    nn = np.maximum(np.einsum("ni,ni->n", grad_n, grad_n) - 9.0 * n * n, 0.0)
    dd = np.maximum(quad[:, 5] / d2 - d2, 0.0)
    nd = n_pv / d - 3.0 * n * d
    slope = d - r * np.sqrt(dd) - (r * r / 2.0) * d
    if not (slope > 0.0).all():
        return math.inf
    pd = psi0 * d
    rest = (3.0 * r * r) * np.sqrt(np.maximum(quad[:, 3], 0.0)) + math.sqrt(np.trace(gram)) * r ** 3 - pd
    base, cross = nn + (psi0 * psi0) * dd, (2.0 * psi0) * nd
    worst = 0.0
    for sign in (1.0, -1.0):
        sn = sign * n
        a_perp = np.sqrt(np.maximum(base - sign * cross, 0.0))
        excess = sn + r * a_perp + (r * r / 2.0) * np.abs(3.0 * sn - pd) + rest
        worst = max(worst, float(np.max(excess / slope)))
    return psi0 + worst


def _capture_region(fp: FixedPoint, params: ModelParams) -> tuple[np.ndarray, float] | None:
    """Certified capture region {e^T P e < c}, e = s - x*, of a stable point x*.

    P solves J^T P + P J = -I with J the Jacobian at x*.  The flow is
    quadratic, so f(x* + e) = f(x*) + J e + q(e) exactly, with
    q(e) = (e^T H_i e / 2)_i over the constant Hessians H_i of the three
    components.  With V(e) = e^T P e and e = s u, |u| = 1,

        dV/dt = -s^2 + 2 s^3 u^T P q(u) + 2 s u^T P f(x*).

    Let Psi_bar >= Psi = max over unit u of u^T P q(u) / sqrt(u^T P u)
    (:func:`_quadratic_bound`) and c = theta^2 / (4 Psi_bar^2) with
    theta = ``_CAPTURE_THETA`` < 1, the quadratic-Lyapunov estimate of
    the region of attraction (Khalil, Nonlinear Systems, 3rd ed., 2002).
    Where V <= c, 2 s^3 u^T P q(u) <= 2 s^2 Psi_bar sqrt(V) <= theta s^2,
    so

        dV/dt <= -(1 - theta) s^2 + 2 s ||P|| |f(x*)|,

    negative once s > s0 = 2 ||P|| |f(x*)| / (1 - theta).  Each
    ellipsoid V <= c' with lambda_max(P) s0^2 <= c' <= c is entered and
    never left; being compact and convex, it holds a root x^ of the
    flow, so |x^ - x*| <= sqrt(cond P) s0.  About x^ the residual term
    vanishes and J moves by at most 2 C |x^ - x*| (C as below), which
    the margin 1 - theta absorbs as well: x^ attracts the small
    ellipsoids, so every trajectory in the region ends at x^.  On the
    boundary, where s >= sqrt(c / lambda_max(P)), the margin must exceed
    the residual's share 2 ||P|| |f(x*)| sqrt(lambda_max(P) / c).  The
    root's residual is at most ROOT_TOL, but at that bound the share
    would reach 118 at the weakly damped south pole of fig1_p0 just past
    g+ = 2.4937, where ||P|| = 2.7e4.  So it is taken from the root's
    own max-abs residual plus the rounding of f at x*, |f(x*)| <=
    sqrt(3) (residual + 8 eps (|V| + |g| + Gamma)); the share is then at
    most 0.009 on the shipped grids, and a region whose share reaches
    1 - theta = 0.1 is not returned.  The rest of the margin covers the
    rounding of the bound and of the tested states.

    Psi_bar is also capped at ||P|| C / sqrt(lambda_min(P)), with
    C = sqrt(sum_i ||H_i||^2) / 2 >= |q(u)|, the norm bound the level was
    once built from: c = lambda_min(P) rho^2 / 2 with rho = 1 / (2 ||P|| C).
    At the cap c is 2 theta^2 > 1 times that level, so c never falls
    below it.  Returns (P, c), or None where P is not numerically
    positive definite or the margin does not cover the residual.
    """
    # J is affine in the state: its change along each unit vector gives
    # the Hessians, hess[i][j, k] = d^2 f_i / dx_j dx_k
    jacs = _jacobian_many(np.vstack([fp.state, np.zeros(3), np.eye(3)]), params)
    jac_t, eye = jacs[0].T, np.eye(3)
    # J^T P + P J = -I as a 9x9 system in the row-major vec(P), the sum of
    # the Kronecker products J^T x I and I x J^T; scipy's
    # solve_continuous_lyapunov would add 1.4 MB to the peak memory
    kron_sum = (jac_t[:, None, :, None] * eye[None, :, None, :]
                + eye[:, None, :, None] * jac_t[None, :, None, :])
    lyap = np.linalg.solve(kron_sum.reshape(9, 9), -eye.ravel()).reshape(3, 3)
    lyap = 0.5 * (lyap + lyap.T)
    eigs = np.linalg.eigvalsh(lyap)
    if not (np.isfinite(eigs).all() and eigs[0] > 0.0):
        return None
    hess = np.transpose(jacs[2:] - jacs[1], (1, 2, 0))
    # the Hessians are symmetric: their 2-norms are their largest |eigenvalue|
    c_quad = 0.5 * math.sqrt(float((np.abs(np.linalg.eigvalsh(hess)).max(axis=1) ** 2).sum()))
    psi = min(_quadratic_bound(lyap, hess), eigs[-1] * c_quad / math.sqrt(eigs[0]))
    level = (_CAPTURE_THETA / (2.0 * psi)) ** 2
    rounding = 8.0 * np.finfo(float).eps * (abs(params.V) + abs(params.g) + params.Gamma)
    residual = math.sqrt(3.0) * (fp.residual + rounding)
    if 2.0 * eigs[-1] * residual * math.sqrt(eigs[-1] / level) >= 1.0 - _CAPTURE_THETA:
        return None
    return lyap, level


class _Capture(tuple):
    """The capture regions of :func:`settle`, built by :func:`_capture`.

    One entry per region: (point, X*, Y*, Z*, P00, P11, P22, 2 P01,
    2 P02, 2 P12, level), all but the point as Python floats, so that
    the test at each step runs on floats.
    """


def _capture(points, params: ModelParams) -> _Capture:
    """The capture regions of the stable ``points`` of ``params``, for :func:`settle`."""
    regions = []
    for fp in points:
        region = _capture_region(fp, params)
        if region is not None:
            (p00, p01, p02), (_, p11, p12), (_, _, p22) = region[0].tolist()
            regions.append((fp, *fp.state.tolist(), p00, p11, p22,
                            2.0 * p01, 2.0 * p02, 2.0 * p12, region[1]))
    return _Capture(regions)


def settle(
    initial,
    params: ModelParams,
    settle_time: float,
    capture=(),
) -> np.ndarray:
    """Endpoint of an integration over ``settle_time`` (no trajectory kept).

    One run of :func:`_dop853` at rtol 1e-12 and atol 1e-14.

    ``capture`` lists stable fixed points of ``params``.  If the
    trajectory starts in or enters the certified capture region of one
    of them (see :func:`_capture_region`), the integration stops there
    and that point's ``state`` is returned as the endpoint: the flow
    provably ends at it.  The region is invariant, so the test at the
    end of each accepted step finds the entry; it evaluates each region's
    quadratic form on Python floats.  Trajectories that enter no region
    give the same endpoint as without ``capture``.  A caller that settles
    in several windows passes the regions built once by :func:`_capture`
    instead of the points.
    """
    if settle_time <= 0.0:
        raise ValueError(f"settle_time must be positive, got {settle_time}")
    initial = np.asarray(initial, dtype=float)
    regions = capture if isinstance(capture, _Capture) else _capture(capture, params)
    captured = []

    def entered(state) -> bool:
        x, y, z = state.tolist()
        for fp, x0, y0, z0, p00, p11, p22, p01, p02, p12, level in regions:
            ex, ey, ez = x - x0, y - y0, z - z0
            if ex * (p00 * ex + p01 * ey + p02 * ez) + ey * (p11 * ey + p12 * ez) + p22 * ez * ez < level:
                captured.append(fp)
                return True
        return False

    if entered(initial):
        return captured[0].state.copy()
    end = _dop853(
        _ode_rhs(params), initial, 0.0, float(settle_time), _SETTLE_RTOL, _SETTLE_ATOL,
        stop=entered if regions else None,
    )
    return captured[0].state.copy() if captured else end


def detect_limit_cycle(
    traj: Trajectory, transient_fraction: float = 0.5
) -> LimitCycle | None:
    """Detect a periodic steady state from the Z(t) maxima spacing.

    The first ``transient_fraction`` of the trajectory is discarded.
    Returns None when Z has converged (total variation in the window
    below 1e-6, or no oscillation at all) and a LimitCycle when the
    successive-maxima spacings are regular (coefficient of variation
    below 1%) with stationary peak heights.  Irregular oscillation
    also returns None.

    Raises
    ------
    InsufficientDataError
        If the post-transient window holds fewer than five full
        oscillations (or too few samples to tell).
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must be in [0, 1), got {transient_fraction}")
    times, z = traj.times, traj.states[:, 2]
    t_cut = times[0] + transient_fraction * (times[-1] - times[0])
    start = int(np.searchsorted(times, t_cut))
    t_win, z_win = times[start:], z[start:]
    if t_win.size < 16:
        raise InsufficientDataError(
            f"post-transient window has only {t_win.size} samples"
        )
    if np.abs(np.diff(z_win)).sum() < 1e-6:
        return None

    interior = np.flatnonzero((z_win[1:-1] > z_win[:-2]) & (z_win[1:-1] >= z_win[2:])) + 1
    if interior.size == 0:
        # no maxima: either a monotone relaxation that has essentially
        # stopped, or a window shorter than one oscillation
        dt = t_win[1] - t_win[0]
        if abs(z_win[-1] - z_win[-2]) / dt < 1e-6:
            return None
        raise InsufficientDataError("window holds no complete oscillation")
    if interior.size < 6:
        raise InsufficientDataError(
            f"only {interior.size} Z maxima in the window; need >= 6 for a period"
        )

    # Quadratic refinement of each peak position/height (uniform sampling).
    peak_t = np.empty(interior.size)
    peak_h = np.empty(interior.size)
    dt = t_win[1] - t_win[0]
    for k, i in enumerate(interior):
        a, b, c = z_win[i - 1], z_win[i], z_win[i + 1]
        denom = a - 2.0 * b + c
        shift = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
        peak_t[k] = t_win[i] + shift * dt
        peak_h[k] = b - 0.25 * (a - c) * shift

    spacing = np.diff(peak_t)
    mean_spacing = spacing.mean()
    if mean_spacing <= 0.0:
        return None
    cv = spacing.std() / mean_spacing
    amplitude = float(z_win.max() - z_win.min())
    heights_stationary = (peak_h.max() - peak_h.min()) <= 0.01 * amplitude
    if cv < 0.01 and heights_stationary:
        return LimitCycle(period=float(mean_spacing), z_amplitude=amplitude)
    return None


_SWEEPABLE = ("V", "g", "p", "Gamma")


def continuation_sweep(
    params_path: list[ModelParams],
    initial,
    settle_time: float = 200.0,
) -> list[ContinuationPoint]:
    """Follow a steady-state branch along a parameter path.

    At each station the flow is settled (see :func:`settle`) for
    ``settle_time`` starting from the previous converged state (the
    first station starts from ``initial``); the endpoint is recorded together with a convergence
    flag (max-abs residual below ``CONVERGED_TOL``).  Consecutive path entries must
    differ in exactly one of V, g, p, Gamma.
    """
    if not params_path:
        raise ValueError("params_path must not be empty")
    for a, b in zip(params_path, params_path[1:]):
        changed = [n for n in _SWEEPABLE if getattr(a, n) != getattr(b, n)]
        if len(changed) != 1:
            raise ValueError(
                f"consecutive path entries must differ in exactly one of "
                f"{_SWEEPABLE}, got changes in {changed or 'nothing'}"
            )
    state = np.asarray(initial, dtype=float)
    branch: list[ContinuationPoint] = []
    for params in params_path:
        state = settle(state, params, settle_time)
        residual = float(np.abs(bloch_rhs(state, params)).max())
        branch.append(
            ContinuationPoint(
                params=params,
                state=state.copy(),
                converged=residual < CONVERGED_TOL,
                residual=residual,
            )
        )
    return branch
