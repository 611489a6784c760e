"""Mean-field Bloch dynamics of the driven-dissipative collective spin.

The normalized magnetization (X, Y, Z) = <J>/(N/2) obeys the closed
Bloch equations (all rates in the same units, Gamma is the collective
decay rate, p in [0, 1] mixes the two Hamiltonian orientations):

    dX/dt = -p (V/2) Y Z - (1-p) g Y + (Gamma/8) X Z
    dY/dt = p ((V/2) X Z - g Z) + (1-p) (g X - (V/2) X Z) + (Gamma/8) Y Z
    dZ/dt = p g Y + (1-p) (V/2) X Y - (Gamma/8) (1 - Z^2)

Total angular momentum conservation keeps on-sphere initial data on the
unit sphere: d(r^2)/dt = (Gamma/4) Z (r^2 - 1) vanishes at r = 1.

This module provides the right-hand side and its analytic Jacobian,
closed-form steady states for the two limiting orientations p = 1 and
p = 0, an exact enumeration of the fixed points on the sphere (closed
forms at p = 0 and p = 1, elimination of X and Y to a polynomial of
degree <= 6 in Z in between) with linear stability classification,
adaptive trajectory integration, settling that stops once a certified
capture region of a stable point is entered, limit-cycle detection,
and continuation sweeps along a parameter path.  The enumeration uses
no random numbers.

Bloch vectors are plain length-3 float arrays (X, Y, Z) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp

from .errors import InsufficientDataError, IntegrationError, NotAFixedPointError

__all__ = [
    "ModelParams",
    "FixedPoint",
    "Trajectory",
    "LimitCycle",
    "ContinuationPoint",
    "STABILITY_TOL",
    "ROOT_TOL",
    "bloch_rhs",
    "jacobian",
    "analytic_p1",
    "analytic_p0",
    "classify_stability",
    "find_fixed_points",
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
# A root counts as on the unit sphere when | |s| - 1 | is at most this.
_SPHERE_TOL = 1e-8
# Polynomial roots with |Im Z| and |Z| - 1 below this are real candidates;
# Newton polishing and the residual test decide which of them are roots.
_REAL_ROOT_TOL = 1e-6
# Newton steps that polish each candidate root.
_POLISH_STEPS = 3
# Integrator tolerances of settle and continuation_sweep.
_SETTLE_RTOL, _SETTLE_ATOL = 1e-12, 1e-14


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


def _flow(x, y, z, params: ModelParams):
    """The three Bloch components; x, y, z are floats or equal-shape arrays."""
    v, g, p, gam = params.V, params.g, params.p, params.Gamma
    fx = -p * (v / 2.0) * y * z - (1.0 - p) * g * y + (gam / 8.0) * x * z
    fy = (
        p * ((v / 2.0) * x * z - g * z)
        + (1.0 - p) * (g * x - (v / 2.0) * x * z)
        + (gam / 8.0) * y * z
    )
    fz = p * g * y + (1.0 - p) * (v / 2.0) * x * y - (gam / 8.0) * (1.0 - z * z)
    return fx, fy, fz


def _rhs_many(states: np.ndarray, params: ModelParams) -> np.ndarray:
    """Bloch right-hand side for a stack of states, shape (n, 3)."""
    return np.stack(_flow(states[..., 0], states[..., 1], states[..., 2], params), axis=-1)


def _ode_rhs(params: ModelParams):
    """Right-hand side ``f(t, y)`` for the integrators.

    It evaluates :func:`_flow` on Python floats, which is several times
    cheaper per call than :func:`_rhs_many` on a one-row stack and gives
    the same floats: both apply the same IEEE operations in the same
    order.
    """

    def rhs(_t, state):
        return _flow(*state.tolist(), params)

    return rhs


def bloch_rhs(state, params: ModelParams) -> np.ndarray:
    """Time derivative (dX, dY, dZ) of the Bloch vector at ``state``."""
    state = np.asarray(state, dtype=float)
    return _rhs_many(state[None, :], params)[0]


def _jacobian_many(states: np.ndarray, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian of the Bloch flow for a stack of states, (n, 3, 3)."""
    x, y, z = states[..., 0], states[..., 1], states[..., 2]
    v, g, p, gam = params.V, params.g, params.p, params.Gamma
    n = states.shape[0]
    jac = np.empty((n, 3, 3), dtype=float)
    jac[:, 0, 0] = gam * z / 8.0
    jac[:, 0, 1] = (p - 1.0) * g - (p / 2.0) * v * z
    jac[:, 0, 2] = -(p / 2.0) * v * y + gam * x / 8.0
    jac[:, 1, 0] = (2.0 * p - 1.0) / 2.0 * v * z + (1.0 - p) * g
    jac[:, 1, 1] = gam * z / 8.0
    jac[:, 1, 2] = (2.0 * p - 1.0) / 2.0 * v * x - p * g + gam * y / 8.0
    jac[:, 2, 0] = (1.0 - p) / 2.0 * v * y
    jac[:, 2, 1] = p * g + (1.0 - p) / 2.0 * v * x
    jac[:, 2, 2] = gam * z / 4.0
    return jac


def jacobian(state, params: ModelParams) -> np.ndarray:
    """3x3 Jacobian matrix of the Bloch flow at ``state``."""
    state = np.asarray(state, dtype=float)
    return _jacobian_many(state[None, :], params)[0]


def analytic_p1(params: ModelParams) -> np.ndarray | None:
    """Closed-form stable steady state for p = 1.

    Returns (32 g V / D, 8 g Gamma / D, -sqrt(1 - 64 g^2 / D)) with
    D = 16 V^2 + Gamma^2, or None where the radicand is negative (the
    region without stable fixed points).  The returned vector lies on
    the unit sphere identically: X^2 + Y^2 = 64 g^2 / D.
    """
    if params.p != 1.0:
        raise ValueError(f"closed form requires p=1, got p={params.p}")
    v, g, gam = params.V, params.g, params.Gamma
    d = 16.0 * v * v + gam * gam
    radicand = 1.0 - 64.0 * g * g / d
    if radicand < 0.0:
        return None
    return np.array([32.0 * g * v / d, 8.0 * g * gam / d, -math.sqrt(radicand)])


def analytic_p0(params: ModelParams) -> list[tuple[np.ndarray, str]]:
    """Closed-form steady-state candidates for p = 0, with branch labels.

    The nontrivial family is (X, Y, Z) = (eta, Gamma*eta*xi, 8*g*xi)
    where xi solves Gamma^2 xi^2 - 4 V xi + 1 = 0, i.e.
    xi(+/-) = (2V +/- sqrt(4V^2 - Gamma^2)) / Gamma^2, and
    eta = +/- sqrt(1 - (64 g^2 + Gamma^2) xi / (4V)).  Labels are two
    sign characters (xi branch, eta sign).  The polarized poles
    (0, 0, -1) and (0, 0, +1), which are always roots at p = 0, are
    appended with labels "pole-" and "pole+".

    Only branches with a real eta are returned; every returned vector
    lies on the unit sphere (the quadratic for xi enforces it).
    """
    if params.p != 0.0:
        raise ValueError(f"closed form requires p=0, got p={params.p}")
    v, g, gam = params.V, params.g, params.Gamma
    out: list[tuple[np.ndarray, str]] = []
    disc = 4.0 * v * v - gam * gam
    if disc >= 0.0 and v != 0.0:
        root = math.sqrt(disc)
        for s_xi, xi in (("+", (2.0 * v + root) / gam**2), ("-", (2.0 * v - root) / gam**2)):
            radicand = 1.0 - (64.0 * g * g + gam * gam) * xi / (4.0 * v)
            if radicand < 0.0:
                continue
            eta = math.sqrt(radicand)
            for s_eta, e in (("+", eta), ("-", -eta)):
                out.append((np.array([e, gam * e * xi, 8.0 * g * xi]), s_xi + s_eta))
    out.append((np.array([0.0, 0.0, -1.0]), "pole-"))
    out.append((np.array([0.0, 0.0, 1.0]), "pole+"))
    return out


def classify_stability(state, params: ModelParams, root_tol: float = 1e-8) -> FixedPoint:
    """Linear stability of a fixed point via the Jacobian spectrum.

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
    eigs = np.linalg.eigvals(jacobian(state, params))
    order = np.lexsort((eigs.imag, -eigs.real))
    eigs = eigs[order]
    max_re = float(eigs.real.max())
    stable = max_re < -STABILITY_TOL
    marginal = (not stable) and (max_re <= STABILITY_TOL)
    return FixedPoint(
        state=state.copy(),
        eigenvalues=eigs,
        stable=stable,
        marginal=marginal,
        residual=residual,
    )


def _p1_candidates(params: ModelParams) -> list[np.ndarray]:
    """Roots on the sphere at p = 1.

    For Z != 0 the closed form of :func:`analytic_p1` with either sign
    of Z.  At Z = 0 every (X, Gamma/(8g), 0) is a root (a marginal
    line); it meets the sphere in two points when |Gamma/(8g)| <= 1.
    """
    out = []
    lower = analytic_p1(params)
    if lower is not None:
        out += [lower, lower * np.array([1.0, 1.0, -1.0])]
    if params.g != 0.0:
        y = params.Gamma / (8.0 * params.g)
        if abs(y) <= 1.0:
            x = math.sqrt(1.0 - y * y)
            out += [np.array([x, y, 0.0]), np.array([-x, y, 0.0])]
    return out


def _eliminated_candidates(params: ModelParams) -> np.ndarray:
    """Roots for 0 < p < 1 and g != 0 from the eliminated Z polynomial.

    At fixed Z, dX/dt = dY/dt = 0 is linear in (X, Y):

        A(Z) (X, Y) = b = (0, p g Z),   A = [a Z, c(Z); d(Z), a Z],   a = Gamma/8,
        c = -(p V/2) Z - (1-p) g,   d = ((2p-1) V/2) Z + (1-p) g,

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
    """
    v, g, p, gam = params.V, params.g, params.p, params.Gamma
    a = gam / 8.0
    # coefficient arrays, lowest degree first
    c = np.array([-(1.0 - p) * g, -p * v / 2.0])
    d = np.array([(1.0 - p) * g, (2.0 * p - 1.0) * v / 2.0])
    det = P.polysub([0.0, 0.0, a * a], P.polymul(c, d))
    nx = P.polymul(c, [0.0, -p * g])
    ny = np.array([0.0, 0.0, a * p * g])
    poly = P.polyadd(
        P.polymul([0.0, 0.0, a * (p * g) ** 2], det),
        P.polymul(((1.0 - p) * v / 2.0) * nx, ny),
    )
    poly = P.polysub(poly, P.polymul(a * np.array([1.0, 0.0, -1.0]), P.polymul(det, det)))
    roots = P.polyroots(poly)
    real = (np.abs(roots.imag) <= _REAL_ROOT_TOL) & (np.abs(roots.real) <= 1.0 + _REAL_ROOT_TOL)
    z = roots.real[real]
    mats = np.empty((z.size, 2, 2))
    mats[:, 0, 0] = mats[:, 1, 1] = a * z
    mats[:, 0, 1] = P.polyval(z, c)
    mats[:, 1, 0] = P.polyval(z, d)
    u, s, vt = np.linalg.svd(mats)
    along_v1 = u[:, 1, 0] * (p * g) * z / s[:, 0]
    along_v2 = np.sqrt(np.maximum(1.0 - z * z - along_v1**2, 0.0))
    xy = along_v1[:, None] * vt[:, 0, :]
    return np.concatenate([
        np.column_stack([xy + sign * along_v2[:, None] * vt[:, 1, :], z])
        for sign in (1.0, -1.0)
    ])


def _undriven_candidates(params: ModelParams) -> list[np.ndarray]:
    """Roots on the sphere at g = 0 and 0 < p < 1.

    With g = 0 the system A(Z) (X, Y) = b of :func:`_eliminated_candidates`
    reads Z M (X, Y) = 0 for a fixed matrix M, so away from Z = 0 only
    the poles solve the flow.  At Z = 0, A vanishes and dZ/dt = 0 leaves
    (1-p)(V/2) X Y = Gamma/8, which meets the equator X^2 + Y^2 = 1
    where |X Y| <= 1/2.  (Where det M = 0 as well, whole circles of
    roots pass through the poles; they are not isolated and are not
    listed.)
    """
    v, p, gam = params.V, params.p, params.Gamma
    out = [np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])]
    if v != 0.0:
        xy = gam / (4.0 * (1.0 - p) * v)
        if abs(xy) <= 0.5:
            s, t = math.sqrt(1.0 + 2.0 * xy), math.sqrt(1.0 - 2.0 * xy)
            for a, b in ((s, t), (s, -t), (-s, t), (-s, -t)):
                out.append(np.array([(a + b) / 2.0, (a - b) / 2.0, 0.0]))
    return out


def _candidates(params: ModelParams) -> np.ndarray:
    """Approximate fixed points on the sphere, shape (n, 3), possibly repeated."""
    if params.p == 0.0:
        cands = [s for s, _label in analytic_p0(params)]
    elif params.p == 1.0:
        cands = _p1_candidates(params)
    elif params.g == 0.0:
        cands = _undriven_candidates(params)
    else:
        return _eliminated_candidates(params)
    return np.array(cands, dtype=float).reshape(-1, 3)


def _polish(states: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on the 3-vector system; the best iterate of each row.

    Returns the polished states and their max-abs residuals.  The
    pseudo-inverse tolerates the singular Jacobians of marginal roots.
    """
    current = states
    f = _rhs_many(current, params)
    best, best_res = states.copy(), np.abs(f).max(axis=1)
    for _ in range(_POLISH_STEPS):
        pinv = np.linalg.pinv(_jacobian_many(current, params), rcond=1e-10)
        current = current - np.einsum("nij,nj->ni", pinv, f)
        f = _rhs_many(current, params)
        res = np.abs(f).max(axis=1)
        better = res < best_res
        best[better] = current[better]
        best_res[better] = res[better]
    return best, best_res


def find_fixed_points(params: ModelParams, n_seeds: int = 200) -> list[FixedPoint]:
    """Every isolated fixed point of the flow on the unit sphere, classified.

    The enumeration is exact and deterministic.  For 0 < p < 1 and
    g != 0 the fixed points are the real roots in [-1, 1] of a
    polynomial of degree <= 6 in Z, obtained by solving dX/dt = dY/dt = 0
    for (X, Y) at fixed Z and eliminating them from dZ/dt = 0.  At
    p = 0 they are the closed-form candidates of :func:`analytic_p0`;
    at p = 1 the +/-Z pair of :func:`analytic_p1` plus the two points
    where the marginal line Z = 0, Y = Gamma/(8g) meets the sphere; at
    g = 0 the poles plus the equator points where (1-p)(V/2) X Y =
    Gamma/8.  Each candidate is polished by a few Newton steps and kept
    if its max-abs residual is at most ``ROOT_TOL`` and it lies on the
    unit sphere; candidates closer than ``DEDUP_TOL`` are merged.  Roots
    off the sphere (possible only at Z = 0, since d(r^2)/dt =
    (Gamma/4) Z (r^2 - 1)) and continua of roots are not listed.

    ``n_seeds`` is unused but still checked to be >= 1; it goes once
    the benchmark's tracing no longer reads it.

    Returns stable points first, then the rest, each group ordered by
    (Z, X, Y).  An empty list is a legal result (no roots on the sphere).
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    cands = _candidates(params)
    states, res = _polish(cands[np.isfinite(cands).all(axis=1)], params)
    on_sphere = np.abs(np.linalg.norm(states, axis=1) - 1.0) <= _SPHERE_TOL
    unique: list[tuple[np.ndarray, float]] = []
    for i in np.flatnonzero(on_sphere & (res <= ROOT_TOL)):
        st, r = states[i], res[i]
        for k, (u_state, u_res) in enumerate(unique):
            if np.linalg.norm(st - u_state) < DEDUP_TOL:
                if r < u_res:
                    unique[k] = (st, r)
                break
        else:
            unique.append((st, r))

    points = [classify_stability(st, params, root_tol=10 * ROOT_TOL) for st, _ in unique]
    points.sort(key=lambda fp: (not fp.stable, fp.state[2], fp.state[0], fp.state[1]))
    return points


def integrate_trajectory(
    initial,
    params: ModelParams,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Adaptive integration of the Bloch equations from ``initial``.

    Uses an 8th-order explicit Runge-Kutta scheme; with the default
    tolerances the unit-sphere norm drifts by less than 1e-8 over
    t <= 100/Gamma for on-sphere initial data.  Output is sampled on a
    uniform grid, 100 points per time unit clipped to [2000, 50000], so
    downstream peak detection sees a regular sampling.
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


def _capture_region(fp: FixedPoint, params: ModelParams) -> tuple[np.ndarray, float] | None:
    """Certified capture region {e^T P e < c}, e = s - x*, of a stable point x*.

    P solves J^T P + P J = -I with J the Jacobian at x*.  The flow is
    quadratic, so f(x* + e) = J e + q(e) exactly (up to the root's
    residual), with |q(e)| <= C |e|^2 and C = sqrt(sum_i ||H_i||^2) / 2
    over the constant Hessians H_i of the three components.  Then
    d(e^T P e)/dt <= -|e|^2 (1 - 2 ||P|| C |e|) < 0 for 0 < |e| < rho =
    1 / (2 ||P|| C), and the sublevel set with c = lambda_min(P) rho^2
    lies in that ball: it is invariant, and every trajectory in it ends
    at x* (the quadratic-Lyapunov estimate of the region of attraction;
    Khalil, Nonlinear Systems, 3rd ed., 2002).  c carries a safety
    factor of 1/2 for the root residual.  Returns (P, c), or None where
    P is not numerically positive definite.
    """
    jac_t, eye = jacobian(fp.state, params).T, np.eye(3)
    # J^T P + P J = -I as a 9x9 system in the row-major vec(P); scipy's
    # solve_continuous_lyapunov would add 1.4 MB to the peak memory
    lyap = np.linalg.solve(np.kron(jac_t, eye) + np.kron(eye, jac_t), -eye.ravel()).reshape(3, 3)
    lyap = 0.5 * (lyap + lyap.T)
    eigs = np.linalg.eigvalsh(lyap)
    if not (np.isfinite(eigs).all() and eigs[0] > 0.0):
        return None
    # J is affine in the state: its change along each unit vector gives
    # the Hessians, hess[i][j, k] = d^2 f_i / dx_j dx_k
    origin = _jacobian_many(np.zeros((1, 3)), params)
    hess = np.transpose(_jacobian_many(np.eye(3), params) - origin, (1, 2, 0))
    c_quad = 0.5 * math.sqrt(float((np.linalg.norm(hess, ord=2, axis=(1, 2)) ** 2).sum()))
    rho = 1.0 / (2.0 * eigs[-1] * c_quad)
    return lyap, 0.5 * eigs[0] * rho * rho


def _capture_event(fp: FixedPoint, params: ModelParams):
    """Terminal solve_ivp event on entering ``fp``'s capture region, or None."""
    region = _capture_region(fp, params)
    if region is None:
        return None
    lyap, level = region
    centre = fp.state

    def event(_t, state):
        e = state - centre
        return float(e @ lyap @ e) - level

    event.terminal = True
    event.direction = -1.0
    return event


def settle(
    initial,
    params: ModelParams,
    settle_time: float,
    capture=(),
) -> np.ndarray:
    """Endpoint of an integration over ``settle_time`` (no trajectory kept).

    The integration runs at rtol 1e-12 and atol 1e-14.

    ``capture`` lists stable fixed points of ``params``.  If the
    trajectory starts in or enters the certified capture region of one
    of them (see :func:`_capture_region`), the integration stops there
    and that point's ``state`` is returned as the endpoint: the flow
    provably ends at it.  Trajectories that enter no region give the
    same endpoint as without ``capture``.
    """
    if settle_time <= 0.0:
        raise ValueError(f"settle_time must be positive, got {settle_time}")
    initial = np.asarray(initial, dtype=float)
    targets, events = [], []
    for fp in capture:
        event = _capture_event(fp, params)
        if event is None:
            continue
        if event(0.0, initial) < 0.0:
            return fp.state.copy()
        targets.append(fp)
        events.append(event)
    sol = solve_ivp(
        _ode_rhs(params),
        (0.0, float(settle_time)),
        initial,
        method="DOP853",
        rtol=_SETTLE_RTOL,
        atol=_SETTLE_ATOL,
        t_eval=[float(settle_time)],
        events=events or None,
    )
    if not sol.success:
        raise IntegrationError(f"Bloch integration failed: {sol.message}")
    for fp, hits in zip(targets, sol.t_events or ()):
        if hits.size:
            return fp.state.copy()
    return sol.y[:, -1].copy()


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
    flag (max-abs residual below 1e-8).  Consecutive path entries must
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
                converged=residual < 1e-8,
                residual=residual,
            )
        )
    return branch
