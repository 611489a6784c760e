"""The Bloch model's formulas as the package wrote them out before it
read every coefficient from ``meanfield._coefficients``, kept as
bit-exact test oracles.

Each function states the flow, its Jacobian or a closed form directly in
(V, g, p, Gamma), with the damping Gamma/8 written into it, and performs
the same IEEE operations in the same order as the package did.
``rhs_many`` and ``jacobian_many`` take stacked states under
``ModelParams`` or ``_ParamRows``; ``candidates`` is the candidate
generator of ``find_fixed_points_many`` built from ``analytic_p0``,
``p1_candidates`` and ``undriven_candidates`` (the generic cells still
come from the package's eliminated Z polynomial, which
``numpy.polynomial`` pins separately); ``seed_orbit`` cuts the unit
circle at the angles of ``tangency_angles`` and returns the separatrix
point as (cos phi, sin phi, 0) at those angles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from dissipative_ising.meanfield import (
    _SEPARATRIX_TOL,
    SeedOrbit,
    _eliminated_candidates,
    _orbit_phase,
)


def rhs_many(states, params) -> np.ndarray:
    """The written-out Bloch right-hand side for a stack of states, (n, 3)."""
    v, g, p, gam = params.V, params.g, params.p, params.Gamma
    half_v, q, c = v / 2.0, 1.0 - p, gam / 8.0
    a, b, pg, q_half_v = -p * half_v, q * g, p * g, q * half_v
    x, y, z = states[..., 0], states[..., 1], states[..., 2]
    hxz = half_v * x * z
    return np.stack([
        a * y * z - b * y + c * x * z,
        p * (hxz - g * z) + q * (g * x - hxz) + c * y * z,
        pg * y + q_half_v * x * y - c * (1.0 - z * z),
    ], axis=-1)


def jacobian_many(states, params) -> np.ndarray:
    """The written-out analytic Jacobian for a stack of states, (n, 3, 3)."""
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


def analytic_p1(params):
    """(32 g V / D, 8 g Gamma / D, -sqrt(1 - 64 g^2 / D)), D = 16 V^2 + Gamma^2, or None."""
    if params.p != 1.0:
        raise ValueError(f"closed form requires p=1, got p={params.p}")
    v, g, gam = params.V, params.g, params.Gamma
    d = 16.0 * v * v + gam * gam
    radicand = 1.0 - 64.0 * g * g / d
    if radicand < 0.0:
        return None
    return np.array([32.0 * g * v / d, 8.0 * g * gam / d, -math.sqrt(radicand)])


def analytic_p0(params):
    """(eta, Gamma eta xi, 8 g xi) with Gamma^2 xi^2 - 4 V xi + 1 = 0, then the poles."""
    if params.p != 0.0:
        raise ValueError(f"closed form requires p=0, got p={params.p}")
    v, g, gam = params.V, params.g, params.Gamma
    out = []
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


def p1_candidates(params):
    """The +/-Z pair of ``analytic_p1``, then (+/-X, Gamma/(8g), 0) on the sphere."""
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


def undriven_candidates(params):
    """The poles, then the equator points with (1-p)(V/2) X Y = Gamma/8, at g = 0."""
    v, p, gam = params.V, params.p, params.Gamma
    out = [np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])]
    if v != 0.0:
        xy = gam / (4.0 * (1.0 - p) * v)
        if abs(xy) <= 0.5:
            s, t = math.sqrt(1.0 + 2.0 * xy), math.sqrt(1.0 - 2.0 * xy)
            for a, b in ((s, t), (s, -t), (-s, t), (-s, -t)):
                out.append(np.array([(a + b) / 2.0, (a - b) / 2.0, 0.0]))
    return out


def candidates(params_seq, rows):
    """Candidates (m, 3) and their cells (m,), grouped by cell in cell order."""
    cells, parts, generic = [np.empty(0, dtype=int)], [np.empty((0, 3))], []
    for k, params in enumerate(params_seq):
        if params.p == 0.0:
            cands = [s for s, _label in analytic_p0(params)]
        elif params.p == 1.0:
            cands = p1_candidates(params)
        elif params.g == 0.0:
            cands = undriven_candidates(params)
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


def analytic_boundaries(v_values, gamma=1.0):
    """gc_p1 = sqrt(16 V^2 + Gamma^2)/8 and g(+/-) = Gamma^2 / (8 (2V +/- sqrt(4V^2 - Gamma^2)))."""
    if gamma <= 0.0:
        raise ValueError(f"Gamma must be positive, got {gamma}")
    rows = []
    for v in np.asarray(v_values, dtype=float):
        gc_p1 = math.sqrt(16.0 * v * v + gamma * gamma) / 8.0
        if v <= -0.5 * gamma:
            root = math.sqrt(4.0 * v * v - gamma * gamma)
            gplus = gamma * gamma / (8.0 * (2.0 * v + root))
            gminus = gamma * gamma / (8.0 * (2.0 * v - root))
        else:
            gplus = gminus = math.nan
        rows.append({"V": float(v), "gc_p1": gc_p1, "gplus_c": abs(gplus), "gminus_c": abs(gminus),
                     "gplus_c_signed": gplus, "gminus_c_signed": gminus})
    return rows


def planar_flow(params):
    """(a, beta, gamma, centre) at p = 1 or g = 0 (p > 0), else None."""
    v, g, p = params.V, params.g, params.p
    a = params.Gamma / 8.0
    beta, gamma = p * v / 2.0, (2.0 * p - 1.0) * v / 2.0
    if p == 1.0:
        d = a * a + beta * beta
        centre = (g * beta / d, g * a / d)
    elif g == 0.0 and p > 0.0:
        centre = (0.0, 0.0)
    else:
        return None
    return a, beta, gamma, centre


def tangency_angles(params, a, beta, gamma):
    """Angles phi of the equator roots (cos phi, sin phi, 0) at p = 1 or g = 0."""
    if params.p == 1.0:
        if params.g == 0.0 or abs(a / params.g) > 1.0:
            return []
        t = math.asin(a / params.g)
        return [t, math.pi - t]
    if gamma == beta or abs(2.0 * a / (gamma - beta)) > 1.0:
        return []
    t = 0.5 * math.asin(-2.0 * a / (gamma - beta))
    return [t, 0.5 * math.pi - t, t + math.pi, 1.5 * math.pi - t]


def seed_orbit(state, params):
    """``meanfield.seed_orbit`` cutting the circle at ``tangency_angles``."""
    state = np.asarray(state, dtype=float)
    flow = planar_flow(params)
    if flow is None or not state[2] < 0.0:
        return None
    phase = _orbit_phase((*flow, None), state[:2])
    if phase is None:
        return None
    theta, s_of, targets, splits, same_sign, backward_to_centre = phase
    tangent = tangency_angles(params, *flow[:3])
    cuts = sorted([(t % (2.0 * math.pi), True) for t in tangent]
                  + [(t % (2.0 * math.pi), False) for t in splits]) or [(0.0, False)]
    arcs = [(lo, hi, at_root) for (lo, at_root), (hi, _) in
            zip(cuts, cuts[1:] + [(cuts[0][0] + 2.0 * math.pi, cuts[0][1])])]
    crossings = []
    for lo, hi, at_root in arcs:
        if not same_sign(0.5 * (lo + hi)):
            continue
        t_lo, t_hi = theta(lo), theta(hi)
        for target in targets(min(t_lo, t_hi) - 1.0, max(t_lo, t_hi) + 1.0):
            tol = _SEPARATRIX_TOL * max(1.0, abs(target))
            if abs(t_lo - target) <= tol:
                crossings.append((s_of(lo), lo, at_root))
            elif abs(t_hi - target) > tol and (t_lo - target) * (t_hi - target) < 0.0:
                phi = brentq(lambda x, t=target: math.atan(theta(x) - t), lo, hi, xtol=1e-14)
                crossings.append((s_of(phi), phi, False))
    backward = max((c for c in crossings if c[0] < 0.0), default=None)
    forward = min((c for c in crossings if c[0] > 0.0), default=None)
    if forward is None:
        return None
    if backward is None:
        xc, yc = flow[3]
        if not backward_to_centre or xc * xc + yc * yc >= 1.0:
            return None
        return SeedOrbit("centre", np.array([xc, yc, -math.sqrt(1.0 - xc * xc - yc * yc)]))
    for _s, phi, at_root in (backward, forward):
        if at_root:
            return SeedOrbit("separatrix", np.array([math.cos(phi), math.sin(phi), 0.0]))
    return SeedOrbit("closed", np.array([math.cos(backward[1]), math.sin(backward[1]), 0.0]))
