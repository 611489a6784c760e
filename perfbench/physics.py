"""Reference physics written apart from the program under test.

Nothing here imports ``dissipative_ising``.  The mean-field part
enumerates every fixed point of the Bloch flow without a Newton search:
closed forms at p = 0 and p = 1, and for 0 < p < 1 the reduced
polynomial in Z obtained by solving dX/dt = dY/dt = 0 (linear in X, Y
at fixed Z) and substituting into dZ/dt = 0.  The quantum part builds
the Liouvillian by applying the master equation to every matrix unit
|a><b| and takes dense spectra, a dense null-space solve and an
exponential-propagator evolution.

Model (rates in units of Gamma):

    H = (1-p) [ (V/2N) Jx^2 + g Jz ] + p [ (V/2N) Jz^2 + g Jx ]
    drho/dt = -i [H, rho] + (Gamma/2N) (2 J- rho J+ - {J+ J-, rho})

with mean-field limit, for (X, Y, Z) = <J>/(N/2),

    dX/dt = -p (V/2) Y Z - (1-p) g Y + (Gamma/8) X Z
    dY/dt = p ((V/2) X Z - g Z) + (1-p) (g X - (V/2) X Z) + (Gamma/8) Y Z
    dZ/dt = p g Y + (1-p) (V/2) X Y - (Gamma/8) (1 - Z^2)
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

# A fixed point is stable when every Jacobian eigenvalue has real part
# below -STABLE_MARGIN (the program's definition of "stable").
STABLE_MARGIN = 1e-9


# ----------------------------------------------------------------------
# Mean field
# ----------------------------------------------------------------------

def bloch_rhs(s, V, g, p, gamma=1.0) -> np.ndarray:
    x, y, z = s
    a = gamma / 8.0
    return np.array([
        -p * (V / 2) * y * z - (1 - p) * g * y + a * x * z,
        p * ((V / 2) * x * z - g * z) + (1 - p) * (g * x - (V / 2) * x * z) + a * y * z,
        p * g * y + (1 - p) * (V / 2) * x * y - a * (1 - z * z),
    ])


def bloch_jacobian(s, V, g, p, gamma=1.0) -> np.ndarray:
    """Analytic derivative of :func:`bloch_rhs`."""
    x, y, z = s
    a = gamma / 8.0
    return np.array([
        [a * z, -p * V * z / 2 - (1 - p) * g, -p * V * y / 2 + a * x],
        [(2 * p - 1) * V * z / 2 + (1 - p) * g, a * z,
         (2 * p - 1) * V * x / 2 - p * g + a * y],
        [(1 - p) * V * y / 2, p * g + (1 - p) * V * x / 2, 2 * a * z],
    ])


def fd_jacobian(s, V, g, p, gamma=1.0, h=1e-5) -> np.ndarray:
    """Central finite-difference Jacobian of :func:`bloch_rhs`."""
    s = np.asarray(s, dtype=float)
    cols = []
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        cols.append((bloch_rhs(s + e, V, g, p, gamma) - bloch_rhs(s - e, V, g, p, gamma)) / (2 * h))
    return np.array(cols).T


def _polish(s, V, g, p, gamma):
    """A few Newton steps on the full 3-vector system; None if it moves away."""
    t = s
    for _ in range(4):
        t = t - np.linalg.solve(bloch_jacobian(t, V, g, p, gamma), bloch_rhs(t, V, g, p, gamma))
    return t if np.linalg.norm(t - s) < 1e-6 else None


def _closed_form_candidates(V, g, p, gamma):
    if p == 1.0:
        # Z != 0 roots; the Z = 0 roots form a marginal line and are never stable
        d = 16 * V * V + gamma * gamma
        rad = 1 - 64 * g * g / d
        if rad < 0:
            return []
        return [np.array([32 * g * V / d, 8 * g * gamma / d, sz * math.sqrt(rad)]) for sz in (-1, 1)]
    # p == 0: poles, plus the family (eta, Gamma eta xi, 8 g xi) where
    # Gamma^2 xi^2 - 4 V xi + 1 = 0 and eta^2 = 1 - (64 g^2 + Gamma^2) xi / (4 V)
    out = [np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])]
    disc = 4 * V * V - gamma * gamma
    if V != 0 and disc >= 0:
        for xi in ((2 * V + math.sqrt(disc)) / gamma**2, (2 * V - math.sqrt(disc)) / gamma**2):
            eta2 = 1 - (64 * g * g + gamma * gamma) * xi / (4 * V)
            if eta2 >= 0:
                eta = math.sqrt(eta2)
                out += [np.array([e, gamma * e * xi, 8 * g * xi]) for e in (eta, -eta)]
    return out


def _polynomial_candidates(V, g, p, gamma):
    """Fixed points with det A(Z) != 0 from the degree-<=6 polynomial in Z.

    At fixed Z:  [a Z, c(Z); d(Z), a Z] [X, Y]^T = [0, p g Z]^T with
    c = -(p V/2) Z - (1-p) g and d = ((2p-1) V/2) Z + (1-p) g, so
    X = -c p g Z / det and Y = a p g Z^2 / det.  Clearing det^2 from
    dZ/dt = 0 leaves the polynomial below.
    """
    a = gamma / 8.0
    Z = Polynomial([0.0, 1.0])
    c = -(p * V / 2) * Z - (1 - p) * g
    d = ((2 * p - 1) * V / 2) * Z + (1 - p) * g
    det = (a * Z) ** 2 - c * d
    nx = -c * (p * g) * Z
    ny = (a * p * g) * Z**2
    poly = (p * g) * ny * det + ((1 - p) * V / 2) * nx * ny - a * (1 - Z**2) * det**2
    out = []
    for z in poly.roots():
        if abs(z.imag) > 1e-6 or abs(z.real) > 1 + 1e-6:
            continue
        z = z.real
        den = det(z)
        if abs(den) < 1e-12:
            continue
        out.append(np.array([nx(z) / den, ny(z) / den, z]))
    return out


def fixed_points(V, g, p, gamma=1.0) -> list[np.ndarray]:
    """Distinct fixed points on the unit sphere, a superset of the stable ones.

    For 0 < p < 1 this is every root with det A(Z) != 0; at p = 0 and
    p = 1 it is the closed-form families, which hold every stable root.
    """
    if p in (0.0, 1.0):
        cands = _closed_form_candidates(V, g, p, gamma)
    else:
        cands = [_polish(s, V, g, p, gamma) for s in _polynomial_candidates(V, g, p, gamma)]
    out = []
    for s in cands:
        if s is None:
            continue
        if np.abs(bloch_rhs(s, V, g, p, gamma)).max() > 1e-10:
            continue
        if abs(np.linalg.norm(s) - 1) > 1e-8:
            continue
        if all(np.linalg.norm(s - t) > 1e-6 for t in out):
            out.append(s)
    return out


def is_stable(jac) -> bool:
    return float(np.linalg.eigvals(jac).real.max()) < -STABLE_MARGIN


def stable_points(V, g, p, gamma=1.0) -> list[np.ndarray]:
    """Stable fixed points, ordered by Z."""
    pts = [s for s in fixed_points(V, g, p, gamma) if is_stable(bloch_jacobian(s, V, g, p, gamma))]
    return sorted(pts, key=lambda s: s[2])


# ----------------------------------------------------------------------
# Quantum
# ----------------------------------------------------------------------

def spin_matrices(n_spins: int):
    """(Jx, Jy, Jz, J-) on the j = N/2 ladder, basis m = j, j-1, ..., -j."""
    j = n_spins / 2.0
    m = j - np.arange(n_spins + 1)
    jm = np.zeros((n_spins + 1, n_spins + 1))
    for k in range(n_spins):
        jm[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] - 1))
    jp = jm.T
    return (jp + jm) / 2, (jp - jm) / 2j, np.diag(m), jm


def liouvillian(V, g, p, n_spins, gamma=1.0) -> np.ndarray:
    """Dense Liouvillian on row-major vec(rho), one matrix unit at a time.

    Column (a, b) holds the master equation applied to |a><b|:
    -i (H|a><b| - |a><b|H) + k (2 J-|a><b|J+ - J+J-|a><b| - |a><b|J+J-).
    """
    jx, _jy, jz, jm = spin_matrices(n_spins)
    n = n_spins + 1
    w = V / (2 * n_spins)
    ham = (1 - p) * (w * jx @ jx + g * jz) + p * (w * jz @ jz + g * jx)
    jp = jm.T
    kk = jp @ jm
    kappa = gamma / (2 * n_spins)
    lmat = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            out = 2 * kappa * np.outer(jm[:, a], jp[b, :]).astype(complex)
            out[:, b] += -1j * ham[:, a] - kappa * kk[:, a]
            out[a, :] += 1j * ham[b, :] - kappa * kk[b, :]
            lmat[:, a * n + b] = out.reshape(-1)
    return lmat


def steady_rho(lmat: np.ndarray) -> np.ndarray:
    """Null vector of L normalised to unit trace (first row -> trace)."""
    n = math.isqrt(lmat.shape[0])
    a = lmat.copy()
    a[0, :] = np.eye(n).reshape(-1)
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(a, rhs).reshape(n, n)
    return (rho + rho.conj().T) / 2


def magnetization(rho: np.ndarray) -> np.ndarray:
    n_spins = rho.shape[0] - 1
    return np.array([np.trace(op @ rho).real for op in spin_matrices(n_spins)[:3]]) / (n_spins / 2)


def gap(eigenvalues: np.ndarray, scale: float) -> float:
    """|Re| of the rightmost eigenvalue outside |lambda| < 1e-10 * scale."""
    nonzero = eigenvalues[np.abs(eigenvalues) >= 1e-10 * max(scale, 1.0)]
    return float(abs(nonzero.real.max()))
