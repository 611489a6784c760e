"""Multi-start damped-Newton fixed-point search, kept as a test oracle.

This is an independent route to the roots of the Bloch flow: random
starting points on the unit sphere and a damped Newton iteration on the
raw 3-component residual.  It can find roots but never prove that none
were missed, so the library enumerates roots exactly by elimination
(``meanfield.find_fixed_points``) and the tests compare the two.

``eigvals_classify`` is the oracle's own stability classification: the
Jacobian spectrum from a stacked general-purpose ``eigvals``, where the
library uses the closed form on the invariant sphere.  It also holds off
the sphere, where the Newton search keeps roots the library does not
list.
"""

from __future__ import annotations

import numpy as np

from dissipative_ising.meanfield import (
    DEDUP_TOL,
    ROOT_TOL,
    STABILITY_TOL,
    FixedPoint,
    ModelParams,
    _jacobian_many,
    _rhs_many,
)


def eigvals_classify(states: np.ndarray, params, residuals) -> list[FixedPoint]:
    """Linear stability of a stack of roots from the Jacobian spectrum.

    ``params`` is a ``ModelParams`` or the ``meanfield._ParamRows`` of
    the rows.  The eigenvalues are sorted by descending real part, then
    ascending imaginary part.  A stacked ``eigvals`` returns complex
    values for every row once any row's spectrum is complex, so each
    row's eigenvalues are cast back to real where its own spectrum is
    real, as a call on that row alone returns them.
    """
    eigs = np.linalg.eigvals(_jacobian_many(states, params))
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


def newton_fixed_points(
    params: ModelParams,
    n_seeds: int = 300,
    rng_seed=0,
    max_iter: int = 80,
    root_tol: float = ROOT_TOL,
    dedup_tol: float = DEDUP_TOL,
) -> list[FixedPoint]:
    """Multi-start damped-Newton search for the fixed points of the flow.

    Seeds are drawn uniformly on the unit sphere from a generator
    seeded with ``rng_seed``; the Newton iteration runs on the raw
    3-component residual with backtracking damping and a pseudo-inverse
    step, so it tolerates the singular Jacobians that occur on marginal
    manifolds.  Converged roots (max-abs residual below ``root_tol``)
    are deduplicated at distance ``dedup_tol`` in seed order and
    classified by ``eigvals_classify``.  Roots off the unit sphere are
    kept.

    Returns stable points first, then the rest, each group ordered by
    (Z, X, Y).
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    rng = np.random.default_rng(rng_seed)
    seeds = rng.normal(size=(n_seeds, 3))
    seeds /= np.maximum(np.linalg.norm(seeds, axis=1, keepdims=True), 1e-300)

    states = seeds.copy()
    resid_vec = _rhs_many(states, params)
    res = np.abs(resid_vec).max(axis=1)
    alive = np.ones(n_seeds, dtype=bool)

    for _ in range(max_iter):
        active = alive & (res > root_tol)
        if not active.any():
            break
        idx = np.flatnonzero(active)
        s = states[idx]
        f = resid_vec[idx]
        jac = _jacobian_many(s, params)
        step = -np.einsum("nij,nj->ni", np.linalg.pinv(jac, rcond=1e-10), f)
        # Clamp runaway steps (pinv can still be large near rank changes).
        norms = np.linalg.norm(step, axis=1)
        too_big = norms > 2.0
        if too_big.any():
            step[too_big] *= (2.0 / norms[too_big])[:, None]

        base = np.abs(f).max(axis=1)
        lam = np.ones(len(idx))
        accepted = np.zeros(len(idx), dtype=bool)
        for _bt in range(14):
            todo = np.flatnonzero(~accepted)
            if todo.size == 0:
                break
            trial = s[todo] + lam[todo, None] * step[todo]
            f_trial = _rhs_many(trial, params)
            r_trial = np.abs(f_trial).max(axis=1)
            ok = r_trial <= (1.0 - 1e-4 * lam[todo]) * base[todo]
            hit = todo[ok]
            states[idx[hit]] = trial[ok]
            resid_vec[idx[hit]] = f_trial[ok]
            res[idx[hit]] = r_trial[ok]
            accepted[hit] = True
            lam[todo[~ok]] *= 0.5
        # Seeds whose line search failed outright are abandoned.
        alive[idx[~accepted]] = False
        # Seeds that wandered far off the sphere chase irrelevant roots.
        far = np.linalg.norm(states[idx], axis=1) > 10.0
        alive[idx[far]] = False

    conv = np.flatnonzero((res <= root_tol) & np.isfinite(res))
    unique: list[tuple[np.ndarray, float]] = []
    for i in conv:
        st, r = states[i], res[i]
        for k, (u_state, u_res) in enumerate(unique):
            if np.linalg.norm(st - u_state) < dedup_tol:
                if r < u_res:
                    unique[k] = (st, r)
                break
        else:
            unique.append((st, r))

    points = eigvals_classify(np.array([st for st, _ in unique]).reshape(-1, 3), params,
                              [r for _, r in unique])
    points.sort(key=lambda fp: (not fp.stable, fp.state[2], fp.state[0], fp.state[1]))
    return points
