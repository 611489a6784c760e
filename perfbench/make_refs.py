"""Compute the benchmark's reference values into refs.json.

    python3 perfbench/make_refs.py [SECTION ...]

Uses only ``physics.py`` (no import of the program) and runs in one
process with one BLAS thread.  The references cover the rows whose
check needs more than a closed form or a root enumeration:

* quantum_gap_scan: dense spectrum (gap) and dense null vector
  (magnetization) of the Liouvillian at every grid point;
* quantum_ramp: magnetization after every station of both sweeps,
  propagated with ``expm_multiply`` from the dense steady state at the
  first station;
* mf_phase_select: the branch reached from just off the south pole,
  by a Radau integration, or "cycle" where the trajectory keeps
  oscillating.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.sparse.linalg import expm_multiply  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import physics as ph  # noqa: E402
import workloads as wl  # noqa: E402

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# The program's documented branch-selection start: the south pole
# nudged by 1e-3 in X and Y, renormalised.
SOUTH_POLE_SEED = [1e-3, 1e-3, -math.sqrt(1.0 - 2e-6)]


def gap_refs() -> list[dict]:
    model = wl.WORKLOADS["quantum_gap_scan"]["model"]
    out = []
    for p, g in wl.grid_points("quantum_gap_scan"):
        lmat = ph.liouvillian(model["V"], g, p, model["N"])
        eigs = scipy.linalg.eigvals(lmat, overwrite_a=False, check_finite=False)
        m = ph.magnetization(ph.steady_rho(lmat))
        out.append({"p": p, "g": g, "gap": ph.gap(eigs, float(np.abs(lmat).max())), "m": m.tolist()})
        print(f"gap p={p:.3f} g={g:.3f}: {out[-1]['gap']:.10f}", flush=True)
    return out


def ramp_refs() -> dict:
    cfg = wl.WORKLOADS["quantum_ramp"]
    V, g, n = cfg["model"]["V"], cfg["model"]["g"], cfg["model"]["N"]
    window = cfg["hysteresis"]["window"]
    ps = wl.ramp_p_values()

    def sweep(p_values):
        rho = ph.steady_rho(ph.liouvillian(V, g, p_values[0], n))
        vec = rho.reshape(-1)
        mags = []
        for p in p_values:
            lmat = sp.csr_matrix(ph.liouvillian(V, g, p, n))
            vec = expm_multiply(window * lmat, vec)
            mags.append(ph.magnetization(vec.reshape(n + 1, n + 1)).tolist())
        return mags

    return {"up": sweep(ps), "down": sweep(ps[::-1])[::-1]}


def selection_refs() -> list[dict]:
    V = wl.WORKLOADS["mf_phase_select"]["model"]["V"]
    out = []
    for p, g in wl.grid_points("mf_phase_select"):
        stable = ph.stable_points(V, g, p)
        sol = solve_ivp(lambda _t, s: ph.bloch_rhs(s, V, g, p), (0.0, 900.0), SOUTH_POLE_SEED,
                        method="Radau", rtol=1e-10, atol=1e-12, dense_output=True)
        tail = sol.sol(np.linspace(800.0, 900.0, 2001))
        end = tail[:, -1]
        dists = [float(np.linalg.norm(end - s)) for s in stable]
        if dists and min(dists) < 1e-6:
            entry = {"p": p, "g": g, "selected_Z": float(stable[int(np.argmin(dists))][2]), "cycle": False}
        elif np.ptp(tail[2]) > 1e-2:
            entry = {"p": p, "g": g, "selected_Z": None, "cycle": True}
        else:
            raise SystemExit(f"selection at p={p}, g={g} is unresolved; change the grid")
        print(f"select p={p:.3f} g={g:.3f}: {entry}", flush=True)
        out.append(entry)
    return out


SECTIONS = {"mf_phase_select": selection_refs, "quantum_ramp": ramp_refs, "quantum_gap_scan": gap_refs}


def main(argv: list[str]) -> int:
    """Recompute the named sections (default: all) and keep the others."""
    t0 = time.perf_counter()
    names = argv or list(SECTIONS)
    refs = {"configs": {}}
    if argv and os.path.exists(REFS_PATH):
        with open(REFS_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in names:
        refs[name] = SECTIONS[name]()
        refs["configs"][name] = wl.WORKLOADS[name]
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFS_PATH} in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
