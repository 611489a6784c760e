"""Row-by-row checks of one round's CSV output.

Every output row is one operation (a grid point or a ramp station).  A
row whose values disagree with the independent references, or that
breaks a property needing no reference, counts as failed.  Problems
that are not about one row's values -- missing or extra rows, rows out
of grid order, a malformed interval table -- are structural and make
the round incorrect.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

import physics as ph
import workloads as wl

# |m| may exceed 1 by rounding only.
NORM_SLACK = 1e-9
# Own-RHS residual and distance from the unit sphere of a reported root.
ROOT_TOL = 1e-9
# A stable point's finite-difference Jacobian may show max Re up to this.
FD_STABLE_TOL = 1e-7
# Reported and reference roots / selected branch must agree this well.
STATE_TOL = 1e-6
# Quantum gap: |gap - ref| <= GAP_RTOL * ref + GAP_ATOL.  The known
# iterative-gap fault is off by a factor of about 2.
GAP_RTOL = 1e-4
GAP_ATOL = 1e-8
# Quantum magnetizations (dense null vector, expm_multiply propagation).
MAG_TOL = 1e-6


@dataclass
class Verdict:
    """Outcome of checking one round."""

    failed: dict = field(default_factory=dict)  # row key -> list of problems
    structural: list = field(default_factory=list)

    def fail(self, key, problem: str):
        self.failed.setdefault(key, []).append(problem)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return math.nan if text in ("", None) else float(text)


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def check_stable_point(state, V, g, p) -> list[str]:
    """Properties of one reported stable point that need no reference."""
    problems = []
    resid = float(np.abs(ph.bloch_rhs(state, V, g, p)).max())
    if resid > ROOT_TOL:
        problems.append(f"stable point {state} has Bloch residual {resid:.2e}")
    if abs(np.linalg.norm(state) - 1.0) > ROOT_TOL:
        problems.append(f"stable point {state} is off the unit sphere (|r| = {np.linalg.norm(state):.12f})")
    max_re = float(np.linalg.eigvals(ph.fd_jacobian(state, V, g, p)).real.max())
    if max_re > FD_STABLE_TOL:
        problems.append(f"stable point {state} has finite-difference max Re(eig) {max_re:.2e}")
    return problems


def check_mf(rows, stable_rows, name: str, selection_refs=None) -> Verdict:
    """Mean-field sweep rows: stable roots, counts, branch selection."""
    V = wl.WORKLOADS[name]["model"]["V"]
    axes = [wl.WORKLOADS[name]["grid"][k]["name"] for k in ("axis1", "axis2")]
    n2 = wl.WORKLOADS[name]["grid"]["axis2"]["count"]
    expected = wl.grid_points(name)
    verdict = Verdict()
    if len(rows) != len(expected):
        verdict.structural.append(f"{len(rows)} rows for {len(expected)} grid points")
        return verdict
    by_index: dict = {}
    for srow in stable_rows:
        key = (int(srow["i1"]), int(srow["i2"]))
        by_index.setdefault(key, []).append(np.array([_num(srow[c]) for c in ("X", "Y", "Z")]))
    for lin, (row, vals) in enumerate(zip(rows, expected)):
        key = (int(row["i1"]), int(row["i2"]))
        if key != divmod(lin, n2):
            verdict.structural.append(f"row {lin} has index {key}")
            continue
        prm = {"V": V, axes[0]: vals[0], axes[1]: vals[1]}
        if not all(_same(_num(row[k]), prm[k]) for k in ("V", "g", "p")):
            verdict.structural.append(f"row {key} has parameters V={row['V']} g={row['g']} p={row['p']}")
            continue
        g, p = prm["g"], prm["p"]
        if row["error"]:
            verdict.fail(key, f"error: {row['error']}")
            continue
        reported = by_index.get(key, [])
        if int(row["stable_count"]) != len(reported):
            verdict.fail(key, f"stable_count {row['stable_count']} but {len(reported)} stable rows")
        for state in reported:
            for problem in check_stable_point(state, V, g, p):
                verdict.fail(key, problem)
        reference = ph.stable_points(V, g, p)
        if len(reference) != len(reported):
            verdict.fail(key, f"{len(reported)} stable points reported, {len(reference)} exist")
        for ref in reference:
            if not any(np.linalg.norm(ref - s) < STATE_TOL for s in reported):
                verdict.fail(key, f"stable root {ref} missing")
        sel_z = _num(row["selected_Z"])
        cycle = row["limit_cycle"] == "1"
        if abs(sel_z) > 1.0 + NORM_SLACK:
            verdict.fail(key, f"|selected_Z| = {abs(sel_z)} > 1")
        if selection_refs is None:
            if not math.isnan(sel_z) or (cycle and reference):
                verdict.fail(key, f"selected_Z {sel_z} / limit_cycle {cycle} without branch selection")
            continue
        ref = selection_refs[lin]
        if ref["cycle"]:
            if not (cycle and math.isnan(sel_z)):
                verdict.fail(key, f"pole trajectory ends on a cycle; got selected_Z {sel_z}, limit_cycle {cycle}")
        elif cycle or not abs(sel_z - ref["selected_Z"]) < STATE_TOL:
            verdict.fail(key, f"selected_Z {sel_z} (limit_cycle {cycle}), reference {ref['selected_Z']}")
    return verdict


def _mag_problems(mag, ref) -> list[str]:
    problems = []
    if np.linalg.norm(mag) > 1.0 + NORM_SLACK:
        problems.append(f"|m| = {np.linalg.norm(mag):.12f} > 1")
    dev = float(np.abs(mag - np.asarray(ref)).max())
    if not dev <= MAG_TOL:
        problems.append(f"magnetization {mag} off the reference {ref} by {dev:.2e}")
    return problems


def check_gap(rows, refs) -> Verdict:
    """Quantum gap rows against the dense spectrum and null vector."""
    name = "quantum_gap_scan"
    model = wl.WORKLOADS[name]["model"]
    n2 = wl.WORKLOADS[name]["grid"]["axis2"]["count"]
    verdict = Verdict()
    if len(rows) != len(refs):
        verdict.structural.append(f"{len(rows)} rows for {len(refs)} grid points")
        return verdict
    for lin, (row, ref) in enumerate(zip(rows, refs)):
        key = (int(row["i1"]), int(row["i2"]))
        if key != divmod(lin, n2) or not all(
            _same(_num(row[k]), v) for k, v in (("p", ref["p"]), ("g", ref["g"]), ("V", model["V"]), ("N", model["N"]))
        ):
            verdict.structural.append(f"row {lin} is {key} at p={row['p']} g={row['g']}")
            continue
        if row["error"]:
            verdict.fail(key, f"error: {row['error']}")
            continue
        gap = _num(row["gap"])
        if not abs(gap - ref["gap"]) <= GAP_RTOL * ref["gap"] + GAP_ATOL:
            verdict.fail(key, f"gap {gap} at p={ref['p']} g={ref['g']}, dense reference {ref['gap']}")
        mag = np.array([_num(row[c]) for c in ("X", "Y", "Z")])
        for problem in _mag_problems(mag, ref["m"]):
            verdict.fail(key, problem)
    return verdict


def _bistable_interval(p_values, up_z, down_z, threshold):
    split = np.abs(np.asarray(up_z) - np.asarray(down_z)) > threshold
    if not split.any():
        return None
    lo, hi = np.flatnonzero(split)[[0, -1]]
    return (p_values[lo], p_values[hi])


def check_ramp(rows, interval_rows, refs) -> Verdict:
    """Hysteresis stations against expm_multiply propagation."""
    cfg = wl.WORKLOADS["quantum_ramp"]
    ps = wl.ramp_p_values()
    verdict = Verdict()
    expected = [(d, i) for d in ("up", "down") for i in range(len(ps))]
    got = [(row["direction"], int(row["i"])) for row in rows]
    if got != expected:
        verdict.structural.append(f"station rows {got[:3]}... do not match the ramp grid")
        return verdict
    for row, (direction, i) in zip(rows, expected):
        prm = (("p", ps[i]), ("V", cfg["model"]["V"]), ("g", cfg["model"]["g"]))
        if not all(_same(_num(row[k]), v) for k, v in prm):
            verdict.structural.append(f"station {direction} {i} is at p={row['p']}")
            continue
        mag = np.array([_num(row[c]) for c in ("X", "Y", "Z")])
        for problem in _mag_problems(mag, refs[direction][i]):
            verdict.fail((direction, i), problem)
    want = _bistable_interval(
        ps, [m[2] for m in refs["up"]], [m[2] for m in refs["down"]], cfg["hysteresis"]["threshold"]
    )
    got_iv = [tuple(_num(r[c]) for c in ("p_lower", "p_upper")) for r in interval_rows]
    if want is None:
        interval_ok = not got_iv
    else:
        interval_ok = len(got_iv) == 1 and all(_same(a, b) for a, b in zip(got_iv[0], want))
    if not interval_ok:
        verdict.structural.append(f"bistable interval {got_iv}, reference {want}")
    return verdict


def check_round(name: str, outdir, refs) -> Verdict:
    """Check the tables one CLI run of workload ``name`` wrote to ``outdir``."""
    if name == "quantum_gap_scan":
        return check_gap(read_csv(os.path.join(outdir, "gap.csv")), refs[name])
    if name == "quantum_ramp":
        return check_ramp(
            read_csv(os.path.join(outdir, "hysteresis.csv")),
            read_csv(os.path.join(outdir, "bistable_interval.csv")),
            refs[name],
        )
    stable_path = os.path.join(outdir, "stable_points.csv")
    stable_rows = read_csv(stable_path) if os.path.exists(stable_path) else []
    return check_mf(
        read_csv(os.path.join(outdir, "phase_diagram.csv")),
        stable_rows,
        name,
        refs[name] if wl.WORKLOADS[name]["options"]["select_branch"] else None,
    )
