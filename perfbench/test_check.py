"""Tests of the benchmark's own checker.

    python3 -m pytest perfbench/test_check.py

Rows are built from the references, so they pass; then one value is
spoiled and exactly that row must count as failed.
"""

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import physics as ph  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json"), encoding="utf-8") as _fh:
    REFS = json.load(_fh)


def _s(value) -> str:
    """A cell as the CLI writes it."""
    return format(float(value), ".17g")


def mf_rows(name):
    """Correct phase_diagram and stable_points rows for a mean-field workload."""
    V = wl.WORKLOADS[name]["model"]["V"]
    axes = [wl.WORKLOADS[name]["grid"][k]["name"] for k in ("axis1", "axis2")]
    n2 = wl.WORKLOADS[name]["grid"]["axis2"]["count"]
    selection = REFS.get(name) if wl.WORKLOADS[name]["options"]["select_branch"] else None
    rows, stable_rows = [], []
    for lin, vals in enumerate(wl.grid_points(name)):
        prm = {"V": V, axes[0]: vals[0], axes[1]: vals[1]}
        i1, i2 = divmod(lin, n2)
        stable = ph.stable_points(V, prm["g"], prm["p"])
        sel, cycle = math.nan, False
        if selection is not None:
            cycle = selection[lin]["cycle"]
            sel = math.nan if cycle else selection[lin]["selected_Z"]
        rows.append({
            "i1": str(i1), "i2": str(i2), "V": _s(V), "g": _s(prm["g"]), "p": _s(prm["p"]),
            "stable_count": str(len(stable)), "selected_Z": _s(sel), "limit_cycle": "1" if cycle else "0",
            "error": "",
        })
        for s in stable:
            stable_rows.append({"i1": str(i1), "i2": str(i2), "X": _s(s[0]), "Y": _s(s[1]), "Z": _s(s[2])})
    return rows, stable_rows


def gap_rows():
    model = wl.WORKLOADS["quantum_gap_scan"]["model"]
    n2 = wl.WORKLOADS["quantum_gap_scan"]["grid"]["axis2"]["count"]
    rows = []
    for lin, ref in enumerate(REFS["quantum_gap_scan"]):
        i1, i2 = divmod(lin, n2)
        rows.append({
            "i1": str(i1), "i2": str(i2), "V": _s(model["V"]), "N": str(model["N"]),
            "p": _s(ref["p"]), "g": _s(ref["g"]), "gap": _s(ref["gap"]),
            "X": _s(ref["m"][0]), "Y": _s(ref["m"][1]), "Z": _s(ref["m"][2]), "error": "",
        })
    return rows


def ramp_rows():
    model = wl.WORKLOADS["quantum_ramp"]["model"]
    ref = REFS["quantum_ramp"]
    rows = [
        {"direction": d, "i": str(i), "p": _s(p), "V": _s(model["V"]), "g": _s(model["g"]),
         "X": _s(ref[d][i][0]), "Y": _s(ref[d][i][1]), "Z": _s(ref[d][i][2])}
        for d in ("up", "down") for i, p in enumerate(wl.ramp_p_values())
    ]
    interval = check._bistable_interval(
        wl.ramp_p_values(), [m[2] for m in ref["up"]], [m[2] for m in ref["down"]],
        wl.WORKLOADS["quantum_ramp"]["hysteresis"]["threshold"],
    )
    return rows, [{"p_lower": _s(interval[0]), "p_upper": _s(interval[1])}]


def test_reference_rows_pass():
    for name in ("mf_branch_merge", "mf_phase_select"):
        rows, stable_rows = mf_rows(name)
        verdict = check.check_mf(rows, stable_rows, name, REFS.get(name) if name == "mf_phase_select" else None)
        assert not verdict.failed and not verdict.structural
    verdict = check.check_gap(gap_rows(), REFS["quantum_gap_scan"])
    assert not verdict.failed and not verdict.structural
    verdict = check.check_ramp(*ramp_rows(), REFS["quantum_ramp"])
    assert not verdict.failed and not verdict.structural


def test_perturbed_ramp_station_fails():
    rows, interval = ramp_rows()
    rows[30]["X"] = _s(float(rows[30]["X"]) + 1e-5)
    verdict = check.check_ramp(rows, interval, REFS["quantum_ramp"])
    assert list(verdict.failed) == [("down", 4)] and not verdict.structural
    verdict = check.check_ramp(ramp_rows()[0], [], REFS["quantum_ramp"])
    assert verdict.structural


def test_perturbed_gap_fails():
    rows = gap_rows()
    rows[9]["gap"] = _s(float(rows[9]["gap"]) * 1.01)
    verdict = check.check_gap(rows, REFS["quantum_gap_scan"])
    assert list(verdict.failed) == [(1, 2)] and not verdict.structural


def test_off_sphere_fixed_point_fails():
    rows, stable_rows = mf_rows("mf_branch_merge")
    spoiled = stable_rows[5]
    state = 1.001 * np.array([float(spoiled[c]) for c in ("X", "Y", "Z")])
    spoiled.update(X=_s(state[0]), Y=_s(state[1]), Z=_s(state[2]))
    verdict = check.check_mf(rows, stable_rows, "mf_branch_merge")
    key = (int(spoiled["i1"]), int(spoiled["i2"]))
    assert list(verdict.failed) == [key] and not verdict.structural
    assert any("off the unit sphere" in p for p in verdict.failed[key])


def test_missing_stable_root_fails():
    rows, stable_rows = mf_rows("mf_branch_merge")
    # drop one root of a multistable point and lower its count to match
    lin = next(i for i, r in enumerate(rows) if int(r["stable_count"]) >= 2)
    key = (int(rows[lin]["i1"]), int(rows[lin]["i2"]))
    drop = next(i for i, s in enumerate(stable_rows) if (int(s["i1"]), int(s["i2"])) == key)
    del stable_rows[drop]
    rows[lin]["stable_count"] = str(int(rows[lin]["stable_count"]) - 1)
    verdict = check.check_mf(rows, stable_rows, "mf_branch_merge")
    assert list(verdict.failed) == [key] and not verdict.structural
    assert any("missing" in p for p in verdict.failed[key])


def test_wrong_selection_fails():
    rows, stable_rows = mf_rows("mf_phase_select")
    rows[0]["selected_Z"] = _s(float(rows[0]["selected_Z"]) + 1e-3)
    verdict = check.check_mf(rows, stable_rows, "mf_phase_select", REFS["mf_phase_select"])
    assert list(verdict.failed) == [(0, 0)]


def test_missing_row_is_structural():
    rows = gap_rows()[:-1]
    verdict = check.check_gap(rows, REFS["quantum_gap_scan"])
    assert verdict.structural


def test_polynomial_roots_match_closed_forms_near_the_limits():
    # the Z polynomial is used for 0 < p < 1; close to p = 1 its stable
    # root approaches the p = 1 closed form
    V, g = -5.0, 1.0
    near = ph.stable_points(V, g, 1.0 - 1e-9)
    exact = ph.stable_points(V, g, 1.0)
    assert len(near) == len(exact) == 1
    assert np.linalg.norm(near[0] - exact[0]) < 1e-6
