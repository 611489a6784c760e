"""What a fresh interpreter loads of scipy, task by task.

``meanfield`` and ``liouville`` reach scipy's integrators, root finder
and ARPACK only through module attributes that import them on first
call, so a process that never calls them never pays for their import.
Each check runs in a new interpreter, where ``sys.modules`` starts
empty.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from dissipative_ising.meanfield import ModelParams, settle

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse.linalg")
SETTLE_ARGS = ([0.6, 0.0, -0.8], ModelParams(V=-5.0, g=-1.0, p=0.6), 10.0)

# Loads the CLI and validates every shipped config, then runs a quantum
# hysteresis ramp and a mean-field phase diagram without branch
# selection, then one settle; prints the deferred modules loaded after
# each stage and the settled state.
SCRIPT = r"""
import glob, json, os, sys, tempfile

import yaml

deferred, config_dir = json.loads(sys.argv[1]), sys.argv[2]
loaded = lambda: [name for name in deferred if name in sys.modules]
report = {}

from dissipative_ising import cli, liouville, meanfield
from dissipative_ising.config import load_config

for path in sorted(glob.glob(os.path.join(config_dir, "*.yaml"))):
    load_config(path)
report["attributes"] = [callable(vars(module).get(name)) for module, name in (
    (meanfield, "ode"), (meanfield, "solve_ivp"), (meanfield, "brentq"), (liouville, "eigs"))]
report["validated"] = loaded()

runs = [
    {"task": "hysteresis", "model": {"V": -5.0, "g": -1.0, "N": 4},
     "hysteresis": {"p_min": 0.6, "p_max": 1.0, "count": 3, "direction": "up",
                    "solver": "quantum"}},
    {"task": "mf-phase-diagram", "model": {"V": -5.0}, "workers": 1,
     "grid": {"axis1": {"name": "p", "min": 0.2, "max": 0.8, "count": 2},
              "axis2": {"name": "g", "min": -1.0, "max": -0.5, "count": 2}},
     "options": {"select_branch": False}},
]
with tempfile.TemporaryDirectory() as scratch:
    for i, run in enumerate(runs):
        path = os.path.join(scratch, f"{i}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(run, fh)
        code = cli.main([path, "--output-dir", os.path.join(scratch, str(i))])
        assert code == 0, (run["task"], code)
report["ran"] = loaded()

# the settle of SETTLE_ARGS
state = meanfield.settle([0.6, 0.0, -0.8], meanfield.ModelParams(V=-5.0, g=-1.0, p=0.6), 10.0)
report["settled"] = loaded()
report["state"] = [float(x).hex() for x in state]
print(json.dumps(report))
"""


def fresh_interpreter_report() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(DEFERRED), os.path.join(ROOT, "configs")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_scipy_parts_load_on_first_use():
    report = fresh_interpreter_report()
    # the deferred names stay module attributes that a tracer or a test can replace
    assert report["attributes"] == [True] * 4
    assert report["validated"] == []
    # neither task integrates a Bloch orbit or finds a root by bracketing
    assert "scipy.integrate" not in report["ran"] and "scipy.optimize" not in report["ran"]
    assert "scipy.integrate" in report["settled"]
    state = [float.fromhex(x) for x in report["state"]]
    assert all(map(math.isfinite, state))
    assert np.array_equal(np.array(state), settle(*SETTLE_ARGS))
