import csv
import glob
import json
import math
import os
import warnings

import numpy as np
import pytest
import yaml
from scipy.integrate import solve_ivp

from dissipative_ising import (
    ModelParams,
    build_basis,
    build_liouvillian,
    magnetization,
    spin_coherent_state,
    unvec,
    vec,
)
from dissipative_ising import cli, sweep
from dissipative_ising.cli import main
from dissipative_ising.config import (
    OUTPUT_DIR_ENV,
    load_config,
    load_raw,
    resolved_dict,
    validate_config,
)
from dissipative_ising.errors import ConfigError, SolverError
from dissipative_ising.liouville import N_LIMIT
from dissipative_ising.sweep import _quantum_point

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
from dissipative_ising.tables import Table, format_cell, write_table


def write_yaml(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BOUNDARIES_CFG = {
    "task": "boundaries",
    "model": {"Gamma": 1.0},
    "boundaries": {"V_min": -10.0, "V_max": -0.5, "count": 20},
}


def parent_metadata(config):
    """A metadata.json payload as earlier versions wrote it around ``config``."""
    return {
        "config": config,
        "outputs": ["out.csv"],
        "rng_seed": config["rng_seed"],
        "timings": {"solve_s": 0.1, "total_s": 0.2, "write_s": 0.1},
        "tool": {"name": "dissipative-ising", "version": "0.1.0"},
    }


# Metadata configs as earlier versions wrote them, every default
# materialized, each with the retired paths it carries and the clean
# config that describes the same run.
PARENT_CONFIGS = {
    "mf-fixed-points": (
        {"task": "mf-fixed-points", "model": {"V": -5.0, "g": -0.4, "p": 0.65, "Gamma": 1.0},
         "workers": 1, "rng_seed": 11, "output": {"format": "csv"},
         "fixed_points": {"n_seeds": 200}},
        ["rng_seed", "output.format", "fixed_points.n_seeds"],
        {"task": "mf-fixed-points", "model": {"V": -5.0, "g": -0.4, "p": 0.65}},
    ),
    "mf-phase-diagram": (
        {"task": "mf-phase-diagram", "model": {"V": -1.0, "g": 0.0, "p": 0.0, "Gamma": 1.0},
         "workers": 2, "rng_seed": 7, "output": {"dir": "runs/pd", "format": "csv"},
         "grid": {"axis1": {"name": "p", "min": 0.1, "max": 1.0, "count": 3},
                  "axis2": {"name": "g", "min": -1.05, "max": 0.3, "count": 3}},
         "options": {"n_seeds": 100, "select_branch": True, "detect_cycles": True,
                     "settle_time": 150.0, "gap_k": 12}},
        ["rng_seed", "output.format", "options.n_seeds", "options.gap_k"],
        {"task": "mf-phase-diagram", "model": {"V": -1.0}, "workers": 2,
         "output": {"dir": "runs/pd"},
         "grid": {"axis1": {"name": "p", "min": 0.1, "max": 1.0, "count": 3},
                  "axis2": {"name": "g", "min": -1.05, "max": 0.3, "count": 3}},
         "options": {"settle_time": 150.0}},
    ),
    "multistability": (
        {"task": "multistability", "model": {"V": -5.0, "g": 0.0, "p": 0.0, "Gamma": 1.0},
         "workers": 1, "rng_seed": 8, "output": {"format": "csv"},
         "grid": {"axis1": {"name": "g", "min": -1.5, "max": -0.1, "count": 4},
                  "axis2": {"name": "p", "min": 0.0, "max": 1.0, "count": 5}},
         "options": {"n_seeds": 300, "select_branch": True, "detect_cycles": False,
                     "settle_time": 200.0, "gap_k": 12}},
        ["rng_seed", "output.format", "options.n_seeds", "options.select_branch",
         "options.gap_k"],
        {"task": "multistability", "model": {"V": -5.0},
         "grid": {"axis1": {"name": "g", "min": -1.5, "max": -0.1, "count": 4},
                  "axis2": {"name": "p", "min": 0.0, "max": 1.0, "count": 5}},
         "options": {"detect_cycles": False}},
    ),
    "quantum-steady": (
        {"task": "quantum-steady", "model": {"V": -5.0, "g": 0.0, "p": 1.0, "Gamma": 1.0, "N": 10},
         "workers": 1, "rng_seed": 10, "output": {"format": "csv"},
         "grid": {"axis1": {"name": "g", "min": 0.1, "max": 2.4, "count": 4}},
         "options": {"n_seeds": 200, "select_branch": True, "detect_cycles": True,
                     "settle_time": 200.0}},
        ["rng_seed", "output.format", "options.n_seeds", "options.select_branch",
         "options.detect_cycles", "options.settle_time"],
        {"task": "quantum-steady", "model": {"V": -5.0, "p": 1.0, "N": 10},
         "grid": {"axis1": {"name": "g", "min": 0.1, "max": 2.4, "count": 4}}},
    ),
    "quantum-gap": (
        {"task": "quantum-gap", "model": {"V": -5.0, "g": -1.0, "p": 0.8, "Gamma": 1.0, "N": 40},
         "workers": 1, "rng_seed": 1110, "output": {"format": "csv"},
         "options": {"n_seeds": 200, "select_branch": True, "detect_cycles": True,
                     "settle_time": 200.0, "gap_k": 16}},
        ["rng_seed", "output.format", "options.n_seeds", "options.select_branch",
         "options.detect_cycles", "options.settle_time"],
        {"task": "quantum-gap", "model": {"V": -5.0, "g": -1.0, "p": 0.8, "N": 40},
         "options": {"gap_k": 16}},
    ),
    "hysteresis-mf": (
        {"task": "hysteresis", "model": {"V": -5.0, "g": -1.0, "p": 0.0, "Gamma": 1.0},
         "workers": 1, "rng_seed": 1010, "output": {"dir": "runs/h", "format": "csv"},
         "hysteresis": {"p_min": 0.6, "p_max": 1.0, "count": 9, "direction": "both",
                        "solver": "mf", "settle_time": 100.0, "window": 40.0,
                        "threshold": 0.05}},
        ["rng_seed", "output.format", "hysteresis.window"],
        {"task": "hysteresis", "model": {"V": -5.0, "g": -1.0}, "output": {"dir": "runs/h"},
         "hysteresis": {"p_min": 0.6, "count": 9, "settle_time": 100.0}},
    ),
    "hysteresis-quantum": (
        {"task": "hysteresis", "model": {"V": -5.0, "g": -1.0, "p": 0.0, "Gamma": 1.0, "N": 10},
         "workers": 1, "rng_seed": 1010, "output": {"format": "csv"},
         "hysteresis": {"p_min": 0.6, "p_max": 1.0, "count": 5, "direction": "up",
                        "solver": "quantum", "settle_time": 200.0, "window": 20.0,
                        "threshold": 0.05}},
        ["rng_seed", "output.format", "hysteresis.settle_time"],
        {"task": "hysteresis", "model": {"V": -5.0, "g": -1.0, "N": 10},
         "hysteresis": {"p_min": 0.6, "count": 5, "direction": "up", "solver": "quantum",
                        "window": 20.0}},
    ),
}


class TestValidation:
    def test_p_out_of_range_names_invariant(self, tmp_path):
        cfg = {"task": "mf-fixed-points", "model": {"V": -5.0, "g": 1.0, "p": 1.5}}
        with pytest.raises(ConfigError, match="p must satisfy 0 <= p <= 1"):
            validate_config(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"task": "boundaries", "model": {}, "extra": 1})
        with pytest.raises(ConfigError, match="model.q"):
            validate_config({"task": "boundaries", "model": {"q": 1}})

    def test_block_task_mismatch(self):
        cfg = {"task": "boundaries", "model": {}, "grid": {"axis1": {}}}
        with pytest.raises(ConfigError, match="not valid for task"):
            validate_config(cfg)

    def test_quantum_requires_n(self):
        with pytest.raises(ConfigError, match="model.N"):
            validate_config({"task": "quantum-steady", "model": {"V": -5.0, "g": 1.0, "p": 1.0}})

    def test_grid_axis_invariants(self):
        cfg = {
            "task": "mf-phase-diagram",
            "model": {"V": -5.0},
            "grid": {"axis1": {"name": "g", "min": 2.0, "max": 1.0, "count": 5}},
        }
        with pytest.raises(ConfigError, match="start < stop"):
            validate_config(cfg)

    @pytest.mark.parametrize("kind", sorted(PARENT_CONFIGS))
    def test_parent_metadata_drops_retired_keys(self, tmp_path, kind):
        old, retired, clean = PARENT_CONFIGS[kind]
        path = tmp_path / "metadata.json"
        path.write_text(json.dumps(parent_metadata(old), indent=2, sort_keys=True))
        with pytest.warns(UserWarning) as record:
            cfg = load_config(path)
        assert len(record) == 1
        message = str(record[0].message)
        assert all(name in message for name in retired), message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg == validate_config(clean)
            # the metadata written now carries no retired key and reloads silently
            resolved = resolved_dict(cfg)
            assert validate_config(resolved) == cfg
        for name in retired:
            block, _, key = name.rpartition(".")
            assert key not in (resolved.get(block, {}) if block else resolved), name

    def test_retired_names_are_checked_where_read(self):
        model = {"V": -5.0, "g": -1.0, "N": 10}
        with pytest.raises(ConfigError, match="options.gap_k"):
            validate_config({"task": "quantum-gap", "model": model, "options": {"gap_k": 1}})
        with pytest.raises(ConfigError, match="hysteresis.window"):
            validate_config({"task": "hysteresis", "model": model,
                             "hysteresis": {"solver": "quantum", "window": -1.0}})
        # unread, the same key is dropped unchecked
        with pytest.warns(UserWarning, match="hysteresis.window"):
            cfg = validate_config({"task": "hysteresis", "model": model,
                                   "hysteresis": {"window": -1.0}})
        assert cfg.hysteresis.window == 40.0
        with pytest.raises(ConfigError, match="options.n_seed: unknown key"):
            validate_config({"task": "quantum-gap", "model": model, "options": {"n_seed": 1}})

    def test_shipped_configs_validate_cleanly(self):
        paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
        assert len(paths) == 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in paths:
                cfg = load_config(path)
                assert validate_config(resolved_dict(cfg)) == cfg, path

    def test_defaults_materialized(self):
        cfg = validate_config({"task": "boundaries", "model": {}})
        resolved = resolved_dict(cfg)
        assert resolved["model"]["Gamma"] == 1.0
        assert resolved["workers"] == 1
        assert resolved["boundaries"]["count"] == 96


class TestWriteTable:
    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(Table(columns=["a", "b"]), path)
        assert path.read_bytes() == b"a,b\n"

    def test_rows_in_insertion_order(self, tmp_path):
        table = Table(columns=["x"])
        for v in (3.0, 1.0, 2.0):
            table.append(v)
        path = tmp_path / "t.csv"
        write_table(table, path)
        assert read_csv(path) == [["x"], ["3"], ["1"], ["2"]]

    def test_formatting(self):
        # the text of every cell type the tables hold, Python and numpy alike
        cases = [
            (None, ""),
            ("up", "up"),
            ("", ""),
            (True, "1"),
            (False, "0"),
            (np.True_, "1"),
            (np.False_, "0"),
            (0, "0"),
            (7, "7"),
            (-42, "-42"),
            (np.int64(7), "7"),
            (np.int32(-3), "-3"),
            (2.0, "2"),
            (-1.0e-17, "-1.0000000000000001e-17"),
            (1 / 3, "0.33333333333333331"),
            (math.inf, "inf"),
            (math.nan, "nan"),
            (np.float64(1 / 3), "0.33333333333333331"),
            (np.float64(-0.0), "-0"),
            (np.float32(0.1), "0.10000000149011612"),
        ]
        for value, text in cases:
            assert format_cell(value) == text, repr(value)

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = Table(columns=["x", "y"])
        table.append(math.pi, -1.0e-17)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(table, p1)
        write_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCliRuns:
    def test_boundaries_reference_row(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", BOUNDARIES_CFG)
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "boundaries.csv")
        assert rows[0] == ["V", "gc_p1", "gplus_c", "gminus_c",
                           "gplus_c_signed", "gminus_c_signed"]
        v_col = [float(r[0]) for r in rows[1:]]
        i = v_col.index(-5.0)
        assert float(rows[1 + i][1]) == pytest.approx(2.50312, abs=5e-6)
        assert float(rows[1 + i][2]) == pytest.approx(2.4937, abs=5e-5)
        assert float(rows[1 + i][3]) == pytest.approx(0.0062657, abs=5e-8)

    def test_fixed_points_task(self, tmp_path):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "mf-fixed-points",
                "model": {"V": -5.0, "g": 1.0, "p": 1.0},
            },
        )
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "fixed_points.csv")
        header = rows[0]
        # the isolated roots on the sphere: the +/-Z pair and two on Z = 0
        assert len(rows) - 1 == 4
        stable_rows = [r for r in rows[1:] if r[header.index("stable")] == "1"]
        assert len(stable_rows) == 1
        x, y, z = (float(stable_rows[0][header.index(c)]) for c in ("X", "Y", "Z"))
        assert (x, y, z) == pytest.approx((-0.39900, 0.01995, -0.91673), abs=5e-6)

    def test_mf_evolve_task(self, tmp_path):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "mf-evolve",
                "model": {"V": -5.0, "g": 3.0, "p": 1.0},
                "evolve": {"initials": [[0, 0, 1], [0, 1, 0]], "t_end": 120.0},
            },
        )
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        cycles = read_csv(out / "limit_cycle.csv")
        assert cycles[0] == ["ic", "cycle_detected", "period", "z_amplitude", "error"]
        assert [r[1] for r in cycles[1:]] == ["1", "1"]
        assert [r[4] for r in cycles[1:]] == ["", ""]

    def test_mf_evolve_short_window_records_error(self, tmp_path):
        # too short a window to tell: the reason is written, not swallowed
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "mf-evolve",
                "model": {"V": -5.0, "g": 3.0, "p": 1.0},
                "evolve": {"t_end": 5.0, "transient_fraction": 0.9},
            },
        )
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        cycles = read_csv(out / "limit_cycle.csv")
        assert cycles[1][:4] == ["0", "0", "nan", "nan"]
        assert cycles[1][4].startswith("InsufficientDataError: ")

    def test_metadata_round_trip(self, tmp_path):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "mf-phase-diagram",
                "model": {"V": -5.0, "p": 1.0},
                "grid": {"axis1": {"name": "g", "min": 0.4, "max": 1.2, "count": 3}},
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([cfg_path, "--output-dir", str(out1)]) == 0
        assert main([str(out1 / "metadata.json"), "--output-dir", str(out2)]) == 0
        assert (out1 / "phase_diagram.csv").read_bytes() == (
            out2 / "phase_diagram.csv"
        ).read_bytes()
        assert (out1 / "stable_points.csv").read_bytes() == (
            out2 / "stable_points.csv"
        ).read_bytes()
        meta = json.loads((out1 / "metadata.json").read_text())
        assert "rng_seed" not in meta and "rng_seed" not in meta["config"]
        assert meta["config"]["model"]["Gamma"] == 1.0
        assert meta["tool"]["name"] == "dissipative-ising"
        assert set(meta["timings"]) == {"solve_s", "write_s", "total_s"}

    def test_quantum_steady_single_point(self, tmp_path):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "quantum-steady",
                "model": {"V": -5.0, "g": 1.0, "p": 1.0, "N": 10},
            },
        )
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "steady_state.csv")
        z = float(rows[1][rows[0].index("Z")])
        assert z == pytest.approx(-0.8963, abs=1e-3)

    @pytest.mark.parametrize("task, table", [("quantum-steady", "steady_state"),
                                              ("quantum-gap", "gap")])
    def test_quantum_single_point_matches_sweep_point(self, tmp_path, task, table):
        model = {"V": -5.0, "g": -1.0, "p": 0.77, "Gamma": 1.0, "N": 10}
        options = {"options": {"gap_k": 12}} if task == "quantum-gap" else {}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", {"task": task, "model": model, **options})
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        rows = read_csv(out / f"{table}.csv")
        assert len(rows) == 2

        pt = _quantum_point(((0, 0), ModelParams(**model), task == "quantum-gap", 12))
        assert pt.error is None
        mag = pt.magnetization
        expected = [
            0, 0, pt.params.V, pt.params.g, pt.params.p, pt.params.Gamma, pt.params.N,
            0, pt.selected_Z, False, float(mag[0]), float(mag[1]), float(mag[2]),
            pt.gap, pt.zero_multiplicity, None,
        ]
        assert rows[1] == [format_cell(v) for v in expected]

    def test_quantum_evolve_is_one_dop853_run(self, tmp_path):
        opts = {"initial": {"theta": 2.0, "phi": 0.5}, "t_end": 6.0, "n_snapshots": 13,
                "rel_tol": 1e-9, "abs_tol": 1e-11}
        model = {"V": -5.0, "g": -1.0, "p": 0.6, "N": 8}
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {"task": "quantum-evolve", "model": model, "quantum_evolve": opts},
        )
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "evolution.csv")
        assert rows[0] == ["t", "X", "Y", "Z"]
        got = [[float(v) for v in row] for row in rows[1:]]

        # the snapshot grid from a single DOP853 integration, recomputed here
        basis = build_basis(8)
        liouv = build_liouvillian(ModelParams(**model), basis)
        psi = spin_coherent_state(basis, 2.0, 0.5)
        times = np.linspace(0.0, 6.0, 13)
        sol = solve_ivp(
            lambda _t, y: liouv.matrix @ y, (0.0, 6.0), vec(np.outer(psi, psi.conj())),
            method="DOP853", rtol=1e-9, atol=1e-11, t_eval=times,
        )
        expected = []
        for k, t in enumerate(sol.t):
            mag = magnetization(unvec(sol.y[:, k], basis.dim))
            expected.append([float(t), float(mag[0]), float(mag[1]), float(mag[2])])
        assert got == expected

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", BOUNDARIES_CFG)
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        assert main([cfg_path]) == 0
        assert (env_dir / "boundaries.csv").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {"task": "mf-fixed-points", "model": {"V": -5.0, "g": 1.0, "p": 1.5}},
        )
        assert main([cfg_path]) == 2
        assert "p must satisfy" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert main([str(tmp_path / "nope.yaml")]) == 2

    def test_invalid_workers_flag_is_2(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", BOUNDARIES_CFG)
        assert main([cfg_path, "--workers", "0"]) == 2

    def test_solver_error_is_3(self, tmp_path, capsys, monkeypatch):
        def singular(_liouv):
            raise SolverError("bordered steady-state system is singular")

        monkeypatch.setattr(sweep, "steady_state", singular)
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {"task": "quantum-steady", "model": {"V": -5.0, "g": 1.0, "p": 1.0, "N": 4}},
        )
        assert main([cfg_path, "--output-dir", str(tmp_path / "out")]) == 3
        assert "solver error: SolverError" in capsys.readouterr().err

    @pytest.mark.parametrize("task, block", [
        ("quantum-steady", {}),
        ("quantum-gap", {"grid": {"axis1": {"name": "g", "min": 0.5, "max": 1.0, "count": 2}}}),
        ("quantum-evolve", {}),
        ("hysteresis", {"hysteresis": {"solver": "quantum"}}),
    ])
    def test_n_above_limit_is_config_error(self, tmp_path, capsys, monkeypatch, task, block):
        def no_solve(_cfg):
            raise AssertionError("the run was started")

        monkeypatch.setattr(cli, "execute", no_solve)
        model = {"V": -5.0, "g": 1.0, "p": 1.0, "N": N_LIMIT + 1}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", {"task": task, "model": model, **block})
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 2
        assert f"model.N: quantum solvers are capped at N={N_LIMIT}" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_is_4(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", BOUNDARIES_CFG)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main([cfg_path, "--output-dir", str(blocker)]) == 4


class TestLoadRaw:
    def test_metadata_unwrapped(self, tmp_path):
        payload = {"config": {"task": "boundaries", "model": {}}, "rng_seed": 5}
        path = tmp_path / "metadata.json"
        path.write_text(json.dumps(payload))
        assert load_raw(path) == {"task": "boundaries", "model": {}}

    def test_json_exponent_floats_are_numbers(self, tmp_path):
        # metadata files hold floats such as 1e-12, which YAML 1.1 reads as strings
        path = tmp_path / "metadata.json"
        path.write_text(json.dumps({"config": {"task": "mf-evolve", "evolve": {"abs_tol": 1e-12}}}))
        assert load_raw(path)["evolve"]["abs_tol"] == 1e-12

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_raw(path)
