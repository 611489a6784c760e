import csv
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
from dissipative_ising.cli import main
from dissipative_ising.config import (
    OUTPUT_DIR_ENV,
    load_raw,
    resolved_dict,
    validate_config,
)
from dissipative_ising.errors import ConfigError
from dissipative_ising.sweep import _quantum_point
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
    "rng_seed": 3,
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

    def test_gap_k_ignored_by_quantum_steady_warns(self):
        base = {"model": {"V": -5.0, "g": 1.0, "p": 1.0, "N": 10},
                "options": {"gap_k": 16}, "rng_seed": 1}
        with pytest.warns(UserWarning, match="gap_k: ignored for task quantum-steady"):
            cfg = validate_config({"task": "quantum-steady", **base})
        assert cfg.sweep_opts.gap_k == 16  # still accepted
        # the metadata it writes reloads without the key, and so without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert "gap_k" not in resolved_dict(cfg)["options"]
            validate_config(resolved_dict(cfg))
            assert validate_config({"task": "quantum-gap", **base}).sweep_opts.gap_k == 16

    def test_defaults_materialized(self):
        cfg = validate_config({"task": "boundaries", "model": {}, "rng_seed": 1})
        resolved = resolved_dict(cfg)
        assert resolved["model"]["Gamma"] == 1.0
        assert resolved["workers"] == 1
        assert resolved["boundaries"]["count"] == 96

    def test_seed_generated_and_recorded_when_omitted(self):
        cfg = validate_config({"task": "boundaries", "model": {}})
        assert isinstance(cfg.rng_seed, int)
        assert not cfg.seed_was_given
        assert resolved_dict(cfg)["rng_seed"] == cfg.rng_seed


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
                "fixed_points": {"n_seeds": 200},
                "rng_seed": 11,
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
                "rng_seed": 11,
            },
        )
        out = tmp_path / "out"
        assert main([cfg_path, "--output-dir", str(out)]) == 0
        cycles = read_csv(out / "limit_cycle.csv")
        assert cycles[0] == ["ic", "cycle_detected", "period", "z_amplitude"]
        assert [r[1] for r in cycles[1:]] == ["1", "1"]

    def test_metadata_round_trip(self, tmp_path):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "mf-phase-diagram",
                "model": {"V": -5.0, "p": 1.0},
                "grid": {"axis1": {"name": "g", "min": 0.4, "max": 1.2, "count": 3}},
                "options": {"n_seeds": 80},
                "rng_seed": 21,
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
        assert meta["rng_seed"] == 21
        assert meta["config"]["model"]["Gamma"] == 1.0
        assert meta["tool"]["name"] == "dissipative-ising"
        assert set(meta["timings"]) == {"solve_s", "write_s", "total_s"}

    def test_quantum_steady_single_point(self, tmp_path):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "quantum-steady",
                "model": {"V": -5.0, "g": 1.0, "p": 1.0, "N": 10},
                "rng_seed": 2,
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
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {"task": task, "model": model, "options": {"gap_k": 12}, "rng_seed": 2},
        )
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
            {"task": "quantum-evolve", "model": model, "quantum_evolve": opts, "rng_seed": 2},
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

    def test_solver_error_is_3(self, tmp_path, capsys):
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml",
            {
                "task": "quantum-steady",
                "model": {"V": -5.0, "g": 1.0, "p": 1.0, "N": 999},
                "rng_seed": 2,
            },
        )
        assert main([cfg_path, "--output-dir", str(tmp_path / "out")]) == 3
        assert "solver error" in capsys.readouterr().err

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

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_raw(path)
