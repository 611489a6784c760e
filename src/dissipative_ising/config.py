"""Run configuration: schema, strict validation, defaults, round-trip.

A run is described by one YAML (or JSON) mapping with a ``task`` key,
a ``model`` block and at most one task-specific block.  Unknown keys
are rejected, every invariant violation is reported with the offending
key path, and ``resolved_dict`` materializes all defaults so that the
metadata written after a run can be reloaded as a config that
reproduces it exactly.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError
from .meanfield import ModelParams
from .sweep import Axis, GridSpec

TASKS = (
    "mf-fixed-points",
    "mf-evolve",
    "mf-phase-diagram",
    "multistability",
    "quantum-steady",
    "quantum-gap",
    "quantum-evolve",
    "hysteresis",
    "boundaries",
)

QUANTUM_TASKS = ("quantum-steady", "quantum-gap", "quantum-evolve")

# Environment variable consulted for the output directory when neither
# the --output-dir flag nor the config provides one.
OUTPUT_DIR_ENV = "DISSIPATIVE_ISING_OUTPUT_DIR"


@dataclass
class FixedPointOpts:
    # accepted and passed on, but unused: fixed points are enumerated exactly
    n_seeds: int = 200


@dataclass
class EvolveOpts:
    initials: list[list[float]] = field(default_factory=lambda: [[0.0, 0.0, 1.0]])
    t_end: float = 200.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    transient_fraction: float = 0.5


@dataclass
class SweepOpts:
    n_seeds: int = 200  # unused, as in FixedPointOpts
    select_branch: bool = True
    detect_cycles: bool = True
    settle_time: float = 200.0
    gap_k: int = 12


@dataclass
class QuantumEvolveOpts:
    initial: str | dict = "south"
    t_end: float = 100.0
    n_snapshots: int = 201
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12


@dataclass
class HysteresisOpts:
    p_min: float = 0.0
    p_max: float = 1.0
    count: int = 51
    direction: str = "both"
    solver: str = "mf"
    settle_time: float = 200.0
    window: float = 40.0
    threshold: float = 0.05


@dataclass
class BoundaryOpts:
    V_min: float = -10.0
    V_max: float = -0.5
    count: int = 96


@dataclass
class RunConfig:
    task: str
    model: ModelParams
    workers: int
    rng_seed: int
    seed_was_given: bool
    output_dir: str | None
    output_format: str
    grid: GridSpec | None = None
    fixed_points: FixedPointOpts | None = None
    evolve: EvolveOpts | None = None
    sweep_opts: SweepOpts | None = None
    quantum_evolve: QuantumEvolveOpts | None = None
    hysteresis: HysteresisOpts | None = None
    boundaries: BoundaryOpts | None = None


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(block: dict, allowed, where: str):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key")


def _get_number(block: dict, key: str, where: str, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"{where}.{key}: required key is missing")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _get_int(block: dict, key: str, where: str, default=None, required=False, minimum=None):
    if key not in block:
        if required:
            raise ConfigError(f"{where}.{key}: required key is missing")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _get_bool(block: dict, key: str, where: str, default):
    if key not in block:
        return default
    value = block[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected a boolean, got {value!r}")
    return value


def _get_choice(block: dict, key: str, where: str, choices, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"{where}.{key}: required key is missing")
        return default
    value = block[key]
    if value not in choices:
        raise ConfigError(f"{where}.{key}: must be one of {sorted(choices)}, got {value!r}")
    return value


def _parse_model(raw: dict, task: str) -> ModelParams:
    block = _require_mapping(raw.get("model"), "model")
    _reject_unknown(block, ("V", "g", "p", "Gamma", "N"), "model")
    v = _get_number(block, "V", "model", default=0.0)
    g = _get_number(block, "g", "model", default=0.0)
    p = _get_number(block, "p", "model", default=0.0)
    gamma = _get_number(block, "Gamma", "model", default=1.0)
    n = _get_int(block, "N", "model", default=None)
    if task in QUANTUM_TASKS and n is None:
        raise ConfigError(f"model.N: required for task {task}")
    try:
        return ModelParams(V=v, g=g, p=p, Gamma=gamma, N=n)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_axis(raw, where: str) -> Axis:
    block = _require_mapping(raw, where)
    _reject_unknown(block, ("name", "min", "max", "count"), where)
    name = _get_choice(block, "name", where, ("V", "g", "p"), required=True)
    lo = _get_number(block, "min", where, required=True)
    hi = _get_number(block, "max", where, required=True)
    count = _get_int(block, "count", where, required=True, minimum=2)
    try:
        return Axis(name=name, start=lo, stop=hi, count=count)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_grid(raw: dict, model: ModelParams, required: bool) -> GridSpec | None:
    if "grid" not in raw:
        if required:
            raise ConfigError("grid: required block is missing")
        return None
    block = _require_mapping(raw["grid"], "grid")
    _reject_unknown(block, ("axis1", "axis2"), "grid")
    if "axis1" not in block:
        raise ConfigError("grid.axis1: required key is missing")
    axis1 = _parse_axis(block["axis1"], "grid.axis1")
    axis2 = None
    if block.get("axis2") is not None:
        axis2 = _parse_axis(block["axis2"], "grid.axis2")
    try:
        return GridSpec(axis1=axis1, axis2=axis2, fixed=model)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_initials(block: dict, where: str) -> list[list[float]]:
    raw = block.get("initials", [[0.0, 0.0, 1.0]])
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}.initials: expected a non-empty list of [X, Y, Z]")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        raw = [raw]  # a single bare triple
    out = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
        ):
            raise ConfigError(f"{where}.initials[{i}]: expected [X, Y, Z] numbers")
        out.append([float(v) for v in entry])
    return out


def _positive(value: float, where: str) -> float:
    if value <= 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


_TASK_BLOCKS = {
    "mf-fixed-points": ("fixed_points",),
    "mf-evolve": ("evolve",),
    "mf-phase-diagram": ("grid", "options"),
    "multistability": ("grid", "options"),
    "quantum-steady": ("grid", "options"),
    "quantum-gap": ("grid", "options"),
    "quantum-evolve": ("quantum_evolve",),
    "hysteresis": ("hysteresis",),
    "boundaries": ("boundaries",),
}

_TOP_KEYS = ("task", "model", "workers", "rng_seed", "output",
             "fixed_points", "evolve", "grid", "options", "quantum_evolve",
             "hysteresis", "boundaries")


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping into a RunConfig, or raise ConfigError."""
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, _TOP_KEYS, "config")
    task = _get_choice(raw, "task", "config", TASKS, required=True)
    for block_name in ("fixed_points", "evolve", "grid", "options",
                       "quantum_evolve", "hysteresis", "boundaries"):
        if block_name in raw and block_name not in _TASK_BLOCKS[task]:
            raise ConfigError(f"{block_name}: block is not valid for task {task}")

    model = _parse_model(raw, task)
    workers = _get_int(raw, "workers", "config", default=1, minimum=1)
    seed_was_given = "rng_seed" in raw
    if seed_was_given:
        rng_seed = _get_int(raw, "rng_seed", "config", required=True, minimum=0)
    else:
        rng_seed = int.from_bytes(os.urandom(4), "big")

    out_block = _require_mapping(raw.get("output"), "output")
    _reject_unknown(out_block, ("dir", "format"), "output")
    output_dir = out_block.get("dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output.dir: expected a string, got {output_dir!r}")
    output_format = _get_choice(out_block, "format", "output", ("csv",), default="csv")

    cfg = RunConfig(
        task=task,
        model=model,
        workers=workers,
        rng_seed=rng_seed,
        seed_was_given=seed_was_given,
        output_dir=output_dir,
        output_format=output_format,
    )

    if task == "mf-fixed-points":
        block = _require_mapping(raw.get("fixed_points"), "fixed_points")
        _reject_unknown(block, ("n_seeds",), "fixed_points")
        cfg.fixed_points = FixedPointOpts(
            n_seeds=_get_int(block, "n_seeds", "fixed_points", default=200, minimum=1)
        )
    elif task == "mf-evolve":
        block = _require_mapping(raw.get("evolve"), "evolve")
        _reject_unknown(
            block, ("initials", "t_end", "rel_tol", "abs_tol", "transient_fraction"), "evolve"
        )
        t_end = _positive(_get_number(block, "t_end", "evolve", default=200.0), "evolve.t_end")
        frac = _get_number(block, "transient_fraction", "evolve", default=0.5)
        if not 0.0 <= frac < 1.0:
            raise ConfigError(f"evolve.transient_fraction: must be in [0, 1), got {frac}")
        cfg.evolve = EvolveOpts(
            initials=_parse_initials(block, "evolve"),
            t_end=t_end,
            rel_tol=_positive(_get_number(block, "rel_tol", "evolve", default=1e-10), "evolve.rel_tol"),
            abs_tol=_positive(_get_number(block, "abs_tol", "evolve", default=1e-12), "evolve.abs_tol"),
            transient_fraction=frac,
        )
    elif task in ("mf-phase-diagram", "multistability", "quantum-steady", "quantum-gap"):
        grid_required = task in ("mf-phase-diagram", "multistability")
        cfg.grid = _parse_grid(raw, model, required=grid_required)
        block = _require_mapping(raw.get("options"), "options")
        _reject_unknown(
            block, ("n_seeds", "select_branch", "detect_cycles", "settle_time", "gap_k"), "options"
        )
        cfg.sweep_opts = SweepOpts(
            n_seeds=_get_int(block, "n_seeds", "options", default=200, minimum=1),
            select_branch=_get_bool(block, "select_branch", "options", True),
            detect_cycles=_get_bool(block, "detect_cycles", "options", True),
            settle_time=_positive(
                _get_number(block, "settle_time", "options", default=200.0), "options.settle_time"
            ),
            gap_k=_get_int(block, "gap_k", "options", default=12, minimum=2),
        )
        if task == "quantum-steady" and "gap_k" in block:
            # still accepted, so that older metadata.json files load
            warnings.warn(
                "options.gap_k: ignored for task quantum-steady, whose steady state "
                "is a direct sparse solve; it sets the mode count of quantum-gap",
                UserWarning,
                stacklevel=2,
            )
        if task == "multistability" and cfg.grid is not None:
            names = {cfg.grid.axis1.name} | ({cfg.grid.axis2.name} if cfg.grid.axis2 else set())
            if not names <= {"g", "p"}:
                raise ConfigError(f"grid: multistability sweeps (g, p); got axes {sorted(names)}")
    elif task == "quantum-evolve":
        block = _require_mapping(raw.get("quantum_evolve"), "quantum_evolve")
        _reject_unknown(
            block, ("initial", "t_end", "n_snapshots", "rel_tol", "abs_tol"), "quantum_evolve"
        )
        initial = block.get("initial", "south")
        if isinstance(initial, dict):
            _reject_unknown(initial, ("theta", "phi"), "quantum_evolve.initial")
            initial = {
                "theta": _get_number(initial, "theta", "quantum_evolve.initial", required=True),
                "phi": _get_number(initial, "phi", "quantum_evolve.initial", default=0.0),
            }
        elif initial not in ("south", "north", "mixed"):
            raise ConfigError(
                "quantum_evolve.initial: must be south, north, mixed or {theta, phi}, "
                f"got {initial!r}"
            )
        cfg.quantum_evolve = QuantumEvolveOpts(
            initial=initial,
            t_end=_positive(
                _get_number(block, "t_end", "quantum_evolve", default=100.0), "quantum_evolve.t_end"
            ),
            n_snapshots=_get_int(block, "n_snapshots", "quantum_evolve", default=201, minimum=2),
            rel_tol=_positive(
                _get_number(block, "rel_tol", "quantum_evolve", default=1e-10),
                "quantum_evolve.rel_tol",
            ),
            abs_tol=_positive(
                _get_number(block, "abs_tol", "quantum_evolve", default=1e-12),
                "quantum_evolve.abs_tol",
            ),
        )
    elif task == "hysteresis":
        block = _require_mapping(raw.get("hysteresis"), "hysteresis")
        _reject_unknown(
            block,
            ("p_min", "p_max", "count", "direction", "solver", "settle_time", "window", "threshold"),
            "hysteresis",
        )
        opts = HysteresisOpts(
            p_min=_get_number(block, "p_min", "hysteresis", default=0.0),
            p_max=_get_number(block, "p_max", "hysteresis", default=1.0),
            count=_get_int(block, "count", "hysteresis", default=51, minimum=1),
            direction=_get_choice(block, "direction", "hysteresis", ("up", "down", "both"), default="both"),
            solver=_get_choice(block, "solver", "hysteresis", ("mf", "quantum"), default="mf"),
            settle_time=_positive(
                _get_number(block, "settle_time", "hysteresis", default=200.0), "hysteresis.settle_time"
            ),
            window=_positive(_get_number(block, "window", "hysteresis", default=40.0), "hysteresis.window"),
            threshold=_positive(
                _get_number(block, "threshold", "hysteresis", default=0.05), "hysteresis.threshold"
            ),
        )
        if not 0.0 <= opts.p_min <= 1.0 or not 0.0 <= opts.p_max <= 1.0:
            raise ConfigError("hysteresis: p_min and p_max must lie in [0, 1]")
        if opts.p_min > opts.p_max:
            raise ConfigError(f"hysteresis: p_min must be <= p_max, got [{opts.p_min}, {opts.p_max}]")
        if opts.count == 1 and opts.p_min != opts.p_max:
            raise ConfigError("hysteresis: count=1 requires p_min == p_max")
        if opts.solver == "quantum" and model.N is None:
            raise ConfigError("model.N: required for hysteresis with the quantum solver")
        cfg.hysteresis = opts
    elif task == "boundaries":
        block = _require_mapping(raw.get("boundaries"), "boundaries")
        _reject_unknown(block, ("V_min", "V_max", "count"), "boundaries")
        opts = BoundaryOpts(
            V_min=_get_number(block, "V_min", "boundaries", default=-10.0),
            V_max=_get_number(block, "V_max", "boundaries", default=-0.5),
            count=_get_int(block, "count", "boundaries", default=96, minimum=1),
        )
        if opts.V_min > opts.V_max:
            raise ConfigError(f"boundaries: V_min must be <= V_max, got [{opts.V_min}, {opts.V_max}]")
        cfg.boundaries = opts

    return cfg


def load_raw(path) -> dict:
    """Read a config mapping from YAML/JSON, unwrapping run metadata files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    raw = _require_mapping(raw, "config")
    if "config" in raw and isinstance(raw["config"], dict) and "task" in raw["config"]:
        raw = raw["config"]  # a metadata file written by a previous run
    return raw


def load_config(path) -> RunConfig:
    return validate_config(load_raw(path))


def resolved_dict(cfg: RunConfig) -> dict:
    """Config mapping with every default materialized (metadata payload)."""
    model = {"V": cfg.model.V, "g": cfg.model.g, "p": cfg.model.p, "Gamma": cfg.model.Gamma}
    if cfg.model.N is not None:
        model["N"] = cfg.model.N
    out: dict = {
        "task": cfg.task,
        "model": model,
        "workers": cfg.workers,
        "rng_seed": cfg.rng_seed,
        "output": {"dir": cfg.output_dir, "format": cfg.output_format},
    }
    if cfg.output_dir is None:
        del out["output"]["dir"]
    if cfg.grid is not None:
        grid: dict = {
            "axis1": {
                "name": cfg.grid.axis1.name,
                "min": cfg.grid.axis1.start,
                "max": cfg.grid.axis1.stop,
                "count": cfg.grid.axis1.count,
            }
        }
        if cfg.grid.axis2 is not None:
            grid["axis2"] = {
                "name": cfg.grid.axis2.name,
                "min": cfg.grid.axis2.start,
                "max": cfg.grid.axis2.stop,
                "count": cfg.grid.axis2.count,
            }
        out["grid"] = grid
    if cfg.fixed_points is not None:
        out["fixed_points"] = {"n_seeds": cfg.fixed_points.n_seeds}
    if cfg.evolve is not None:
        out["evolve"] = {
            "initials": cfg.evolve.initials,
            "t_end": cfg.evolve.t_end,
            "rel_tol": cfg.evolve.rel_tol,
            "abs_tol": cfg.evolve.abs_tol,
            "transient_fraction": cfg.evolve.transient_fraction,
        }
    if cfg.sweep_opts is not None:
        out["options"] = {
            "n_seeds": cfg.sweep_opts.n_seeds,
            "select_branch": cfg.sweep_opts.select_branch,
            "detect_cycles": cfg.sweep_opts.detect_cycles,
            "settle_time": cfg.sweep_opts.settle_time,
            "gap_k": cfg.sweep_opts.gap_k,
        }
        if cfg.task == "quantum-steady":
            del out["options"]["gap_k"]
    if cfg.quantum_evolve is not None:
        out["quantum_evolve"] = {
            "initial": cfg.quantum_evolve.initial,
            "t_end": cfg.quantum_evolve.t_end,
            "n_snapshots": cfg.quantum_evolve.n_snapshots,
            "rel_tol": cfg.quantum_evolve.rel_tol,
            "abs_tol": cfg.quantum_evolve.abs_tol,
        }
    if cfg.hysteresis is not None:
        out["hysteresis"] = {
            "p_min": cfg.hysteresis.p_min,
            "p_max": cfg.hysteresis.p_max,
            "count": cfg.hysteresis.count,
            "direction": cfg.hysteresis.direction,
            "solver": cfg.hysteresis.solver,
            "settle_time": cfg.hysteresis.settle_time,
            "window": cfg.hysteresis.window,
            "threshold": cfg.hysteresis.threshold,
        }
    if cfg.boundaries is not None:
        out["boundaries"] = {
            "V_min": cfg.boundaries.V_min,
            "V_max": cfg.boundaries.V_max,
            "count": cfg.boundaries.count,
        }
    return out
