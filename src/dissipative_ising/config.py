"""Run configuration: schema, strict validation, defaults, round-trip.

A run is described by one YAML (or JSON) mapping with a ``task`` key,
a ``model`` block and at most one task-specific block.  ``READS`` lists
the keys each task's runner reads; those are the keys a config may set,
and ``resolved_dict`` writes exactly those, every default materialized,
so that the metadata written after a run can be reloaded as a config
that reproduces it exactly.  The ``RETIRED_KEYS`` that a task does not
read are dropped on load with one warning, so that older configs and
metadata files still load; every other unknown key is rejected, and
every invariant violation is reported with the offending key path.
Numerics settings with one value in use are constants of the solvers,
not keys: settle windows, cycle detection, the bistable split and the
integrator tolerances.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field, replace

import yaml

from .errors import ConfigError
from .liouville import N_LIMIT
from .meanfield import ModelParams
from .sweep import SWEEPABLE_NAMES, Axis, GridSpec

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

_GRID = ("axis1", "axis2")
_HYSTERESIS = ("p_min", "p_max", "count", "direction", "solver")

# The task-specific keys each runner reads, block by block; "config" is
# the top level, where only the grid tasks, which run a worker pool,
# read "workers".  Hysteresis depends on its solver: only "quantum"
# reads window.
_POOL = {"config": ("workers",)}
READS = {
    "mf-fixed-points": {},
    "mf-evolve": {"evolve": ("initials", "t_end")},
    "mf-phase-diagram": {**_POOL, "grid": _GRID, "options": ("select_branch",)},
    "multistability": {**_POOL, "grid": _GRID},
    "quantum-steady": {**_POOL, "grid": _GRID},
    "quantum-gap": {**_POOL, "grid": _GRID},
    "quantum-evolve": {"quantum_evolve": ("initial", "t_end", "n_snapshots")},
    "hysteresis:mf": {"hysteresis": _HYSTERESIS},
    "hysteresis:quantum": {"hysteresis": _HYSTERESIS + ("window",)},
    "boundaries": {"boundaries": ("V_min", "V_max", "count")},
}

# Keys read by every task; "config" is the top level.
_COMMON = {
    "config": ("task", "model", "output"),
    "model": ("V", "g", "p", "Gamma", "N"),
    "output": ("dir",),
}

# Keys that configs and metadata files of earlier versions carry but no
# runner reads.  Where a task does not read one it is dropped on load,
# its value unchecked, with one warning naming every dropped path.  The
# numerics knobs among them each had one value in use, which the run
# now fixes: settle windows of 200, cycle detection on (in mf-evolve;
# branch selection runs none), the bistable split 0.05, integrator
# tolerances 1e-10 and 1e-12 and the limit-cycle transient fraction 0.5.
RETIRED_KEYS = (
    "rng_seed",
    "workers",
    "output.format",
    "fixed_points.n_seeds",
    "options.n_seeds",
    "options.select_branch",
    "options.detect_cycles",
    "options.settle_time",
    "options.gap_k",
    "hysteresis.settle_time",
    "hysteresis.threshold",
    "hysteresis.window",
    "evolve.rel_tol",
    "evolve.abs_tol",
    "evolve.transient_fraction",
    "quantum_evolve.rel_tol",
    "quantum_evolve.abs_tol",
)

_BLOCKS = {name for blocks in READS.values() for name in blocks} - {"config"}


@dataclass
class EvolveOpts:
    initials: list[list[float]] = field(default_factory=lambda: [[0.0, 0.0, 1.0]])
    t_end: float = 200.0


@dataclass
class SweepOpts:
    select_branch: bool = True


@dataclass
class QuantumEvolveOpts:
    initial: str | dict = "south"
    t_end: float = 100.0
    n_snapshots: int = 201


@dataclass
class HysteresisOpts:
    p_min: float = 0.0
    p_max: float = 1.0
    count: int = 51
    direction: str = "both"
    solver: str = "mf"
    window: float = 40.0


@dataclass
class BoundaryOpts:
    V_min: float = -10.0
    V_max: float = -0.5
    count: int = 96


_OPTS = {
    "evolve": EvolveOpts,
    "options": SweepOpts,
    "quantum_evolve": QuantumEvolveOpts,
    "hysteresis": HysteresisOpts,
    "boundaries": BoundaryOpts,
}


@dataclass
class RunConfig:
    """A validated run; each block attribute is set for the tasks that read it."""

    task: str
    model: ModelParams
    workers: int = 1
    output_dir: str | None = None
    grid: GridSpec | None = None
    evolve: EvolveOpts | None = None
    options: SweepOpts | None = None
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


def _require(block: dict, keys, where: str):
    for key in keys:
        if key not in block:
            raise ConfigError(f"{where}.{key}: required key is missing")


# Value checks, ``check(value, where) -> value``.  Defaults come from the
# block's dataclass.

def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    value = _number(value, where)
    if value <= 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


def _integer(minimum=None):
    def check(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
        return value

    return check


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    return value


def _one_of(*choices):
    def check(value, where: str):
        if value not in choices:
            raise ConfigError(f"{where}: must be one of {sorted(choices)}, got {value!r}")
        return value

    return check


def _initials(value, where: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of [X, Y, Z]")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        value = [value]  # a single bare triple
    out = []
    for i, entry in enumerate(value):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
        ):
            raise ConfigError(f"{where}[{i}]: expected [X, Y, Z] numbers")
        out.append([float(v) for v in entry])
    return out


def _initial_state(value, where: str):
    if isinstance(value, dict):
        _reject_unknown(value, ("theta", "phi"), where)
        _require(value, ("theta",), where)
        return {
            "theta": _number(value["theta"], f"{where}.theta"),
            "phi": _number(value.get("phi", 0.0), f"{where}.phi"),
        }
    if value not in ("south", "north", "mixed"):
        raise ConfigError(f"{where}: must be south, north, mixed or {{theta, phi}}, got {value!r}")
    return value


_CHECKS = {
    "config.workers": _integer(1),
    "model.V": _number,
    "model.g": _number,
    "model.p": _number,
    "model.Gamma": _number,
    "model.N": _integer(),
    "evolve.initials": _initials,
    "evolve.t_end": _positive,
    "options.select_branch": _boolean,
    "quantum_evolve.initial": _initial_state,
    "quantum_evolve.t_end": _positive,
    "quantum_evolve.n_snapshots": _integer(2),
    "hysteresis.p_min": _number,
    "hysteresis.p_max": _number,
    "hysteresis.count": _integer(1),
    "hysteresis.direction": _one_of("up", "down", "both"),
    "hysteresis.solver": _one_of("mf", "quantum"),
    "hysteresis.window": _positive,
    "boundaries.V_min": _number,
    "boundaries.V_max": _number,
    "boundaries.count": _integer(1),
}


def _checked(block: dict, keys, where: str) -> dict:
    """The entries of ``block``, each checked; keys outside ``keys`` are rejected."""
    _reject_unknown(block, keys, where)
    return {key: _CHECKS[f"{where}.{key}"](value, f"{where}.{key}") for key, value in block.items()}


def _schema(task: str, solver: str | None) -> str:
    return f"{task}:{solver}" if task == "hysteresis" else task


def _reads(schema: str) -> dict:
    """Block name -> keys read, the top level and the shared blocks included."""
    blocks = READS[schema]
    top = _COMMON["config"] + blocks.get("config", ()) + tuple(b for b in blocks if b != "config")
    return {**_COMMON, **blocks, "config": top}


def _drop_retired(raw: dict, reads: dict) -> dict:
    """``raw`` without the retired keys its task does not read; warns once.

    A block that only held retired keys is dropped with them.
    """
    raw = dict(raw)
    dropped = []
    for path in RETIRED_KEYS:
        block, _, key = path.rpartition(".")
        if key in reads.get(block or "config", ()):
            continue
        if not block:
            if key in raw:
                del raw[key]
                dropped.append(path)
        elif isinstance(raw.get(block), dict) and key in raw[block]:
            raw[block] = {k: v for k, v in raw[block].items() if k != key}
            dropped.append(path)
            if not raw[block]:
                del raw[block]
    if dropped:
        warnings.warn(
            f"retired config keys dropped, no run reads them: {', '.join(dropped)}",
            UserWarning,
            stacklevel=3,
        )
    return raw


def _parse_model(block: dict) -> ModelParams:
    values = {"V": 0.0, "g": 0.0, "p": 0.0, **_checked(block, _COMMON["model"], "model")}
    try:
        return ModelParams(**values)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_axis(raw, where: str) -> Axis:
    block = _require_mapping(raw, where)
    _reject_unknown(block, ("name", "min", "max", "count"), where)
    _require(block, ("name", "min", "max", "count"), where)
    name = _one_of(*SWEEPABLE_NAMES)(block["name"], f"{where}.name")
    lo, hi = _number(block["min"], f"{where}.min"), _number(block["max"], f"{where}.max")
    count = _integer(2)(block["count"], f"{where}.count")
    try:
        return Axis(name=name, start=lo, stop=hi, count=count)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_grid(raw: dict, model: ModelParams) -> GridSpec:
    """The grid, each axis endpoint checked as a ``ModelParams`` value."""
    block = _require_mapping(raw, "grid")
    _reject_unknown(block, _GRID, "grid")
    _require(block, ("axis1",), "grid")
    axes = {key: _parse_axis(block[key], f"grid.{key}")
            for key in _GRID if block.get(key) is not None}
    for key, axis in axes.items():
        for value in (axis.start, axis.stop):
            try:
                replace(model, **{axis.name: value})
            except ValueError as exc:
                raise ConfigError(f"grid.{key}: {exc}") from exc
    try:
        return GridSpec(axis1=axes["axis1"], axis2=axes.get("axis2"), fixed=model)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _check_invariants(cfg: RunConfig, quantum: bool):
    """Conditions across keys, once every key has been checked on its own."""
    if quantum and cfg.model.N is None:
        raise ConfigError(f"model.N: required by the quantum solver of task {cfg.task}")
    if quantum and cfg.model.N > N_LIMIT:
        raise ConfigError(f"model.N: quantum solvers are capped at N={N_LIMIT}, got {cfg.model.N}")
    if cfg.task in ("mf-phase-diagram", "multistability") and cfg.grid is None:
        raise ConfigError("grid: required block is missing")
    if cfg.task == "multistability":
        names = {cfg.grid.axis1.name} | ({cfg.grid.axis2.name} if cfg.grid.axis2 else set())
        if not names <= {"g", "p"}:
            raise ConfigError(f"grid: multistability sweeps (g, p); got axes {sorted(names)}")
    opts = cfg.hysteresis
    if opts is not None:
        if not 0.0 <= opts.p_min <= 1.0 or not 0.0 <= opts.p_max <= 1.0:
            raise ConfigError("hysteresis: p_min and p_max must lie in [0, 1]")
        if opts.p_min > opts.p_max:
            raise ConfigError(f"hysteresis: p_min must be <= p_max, got [{opts.p_min}, {opts.p_max}]")
        if opts.count == 1 and opts.p_min != opts.p_max:
            raise ConfigError("hysteresis: count=1 requires p_min == p_max")
        if opts.count > 1 and opts.p_min == opts.p_max:
            raise ConfigError("hysteresis: count > 1 requires p_min < p_max")
    opts = cfg.boundaries
    if opts is not None and opts.V_min > opts.V_max:
        raise ConfigError(f"boundaries: V_min must be <= V_max, got [{opts.V_min}, {opts.V_max}]")


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping into a RunConfig, or raise ConfigError."""
    raw = _require_mapping(raw, "config")
    _require(raw, ("task",), "config")
    task = _one_of(*TASKS)(raw["task"], "config.task")
    solver = None
    if task == "hysteresis":
        block = _require_mapping(raw.get("hysteresis"), "hysteresis")
        solver = _CHECKS["hysteresis.solver"](block.get("solver", "mf"), "hysteresis.solver")
    schema = _schema(task, solver)
    reads = _reads(schema)
    raw = _drop_retired(raw, reads)
    invalid = sorted(_BLOCKS & set(raw) - set(reads))
    if invalid:
        raise ConfigError(f"{invalid[0]}: block is not valid for task {task}")
    _reject_unknown(raw, reads["config"], "config")

    model = _parse_model(_require_mapping(raw.get("model"), "model"))
    output = _require_mapping(raw.get("output"), "output")
    _reject_unknown(output, reads["output"], "output")
    output_dir = output.get("dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output.dir: expected a string, got {output_dir!r}")
    top = READS[schema].get("config", ())
    cfg = RunConfig(
        task=task,
        model=model,
        output_dir=output_dir,
        **_checked({key: raw[key] for key in top if key in raw}, top, "config"),
    )
    for name, keys in READS[schema].items():
        if name == "grid":
            if "grid" in raw:
                cfg.grid = _parse_grid(raw["grid"], model)
        elif name != "config":
            block = _require_mapping(raw.get(name), name)
            setattr(cfg, name, _OPTS[name](**_checked(block, keys, name)))
    _check_invariants(cfg, quantum=task in QUANTUM_TASKS or solver == "quantum")
    return cfg


class _Loader(yaml.SafeLoader):
    """YAML 1.1 safe loading that also reads exponent floats without a dot.

    Plain YAML 1.1 takes 1e-9 for a string (its floats need a dot);
    here it is the float, as in YAML 1.2 and JSON.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def load_raw(path) -> dict:
    """Read a config mapping from YAML/JSON, unwrapping run metadata files.

    JSON text is read as JSON, and YAML reads 1e-9 as a float (``_Loader``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError:
        try:
            raw = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    raw = _require_mapping(raw, "config")
    if "config" in raw and isinstance(raw["config"], dict) and "task" in raw["config"]:
        raw = raw["config"]  # a metadata file written by a previous run
    return raw


def load_config(path) -> RunConfig:
    return validate_config(load_raw(path))


def _axis_dict(axis: Axis) -> dict:
    return {"name": axis.name, "min": axis.start, "max": axis.stop, "count": axis.count}


def resolved_dict(cfg: RunConfig) -> dict:
    """Config mapping with every key the task reads, defaults materialized.

    This is the metadata payload; it reloads to an equal RunConfig.
    """
    model = {"V": cfg.model.V, "g": cfg.model.g, "p": cfg.model.p, "Gamma": cfg.model.Gamma}
    if cfg.model.N is not None:
        model["N"] = cfg.model.N
    out: dict = {"task": cfg.task, "model": model}
    if cfg.output_dir is not None:
        out["output"] = {"dir": cfg.output_dir}
    solver = cfg.hysteresis.solver if cfg.hysteresis is not None else None
    for name, keys in READS[_schema(cfg.task, solver)].items():
        if name == "config":
            out.update({key: getattr(cfg, key) for key in keys})
        elif name != "grid":
            out[name] = {key: getattr(getattr(cfg, name), key) for key in keys}
        elif cfg.grid is not None:
            out["grid"] = {"axis1": _axis_dict(cfg.grid.axis1)}
            if cfg.grid.axis2 is not None:
                out["grid"]["axis2"] = _axis_dict(cfg.grid.axis2)
    return out
