"""Spans around the program's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function, in every loaded
``dissipative_ising`` module that holds a reference to it, by a wrapper
that records a span (name, start, end, parent) in memory, and puts the
originals back on exit.  Integrator and eigensolver calls made by the
program are wrapped too, to count right-hand-side evaluations and
ARPACK calls and to time the eigensolve.  Nothing in the program is
edited.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import sys
import time

import scipy.linalg

# (module, function) pairs timed as spans.  sweep._select_branch is the
# one private function: it marks the points that ran branch selection.
SPANS = [
    ("meanfield", "find_fixed_points"),
    ("meanfield", "settle"),
    ("meanfield", "integrate_trajectory"),
    ("meanfield", "detect_limit_cycle"),
    ("liouville", "build_liouvillian"),
    ("liouville", "steady_state"),
    ("liouville", "liouvillian_gap"),
    ("liouville", "evolve_rho"),
    ("liouville", "magnetization"),
    ("sweep", "phase_diagram"),
    ("sweep", "hysteresis_experiment"),
    ("sweep", "_select_branch"),
    ("config", "validate_config"),
    ("cli", "main"),
    ("cli", "execute"),
    ("tables", "write_table"),
]
SWEEP_SPANS = ("sweep.phase_diagram", "sweep.hysteresis_experiment", "sweep._select_branch")
EIGENSOLVE = "liouville.eigensolve"


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _enter(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _current(self) -> dict | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def _wrap(self, name: str, fn, after=None):
        """Span around ``fn``; ``after(span, result, bound_arguments)`` adds counts."""
        signature = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(span, result, bound)
                return result
            finally:
                self._exit(span)

        return wrapper

    def _count_nfev(self, fn):
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            span = self._current()
            if span is not None:
                span["rhs_evals"] = span.get("rhs_evals", 0) + int(sol.nfev)
            return sol

        return wrapper

    def _count_arpack(self, timed):
        """Count ARPACK calls, failed ones too, on the calling solve's span."""
        def wrapper(*args, **kwargs):
            span = self._current()
            if span is not None:
                span["arpack"] = span.get("arpack", 0) + 1
            return timed(*args, **kwargs)

        return wrapper

    @staticmethod
    def _after_find(span, result, bound):
        span["roots"] = len(result)
        span["seeds"] = bound.arguments["n_seeds"]

    @staticmethod
    def _after_write(span, _result, bound):
        span["bytes"] = os.path.getsize(bound.arguments["path"])

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's modules for the duration of the block."""
        import dissipative_ising  # noqa: F401  (loads every submodule)

        pkg = "dissipative_ising"
        modules = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        replacements = []
        for mod, fn_name in SPANS:
            original = getattr(sys.modules[f"{pkg}.{mod}"], fn_name)
            after = {"find_fixed_points": self._after_find, "write_table": self._after_write}.get(fn_name)
            replacements.append((original, self._wrap(f"{mod}.{fn_name}", original, after)))
        # meanfield, liouville and cli share scipy's solve_ivp
        integrator = sys.modules[f"{pkg}.meanfield"].solve_ivp
        replacements.append((integrator, self._count_nfev(integrator)))
        arpack = sys.modules[f"{pkg}.liouville"].eigs
        replacements.append((arpack, self._count_arpack(self._wrap(EIGENSOLVE, arpack))))
        wrappers = {id(original): (original, wrapper) for original, wrapper in replacements}
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is wrappers[id(value)][0]:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        dense_eig = scipy.linalg.eig
        scipy.linalg.eig = self._wrap(EIGENSOLVE, dense_eig)
        try:
            yield self
        finally:
            scipy.linalg.eig = dense_eig
            for module, attr, value in restore:
                setattr(module, attr, value)

    # ------------------------------------------------------------------

    def self_times(self, first: int = 0) -> list[tuple[dict, float]]:
        """(span, self time) for spans[first:], self = duration - children."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None and s["parent"] >= first:
                child[s["parent"] - first] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - c) for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, first: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round (spans[first:])."""
    by_name: dict[str, list] = {}
    for span, self_s in tracer.self_times(first):
        by_name.setdefault(span["name"], []).append((span, self_s))

    def total(name, key=None):
        items = by_name.get(name, [])
        if key is None:
            return float(sum(s for _, s in items))
        return sum(span.get(key, 0) for span, _ in items)

    def calls(name):
        return len(by_name.get(name, []))

    finds = by_name.get("meanfield.find_fixed_points", [])
    seeds = sum(span["seeds"] for span, _ in finds)
    settles_in_selection = sum(
        1 for span, _ in by_name.get("meanfield.settle", [])
        if span["parent"] is not None and tracer.spans[span["parent"]]["name"] == "sweep._select_branch"
    )
    solves = [span for name in ("liouville.steady_state", "liouville.liouvillian_gap")
              for span, _ in by_name.get(name, []) if span.get("arpack")]
    named = sum(s for name, items in by_name.items() if name != "cli.main" for _, s in items)
    return {
        "meanfield.find_fixed_points.s": total("meanfield.find_fixed_points"),
        "meanfield.find_fixed_points.calls": calls("meanfield.find_fixed_points"),
        "meanfield.find_fixed_points.roots_per_seed": total("meanfield.find_fixed_points", "roots") / seeds if seeds else 0.0,
        "meanfield.settle.s": total("meanfield.settle"),
        "meanfield.settle.calls": calls("meanfield.settle"),
        "meanfield.settle.rhs_evals": total("meanfield.settle", "rhs_evals"),
        "meanfield.integrate_trajectory.s": total("meanfield.integrate_trajectory"),
        "meanfield.integrate_trajectory.rhs_evals": total("meanfield.integrate_trajectory", "rhs_evals"),
        "meanfield.detect_limit_cycle.s": total("meanfield.detect_limit_cycle"),
        "sweep.settle_windows_per_point": (
            settles_in_selection / calls("sweep._select_branch") if calls("sweep._select_branch") else 0.0
        ),
        "sweep.self_s": sum(total(name) for name in SWEEP_SPANS),
        "liouville.build_liouvillian.s": total("liouville.build_liouvillian"),
        "liouville.build_liouvillian.calls": calls("liouville.build_liouvillian"),
        "liouville.steady_state.s": total("liouville.steady_state"),
        "liouville.steady_state.calls": calls("liouville.steady_state"),
        "liouville.liouvillian_gap.s": total("liouville.liouvillian_gap"),
        "liouville.liouvillian_gap.calls": calls("liouville.liouvillian_gap"),
        "liouville.arpack_calls_per_solve": (
            sum(span["arpack"] for span in solves) / len(solves) if solves else 0.0
        ),
        "liouville.eigensolve.s": total(EIGENSOLVE),
        "liouville.evolve_rho.s": total("liouville.evolve_rho"),
        "liouville.evolve_rho.calls": calls("liouville.evolve_rho"),
        "liouville.evolve_rho.rhs_evals": total("liouville.evolve_rho", "rhs_evals"),
        "liouville.magnetization.s": total("liouville.magnetization"),
        "config.validate_config.s": total("config.validate_config"),
        "cli.execute.s": total("cli.execute"),
        "tables.write_table.s": total("tables.write_table"),
        "tables.bytes_written": total("tables.write_table", "bytes"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - named,
    }


def median_metrics(per_round: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
