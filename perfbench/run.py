"""Benchmark of the dissipative-ising CLI on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout and driven through ``cli.main`` in this one
process, with one BLAS/OpenMP thread and ``workers: 1``, round after
round for S seconds (whole rounds; at least one).  Every round's CSV rows are checked
against references computed apart from the program (see check.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
``points_per_s`` (median over rounds), ``setup_s`` (median of five
fresh-interpreter set-ups after a warm-up) and ``peak_rss_mb`` (through
the first round).  With ``--trace 1`` untraced and traced rounds
alternate and the line reports the per-layer metrics (medians over
traced rounds) plus the tracing overhead.  Scratch output goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: on a
# small box a BLAS thread pool competes with the process for cores.
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402


def measure_setup(config_path: str) -> float:
    """Median fresh-interpreter set-up time, after one untimed warm-up."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for k in range(SETUP_REPEATS + 1):
        launch = time.time()
        done = subprocess.run(
            [sys.executable, probe, SRC, config_path, repr(launch)],
            capture_output=True, text=True, env={**os.environ, **THREAD_ENV}, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        if k:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def load_refs() -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    for name, cfg in refs["configs"].items():
        if cfg != wl.WORKLOADS[name]:
            raise RuntimeError(f"refs.json was made for another {name} config; rerun make_refs.py")
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dissipative_ising", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    from tracing import Tracer, layer_metrics, median_metrics

    refs = load_refs()
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(wl.config(args.workload, args.seed), fh)  # JSON is YAML

    setup_s = None if args.trace else measure_setup(config_path)

    from dissipative_ising import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    tracer = Tracer()
    rates, untraced_walls, traced = [], [], []
    attempted = failed = 0
    correct = True
    failure_pattern = None
    # Whole rounds only; stop before a round that would end past the run
    # length, once there is one round of each kind.
    start = time.perf_counter()
    k = 0
    while True:
        with_trace = bool(args.trace) and k % 2 == 1
        out_dir = os.path.join(run_dir, f"round{k}")
        first_span = len(tracer.spans)
        ctx = tracer.installed() if with_trace else contextlib.nullcontext()
        with ctx, contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            rc = cli.main([config_path, "--output-dir", out_dir])
            wall = time.perf_counter() - t0
        if k == 0:
            # later rounds repeat the work, but heap growth across rounds
            # would tie the peak to how many rounds fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = wl.operations(args.workload)
        attempted += ops
        if rc != 0:
            print(f"perfbench: cli.main exited {rc} in round {k}", file=sys.stderr)
            failed += ops
            correct = False
            break
        verdict = check.check_round(args.workload, out_dir, refs)
        failed += len(verdict.failed)
        for msg in verdict.structural:
            print(f"perfbench: round {k}: {msg}", file=sys.stderr)
            correct = False
        if failure_pattern is None:
            failure_pattern = sorted(verdict.failed)
            for key, problems in sorted(verdict.failed.items()):
                print(f"perfbench: failed {key}: {'; '.join(problems)}", file=sys.stderr)
        elif sorted(verdict.failed) != failure_pattern:
            print(f"perfbench: round {k} failed other rows than round 0", file=sys.stderr)
            correct = False
        shutil.rmtree(out_dir)
        print(f"perfbench: round {k} ({'traced' if with_trace else 'untraced'}): {wall:.3f} s", file=sys.stderr)
        if with_trace:
            traced.append(layer_metrics(tracer, first_span, wall))
        else:
            rates.append(ops / wall)
            untraced_walls.append(wall)
        k += 1
        if time.perf_counter() - start + wall > args.seconds and (not args.trace or traced):
            break

    if args.trace:
        spans_path = os.path.join(run_dir, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        metrics = median_metrics(traced) if traced else {}
        if traced:
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
        units = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    else:
        metrics = {
            "points_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    raise SystemExit(main())
