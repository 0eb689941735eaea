"""FairPrep benchmark: one command per workload, described by BENCHMARK.json.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_lr --seed 0 --seconds 20 --trace 0

Workloads: ``grid_lr``, ``grid_clean``, ``grid_sweep`` (grids through
``ExecutionPlan.for_grid`` and ``SerialExecutor.run``) and ``serve_http``
(``repro serve`` with its CLI defaults). ``--seed`` draws the grid run
seeds or the served records and their order. ``--trace 0`` measures and
prints every end-to-end metric; ``--trace 1`` measures once untraced and
once with the layer wrappers installed, prints every per-layer metric and
writes the full per-layer JSON under ``.perfbench_work/``.

The last stdout line is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). A failed correctness
check makes ``correct`` false and the exit code 1; the workload's error
rate is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("grid_lr", "grid_clean", "grid_sweep", "serve_http")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        description = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in description["end_to_end"]},
        {m["name"]: m["unit"] for m in description["per_layer"]},
    )


def measure(args, work_dir: str, tracer=None):
    if args.workload == "serve_http":
        import serve

        return serve.measure(args.seed, args.seconds, work_dir, tracer is not None)
    import grids

    return grids.measure(args.workload, args.seed, work_dir, tracer)


def traced(args, work_dir: str):
    """An untraced pass, then a traced one; per-layer values and bases."""
    import layers
    import tracing

    plain = measure(args, work_dir)
    tracer = tracing.Tracer()
    if args.workload != "serve_http":
        tracing.install_grid_layers(tracer)
    outcome = measure(args, work_dir, tracer)
    overhead = (
        plain.metrics["throughput_per_s"] / outcome.metrics["throughput_per_s"] - 1.0
    ) * 100.0
    if args.workload == "serve_http":
        values, bases, detail = layers.serve_layers(outcome.raw, overhead)
    else:
        values, bases, detail = layers.grid_layers(
            tracer.snapshot(), outcome.raw, plain.raw["wall_s"], overhead
        )
    bases["trace.overhead_pct"] = {
        "untraced_throughput_per_s": plain.metrics["throughput_per_s"],
        "traced_throughput_per_s": outcome.metrics["throughput_per_s"],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": values,
        "ratio_bases": bases,
        "layers": detail,
        "notes": outcome.notes,
    }
    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"per-layer breakdown written to {path}", file=sys.stderr)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    return outcome, values


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its servers and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    end_to_end, per_layer = declared_metrics()

    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            outcome, values = traced(args, work_dir)
            units = per_layer
        else:
            outcome = measure(args, work_dir)
            values, units = outcome.metrics, end_to_end
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in outcome.notes.items()))
    for name in units:
        print(f"  {name:42s} {values[name]:14.6g} {units[name]}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }))
    # a failed correctness check fails the command, after the result line
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    sys.exit(main())
