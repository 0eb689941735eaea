"""Grid workloads: the paper's studies driven through the public grid API.

Every grid goes ``load_dataset`` -> ``ExecutionPlan.for_grid`` ->
``SerialExecutor().run(plan, results_store=ResultsStore(...))``. The serial
executor keeps the measurement on the program, not on a process pool
sharing two cores with itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from typing import List

import numpy as np

from common import Outcome, peak_rss_mb
from repro import core
from repro.datasets import load_dataset

# The interventions and their settings are the ones ``repro grid`` offers
# under the same names.
INTERVENTIONS = {
    "none": core.NoIntervention,
    "reweighing": core.ReweighingPreProcessor,
    "di-remover-0.5": lambda: core.DIRemover(0.5),
    "di-remover-1.0": lambda: core.DIRemover(1.0),
    "reject-option": lambda: core.RejectOptionPostProcessor(
        num_class_thresh=20, num_ROC_margin=15
    ),
    "cal-eq-odds": core.CalibratedEqOddsPostProcessor,
}

HANDLERS = {
    "none": lambda: None,
    "complete-case": core.CompleteCaseAnalysis,
    "mode": core.ModeImputer,
    "learned": core.DatawigImputer,
}

LEARNERS = {
    "lr-tuned": lambda: core.LogisticRegression(tuned=True),
    "lr": lambda: core.LogisticRegression(tuned=False),
    "nb": core.NaiveBayes,
}

GRIDS = {
    # three run seeds, because the SGD epochs a tuned fit takes before it
    # stops early vary by about 10% from seed to seed
    "grid_lr": {
        "dataset": "adult",
        "seeds": 3,
        "learners": ["lr-tuned"],
        "interventions": ["none"],
        "handlers": ["mode"],
    },
    "grid_clean": {
        "dataset": "adult",
        "seeds": 2,
        "learners": ["nb"],
        "interventions": ["none", "reweighing", "di-remover-1.0"],
        "handlers": ["complete-case", "mode", "learned"],
    },
    "grid_sweep": {
        "dataset": "germancredit",
        "seeds": 40,
        "learners": ["lr", "nb"],
        "interventions": [
            "none", "reweighing", "di-remover-0.5", "reject-option", "cal-eq-odds",
        ],
        "handlers": ["none"],
    },
}

# all before the pass: set-ups timed after it ran 20-40% slower
SETUP_REPEATS = 15
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def run_seeds(workload: str, seed: int) -> List[int]:
    """The grid's run seeds, drawn from the workload seed."""
    return random.Random(seed).sample(range(100_000), GRIDS[workload]["seeds"])


def grid_spec(workload: str, seed: int):
    shape = GRIDS[workload]
    return core.GridSpec(
        seeds=run_seeds(workload, seed),
        learners=[LEARNERS[name] for name in shape["learners"]],
        interventions=[INTERVENTIONS[name] for name in shape["interventions"]],
        missing_value_handlers=[HANDLERS[name] for name in shape["handlers"]],
    )


def digest(results) -> str:
    text = "\n".join(result.to_json() for result in results)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def set_up(workload: str, grid, repeats: int):
    """Build the plan ``repeats`` times; the plan and each step's timings."""
    loads, plans = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        frame, spec = load_dataset(GRIDS[workload]["dataset"])
        loaded = time.perf_counter()
        plan = core.ExecutionPlan.for_grid(frame, spec, grid)
        loads.append(loaded - started)
        plans.append(time.perf_counter() - loaded)
    return plan, loads, plans


def run_pass(plan, store_path: str):
    """One timed ``Executor.run``; returns results, wall and run latencies."""
    if os.path.exists(store_path):
        os.unlink(store_path)
    store = core.ResultsStore(store_path)
    marks = []

    def progress(done, total, result):
        marks.append(time.perf_counter())

    started = time.perf_counter()
    results = core.SerialExecutor().run(plan, results_store=store, progress=progress)
    wall = time.perf_counter() - started
    # a grid's runs are all submitted at the start, so a run's latency is
    # the time until its result came back; the executor reports a
    # preparation group's runs together once the whole group is done
    per_run = [stamp - started for stamp in marks]
    return results, wall, per_run, store


def check(plan, results, store, reference) -> int:
    """Number of runs whose output fails a check (0 when all hold)."""
    failed = set()
    if len(results) != plan.grid.size():
        return max(len(results), plan.grid.size())
    seen = set()
    for index, (config, result) in enumerate(zip(plan.configs, results)):
        if result.run_key != config.run_key or result.run_key in seen:
            failed.add(index)
        seen.add(result.run_key)
        accuracy = result.test_metrics.get("overall__accuracy")
        if not isinstance(accuracy, float) or not 0.0 < accuracy <= 1.0:
            failed.add(index)
    # the store holds the same runs, written group by group
    stored = store.load()
    if len(stored) != len(results):
        failed.update(range(len(results)))
    kept = {result.run_key: result.to_json() for result in stored}
    for index, result in enumerate(results):
        if kept.get(result.run_key) != result.to_json():
            failed.add(index)
    if reference is not None and digest(results) != reference:
        failed.update(range(len(results)))
    return len(failed)


def measure(workload: str, seed: int, work_dir: str, tracer=None) -> Outcome:
    """Set up, run one pass of the grid, check it.

    A pass is the unit of work (15-45 s on two cores), so a grid run makes
    exactly one whatever ``--seconds`` says.
    """
    plan, loads, plans = set_up(workload, grid_spec(workload, seed), SETUP_REPEATS)
    if tracer is not None:
        tracer.record("datasets.load", statistics.median(loads))
        tracer.record("plan.for_grid", statistics.median(plans))
    with open(DIGESTS) as handle:
        reference = json.load(handle).get(workload, {}).get(str(seed))
    results, wall, per_run, store = run_pass(plan, os.path.join(work_dir, "results.jsonl"))
    outcome = Outcome(attempted=len(results))
    outcome.failed = check(plan, results, store, reference)
    rows = sum(
        sum(result.sizes.get(part, 0) for part in ("train", "validation", "test"))
        for result in results
    )
    outcome.notes = {
        "run_seeds": run_seeds(workload, seed),
        "digest": digest(results),
        "digest_checked": reference is not None,
        "runs": len(results),
        "latency_p90_ms": round(float(np.percentile(per_run, 90)) * 1000.0, 1),
    }
    outcome.metrics = {
        "setup_s": statistics.median([l + p for l, p in zip(loads, plans)]),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": len(results) / wall,
        "rows_per_s": rows / wall,
        "latency_p50_ms": float(np.percentile(per_run, 50)) * 1000.0,
    }
    outcome.raw = {
        "runs": len(results),
        "wall_s": wall,
        "store_bytes": os.path.getsize(store.path),
    }
    return outcome
