"""Per-layer metrics of a traced pass, from the tracer's counters.

Every declared per-layer metric is reported on every workload; a layer a
workload never reaches reads 0 (for example ``learn.sgd_fit.calls`` on
``grid_clean``, which is the prediction that an SGD change leaves that
workload alone).
"""

from __future__ import annotations

from typing import Dict

from tracing import breakdown, sum_deltas

Stats = Dict[str, Dict[str, float]]

# layers whose busy seconds are reported as ``<layer>.s``
BUSY = [
    "datasets.load", "plan.for_grid", "executors.run",
    "experiment.prepare_splits", "experiment.prepare",
    "experiment.train_candidates", "experiment.evaluate",
    "missing_values.fit", "missing_values.fit.CompleteCaseAnalysis",
    "missing_values.fit.ModeImputer", "missing_values.fit.DatawigImputer",
    "missing_values.handle_missing", "featurization.fit", "featurization.transform",
    "interventions.pre_fit", "interventions.post_fit", "interventions.post_apply",
    "learners.fit_model", "learners.fit_model.LogisticRegression",
    "learners.fit_model.NaiveBayes", "learners.predict",
    "learn.grid_search_fit", "learn.sgd_fit", "learn.tree_fit",
    "fairness.metrics", "results.extend",
    "service.score", "scoring.score_frame", "scoring.score_record",
    "scoring.records_to_frame", "monitor.observe_batch", "monitor.observe",
    "service.dumps_strict",
]
# layers whose call counts are reported as ``<layer>.calls``
CALLS = [
    "experiment.prepare_splits", "learn.grid_search_fit", "learn.sgd_fit",
    "learn.tree_fit", "fairness.metrics", "results.extend", "service.score",
    "scoring.score_record",
]
# layers whose row counts are reported as ``<layer>.rows``
ROWS = [
    "missing_values.handle_missing", "featurization.transform",
    "learners.predict", "scoring.score_frame",
]


# metrics one side computes; the other side reports them as 0
GRID_ONLY = [
    "executors.self.s", "executors.runs", "executors.prep_reuse",
    "learn.sgd_fit.per_search", "results.extend.last_ms", "results.bytes",
    "trace.stage_share_pct",
]
SERVE_ONLY = [
    "http.overhead_ms", "batching.queue_wait_ms", "batching.mean_batch_size",
    "loadgen.late_p99_ms", "loadgen.point_samples",
]


def _get(stats: Stats, layer: str, field: str) -> float:
    return stats.get(layer, {}).get(field, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _common(stats: Stats) -> Dict[str, float]:
    values = {f"{layer}.s": _get(stats, layer, "busy_s") for layer in BUSY}
    values.update({f"{layer}.calls": _get(stats, layer, "calls") for layer in CALLS})
    values.update({f"{layer}.rows": _get(stats, layer, "rows") for layer in ROWS})
    return values


def grid_layers(stats: Stats, raw: dict, plain_wall_s: float, overhead_pct: float):
    """Per-layer metrics and the ratio bases of a traced grid pass."""
    values = _common(stats)
    values.update(dict.fromkeys(SERVE_ONLY, 0.0))
    run_busy = _get(stats, "executors.run", "busy_s")
    values["executors.self.s"] = run_busy - _get(stats, "executors.run", "child_s")
    runs = raw["runs"]
    splits = _get(stats, "experiment.prepare_splits", "calls")
    searches = _get(stats, "learn.grid_search_fit", "calls")
    sgd = _get(stats, "learn.sgd_fit", "calls")
    # the stage calls' share of the untraced pass: what the executor does
    # outside them (executors.self.s) is the rest, plus the trace overhead
    staged = sum(
        values[f"{layer}.s"]
        for layer in (
            "experiment.prepare_splits", "experiment.prepare",
            "experiment.train_candidates", "experiment.evaluate", "results.extend",
        )
    )
    values.update({
        "executors.runs": runs,
        "executors.prep_reuse": _ratio(runs, splits),
        "learn.sgd_fit.per_search": _ratio(sgd, searches),
        "results.extend.last_ms": _get(stats, "results.extend", "last_s") * 1000.0,
        "results.bytes": raw["store_bytes"],
        "trace.stage_share_pct": _ratio(staged, plain_wall_s) * 100.0,
        "trace.overhead_pct": overhead_pct,
    })
    bases = {
        "executors.prep_reuse": {"runs": runs, "prepare_splits_calls": splits},
        "learn.sgd_fit.per_search": {"sgd_fit_calls": sgd, "grid_search_fit_calls": searches},
        "trace.stage_share_pct": {
            "traced_stages_s": staged, "untraced_executor_wall_s": plain_wall_s,
        },
    }
    return values, bases, breakdown(stats)


def serve_layers(raw: dict, overhead_pct: float):
    """Per-layer metrics of a traced serving pass.

    ``raw["layer_deltas"]`` holds the server's counters summed over the
    open-loop point, saturation and bulk windows. Busy seconds cover all
    measured windows; the per-request ratios come from the open-loop
    windows, the ones the latency is taken in.
    """
    parts = raw["layer_deltas"]
    window = sum_deltas(parts.values())
    point = parts["point"]
    values = _common(window)
    values.update(dict.fromkeys(GRID_ONLY, 0.0))

    served = _get(point, "service.score", "calls")
    service_ms = _ratio(_get(point, "service.score", "busy_s"), served) * 1000.0
    queued = _get(point, "batching.score", "calls")
    dispatches = _get(point, "scoring.score_frame", "calls") + _get(
        point, "scoring.score_record", "calls"
    )
    scored_rows = _get(point, "scoring.score_frame", "rows") + _get(
        point, "scoring.score_record", "rows"
    )
    # the scoring time each queued request waited on, weighted by rows
    scoring_ms = _ratio(
        _get(point, "scoring.score_frame", "row_weighted_s")
        + _get(point, "scoring.score_record", "row_weighted_s"),
        scored_rows,
    ) * 1000.0
    batcher_ms = _ratio(_get(point, "batching.score", "busy_s"), queued) * 1000.0
    values.update({
        "http.overhead_ms": raw["point_mean_from_send_ms"] - service_ms,
        "batching.queue_wait_ms": batcher_ms - scoring_ms,
        "batching.mean_batch_size": _ratio(queued, dispatches),
        "loadgen.late_p99_ms": raw["late_p99_ms"],
        "loadgen.point_samples": raw["point_samples"],
        "trace.overhead_pct": overhead_pct,
    })
    bases = {
        "http.overhead_ms": {
            "client_mean_ms": raw["point_mean_from_send_ms"],
            "service_score_mean_ms": service_ms,
            "requests": served,
        },
        "batching.queue_wait_ms": {
            "batcher_score_mean_ms": batcher_ms,
            "scoring_per_record_ms": scoring_ms,
            "requests": queued,
        },
        "batching.mean_batch_size": {"records": queued, "scoring_calls": dispatches},
    }
    return values, bases, {
        "measured_phases": breakdown(window),
        "point_open_loop": breakdown(point),
    }
