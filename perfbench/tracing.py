"""Per-layer timing by wrapping the program's public methods from outside.

A :class:`Tracer` replaces a method or module function with a wrapper that
records, per layer name, the busy seconds, the call count, the rows handled
and the seconds covered by wrapped children (so self time is busy minus
child time). A call nested inside another call of the *same* layer (say
``ModeImputer.fit`` run by ``LearnedImputer.fit``) counts as a call but is
otherwise transparent, so busy time is never counted twice.

Nothing in the program is edited: :func:`install_grid_layers` and
:func:`install_serve_layers` patch the classes and modules in the running
process only, and only when the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

FIELDS = ("busy_s", "child_s", "calls", "rows", "row_weighted_s")
# overwritten by each call instead of summed
LAST = "last_s"


class Tracer:
    """In-memory per-layer counters, safe to update from many threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stats: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def _frames(self):
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _add(self, name: str, **values: float) -> None:
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = dict.fromkeys(FIELDS + (LAST,), 0.0)
            for key, value in values.items():
                if key == LAST:
                    stat[key] = value
                else:
                    stat[key] += value

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        rows: Optional[Callable] = None,
        per_class: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``layer``.

        ``rows(args, kwargs, result)`` gives the rows a call handled;
        ``per_class`` also books the call under ``layer.<ClassName>`` of
        the receiving instance.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            frames = tracer._frames()
            if any(frame[0] == layer for frame in frames):
                tracer._add(layer, calls=1)
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            frames.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                frames.pop()
                if frames:
                    frames[-1][1] += elapsed
            count = float(rows(args, kwargs, result)) if rows is not None else 0.0
            values = dict(
                busy_s=elapsed,
                child_s=frame[1],
                calls=1,
                rows=count,
                row_weighted_s=elapsed * count,
                last_s=elapsed,
            )
            tracer._add(layer, **values)
            if per_class:
                tracer._add(f"{layer}.{type(args[0]).__name__}", **values)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def record(self, layer: str, seconds: float, calls: int = 1) -> None:
        """Book time measured by the caller (set-up steps)."""
        self._add(layer, busy_s=seconds, calls=calls)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: dict(stat) for name, stat in self._stats.items()}


def delta(
    after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Counters accumulated between two snapshots."""
    out = {}
    for name, stat in after.items():
        base = before.get(name, {})
        out[name] = {key: stat[key] - base.get(key, 0.0) for key in FIELDS}
        out[name][LAST] = stat[LAST]
    return out


def sum_deltas(parts) -> Dict[str, Dict[str, float]]:
    """Add up counter deltas of several windows, layer by layer."""
    total: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, stat in part.items():
            into = total.setdefault(name, dict.fromkeys(FIELDS + (LAST,), 0.0))
            for key in FIELDS:
                into[key] += stat[key]
            into[LAST] = stat[LAST]
    return total


def breakdown(stats: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """The JSON the traced run writes: every layer with its self time."""
    return {
        name: {
            "busy_s": stat["busy_s"],
            "self_s": stat["busy_s"] - stat["child_s"],
            "calls": int(stat["calls"]),
            "rows": int(stat["rows"]),
            "last_s": stat[LAST],
        }
        for name, stat in sorted(stats.items())
    }


# ----------------------------------------------------------------------
# what is wrapped
# ----------------------------------------------------------------------
def _frame_rows(args, kwargs, result) -> int:
    return args[1].num_rows


def _matrix_rows(args, kwargs, result) -> int:
    return len(args[1])


def _install_shared(tracer: Tracer) -> None:
    """Layers both the grids and the scoring path reach."""
    from repro.core import featurization, interventions, learners, missing_values
    from repro.core.components import PreProcessor

    for cls in (
        missing_values.CompleteCaseAnalysis,
        missing_values.NoMissingValues,
        missing_values.ModeImputer,
        missing_values.LearnedImputer,
    ):
        tracer.wrap(cls, "fit", "missing_values.fit", per_class=True)
        tracer.wrap(cls, "handle_missing", "missing_values.handle_missing", _frame_rows)
    tracer.wrap(featurization.Featurizer, "fit", "featurization.fit")
    tracer.wrap(
        featurization.Featurizer, "transform", "featurization.transform", _frame_rows
    )
    # NoIntervention sits in both slots and does nothing; its calls stay
    # in the caller's self time. PreProcessor's own transform_eval is the
    # default that weight-only interventions inherit.
    tracer.wrap(PreProcessor, "transform_eval", "interventions.pre_fit")
    for cls in (interventions.ReweighingPreProcessor, interventions.DIRemover):
        for attr in ("fit", "transform_train", "transform_eval"):
            if attr in vars(cls):
                tracer.wrap(cls, attr, "interventions.pre_fit")
    for cls in (
        interventions.RejectOptionPostProcessor,
        interventions.CalibratedEqOddsPostProcessor,
        interventions.EqOddsPostProcessor,
    ):
        tracer.wrap(cls, "fit", "interventions.post_fit")
        tracer.wrap(cls, "apply", "interventions.post_apply")
    for attr in ("predict", "predict_scores", "predict_with_scores"):
        tracer.wrap(learners._FittedModel, attr, "learners.predict", _matrix_rows)


def install_grid_layers(tracer: Tracer) -> None:
    """Wrap every layer a grid run passes through."""
    from repro.core import Executor, Experiment, ResultsStore, learners
    from repro.fairness import ClassificationMetric
    from repro.learn import DecisionTreeClassifier, GridSearchCV, SGDClassifier

    _install_shared(tracer)
    tracer.wrap(Executor, "run", "executors.run")
    for stage in ("prepare_splits", "prepare", "train_candidates", "evaluate"):
        tracer.wrap(Experiment, stage, f"experiment.{stage}")
    for cls in (learners.LogisticRegression, learners.NaiveBayes, learners.DecisionTree):
        tracer.wrap(cls, "fit_model", "learners.fit_model", per_class=True)
    tracer.wrap(GridSearchCV, "fit", "learn.grid_search_fit")
    tracer.wrap(SGDClassifier, "fit", "learn.sgd_fit")
    tracer.wrap(DecisionTreeClassifier, "fit", "learn.tree_fit")
    tracer.wrap(ClassificationMetric, "all_metrics", "fairness.metrics")
    tracer.wrap(ResultsStore, "extend", "results.extend", _matrix_rows)


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap every layer a ``POST /score`` passes through.

    ``records_to_frame`` and ``dumps_strict`` are module functions imported
    by name, so they are patched where they are called.
    """
    from repro.serve import batching, monitor, scoring, service

    _install_shared(tracer)
    tracer.wrap(service.ScoringService, "score", "service.score")
    tracer.wrap(batching.MicroBatcher, "score", "batching.score")
    tracer.wrap(scoring.ScoringEngine, "score_frame", "scoring.score_frame", _frame_rows)
    tracer.wrap(
        scoring.ScoringEngine, "score_record", "scoring.score_record", lambda a, k, r: 1
    )
    tracer.wrap(monitor.FairnessMonitor, "observe_batch", "monitor.observe_batch")
    tracer.wrap(monitor.FairnessMonitor, "observe", "monitor.observe")
    for module in (service, batching):
        tracer.wrap(
            module, "records_to_frame", "scoring.records_to_frame",
            lambda a, k, r: len(a[1]),
        )
    tracer.wrap(service, "dumps_strict", "service.dumps_strict")
