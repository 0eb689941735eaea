"""Linear classifier trained by minibatch stochastic gradient descent.

:class:`SGDClassifier` mirrors the scikit-learn estimator the paper uses as
its logistic-regression baseline (``SGDClassifier(loss='log')``): the same
``optimal`` learning-rate schedule (Bottou's heuristic), the same penalty
surface (l2 / l1 / elasticnet over ``alpha``), and per-sample weighting.
Because the schedule is calibrated for standardized features, training on
raw-scale features diverges or stalls exactly as in Figure 3 of the paper.

Training runs one kernel over a stack of rows. A row is one binary problem
(``classes_[1]`` for a binary target, each class in turn for a one-vs-rest
multi-class target) under one hyperparameter setting. Each row carries its
own ``alpha``, penalty, learning-rate clock, weights, bias and convergence
test, and leaves the stack when its own epoch loss stops improving; all
rows walk the same permutation and minibatches. ``fit`` stacks one row per
target class. :meth:`SGDClassifier.fit_candidates`, the grid-search hook,
stacks every candidate that differs only in ``penalty``, ``alpha`` and
``l1_ratio``, one row per (candidate, class), so a tuning fold is one
training loop instead of one per candidate.

A stacked row is byte-identical to the same row trained alone: products
over the stack are ``np.matmul`` over a leading row axis, which runs one
matrix-vector product per row (a single gemm would round differently), and
every other step is elementwise or a per-row reduction. Rows share a
permutation only when they would draw the same ones alone, i.e. with an
integer ``random_state`` or ``shuffle=False``; with ``None`` or a
``Generator`` every row trains on its own, in fit order.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

import numpy as np

from .. import telemetry
from ..serialize import labels_from_state, labels_to_state, serializable
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
    clone,
)

_LOSSES = ("log", "hinge")
_PENALTIES = ("l2", "l1", "elasticnet", "none")
# the parameters a row of the training stack carries for itself; rows
# share every other parameter
_ROW_PARAMS = ("penalty", "alpha", "l1_ratio")
# rows of X gathered per step of an epoch's permutation (rounded down to
# whole batches): large enough that the gather is one call per many
# batches, small enough that its buffer stays a few MiB
_CHUNK_ROWS = 4096


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


@serializable
class SGDClassifier(BaseEstimator, ClassifierMixin):
    """Linear classifier fit by minibatch stochastic gradient descent.

    Parameters
    ----------
    loss:
        ``"log"`` for logistic regression, ``"hinge"`` for a linear SVM.
    penalty, alpha, l1_ratio:
        Regularization: ``l2``, ``l1``, ``elasticnet`` (mixing ``l1_ratio``)
        or ``none``; ``alpha`` is the regularization strength and also feeds
        the ``optimal`` learning-rate schedule.
    max_iter:
        Number of epochs over the training data.
    tol:
        Stop early when the epoch-average loss improves by less than this.
    batch_size:
        Minibatch size (1 recovers classical per-sample SGD).
    random_state:
        Seed for shuffling and multi-class tie-breaking; required for
        reproducible experiment runs.
    """

    def __init__(
        self,
        loss: str = "log",
        penalty: str = "l2",
        alpha: float = 0.0001,
        l1_ratio: float = 0.15,
        max_iter: int = 20,
        tol: float = 1e-4,
        batch_size: int = 32,
        shuffle: bool = True,
        random_state: Optional[int] = None,
    ):
        self.loss = loss
        self.penalty = penalty
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = max_iter
        self.tol = tol
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.random_state = random_state

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, X, y, sample_weight=None) -> "SGDClassifier":
        self._check_params()
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        _fit_family([self], X, y, sample_weight)
        return self

    def fit_candidates(self, params_list, X, y, sample_weight=None):
        """Fit one model per parameter dict, sharing training across the family.

        Grid-search hook: candidates that agree on every parameter except
        ``penalty``, ``alpha`` and ``l1_ratio`` train as one stack, one
        row per (candidate, target class), over shared minibatches. With
        an integer ``random_state`` each of them would draw the same
        permutations alone, so every returned model is byte-identical to
        ``clone(self).set_params(**params).fit(...)``. Any other
        ``random_state`` with shuffling makes each fit draw its own
        permutations, so then the candidates are fit one at a time, in order.
        """
        models = [clone(self).set_params(**params) for params in params_list]
        for model in models:
            model._check_params()
        if not all(map(_shares_permutations, models)):
            return [model.fit(X, y, sample_weight=sample_weight) for model in models]
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        families: list = []  # [(shared params, [models])]
        for model in models:
            shared = {
                name: value
                for name, value in model.get_params().items()
                if name not in _ROW_PARAMS
            }
            for key, members in families:
                if key == shared:
                    members.append(model)
                    break
            else:
                families.append((shared, [model]))
        for _, members in families:
            _fit_family(members, X, y, sample_weight)
        return models

    def _check_params(self) -> None:
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        if self.penalty not in _PENALTIES:
            raise ValueError(
                f"penalty must be one of {_PENALTIES}, got {self.penalty!r}"
            )
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError(f"l1_ratio must be in [0, 1], got {self.l1_ratio!r}")

    def _optimal_init(self) -> float:
        """Bottou's t0 heuristic used by scikit-learn's 'optimal' schedule."""
        alpha = max(self.alpha, 1e-10)
        typw = np.sqrt(1.0 / np.sqrt(alpha))
        if self.loss == "log":
            initial_eta0 = typw / max(1.0, _sigmoid(typw))
        else:
            initial_eta0 = typw / max(1.0, 1.0 + typw)
        return 1.0 / (initial_eta0 * alpha)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_", "intercept_")
        X = check_matrix(X)
        if X.shape[1] != self.coef_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self.coef_.shape[1]}"
            )
        scores = X @ self.coef_.T + self.intercept_
        if scores.shape[1] == 1:
            return scores.ravel()
        return scores

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        if scores.ndim == 1:
            return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities (log loss only)."""
        if self.loss != "log":
            raise AttributeError("predict_proba is only available for loss='log'")
        scores = self.decision_function(X)
        if scores.ndim == 1:
            p1 = _sigmoid(scores)
            return np.column_stack([1.0 - p1, p1])
        raw = _sigmoid(scores)
        totals = raw.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return raw / totals

    def to_state(self) -> dict:
        self._check_fitted("coef_", "intercept_")
        return {
            "params": self.get_params(),
            "classes_": labels_to_state(self.classes_),
            "coef_": self.coef_,
            "intercept_": self.intercept_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SGDClassifier":
        model = cls(**state["params"])
        model.classes_ = labels_from_state(state["classes_"])
        model.coef_ = np.asarray(state["coef_"], dtype=np.float64)
        model.intercept_ = np.asarray(state["intercept_"], dtype=np.float64)
        return model


def _shares_permutations(model) -> bool:
    """Whether every fit with these settings draws the same permutations."""
    return not model.shuffle or isinstance(model.random_state, numbers.Integral)


def _fit_family(models, X, y, sample_weight) -> None:
    """Fit ``models`` (which differ at most in penalty, alpha and l1_ratio).

    Each model contributes one row per target: ``classes_[1]`` for a
    binary ``y``, every class (one-vs-rest) otherwise. All rows train in
    one stack when they would draw the same permutations alone (integer
    ``random_state`` or no shuffling); otherwise each row trains alone,
    in the order independent fits would run.
    """
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("need at least two classes to fit a classifier")
    targets = classes[1:] if len(classes) == 2 else classes
    signs = np.stack([np.where(y == klass, 1.0, -1.0) for klass in targets])
    lead = models[0]
    rows = [(model, j) for model in models for j in range(len(targets))]
    stacks = [rows] if _shares_permutations(lead) else [[row] for row in rows]
    coefs, intercepts = [], []
    for stack in stacks:
        row_models = [model for model, _ in stack]
        with telemetry.span(
            "learn.sgd_fit", rows=len(stack), candidates=len(set(map(id, row_models)))
        ) as span:
            coef, intercept, epochs = _train_stack(
                lead, row_models, [j for _, j in stack], signs, X, sample_weight
            )
            span.set(epochs=epochs)
        coefs.append(coef)
        intercepts.append(intercept)
    coef = np.concatenate(coefs)
    intercept = np.concatenate(intercepts)
    for i, model in enumerate(models):
        block = slice(i * len(targets), (i + 1) * len(targets))
        model.classes_ = classes
        model.coef_ = coef[block].copy()
        model.intercept_ = intercept[block].copy()


def _train_stack(lead, row_models, row_targets, signs, X, sample_weight):
    """Minibatch SGD over a stack of rows sharing one permutation per epoch.

    Row ``r`` fits ``signs[row_targets[r]]`` (+1 for its target class, -1
    otherwise) with the penalty, alpha and l1_ratio of ``row_models[r]``;
    ``lead`` holds what all rows share (loss, max_iter, tol, batch_size,
    shuffle, random_state). Every row keeps its own learning-rate clock,
    weights, bias and previous epoch loss, and leaves the stack at the end
    of the first epoch whose loss improved by less than ``tol``. The
    per-row arithmetic is exactly the one-row loop's: products over the
    stack are ``np.matmul`` over a leading row axis (one matrix-vector
    product per row; a gemm would round differently) and everything else
    is elementwise or a per-row reduction. Returns ``(coef, intercept,
    epochs)`` in the row order given.
    """
    n_samples, n_features = X.shape
    n_rows = len(row_models)
    penalties = [_penalty_step(m) for m in row_models]
    # rows that soft-threshold go last, so that step runs on one contiguous
    # block: thresholding by zero would turn another row's -0.0 into 0.0
    ids = np.argsort([thresholds for _, _, thresholds in penalties], kind="stable")
    models = [row_models[i] for i in ids]
    alpha = np.array([m.alpha for m in models], dtype=np.float64)
    factors = np.array([penalties[i] for i in ids], dtype=np.float64)
    state = {
        "ids": ids,
        "thresholded": factors[:, 2] != 0.0,
        "target": np.asarray(row_targets)[ids],
        "alpha": alpha,
        "floor": np.maximum(alpha, 1e-10),
        "shrink": factors[:, 0],
        "cut": factors[:, 1],
        "clock": np.array([m._optimal_init() for m in models], dtype=np.float64),
        "previous": np.full(n_rows, np.inf),
        "w": np.zeros((n_rows, n_features)),
        "b": np.zeros((n_rows, 1)),
    }
    coef = np.zeros((n_rows, n_features))
    intercept = np.zeros(n_rows)
    log_loss = lead.loss == "log"
    batch = max(1, int(lead.batch_size))
    sizes = np.array(
        [min(batch, n_samples - s) for s in range(0, n_samples, batch)],
        dtype=np.float64,
    )
    # each epoch's rows are gathered in permutation order a chunk at a time:
    # one gather per chunk instead of one per batch, in bounded memory
    chunk = batch * max(1, _CHUNK_ROWS // batch)
    x_chunk = np.empty((min(chunk, n_samples), n_features))
    rng = np.random.default_rng(lead.random_state)
    epochs = 0
    for _ in range(int(lead.max_iter)):
        w, b = state["w"], state["b"]
        rows = len(w)
        w_col = w[:, :, None]
        cut_from = rows - int(np.count_nonzero(state["thresholded"]))
        shrinks = bool(state["shrink"].any())
        # the epoch's learning rates: the clock advances by each batch's
        # size, summed in order exactly as the one-row loop's t += len(idx)
        clock = np.cumsum(
            np.column_stack(
                [state["clock"], np.broadcast_to(sizes, (rows, len(sizes)))]
            ),
            axis=1,
        )
        state["clock"] = clock[:, -1].copy()
        eta = 1.0 / (state["floor"][:, None] * clock[:, :-1])
        eta_alpha = eta * state["alpha"][:, None]
        steps = np.ascontiguousarray(eta.T)[:, :, None]
        # the penalty step's factors per batch (see _penalty_step)
        scales = np.ascontiguousarray(
            (1.0 - eta_alpha * state["shrink"][:, None]).T
        )[:, :, None]
        cuts = np.ascontiguousarray((eta_alpha * state["cut"][:, None]).T)[
            :, cut_from:, None
        ]

        order = rng.permutation(n_samples) if lead.shuffle else np.arange(n_samples)
        w_epoch = sample_weight[order]
        totals = _batch_sums(w_epoch, batch)
        k = 0
        for chunk_start in range(0, n_samples, chunk):
            part = order[chunk_start : chunk_start + chunk]
            x_part = x_chunk[: len(part)]
            np.take(X, part, axis=0, out=x_part, mode="clip")
            neg_signs = np.negative(signs[:, part])[state["target"]]
            w_part = w_epoch[chunk_start : chunk_start + chunk]
            # -s * sigmoid * w == sigmoid * (-s * w) exactly: s is +-1
            signed_w = neg_signs * w_part
            for start in range(0, len(part), batch):
                stop = start + batch
                xb = x_part[start:stop]
                nsb = neg_signs[:, start:stop]
                z = nsb * (np.matmul(xb, w_col)[:, :, 0] + b)
                if log_loss:
                    coeff = _logistic(z)
                    coeff *= signed_w[:, start:stop]
                else:  # hinge: -s where active (s * margin < 1, i.e. z > -1)
                    coeff = np.where(z > -1.0, nsb, 0.0)
                    coeff *= w_part[start:stop]
                total = totals[k]
                if shrinks:
                    w *= scales[k]
                if cut_from < rows:
                    _soft_threshold_rows(w[cut_from:], cuts[k])
                if total != 0:
                    step = steps[k]
                    grad = np.matmul(xb.T, coeff[:, :, None])[:, :, 0]
                    grad /= total
                    grad *= step
                    w -= grad
                    grad_b = np.add.reduce(coeff, axis=1, keepdims=True)
                    grad_b /= total
                    grad_b *= step
                    b -= grad_b
                if not math.isfinite(w.sum()):
                    # diverged (typically unscaled features): freeze the
                    # row at its last finite state, as a failed real run
                    # (a finite sum means every entry is finite)
                    for r in np.flatnonzero(~np.isfinite(w).all(axis=1)):
                        w[r] = np.nan_to_num(w[r], nan=0.0, posinf=1e12, neginf=-1e12)
                        b[r] = np.nan_to_num(b[r], nan=0.0, posinf=1e12, neginf=-1e12)
                k += 1
        epochs += 1

        keep = np.ones(rows, dtype=bool)
        for r in range(rows):
            margin = signs[state["target"][r]] * (X @ w[r] + b[r, 0])
            if log_loss:
                losses = np.logaddexp(0.0, -margin)
            else:
                losses = np.maximum(0.0, 1.0 - margin)
            loss = float(np.average(losses, weights=sample_weight))
            if np.isfinite(loss) and state["previous"][r] - loss < lead.tol:
                keep[r] = False
            state["previous"][r] = loss
        if not keep.all():
            done = state["ids"][~keep]
            coef[done] = w[~keep]
            intercept[done] = b[~keep, 0]
            state = {name: value[keep] for name, value in state.items()}
            if not keep.any():
                break
    coef[state["ids"]] = state["w"]
    intercept[state["ids"]] = state["b"][:, 0]
    return coef, intercept, epochs


def _penalty_step(model):
    """The penalty step as ``(shrink, cut, thresholds)``.

    ``w *= 1 - eta*alpha*shrink``, then, when ``thresholds``, soft-threshold
    by ``eta*alpha*cut``: the same products the one-row penalty forms
    (``shrink`` 1 is l2; ``cut`` 1 is l1; elasticnet mixes by
    ``l1_ratio``, and still thresholds, by zero, at ``l1_ratio=0``).
    """
    if model.penalty == "none" or model.alpha == 0.0:
        return 0.0, 0.0, False
    if model.penalty == "l2":
        return 1.0, 0.0, False
    if model.penalty == "l1":
        return 0.0, 1.0, True
    return 1.0 - model.l1_ratio, model.l1_ratio, True


def _logistic(z: np.ndarray) -> np.ndarray:
    """:func:`_sigmoid`'s values by the same operations on each branch.

    :func:`_sigmoid` computes ``1 / (1 + exp(-z))`` where ``z >= 0`` and
    ``exp(z) / (1 + exp(z))`` elsewhere. Here the denominator is
    ``1 + exp(-|z|)`` and the numerator ``exp(min(z, 0))`` (``exp(0)`` is
    exactly 1), so every element gets the same operations on the same
    values, without the masked gathers and scatters.
    """
    den = np.abs(z)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(z, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


def _batch_sums(values: np.ndarray, batch: int) -> list:
    """``[values[s:s + batch].sum() for s in range(0, len(values), batch)]``.

    The full batches are summed as rows of one 2-D reduction, which adds
    each contiguous row exactly as the 1-D sum of that slice does.
    """
    full = len(values) // batch * batch
    sums = values[:full].reshape(-1, batch).sum(axis=1).tolist()
    if full < len(values):
        sums.append(float(values[full:].sum()))
    return sums


def _soft_threshold_rows(w: np.ndarray, threshold: np.ndarray) -> None:
    """``w = sign(w) * max(|w| - threshold, 0)`` in place."""
    magnitude = np.abs(w)
    magnitude -= threshold
    np.maximum(magnitude, 0.0, out=magnitude)
    np.sign(w, out=w)
    w *= magnitude
