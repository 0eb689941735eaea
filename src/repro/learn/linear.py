"""Linear classifier trained by minibatch stochastic gradient descent.

:class:`SGDClassifier` mirrors the scikit-learn estimator the paper uses as
its logistic-regression baseline (``SGDClassifier(loss='log')``): the same
``optimal`` learning-rate schedule (Bottou's heuristic), the same penalty
surface (l2 / l1 / elasticnet over ``alpha``), and per-sample weighting.
Because the schedule is calibrated for standardized features, training on
raw-scale features diverges or stalls exactly as in Figure 3 of the paper.
Every fit runs one binary training loop: a binary target is one fit for
``classes_[1]``, and a multi-class target is one-vs-rest, one independent
binary fit per class.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..serialize import labels_from_state, labels_to_state, serializable
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
)

_LOSSES = ("log", "hinge")
_PENALTIES = ("l2", "l1", "elasticnet", "none")


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
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes to fit a classifier")
        # binary targets need one fit (for classes_[1]); multi-class
        # targets are one-vs-rest, one independent binary fit per class
        targets = self.classes_[1:] if len(self.classes_) == 2 else self.classes_
        coefs, intercepts = [], []
        for klass in targets:
            signs = np.where(y == klass, 1.0, -1.0)
            w, b = self._fit_binary(X, signs, sample_weight)
            coefs.append(w)
            intercepts.append(b)
        self.coef_ = np.vstack(coefs)
        self.intercept_ = np.asarray(intercepts)
        return self

    def _fit_binary(self, X, signs, sample_weight):
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.random_state)
        w = np.zeros(n_features)
        b = 0.0
        t = self._optimal_init()
        previous_loss = np.inf
        batch = max(1, int(self.batch_size))
        for _ in range(int(self.max_iter)):
            order = rng.permutation(n_samples) if self.shuffle else np.arange(n_samples)
            for start in range(0, n_samples, batch):
                idx = order[start : start + batch]
                xb, sb, wb = X[idx], signs[idx], sample_weight[idx]
                eta = self._eta(t)
                t += len(idx)
                grad_w, grad_b = self._loss_gradient(xb, sb, wb, w, b)
                w = self._apply_penalty(w, eta)
                w -= eta * grad_w
                b -= eta * grad_b
                if not np.all(np.isfinite(w)):
                    # diverged (typically unscaled features): freeze at the
                    # last finite state, mirroring a failed real-world run
                    w = np.nan_to_num(w, nan=0.0, posinf=1e12, neginf=-1e12)
                    b = float(np.nan_to_num(b, nan=0.0, posinf=1e12, neginf=-1e12))
            epoch_loss = self._mean_loss(X, signs, sample_weight, w, b)
            if np.isfinite(epoch_loss) and previous_loss - epoch_loss < self.tol:
                break
            previous_loss = epoch_loss
        return w, b

    def _loss_gradient(self, xb, sb, wb, w, b):
        margin = xb @ w + b
        if self.loss == "log":
            # d/dz log(1 + exp(-s z)) = -s * sigmoid(-s z)
            coeff = -sb * _sigmoid(-sb * margin) * wb
        else:  # hinge
            active = (sb * margin) < 1.0
            coeff = np.where(active, -sb, 0.0) * wb
        total = wb.sum()
        if total == 0:
            return np.zeros_like(w), 0.0
        grad_w = xb.T @ coeff / total
        grad_b = coeff.sum() / total
        return grad_w, grad_b

    def _apply_penalty(self, w, eta):
        if self.penalty == "none" or self.alpha == 0.0:
            return w
        if self.penalty == "l2":
            return w * (1.0 - eta * self.alpha)
        if self.penalty == "l1":
            return _soft_threshold(w, eta * self.alpha)
        # elasticnet
        w = w * (1.0 - eta * self.alpha * (1.0 - self.l1_ratio))
        return _soft_threshold(w, eta * self.alpha * self.l1_ratio)

    def _mean_loss(self, X, signs, sample_weight, w, b):
        margin = signs * (X @ w + b)
        if self.loss == "log":
            losses = np.logaddexp(0.0, -margin)
        else:
            losses = np.maximum(0.0, 1.0 - margin)
        return float(np.average(losses, weights=sample_weight))

    def _optimal_init(self) -> float:
        """Bottou's t0 heuristic used by scikit-learn's 'optimal' schedule."""
        alpha = max(self.alpha, 1e-10)
        typw = np.sqrt(1.0 / np.sqrt(alpha))
        if self.loss == "log":
            initial_eta0 = typw / max(1.0, _sigmoid(typw))
        else:
            initial_eta0 = typw / max(1.0, 1.0 + typw)
        return 1.0 / (initial_eta0 * alpha)

    def _eta(self, t: float) -> float:
        return 1.0 / (max(self.alpha, 1e-10) * t)

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


def _soft_threshold(w: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)
