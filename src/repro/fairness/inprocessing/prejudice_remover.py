"""Prejudice remover (after Kamishima et al., ECML-PKDD 2012).

Logistic regression with an additional fairness regularizer weighted by
``eta``. The original prejudice index (a mutual-information term) is
replaced by its differentiable demographic-parity surrogate — the squared
gap between the groups' mean predicted probabilities — which preserves the
method's qualitative behaviour (``eta`` trades accuracy against parity) with
a closed-form gradient. The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...learn.linear import _sigmoid
from ..dataset import BinaryLabelDataset, GroupSpec


class PrejudiceRemover:
    """Fairness-regularized logistic regression."""

    def __init__(
        self,
        unprivileged_groups: GroupSpec,
        privileged_groups: GroupSpec,
        eta: float = 1.0,
        alpha: float = 1e-4,
        learning_rate: float = 0.5,
        max_iter: int = 300,
        seed: Optional[int] = None,
    ):
        if eta < 0:
            raise ValueError("eta must be non-negative")
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        self.eta = eta
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.seed = seed

    def fit(self, dataset: BinaryLabelDataset) -> "PrejudiceRemover":
        X = dataset.features
        y = dataset.favorable_mask().astype(np.float64)
        weights = dataset.instance_weights / dataset.instance_weights.sum()
        priv = dataset.group_mask(self.privileged_groups)
        unpriv = dataset.group_mask(self.unprivileged_groups)
        w_priv = weights[priv].sum()
        w_unpriv = weights[unpriv].sum()
        if w_priv == 0 or w_unpriv == 0:
            raise ValueError("both groups must be present in the training data")

        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(int(self.max_iter)):
            p = _sigmoid(X @ w + b)
            residual = (p - y) * weights
            grad_w = X.T @ residual + self.alpha * w
            grad_b = residual.sum()
            if self.eta > 0:
                gap = (
                    np.average(p[priv], weights=weights[priv])
                    - np.average(p[unpriv], weights=weights[unpriv])
                )
                dp = p * (1.0 - p)
                # d gap / d w = E_priv[dp x] - E_unpriv[dp x]
                coeff = np.zeros(n)
                coeff[priv] = weights[priv] / w_priv
                coeff[unpriv] -= weights[unpriv] / w_unpriv
                gap_grad_w = X.T @ (coeff * dp)
                gap_grad_b = (coeff * dp).sum()
                grad_w += self.eta * 2.0 * gap * gap_grad_w
                grad_b += self.eta * 2.0 * gap * gap_grad_b
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.coef_ = w
        self.intercept_ = b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "coef_"):
            raise RuntimeError("PrejudiceRemover must be fit first")
        p1 = _sigmoid(np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        scores = self.predict_proba(dataset.features)[:, 1]
        labels = np.where(
            scores >= 0.5, dataset.favorable_label, dataset.unfavorable_label
        )
        return dataset.with_predictions(labels=labels, scores=scores)
