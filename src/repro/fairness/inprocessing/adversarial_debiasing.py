"""Adversarial debiasing (Zhang, Lemoine & Mitchell, AIES 2018).

A logistic classifier is trained to predict the label while an adversary —
another logistic model reading the classifier's output (and the true label,
for equalized-odds debiasing) — tries to predict the protected attribute.
The classifier's gradient is corrected by (i) removing its projection onto
the adversary's gradient and (ii) subtracting a scaled adversary gradient,
exactly the update rule of the original paper. The paper's TensorFlow
implementation is replaced by closed-form numpy gradients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...learn.linear import _sigmoid
from ..dataset import BinaryLabelDataset, GroupSpec


class AdversarialDebiasing:
    """In-processing intervention: classifier vs. protected-attribute adversary.

    Parameters
    ----------
    adversary_loss_weight:
        The alpha in Zhang et al.'s update; larger = stronger debiasing.
    debias:
        With ``False`` the adversary is ignored, yielding a plain logistic
        classifier (the paper's control condition).
    """

    def __init__(
        self,
        unprivileged_groups: GroupSpec,
        privileged_groups: GroupSpec,
        scope_name: str = "adv_debias",
        adversary_loss_weight: float = 0.1,
        num_epochs: int = 50,
        batch_size: int = 128,
        learning_rate: float = 0.1,
        debias: bool = True,
        seed: Optional[int] = None,
    ):
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        self.scope_name = scope_name
        self.adversary_loss_weight = adversary_loss_weight
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.debias = debias
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, dataset: BinaryLabelDataset) -> "AdversarialDebiasing":
        X = dataset.features
        y = dataset.favorable_mask().astype(np.float64)
        z = dataset.group_mask(self.privileged_groups).astype(np.float64)
        w_instances = dataset.instance_weights

        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        self.coef_ = rng.normal(0.0, 0.01, size=d)
        self.intercept_ = 0.0
        # adversary reads [logit, logit*y, logit*(1-y)]
        adversary_w = rng.normal(0.0, 0.01, size=3)
        adversary_b = 0.0

        batch = max(1, int(self.batch_size))
        for epoch in range(int(self.num_epochs)):
            order = rng.permutation(n)
            lr = self.learning_rate / np.sqrt(1.0 + epoch)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, yb, zb, wb = X[idx], y[idx], z[idx], w_instances[idx]
                wb = wb / wb.sum() if wb.sum() > 0 else np.full(len(idx), 1.0 / len(idx))

                logit = xb @ self.coef_ + self.intercept_
                p = _sigmoid(logit)
                # classifier loss gradient (cross-entropy)
                residual = (p - yb) * wb
                grad_w = xb.T @ residual
                grad_b = residual.sum()

                if self.debias:
                    adv_in = np.column_stack([logit, logit * yb, logit * (1 - yb)])
                    adv_logit = adv_in @ adversary_w + adversary_b
                    q = _sigmoid(adv_logit)
                    adv_residual = (q - zb) * wb
                    # adversary's own update (it *descends* its loss)
                    adv_grad_w = adv_in.T @ adv_residual
                    adv_grad_b = adv_residual.sum()
                    # gradient of the adversary loss w.r.t. classifier params
                    # d adv_logit / d logit = u0 + u1*y + u2*(1-y)
                    du = (
                        adversary_w[0]
                        + adversary_w[1] * yb
                        + adversary_w[2] * (1 - yb)
                    )
                    chain = adv_residual * du
                    adv_wrt_w = xb.T @ chain
                    adv_wrt_b = chain.sum()
                    # Zhang et al. projection-corrected update
                    norm = np.linalg.norm(adv_wrt_w)
                    if norm > 1e-12:
                        unit = adv_wrt_w / norm
                        grad_w = (
                            grad_w
                            - (grad_w @ unit) * unit
                            - self.adversary_loss_weight * adv_wrt_w
                        )
                        grad_b = grad_b - self.adversary_loss_weight * adv_wrt_b
                    adversary_w -= lr * adv_grad_w
                    adversary_b -= lr * adv_grad_b

                self.coef_ -= lr * grad_w
                self.intercept_ -= lr * grad_b
        self._adversary_w = adversary_w
        self._adversary_b = adversary_b
        return self

    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "coef_"):
            raise RuntimeError("AdversarialDebiasing must be fit first")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        """Score a dataset, returning a copy with predicted labels + scores."""
        scores = self.predict_proba(dataset.features)[:, 1]
        labels = np.where(
            scores >= 0.5, dataset.favorable_label, dataset.unfavorable_label
        )
        return dataset.with_predictions(labels=labels, scores=scores)
