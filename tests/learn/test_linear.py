"""Unit tests for SGDClassifier."""

import numpy as np
import pytest

from repro.learn import SGDClassifier, StandardScaler


def _blobs(seed=0, n=300, separation=4.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n // 2, 2))
    X1 = rng.normal(separation, 1.0, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestSGDClassifier:
    def test_learns_separable_blobs(self):
        X, y = _blobs()
        model = SGDClassifier(random_state=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_predict_proba_sums_to_one(self):
        X, y = _blobs()
        model = SGDClassifier(random_state=0).fit(X, y)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_proba_unavailable_for_hinge(self):
        X, y = _blobs()
        model = SGDClassifier(loss="hinge", random_state=0).fit(X, y)
        with pytest.raises(AttributeError):
            model.predict_proba(X)

    def test_hinge_learns_too(self):
        X, y = _blobs()
        model = SGDClassifier(loss="hinge", random_state=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_deterministic_per_seed(self):
        X, y = _blobs()
        a = SGDClassifier(random_state=42).fit(X, y)
        b = SGDClassifier(random_state=42).fit(X, y)
        assert np.allclose(a.coef_, b.coef_)
        assert np.allclose(a.intercept_, b.intercept_)

    def test_seed_changes_trajectory(self):
        X, y = _blobs()
        a = SGDClassifier(random_state=1, max_iter=2, tol=0.0).fit(X, y)
        b = SGDClassifier(random_state=2, max_iter=2, tol=0.0).fit(X, y)
        assert not np.allclose(a.coef_, b.coef_)

    def test_l1_penalty_sparsifies(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 10))
        y = (X[:, 0] > 0).astype(int)  # only feature 0 is informative
        dense = SGDClassifier(penalty="l2", alpha=1e-4, random_state=0).fit(X, y)
        sparse = SGDClassifier(penalty="l1", alpha=0.01, random_state=0).fit(X, y)
        assert (np.abs(sparse.coef_) < 1e-4).sum() >= (np.abs(dense.coef_) < 1e-4).sum()

    def test_elasticnet_accepted(self):
        X, y = _blobs()
        model = SGDClassifier(penalty="elasticnet", random_state=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_sample_weight_shifts_decision(self):
        # one cluster heavily upweighted should dominate the fit
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        w = np.array([100.0, 100.0, 1.0, 1.0])
        model = SGDClassifier(random_state=0, max_iter=50).fit(X, y, sample_weight=w)
        # prediction at the midpoint should lean toward the upweighted class
        assert model.predict(np.array([[1.6]]))[0] in (0, 1)  # sanity: it predicts
        proba_up = model.predict_proba(np.array([[1.0]]))[0, 0]
        assert proba_up > 0.5

    def test_unscaled_features_break_training(self):
        """The Figure 3 mechanism: raw-scale features defeat the optimal schedule."""
        rng = np.random.default_rng(7)
        n = 200
        X = np.column_stack(
            [rng.normal(60.0, 8.0, n) * 1000.0, rng.normal(70.0, 7.0, n) * 1000.0]
        )
        y = (0.6 * X[:, 0] + 0.4 * X[:, 1] > 65000.0).astype(int)
        raw = SGDClassifier(random_state=0, max_iter=20).fit(X, y)
        scaled_X = StandardScaler().fit_transform(X)
        scaled = SGDClassifier(random_state=0, max_iter=20).fit(scaled_X, y)
        assert scaled.score(scaled_X, y) > 0.9
        assert raw.score(X, y) < scaled.score(scaled_X, y)

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X = np.vstack([rng.normal(c, 0.7, size=(60, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 60)
        model = SGDClassifier(random_state=0, max_iter=40).fit(X, y)
        assert model.score(X, y) > 0.9
        proba = model.predict_proba(X)
        assert proba.shape == (180, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            SGDClassifier().fit(np.ones((3, 1)), np.array([1, 1, 1]))

    def test_invalid_loss_and_penalty(self):
        X, y = _blobs(n=10)
        with pytest.raises(ValueError, match="loss"):
            SGDClassifier(loss="squared").fit(X, y)
        with pytest.raises(ValueError, match="penalty"):
            SGDClassifier(penalty="l3").fit(X, y)
        for l1_ratio in (1.5, -0.1):
            with pytest.raises(ValueError, match="l1_ratio"):
                SGDClassifier(penalty="elasticnet", l1_ratio=l1_ratio).fit(X, y)

    def test_feature_width_check_at_predict(self):
        X, y = _blobs(n=20)
        model = SGDClassifier(random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((2, 5)))

    def test_string_class_labels_preserved(self):
        X, y = _blobs(n=40)
        labels = np.where(y == 1, "good", "bad")
        model = SGDClassifier(random_state=0).fit(X, labels)
        assert set(model.predict(X)) <= {"good", "bad"}
