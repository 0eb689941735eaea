"""Golden tests: SGDClassifier's binary and one-vs-rest fits are
byte-identical to the frozen seed training loop in ``reference_impl``
(fixed seed, all losses and penalties, weights, and divergence)."""

import numpy as np
import pytest

from repro.learn import SGDClassifier

from .reference_impl import fit_ovr_per_class


def multiclass(n, d, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    centers = rng.normal(size=(n_classes, d))
    y = np.argmax(X @ centers.T, axis=1)
    return X, np.asarray([f"class_{i}" for i in range(n_classes)], dtype=object)[y]


def binary(n, d, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X @ rng.normal(size=d) + 0.5 * rng.normal(size=n) > 0).astype(int)
    return X, y


def assert_matches_reference(spec, X, y, sample_weight=None):
    model = SGDClassifier(**spec).fit(X, y, sample_weight=sample_weight)
    coef, intercept = fit_ovr_per_class(
        SGDClassifier(**spec), X, y, sample_weight=sample_weight
    )
    assert np.array_equal(model.coef_, coef)
    assert np.array_equal(model.intercept_, intercept)
    return model


class TestSGDOneVsRest:
    @pytest.mark.parametrize("loss", ["log", "hinge"])
    @pytest.mark.parametrize("penalty", ["l2", "l1", "elasticnet", "none"])
    def test_coefficients_byte_identical(self, loss, penalty):
        X, y = multiclass(300, 10, 4)
        spec = dict(
            loss=loss, penalty=penalty, max_iter=6, batch_size=32, random_state=5
        )
        assert_matches_reference(spec, X, y)

    def test_without_shuffling(self):
        X, y = multiclass(200, 8, 3, seed=2)
        spec = dict(loss="log", max_iter=4, batch_size=16, shuffle=False, random_state=0)
        assert_matches_reference(spec, X, y)

    def test_many_classes_with_uneven_convergence(self):
        # enough epochs that some classes stop early while others keep
        # training: each class's convergence is its own
        X, y = multiclass(500, 12, 7, seed=4)
        spec = dict(loss="log", max_iter=25, batch_size=64, tol=1e-3, random_state=1)
        assert_matches_reference(spec, X, y)

    def test_predictions_cover_all_classes(self):
        X, y = multiclass(400, 10, 5)
        model = SGDClassifier(loss="log", max_iter=10, random_state=0).fit(X, y)
        assert set(np.unique(model.predict(X))) <= set(np.unique(y))
        assert model.coef_.shape == (5, 10)


class TestSGDBinary:
    @pytest.mark.parametrize("loss", ["log", "hinge"])
    @pytest.mark.parametrize("penalty", ["l2", "l1", "elasticnet", "none"])
    def test_coefficients_byte_identical(self, loss, penalty):
        X, y = binary(300, 10)
        spec = dict(
            loss=loss, penalty=penalty, max_iter=6, batch_size=32, random_state=5
        )
        model = assert_matches_reference(spec, X, y)
        assert model.coef_.shape == (1, 10)

    def test_without_shuffling(self):
        X, y = binary(200, 8, seed=2)
        spec = dict(loss="log", max_iter=4, batch_size=16, shuffle=False, random_state=0)
        assert_matches_reference(spec, X, y)

    def test_weighted_with_an_all_zero_weight_batch(self):
        # unshuffled, so the first batch is exactly the zero-weight rows
        # and its gradient takes the total == 0 branch
        X, y = binary(240, 6, seed=3)
        weights = np.random.default_rng(8).random(len(y)) * 3.0 + 0.1
        weights[:16] = 0.0
        spec = dict(loss="log", max_iter=5, batch_size=16, shuffle=False, random_state=0)
        assert_matches_reference(spec, X, y, sample_weight=weights)
        assert_matches_reference(dict(spec, loss="hinge"), X, y, sample_weight=weights)

    @pytest.mark.parametrize("loss", ["log", "hinge"])
    def test_overflowing_weights_hit_the_divergence_guard(self, monkeypatch, loss):
        # features near the float64 limit overflow w within the first
        # epochs, so training runs through the nan_to_num freeze
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        calls = []
        real = np.nan_to_num

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        spec = dict(loss=loss, max_iter=5, random_state=0)
        monkeypatch.setattr(np, "nan_to_num", spy)
        with np.errstate(all="ignore"):
            assert_matches_reference(spec, X * 1e307, y)
        assert calls, "the divergence guard never fired"


class TestSGDWeightedOneVsRest:
    def test_weighted_multiclass_byte_identical(self):
        X, y = multiclass(220, 7, 4, seed=6)
        weights = np.random.default_rng(9).random(len(y)) + 0.25
        spec = dict(loss="log", penalty="elasticnet", max_iter=8, random_state=4)
        assert_matches_reference(spec, X, y, sample_weight=weights)
