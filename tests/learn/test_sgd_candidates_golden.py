"""Golden tests: ``SGDClassifier.fit_candidates`` trains a whole family of
candidates in one stack and every model is byte-identical to the frozen
one-row training loop in ``reference_impl`` fitted once per candidate."""

import numpy as np
import pytest

from repro.core.learners import LOGISTIC_REGRESSION_GRID
from repro.learn import GridSearchCV, ParameterGrid, SGDClassifier
from repro.learn import linear
from repro.learn.base import clone

from .reference_impl import _ReferenceSGD, fit_ovr_per_class
from .test_ovr_golden import binary, multiclass


def assert_family_matches_reference(base, params_list, X, y, sample_weight=None):
    models = base.fit_candidates(params_list, X, y, sample_weight=sample_weight)
    assert len(models) == len(params_list)
    for model, params in zip(models, params_list):
        assert model.get_params() == dict(base.get_params(), **params)
        coef, intercept = fit_ovr_per_class(
            clone(base).set_params(**params), X, y, sample_weight=sample_weight
        )
        assert np.array_equal(model.coef_, coef), params
        assert np.array_equal(model.intercept_, intercept), params
        # byte-identical, down to the sign of zero
        assert model.coef_.tobytes() == coef.tobytes(), params
        assert model.intercept_.tobytes() == intercept.tobytes(), params
    return models


@pytest.fixture
def stacks(monkeypatch):
    """Record the row count of every kernel call."""
    calls = []
    real = linear._train_stack

    def spy(lead, row_models, *args):
        calls.append(len(row_models))
        return real(lead, row_models, *args)

    monkeypatch.setattr(linear, "_train_stack", spy)
    return calls


class TestFitCandidates:
    def test_logistic_regression_grid(self, stacks):
        X, y = binary(400, 12, seed=1)
        weights = np.random.default_rng(2).random(len(y)) + 0.5
        base = SGDClassifier(loss="log", max_iter=20, random_state=7)
        candidates = list(ParameterGrid(LOGISTIC_REGRESSION_GRID))
        assert_family_matches_reference(base, candidates, X, y, sample_weight=weights)
        assert stacks == [len(candidates)]

    def test_mixed_losses_and_penalties(self, stacks):
        # alpha=0 and penalty='none' take no penalty step; the loss splits
        # the candidates into two stacks
        X, y = binary(300, 9, seed=3)
        candidates = [
            {"loss": loss, "penalty": penalty, "alpha": alpha}
            for loss in ("log", "hinge")
            for penalty in ("l2", "l1", "elasticnet", "none")
            for alpha in (0.0, 0.001, 0.05)
        ]
        base = SGDClassifier(max_iter=8, l1_ratio=0.3, random_state=1)
        assert_family_matches_reference(base, candidates, X, y)
        assert stacks == [12, 12]

    def test_elasticnet_without_l1_share_still_thresholds(self):
        # l1_ratio=0 soft-thresholds by zero (which turns -0.0 into 0.0);
        # it must sit in the thresholded block next to plain l1 rows
        X, y = binary(250, 7, seed=11)
        X[:, 2] = 0.0
        candidates = [
            {"penalty": "l1"},
            {"penalty": "elasticnet", "l1_ratio": 0.0},
            {"penalty": "l2"},
            {"penalty": "elasticnet", "l1_ratio": 1.0},
        ]
        base = SGDClassifier(max_iter=6, alpha=0.01, random_state=3)
        assert_family_matches_reference(base, candidates, X, y)

    def test_rows_converge_in_different_epochs(self, monkeypatch):
        X, y = binary(500, 10, seed=4)
        base = SGDClassifier(max_iter=30, tol=1e-3, batch_size=16, random_state=2)
        candidates = [
            {"penalty": penalty, "alpha": alpha}
            for penalty in ("l2", "l1")
            for alpha in (1e-5, 1e-3, 0.05)
        ]
        epochs = []
        real = _ReferenceSGD._fit_binary

        def counting(self, X, signs, sample_weight):
            losses = []
            real_mean_loss = self._mean_loss

            def mean_loss(*args):
                losses.append(1)
                return real_mean_loss(*args)

            self._mean_loss = mean_loss
            result = real(self, X, signs, sample_weight)
            epochs.append(len(losses))
            return result

        monkeypatch.setattr(_ReferenceSGD, "_fit_binary", counting)
        assert_family_matches_reference(base, candidates, X, y)
        assert len(set(epochs)) > 1, f"every row stopped after {epochs} epochs"

    def test_partial_last_batch(self):
        X, y = binary(203, 6, seed=5)
        base = SGDClassifier(max_iter=5, batch_size=32, random_state=0)
        assert len(y) % base.batch_size != 0
        candidates = list(ParameterGrid({"penalty": ["l2", "elasticnet"], "alpha": [1e-4, 0.01]}))
        assert_family_matches_reference(base, candidates, X, y)

    @pytest.mark.parametrize("chunk_rows", [10, 40])
    def test_epoch_gathered_in_several_chunks(self, monkeypatch, chunk_rows):
        # chunks of one batch (the floor) and of two, the last one partial
        monkeypatch.setattr(linear, "_CHUNK_ROWS", chunk_rows)
        X, y = binary(203, 6, seed=8)
        weights = np.random.default_rng(3).random(len(y)) + 0.5
        base = SGDClassifier(max_iter=6, batch_size=16, random_state=4)
        candidates = list(ParameterGrid(LOGISTIC_REGRESSION_GRID))
        assert_family_matches_reference(base, candidates, X, y, sample_weight=weights)

    def test_batch_larger_than_the_data(self):
        X, y = binary(50, 4, seed=6)
        base = SGDClassifier(max_iter=6, batch_size=64, random_state=0)
        candidates = list(ParameterGrid({"penalty": ["l1", "l2"], "alpha": [1e-4, 0.01]}))
        assert_family_matches_reference(base, candidates, X, y)

    def test_all_zero_weight_batch(self):
        # unshuffled, so the first batch is exactly the zero-weight rows
        # and the step takes the total == 0 branch on every row
        X, y = binary(240, 6, seed=3)
        weights = np.random.default_rng(8).random(len(y)) * 3.0 + 0.1
        weights[:16] = 0.0
        candidates = list(ParameterGrid(LOGISTIC_REGRESSION_GRID))
        for loss in ("log", "hinge"):
            base = SGDClassifier(
                loss=loss, max_iter=5, batch_size=16, shuffle=False, random_state=0
            )
            assert_family_matches_reference(
                base, candidates, X, y, sample_weight=weights
            )

    def test_divergence_guard(self, monkeypatch):
        # features near the float64 limit overflow w in the first epochs;
        # the guard freezes each diverged row on its own
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        calls = []
        real = np.nan_to_num

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "nan_to_num", spy)
        candidates = list(ParameterGrid(LOGISTIC_REGRESSION_GRID))
        with np.errstate(all="ignore"):
            for loss in ("log", "hinge"):
                base = SGDClassifier(loss=loss, max_iter=5, random_state=0)
                calls.clear()
                assert_family_matches_reference(base, candidates, X * 1e307, y)
                assert calls, "the divergence guard never fired"

    def test_without_shuffling(self, stacks):
        X, y = binary(200, 8, seed=2)
        # no permutation is drawn, so even an unseeded family shares a stack
        base = SGDClassifier(max_iter=4, batch_size=16, shuffle=False)
        candidates = list(ParameterGrid(LOGISTIC_REGRESSION_GRID))
        assert_family_matches_reference(base, candidates, X, y)
        assert stacks == [len(candidates)]

    def test_multiclass(self, stacks):
        X, y = multiclass(300, 8, 4, seed=7)
        weights = np.random.default_rng(1).random(len(y)) + 0.25
        base = SGDClassifier(max_iter=10, random_state=3)
        candidates = list(ParameterGrid(LOGISTIC_REGRESSION_GRID))
        models = assert_family_matches_reference(
            base, candidates, X, y, sample_weight=weights
        )
        assert models[0].coef_.shape == (4, 8)
        assert stacks == [4 * len(candidates)]

    def test_invalid_candidate_is_rejected(self):
        X, y = binary(60, 3)
        with pytest.raises(ValueError):
            SGDClassifier().fit_candidates([{"penalty": "l3"}], X, y)


class TestUnsharedRandomness:
    def test_unseeded_rows_draw_their_own_permutations(self, monkeypatch, stacks):
        X, y = multiclass(120, 4, 3)
        seeds = []
        real = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        candidates = list(ParameterGrid({"alpha": [1e-4, 1e-2], "penalty": ["l2", "l1"]}))
        models = SGDClassifier(max_iter=3).fit_candidates(candidates, X, y)
        # one kernel call and one fresh unseeded generator per row
        assert stacks == [1] * (3 * len(candidates))
        assert seeds == [None] * (3 * len(candidates))
        assert [m.coef_.shape for m in models] == [(3, 4)] * len(candidates)

    def test_shared_generator_draws_in_fit_order(self):
        # a Generator random_state advances across fits: the family must
        # consume it candidate by candidate, class by class, as single fits do
        X, y = multiclass(150, 5, 3, seed=1)
        candidates = list(ParameterGrid({"alpha": [1e-4, 1e-2], "penalty": ["l2", "l1"]}))
        family = SGDClassifier(
            max_iter=4, random_state=np.random.default_rng(11)
        ).fit_candidates(candidates, X, y)
        base = SGDClassifier(max_iter=4, random_state=np.random.default_rng(11))
        for model, params in zip(family, candidates):
            single = clone(base).set_params(**params).fit(X, y)
            assert np.array_equal(model.coef_, single.coef_)
            assert np.array_equal(model.intercept_, single.intercept_)

    def test_shared_generator_fit_matches_reference(self):
        X, y = multiclass(150, 5, 3, seed=2)
        model = SGDClassifier(max_iter=4, random_state=np.random.default_rng(5)).fit(X, y)
        coef, intercept = fit_ovr_per_class(
            SGDClassifier(max_iter=4, random_state=np.random.default_rng(5)), X, y
        )
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)


class TestStackedMatvecIdentity:
    """The kernel's exactness rests on ``np.matmul`` over a leading row axis
    running one matrix-vector product per row (a gemm rounds differently).
    If a NumPy upgrade changes that, this fails before any digest drifts."""

    @pytest.mark.parametrize("batch", [1, 7, 32, 333])
    def test_stacked_products_equal_per_row_products(self, batch):
        rng = np.random.default_rng(batch)
        X = rng.normal(size=(2000, 81)) * rng.random(81) * 50
        order = rng.permutation(len(X))
        W = rng.normal(size=(12, 81))
        for start in range(0, len(X) - batch, 97):
            xb = X[order[start : start + batch]]
            margins = np.matmul(xb, W[:, :, None])[:, :, 0]
            coeff = rng.normal(size=(12, batch))
            grads = np.matmul(xb.T, coeff[:, :, None])[:, :, 0]
            for r in range(len(W)):
                assert np.array_equal(margins[r], xb @ W[r])
                assert np.array_equal(grads[r], xb.T @ coeff[r])
                assert np.array_equal(
                    coeff.sum(axis=1, keepdims=True)[r, 0], coeff[r].sum()
                )


class TestGridSearchHook:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_search_identical_with_and_without_the_hook(self, monkeypatch, n_jobs):
        X, y = binary(300, 8, seed=9)
        weights = np.random.default_rng(4).random(len(y)) + 0.5
        grid = dict(LOGISTIC_REGRESSION_GRID, loss=["log", "hinge"])

        def search():
            return GridSearchCV(
                SGDClassifier(max_iter=6, random_state=3),
                grid,
                cv=3,
                random_state=0,
                n_jobs=n_jobs,
            ).fit(X, y, sample_weight=weights)

        hooked = search()
        monkeypatch.delattr(SGDClassifier, "fit_candidates")
        plain = search()
        assert hooked.cv_results_ == plain.cv_results_
        assert hooked.best_params_ == plain.best_params_
        assert np.array_equal(hooked.best_estimator_.coef_, plain.best_estimator_.coef_)
        assert np.array_equal(
            hooked.best_estimator_.intercept_, plain.best_estimator_.intercept_
        )
