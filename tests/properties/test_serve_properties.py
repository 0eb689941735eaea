"""Property tests for the serialization contract behind the serving layer.

For every learner, encoder, scaler and post-processor:
``from_state(to_state(m))`` must predict/transform **byte-identically** to
the original on arbitrary inputs — and survive the full artifact path
(JSON manifest + npz arrays on disk), not just an in-memory state dict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fairness import BinaryLabelDataset
from repro.fairness.postprocessing import (
    CalibratedEqOddsPostprocessing,
    EqOddsPostprocessing,
    RejectOptionClassification,
)
from repro.fairness.preprocessing import DisparateImpactRemover, Reweighing
from repro.learn import (
    DecisionTreeClassifier,
    FrequencyEncoder,
    GaussianNB,
    KNeighborsClassifier,
    LabelEncoder,
    MinMaxScaler,
    NoOpScaler,
    OneHotEncoder,
    SGDClassifier,
    SimpleImputer,
    StandardScaler,
    SVDEmbeddingEncoder,
    TargetEncoder,
)
from repro.serialize import restore, state_of
from repro.serve import load_artifact, save_artifact


def roundtrip(component, tmp_path=None):
    """state → (optionally disk) → component."""
    payload = state_of(component)
    if tmp_path is not None:
        save_artifact(str(tmp_path), {"c": payload})
        payload = load_artifact(str(tmp_path))["c"]
    return restore(payload)


classification_data = st.integers(0, 2**32 - 1).map(
    lambda seed: _make_classification(seed)
)


def _make_classification(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 120))
    d = int(rng.integers(2, 8))
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.float64)
    if len(np.unique(y)) < 2:
        y[0] = 1.0 - y[0]
    X_test = rng.normal(size=(25, d))
    return X, y, X_test


LEARNER_FACTORIES = [
    lambda: SGDClassifier(loss="log", max_iter=5, random_state=0),
    lambda: SGDClassifier(loss="hinge", penalty="l1", max_iter=4, random_state=1),
    lambda: SGDClassifier(
        penalty="elasticnet", l1_ratio=0.5, max_iter=5, random_state=2
    ),
    lambda: DecisionTreeClassifier(max_depth=5, random_state=0),
    lambda: DecisionTreeClassifier(criterion="entropy", min_samples_leaf=3),
    lambda: GaussianNB(),
    lambda: KNeighborsClassifier(n_neighbors=3),
]


class TestLearnerRoundtrip:
    @pytest.mark.parametrize("factory", LEARNER_FACTORIES)
    @given(data=classification_data)
    @settings(max_examples=15, deadline=None)
    def test_predictions_byte_identical(self, factory, data):
        X, y, X_test = data
        model = factory().fit(X, y)
        clone = roundtrip(model)
        assert np.array_equal(model.predict(X_test), clone.predict(X_test))
        if hasattr(model, "predict_proba") and model.get_params().get("loss") != "hinge":
            assert np.array_equal(
                model.predict_proba(X_test), clone.predict_proba(X_test)
            )

    @pytest.mark.parametrize("factory", LEARNER_FACTORIES)
    def test_survives_disk(self, factory, tmp_path):
        X, y, X_test = _make_classification(7)
        model = factory().fit(X, y)
        clone = roundtrip(model, tmp_path=tmp_path / "art")
        assert np.array_equal(model.predict(X_test), clone.predict(X_test))

    @given(data=classification_data)
    @settings(max_examples=10, deadline=None)
    def test_string_labels_roundtrip(self, data):
        X, y, X_test = data
        labels = np.where(y == 1.0, "yes", "no").astype(object)
        model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, labels)
        clone = roundtrip(model)
        assert np.array_equal(model.predict(X_test), clone.predict(X_test))


categorical_frames = st.lists(
    st.lists(
        st.one_of(st.sampled_from(["a", "b", "c", "dd"]), st.none()),
        min_size=8,
        max_size=40,
    ),
    min_size=1,
    max_size=3,
)


def _columns(raw):
    n = min(len(col) for col in raw)
    return [np.asarray(col[:n], dtype=object) for col in raw]


ENCODER_FACTORIES = [
    lambda: OneHotEncoder(),
    lambda: FrequencyEncoder(),
    lambda: TargetEncoder(smoothing=2.0),
    lambda: SVDEmbeddingEncoder(n_components=3),
]


class TestEncoderRoundtrip:
    @pytest.mark.parametrize("factory", ENCODER_FACTORIES)
    @given(raw=categorical_frames, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_transform_byte_identical(self, factory, raw, seed):
        columns = _columns(raw)
        rng = np.random.default_rng(seed)
        y = (rng.random(len(columns[0])) < 0.5).astype(np.float64)
        encoder = factory().fit(columns, y=y)
        clone = roundtrip(encoder)
        # include unseen values at transform time
        test_columns = [
            np.asarray(list(col[:5]) + ["unseen!"], dtype=object) for col in columns
        ]
        assert np.array_equal(
            encoder.transform(test_columns), clone.transform(test_columns)
        )

    @pytest.mark.parametrize("factory", ENCODER_FACTORIES)
    def test_survives_disk(self, factory, tmp_path):
        columns = [np.asarray(["a", "b", None, "c", "a", "b"] * 3, dtype=object)]
        y = np.asarray([0.0, 1.0] * 9)
        encoder = factory().fit(columns, y=y)
        clone = roundtrip(encoder, tmp_path=tmp_path / "art")
        assert np.array_equal(encoder.transform(columns), clone.transform(columns))

    def test_label_encoder_roundtrip(self):
        encoder = LabelEncoder().fit(np.asarray(["x", "y", "z", "x"], dtype=object))
        clone = roundtrip(encoder)
        values = np.asarray(["z", "x", "y"], dtype=object)
        assert np.array_equal(encoder.transform(values), clone.transform(values))
        assert np.array_equal(
            encoder.inverse_transform([0, 2]), clone.inverse_transform([0, 2])
        )


matrices = arrays(
    np.float64,
    st.tuples(st.integers(3, 25), st.integers(1, 5)),
    elements=st.floats(-1e4, 1e4, allow_nan=False),
)

SCALER_FACTORIES = [
    lambda: StandardScaler(),
    lambda: StandardScaler(with_mean=False),
    lambda: MinMaxScaler(feature_range=(-1.0, 2.0)),
    lambda: NoOpScaler(),
    lambda: SimpleImputer(strategy="median"),
]


class TestScalerRoundtrip:
    @pytest.mark.parametrize("factory", SCALER_FACTORIES)
    @given(X=matrices)
    @settings(max_examples=15, deadline=None)
    def test_transform_byte_identical(self, factory, X):
        transformer = factory().fit(X)
        clone = roundtrip(transformer)
        assert np.array_equal(transformer.transform(X), clone.transform(X))


def _prediction_datasets(seed, n=120):
    rng = np.random.default_rng(seed)
    groups = (rng.random(n) < 0.5).astype(np.float64)
    truth = (rng.random(n) < 0.35 + 0.2 * groups).astype(np.float64)
    scores = np.clip(
        0.5 * truth + 0.3 * rng.random(n) + 0.1 * groups, 0.0, 1.0
    )
    predicted = (scores >= 0.5).astype(np.float64)
    base = BinaryLabelDataset(
        features=rng.normal(size=(n, 3)),
        labels=truth,
        protected_attributes=groups.reshape(-1, 1),
        protected_attribute_names=["g"],
        feature_names=["f0", "f1", "f2"],
    )
    pred = base.with_predictions(labels=predicted, scores=scores)
    return base, pred


UNPRIV = [{"g": 0.0}]
PRIV = [{"g": 1.0}]

POST_FACTORIES = [
    lambda: RejectOptionClassification(
        unprivileged_groups=UNPRIV,
        privileged_groups=PRIV,
        num_class_thresh=8,
        num_ROC_margin=5,
    ),
    lambda: CalibratedEqOddsPostprocessing(
        unprivileged_groups=UNPRIV, privileged_groups=PRIV, seed=13
    ),
    lambda: EqOddsPostprocessing(
        unprivileged_groups=UNPRIV, privileged_groups=PRIV, seed=13
    ),
]


class TestPostProcessorRoundtrip:
    @pytest.mark.parametrize("factory", POST_FACTORIES)
    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_predict_byte_identical(self, factory, seed):
        base, pred = _prediction_datasets(seed)
        post = factory().fit(base, pred)
        clone = roundtrip(post)
        out = post.predict(pred)
        out_clone = clone.predict(pred)
        assert np.array_equal(out.labels, out_clone.labels)
        if out.scores is not None or out_clone.scores is not None:
            assert np.array_equal(out.scores, out_clone.scores)

    @pytest.mark.parametrize("factory", POST_FACTORIES)
    def test_survives_disk(self, factory, tmp_path):
        base, pred = _prediction_datasets(99)
        post = factory().fit(base, pred)
        clone = roundtrip(post, tmp_path=tmp_path / "art")
        assert np.array_equal(post.predict(pred).labels, clone.predict(pred).labels)


class TestPreProcessorRoundtrip:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_reweighing_weights_byte_identical(self, seed):
        base, _ = _prediction_datasets(seed)
        reweighing = Reweighing(
            unprivileged_groups=UNPRIV, privileged_groups=PRIV
        ).fit(base)
        clone = roundtrip(reweighing)
        assert np.array_equal(
            reweighing.transform(base).instance_weights,
            clone.transform(base).instance_weights,
        )

    @given(seed=st.integers(0, 500), level=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=10, deadline=None)
    def test_di_remover_features_byte_identical(self, seed, level):
        base, _ = _prediction_datasets(seed)
        remover = DisparateImpactRemover(
            repair_level=level, sensitive_attribute="g"
        ).fit(base)
        clone = roundtrip(remover)
        assert np.array_equal(
            remover.transform(base).features, clone.transform(base).features
        )
