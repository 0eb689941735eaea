"""ML substrate with the scikit-learn estimator contract.

Provides everything the FairPrep lifecycle consumes: linear models and
decision trees (the paper's baselines), feature scalers and encoders,
pipelines, seeded cross-validation / grid search, and accuracy metrics.
"""

from .base import (
    BaseEstimator,
    ClassifierMixin,
    NotFittedError,
    TransformerMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
    clone,
)
from .encoders import FrequencyEncoder, SVDEmbeddingEncoder, TargetEncoder
from .impute import SimpleImputer
from .linear import SGDClassifier
from .metrics import (
    accuracy_score,
    balanced_accuracy_score,
    binary_counts,
    brier_score,
    confusion_matrix,
    f1_score,
    log_loss,
    precision_score,
    recall_score,
    roc_auc_score,
)
from .model_selection import (
    GridSearchCV,
    KFold,
    ParameterGrid,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
)
from .histogram import HistogramBinning, HistogramSplitter
from .naive_bayes import GaussianNB
from .neighbors import KNeighborsClassifier, nearest_neighbor_indices
from .pipeline import Pipeline, make_pipeline
from .splitter import Presort
from .preprocessing import (
    MISSING_CATEGORY,
    UNSEEN_CATEGORY,
    LabelEncoder,
    MinMaxScaler,
    NoOpScaler,
    OneHotEncoder,
    StandardScaler,
)
from .tree import DecisionTreeClassifier

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "DecisionTreeClassifier",
    "FrequencyEncoder",
    "GaussianNB",
    "GridSearchCV",
    "HistogramBinning",
    "HistogramSplitter",
    "KFold",
    "KNeighborsClassifier",
    "LabelEncoder",
    "MISSING_CATEGORY",
    "MinMaxScaler",
    "NoOpScaler",
    "NotFittedError",
    "OneHotEncoder",
    "ParameterGrid",
    "Pipeline",
    "Presort",
    "SGDClassifier",
    "SVDEmbeddingEncoder",
    "SimpleImputer",
    "StandardScaler",
    "TargetEncoder",
    "StratifiedKFold",
    "TransformerMixin",
    "UNSEEN_CATEGORY",
    "accuracy_score",
    "balanced_accuracy_score",
    "binary_counts",
    "brier_score",
    "check_labels",
    "check_matrix",
    "check_sample_weight",
    "clone",
    "confusion_matrix",
    "cross_val_score",
    "f1_score",
    "log_loss",
    "make_pipeline",
    "nearest_neighbor_indices",
    "precision_score",
    "recall_score",
    "roc_auc_score",
    "train_test_split",
]
