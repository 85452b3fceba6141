"""The six base classifiers plus the shared model-artifact machinery."""
from .artifact import (
    ARTIFACT_VERSION,
    ModelArtifact,
    fit_model,
    load_model,
    predict_proba,
    register_kind,
    save_model,
    sigmoid,
)
from .boosting import fit_gbm, fit_gbm2
from .data import LabeledDataset, load_feature_matrix
from .forest import fit_pca, fit_pca_rf, fit_random_forest
from .grids import default_grid
from .linear import fit_glm, fit_lasso, lambda_max

BASE_KINDS = ("rf", "pca_rf", "gbm", "gbm2", "glm", "lasso")
