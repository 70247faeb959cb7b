"""Filter feature-selection ensembles with bagged polynomial-kernel SVMs."""

from .data import (
    AttributeSpec,
    DataError,
    Dataset,
    DiscretizationMap,
    SplitSpec,
    Standardizer,
    discretize_mdl,
    export_csv,
    fit_discretization,
    fit_standardizer,
    load_dataset,
    select_features,
    stratified_split,
)
from .filters import (
    CLASS,
    FeatureScores,
    SubsetEvaluation,
    cfs_merit,
    inconsistency_rate,
    info_gain,
    rank_cutoff,
    relieff,
    symmetric_uncertainty,
)
from .search import (
    BestFirstConfig,
    GeneticConfig,
    SubsetEvaluator,
    best_first,
    genetic_search,
)
from .fs_ensemble import (
    FeatureSelection,
    SelectorConfig,
    SelectorId,
    aggregate,
    run_selector,
)
from .svm import (
    BinarySvm,
    KernelSpec,
    SvmConfig,
    SvmModel,
    load_model,
    save_model,
    smo_train,
    train_multiclass,
)
from .bagging import (
    EnsembleConfig,
    EnsembleModel,
    bagging_train,
    bootstrap_sample,
    load_ensemble,
    save_ensemble,
)
from .report import (
    ConfusionMatrix,
    accuracy,
    timed,
)

__version__ = "0.1.0"
