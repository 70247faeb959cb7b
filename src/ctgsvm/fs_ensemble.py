"""Ensembles of feature selectors: run the individual selectors, then merge
their outputs by union or mean-rank aggregation.

Selector codes follow a fixed numbering: 1 = correlation merit, 2 =
consistency, 3 = relief weights, 4 = information gain. Combination labels
append the member digits in order, e.g. "EFS41".
"""
from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset, DiscretizationMap, DataError, fit_discretization
from .filters import (
    FeatureScores,
    info_gain_scores,
    rank_cutoff,
    relieff,
)
from .search import (
    BestFirstConfig,
    GeneticConfig,
    SubsetEvaluator,
    best_first,
    genetic_search,
    make_cfs_evaluator,
    make_consistency_evaluator,
)

CODES = ("FS1", "FS2", "FS3", "FS4")
SUBSET_CODES = ("FS1", "FS2")
RANKER_CODES = ("FS3", "FS4")


@dataclass(frozen=True)
class SelectorId:
    code: str
    search: str

    def __post_init__(self):
        if self.code not in CODES:
            raise DataError(f"unknown selector code {self.code!r}")
        if self.code in SUBSET_CODES and self.search not in ("best_first", "genetic"):
            raise DataError(f"{self.code} requires best_first or genetic search")
        if self.code in RANKER_CODES and self.search != "ranker":
            raise DataError(f"{self.code} requires the ranker")

    @property
    def label(self) -> str:
        return f"{self.code}-{self.search}"


@dataclass(frozen=True)
class SelectorConfig:
    """Shared knobs for a batch of selector runs."""

    best_first: BestFirstConfig = BestFirstConfig()
    genetic: GeneticConfig = GeneticConfig()
    relieff_m: int | None = None
    relieff_k: int = 10
    relieff_seed: int = 0
    cutoff_rule: str = "keep_all"
    cutoff_value: float | None = None

    def __post_init__(self):
        if self.relieff_k < 1:
            raise DataError(f"relieff_k must be >= 1, not {self.relieff_k!r}")


@dataclass(frozen=True)
class FeatureSelection:
    """What one selector chose: a feature set, optionally with the ranking
    and the search value that produced it."""

    selector: SelectorId
    selected: frozenset
    scores: FeatureScores | None = None
    value: float | None = None

    def ranking(self, n_features: int) -> tuple[int, ...]:
        """Full feature ordering: scored order when available, otherwise the
        selected features (ascending) ahead of the rest (ascending)."""
        if self.scores is not None:
            return self.scores.ordering
        chosen = sorted(self.selected)
        rest = [f for f in range(n_features) if f not in self.selected]
        return tuple(chosen + rest)

    def row(self, feature_names) -> list[str]:
        """This selection as one row under SELECTION_HEADER."""
        return [
            self.selector.label,
            str(len(self.selected)),
            "" if self.value is None else repr(self.value),
            ";".join(feature_names[f] for f in sorted(self.selected)),
        ]


SELECTION_HEADER = ("selector", "n_features", "search_value", "features")


def run_selector(
    sel: SelectorId,
    train: Dataset,
    cfg: SelectorConfig = SelectorConfig(),
    dmap: DiscretizationMap | None = None,
    trace: list | None = None,
) -> FeatureSelection:
    """Execute one selector on the training partition. A subset search's
    evaluator appends its (evaluation, subset, score) steps to `trace` when
    given; the rankers leave it untouched."""
    if dmap is None:
        dmap = fit_discretization(train)
    if sel.code in SUBSET_CODES:
        evaluator: SubsetEvaluator = (
            make_cfs_evaluator(train, dmap)
            if sel.code == "FS1"
            else make_consistency_evaluator(train, dmap)
        )
        evaluator.trace = trace
        if sel.search == "best_first":
            res = best_first(evaluator, train.n_features, cfg.best_first)
        else:
            res = genetic_search(evaluator, train.n_features, cfg.genetic)
        return FeatureSelection(sel, res.subset, value=res.value)
    scores = (
        relieff(train, m=cfg.relieff_m, k=cfg.relieff_k, seed=cfg.relieff_seed)
        if sel.code == "FS3"
        else info_gain_scores(train, dmap)
    )
    selected = rank_cutoff(scores, cfg.cutoff_rule, cfg.cutoff_value)
    if not selected:  # only a threshold above every score keeps nothing
        raise DataError(f"{sel.label}: cutoff threshold:{cfg.cutoff_value!r} keeps no feature; "
                        f"the top score is {max(scores.scores)!r}")
    return FeatureSelection(sel, selected, scores=scores)


def combo_label(members) -> str:
    return "EFS" + "".join(m.code[2] for m in members)


def aggregate(
    selections: list[FeatureSelection],
    mode: str = "union",
    k: int | None = None,
    n_features: int | None = None,
) -> frozenset:
    """Merge several selector outputs into one feature set.

    union keeps any feature some member chose, with each ranker member
    re-cut to its top k when k is given; mean_rank_top_k averages each
    feature's rank position across members and keeps the k best (ties by
    ascending index).
    """
    if len(selections) < 2:
        raise DataError("need at least 2 selections to aggregate")
    if mode == "union":
        return frozenset().union(*(
            s.selected if k is None or s.scores is None else rank_cutoff(s.scores, "top_k", k) for s in selections
        ))
    if mode == "mean_rank_top_k":
        if n_features is None:
            raise DataError("mean_rank_top_k requires n_features")
        if k is None or not 1 <= k <= n_features:
            raise DataError(f"mean_rank_top_k: k out of range 1..{n_features}")
        totals = [0.0] * n_features
        for s in selections:
            for pos, f in enumerate(s.ranking(n_features)):
                totals[f] += pos
        order = sorted(range(n_features), key=lambda f: (totals[f], f))
        return frozenset(order[:k])
    raise DataError(f"unknown aggregation mode {mode!r}")
