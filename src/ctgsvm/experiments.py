"""The five experiment pipelines behind the command line.

Every experiment is a pure function of (dataset file, configuration, master
seed): re-running writes byte-identical result CSVs. Timings (wall and CPU
seconds) are inherently unstable, so they land in separate *_timing_*.csv
sidecar files and never contaminate the deterministic outputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .bagging import EnsembleConfig, EnsembleModel, agreement, bagging_train
from .data import (
    DataError,
    Dataset,
    SplitSpec,
    _read_text,
    fit_discretization,
    fit_standardizer,
    load_dataset,
    mask_by_names,
    select_features,
    stratified_split,
    stratified_subsample,
)
from .filters import rank_cutoff
from .fs_ensemble import (
    SELECTION_HEADER,
    FeatureSelection,
    SelectorConfig,
    SelectorId,
    aggregate,
    combo_label,
    run_selector,
)
from .report import (
    ConfusionMatrix,
    accuracy,
    confusion_from_labels,
    fmt_accuracy,
    fmt_seconds,
    render_table,
    timed,
)
from .search import BestFirstConfig, GeneticConfig
from .svm import KernelSpec, SvmConfig, pairwise_problems, train_from_problems, train_multiclass

QUICK_ROWS = 400

EXPERIMENT_IDS = ("exp1", "exp2", "exp3", "exp4", "exp5")

DEFAULT_C_GRID = (10.0, 50.0, 100.0, 500.0, 1000.0, 10000.0)
DEFAULT_DEGREE_GRID = (2, 3, 4, 5, 10)
DEFAULT_EXP2_CELLS = ((10.0, 3), (500.0, 3), (500.0, 4), (100.0, 5), (10000.0, 5))
DEFAULT_EXP3_CELLS = ((1000.0, 4), (500.0, 3), (500.0, 4), (100.0, 5))


@dataclass(frozen=True)
class ExperimentConfig:
    data: str
    class_column: str = "NSP"
    exclude_features: tuple[str, ...] = ("CLASS",)
    train_fraction: float = 0.70
    seed: int = 42
    out_dir: str = "."
    fmt: str = "csv"
    quick: bool = False
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    degree_grid: tuple[int, ...] = DEFAULT_DEGREE_GRID
    exp2_cells: tuple[tuple[float, int], ...] = DEFAULT_EXP2_CELLS
    exp3_cells: tuple[tuple[float, int], ...] = DEFAULT_EXP3_CELLS
    highlight_threshold: float = 99.0
    exp4_c: float = 1000.0
    exp4_degree: int = 4
    exp4_members: int = 10
    exp5_members: int = 7
    vote: str = "unweighted_majority"
    coef0: float = 1.0
    tolerance: float = 1e-3
    max_iter: int = 200_000
    ga_population: int = 20
    ga_generations: int = 20
    ga_crossover: float = 0.6
    ga_mutation: float = 0.033
    bf_stale_limit: int = 5
    relieff_k: int = 10
    relieff_m: int | None = None
    cutoff: str = "keep_all"

    def __post_init__(self):
        if not self.c_grid or not self.degree_grid:
            raise DataError("parameter grids must be non-empty")
        if not 1 <= self.exp4_members <= 32:
            raise DataError("ensemble member range must lie within 1..32")
        if self.fmt not in ("csv", "markdown"):
            raise DataError(f"unknown output format {self.fmt!r} (csv | markdown)")

    def load_work(self, fit: bool = True) -> Dataset:
        """The table at `data`, less whichever `exclude_features` it has. A
        table to fit on needs 2 class labels; a table to predict does not."""
        ds = load_dataset(self.data, class_column=self.class_column)
        if fit and len(ds.class_labels) < 2:
            raise DataError(f"class column {self.class_column!r} has fewer than 2 distinct labels")
        drop = [n for n in self.exclude_features if n in ds.feature_names]
        return select_features(ds, mask_by_names(ds, drop=drop)) if drop else ds

    def svm(self, C: float, degree: int) -> SvmConfig:
        return SvmConfig(
            C=C,
            kernel=KernelSpec(degree=degree, coef0=self.coef0),
            tolerance=self.tolerance,
            max_iter=self.max_iter,
        )

    def selector_config(self) -> SelectorConfig:
        rule, value = _parse_cutoff(self.cutoff)
        return SelectorConfig(
            best_first=BestFirstConfig(stale_limit=self.bf_stale_limit),
            genetic=GeneticConfig(
                population=self.ga_population,
                generations=self.ga_generations,
                crossover_prob=self.ga_crossover,
                mutation_prob=self.ga_mutation,
                seed=self.seed,
            ),
            relieff_m=self.relieff_m,
            relieff_k=self.relieff_k,
            relieff_seed=self.seed,
            cutoff_rule=rule,
            cutoff_value=value,
        )


def _parse_cutoff(text: str) -> tuple[str, float | None]:
    if text == "keep_all":
        return "keep_all", None
    if ":" in text:
        rule, value = text.split(":", 1)
        if rule in ("top_k", "threshold"):
            try:
                return rule, float(value)
            except ValueError:
                pass
    raise DataError(f"malformed cutoff {text!r} (keep_all | top_k:K | threshold:T)")


def _parse_cells(text: str) -> tuple[tuple[float, int], ...]:
    cells = []
    for part in text.split(";"):
        c, d = part.split(":")
        cells.append((float(c), int(d)))
    return tuple(cells)


def load_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values: dict[str, str] = {}
    for i, ln in enumerate(_read_text(path).splitlines(), start=1):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise DataError(f"config line {i}: expected key=value")
        key, value = ln.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def config_from_sources(file_values: dict, **overrides) -> ExperimentConfig:
    """Merge config-file values with CLI overrides (overrides win)."""
    kw: dict = {}
    conv = {
        "data": str, "class_column": str, "out_dir": str, "fmt": str,
        "train_fraction": float, "seed": int, "quick": lambda v: v.lower() in ("1", "true", "yes"),
        "highlight_threshold": float, "exp4_c": float, "exp4_degree": int,
        "exp4_members": int, "exp5_members": int, "vote": str, "coef0": float,
        "tolerance": float, "max_iter": int, "ga_population": int,
        "ga_generations": int, "ga_crossover": float, "ga_mutation": float,
        "bf_stale_limit": int, "relieff_k": int, "relieff_m": int, "cutoff": str,
        "exclude_features": lambda v: tuple(x for x in v.split(",") if x),
        "c_grid": lambda v: tuple(float(x) for x in v.split(",")),
        "degree_grid": lambda v: tuple(int(x) for x in v.split(",")),
        "exp2_cells": _parse_cells, "exp3_cells": _parse_cells,
    }
    for key, raw in file_values.items():
        if key not in conv:
            raise DataError(f"unknown config key {key!r}")
        try:
            kw[key] = conv[key](raw)
        except ValueError:
            raise DataError(f"config key {key!r}: malformed value {raw!r}") from None
    for key, value in overrides.items():
        if value is not None:
            kw[key] = value
    if "data" not in kw:
        raise DataError("no dataset given (set data= in the config or pass --data)")
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# Shared pipeline pieces


@dataclass
class Pipeline:
    """Everything the experiments share for one (dataset, seed) run."""

    cfg: ExperimentConfig
    work: Dataset
    train: Dataset
    test: Dataset
    _dmap: object = None
    _selections: dict = field(default_factory=dict)
    _model_cache: dict = field(default_factory=dict)
    _ensembles: dict = field(default_factory=dict)
    _evaluations: dict = field(default_factory=dict)

    @property
    def dmap(self):
        if self._dmap is None:
            self._dmap = fit_discretization(self.train)
        return self._dmap

    def selection(self, code: str, search: str) -> FeatureSelection:
        key = (code, search)
        if key not in self._selections:
            self._selections[key] = run_selector(
                SelectorId(code, search), self.train, self.cfg.selector_config(), self.dmap
            )
        return self._selections[key]

    def evaluation(self, model) -> dict:
        """train/test/combined confusion matrices of a model, predicted once
        per model object. The memo is keyed by the object's id and holds
        the object, so an id is never reused while its entry lives."""
        key = id(model)
        if key not in self._evaluations:
            preds = [model.predict_dataset(ds)[0] for ds in (self.train, self.test)]
            self._evaluations[key] = (model, self.confusions(*preds))
        return self._evaluations[key][1]

    def accuracies(self, model) -> dict:
        """train/test/combined percent accuracy of a model."""
        return {tag: accuracy(cm) for tag, cm in self.evaluation(model).items()}

    def label_accuracies(self, train_preds, test_preds) -> dict:
        """accuracies() of labels already predicted on train and test."""
        return {tag: accuracy(cm) for tag, cm in self.confusions(train_preds, test_preds).items()}

    def confusions(self, train_preds, test_preds) -> dict:
        """train/test/combined confusion matrices of labels predicted on
        train and test."""
        cms = {
            tag: confusion_from_labels([ds.class_labels[c] for c in ds.class_codes()], preds, ds.class_labels)
            for tag, ds, preds in (("train", self.train, train_preds), ("test", self.test, test_preds))
        }
        train, test = cms["train"], cms["test"]
        cms["combined"] = ConfusionMatrix(train.labels, train.counts + test.counts)
        return cms

    def fit_svm(self, mask, C: float, degree: int):
        """Train (with caching) a single multiclass SVM on the given mask."""
        key = (mask, C, degree)
        if key not in self._model_cache:
            mask_list = sorted(mask) if mask is not None else None
            base = select_features(self.train, mask_list) if mask_list else self.train
            std = fit_standardizer(base)
            model, secs = timed(
                lambda: train_multiclass(self.train, self.cfg.svm(C, degree), mask_list, std)
            )
            self._model_cache[key] = (model, secs)
        return self._model_cache[key]

    def ensemble(
        self, mask: frozenset, C: float, degree: int, members: int
    ) -> tuple[EnsembleModel, int, tuple]:
        """The bagged ensemble of `members` members on `mask`, with the size
        and the (wall, CPU) seconds of the training that produced it.

        Member i depends only on (master seed, i), and the seed, training
        partition and vote rule are fixed per pipeline. So the memo keeps
        the largest ensemble trained per (mask, C, degree) and answers any
        request up to its size with a prefix of it.
        """
        key = (mask, C, degree)
        if key not in self._ensembles or len(self._ensembles[key][0].members) < members:
            mask_list = sorted(mask)
            std = fit_standardizer(select_features(self.train, mask_list))
            ens_cfg = EnsembleConfig(
                members=members, base=self.cfg.svm(C, degree), master_seed=self.cfg.seed, vote=self.cfg.vote
            )
            self._ensembles[key] = timed(
                lambda: bagging_train(self.train, ens_cfg, feature_mask=mask_list, standardizer=std)
            )
        ens, secs = self._ensembles[key]
        return ens.prefix(members), len(ens.members), secs


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    work = cfg.load_work()
    if cfg.quick:
        work = stratified_subsample(work, QUICK_ROWS, cfg.seed)
    train, test = stratified_split(work, SplitSpec(cfg.train_fraction, cfg.seed))
    return Pipeline(cfg, work, train, test)


class _Out:
    """Collects output files for one experiment run."""

    def __init__(self, cfg: ExperimentConfig, exp_id: str):
        self.dir = Path(cfg.out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.exp_id = exp_id
        self.seed = cfg.seed
        self.fmt = cfg.fmt
        self.files: list[Path] = []

    def _write(self, name: str, header, rows, fmt: str) -> None:
        suffix = "md" if fmt == "markdown" else "csv"
        path = self.dir / f"{self.exp_id}_{name}_seed{self.seed}.{suffix}"
        path.write_text(render_table(header, rows, fmt), encoding="utf-8", newline="")
        self.files.append(path)

    def table(self, name: str, header, rows) -> None:
        self._write(name, header, rows, "csv")
        if self.fmt == "markdown":
            self._write(name, header, rows, "markdown")

    def timing(self, rows) -> None:
        """rows: (label, (wall seconds, CPU seconds)) per timed step."""
        rows = [(label, fmt_seconds(wall), fmt_seconds(cpu)) for label, (wall, cpu) in rows]
        self._write("timing", ["row", "wall_seconds", "cpu_seconds"], rows, "csv")


def _accuracy_row(lead, acc: dict, model, *extra) -> list:
    """The lead columns, then train, test and combined accuracy, then the
    extra columns, then the convergence flag."""
    accs = [fmt_accuracy(acc[tag]) for tag in ("train", "test", "combined")]
    return [*lead, *accs, *extra, "" if model.converged else "non_converged"]


# ---------------------------------------------------------------------------
# Experiment 1: single SVM over the C x degree grid


def run_exp1(pipe: Pipeline) -> tuple[_Out, bool]:
    cfg = pipe.cfg
    out = _Out(cfg, "exp1")
    std = fit_standardizer(pipe.train)
    problems, prep_secs = timed(lambda: pairwise_problems(pipe.train, None, std))
    cells = [(C, degree) for degree in cfg.degree_grid for C in cfg.c_grid]
    trained, secs = train_from_problems(problems, [cfg.svm(C, degree) for C, degree in cells])
    rows, timing, models = [], [("prepare", prep_secs)], {}
    for (C, degree), model, cell_secs in zip(cells, trained, secs):
        acc = pipe.accuracies(model)
        models[(C, degree)] = (model, acc)
        rows.append(_accuracy_row([_fmt_c(C), degree], acc, model))
        timing.append((f"C={_fmt_c(C)},degree={degree}", cell_secs))
    out.table("grid", ["C", "degree", "train_accuracy", "test_accuracy", "combined_accuracy", "flags"], rows)

    best_key = max(
        models, key=lambda k: (models[k][1]["combined"], -cfg.c_grid.index(k[0]), -cfg.degree_grid.index(k[1]))
    )
    conf_rows = [["best_cell", _fmt_c(best_key[0]), str(best_key[1]), "", ""]]
    cms = pipe.evaluation(models[best_key][0])
    labels = pipe.train.class_labels
    for tag in ("train", "test"):
        cm = cms[tag]
        for i, d in enumerate(labels):
            for j, a in enumerate(labels):
                conf_rows.append([tag, d, a, str(cm.counts[i, j]), ""])
    out.table("confusion", ["partition", "desired", "actual", "count", "note"], conf_rows)
    out.timing(timing)
    return out, all(model.converged for model in trained)


def _fmt_c(C: float) -> str:
    return str(int(C)) if float(C) == int(C) else repr(C)


# ---------------------------------------------------------------------------
# Experiment 2: individual feature selectors x SVM cells


EXP2_SELECTORS = (
    ("FS1", "best_first"),
    ("FS1", "genetic"),
    ("FS2", "best_first"),
    ("FS2", "genetic"),
    ("FS3", "ranker"),
    ("FS4", "ranker"),
)


def run_exp2(pipe: Pipeline) -> tuple[_Out, bool]:
    cfg = pipe.cfg
    out = _Out(cfg, "exp2")
    names = pipe.train.feature_names
    timing, selections = [], []
    for code, search in EXP2_SELECTORS:
        sel, secs = timed(lambda: pipe.selection(code, search))
        selections.append(sel)
        timing.append((sel.selector.label, secs))
    out.table("features", SELECTION_HEADER, [sel.row(names) for sel in selections])

    rows = []
    all_converged = True
    masks = [("none", None, len(names))]
    masks += [(sel.selector.label, frozenset(sel.selected), len(sel.selected)) for sel in selections]
    for C, degree in cfg.exp2_cells:
        for label, mask, n_features in masks:
            model, secs = pipe.fit_svm(mask, C, degree)
            all_converged &= model.converged
            timing.append((f"{label},C={_fmt_c(C)},degree={degree}", secs))
            rows.append(_accuracy_row([label, _fmt_c(C), degree, n_features], pipe.accuracies(model), model))
    out.table(
        "results",
        ["model", "C", "degree", "n_features", "train_accuracy", "test_accuracy", "combined_accuracy", "flags"],
        rows,
    )
    out.timing(timing)
    return out, all_converged


# ---------------------------------------------------------------------------
# Experiment 3: selector-ensemble combinations x single SVM


EXP3_MEMBERS = (("FS1", "genetic"), ("FS2", "genetic"), ("FS3", "ranker"), ("FS4", "ranker"))


def _exp3_combos():
    from itertools import combinations

    for size in (2, 3, 4):
        yield from combinations(EXP3_MEMBERS, size)


def efs_feature_sets(pipe: Pipeline, members) -> list[tuple[str, str, frozenset]]:
    """The reported configurations for one member combination.

    union/keep_all is the primary set. When a ranker member meets a subset
    member, a secondary union re-cuts the rankers to the smallest subset
    member's size (otherwise a keep-all ranker makes the union trivially
    full). mean_rank uses that same k.
    """
    n = pipe.train.n_features
    sels = [pipe.selection(code, search) for code, search in members]
    out = []
    out.append(("union", "keep_all", aggregate(sels, "union")))
    subset_sizes = [len(s.selected) for s in sels if s.scores is None]
    has_ranker = any(s.scores is not None for s in sels)
    if subset_sizes:
        k = min(subset_sizes)
        if has_ranker:
            cut = [
                FeatureSelection(s.selector, rank_cutoff(s.scores, "top_k", k), scores=s.scores)
                if s.scores is not None
                else s
                for s in sels
            ]
            out.append(("union", f"top_k:{k}", aggregate(cut, "union")))
        out.append(("mean_rank", f"top_k:{k}", aggregate(sels, "mean_rank_top_k", k=k, n_features=n)))
    return out


def run_exp3(pipe: Pipeline) -> tuple[_Out, bool]:
    cfg = pipe.cfg
    out = _Out(cfg, "exp3")
    names = pipe.train.feature_names
    rows, feat_rows, timing = [], [], []
    all_converged = True
    for members in _exp3_combos():
        ids = [SelectorId(code, search) for code, search in members]
        label = combo_label(ids)
        for mode, cut, feats in efs_feature_sets(pipe, members):
            feat_rows.append(
                [label, mode, cut, str(len(feats)), ";".join(names[f] for f in sorted(feats))]
            )
            for C, degree in cfg.exp3_cells:
                model, secs = pipe.fit_svm(feats, C, degree)
                acc = pipe.accuracies(model)
                all_converged &= model.converged
                timing.append((f"{label},{mode},{cut},C={_fmt_c(C)},degree={degree}", secs))
                highlight = "yes" if acc["combined"] > cfg.highlight_threshold else ""
                lead = [label, mode, cut, _fmt_c(C), degree, len(feats)]
                rows.append(_accuracy_row(lead, acc, model, highlight))
    out.table(
        "results",
        ["label", "mode", "cutoff", "C", "degree", "n_features",
         "train_accuracy", "test_accuracy", "combined_accuracy", "highlight", "flags"],
        rows,
    )
    out.table("features", ["label", "mode", "cutoff", "n_features", "features"], feat_rows)
    out.timing(timing)
    return out, all_converged


# ---------------------------------------------------------------------------
# Experiment 4: the proposed ensemble, member sweep


def exp4_feature_set(pipe: Pipeline) -> frozenset:
    """The headline combination: information gain re-cut to the correlation
    subset's size, united with the correlation subset."""
    fs1 = pipe.selection("FS1", "genetic")
    fs4 = pipe.selection("FS4", "ranker")
    k = max(1, len(fs1.selected))
    cut = FeatureSelection(fs4.selector, rank_cutoff(fs4.scores, "top_k", k), scores=fs4.scores)
    return aggregate([cut, fs1], "union")


def run_exp4(pipe: Pipeline) -> tuple[_Out, bool]:
    cfg = pipe.cfg
    out = _Out(cfg, "exp4")
    feats = exp4_feature_set(pipe)
    names = pipe.train.feature_names
    out.table(
        "features",
        ["label", "mode", "n_features", "features"],
        [["EFS41", "union", str(len(feats)), ";".join(names[f] for f in sorted(feats))]],
    )
    max_members = cfg.exp4_members
    full, trained, secs = pipe.ensemble(feats, cfg.exp4_c, cfg.exp4_degree, max_members)
    timing = [(f"train,members={trained}", secs)]
    # every member is predicted once per partition, and each prefix of m
    # members votes over the first m columns
    partitions = (pipe.train, pipe.test, pipe.work)
    (train, test, work), secs = timed(lambda: [full.member_predictions(ds) for ds in partitions])
    timing.append((f"predict,members={max_members}", secs))
    member_cols = [""] * max_members

    def accuracies(train_codes, test_codes) -> dict:
        return pipe.label_accuracies(*([full.classes[c] for c in codes] for codes in (train_codes, test_codes)))

    def evaluate(m: int) -> list:
        member = accuracies(train[:, m - 1].tolist(), test[:, m - 1].tolist())
        member_cols[m - 1] = fmt_accuracy(member["combined"])
        ens = full.prefix(m)
        acc = accuracies(ens.vote_codes(train[:, :m])[0], ens.vote_codes(test[:, :m])[0])
        agree = fmt_accuracy(100.0 * agreement(work[:, :m])) if m >= 2 else ""
        return _accuracy_row([str(m), *member_cols], acc, ens, agree)

    rows = []
    for m in range(1, max_members + 1):
        row, secs = timed(lambda: evaluate(m))
        rows.append(row)
        timing.append((f"evaluate,members={m}", secs))
    header = (
        ["members"]
        + [f"member_{i}_accuracy" for i in range(1, max_members + 1)]
        + ["voting_train", "voting_test", "voting_combined", "agreement", "flags"]
    )
    out.table("sweep", header, rows)
    out.timing(timing)
    return out, full.converged


# ---------------------------------------------------------------------------
# Experiment 5: summary across the other four


def run_exp5(pipe: Pipeline) -> tuple[_Out, bool]:
    cfg = pipe.cfg
    out = _Out(cfg, "exp5")
    rows, timing = [], []
    all_converged = True

    def single(experiment, label, mask, C, degree):
        nonlocal all_converged
        model, secs = pipe.fit_svm(mask, C, degree)
        all_converged &= model.converged
        # the seconds of the training that produced the model, which in an
        # `all` run is the one exp2 or exp3 cached
        timing.append((f"{label},train", secs))
        rows.append(_accuracy_row([experiment, label, _fmt_c(C), degree, ""], pipe.accuracies(model), model))

    single("1", "SVM", None, 10.0, 3)
    for code, search, label in (
        ("FS1", "genetic", "FS1-SVM"),
        ("FS2", "genetic", "FS2-SVM"),
        ("FS3", "ranker", "FS3-SVM"),
        ("FS4", "ranker", "FS4-SVM"),
    ):
        sel = pipe.selection(code, search)
        single("2", label, frozenset(sel.selected), 10.0, 3)

    feats = exp4_feature_set(pipe)
    single("3", "EFS41-SVM", feats, cfg.exp4_c, cfg.exp4_degree)

    ens, trained, secs = pipe.ensemble(feats, cfg.exp4_c, cfg.exp4_degree, cfg.exp5_members)
    all_converged &= ens.converged
    timing.append((f"EFS41-ESVM,train,members={trained}", secs))
    lead = ["4", "EFS41-ESVM", _fmt_c(cfg.exp4_c), cfg.exp4_degree, str(cfg.exp5_members)]
    rows.append(_accuracy_row(lead, pipe.accuracies(ens), ens))
    out.table(
        "summary",
        ["experiment", "model", "C", "degree", "members",
         "train_accuracy", "test_accuracy", "combined_accuracy", "flags"],
        rows,
    )
    out.timing(timing)
    return out, all_converged


RUNNERS = {
    "exp1": run_exp1,
    "exp2": run_exp2,
    "exp3": run_exp3,
    "exp4": run_exp4,
    "exp5": run_exp5,
}


def cmd_experiment(exp_id: str, cfg: ExperimentConfig, log=print) -> int:
    """Run one experiment (or all); returns the process exit code."""
    ids = EXPERIMENT_IDS if exp_id == "all" else (exp_id,)
    for i in ids:
        if i not in RUNNERS:
            raise DataError(f"unknown experiment {i!r}")
    pipe = build_pipeline(cfg)
    log(
        f"dataset: {cfg.data} rows={pipe.work.n_rows} features={pipe.work.n_features} "
        f"train={pipe.train.n_rows} test={pipe.test.n_rows} seed={cfg.seed}"
        + (" (quick)" if cfg.quick else "")
    )
    log(
        "note: ensemble voting columns report all-member agreement and the "
        "combined-set voting accuracy; single-model accuracy columns use the "
        "same combined train+test convention"
    )
    any_nonconverged = False
    for i in ids:
        try:
            out, converged = RUNNERS[i](pipe)
        except DataError as exc:
            raise DataError(f"{i}: {exc}") from exc
        any_nonconverged |= not converged
        for f in out.files:
            log(f"wrote {f}")
    return 4 if any_nonconverged else 0
