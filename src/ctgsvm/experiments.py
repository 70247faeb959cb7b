"""The five experiment pipelines behind the command line.

Every experiment is a pure function of (dataset file, configuration, master
seed): re-running writes byte-identical result CSVs. Timings (wall and CPU
seconds) are inherently unstable, so they land in separate *_timing_*.csv
sidecar files and never contaminate the deterministic outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .bagging import EnsembleConfig, EnsembleModel, agreement, bagging_train
from .data import (
    DataError,
    Dataset,
    SplitSpec,
    _read_text,
    feature_columns,
    fit_discretization,
    load_dataset,
    mask_by_names,
    select_features,
    stratified_split,
    stratified_subsample,
)
from .filters import rank_cutoff, rank_features, relief_sample_count
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
    confusion_from_codes,
    fmt_accuracy,
    fmt_seconds,
    render_table,
    timed,
)
from .search import BestFirstConfig, GeneticConfig
from .svm import KernelSpec, SvmConfig, SvmModel, pairwise_problems, train_from_problems

QUICK_ROWS = 400

EXPERIMENT_IDS = ("exp1", "exp2", "exp3", "exp4", "exp5")

DEFAULT_C_GRID = (10.0, 50.0, 100.0, 500.0, 1000.0, 10000.0)
DEFAULT_DEGREE_GRID = (2, 3, 4, 5, 10)
DEFAULT_EXP2_CELLS = ((10.0, 3), (500.0, 3), (500.0, 4), (100.0, 5), (10000.0, 5))
DEFAULT_EXP3_CELLS = ((1000.0, 4), (500.0, 3), (500.0, 4), (100.0, 5))
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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
    coef0: float = KernelSpec.coef0
    tolerance: float = SvmConfig.tolerance
    max_iter: int = SvmConfig.max_iter
    ga_population: int = 20
    ga_generations: int = 20
    ga_crossover: float = 0.6
    ga_mutation: float = 0.033
    bf_stale_limit: int = 5
    relieff_k: int = 10
    relieff_m: int | None = None
    cutoff: str = "keep_all"

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, not {self.seed!r}")
        if not self.c_grid or not self.degree_grid:
            raise DataError("parameter grids must be non-empty")
        if not 1 <= self.exp4_members <= 32:
            raise DataError(f"exp4_members: ensemble member range must lie within 1..32, not {self.exp4_members!r}")
        if self.fmt not in ("csv", "markdown"):
            raise DataError(f"unknown output format {self.fmt!r} (csv | markdown)")
        # every value a step checks, checked before any step runs, naming its key
        _named("bf_stale_limit", BestFirstConfig, self.bf_stale_limit)
        for key, field in (("ga_population", "population"), ("ga_generations", "generations"),
                           ("ga_crossover", "crossover_prob"), ("ga_mutation", "mutation_prob")):
            _named(key, GeneticConfig, **{field: getattr(self, key)})
        self.selector_config()
        self.svm(1.0, 1)  # tolerance, max_iter and coef0, whose errors name them
        cells = [("c_grid", (C, 1)) for C in self.c_grid] + [("degree_grid", (1.0, d)) for d in self.degree_grid]
        cells += [(key, cell) for key in ("exp2_cells", "exp3_cells") for cell in getattr(self, key)]
        cells += [("exp4_c", (self.exp4_c, 1)), ("exp4_degree", (1.0, self.exp4_degree))]
        for key, (C, degree) in cells:
            _named(key, self.svm, C, degree)
        for key in ("exp4_members", "exp5_members"):
            _named(key, EnsembleConfig, getattr(self, key), self.svm(self.exp4_c, self.exp4_degree), self.seed)
        # a repeated grid value or cell would train and write its rows twice
        for key in ("c_grid", "degree_grid", "exp2_cells", "exp3_cells"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise DataError(f"{key}: repeated value in {values!r}")

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


def _named(key: str, check, *args, **kwargs):
    """check(*args, **kwargs), a rule's test of the value of config key
    `key`, whose DataError names the key."""
    try:
        return check(*args, **kwargs)
    except DataError as exc:
        raise DataError(f"{key}: {exc}") from None


def _parse_cutoff(text: str) -> tuple[str, float | None]:
    if text == "keep_all":
        return "keep_all", None
    rule, _, value = text.partition(":")
    parse = {"top_k": int, "threshold": float}.get(rule)
    if parse is not None:
        try:
            got = parse(value)
        except ValueError:
            pass
        else:
            # a NaN threshold keeps no feature and an infinite one all or none
            if math.isfinite(got):
                return rule, got
    raise DataError(f"malformed cutoff {text!r} (keep_all | top_k:K | threshold:T, T finite)")


def _items(text: str, sep: str = ",") -> list[str]:
    return [item.strip() for item in text.split(sep)]


def _cell(text: str) -> tuple[float, int]:
    C, degree = _items(text, ":")
    return float(C), int(degree)


# the parser of a config value, by the annotation of its ExperimentConfig field
_PARSERS = {
    "str": str, "float": float, "int": int,
    "bool": lambda v: _BOOLEANS[v.lower()],
    "int | None": lambda v: int(v) if v else None,  # an empty value is None
    "tuple[str, ...]": lambda v: tuple(x for x in _items(v) if x),
    "tuple[float, ...]": lambda v: tuple(map(float, _items(v))),
    "tuple[int, ...]": lambda v: tuple(map(int, _items(v))),
    "tuple[tuple[float, int], ...]": lambda v: tuple(map(_cell, _items(v, ";"))),
}


def load_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment. A key given twice is a
    DataError naming both lines."""
    values: dict[str, str] = {}
    where: dict[str, int] = {}
    for i, ln in enumerate(_read_text(path).splitlines(), start=1):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise DataError(f"config line {i}: expected key=value")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key in where:
            raise DataError(f"config line {i}: key {key!r} already set at line {where[key]}")
        values[key], where[key] = value, i
    return values


def config_from_sources(file_values: dict, **overrides) -> ExperimentConfig:
    """Merge config-file values with CLI overrides (overrides win). Each
    key's value is parsed by the type of its ExperimentConfig field."""
    kw: dict = {}
    parsers = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}
    for key, raw in file_values.items():
        if key not in parsers:
            raise DataError(f"unknown config key {key!r}")
        try:
            kw[key] = parsers[key](raw)
        except (KeyError, ValueError):
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
    _selections: dict = field(default_factory=dict)
    _problems: dict = field(default_factory=dict)  # columns -> MulticlassProblem
    _ensembles: dict = field(default_factory=dict)
    _evaluations: dict = field(default_factory=dict)

    @cached_property
    def dmap(self):
        return fit_discretization(self.train)

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
            index = {lab: c for c, lab in enumerate(self.train.class_labels)}
            codes = [[index[lab] for lab in model.predict_dataset(ds)[0]] for ds in (self.train, self.test)]
            self._evaluations[key] = (model, self.confusions(*codes))
        return self._evaluations[key][1]

    def accuracies(self, model) -> dict:
        """train/test/combined percent accuracy of a model."""
        return {tag: accuracy(cm) for tag, cm in self.evaluation(model).items()}

    def confusions(self, train_codes, test_codes) -> dict:
        """train/test/combined confusion matrices of class indexes predicted
        on train and test."""
        cms = {
            tag: confusion_from_codes(ds.class_codes(), codes, ds.class_labels)
            for tag, ds, codes in (("train", self.train, train_codes), ("test", self.test, test_codes))
        }
        train, test = cms["train"], cms["test"]
        cms["combined"] = ConfusionMatrix(train.labels, train.counts + test.counts)
        return cms

    def models(self, mask, cells) -> list[SvmModel]:
        """The single SVM of each (C, degree) cell on `mask` (every feature
        when None), trained on the one problem of its columns, which keeps
        every machine solved on it."""
        cols = feature_columns(self.train, mask)
        if cols not in self._problems:
            self._problems[cols] = pairwise_problems(self.train, cols)
        return train_from_problems(self._problems[cols], [self.cfg.svm(C, degree) for C, degree in cells])

    def ensemble(self, mask, C: float, degree: int, members: int) -> EnsembleModel:
        """The bagged ensemble of `members` members on `mask`.

        Member i depends only on (master seed, i), and the seed and training
        partition are fixed per pipeline. So the memo keeps the largest
        ensemble trained per (columns, C, degree) and answers any request up
        to its size with a prefix of it.
        """
        cols = feature_columns(self.train, mask)
        key = (cols, C, degree)
        if key not in self._ensembles or len(self._ensembles[key].members) < members:
            ens_cfg = EnsembleConfig(members=members, base=self.cfg.svm(C, degree), master_seed=self.cfg.seed)
            self._ensembles[key] = bagging_train(self.train, ens_cfg, feature_mask=cols)
        return self._ensembles[key].prefix(members)


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    work = cfg.load_work()
    if cfg.quick:
        work = stratified_subsample(work, QUICK_ROWS, cfg.seed)
    train, test = stratified_split(work, SplitSpec(cfg.train_fraction, cfg.seed))
    # the values checked against the table, by the selectors' own rules, before any step runs
    _named("relieff_m", relief_sample_count, cfg.relieff_m, train.n_rows)
    _named("cutoff", rank_cutoff, rank_features("cutoff", [0.0] * train.n_features), *_parse_cutoff(cfg.cutoff))
    return Pipeline(cfg, work, train, test)


class _Out:
    """Collects the rendered output files, timing rows and convergence of
    one run; `save` writes the files."""

    def __init__(self, cfg: ExperimentConfig, exp_id: str):
        self.dir = Path(cfg.out_dir)
        self.exp_id = exp_id
        self.seed = cfg.seed
        self.fmt = cfg.fmt
        self.files: dict[Path, str] = {}  # path -> rendered table
        self.timings: list = []  # (label, (wall seconds, CPU seconds)) per timed step
        self.converged = True

    def _render(self, name: str, header, rows, fmt: str) -> None:
        suffix = "md" if fmt == "markdown" else "csv"
        self.files[self.dir / f"{self.exp_id}_{name}_seed{self.seed}.{suffix}"] = render_table(header, rows, fmt)

    def save(self) -> None:
        """Make the output directory and write the files."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for path, text in self.files.items():
            path.write_text(text, encoding="utf-8", newline="")

    def table(self, name: str, header, rows) -> None:
        self._render(name, header, rows, "csv")
        if self.fmt == "markdown":
            self._render(name, header, rows, "markdown")

    def timed(self, label: str, fn):
        """Run fn and return its result, recording its (wall, CPU) seconds
        as the timing row `label`: the one clock of the experiments."""
        result, secs = timed(fn)
        self.timings.append((label, secs))
        return result

    def write_timing(self) -> None:
        rows = [(label, fmt_seconds(wall), fmt_seconds(cpu)) for label, (wall, cpu) in self.timings]
        self._render("timing", ["row", "wall_seconds", "cpu_seconds"], rows, "csv")

    def accuracy_row(self, lead, acc: dict, model, *extra) -> list:
        """The lead columns, then train, test and combined accuracy, then the
        extra columns, then the model's convergence flag, which also counts
        toward the run's."""
        self.converged &= model.converged
        accs = [fmt_accuracy(acc[tag]) for tag in ("train", "test", "combined")]
        return [*lead, *accs, *extra, "" if model.converged else "non_converged"]


# ---------------------------------------------------------------------------
# Experiment 1: single SVM over the C x degree grid


def run_exp1(pipe: Pipeline) -> _Out:
    cfg = pipe.cfg
    out = _Out(cfg, "exp1")
    cells = [(C, degree) for degree in cfg.degree_grid for C in cfg.c_grid]
    rows, models = [], {}
    for (C, degree), model in zip(cells, out.timed("train", lambda: pipe.models(None, cells))):
        acc = pipe.accuracies(model)
        models[(C, degree)] = (model, acc)
        rows.append(out.accuracy_row([_fmt_c(C), degree], acc, model))
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
    out.write_timing()
    return out


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


def run_exp2(pipe: Pipeline) -> _Out:
    cfg = pipe.cfg
    out = _Out(cfg, "exp2")
    names = pipe.train.feature_names
    selections = [
        out.timed(SelectorId(code, search).label, lambda: pipe.selection(code, search))
        for code, search in EXP2_SELECTORS
    ]
    out.table("features", SELECTION_HEADER, [sel.row(names) for sel in selections])

    masks = [("none", None, len(names))]
    masks += [(sel.selector.label, sel.selected, len(sel.selected)) for sel in selections]
    models = {
        label: out.timed(f"{label},train", lambda: pipe.models(mask, cfg.exp2_cells)) for label, mask, _ in masks
    }
    rows = []
    for k, (C, degree) in enumerate(cfg.exp2_cells):
        for label, _, n_features in masks:
            model = models[label][k]
            rows.append(out.accuracy_row([label, _fmt_c(C), degree, n_features], pipe.accuracies(model), model))
    out.table(
        "results",
        ["model", "C", "degree", "n_features", "train_accuracy", "test_accuracy", "combined_accuracy", "flags"],
        rows,
    )
    out.write_timing()
    return out


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
    out = [("union", "keep_all", aggregate(sels, "union"))]
    subset_sizes = [len(s.selected) for s in sels if s.scores is None]
    if subset_sizes:
        k = min(subset_sizes)
        if len(subset_sizes) < len(sels):  # a ranker member is present
            out.append(("union", f"top_k:{k}", aggregate(sels, "union", k=k)))
        out.append(("mean_rank", f"top_k:{k}", aggregate(sels, "mean_rank_top_k", k=k, n_features=n)))
    return out


def run_exp3(pipe: Pipeline) -> _Out:
    cfg = pipe.cfg
    out = _Out(cfg, "exp3")
    names = pipe.train.feature_names
    rows, feat_rows = [], []
    for members in _exp3_combos():
        ids = [SelectorId(code, search) for code, search in members]
        label = combo_label(ids)
        for mode, cut, feats in efs_feature_sets(pipe, members):
            feat_rows.append(
                [label, mode, cut, str(len(feats)), ";".join(names[f] for f in sorted(feats))]
            )
            trained = out.timed(f"{label},{mode},{cut},train", lambda: pipe.models(feats, cfg.exp3_cells))
            for (C, degree), model in zip(cfg.exp3_cells, trained):
                acc = pipe.accuracies(model)
                highlight = "yes" if acc["combined"] > cfg.highlight_threshold else ""
                lead = [label, mode, cut, _fmt_c(C), degree, len(feats)]
                rows.append(out.accuracy_row(lead, acc, model, highlight))
    out.table(
        "results",
        ["label", "mode", "cutoff", "C", "degree", "n_features",
         "train_accuracy", "test_accuracy", "combined_accuracy", "highlight", "flags"],
        rows,
    )
    out.table("features", ["label", "mode", "cutoff", "n_features", "features"], feat_rows)
    out.write_timing()
    return out


# ---------------------------------------------------------------------------
# Experiment 4: the proposed ensemble, member sweep


def exp4_feature_set(pipe: Pipeline) -> frozenset:
    """The headline combination: information gain re-cut to the correlation
    subset's size, united with the correlation subset."""
    fs1 = pipe.selection("FS1", "genetic")
    fs4 = pipe.selection("FS4", "ranker")
    return aggregate([fs4, fs1], "union", k=max(1, len(fs1.selected)))


def run_exp4(pipe: Pipeline) -> _Out:
    cfg = pipe.cfg
    out = _Out(cfg, "exp4")
    feats = exp4_feature_set(pipe)
    names = pipe.train.feature_names
    out.table(
        "features",
        ["label", "mode", "n_features", "features"],
        [["EFS41", "union", str(len(feats)), ";".join(names[f] for f in sorted(feats))]],
    )
    C, degree, max_members = cfg.exp4_c, cfg.exp4_degree, cfg.exp4_members
    full = out.timed(f"train,members={max_members}", lambda: pipe.ensemble(feats, C, degree, max_members))
    # every member is predicted once per partition, and each prefix of m
    # members votes over the first m columns; each table row is in exactly
    # one partition, so agreement over the table is agreement over both
    train, test = out.timed(
        f"predict,members={max_members}", lambda: [full.member_predictions(ds) for ds in (pipe.train, pipe.test)]
    )
    member_cols = [""] * max_members

    def accuracies(train_codes, test_codes) -> dict:
        return {tag: accuracy(cm) for tag, cm in pipe.confusions(train_codes, test_codes).items()}

    def evaluate(m: int) -> list:
        member = accuracies(train[:, m - 1].tolist(), test[:, m - 1].tolist())
        member_cols[m - 1] = fmt_accuracy(member["combined"])
        ens = full.prefix(m)
        acc = accuracies(ens.vote_codes(train[:, :m])[0], ens.vote_codes(test[:, :m])[0])
        agree = fmt_accuracy(100.0 * agreement(np.vstack((train, test))[:, :m])) if m >= 2 else ""
        return out.accuracy_row([str(m), *member_cols], acc, ens, agree)

    rows = [out.timed(f"evaluate,members={m}", lambda: evaluate(m)) for m in range(1, max_members + 1)]
    header = (
        ["members"]
        + [f"member_{i}_accuracy" for i in range(1, max_members + 1)]
        + ["voting_train", "voting_test", "voting_combined", "agreement", "flags"]
    )
    out.table("sweep", header, rows)
    out.write_timing()
    return out


# ---------------------------------------------------------------------------
# Experiment 5: summary across the other four


def run_exp5(pipe: Pipeline) -> _Out:
    cfg = pipe.cfg
    out = _Out(cfg, "exp5")
    rows = []

    def single(experiment, label, mask, C, degree):
        [model] = out.timed(f"{label},train", lambda: pipe.models(mask, [(C, degree)]))
        rows.append(out.accuracy_row([experiment, label, _fmt_c(C), degree, ""], pipe.accuracies(model), model))

    single("1", "SVM", None, 10.0, 3)
    for code, search in EXP3_MEMBERS:
        single("2", f"{code}-SVM", pipe.selection(code, search).selected, 10.0, 3)

    feats = exp4_feature_set(pipe)
    C, degree, members = cfg.exp4_c, cfg.exp4_degree, cfg.exp5_members
    single("3", "EFS41-SVM", feats, C, degree)

    ens = out.timed(f"EFS41-ESVM,train,members={members}", lambda: pipe.ensemble(feats, C, degree, members))
    lead = ["4", "EFS41-ESVM", _fmt_c(C), degree, str(members)]
    rows.append(out.accuracy_row(lead, pipe.accuracies(ens), ens))
    out.table(
        "summary",
        ["experiment", "model", "C", "degree", "members",
         "train_accuracy", "test_accuracy", "combined_accuracy", "flags"],
        rows,
    )
    out.write_timing()
    return out


RUNNERS = {
    "exp1": run_exp1,
    "exp2": run_exp2,
    "exp3": run_exp3,
    "exp4": run_exp4,
    "exp5": run_exp5,
}


def cmd_experiment(exp_id: str, cfg: ExperimentConfig, log=print) -> int:
    """Run one experiment (or all), then write the files of every one, so
    that a run that fails writes none; returns the process exit code."""
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
    outs = []
    for i in ids:
        try:
            outs.append(RUNNERS[i](pipe))
        except DataError as exc:
            raise DataError(f"{i}: {exc}") from exc
    for out in outs:
        out.save()
        for f in out.files:
            log(f"wrote {f}")
    return 0 if all(out.converged for out in outs) else 4
