"""Spans and counters recorded from outside the program.

The program has no instrumentation of its own, so this module replaces
functions of the ctgsvm modules with timing wrappers for the length of a
run and puts the originals back afterwards. A function is replaced under
every name that refers to it in any ctgsvm module: `experiments` imports
`pairwise_problems`, `bagging_train`, `run_selector` and others by name,
and `bagging` imports `train_multiclass`, so patching only the defining
module would miss those calls.

Spans are aggregated as they close, never stored one by one: per span
name a `Record` keeps the call count and the self time, which is the
span's duration minus the durations of the spans it directly encloses.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from ctgsvm.experiments import EXP2_SELECTORS

# the modules whose public functions become spans, by short name
LAYERS = ("data", "filters", "search", "fs_ensemble", "svm", "bagging", "experiments")

# public methods that carry a layer's work but are not module functions
METHODS = (
    ("svm", "SvmModel", "predict_matrix"),
    ("bagging", "EnsembleModel", "member_predictions"),
    ("bagging", "EnsembleModel", "predict_dataset"),
    ("bagging", "EnsembleModel", "predict_values"),
    ("search", "SubsetEvaluator", "score"),
)


def _ctgsvm_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "ctgsvm"]


class Patches:
    """Replacements of program functions, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_function(self, original, replacement) -> None:
        """Point every ctgsvm module name bound to `original` at `replacement`."""
        for mod in _ctgsvm_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def replace_method(self, cls, name, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class OpTimer:
    """Times every call of `svm.smo_train` as an operation.

    The untraced run uses it for the one boundary an end-to-end metric needs:
    each binary machine is an operation of grid and ensemble, with its start
    and end on `clock` and its convergence flag. It keeps no machine, so the
    process's peak memory does not grow with the number of passes.
    """

    def __init__(self, svm_module, clock=time.perf_counter):
        self.spans: list[tuple[float, float]] = []
        self.converged: list[bool] = []
        self._patches = Patches()
        original = svm_module.smo_train

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = clock()
            machine = original(*args, **kwargs)
            self.spans.append((t0, clock()))
            self.converged.append(machine.converged)
            return machine

        self._patches.replace_function(original, timed)

    def close(self) -> None:
        self._patches.undo()


class Record:
    """Self time, call count and counters per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps the program's layers; spans go to whichever `Record` is `rec`."""

    def __init__(self):
        self.rec = Record()
        self._stack: list[list] = []  # [span name, time covered by child spans]
        self._patches = Patches()

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, name: str, after=None):
        """`fn` recorded as span `name`; `after(tracer, args, result, seconds)`
        runs once the span has closed, and its own time is charged to no span."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.rec.self_s[name] += dur - frame[1]
                self.rec.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                h0 = time.perf_counter()
                after(self, args, result, dur)
                if stack:
                    stack[-1][1] += time.perf_counter() - h0
            return result

        return traced

    def install(self) -> None:
        import ctgsvm  # noqa: F401  (loads every layer module)

        for layer in LAYERS:
            mod = sys.modules[f"ctgsvm.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._patches.replace_function(fn, self.wrap(fn, name, _AFTER.get(name)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"ctgsvm.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            traced = self.wrap(cls.__dict__[meth], name, _AFTER.get(name))
            if name == "search.SubsetEvaluator.score":
                traced = _count_scorer_runs(self, traced)
            self._patches.replace_method(cls, meth, traced)

    def close(self) -> None:
        self._patches.undo()


def _count_scorer_runs(tracer: Tracer, traced_score):
    def score(evaluator, subset):
        # a subset missing from the evaluator's memo makes it run its scorer
        if subset not in evaluator._memo:
            tracer.rec.values["search.scorer_runs"] += 1
        return traced_score(evaluator, subset)

    return functools.wraps(traced_score)(score)


def _after_pairwise(tracer, args, result, dur):
    for p in result.problems:
        n, d = p.X.shape
        tracer.rec.values["svm.gram_flops"] += 2.0 * n * n * d


def _after_smo(tracer, args, result, dur):
    tracer.rec.values["svm.smo_updates"] += result.n_updates
    tracer.rec.values["svm.support_vectors"] += len(result.alphas)
    tracer.rec.values["svm.nonconverged"] += not result.converged


def _after_train_multiclass(tracer, args, result, dur):
    if tracer.parent() == "bagging.bagging_train":
        tracer.rec.values["bagging.members_trained"] += 1


def _after_bootstrap(tracer, args, result, dur):
    tracer.rec.values["bagging.bootstrap_rows"] += result.n_rows
    tracer.rec.values["bagging.bootstrap_distinct_rows"] += np.unique(result.rows, axis=0).shape[0]


def _after_predict_matrix(tracer, args, result, dur):
    tracer.rec.values["svm.predict_rows"] += np.shape(args[1])[0]


def _after_run_selector(tracer, args, result, dur):
    tracer.rec.values[f"fs_ensemble.run_selector_s.{args[0].label}"] += dur


_AFTER = {
    "svm.pairwise_problems": _after_pairwise,
    "svm.smo_train": _after_smo,
    "svm.train_multiclass": _after_train_multiclass,
    "bagging.bootstrap_sample": _after_bootstrap,
    "svm.SvmModel.predict_matrix": _after_predict_matrix,
    "fs_ensemble.run_selector": _after_run_selector,
}

SELECTOR_LABELS = tuple(f"{code}-{search}" for code, search in EXP2_SELECTORS)

# per-layer metrics measured over the set-up phase, per set-up
SETUP_METRICS = (
    "data.load_s", "data.split_s", "experiments.build_pipeline_s",
    "svm.model_from_lines_s", "bagging.load_ensemble_s",
)


def layer_metrics(setup: Record, setups: int, work: Record, passes: int, cpu_s: float) -> dict[str, float]:
    """The per-layer metrics: set-up layers per set-up, all others per pass.

    A name ending in `_s` is self time, except the six per-selector times,
    which cover the whole selector: its own code is a thin dispatch.
    """
    def s(tr, *names):
        return sum(tr.self_s.get(n, 0.0) for n in names)

    def c(tr, name):
        return tr.calls.get(name, 0)

    def v(tr, name):
        return tr.values.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "data.load_s": s(setup, "data.load_dataset") / setups,
        "data.split_s": s(setup, "data.stratified_split") / setups,
        "experiments.build_pipeline_s": s(setup, "experiments.build_pipeline") / setups,
        "svm.model_from_lines_s": s(setup, "svm.model_from_lines") / setups,
        "bagging.load_ensemble_s": s(setup, "bagging.load_ensemble") / setups,
        "data.mdl_s": s(work, "data.fit_discretization", "data.discretize_mdl"),
    }
    for label in SELECTOR_LABELS:
        key = f"fs_ensemble.run_selector_s.{label}"
        out[key] = v(work, key)
    evaluator_calls = c(work, "search.SubsetEvaluator.score")
    out.update({
        "filters.inconsistency_rate_calls": c(work, "filters.inconsistency_rate"),
        "filters.inconsistency_rate_s": s(work, "filters.inconsistency_rate"),
        "filters.relieff_s": s(work, "filters.relieff"),
        "search.evaluator_calls": evaluator_calls,
        "search.best_first_s": s(work, "search.best_first"),
        "search.genetic_search_s": s(work, "search.genetic_search"),
        "svm.pairwise_problems_calls": c(work, "svm.pairwise_problems"),
        "svm.pairwise_problems_s": s(work, "svm.pairwise_problems"),
        "svm.gram_flops": v(work, "svm.gram_flops"),
        "svm.smo_train_calls": c(work, "svm.smo_train"),
        "svm.smo_train_s": s(work, "svm.smo_train"),
        "svm.smo_updates": v(work, "svm.smo_updates"),
        "svm.support_vectors": v(work, "svm.support_vectors"),
        "svm.predict_calls": c(work, "svm.SvmModel.predict_matrix"),
        "svm.predict_rows": v(work, "svm.predict_rows"),
        "svm.predict_s": s(work, "svm.SvmModel.predict_matrix", "svm.kernel_matrix"),
        "svm.nonconverged": v(work, "svm.nonconverged"),
        "bagging.members_trained": v(work, "bagging.members_trained"),
        "bagging.bagging_train_s": s(work, "bagging.bagging_train"),
        "bagging.member_predictions_calls": c(work, "bagging.EnsembleModel.member_predictions"),
        "bagging.member_predictions_s": s(work, "bagging.EnsembleModel.member_predictions"),
        "bagging.member_agreement_s": s(work, "bagging.member_agreement"),
        "bagging.vote_s": s(work, "bagging.EnsembleModel.predict_dataset", "bagging.EnsembleModel.predict_values"),
        "experiments.self_s": sum(
            t for n, t in work.self_s.items()
            if n.startswith("experiments.") and n != "experiments.build_pipeline"
        ),
        "process.cpu_s": cpu_s,
    })
    per_pass = {k: x / passes for k, x in out.items() if k not in SETUP_METRICS}
    out.update(per_pass)
    # ratios are over the whole timed phase, not per pass
    out["search.memo_hit_ratio"] = (
        1.0 - v(work, "search.scorer_runs") / evaluator_calls if evaluator_calls else 0.0
    )
    out["bagging.bootstrap_unique_ratio"] = ratio(
        v(work, "bagging.bootstrap_distinct_rows"), v(work, "bagging.bootstrap_rows")
    )
    return out
