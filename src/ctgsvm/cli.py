"""Command-line entry points.

Subcommands: experiment, select, train, predict, report, synth.
Exit codes: 0 success, 2 usage error, 3 data error, 4 one or more grid
cells failed to converge (outputs are still written).
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

from . import experiments
from .bagging import ENSEMBLE_MAGIC, EnsembleConfig, bagging_train, load_ensemble, save_ensemble
from .data import DataError, _read_text, export_csv, mask_by_names
from .experiments import config_from_sources, load_config_file
from .filters import scores_to_csv
from .fs_ensemble import RANKER_CODES, SELECTION_HEADER, SelectorId, run_selector
from .report import render_table
from .search import trace_to_csv
from .svm import KernelSpec, SvmConfig, load_model, save_model, train_multiclass

OUT_DIR_ENV = "CTGSVM_OUT"


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset file (.csv or .arff)")
    p.add_argument("--class-column", default=None, help="class column name (default NSP)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ctgsvm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run the experiment pipelines")
    p.add_argument("--id", default="all", choices=experiments.EXPERIMENT_IDS + ("all",))
    _add_data_args(p)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--quick", action="store_true", help="stratified 400-row smoke run")
    p.add_argument("--format", dest="fmt", choices=("csv", "markdown"), default=None)

    p = sub.add_parser("select", help="run one feature selector")
    p.add_argument("--selector", required=True, help="FS1 | FS2 | FS3 | FS4")
    p.add_argument("--search", default=None, help="best_first | genetic | ranker")
    _add_data_args(p)
    p.add_argument("--cutoff", default="keep_all", help="keep_all | top_k:K | threshold:T")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write the search trace CSV here")

    p = sub.add_parser("train", help="train and persist a model")
    _add_data_args(p)
    p.add_argument("--c", type=float, default=10.0)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--coef0", type=float, default=KernelSpec.coef0)
    p.add_argument("--members", type=int, default=1, help=">1 trains a bagged ensemble")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--features", help="comma-separated feature names to keep")
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="predict with a persisted model")
    p.add_argument("--model", required=True)
    _add_data_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="re-render a results CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", dest="fmt", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("synth", help="write the synthetic bundled-shape dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rows", type=int, default=None)
    return ap


def _cmd_experiment(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    out_dir = args.out or os.environ.get(OUT_DIR_ENV)
    cfg = config_from_sources(
        file_values,
        data=args.data,
        class_column=args.class_column,
        seed=args.seed,
        out_dir=out_dir,
        fmt=args.fmt,
        quick=True if args.quick else None,
    )
    return experiments.cmd_experiment(args.id, cfg, log=lambda *a: print(*a, file=sys.stderr))


def _load_work(args, fit: bool = True, **overrides):
    """The config of a single-table command and its table, less the
    config's excluded features; `fit` as in ExperimentConfig.load_work."""
    cfg = config_from_sources({}, data=args.data, class_column=args.class_column, **overrides)
    return cfg, cfg.load_work(fit)


def _cmd_select(args) -> int:
    search = args.search
    if search is None:
        search = "ranker" if args.selector in RANKER_CODES else "genetic"
    sel_id = SelectorId(args.selector, search)
    cfg, work = _load_work(args, seed=args.seed, cutoff=args.cutoff)
    trace: list | None = [] if args.trace else None
    selection = run_selector(sel_id, work, cfg.selector_config(), trace=trace)
    text = render_table(SELECTION_HEADER, [selection.row(work.feature_names)], "csv")
    if selection.scores is not None:
        text += scores_to_csv(selection.scores, work.feature_names)
    Path(args.out).write_text(text, encoding="utf-8")
    if args.trace:
        Path(args.trace).write_text(trace_to_csv(trace), encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    _, work = _load_work(args)
    mask = mask_by_names(work, keep=[n.strip() for n in args.features.split(",")]) if args.features else None
    cfg = SvmConfig(C=args.c, kernel=KernelSpec(degree=args.degree, coef0=args.coef0))
    ens_cfg = EnsembleConfig(members=args.members, base=cfg, master_seed=args.seed)
    if ens_cfg.members > 1:
        ens = bagging_train(work, ens_cfg, feature_mask=mask)
        save_ensemble(ens, args.out)
        converged = ens.converged
    else:
        model = train_multiclass(work, cfg, mask)
        save_model(model, args.out)
        converged = model.converged
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if converged else 4


def _cmd_predict(args) -> int:
    text = _read_text(args.model) if Path(args.model).is_file() else ""
    if text.startswith(ENSEMBLE_MAGIC):
        model = load_ensemble(args.model)
    else:
        model = load_model(args.model)
    _, work = _load_work(args, fit=False)
    preds, _ = model.predict_dataset(work)
    truth = [work.class_labels[c] for c in work.class_codes()]
    rows = [(i, p, t) for i, (p, t) in enumerate(zip(preds, truth))]
    Path(args.out).write_text(render_table(("row", "predicted", "actual"), rows, "csv"), encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    rows = list(csv.reader(io.StringIO(_read_text(args.infile), newline=""))) or [[]]
    text = render_table(rows[0], rows[1:], args.fmt)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_synth(args) -> int:
    from .synth import DEFAULT_SEED, N_ROWS, make_ctg_like

    ds = make_ctg_like(
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        n_rows=args.rows if args.rows is not None else N_ROWS,
    )
    export_csv(ds, args.out)
    print(f"wrote {args.out} ({ds.n_rows} rows)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "select": _cmd_select,
        "train": _cmd_train,
        "predict": _cmd_predict,
        "report": _cmd_report,
        "synth": _cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
