"""Shared fixtures: tiny dataset builders and the session-wide table.

The heavyweight acceptance checks run against a real cardiotocography CSV
when the CTG_CSV environment variable points at one; otherwise they use the
bundled synthetic stand-in with the same shape and class balance.
"""
from __future__ import annotations

import os

# The SMO solver's update counts follow the last bits of its kernel values.
# Its kernel rows sum in an order that does not depend on the BLAS thread
# count with OpenBLAS's x86-64 kernels (the README says how that was
# checked), but another BLAS may differ. One BLAS thread keeps the pinned
# solver path (solver_path_seed42.txt) the same on every machine;
# CTGSVM_TEST_BLAS_THREADS=N runs the tests at N threads instead, to check
# that claim. This only takes effect before numpy loads, so it comes before
# the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ.get("CTGSVM_TEST_BLAS_THREADS") or "1"

from itertools import combinations

import numpy as np
import pytest

from ctgsvm.data import AttributeSpec, Dataset, DiscretizationMap, NOMINAL, NUMERIC, Standardizer, load_dataset
from ctgsvm.svm import BinarySvm, KernelSpec, SvmModel
from ctgsvm.synth import make_ctg_like


def nominal_dataset(columns: dict, classes: list) -> Dataset:
    """Dataset whose features are all nominal (values given as small ints)."""
    schema = []
    cols = []
    for name, values in columns.items():
        levels = max(int(v) for v in values) + 1
        schema.append(AttributeSpec(name, NOMINAL, tuple(str(i) for i in range(levels))))
        cols.append([float(v) for v in values])
    labels = tuple(sorted(set(classes)))
    schema.append(AttributeSpec("cls", NOMINAL, labels))
    cols.append([float(labels.index(c)) for c in classes])
    return Dataset(schema, np.array(cols).T, len(schema) - 1)


def numeric_dataset(matrix, classes, names=None) -> Dataset:
    matrix = np.asarray(matrix, dtype=float)
    n_feat = matrix.shape[1]
    names = names or [f"f{i}" for i in range(n_feat)]
    schema = [AttributeSpec(n, NUMERIC) for n in names]
    labels = tuple(sorted(set(classes)))
    schema.append(AttributeSpec("cls", NOMINAL, labels))
    cls_col = np.array([[labels.index(c)] for c in classes], dtype=float)
    return Dataset(schema, np.hstack([matrix, cls_col]), n_feat)


def decision_model(decisions, classes, counts=None) -> SvmModel:
    """A hand-built one-vs-one model, machines in `combinations` order, whose
    decisions on unit row r (the r-th unit vector of width len(decisions))
    are decisions[r], exactly: under the linear kernel each machine holds
    every unit vector as a support row, with alpha * label set to its
    decision on that row. Its standardizer is the identity on the unit
    rows' columns. Class counts default to equal priors."""
    D = np.asarray(decisions, dtype=float)
    assert D.shape[1] == len(classes) * (len(classes) - 1) // 2
    kernel = KernelSpec(degree=1, coef0=0.0)
    eye = np.eye(D.shape[0])
    machines = [BinarySvm(eye, np.abs(d), np.where(d < 0, -1.0, 1.0), 0.0, kernel) for d in D.T]
    counts = np.ones(len(classes), dtype=int) if counts is None else np.asarray(counts)
    width = D.shape[0]
    return SvmModel(tuple(classes), counts, machines, width, tuple(range(width)), identity_standardizer(width))


def identity_standardizer(width: int) -> Standardizer:
    """A standardizer that leaves `width` numeric columns, named as
    `numeric_dataset` names them, as they are."""
    names = tuple(AttributeSpec(f"f{i}", NUMERIC) for i in range(width))
    return Standardizer(np.zeros(width), np.ones(width), names)


def labelling_model(labels, classes) -> SvmModel:
    """A hand-built model that predicts labels[r] on unit row r, by k - 1
    votes: every machine votes for the row's label when it can."""
    pairs = list(combinations(range(len(classes)), 2))
    return decision_model([[-1.0 if lab == classes[cj] else 1.0 for _, cj in pairs] for lab in labels], classes)


def unit_rows(classes) -> Dataset:
    """One unit row per entry of `classes`, the row's class."""
    return numeric_dataset(np.eye(len(classes)), classes)


def passthrough_dmap(ds: Dataset) -> DiscretizationMap:
    """No cuts anywhere; nominal columns bin to their own codes."""
    return DiscretizationMap(tuple(() for _ in range(ds.n_features)))


@pytest.fixture(scope="session")
def ctg_table(tmp_path_factory):
    """(dataset, csv_path, is_real) for the pipeline-level checks."""
    real = os.environ.get("CTG_CSV")
    if real:
        return load_dataset(real, class_column="NSP"), real, True
    path = tmp_path_factory.mktemp("data") / "ctg_synthetic.csv"
    ds = make_ctg_like()
    from ctgsvm.data import export_csv

    export_csv(ds, path)
    return load_dataset(path, class_column="NSP"), str(path), False


@pytest.fixture(scope="session")
def quick_train(ctg_table):
    """(training partition, discretization map, selector config) of the quick
    run on the bundled synthetic table, seed 42; skipped under CTG_CSV, since
    the pins that use it are of the synthetic table."""
    from ctgsvm.experiments import ExperimentConfig, build_pipeline

    _, path, is_real = ctg_table
    if is_real:
        pytest.skip("pinned to the bundled synthetic table, not to CTG_CSV")
    pipe = build_pipeline(ExperimentConfig(data=path, seed=42, quick=True))
    return pipe.train, pipe.dmap, pipe.cfg.selector_config()
