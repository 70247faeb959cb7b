"""Shared fixtures: tiny dataset builders and the session-wide table.

The heavyweight acceptance checks run against a real cardiotocography CSV
when the CTG_CSV environment variable points at one; otherwise they use the
bundled synthetic stand-in with the same shape and class balance.
"""
from __future__ import annotations

import os

# The SMO solver's update counts follow the last bits of its kernel values,
# and multi-threaded OpenBLAS sums matrix products in an order that depends
# on the thread count. One BLAS thread keeps the pinned solver path
# (solver_path_seed42.txt) the same on every machine. This only takes effect
# before numpy loads, so it comes before the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

from ctgsvm.data import AttributeSpec, Dataset, DiscretizationMap, NOMINAL, NUMERIC, load_dataset
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
