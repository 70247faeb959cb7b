"""Confusion matrices, accuracy, timing, and table rendering."""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .data import DataError, Dataset

PARTITIONS = ("train", "test", "combined")


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # rows = desired, columns = actual
    tag: str

    def __post_init__(self):
        if self.counts.shape != (len(self.labels), len(self.labels)):
            raise DataError("confusion matrix must be square over the labels")
        if (self.counts < 0).any():
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def trace(self) -> int:
        return int(np.trace(self.counts))


def confusion_from_labels(desired, actual, labels, tag: str) -> ConfusionMatrix:
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for d, a in zip(desired, actual):
        if d not in index or a not in index:
            raise DataError(f"label {a if d in index else d!r} not in matrix labels")
        counts[index[d], index[a]] += 1
    counts.setflags(write=False)
    return ConfusionMatrix(tuple(labels), counts, tag)


def evaluate(predictor, ds: Dataset, tag: str) -> ConfusionMatrix:
    """Run a predictor over every row and tally desired vs actual labels.

    The predictor is either a model exposing predict_dataset or a callable
    taking one feature vector and returning a label.
    """
    desired = [ds.class_labels[c] for c in ds.class_codes()]
    if hasattr(predictor, "predict_dataset"):
        actual, _ = predictor.predict_dataset(ds)
    else:
        feats = ds.feature_matrix()
        actual = [predictor(feats[i]) for i in range(ds.n_rows)]
    return confusion_from_labels(desired, actual, ds.class_labels, tag)


def combine(train_cm: ConfusionMatrix, test_cm: ConfusionMatrix) -> ConfusionMatrix:
    if train_cm.labels != test_cm.labels:
        raise DataError("cannot combine matrices over different labels")
    return ConfusionMatrix(train_cm.labels, train_cm.counts + test_cm.counts, "combined")


def accuracy(cm: ConfusionMatrix) -> float:
    """Percent correct, full precision (rounding happens only at render)."""
    if cm.total == 0:
        raise DataError("accuracy of an empty matrix")
    return 100.0 * cm.trace / cm.total


def round_half_up(x: float, digits: int) -> str:
    q = Decimal(1).scaleb(-digits)
    return str(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_UP))


def fmt_accuracy(x: float) -> str:
    return round_half_up(x, 2)


def fmt_seconds(x: float) -> str:
    return round_half_up(x, 3)


def timed(fn):
    """Run a closure and return (result, (wall seconds, process CPU seconds))."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return result, (time.perf_counter() - wall, time.process_time() - cpu)


@dataclass
class EvaluationReport:
    descriptor: str
    matrices: dict[str, ConfusionMatrix]
    cpu_seconds: float
    C: float | None = None
    degree: int | None = None
    members: int | None = None
    flags: dict = field(default_factory=dict)

    def accuracy(self, tag: str) -> float:
        return accuracy(self.matrices[tag])


def _flags_text(flags: dict) -> str:
    return ";".join(f"{k}={flags[k]}" for k in sorted(flags) if flags[k])


def render(reports: list[EvaluationReport], fmt: str = "csv") -> str:
    """Deterministic table over (model, C, degree, members, partition)."""
    if not reports:
        raise DataError("nothing to render")
    header = ["model", "C", "degree", "members", "partition", "accuracy", "cpu_seconds", "flags"]
    rows = []
    for r in reports:
        for tag in PARTITIONS:
            if tag not in r.matrices:
                continue
            rows.append(
                [
                    r.descriptor,
                    "" if r.C is None else str(r.C),
                    "" if r.degree is None else str(r.degree),
                    "" if r.members is None else str(r.members),
                    tag,
                    fmt_accuracy(r.accuracy(tag)),
                    fmt_seconds(r.cpu_seconds),
                    _flags_text(r.flags),
                ]
            )
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise DataError(f"unknown render format {fmt!r}")
