"""Confusion matrices, accuracy, timing, and table rendering."""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .data import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # rows = desired, columns = actual

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


def confusion_from_codes(desired, actual, labels) -> ConfusionMatrix:
    """The confusion matrix of desired and actual class indexes into labels."""
    k = len(labels)
    desired, actual = np.asarray(desired, dtype=np.int64), np.asarray(actual, dtype=np.int64)
    if desired.shape != actual.shape or not ((0 <= desired) & (desired < k) & (0 <= actual) & (actual < k)).all():
        raise DataError(f"confusion needs two equal-length lists of class indexes below {k}")
    counts = np.bincount(desired * k + actual, minlength=k * k).reshape(k, k)
    counts.setflags(write=False)
    return ConfusionMatrix(tuple(labels), counts)


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


def render_table(header, rows, fmt: str) -> str:
    """The one table renderer: a header and rows as CSV or markdown text."""
    if not header:
        raise DataError("empty table: no header row")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    raise DataError(f"unknown table format {fmt!r}")
