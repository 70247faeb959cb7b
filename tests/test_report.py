"""Confusion matrices, accuracy arithmetic, timing, and table rendering."""
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ctgsvm.data import DataError
from ctgsvm.experiments import ExperimentConfig, _Out
from ctgsvm.report import (
    ConfusionMatrix,
    accuracy,
    confusion_from_codes,
    fmt_accuracy,
    render_table,
    round_half_up,
    timed,
)
from conftest import numeric_dataset

LABELS = ("Normal", "Pathologic", "Suspect")

# the published reference matrices for the 1463/663 split
TRAIN_COUNTS = np.array([[1131, 0, 2], [0, 128, 0], [1, 0, 201]])
TEST_COUNTS = np.array([[520, 0, 2], [0, 46, 2], [4, 2, 87]])


class TestConfusion:
    def test_perfect_predictor_is_diagonal(self):
        ds = numeric_dataset(np.arange(10).reshape(-1, 1), ["a", "b"] * 5)
        actual = [int(row[0]) % 2 for row in ds.feature_matrix()]
        cm = confusion_from_codes(ds.class_codes(), actual, ds.class_labels)
        assert np.array_equal(cm.counts, np.diag([5, 5]))
        assert accuracy(cm) == 100.0

    def test_reference_train_matrix(self):
        cm = ConfusionMatrix(LABELS, TRAIN_COUNTS)
        assert cm.total == 1463
        assert fmt_accuracy(accuracy(cm)) == "99.79"

    def test_reference_test_matrix(self):
        cm = ConfusionMatrix(LABELS, TEST_COUNTS)
        assert cm.total == 663
        assert fmt_accuracy(accuracy(cm)) == "98.49"

    def test_reference_combined_matrix(self):
        combined = ConfusionMatrix(LABELS, TRAIN_COUNTS + TEST_COUNTS)
        assert combined.total == 2126
        assert combined.trace == 2113
        assert fmt_accuracy(accuracy(combined)) == "99.39"

    def test_row_order_invariance(self):
        rng = np.random.default_rng(0)
        desired = rng.integers(0, 2, 30)
        actual = rng.integers(0, 2, 30)
        a = confusion_from_codes(desired, actual, ("x", "y"))
        perm = rng.permutation(30)
        b = confusion_from_codes(desired[perm], actual[perm], ("x", "y"))
        assert np.array_equal(a.counts, b.counts)
        assert a.total == 30

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            confusion_from_codes([0], [2], ("x", "y"))
        with pytest.raises(DataError):
            confusion_from_codes([0, 1], [1], ("x", "y"))


class TestAccuracy:
    def test_paper_value(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[2113, 13], [0, 0]]))
        assert fmt_accuracy(accuracy(cm)) == "99.39"

    def test_zero_trace(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[0, 3], [2, 0]]))
        assert fmt_accuracy(accuracy(cm)) == "0.00"

    def test_one_of_three_rounds_half_up(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[1, 2], [0, 0]]))
        assert fmt_accuracy(accuracy(cm)) == "33.33"

    def test_half_up_rounding_rule(self):
        assert round_half_up(99.385, 2) == "99.39"
        assert round_half_up(0.005, 2) == "0.01"
        assert round_half_up(1.0, 2) == "1.00"

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(("a", "b"), np.zeros((2, 2), dtype=int))
        with pytest.raises(DataError):
            accuracy(cm)


class TestTimed:
    def test_noop_under_millisecond(self):
        _, (wall, cpu) = timed(lambda: None)
        assert wall < 0.001 and cpu < 0.001

    def test_returns_result(self):
        value, (wall, cpu) = timed(lambda: 41 + 1)
        assert value == 42 and wall >= 0.0 and cpu >= 0.0

    def test_cpu_time_excludes_sleep(self):
        _, (wall, cpu) = timed(lambda: time.sleep(0.05))
        assert wall >= 0.05 and cpu < 0.04


HEADER = ("model", "C", "flags")
ROWS = [["SVM", 10, ""], ["FS1-genetic", "1e+04", "non_converged"]]


class TestRender:
    def test_single_report_rows(self):
        text = render_table(HEADER, ROWS, "csv")
        assert text == "model,C,flags\nSVM,10,\nFS1-genetic,1e+04,non_converged\n"

    def test_csv_quotes_cells_holding_the_delimiter(self):
        assert render_table(("a",), [["x,y"]], "csv") == 'a\n"x,y"\n'

    def test_byte_identical_re_render(self):
        assert render_table(HEADER, ROWS, "csv") == render_table(HEADER, ROWS, "csv")
        assert render_table(HEADER, ROWS, "markdown") == render_table(HEADER, ROWS, "markdown")

    def test_markdown_shape(self):
        text = render_table(HEADER, ROWS, "markdown")
        assert text.splitlines() == [
            "| model | C | flags |",
            "|---|---|---|",
            "| SVM | 10 |  |",
            "| FS1-genetic | 1e+04 | non_converged |",
        ]
        assert text.endswith("\n")

    def test_empty_rejected(self):
        for fmt in ("csv", "markdown"):
            with pytest.raises(DataError):
                render_table((), [], fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError):
            render_table(HEADER, ROWS, "html")

    def test_accuracy_consistent_with_matrix(self, tmp_path):
        cms = {
            "train": ConfusionMatrix(LABELS, TRAIN_COUNTS),
            "test": ConfusionMatrix(LABELS, TEST_COUNTS),
            "combined": ConfusionMatrix(LABELS, TRAIN_COUNTS + TEST_COUNTS),
        }
        acc = {tag: accuracy(cm) for tag, cm in cms.items()}
        assert acc["combined"] == pytest.approx(100.0 * 2113 / 2126, abs=1e-9)
        out = _Out(ExperimentConfig(data="unused.csv", out_dir=str(tmp_path)), "exp1")
        rows = [out.accuracy_row(["SVM"], acc, SimpleNamespace(converged=True))]
        assert out.converged
        # a row of a model that did not converge is flagged, and so is the run
        rows.append(out.accuracy_row(["SVM"], acc, SimpleNamespace(converged=False)))
        rows.append(out.accuracy_row(["SVM"], acc, SimpleNamespace(converged=True)))
        assert not out.converged
        text = render_table(("model", "train", "test", "combined", "flags"), rows, "csv")
        assert text.splitlines()[1:] == ["SVM,99.79,98.49,99.39,", "SVM,99.79,98.49,99.39,non_converged",
                                         "SVM,99.79,98.49,99.39,"]
