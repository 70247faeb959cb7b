"""Shape, balance, and determinism of the synthetic stand-in table."""
import numpy as np

from ctgsvm.data import export_csv, load_dataset
from ctgsvm.synth import CLASS_COUNTS, make_ctg_like


def test_shape_and_balance():
    ds = make_ctg_like()
    assert ds.n_rows == 2126
    assert len(ds.schema) == 23
    assert ds.class_labels == ("Normal", "Pathologic", "Suspect")
    codes = ds.class_codes()
    counts = {ds.class_labels[c]: int((codes == c).sum()) for c in range(3)}
    assert counts == CLASS_COUNTS
    assert ds.schema[-2].name == "CLASS"
    assert ds.schema[-1].name == "NSP"


def test_deterministic():
    a, b = make_ctg_like(), make_ctg_like()
    assert np.array_equal(a.rows, b.rows)
    assert make_ctg_like(seed=1).rows.tolist() != a.rows.tolist()


def test_scaled_row_count():
    ds = make_ctg_like(n_rows=400)
    assert ds.n_rows == 400
    # largest remainder: quotas 311.38, 55.50, 33.11 of Normal, Suspect, Pathologic
    assert np.bincount(ds.class_codes()).tolist() == [311, 33, 56]


def test_export_and_reload_identical(tmp_path):
    ds = make_ctg_like(n_rows=300)
    p = tmp_path / "t.csv"
    export_csv(ds, p)
    back = load_dataset(p, class_column="NSP")
    assert back.n_rows == ds.n_rows
    assert np.array_equal(np.asarray(back.rows), np.asarray(ds.rows))
