"""Dataset loading, selection, splitting, scaling, and discretization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctgsvm.data import (
    DataError,
    _entropy_bits,
    _entropy_rows,
    SplitSpec,
    discretize_mdl,
    export_csv,
    feature_columns,
    fit_discretization,
    fit_standardizer,
    load_dataset,
    select_features,
    stratified_split,
)
from conftest import numeric_dataset
from oracles import mdl_cuts_brute, mdl_cuts_loop


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


CSV = "a,b,cls\n1,2,X\n3,4,Y\n5,6,X\n7,8,Y\n"


class TestCsvLoading:
    def test_happy_path(self, tmp_path):
        ds = load_dataset(write(tmp_path, "t.csv", CSV), class_column="cls")
        assert ds.n_rows == 4
        assert ds.n_features == 2
        assert ds.class_labels == ("X", "Y")
        assert ds.feature_names == ("a", "b")
        assert ds.class_codes().tolist() == [0, 1, 0, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_dataset(tmp_path / "absent.csv", class_column="cls")

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,cls\n1,X\nbogus,Y\n")
        with pytest.raises(DataError, match="row 2, column 'a'"):
            load_dataset(p, class_column="cls")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        p = write(tmp_path, "t.csv", f"a,b,cls\n1,2,X\n3,{cell},Y\n")
        with pytest.raises(DataError, match="row 2, column 'b': non-finite"):
            load_dataset(p, class_column="cls")

    def test_missing_value_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,cls\n1,X\n?,Y\n")
        with pytest.raises(DataError, match="missing value at row 2"):
            load_dataset(p, class_column="cls")

    def test_single_label_class_rejected(self, tmp_path):
        """Only a table to fit on needs a second label: loading, and loading
        to predict, accept one."""
        from ctgsvm.experiments import ExperimentConfig

        p = write(tmp_path, "t.csv", "a,b,cls\n1,2,X\n")
        assert load_dataset(p, class_column="cls").class_labels == ("X",)
        cfg = ExperimentConfig(data=str(p), class_column="cls")
        assert cfg.load_work(fit=False).n_rows == 1
        with pytest.raises(DataError, match="class column 'cls' has fewer than 2 distinct labels"):
            cfg.load_work()

    def test_unknown_class_column(self, tmp_path):
        p = write(tmp_path, "t.csv", CSV)
        with pytest.raises(DataError, match="not found in header"):
            load_dataset(p, class_column="nope")


ARFF = """% a comment
@relation toy
@attribute a numeric
@attribute color {red, green}
@attribute cls {yes, no}
@data
1.5, red, yes
2.5, green, no
% trailing comment
3.5, red, yes
"""


class TestArffLoading:
    def test_happy_path(self, tmp_path):
        ds = load_dataset(write(tmp_path, "t.arff", ARFF), class_column="cls")
        assert ds.n_rows == 3
        assert ds.schema[1].nominal_values == ("red", "green")
        # declared order kept, not sorted
        assert ds.class_labels == ("yes", "no")
        assert ds.rows[1].tolist() == [2.5, 1.0, 1.0]

    def test_unknown_nominal_value(self, tmp_path):
        bad = ARFF.replace("2.5, green, no", "2.5, blue, no")
        with pytest.raises(DataError, match="'blue' not in declared set"):
            load_dataset(write(tmp_path, "t.arff", bad), class_column="cls")

    def test_missing_data_section(self, tmp_path):
        p = write(tmp_path, "t.arff", "@relation x\n@attribute a numeric\n")
        with pytest.raises(DataError, match="missing @data"):
            load_dataset(p, class_column="a")

    def test_non_finite_value_rejected(self, tmp_path):
        bad = ARFF.replace("3.5, red, yes", "inf, red, yes")
        with pytest.raises(DataError, match="row 3, column 'a': non-finite"):
            load_dataset(write(tmp_path, "t.arff", bad), class_column="cls")

    def test_missing_value_rejected(self, tmp_path):
        bad = ARFF.replace("3.5, red, yes", "?, red, yes")
        with pytest.raises(DataError, match="missing value at row 3"):
            load_dataset(write(tmp_path, "t.arff", bad), class_column="cls")

    def test_unclosed_quoted_name_rejected(self, tmp_path):
        bad = ARFF.replace("@attribute a numeric", "@attribute 'LB numeric")
        with pytest.raises(DataError, match="attribute name without its closing quote: \"@attribute 'LB numeric\""):
            load_dataset(write(tmp_path, "t.arff", bad), class_column="cls")

    def test_quoted_name_read(self, tmp_path):
        ds = load_dataset(write(tmp_path, "t.arff", ARFF.replace("@attribute a ", "@attribute 'a b' ")), class_column="cls")
        assert ds.feature_names == ("a b", "color")

    def test_repeated_nominal_value_rejected(self, tmp_path):
        bad = ARFF.replace("@attribute cls {yes, no}", "@attribute cls {yes, no, yes}")
        with pytest.raises(DataError, match="nominal spec for 'cls' repeats the value 'yes'"):
            load_dataset(write(tmp_path, "t.arff", bad), class_column="cls")


@pytest.mark.parametrize("name, text", [("t.csv", "a,b,cls\n"), ("t.arff", ARFF[:ARFF.index("1.5")])])
def test_header_without_rows_rejected(tmp_path, name, text):
    with pytest.raises(DataError, match="the table has a header but no data rows"):
        load_dataset(write(tmp_path, name, text), class_column="cls")


class TestSelectFeatures:
    def setup_method(self):
        self.ds = numeric_dataset([[1, 2, 3], [4, 5, 6]], ["a", "b"])

    def test_full_mask_round_trip(self):
        out = select_features(self.ds, [0, 1, 2])
        assert np.array_equal(out.feature_matrix(), self.ds.feature_matrix())
        assert np.array_equal(out.class_codes(), self.ds.class_codes())

    def test_single_feature(self):
        out = select_features(self.ds, [0])
        assert out.n_features == 1
        assert out.feature_names == ("f0",)
        assert out.feature_matrix().ravel().tolist() == [1.0, 4.0]

    def test_duplicate_index_rejected(self):
        with pytest.raises(DataError, match=r"feature mask \[0, 0\] repeats a column"):
            select_features(self.ds, [0, 0])

    def test_empty_mask_rejected(self):
        with pytest.raises(DataError, match="empty feature mask"):
            select_features(self.ds, [])

    def test_out_of_range_rejected(self):
        for mask in ([3], [-1, 0]):
            with pytest.raises(DataError, match=r"feature mask \[.*\] reads outside the table's 3 features"):
                select_features(self.ds, mask)


class TestFeatureColumns:
    """The one reading of a feature mask: None is every column, any other
    mask its columns in increasing order, and a bad mask gets one message
    from every function that takes one."""

    def setup_method(self):
        self.ds = numeric_dataset([[1, 2, 3], [4, 5, 6]], ["a", "b"])

    def test_none_is_every_column_and_a_mask_is_sorted(self):
        assert feature_columns(self.ds) == (0, 1, 2)
        assert feature_columns(self.ds, frozenset({2, 0})) == (0, 2)

    @pytest.mark.parametrize("mask, message", [
        ([], "empty feature mask"),
        ([1, 1], r"feature mask \[1, 1\] repeats a column"),
        ([3, 0], r"feature mask \[0, 3\] reads outside the table's 3 features"),
        ([0, -1], r"feature mask \[-1, 0\] reads outside the table's 3 features"),
    ], ids=["empty", "repeated", "past-the-end", "negative"])
    def test_every_caller_refuses_a_bad_mask_alike(self, mask, message):
        from ctgsvm.svm import pairwise_problems

        for call in (feature_columns, select_features, fit_standardizer, pairwise_problems):
            with pytest.raises(DataError, match=f"^{message}$"):
                call(self.ds, mask)


class TestSplit:
    def test_per_class_floor_counts(self, ctg_table):
        ds, _, _ = ctg_table
        train, test = stratified_split(ds, SplitSpec(0.70, seed=42))
        codes = ds.class_codes()
        # independent per-class floor computation
        expected_train = sum(
            math.floor(0.70 * int((codes == c).sum())) for c in range(len(ds.class_labels))
        )
        assert train.n_rows == expected_train
        assert test.n_rows == ds.n_rows - expected_train
        tr_codes = train.class_codes()
        for c in range(len(ds.class_labels)):
            assert int((tr_codes == c).sum()) == math.floor(0.70 * int((codes == c).sum()))

    def test_balanced_four_rows(self):
        ds = numeric_dataset([[1], [2], [3], [4]], ["a", "b", "a", "b"])
        train, test = stratified_split(ds, SplitSpec(0.5, seed=7))
        for part in (train, test):
            assert part.n_rows == 2
            assert sorted(part.class_codes().tolist()) == [0, 1]

    def test_same_seed_identical(self, ctg_table):
        ds, _, _ = ctg_table
        a = stratified_split(ds, SplitSpec(0.70, seed=42))
        b = stratified_split(ds, SplitSpec(0.70, seed=42))
        assert np.array_equal(a[0].rows, b[0].rows)
        assert np.array_equal(a[1].rows, b[1].rows)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        ds = numeric_dataset(rng.normal(size=(40, 3)), list("ab" * 20))
        train, test = stratified_split(ds, SplitSpec(0.6, seed=1))
        assert train.n_rows + test.n_rows == ds.n_rows
        merged = np.vstack([train.rows, test.rows])
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(np.asarray(ds.rows), axis=0)
        )

    def test_tiny_class_rejected(self):
        ds = numeric_dataset([[1], [2], [3]], ["a", "a", "b"])
        with pytest.raises(DataError, match="fewer than 2 rows"):
            stratified_split(ds, SplitSpec(0.5, seed=0))


class TestStandardizer:
    def test_two_point_feature(self):
        ds = numeric_dataset([[0.0], [2.0]], ["a", "b"])
        s = fit_standardizer(ds)
        assert s.means[0] == 1.0 and s.sigmas[0] == 1.0
        assert s.transform_features(ds.feature_matrix()).ravel().tolist() == [-1.0, 1.0]

    def test_constant_feature_floored(self):
        ds = numeric_dataset([[5.0], [5.0], [5.0]], ["a", "b", "a"])
        s = fit_standardizer(ds)
        assert s.sigmas[0] == 1.0
        out = s.transform_features(ds.feature_matrix())
        assert out.ravel().tolist() == [0.0, 0.0, 0.0]
        # applying twice to a constant feature stays at zero
        again = fit_standardizer(numeric_dataset(out, ["a", "b", "a"])).transform_features(out)
        assert again.ravel().tolist() == [0.0, 0.0, 0.0]

    def test_held_out_value(self):
        s = fit_standardizer(numeric_dataset([[0.0], [2.0]], ["a", "b"]))
        assert s.transform_features(np.array([[3.0]]))[0, 0] == 2.0

    def test_self_fit_is_zero_mean_unit_sigma(self):
        rng = np.random.default_rng(11)
        ds = numeric_dataset(rng.normal(5, 3, size=(50, 4)), list("ab") * 25)
        feats = fit_standardizer(ds).transform_features(ds.feature_matrix())
        assert np.all(np.abs(feats.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(np.sqrt((feats**2).mean(axis=0)) - 1) < 1e-9)

    def test_schema_mismatch(self):
        s = fit_standardizer(numeric_dataset([[0.0], [2.0]], ["a", "b"]))
        other = numeric_dataset([[0.0, 1.0], [2.0, 3.0]], ["a", "b"])
        with pytest.raises(DataError, match="width"):
            s.transform_features(other.feature_matrix())


class TestDiscretization:
    def test_single_clean_cut(self):
        ds = numeric_dataset([[1.0], [2.0], [3.0], [4.0]], ["A", "A", "B", "B"])
        assert discretize_mdl(ds, 0) == (2.5,)
        assert mdl_cuts_brute([1, 2, 3, 4], ["A", "A", "B", "B"]) == [2.5]

    def test_pure_classes_no_cut(self):
        ds = numeric_dataset([[1.0], [2.0], [3.0]], ["A", "A", "A"])
        assert discretize_mdl(ds, 0) == ()

    def test_identical_values_no_cut(self):
        ds = numeric_dataset([[7.0]] * 6, ["A", "B", "A", "B", "A", "B"])
        assert discretize_mdl(ds, 0) == ()

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(6, 40))
            values = rng.choice([1.0, 2.0, 3.5, 4.25, 7.0, 9.5, 12.0], size=n)
            classes = rng.choice(["A", "B", "C"], size=n).tolist()
            if len(set(classes)) < 2:
                continue
            ds = numeric_dataset(values.reshape(-1, 1), classes)
            got = list(discretize_mdl(ds, 0))
            want = mdl_cuts_brute(values.tolist(), classes)
            assert got == pytest.approx(want), f"trial {trial}"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 10), st.integers(1, 12))
    def test_matches_candidate_loop_bit_for_bit(self, seed, n, n_classes, levels):
        """All candidates of a range scored at once give the same cuts as
        one entropy pair per candidate, with tied values and tied scores,
        and with up to 10 classes, where entropy sums of 8 or more terms
        are summed pairwise."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels, n) * 0.75 if levels < 12 else np.round(rng.normal(size=n), 2)
        codes = rng.integers(0, n_classes, n)
        ds = numeric_dataset(values.reshape(-1, 1), [f"c{c}" for c in codes])
        got = discretize_mdl(ds, 0)
        assert [c.hex() for c in got] == [c.hex() for c in mdl_cuts_loop(values, ds.class_codes(), len(ds.class_labels))]

    def test_equal_scores_take_the_first_candidate(self):
        """Cuts at 6.0 and 7.5 score the same; the first is taken, and
        taking the other would end with a different cut."""
        values = [0.0, 8.0, 7.0, 9.0, 1.0, 11.0, 3.0, 3.0, 7.0, 8.0, 5.0, 8.0]
        classes = ["A", "B", "B", "B", "A", "B", "A", "A", "A", "B", "A", "B"]
        assert discretize_mdl(numeric_dataset(np.reshape(values, (-1, 1)), classes), 0) == (6.0,)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_row_entropies_sum_as_the_one_vector_entropy(self, seed, n_classes):
        """Each row's entropy, nonzero counts of up to 12 classes, is the
        float _entropy_bits gives for the row on its own."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, (30, n_classes)) * rng.integers(0, 2, (30, n_classes))
        counts[:, 0] += counts.sum(axis=1) == 0
        got = _entropy_rows(counts)
        assert [float(h).hex() for h in got] == [_entropy_bits(c).hex() for c in counts]

    def test_matches_candidate_loop_on_a_large_table(self):
        rng = np.random.default_rng(13)
        n = 1500
        codes = rng.choice(3, size=n, p=[0.75, 0.15, 0.1])
        for values in (np.round(rng.normal(codes, 1.0), 1), rng.integers(0, 40, n) + codes * 5.0):
            ds = numeric_dataset(values.reshape(-1, 1), [f"c{c}" for c in codes])
            got = discretize_mdl(ds, 0)
            assert len(got) > 1
            assert [c.hex() for c in got] == [c.hex() for c in mdl_cuts_loop(values, codes, 3)]

    def test_cuts_fall_between_classes(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(8, 60))
            values = np.round(rng.normal(0, 2, size=n), 1)
            classes = rng.choice(["A", "B"], size=n).tolist()
            if len(set(classes)) < 2:
                continue
            ds = numeric_dataset(values.reshape(-1, 1), classes)
            for cut in discretize_mdl(ds, 0):
                below = [c for v, c in zip(values, classes) if v < cut]
                above = [c for v, c in zip(values, classes) if v > cut]
                assert below and above
                # strictly between two observed values of different classes
                assert not (len(set(below)) == 1 and set(below) == set(above) == {below[0]})

    def test_fit_discretization_covers_all_features(self, ctg_table):
        ds, _, _ = ctg_table
        sub = ds.take(range(200))
        dmap = fit_discretization(sub)
        assert len(dmap.cuts) == ds.n_features


class TestExport:
    def test_round_trip_bit_stable(self, tmp_path, ctg_table):
        ds, _, _ = ctg_table
        sub = ds.take(range(50))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(sub, p1)
        reloaded = load_dataset(p1, class_column="NSP")
        export_csv(reloaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(np.asarray(reloaded.rows), np.asarray(sub.rows))
