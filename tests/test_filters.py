"""Filter scores against spec examples and brute-force references."""
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctgsvm.data import NOMINAL, NUMERIC, AttributeSpec, DataError, Dataset, _entropy_bits, fit_discretization
from ctgsvm.filters import (
    CLASS,
    SuCache,
    cfs_merit,
    inconsistency_rate,
    info_gain,
    info_gain_scores,
    rank_cutoff,
    rank_features,
    relieff,
    scores_to_csv,
    symmetric_uncertainty,
)
from conftest import nominal_dataset, numeric_dataset, passthrough_dmap
from oracles import (
    cfs_merit_brute,
    entropy_bits,
    inconsistency_brute,
    info_gain_brute,
    relieff_brute,
    relieff_rowwise,
    su_brute,
)


def label_entropy(labels) -> float:
    """Entropy of a label sequence through the package's one entropy
    function, which takes class counts."""
    return _entropy_bits(np.unique(np.asarray(labels), return_counts=True)[1])


class TestEntropy:
    def test_uniform_binary(self):
        assert label_entropy(["A", "A", "B", "B"]) == 1.0

    def test_pure(self):
        assert label_entropy(["A", "A", "A", "A"]) == 0.0

    def test_three_one(self):
        assert label_entropy(["A", "A", "A", "B"]) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_empty_counts_give_zero(self):
        assert _entropy_bits(np.zeros(0, dtype=np.int64)) == 0.0
        assert _entropy_bits(np.zeros(3, dtype=np.int64)) == 0.0

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = rng.choice(list("ABC"), size=rng.integers(1, 12)).tolist()
            h = label_entropy(labels)
            assert h == pytest.approx(label_entropy(labels[::-1]), abs=1e-12)
            assert -1e-12 <= h <= math.log2(len(set(labels))) + 1e-12


class TestInfoGain:
    def case(self, bins, classes):
        ds = nominal_dataset({"f": bins}, classes)
        return info_gain(ds, 0, passthrough_dmap(ds))

    def test_perfectly_predictive(self):
        assert self.case([0, 0, 1, 1], ["A", "A", "B", "B"]) == 1.0

    def test_independent(self):
        assert self.case([0, 1, 0, 1], ["A", "A", "B", "B"]) == 0.0

    def test_partial(self):
        assert self.case([0, 0, 1, 1], ["A", "A", "A", "B"]) == pytest.approx(
            0.31127812445913283, abs=1e-12
        )

    def test_class_column_rejected(self):
        ds = nominal_dataset({"f": [0, 1]}, ["A", "B"])
        with pytest.raises(DataError):
            info_gain(ds, CLASS, passthrough_dmap(ds))

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            ds = nominal_dataset(
                {"f": rng.integers(0, 3, n).tolist()}, rng.choice(list("AB"), n).tolist()
            )
            assert info_gain(ds, 0, passthrough_dmap(ds)) >= -1e-12


class TestSymmetricUncertainty:
    def test_self_correlation(self):
        ds = nominal_dataset({"x": [0, 0, 1, 1], "y": [0, 0, 1, 1]}, ["A", "A", "B", "B"])
        assert symmetric_uncertainty(ds, 0, 1, passthrough_dmap(ds)) == 1.0

    def test_independent_uniform(self):
        ds = nominal_dataset({"x": [0, 0, 1, 1], "y": [0, 1, 0, 1]}, ["A", "A", "B", "B"])
        assert symmetric_uncertainty(ds, 0, 1, passthrough_dmap(ds)) == 0.0

    def test_against_class(self):
        ds = nominal_dataset({"x": [0, 0, 1, 1]}, ["A", "A", "A", "B"])
        got = symmetric_uncertainty(ds, 0, CLASS, passthrough_dmap(ds))
        assert got == pytest.approx(0.3437110184854509, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            ds = nominal_dataset(
                {"x": rng.integers(0, 3, n).tolist(), "y": rng.integers(0, 2, n).tolist()},
                rng.choice(list("AB"), n).tolist(),
            )
            dmap = passthrough_dmap(ds)
            ab = symmetric_uncertainty(ds, 0, 1, dmap)
            ba = symmetric_uncertainty(ds, 1, 0, dmap)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert -1e-12 <= ab <= 1 + 1e-12

    def test_both_constant_defined_as_zero(self):
        ds = nominal_dataset({"x": [0, 0], "y": [0, 0]}, ["A", "B"])
        assert symmetric_uncertainty(ds, 0, 1, passthrough_dmap(ds)) == 0.0


class TestCfsMerit:
    def test_singleton_equals_class_su(self):
        ds = nominal_dataset({"x": [0, 0, 1, 1]}, ["A", "A", "A", "B"])
        dmap = passthrough_dmap(ds)
        assert cfs_merit(ds, {0}, dmap) == pytest.approx(
            symmetric_uncertainty(ds, 0, CLASS, dmap), abs=1e-12
        )

    def test_two_feature_formula(self):
        # r_cf = 0.5, r_ff = 0 gives 2*0.5/sqrt(2)
        assert 2 * 0.5 / math.sqrt(2) == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_empty_subset_rejected(self):
        ds = nominal_dataset({"x": [0, 1]}, ["A", "B"])
        with pytest.raises(DataError):
            cfs_merit(ds, set(), passthrough_dmap(ds))

    def test_order_invariance(self):
        ds = nominal_dataset(
            {"x": [0, 0, 1, 1, 0], "y": [1, 0, 1, 0, 1], "z": [0, 1, 1, 0, 0]},
            ["A", "A", "B", "B", "A"],
        )
        dmap = passthrough_dmap(ds)
        assert cfs_merit(ds, [0, 1, 2], dmap) == cfs_merit(ds, [2, 0, 1], dmap)

    def test_redundant_zero_signal_feature_decreases_merit(self):
        # y carries no class signal but duplicates x, so adding it only
        # adds redundancy
        ds = nominal_dataset(
            {"x": [0, 0, 1, 1], "y": [0, 0, 1, 1]}, ["A", "A", "B", "B"]
        )
        dmap = passthrough_dmap(ds)
        ds2 = nominal_dataset(
            {"x": [0, 0, 1, 1], "noise": [0, 1, 0, 1], "dup": [0, 1, 0, 1]},
            ["A", "A", "B", "B"],
        )
        dmap2 = passthrough_dmap(ds2)
        # SU(noise, class) = 0 and SU(noise, dup) = 1
        assert cfs_merit(ds2, {0, 1, 2}, dmap2) < cfs_merit(ds2, {0, 1}, dmap2)


class TestInconsistencyRate:
    def test_consistent(self):
        ds = nominal_dataset({"x": [0, 0, 1, 1]}, ["A", "A", "B", "B"])
        assert inconsistency_rate(ds, {0}, passthrough_dmap(ds)) == 0.0

    def test_one_conflicting_pair(self):
        ds = nominal_dataset({"x": [0, 0, 1, 2]}, ["A", "B", "A", "B"])
        assert inconsistency_rate(ds, {0}, passthrough_dmap(ds)) == 0.25

    def test_two_to_one_pattern(self):
        ds = nominal_dataset({"x": [0, 0, 0]}, ["A", "A", "B"])
        assert inconsistency_rate(ds, {0}, passthrough_dmap(ds)) == pytest.approx(1 / 3)

    def test_monotone_under_feature_addition(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            ds = nominal_dataset(
                {
                    "x": rng.integers(0, 2, n).tolist(),
                    "y": rng.integers(0, 2, n).tolist(),
                    "z": rng.integers(0, 2, n).tolist(),
                },
                rng.choice(list("AB"), n).tolist(),
            )
            dmap = passthrough_dmap(ds)
            for sub in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}):
                bigger = set(sub) | {(max(sub) + 1) % 3}
                assert (
                    inconsistency_rate(ds, bigger, dmap)
                    <= inconsistency_rate(ds, sub, dmap) + 1e-12
                )

    def test_wide_key_keeps_first_feature(self):
        # 70 binary columns: the radix product 2**70 passes 2**62, so the
        # key must be re-densified; a plain int64 key would shift feature 0
        # out and merge rows 0 and 1, which differ only there
        n_feat = 70
        rows = [[0] * n_feat, [1] + [0] * (n_feat - 1), [0] + [1] * (n_feat - 1), [1] * n_feat]
        ds = nominal_dataset(
            {f"f{j}": [r[j] for r in rows] for j in range(n_feat)}, ["A", "B", "A", "A"]
        )
        subset = range(n_feat)
        got = inconsistency_rate(ds, subset, passthrough_dmap(ds))
        assert got == inconsistency_brute(list(zip(*rows)), ds.class_codes().tolist(), subset)
        assert got == 0.0

    def test_matches_brute_on_training_partition(self, quick_train):
        train, dmap, _ = quick_train
        n_feat = train.n_features
        columns = [dmap.bin_column(train, f).tolist() for f in range(n_feat)]
        classes = train.class_codes().tolist()
        cache = SuCache(train, dmap)
        rng = np.random.default_rng(8)
        subsets = [rng.choice(n_feat, size=int(rng.integers(1, n_feat + 1)), replace=False)
                   for _ in range(100)]
        for subset in [[]] + [s.tolist() for s in subsets]:
            want = inconsistency_brute(columns, classes, subset)
            assert inconsistency_rate(train, subset, dmap, cache=cache) == want
            assert inconsistency_rate(train, subset, dmap) == want


class TestRelieff:
    def test_constant_feature_zero_weight(self):
        ds = numeric_dataset([[5.0, 0.1], [5.0, 0.9], [5.0, 0.2], [5.0, 1.0]],
                             ["A", "B", "A", "B"])
        scores = relieff(ds, k=1)
        assert scores.scores[0] == 0.0

    def test_four_point_fixture_exact(self):
        ds = numeric_dataset([[0.0], [0.1], [1.0], [0.9]], ["A", "A", "B", "B"])
        scores = relieff(ds, k=1)
        assert scores.scores[0] > 0
        assert scores.scores[0] == pytest.approx(0.75, abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(8, 3))
        mat[3] = mat[1]  # duplicated row exercises the tie rule
        classes = ["A", "B", "A", "B", "B", "A", "B", "A"]
        ds = numeric_dataset(mat, classes)
        base = relieff(ds, k=2).scores
        perm = rng.permutation(8)
        ds2 = numeric_dataset(mat[perm], [classes[i] for i in perm])
        assert np.allclose(relieff(ds2, k=2).scores, base, atol=1e-12)

    def test_small_class_clamps_k(self):
        ds = numeric_dataset([[0.0], [0.2], [0.4], [5.0]], ["A", "A", "A", "B"])
        scores = relieff(ds, k=3)  # class B has 1 row; hits for B are empty
        assert all(math.isfinite(s) for s in scores.scores)

    def test_matches_brute(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            mat = np.round(rng.normal(size=(n, 3)), 2)
            classes = rng.choice(list("AB"), n).tolist()
            if len(set(classes)) < 2:
                classes[0] = "A" if classes[1] == "B" else "B"
            ds = numeric_dataset(mat, classes)
            for k in (1, 2):
                got = relieff(ds, k=k).scores
                want = relieff_brute(mat.tolist(), ["numeric"] * 3, classes, k=k)
                assert np.allclose(got, want, atol=1e-9)

    def test_bad_m_rejected(self):
        ds = numeric_dataset([[0.0], [1.0]], ["A", "B"])
        with pytest.raises(DataError):
            relieff(ds, m=3, k=1)


def mixed_dataset(columns, kinds, codes) -> Dataset:
    """Features of the given kinds (nominal columns hold small integer
    codes) and a class column of codes."""
    schema = [
        AttributeSpec(f"f{j}", NOMINAL, tuple(str(i) for i in range(int(col.max()) + 1)))
        if kind == NOMINAL else AttributeSpec(f"f{j}", NUMERIC)
        for j, (col, kind) in enumerate(zip(columns, kinds))
    ]
    labels = tuple(f"c{i}" for i in range(int(codes.max()) + 1))
    schema.append(AttributeSpec("cls", NOMINAL, labels))
    return Dataset(schema, np.column_stack([*columns, codes]), len(schema) - 1)


def relieff_reference(ds, **kw):
    numeric = np.array([ds.feature_spec(f).kind == NUMERIC for f in range(ds.n_features)])
    return relieff_rowwise(ds.feature_matrix(), numeric, ds.class_codes(), len(ds.class_labels), **kw)


def hexes(values):
    return [float(v).hex() for v in values]


@st.composite
def relief_tables(draw):
    """A small mixed table whose few distinct values make duplicate rows
    and ties at the k-th distance; columns may be constant and classes
    smaller than k + 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    levels = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from([NUMERIC, NOMINAL]), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind == NOMINAL or draw(st.booleans()):
            columns.append(rng.integers(0, levels, n).astype(float))
        else:
            columns.append(np.round(rng.normal(0.0, 2.0, n), 1))
    codes = rng.integers(0, draw(st.integers(1, 4)), n)
    return mixed_dataset(columns, kinds, codes)


@pytest.fixture(scope="module")
def seed42_train(ctg_table):
    """The training partition of a full seed-42 run."""
    from ctgsvm.experiments import ExperimentConfig, build_pipeline

    return build_pipeline(ExperimentConfig(data=ctg_table[1], seed=42)).train


class TestRelieffMatchesRowwise:
    """relieff's tiled distances and streamed neighbours give the same floats
    as the row-at-a-time reference, on every path: nominal features,
    sampling, small classes, the full sort for ties, constant columns,
    every feature-sum order and more rows than one tile."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(relief_tables(), st.integers(1, 6), st.data())
    def test_random_tables(self, ds, k, data):
        m = data.draw(st.none() | st.integers(1, ds.n_rows))
        seed = data.draw(st.integers(0, 99))
        assert hexes(relieff(ds, m=m, k=k, seed=seed).scores) == hexes(relieff_reference(ds, m=m, k=k, seed=seed))

    def test_ties_and_small_classes(self):
        """Rows of two values per column: most k-th distances tie, and class
        c2 has fewer than k + 1 rows."""
        rng = np.random.default_rng(11)
        columns = [rng.integers(0, 2, 30).astype(float) for _ in range(3)]
        codes = np.array([0] * 14 + [1] * 12 + [2] * 4)
        ds = mixed_dataset(columns, [NUMERIC, NOMINAL, NUMERIC], codes)
        for k in (1, 3, 5):
            assert hexes(relieff(ds, k=k).scores) == hexes(relieff_reference(ds, k=k))

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(12)
        n = 150
        columns = [rng.normal(size=n), rng.integers(0, 3, n).astype(float), np.round(rng.normal(size=n), 1),
                   np.full(n, 4.0), rng.integers(0, 5, n) * 0.25]
        codes = rng.choice(3, size=n, p=[0.7, 0.2, 0.1])
        ds = mixed_dataset(columns, [NUMERIC, NOMINAL, NUMERIC, NUMERIC, NUMERIC], codes)
        for m, seed in ((None, 0), (70, 3)):
            assert hexes(relieff(ds, m=m, seed=seed).scores) == hexes(relieff_reference(ds, m=m, seed=seed))

    @pytest.mark.parametrize("k", [10, 150])
    def test_one_feature_and_classes_shorter_than_k(self, k):
        """With one feature numpy sums a row's neighbour differences
        pairwise, so a class of fewer than k rows must add exactly its
        k_use differences, with no padding."""
        rng = np.random.default_rng(k)
        codes = np.array([0] * 6 + [1] * 68 + [2] * 12)
        ds = mixed_dataset([np.round(rng.normal(size=len(codes)), 2)], [NUMERIC], codes)
        for m in (None, 40):
            assert hexes(relieff(ds, m=m, k=k).scores) == hexes(relieff_reference(ds, m=m, k=k))

    @pytest.mark.parametrize("n_feat", [8, 9, 16, 17, 21, 24, 130])
    def test_wide_tables_over_many_tiles(self, n_feat):
        """Each distance adds its features in index order, up to 130 of
        them, so it is the same float as the row-at-a-time sum. Nominal,
        few-valued and constant columns, several tiles of rows, a sample of
        part of them and a class of fewer than k + 1 rows. Twins pin the
        order: each of 24 rows has two near copies whose offsets are the
        same exact values in two orders over the columns, so which copy is
        nearer, and which comes first among the neighbours, is decided by
        rounding alone."""
        rng = np.random.default_rng(n_feat)
        n = 300 + 3 * n_feat
        kinds = [NOMINAL if f % 4 == 3 else NUMERIC for f in range(n_feat)]
        fine = [f for f in range(n_feat) if f % 4 in (0, 2)]

        def column(f):
            if kinds[f] == NOMINAL:
                return rng.integers(0, 3, n).astype(float)
            if f == 5:
                return np.full(n, 2.0)
            if f % 4 == 1:
                return rng.integers(0, 4, n) * 0.5  # few values, so distances tie
            col = rng.integers(16, 48, n) / 64  # spans exactly [0, 1]: normalizing is exact
            col[:2] = 0.0, 1.0
            return col

        table = np.column_stack([column(f) for f in range(n_feat)])
        codes = rng.choice(3, size=n, p=[0.7, 0.25, 0.05])
        codes[rng.choice(n, size=6, replace=False)] = 3
        twins = rng.choice(np.arange(2, n), size=24, replace=False)
        # exact on the 1/64 grid, with 9 to 46 significant bits: sums of them round
        bits = rng.integers(10, 48, (24, len(fine)))
        offsets = rng.integers(2 ** (bits - 1), 2**bits) * 2.0**-53
        copies = np.repeat(table[twins], 2, axis=0)
        copies[0::2, fine] += offsets
        copies[1::2, fine] += rng.permuted(offsets, axis=1)
        ds = mixed_dataset(list(np.vstack((table, copies)).T), kinds, np.concatenate((codes, np.repeat(codes[twins], 2))))
        for m in (None, n // 2 + 7):
            got = relieff(ds, m=m, seed=n_feat).scores
            assert hexes(got) == hexes(relieff_reference(ds, m=m, seed=n_feat))

    @pytest.mark.parametrize("m", [None, 300])
    def test_seed42_training_partition(self, seed42_train, m):
        assert hexes(relieff(seed42_train, m=m).scores) == hexes(relieff_reference(seed42_train, m=m))

    def test_working_memory_stays_small(self, seed42_train):
        """Relief's working memory on the 1487-row partition stays at most
        2 MB: distances come one tile at a time."""
        relieff(seed42_train)  # one-time allocations, such as lazy imports, are not working memory
        tracemalloc.start()
        try:
            relieff(seed42_train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestRankCutoff:
    def scores(self, values):
        return rank_features("info_gain", values)

    def test_keep_all(self):
        s = self.scores([0.1] * 21)
        assert rank_cutoff(s, "keep_all") == frozenset(range(21))

    def test_top_k(self):
        s = self.scores([0.2, 0.9, 0.5])
        assert rank_cutoff(s, "top_k", 1) == frozenset({1})

    def test_threshold_strict(self):
        s = self.scores([0.3, 0.0, -0.1])
        assert rank_cutoff(s, "threshold", 0.0) == frozenset({0})

    def test_top_k_out_of_range(self):
        with pytest.raises(DataError):
            rank_cutoff(self.scores([0.1, 0.2]), "top_k", 3)

    def test_tie_breaks_by_index(self):
        s = self.scores([0.5, 0.5, 0.9])
        assert s.ordering == (2, 0, 1)


def random_small_dataset(rng):
    """<=8-row dataset with nominal features, for brute-force comparisons."""
    n = int(rng.integers(3, 9))
    n_feat = int(rng.integers(2, 5))
    cols = {f"f{i}": rng.integers(0, int(rng.integers(2, 4)), n).tolist() for i in range(n_feat)}
    classes = rng.choice(list("ABC")[: int(rng.integers(2, 4))], n).tolist()
    if len(set(classes)) < 2:
        classes[0] = "A" if classes[-1] != "A" else "B"
    return nominal_dataset(cols, classes)


def assert_scores_match_brute(ds, tol=1e-9):
    """Compare every filter on one dataset against its brute counterpart."""
    dmap = passthrough_dmap(ds)
    cache = SuCache(ds, dmap)
    columns = [ds.feature_column(f).astype(int).tolist() for f in range(ds.n_features)]
    classes = [ds.class_labels[c] for c in ds.class_codes()]
    assert label_entropy(classes) == pytest.approx(entropy_bits(classes), abs=tol)
    for f in range(ds.n_features):
        assert info_gain(ds, f, dmap) == pytest.approx(
            info_gain_brute(columns[f], classes), abs=tol
        )
        assert symmetric_uncertainty(ds, f, CLASS, dmap) == pytest.approx(
            su_brute(columns[f], classes), abs=tol
        )
    for a, b in combinations(range(ds.n_features), 2):
        assert symmetric_uncertainty(ds, a, b, dmap) == pytest.approx(
            su_brute(columns[a], columns[b]), abs=tol
        )
    subsets = [
        s
        for size in range(1, ds.n_features + 1)
        for s in combinations(range(ds.n_features), size)
    ]
    for sub in subsets:
        assert cfs_merit(ds, sub, dmap, cache=cache) == pytest.approx(
            cfs_merit_brute(columns, classes, sub), abs=tol
        )
        assert inconsistency_rate(ds, sub, dmap) == pytest.approx(
            inconsistency_brute(columns, classes, sub), abs=tol
        )
    feats = ds.feature_matrix().tolist()
    kinds = ["nominal"] * ds.n_features
    for k in (1, 3):
        got = relieff(ds, k=k).scores
        want = relieff_brute(feats, kinds, classes, k=k)
        assert np.allclose(got, want, atol=tol)


def test_all_scores_match_brute_on_random_fixtures():
    rng = np.random.default_rng(20260811)
    for _ in range(24):
        assert_scores_match_brute(random_small_dataset(rng))


def test_scores_csv_shape():
    s = rank_features("info_gain", [0.5, 0.1])
    text = scores_to_csv(s, ["a", "b"])
    lines = text.strip().splitlines()
    assert lines[0] == "feature,method,score,rank"
    assert lines[1].startswith("a,info_gain,0.5,0")


def test_info_gain_scores_ordering(ctg_table):
    ds, _, _ = ctg_table
    sub = ds.take(range(300))
    dmap = fit_discretization(sub)
    scores = info_gain_scores(sub, dmap)
    ordered = [scores.scores[f] for f in scores.ordering]
    assert ordered == sorted(ordered, reverse=True)
