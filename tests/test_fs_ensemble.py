"""Selector ensembles: member validity, aggregation rules, and labels."""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ctgsvm.data import DataError, DiscretizationMap
from ctgsvm.filters import rank_features
from ctgsvm.fs_ensemble import (
    FeatureSelection,
    SelectorConfig,
    SelectorId,
    aggregate,
    combo_label,
    run_selector,
)
from ctgsvm.search import (
    GeneticConfig,
    best_first,
    genetic_search,
    make_cfs_evaluator,
    make_consistency_evaluator,
    trace_to_csv,
)
from conftest import nominal_dataset, passthrough_dmap


class TestSelectorId:
    def test_valid_combinations(self):
        SelectorId("FS1", "best_first")
        SelectorId("FS2", "genetic")
        SelectorId("FS3", "ranker")
        SelectorId("FS4", "ranker")

    def test_ranker_for_subset_codes_rejected(self):
        with pytest.raises(DataError):
            SelectorId("FS1", "ranker")

    def test_search_for_ranker_codes_rejected(self):
        with pytest.raises(DataError, match="requires the ranker"):
            SelectorId("FS3", "best_first")

    def test_unknown_code(self):
        with pytest.raises(DataError):
            SelectorId("FS9", "ranker")


def toy_dataset():
    # signal tracks the class, dup copies signal, noise is unrelated
    return nominal_dataset(
        {
            "signal": [0, 0, 1, 1, 0, 1, 0, 1],
            "dup": [0, 0, 1, 1, 0, 1, 0, 1],
            "noise": [0, 1, 0, 1, 1, 0, 1, 0],
            "partial": [0, 0, 1, 0, 0, 1, 0, 1],
        },
        ["A", "A", "B", "B", "A", "B", "A", "B"],
    )


class TestRunSelector:
    def test_ranker_keep_all_selects_everything(self):
        ds = toy_dataset()
        sel = run_selector(SelectorId("FS4", "ranker"), ds, dmap=passthrough_dmap(ds))
        assert sel.selected == frozenset(range(4))
        assert sel.scores is not None

    def test_threshold_above_every_score_is_data_error(self):
        """A threshold that keeps no feature names the selector, the
        threshold and the top score, instead of an empty selection."""
        ds = toy_dataset()
        sel = run_selector(SelectorId("FS4", "ranker"), ds, dmap=passthrough_dmap(ds))
        top = max(sel.scores.scores)
        cfg = SelectorConfig(cutoff_rule="threshold", cutoff_value=top)
        with pytest.raises(DataError, match=f"FS4-ranker: cutoff threshold:{top!r} keeps no feature; "
                                            f"the top score is {top!r}"):
            run_selector(SelectorId("FS4", "ranker"), ds, cfg, dmap=passthrough_dmap(ds))

    def test_threshold_selection_sizes(self, ctg_table, tmp_path):
        """threshold:0.01 keeps 21 relief and 17 information-gain features
        of the synthetic table's training partition, seed 42."""
        from ctgsvm.experiments import ExperimentConfig, build_pipeline

        _, path, is_real = ctg_table
        if is_real:
            pytest.skip("the sizes are of the bundled synthetic table, not of CTG_CSV")
        pipe = build_pipeline(ExperimentConfig(data=path, seed=42, cutoff="threshold:0.01", out_dir=str(tmp_path)))
        assert [len(pipe.selection(code, "ranker").selected) for code in ("FS3", "FS4")] == [21, 17]

    def test_cfs_genetic_drops_redundant_duplicate(self):
        ds = toy_dataset()
        cfg = SelectorConfig(genetic=GeneticConfig(seed=7))
        sel = run_selector(SelectorId("FS1", "genetic"), ds, cfg, passthrough_dmap(ds))
        # the duplicated pair never survives together: redundancy is pure cost
        assert not {0, 1} <= sel.selected
        assert 0 in sel.selected or 1 in sel.selected

    def test_consistency_best_first_selection(self):
        ds = toy_dataset()
        sel = run_selector(SelectorId("FS2", "best_first"), ds, dmap=passthrough_dmap(ds))
        assert sel.selected
        assert sel.value is not None and sel.value <= 0.0

    def test_relieff_selector_scores_signal_first(self):
        rng = np.random.default_rng(0)
        from conftest import numeric_dataset

        signal = np.array([0.0] * 10 + [1.0] * 10) + rng.normal(0, 0.05, 20)
        noise = rng.normal(0, 1, 20)
        ds = numeric_dataset(np.column_stack([signal, noise]), ["A"] * 10 + ["B"] * 10)
        sel = run_selector(SelectorId("FS3", "ranker"), ds)
        assert sel.scores.ordering[0] == 0


    @pytest.mark.parametrize(
        "code,search",
        [("FS1", "best_first"), ("FS1", "genetic"), ("FS2", "best_first"), ("FS2", "genetic")],
    )
    def test_trace_matches_direct_search(self, code, search):
        ds = toy_dataset()
        dmap = passthrough_dmap(ds)
        cfg = SelectorConfig(genetic=GeneticConfig(seed=7))
        got = []
        sel = run_selector(SelectorId(code, search), ds, cfg, dmap, trace=got)
        evaluator = (make_cfs_evaluator if code == "FS1" else make_consistency_evaluator)(ds, dmap)
        evaluator.trace = want = []
        if search == "best_first":
            res = best_first(evaluator, ds.n_features, cfg.best_first)
        else:
            res = genetic_search(evaluator, ds.n_features, cfg.genetic)
        assert want and got == want
        assert (sel.selected, sel.value) == (res.subset, res.value)

    @pytest.mark.parametrize("code", ["FS3", "FS4"])
    def test_rankers_leave_trace_empty(self, code):
        ds = toy_dataset()
        got = []
        run_selector(SelectorId(code, "ranker"), ds, dmap=passthrough_dmap(ds), trace=got)
        assert got == []

    def test_fs2_bins_each_column_once(self, quick_train, monkeypatch):
        train, dmap, cfg = quick_train
        binned = []
        original = DiscretizationMap.bin_column

        def counted(self, ds, feature):
            binned.append(feature)
            return original(self, ds, feature)

        monkeypatch.setattr(DiscretizationMap, "bin_column", counted)
        run_selector(SelectorId("FS2", "genetic"), train, cfg, dmap)
        assert 0 < len(binned) <= train.n_features


SUBSET_TRACE = Path(__file__).with_name("subset_trace_seed42.sha256")


def trace_digests(code, train, dmap, cfg) -> dict[str, str]:
    """SHA-256 of `trace_to_csv` for each subset search of `code`, by selector label."""
    digests = {}
    for search in ("best_first", "genetic"):
        trace = []
        run_selector(SelectorId(code, search), train, cfg, dmap, trace=trace)
        digests[f"{code}-{search}"] = hashlib.sha256(trace_to_csv(trace).encode("utf-8")).hexdigest()
    return digests


def check_trace_pin(code, quick_train):
    text = SUBSET_TRACE.read_text(encoding="utf-8")
    pins = dict(reversed(ln.split()) for ln in text.splitlines() if ln and not ln.startswith("#"))
    want = {label: digest for label, digest in pins.items() if label.startswith(f"{code}-")}
    made_with = next(ln for ln in text.splitlines() if ln.startswith("# numpy"))
    assert len(want) == 2 and trace_digests(code, *quick_train) == want, (
        f"pin made with {made_with[2:]}, running numpy {np.__version__}"
    )


def test_fs1_search_paths_match_pin(quick_train):
    """Every correlation merit along both FS1 searches is as pinned."""
    check_trace_pin("FS1", quick_train)


def test_fs2_search_paths_match_pin(quick_train):
    """Every consistency score along both FS2 searches is as pinned: a
    change to a single score changes its trace line even when the selected
    features stay the same."""
    check_trace_pin("FS2", quick_train)


def subset_selection(code, search, feats):
    return FeatureSelection(SelectorId(code, search), frozenset(feats))


def ranked_selection(code, order, selected=None):
    n = len(order)
    scores = [0.0] * n
    for pos, f in enumerate(order):
        scores[f] = float(n - pos)
    fs = rank_features("info_gain", scores)
    sel = frozenset(range(n)) if selected is None else frozenset(selected)
    return FeatureSelection(SelectorId(code, "ranker"), sel, scores=fs)


class TestAggregate:
    def test_union(self):
        got = aggregate(
            [subset_selection("FS1", "genetic", {1, 3}), subset_selection("FS2", "genetic", {3, 5})],
            "union",
        )
        assert got == frozenset({1, 3, 5})

    def test_mean_rank_all_tied_takes_lowest_indexes(self):
        a = ranked_selection("FS3", [0, 1, 2])
        b = ranked_selection("FS4", [2, 1, 0])
        got = aggregate([a, b], "mean_rank_top_k", k=2, n_features=3)
        assert got == frozenset({0, 1})

    def test_mean_rank_prefers_consistently_high(self):
        a = ranked_selection("FS3", [2, 0, 1])
        b = ranked_selection("FS4", [2, 1, 0])
        got = aggregate([a, b], "mean_rank_top_k", k=1, n_features=3)
        assert got == frozenset({2})

    def test_subset_members_rank_selected_first(self):
        a = subset_selection("FS1", "genetic", {2})
        b = subset_selection("FS2", "genetic", {2, 3})
        got = aggregate([a, b], "mean_rank_top_k", k=1, n_features=4)
        assert got == frozenset({2})

    def test_union_order_invariance(self):
        a = subset_selection("FS1", "genetic", {1, 3})
        b = ranked_selection("FS4", [0, 1, 2, 3], selected={0, 2})
        assert aggregate([a, b], "union") == aggregate([b, a], "union")

    def test_union_recuts_rankers_to_k(self):
        """With k, each ranker member joins the union with its top k only;
        subset members join whole."""
        a = subset_selection("FS1", "genetic", {1, 3})
        b = ranked_selection("FS4", [4, 0, 2, 1, 3])
        assert aggregate([a, b], "union") == frozenset(range(5))
        assert aggregate([a, b], "union", k=2) == frozenset({0, 1, 3, 4})
        with pytest.raises(DataError, match="top_k: k=6 out of range"):
            aggregate([a, b], "union", k=6)

    def test_unknown_mode_rejected(self):
        pair = [subset_selection("FS1", "genetic", {1, 3}), subset_selection("FS2", "genetic", {3, 5})]
        with pytest.raises(DataError, match="unknown aggregation mode 'intersection'"):
            aggregate(pair, "intersection")

    def test_needs_two_members(self):
        with pytest.raises(DataError):
            aggregate([subset_selection("FS1", "genetic", {1})], "union")

    def test_k_out_of_range(self):
        a = ranked_selection("FS3", [0, 1])
        b = ranked_selection("FS4", [1, 0])
        with pytest.raises(DataError):
            aggregate([a, b], "mean_rank_top_k", k=5, n_features=2)


class TestLabels:
    def test_combo_label(self):
        members = (SelectorId("FS4", "ranker"), SelectorId("FS1", "genetic"))
        assert combo_label(members) == "EFS41"
        assert combo_label((SelectorId("FS1", "genetic"), SelectorId("FS2", "genetic"))) == "EFS12"
