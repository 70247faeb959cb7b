"""Bootstrap, voting, agreement, and ensemble persistence."""
from dataclasses import replace

import numpy as np
import pytest

from ctgsvm.bagging import (
    EnsembleConfig,
    EnsembleModel,
    agreement,
    bagging_train,
    bootstrap_sample,
    load_ensemble,
    save_ensemble,
    split_mix,
)
from ctgsvm.data import DataError, fit_standardizer
from ctgsvm.svm import KernelSpec, SvmConfig, model_to_lines
from conftest import labelling_model, numeric_dataset, unit_rows
from oracles import decision_values, ensemble_vote, ovo_predict


def base_cfg(C=10.0, degree=2):
    return SvmConfig(C=C, kernel=KernelSpec(degree=degree))


def blobs(n_per=12, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.vstack(
        [rng.normal((0, 0), 0.5, (n_per, 2)), rng.normal((5, 5), 0.5, (n_per, 2))]
    )
    return numeric_dataset(rows, ["lo"] * n_per + ["hi"] * n_per)


class TestBootstrap:
    def test_single_row(self):
        ds = numeric_dataset([[3.0]], ["A"])
        out = bootstrap_sample(ds, seed=1)
        assert out.n_rows == 1
        assert out.rows.tolist() == ds.rows.tolist()

    def test_same_seed_identical(self):
        ds = blobs()
        a = bootstrap_sample(ds, seed=9)
        b = bootstrap_sample(ds, seed=9)
        assert np.array_equal(a.rows, b.rows)

    def test_distinct_fraction_monte_carlo(self):
        ds = numeric_dataset(np.arange(1000).reshape(-1, 1), ["a", "b"] * 500)
        fractions = []
        for seed in range(120):
            out = bootstrap_sample(ds, seed=seed)
            fractions.append(len(np.unique(out.rows[:, 0])) / 1000)
        mean = float(np.mean(fractions))
        assert abs(mean - (1 - 1 / np.e)) < 0.02

    def test_same_size_as_input(self):
        ds = blobs()
        assert bootstrap_sample(ds, seed=0).n_rows == ds.n_rows


class TestSplitMix:
    def test_deterministic_and_distinct(self):
        seeds = [split_mix(42, i) for i in range(100)]
        assert seeds == [split_mix(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_independent_of_order(self):
        assert split_mix(7, 3) == split_mix(7, 3)
        assert split_mix(7, 3) != split_mix(3, 7)


class TestBaggingTrain:
    def test_single_member_equals_member(self):
        ds = blobs()
        ens = bagging_train(ds, EnsembleConfig(members=1, base=base_cfg(), master_seed=5))
        votes, _ = ens.predict_dataset(ds)
        member, _ = ens.members[0]
        assert votes == member.predict_dataset(ds)[0]

    def test_deterministic_given_master_seed(self):
        ds = blobs()
        cfg = EnsembleConfig(members=3, base=base_cfg(), master_seed=11)
        a = bagging_train(ds, cfg)
        b = bagging_train(ds, cfg)
        for (m1, s1), (m2, s2) in zip(a.members, b.members):
            assert s1 == s2
            for x1, x2 in zip(m1.machines, m2.machines):
                assert np.array_equal(x1.alphas, x2.alphas)

    def test_members_are_prefix_stable(self):
        # member i only depends on (master_seed, i), so growing the
        # ensemble never changes existing members
        ds = blobs()
        small = bagging_train(ds, EnsembleConfig(members=2, base=base_cfg(), master_seed=3))
        big = bagging_train(ds, EnsembleConfig(members=4, base=base_cfg(), master_seed=3))
        for (m1, s1), (m2, s2) in zip(small.members, big.members):
            assert s1 == s2
            assert np.array_equal(m1.machines[0].alphas, m2.machines[0].alphas)

    def test_prefix_equals_fresh_ensemble(self, tmp_path):
        ds = blobs(seed=4)
        big = bagging_train(ds, EnsembleConfig(members=4, base=base_cfg(), master_seed=8))
        for m in range(1, 5):
            fresh = bagging_train(ds, EnsembleConfig(members=m, base=base_cfg(), master_seed=8))
            prefix = big.prefix(m)
            for (p_model, p_seed), (f_model, f_seed) in zip(prefix.members, fresh.members):
                assert model_to_lines(p_model) == model_to_lines(f_model)
                assert p_seed == f_seed
            save_ensemble(prefix, tmp_path / "prefix.txt")
            save_ensemble(fresh, tmp_path / "fresh.txt")
            assert (tmp_path / "prefix.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()
            assert prefix.predict_dataset(ds) == fresh.predict_dataset(ds)

    def test_prefix_out_of_range(self):
        ens = bagging_train(blobs(), EnsembleConfig(members=2, base=base_cfg(), master_seed=1))
        for m in (0, 3):
            with pytest.raises(DataError):
                ens.prefix(m)

    def test_priors_sum_to_one(self):
        ds = blobs()
        ens = bagging_train(ds, EnsembleConfig(members=2, base=base_cfg(), master_seed=1))
        assert abs(ens.class_priors.sum() - 1.0) < 1e-12


def label_ensemble(label_rows, classes=("N", "P", "S"), priors=(0.7, 0.1, 0.2)):
    """An ensemble whose member i predicts label_rows[i][r] on unit row r."""
    members = [(labelling_model(labels, classes), i) for i, labels in enumerate(label_rows)]
    return EnsembleModel(members, tuple(classes), np.array(priors), master_seed=0)


def codes_of(ens, label_rows) -> np.ndarray:
    """The (rows, members) class-index matrix of one label list per member."""
    return np.array([[ens.classes.index(lab) for lab in labels] for labels in label_rows]).T


def vote_one_row(labels, **kw):
    """The ensemble vote on one row whose members emit `labels`."""
    rows = [[lab] for lab in labels]
    ens = label_ensemble(rows, **kw)
    return ens.classes[ens.vote_codes(codes_of(ens, rows))[0][0]]


class TestVoting:
    def test_simple_majority(self):
        assert vote_one_row(["N", "N", "S"]) == "N"

    def test_tie_breaks_to_larger_prior(self):
        assert vote_one_row(["N", "S"]) == "N"
        assert vote_one_row(["S", "P"]) == "S"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            label_ensemble([["N"], ["S"]]).vote_codes(np.zeros((0, 0), dtype=int))

    def test_single_row_vote_is_predict_dataset(self):
        # rows 0 and 2 tie 2 to 2
        rows = [["hi", "hi", "lo", "lo"], ["hi", "lo", "lo", "lo"], ["hi", "lo", "lo", "hi"]]
        members = [list(col) for col in zip(*rows)]
        ens = label_ensemble(members, classes=("hi", "lo"), priors=(0.4, 0.6))
        ds = unit_rows(["hi", "lo", "hi"])
        labels, stats = ens.predict_dataset(ds)
        assert stats["vote_ties"] >= 1
        assert [ens.predict_values(row) for row in ds.feature_matrix()] == labels

    def test_identical_members_reproduce_single_model(self):
        ds = unit_rows(["lo"] * 4 + ["hi"] * 4)
        preds = ["lo"] * 4 + ["hi"] * 4
        ens = label_ensemble([preds, preds, preds], classes=("hi", "lo"), priors=(0.5, 0.5))
        votes, stats = ens.predict_dataset(ds)
        assert votes == preds
        assert stats["vote_ties"] == 0

    def test_vote_codes_is_predict_dataset(self):
        ds = unit_rows(["lo", "lo", "hi", "hi"])
        rows = [["lo", "hi", "hi", "lo"], ["lo", "lo", "hi", "hi"], ["hi", "lo", "lo", "hi"]]
        ens = label_ensemble(rows, classes=("hi", "lo"), priors=(0.4, 0.6))
        labels, stats = ens.predict_dataset(ds)
        codes = codes_of(ens, rows)
        assert np.array_equal(ens.member_predictions(ds), codes)
        winners, ties = ens.vote_codes(codes)
        assert ([ens.classes[c] for c in winners], ties) == (labels, stats["vote_ties"])
        with pytest.raises(DataError):
            ens.vote_codes(codes[:, :2])

    def test_vote_invariant_to_member_order(self):
        ds = unit_rows(["lo", "lo", "hi", "hi"])
        rows = [["lo", "lo", "hi", "hi"], ["lo", "hi", "hi", "lo"], ["hi", "lo", "hi", "hi"]]
        a, _ = label_ensemble(rows, classes=("hi", "lo"), priors=(0.5, 0.5)).predict_dataset(ds)
        b, _ = label_ensemble(rows[::-1], classes=("hi", "lo"), priors=(0.5, 0.5)).predict_dataset(ds)
        assert a == b


class TestAgreement:
    def test_identical_members(self):
        ds = unit_rows(["lo", "lo", "hi", "hi"])
        preds = ["lo", "lo", "hi", "hi"]
        ens = label_ensemble([preds, preds], classes=("hi", "lo"), priors=(0.5, 0.5))
        assert agreement(ens.member_predictions(ds)) == 1.0

    def test_one_of_four_disagrees(self):
        ds = unit_rows(["lo", "lo", "hi", "hi"])
        ens = label_ensemble(
            [["lo", "lo", "hi", "hi"], ["lo", "lo", "hi", "lo"]],
            classes=("hi", "lo"),
            priors=(0.5, 0.5),
        )
        assert agreement(ens.member_predictions(ds)) == 0.75

    def test_needs_two_members(self):
        ds = unit_rows(["lo", "lo", "hi", "hi"])
        ens = label_ensemble([["lo", "lo", "hi", "hi"]], classes=("hi", "lo"), priors=(0.5, 0.5))
        with pytest.raises(DataError):
            agreement(ens.member_predictions(ds))

    def test_agreement_of_code_matrix(self):
        codes = np.array([[0, 0, 1, 1], [0, 0, 1, 0], [0, 1, 1, 0]]).T
        assert agreement(codes) == 0.5
        assert agreement(codes[:, :2]) == 0.75
        with pytest.raises(DataError):
            agreement(codes[:, :1])


def overlapping3(n_per=25, seed=3):
    rng = np.random.default_rng(seed)
    centers = ((0.0, 0.0), (1.5, 0.0), (0.0, 1.5))
    rows = np.vstack([rng.normal(c, 0.8, (n_per, 2)) for c in centers])
    return numeric_dataset(rows, [lab for lab in "abc" for _ in range(n_per)])


class TestStackedPrediction:
    def test_matches_per_machine_reference(self):
        ds = overlapping3()
        ens = bagging_train(
            ds, EnsembleConfig(members=4, base=base_cfg(), master_seed=7), standardizer=fit_standardizer(ds)
        )
        machines = [mach for m, _ in ens.members for mach in m.machines]
        # a bootstrap row held twice by one machine: its weights are summed
        assert any(len(np.unique(m.support_vectors, axis=0)) < len(m.alphas) for m in machines)
        feats = ds.feature_matrix()
        X = ens.members[0][0]._prepare(feats)
        want = np.column_stack([decision_values(m, X) for m in machines])
        got = ens._stack.decisions(X)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want).max(axis=0))
        per_member = [[ens.classes[c] for c in column] for column in ens.member_predictions(ds).T.tolist()]
        assert per_member == [ovo_predict(m, feats)[0] for m, _ in ens.members]
        assert per_member == [m.predict_dataset(ds)[0] for m, _ in ens.members]
        assert [ens.predict_values(row) for row in feats] == ens.predict_dataset(ds)[0]

    def test_stack_built_once_on_first_prediction(self, tmp_path):
        ds = blobs()
        save_ensemble(bagging_train(ds, EnsembleConfig(members=2, base=base_cfg(), master_seed=1)), tmp_path / "e.txt")
        ens = load_ensemble(tmp_path / "e.txt")
        assert "_stack" not in vars(ens)  # loading builds nothing
        ens.predict_dataset(ds)
        stack = vars(ens)["_stack"]
        ens.predict_values(ds.feature_matrix()[0])
        assert ens._stack is stack

    def test_no_member_keeps_a_stack(self, tmp_path):
        """The ensemble stacks its members' machines itself, so no member
        holds a stack of its own after training, loading or predicting."""
        ds = blobs()
        ens = bagging_train(ds, EnsembleConfig(members=3, base=base_cfg(), master_seed=5))
        save_ensemble(ens, tmp_path / "e.txt")
        loaded = load_ensemble(tmp_path / "e.txt")
        for model in (ens, loaded):
            model.predict_dataset(ds)
            assert not any("_stack" in vars(m) for m, _ in model.members)

    def test_one_row_narrower_than_the_mask_is_data_error(self):
        rng = np.random.default_rng(2)
        ds = numeric_dataset(np.column_stack([rng.normal(size=(24, 2)), blobs().feature_matrix()]),
                             ["lo"] * 12 + ["hi"] * 12)
        ens = bagging_train(ds, EnsembleConfig(members=3, base=base_cfg(), master_seed=3), feature_mask=[2, 3])
        for predict in (ens.predict_values, ens.members[0][0].predict_values):
            with pytest.raises(DataError, match="feature width 2: the model was trained on 4 features"):
                predict([1.0, 2.0])
            assert predict([0.0, 0.0, 5.0, 5.0]) == "hi"
            # a wider row is refused by the width the model records
            with pytest.raises(DataError, match="feature width 5: the model was trained on 4 features"):
                predict([0.0, 0.0, 5.0, 5.0, 9.0])

    def test_one_row_of_the_wrong_width_without_a_mask_is_data_error(self):
        ds = blobs()
        ens = bagging_train(ds, EnsembleConfig(members=2, base=base_cfg(), master_seed=3),
                            standardizer=fit_standardizer(ds))
        for row in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(DataError, match=f"feature width {len(row)}: the model was trained on 2 features"):
                ens.predict_values(row)

    @pytest.mark.parametrize("mask", [None, [2, 3]], ids=["keep-all", "masked"])
    def test_extra_trailing_column_is_data_error(self, mask):
        """One more column than the training table is refused, one row or a
        table at a time, by a model and by an ensemble, whether or not the
        model reads every column."""
        rng = np.random.default_rng(2)
        labels = ["lo"] * 12 + ["hi"] * 12
        feats = np.column_stack([rng.normal(size=(24, 2)), blobs().feature_matrix()])
        ds = numeric_dataset(feats, labels)
        wider = numeric_dataset(np.column_stack([feats, np.zeros(24)]), labels)
        ens = bagging_train(ds, EnsembleConfig(members=3, base=base_cfg(), master_seed=3), feature_mask=mask)
        for model in (ens, ens.members[0][0]):
            assert model.predict_dataset(ds)[0] == [model.predict_values(row) for row in feats]
            with pytest.raises(DataError, match="feature width 5: the model was trained on 4 features"):
                model.predict_values(wider.feature_matrix()[0])
            with pytest.raises(DataError, match="feature width 5: the model was trained on 4 features"):
                model.predict_dataset(wider)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_data_error(self, ctg_table, value):
        """A NaN or infinite value in a column the model reads names that
        column, through a model and through an ensemble, one row or many."""
        from ctgsvm.experiments import ExperimentConfig, build_pipeline

        _, path, _ = ctg_table
        pipe = build_pipeline(ExperimentConfig(data=path, seed=42, quick=True))
        std = fit_standardizer(pipe.train)
        ens = bagging_train(pipe.train, EnsembleConfig(members=3, base=base_cfg(), master_seed=42), standardizer=std)
        feats = pipe.work.feature_matrix().copy()
        feats[0, 2] = value
        model = ens.members[0][0]
        for predict in (model.predict_values, ens.predict_values):
            with pytest.raises(DataError, match="prediction column 3 holds a non-finite value"):
                predict(feats[0])
            predict(feats[1])
        with pytest.raises(DataError, match="prediction column 3 holds a non-finite value"):
            model.predict_matrix(feats)

    def test_non_finite_value_under_a_mask_names_the_table_column(self):
        rng = np.random.default_rng(2)
        ds = numeric_dataset(np.column_stack([rng.normal(size=(24, 2)), blobs().feature_matrix()]),
                             ["lo"] * 12 + ["hi"] * 12)
        ens = bagging_train(ds, EnsembleConfig(members=3, base=base_cfg(), master_seed=3), feature_mask=[2, 3])
        for predict in (ens.predict_values, ens.members[0][0].predict_values):
            with pytest.raises(DataError, match="prediction column 4 holds a non-finite value"):
                predict([0.0, 0.0, 5.0, np.nan])
            assert predict([np.nan, 0.0, 5.0, 5.0]) == "hi"  # a column the model does not read

    @pytest.mark.parametrize(
        "values", [np.zeros((2, 2)), np.zeros((1, 2)), 1.0], ids=["two-rows", "one-row-matrix", "scalar"]
    )
    def test_predict_values_takes_one_row(self, values):
        ds = blobs()
        ens = bagging_train(ds, EnsembleConfig(members=2, base=base_cfg(), master_seed=3))
        for predict in (ens.predict_values, ens.members[0][0].predict_values):
            with pytest.raises(DataError, match="one row of values"):
                predict(values)

    def test_members_must_agree(self):
        ds = blobs()
        cfg = EnsembleConfig(members=1, base=base_cfg(), master_seed=1)
        a = bagging_train(ds, cfg).members[0]
        b = bagging_train(ds, replace(cfg, base=base_cfg(degree=3))).members[0]
        priors = np.array([0.5, 0.5])
        with pytest.raises(DataError, match="ensemble member 2: kernel"):
            EnsembleModel([a, b], ds.class_labels, priors, 1)
        # members that read the same columns of tables of two widths, or
        # other columns of one width
        model, seed = a
        wide = replace(model, width=3)
        for first, second in ((model, wide), (wide, replace(wide, feature_mask=(1, 2)))):
            with pytest.raises(DataError, match="ensemble member 2: feature mask differs from member 1's"):
                EnsembleModel([(first, seed), (second, seed)], ds.class_labels, priors, 1)
        with pytest.raises(DataError, match="at least one member"):
            EnsembleModel([], ds.class_labels, priors, 1)


class TestEnsemblePersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = blobs()
        ens = bagging_train(ds, EnsembleConfig(members=3, base=base_cfg(), master_seed=21))
        path = tmp_path / "ens.txt"
        save_ensemble(ens, path)
        loaded = load_ensemble(path)
        assert loaded.predict_dataset(ds)[0] == ens.predict_dataset(ds)[0]
        assert loaded.master_seed == 21
        for (m1, s1), (m2, s2) in zip(ens.members, loaded.members):
            assert s1 == s2
            assert np.array_equal(m1.machines[0].alphas, m2.machines[0].alphas)

    def test_not_an_ensemble_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("nothing\n")
        with pytest.raises(DataError):
            load_ensemble(path)


class TestCorruptEnsembleFile:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        ds = blobs()
        ens = bagging_train(
            ds, EnsembleConfig(members=3, base=base_cfg(), master_seed=21), standardizer=fit_standardizer(ds)
        )
        path = tmp_path_factory.mktemp("ens") / "ens.txt"
        save_ensemble(ens, path)
        return path.read_text().splitlines()

    def load_lines(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("".join(ln + "\n" for ln in lines))
        return load_ensemble(path)

    def test_every_truncation_rejected(self, saved, tmp_path):
        for n in range(len(saved)):
            with pytest.raises(DataError):
                self.load_lines(tmp_path, saved[:n])

    def test_truncated_mid_line_rejected(self, saved, tmp_path):
        sv = next(i for i, ln in enumerate(saved) if ln.startswith("sv\t"))
        cut = saved[sv].rsplit("\t", 1)[0]
        with pytest.raises(DataError):
            self.load_lines(tmp_path, saved[:sv] + [cut] + saved[sv + 1:])

    @pytest.mark.parametrize("prefix", ["priors\t", "member\t", "machine\t", "sv\t", "feat\t"])
    def test_corrupt_float_rejected(self, saved, tmp_path, prefix):
        i = next(i for i, ln in enumerate(saved) if ln.startswith(prefix))
        parts = saved[i].split("\t")
        parts[-1] = "0x1.zzp+2"
        with pytest.raises(DataError, match="malformed"):
            self.load_lines(tmp_path, saved[:i] + ["\t".join(parts)] + saved[i + 1:])

    def test_trailing_garbage_rejected(self, saved, tmp_path):
        with pytest.raises(DataError, match="trailing"):
            self.load_lines(tmp_path, saved + ["junk"])

    def test_bad_manifest_rejected(self, saved, tmp_path):
        for manifest in ("manifest\t0\t21", "manifest\t3\t21\tunweighted_majority", "manifest\t3"):
            with pytest.raises(DataError):
                self.load_lines(tmp_path, saved[:1] + [manifest] + saved[2:])

    @pytest.mark.parametrize(
        "prefix, field, value",
        [("priors", 1, "nan"), ("priors", 2, "inf"), ("priors", 1, "-0x1p+0"), ("priors", 2, "0x1.8p+0")],
        ids=["prior-nan", "prior-inf", "prior-negative", "prior-above-1"],
    )
    def test_share_out_of_range_rejected(self, saved, tmp_path, prefix, field, value):
        """Priors are shares: finite and in [0, 1]."""
        i = next(i for i, ln in enumerate(saved) if ln.startswith(prefix + "\t"))
        parts = saved[i].split("\t")
        parts[field] = value
        with pytest.raises(DataError, match=f"malformed ensemble file: .* at line {i + 1}$"):
            self.load_lines(tmp_path, saved[:i] + ["\t".join(parts)] + saved[i + 1:])

    def test_intact_file_loads(self, saved, tmp_path):
        assert len(self.load_lines(tmp_path, saved).members) == 3


def test_config_validation():
    with pytest.raises(DataError):
        EnsembleConfig(members=0, base=base_cfg(), master_seed=1)
    with pytest.raises(DataError):
        EnsembleConfig(members=1, base=base_cfg(), master_seed=-1)
