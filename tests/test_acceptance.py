"""Acceptance gate: the banded end-to-end criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -s). The heavyweight
criteria run against the CSV in CTG_CSV when that variable is set, and the
bundled synthetic stand-in otherwise; the data source is announced so runs
are auditable.
"""
import gc
import hashlib
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from ctgsvm.bagging import EnsembleConfig, agreement, bagging_train, bootstrap_sample
from ctgsvm.data import fit_standardizer, select_features
from ctgsvm.experiments import (
    ExperimentConfig,
    build_pipeline,
    cmd_experiment,
    exp4_feature_set,
    run_exp4,
)
from ctgsvm.report import fmt_accuracy, timed
from ctgsvm.search import GeneticConfig, SubsetEvaluator, best_first, genetic_search
from ctgsvm.svm import (
    KernelSpec,
    SvmConfig,
    kernel_matrix,
    pairwise_problems,
    smo_train,
    train_from_problems,
)
from conftest import numeric_dataset
from oracles import decision_values, dual_objective, exhaustive_best, ovo_predict, qp_bias, qp_reference
from test_filters import assert_scores_match_brute, random_small_dataset
from test_svm import qp_fixtures

SEED = 42


def announce(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def pipe(ctg_table):
    ds, path, is_real = ctg_table
    print(f"\nacceptance data source: {'real CSV' if is_real else 'synthetic stand-in'} ({path})")
    cfg = ExperimentConfig(data=path, seed=SEED)
    return build_pipeline(cfg)


@pytest.fixture(scope="module")
def grid_models(pipe):
    """All Table-style grid cells, trained once and shared across criteria."""
    std = fit_standardizer(pipe.train)
    problems = pairwise_problems(pipe.train, None, std)
    t0 = time.perf_counter()
    cells = {}
    for degree in pipe.cfg.degree_grid:
        for C in pipe.cfg.c_grid:
            model = train_from_problems(problems, pipe.cfg.svm(C, degree))
            cells[(C, degree)] = (model, pipe.accuracies(model))
    return cells, time.perf_counter() - t0


def test_stacked_prediction_matches_per_machine_reference(pipe, grid_models):
    """On every exp1 grid model, the one kernel product over the distinct
    support rows gives each machine's decisions within 1e-9 of its largest
    |decision|, the same labels and ties as voting machine by machine, and
    single-row labels equal to the batch labels."""
    cells, _ = grid_models
    feats = pipe.work.feature_matrix()
    for model, _ in cells.values():
        X = model._prepare(feats)
        want = np.column_stack([decision_values(m, X) for m in model.machines])
        got = model._stack.decisions(X)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want).max(axis=0))
        labels, stats = model.predict_matrix(feats)
        assert (labels, stats["vote_ties"]) == ovo_predict(model, feats)
    model, _ = cells[(10.0, 3)]
    assert [model.predict_values(row) for row in feats] == model.predict_dataset(pipe.work)[0]


def test_criterion_1_filter_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260811)
    n_fixtures = 24
    for _ in range(n_fixtures):
        assert_scores_match_brute(random_small_dataset(rng), tol=1e-9)
    took = time.perf_counter() - t0
    announce(
        1,
        took < 5.0,
        f"5 filter scores match brute force on {n_fixtures} fixtures within 1e-9 ({took:.2f}s < 5s)",
    )


def test_criterion_2_solver_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for X, y, C, spec in qp_fixtures():
        K = kernel_matrix(X, X, spec)
        a_ref, obj_ref = qp_reference(K, y, C)
        m = smo_train(X, y, SvmConfig(C=C, kernel=spec))
        gap = abs(dual_objective(m) - obj_ref)
        worst = max(worst, gap)
        assert gap <= 1e-6
        d_ref = K @ (a_ref * y) + qp_bias(K, y, C, a_ref)
        assert np.array_equal(d_ref >= 0, decision_values(m, X) >= 0)
        count += 1
    # the two named cases
    m = smo_train(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]),
                  SvmConfig(C=10.0, kernel=KernelSpec(degree=1, coef0=0.0)))
    assert m.alphas.tolist() == [0.5, 0.5] and m.bias == 0.0
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    y = np.array([1.0, -1.0, -1.0, 1.0])
    xor = smo_train(X, y, SvmConfig(C=1e6, kernel=KernelSpec(degree=2, coef0=1.0)))
    assert np.all(np.sign(decision_values(xor, X)) == y)
    took = time.perf_counter() - t0
    announce(
        2,
        took < 10.0,
        f"dual objective within 1e-6 of the QP reference on {count} fixtures, "
        f"worst gap {worst:.2e}, analytic and XOR cases exact ({took:.2f}s < 10s)",
    )


def test_criterion_3_search_correctness():
    t0 = time.perf_counter()

    def fixture_evals():
        target6 = {1, 3, 4}
        yield 6, lambda s: -len(s ^ target6) if s else -99.0
        good = {2, 5}
        yield 8, lambda s: len(s & good) - 0.1 * len(s - good)
        w = [0.3, -0.2, 0.8, 0.05, -0.5, 0.4, 0.15]

        def interacting(s):
            v = sum(w[i] for i in s)
            if 2 in s and 5 in s:
                v += 0.3
            if 0 in s and 1 in s:
                v -= 0.2
            return v

        yield 7, interacting
        weights = [0.9, 0.1, 0.55, 0.7, 0.2]
        yield 5, lambda s: sum(weights[i] for i in s) - 0.15 * len(s) ** 1.5

    checked = 0
    for n, fn in fixture_evals():
        best, _ = exhaustive_best(fn, n)
        bf_eval = SubsetEvaluator(fn)
        bf = best_first(bf_eval, n)
        assert bf.subset == best, f"best_first missed the optimum on n={n}"
        assert bf_eval.calls <= 5 * n * (n + 1)
        ga_eval = SubsetEvaluator(fn)
        ga = genetic_search(ga_eval, n, GeneticConfig(seed=7))
        assert ga.subset == best, f"genetic missed the optimum on n={n}"
        assert ga_eval.calls <= 20 * 21
        checked += 1
    took = time.perf_counter() - t0
    announce(
        3,
        took < 10.0,
        f"both searches recover the exhaustive optimum on {checked} fixtures "
        f"within their evaluation budgets ({took:.2f}s < 10s)",
    )


@pytest.fixture(scope="module")
def baseline_run(pipe):
    t0 = time.perf_counter()
    model, _ = pipe.fit_svm(None, 10.0, 3)
    acc = pipe.accuracies(model)
    return model, acc, time.perf_counter() - t0


def test_criterion_4_baseline_band(baseline_run):
    model, acc, took = baseline_run
    ok = acc["combined"] >= 97.9 and acc["test"] >= 96.5 and took < 60.0
    announce(
        4,
        ok,
        f"single SVM C=10 degree=3: combined {acc['combined']:.2f}% >= 97.9, "
        f"test {acc['test']:.2f}% >= 96.5 ({took:.1f}s < 60s)",
    )


def test_criterion_5_grid_plateau(grid_models):
    cells, took = grid_models
    worst_cell, worst = min(
        ((key, acc["combined"]) for key, (_, acc) in cells.items()), key=lambda kv: kv[1]
    )
    ok = worst >= 97.0 and took < 900.0
    announce(
        5,
        ok,
        f"all {len(cells)} grid cells reach combined accuracy >= 97.0 "
        f"(worst {worst:.2f}% at C={worst_cell[0]:g}, degree={worst_cell[1]}; {took:.0f}s < 900s)",
    )


def test_criterion_6_feature_selection_effect(pipe, baseline_run):
    _, base_acc, _ = baseline_run
    base = base_acc["combined"]
    exact = []
    for code in ("FS3", "FS4"):
        sel = pipe.selection(code, "ranker")
        assert sel.selected == frozenset(range(pipe.train.n_features))  # keep-all
        model, _ = pipe.fit_svm(frozenset(sel.selected), 10.0, 3)
        acc = pipe.accuracies(model)["combined"]
        exact.append(acc == base)
    deltas = {}
    for code in ("FS1", "FS2"):
        for search in ("best_first", "genetic"):
            sel = pipe.selection(code, search)
            model, _ = pipe.fit_svm(frozenset(sel.selected), 10.0, 3)
            deltas[f"{code}-{search}"] = base - pipe.accuracies(model)["combined"]
    worst = max(deltas.values())
    ok = all(exact) and worst <= 3.5
    announce(
        6,
        ok,
        f"keep-all rankers reproduce the baseline exactly ({exact}), subset runs "
        f"stay within 3.5 points (worst drop {worst:.2f})",
    )


@pytest.fixture(scope="module")
def ensemble_sweep(pipe):
    """The member sweep once, shared by the uplift and trend checks: one
    10-member ensemble, each member predicted once, and every m-member
    ensemble taken as its prefix (member i depends only on (master_seed, i))."""
    t0 = time.perf_counter()
    feats = exp4_feature_set(pipe)
    C, degree = pipe.cfg.exp4_c, pipe.cfg.exp4_degree
    single, _ = pipe.fit_svm(feats, C, degree)
    single_acc = pipe.accuracies(single)["combined"]
    ens, _, _ = pipe.ensemble(feats, C, degree, 10)
    codes = {
        tag: ens.member_predictions(ds) for tag, ds in (("train", pipe.train), ("test", pipe.test), ("work", pipe.work))
    }

    def labels(winners):
        return [ens.classes[c] for c in winners]

    member_accs = [
        pipe.label_accuracies(labels(train), labels(test))["combined"]
        for train, test in zip(codes["train"].T.tolist(), codes["test"].T.tolist())
    ]
    voting, agreement_of = {}, {}
    for m in range(1, 11):
        prefix = ens.prefix(m)
        train, test = (labels(prefix.vote_codes(codes[tag][:, :m])[0]) for tag in ("train", "test"))
        voting[m] = pipe.label_accuracies(train, test)["combined"]
        if m >= 2:
            agreement_of[m] = agreement(codes["work"][:, :m])
    took = time.perf_counter() - t0
    return {
        "ensemble": ens,
        "voting": voting,
        "agreement": agreement_of,
        "member_accs": member_accs,
        "single_acc": single_acc,
        "took": took,
    }


def test_criterion_7_ensemble_uplift(ensemble_sweep):
    voting = ensemble_sweep["voting"]
    member_accs = ensemble_sweep["member_accs"]
    single_acc = ensemble_sweep["single_acc"]
    took = ensemble_sweep["took"]
    seven_ok = all(voting[7] >= a for a in member_accs[:7])
    uplift_ok = max(voting.values()) >= single_acc
    ok = seven_ok and uplift_ok and took < 600.0
    announce(
        7,
        ok,
        f"7-member voting {voting[7]:.2f}% >= every member (max member "
        f"{max(member_accs[:7]):.2f}%), best voting {max(voting.values()):.2f}% >= "
        f"single {single_acc:.2f}% ({took:.0f}s < 600s)",
    )


def test_voting_never_below_worst_member(ensemble_sweep):
    voting = ensemble_sweep["voting"]
    member_accs = ensemble_sweep["member_accs"]
    for m in range(1, 11):
        assert voting[m] >= min(member_accs[:m]) - 1e-9


def test_ensemble_training_time_grows_with_members(ctg_table):
    """Separate trainings of 1..10 members on the quick pipeline's training
    partition. Their work, the members' summed SMO updates, rises with the
    member count exactly. Their CPU seconds, unlike wall seconds, ignore a
    busy machine, but not a machine whose speed changes: a 2-core VM can
    run 1.6 times slower for seconds at a time, so the least of a few
    repeats per member count can still come from different speeds. The
    trainings therefore run in five rounds over the member counts, and each
    count is compared with the one trained just before it in the same round,
    at the same speed; the median of the five ratios must exceed 0.8."""
    _, path, _ = ctg_table
    quick = build_pipeline(ExperimentConfig(data=path, seed=SEED, quick=True))
    mask = sorted(exp4_feature_set(quick))
    std = fit_standardizer(select_features(quick.train, mask))
    base = quick.cfg.svm(quick.cfg.exp4_c, quick.cfg.exp4_degree)
    cpu = {m: [] for m in range(1, 11)}
    updates = {}
    for _ in range(5):
        for m in cpu:
            ens_cfg = EnsembleConfig(members=m, base=base, master_seed=SEED)
            gc.collect()  # so that no collection of earlier garbage lands inside a timing
            ens, (_, secs) = timed(lambda: bagging_train(quick.train, ens_cfg, feature_mask=mask, standardizer=std))
            cpu[m].append(secs)
            updates[m] = sum(mc.n_updates for model, _, _ in ens.members for mc in model.machines)
    for m in range(2, 11):
        assert updates[m] > updates[m - 1], f"{m} members made {updates[m]} SMO updates, {m-1} made {updates[m-1]}"
        ratio = statistics.median(now / before for now, before in zip(cpu[m], cpu[m - 1]))
        assert ratio > 0.8, (
            f"training {m} members took {ratio:.2f} times the CPU s of {m-1}: "
            f"{' '.join(f'{t:.3f}' for t in cpu[m])} vs {' '.join(f'{t:.3f}' for t in cpu[m - 1])}"
        )


def test_agreement_never_rises_with_members(ensemble_sweep):
    agreement = ensemble_sweep["agreement"]
    for m in range(3, 11):
        assert agreement[m] <= agreement[m - 1] + 1e-9


def _run_all(csv_path, out_dir):
    cfg = ExperimentConfig(data=csv_path, seed=SEED, quick=True, out_dir=str(out_dir))
    cmd_experiment("all", cfg, log=lambda *a: None)
    sums = {}
    for f in sorted(Path(out_dir).glob("*.csv")):
        if "timing" in f.name:
            continue
        sums[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return sums


@pytest.fixture(scope="module")
def quick_runs(ctg_table, tmp_path_factory):
    _, path, _ = ctg_table
    base = tmp_path_factory.mktemp("quickruns")
    a = _run_all(path, base / "a")
    b = _run_all(path, base / "b")
    return a, b, base / "a"


def test_criterion_8_determinism(quick_runs):
    a, b, _ = quick_runs
    ok = a == b and len(a) >= 9
    announce(
        8,
        ok,
        f"double run of exp1..exp5 (quick mode) produced byte-identical outputs "
        f"({len(a)} result files checksum-compared; timings sidecared)",
    )


GOLDEN = Path(__file__).with_name("golden_quick_seed42.sha256")


def test_results_match_golden_manifest(ctg_table, quick_runs):
    """The quick `all` run reproduces the committed SHA-256 of every
    result file, so a refactor that claims unchanged outputs is checked
    against the code that wrote the manifest, not only against itself."""
    _, _, is_real = ctg_table
    if is_real:
        pytest.skip("the manifest is of the bundled synthetic table, not of CTG_CSV")
    text = GOLDEN.read_text(encoding="utf-8")
    entries = (ln.split() for ln in text.splitlines() if ln and not ln.startswith("#"))
    want = {name: digest for digest, name in entries}
    a, _, _ = quick_runs
    made_with = next(ln for ln in text.splitlines() if ln.startswith("# numpy"))
    assert a == want, f"manifest made with {made_with[2:]}, running numpy {np.__version__}"


SOLVER_PATH = Path(__file__).with_name("solver_path_seed42.txt")


def solver_path_lines(grid_models, ensemble_sweep) -> list[str]:
    """One line per binary machine of the grid and of the bagged members:
    where it was trained, its class pair, SMO updates and support vectors."""
    cells, _ = grid_models
    machines = [
        (f"grid C={C:g} degree={degree}", model) for (C, degree), (model, _) in cells.items()
    ] + [(f"member {i}", model) for i, (model, _, _) in enumerate(ensemble_sweep["ensemble"].members)]
    return [
        f"{where} pair={ci}-{cj} updates={m.n_updates} sv={len(m.alphas)}"
        for where, model in machines
        for (ci, cj), m in zip(model.pairs, model.machines)
    ]


def test_solver_path_matches_pin(ctg_table, grid_models, ensemble_sweep):
    """Every machine takes the pinned number of SMO updates to the pinned
    support-set size. The result files can stay identical while the
    solver's path changes; this catches that."""
    _, _, is_real = ctg_table
    if is_real:
        pytest.skip("the pin is of the bundled synthetic table, not of CTG_CSV")
    text = SOLVER_PATH.read_text(encoding="utf-8")
    want = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    made_with = next(ln for ln in text.splitlines() if ln.startswith("# numpy"))
    got = solver_path_lines(grid_models, ensemble_sweep)
    assert len(got) == 120
    assert got == want, f"pin made with {made_with[2:]}, running numpy {np.__version__}"


def _csv_rows(path):
    import csv

    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_summary_rows_consistent_with_detail_files(quick_runs):
    """Every number exp5 reports also appears in the experiment that owns it."""
    _, _, out = quick_runs
    summary = {r["model"]: r for r in _csv_rows(out / f"exp5_summary_seed{SEED}.csv")}

    grid = _csv_rows(out / f"exp1_grid_seed{SEED}.csv")
    cell = next(r for r in grid if r["C"] == "10" and r["degree"] == "3")
    assert cell["combined_accuracy"] == summary["SVM"]["combined_accuracy"]

    exp2 = _csv_rows(out / f"exp2_results_seed{SEED}.csv")
    for summary_name, detail_name in (
        ("FS1-SVM", "FS1-genetic"),
        ("FS2-SVM", "FS2-genetic"),
        ("FS3-SVM", "FS3-ranker"),
        ("FS4-SVM", "FS4-ranker"),
    ):
        row = next(
            r for r in exp2 if r["model"] == detail_name and r["C"] == "10" and r["degree"] == "3"
        )
        assert row["combined_accuracy"] == summary[summary_name]["combined_accuracy"]

    exp3 = _csv_rows(out / f"exp3_results_seed{SEED}.csv")
    efs = next(
        r
        for r in exp3
        if r["label"] == "EFS14"
        and r["mode"] == "union"
        and r["cutoff"].startswith("top_k")
        and r["C"] == "1000"
        and r["degree"] == "4"
    )
    assert efs["combined_accuracy"] == summary["EFS41-SVM"]["combined_accuracy"]

    exp4 = _csv_rows(out / f"exp4_sweep_seed{SEED}.csv")
    seven = next(r for r in exp4 if r["members"] == "7")
    assert seven["voting_combined"] == summary["EFS41-ESVM"]["combined_accuracy"]


def test_exp4_sweep_matches_naive_recomputation(ctg_table, tmp_path):
    """exp4 votes over prefixes of one memoized ensemble and predicts each
    member once; every sweep row must equal the row of an ensemble trained
    afresh with that many members and evaluated the plain way."""
    _, path, _ = ctg_table
    members = 4
    cfg = ExperimentConfig(data=path, seed=SEED, quick=True, exp4_members=members, out_dir=str(tmp_path))
    memo_pipe = build_pipeline(cfg)
    run_exp4(memo_pipe)
    got = _csv_rows(tmp_path / f"exp4_sweep_seed{SEED}.csv")
    assert [r["members"] for r in got] == [str(m) for m in range(1, members + 1)]

    pipe = build_pipeline(cfg)
    feats = exp4_feature_set(pipe)
    mask = sorted(feats)
    std = fit_standardizer(select_features(pipe.train, mask))
    base = cfg.svm(cfg.exp4_c, cfg.exp4_degree)
    for m, row in enumerate(got, start=1):
        ens = bagging_train(
            pipe.train,
            EnsembleConfig(members=m, base=base, master_seed=SEED, vote=cfg.vote),
            feature_mask=mask,
            standardizer=std,
        )
        acc = pipe.accuracies(ens)
        want = {"members": str(m)}
        for i in range(1, members + 1):
            want[f"member_{i}_accuracy"] = (
                fmt_accuracy(pipe.accuracies(ens.members[i - 1][0])["combined"]) if i <= m else ""
            )
        want.update(
            voting_train=fmt_accuracy(acc["train"]),
            voting_test=fmt_accuracy(acc["test"]),
            voting_combined=fmt_accuracy(acc["combined"]),
            agreement=fmt_accuracy(100.0 * agreement(ens.member_predictions(pipe.work))) if m >= 2 else "",
            flags="" if ens.converged else "non_converged",
        )
        assert row == want, f"sweep row {m}"

    # the memo answers a smaller request with a prefix, without training
    small, trained, _ = memo_pipe.ensemble(feats, cfg.exp4_c, cfg.exp4_degree, 2)
    full, _, _ = memo_pipe.ensemble(feats, cfg.exp4_c, cfg.exp4_degree, members)
    assert trained == members and len(small.members) == 2
    assert all(a is b for a, b in zip(small.members, full.members))


def test_exp5_ensemble_row_same_alone_and_after_exp4(ctg_table, quick_runs, tmp_path):
    """In an `all` run exp5 reuses a prefix of exp4's ensemble; run alone it
    trains its own. Both must report the same row."""
    _, path, _ = ctg_table
    _, _, all_dir = quick_runs
    cfg = ExperimentConfig(data=path, seed=SEED, quick=True, out_dir=str(tmp_path))
    cmd_experiment("exp5", cfg, log=lambda *a: None)
    name = f"exp5_summary_seed{SEED}.csv"
    alone = {r["model"]: r for r in _csv_rows(tmp_path / name)}
    in_all = {r["model"]: r for r in _csv_rows(all_dir / name)}
    assert alone["EFS41-ESVM"] == in_all["EFS41-ESVM"]
    assert (tmp_path / name).read_bytes() == (all_dir / name).read_bytes()
    # the timing sidecars say which training each run's row comes from
    timing = {r["row"] for r in _csv_rows(all_dir / f"exp5_timing_seed{SEED}.csv")}
    assert f"EFS41-ESVM,train,members={cfg.exp4_members}" in timing
    timing = {r["row"] for r in _csv_rows(tmp_path / f"exp5_timing_seed{SEED}.csv")}
    assert f"EFS41-ESVM,train,members={cfg.exp5_members}" in timing


def test_exp5_timing_rows_name_the_training(quick_runs):
    """exp5's single-SVM rows time the training that produced the model,
    which in an `all` run is one exp2 or exp3 cached, and say so."""
    _, _, all_dir = quick_runs
    rows = [r["row"] for r in _csv_rows(all_dir / f"exp5_timing_seed{SEED}.csv")]
    singles = ["SVM", "FS1-SVM", "FS2-SVM", "FS3-SVM", "FS4-SVM", "EFS41-SVM"]
    assert rows[:-1] == [f"{m},train" for m in singles]
    assert rows[-1].startswith("EFS41-ESVM,train,members=")


def test_criterion_9_invariant_suites(pipe, grid_models):
    cells, _ = grid_models
    # dual feasibility and KKT on every binary machine in the grid
    kkt_worst = 0.0
    for (C, degree), (model, _) in cells.items():
        for mach in model.machines:
            assert abs(float(np.dot(mach.alphas, mach.labels))) < 1e-6
            assert np.all(mach.alphas > 0) and np.all(mach.alphas <= C + 1e-12)
            unb = (mach.alphas > 0) & (mach.alphas < C)
            if unb.any():
                f = decision_values(mach, mach.support_vectors[unb])
                viol = float(np.abs(mach.labels[unb] * f - 1).max())
                kkt_worst = max(kkt_worst, viol)
                assert viol <= pipe.cfg.tolerance + 1e-6

    # confusion totals equal evaluated rows
    model, _ = cells[(10.0, 3)]
    cms = pipe.confusions(*(model.predict_dataset(ds)[0] for ds in (pipe.train, pipe.test)))
    assert cms["train"].total == pipe.train.n_rows and cms["test"].total == pipe.test.n_rows
    assert cms["combined"].total == pipe.train.n_rows + pipe.test.n_rows

    # bootstrap distinct-fraction Monte Carlo
    ds = numeric_dataset(np.arange(1000).reshape(-1, 1), ["a", "b"] * 500)
    fractions = [
        len(np.unique(np.asarray(bootstrap_sample(ds, seed=s).rows)[:, 0])) / 1000
        for s in range(120)
    ]
    mc = float(np.mean(fractions))
    mc_ok = abs(mc - (1 - 1 / np.e)) < 0.02
    announce(
        9,
        mc_ok,
        f"KKT worst violation {kkt_worst:.2e} <= tol+1e-6 across {len(cells)} grid cells, "
        f"confusion totals match row counts, bootstrap distinct fraction {mc:.4f} "
        f"within 0.632 +/- 0.02",
    )
