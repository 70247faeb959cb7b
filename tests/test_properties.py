"""Property tests (hypothesis) of model persistence: a saved model or
ensemble reloads to the same lines, and a truncated or corrupted file fails
only with DataError. Also of the command line: a corrupted table or config
file exits 0, 3 or 4, never with a traceback. Also of the seeded row
samplers: the stratified split and the stratified subsample; of the
ensemble vote against its label-based reference; of the bits of the
solver's kernel rows; and of every machine the solver returns, certified
from its alphas alone.

Every test runs a fixed, derandomized set of examples without an example
database, so the suite does the same work on every run."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctgsvm.bagging import EnsembleConfig, EnsembleModel, bagging_train, load_ensemble, save_ensemble
from ctgsvm.data import DataError, SplitSpec, stratified_split, stratified_subsample
from ctgsvm import svm
from ctgsvm.cli import main
from ctgsvm.svm import KernelSpec, SvmConfig, load_model, model_from_lines, model_to_lines, train_multiclass
from conftest import labelling_model, numeric_dataset
from oracles import certificate, ensemble_vote, qp_reference, row_alphas

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def problems(draw):
    """A small numeric dataset with its SVM config and feature mask."""
    k = draw(st.integers(2, 3))
    width = draw(st.integers(1, 3))
    per_class = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(0.0, 1.0, (k * per_class, width)) + np.repeat(rng.normal(0, 3, (k, width)), per_class, axis=0)
    classes = [f"c{i}" for i in range(k) for _ in range(per_class)]
    ds = numeric_dataset(rows, classes, names=[f"x{j}" for j in range(width)])
    cfg = SvmConfig(
        C=draw(st.sampled_from([0.1, 1.0, 10.0, 1000.0])),
        kernel=KernelSpec(
            degree=draw(st.integers(1, 4)),
            coef0=draw(st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)),
        ),
        max_iter=2000,
    )
    mask = draw(st.none() | st.lists(st.integers(0, width - 1), min_size=1, unique=True))
    return ds, cfg, mask


@PROPERTY
@given(problems())
def test_model_round_trip(problem):
    ds, cfg, mask = problem
    model = train_multiclass(ds, cfg, mask)
    lines = model_to_lines(model)
    again, end = model_from_lines(lines)
    assert end == len(lines)
    assert model_to_lines(again) == lines


@PROPERTY
@given(problems(), st.integers(1, 3), st.integers(0, 2**63 - 1))
def test_ensemble_round_trip(tmp_path, problem, members, seed):
    ds, cfg, mask = problem
    ens = bagging_train(ds, EnsembleConfig(members=members, base=cfg, master_seed=seed), feature_mask=mask)
    path, again = tmp_path / "ens.txt", tmp_path / "again.txt"
    save_ensemble(ens, path)
    save_ensemble(load_ensemble(path), again)  # every member as its model_to_lines
    assert again.read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """The lines of one saved model (with mask and standardizer) and of one
    saved two-member ensemble."""
    rng = np.random.default_rng(5)
    rows = np.vstack([rng.normal(c, 0.5, (6, 3)) for c in (0.0, 3.0, 6.0)])
    ds = numeric_dataset(rows, ["a"] * 6 + ["b"] * 6 + ["c"] * 6)
    cfg = SvmConfig(C=10.0, kernel=KernelSpec(degree=2))
    model_lines = model_to_lines(train_multiclass(ds, cfg, [0, 2]))
    path = tmp_path_factory.mktemp("fuzz") / "ens.txt"
    save_ensemble(bagging_train(ds, EnsembleConfig(members=2, base=cfg, master_seed=3)), path)
    return {"model": model_lines, "ensemble": path.read_text(encoding="utf-8").splitlines()}


TOKENS = ["", "nan", "inf", "-inf", "0", "-1", "1e400", "0x1p+2000", "-0x0p+0", "0xq", "99999999999999999999",
          "all", "none", "end", "polynomial", "numeric", "machine", "sv", "+1", "-1", "\t", " "]


@st.composite
def corruptions(draw, n_lines):
    """One edit of a file of n_lines lines: truncation, a dropped or
    duplicated line, two swapped lines, or one field replaced."""
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "swap", "field"]))
    at = draw(st.integers(0, n_lines - 1))
    if kind == "swap":
        return kind, at, draw(st.integers(0, n_lines - 1))
    if kind == "field":
        text = draw(st.sampled_from(TOKENS) | st.text(max_size=8))
        return kind, at, (draw(st.integers(0, 8)), text)
    return kind, at, None


def corrupt(lines, edit, sep="\t"):
    """The lines with one edit made; a field is a part of a line between
    two `sep`s."""
    kind, at, arg = edit
    lines = list(lines)
    if kind == "truncate":
        return lines[:at]
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        lines[at], lines[arg] = lines[arg], lines[at]
    else:
        parts = lines[at].split(sep)
        field, text = arg
        parts[min(field, len(parts) - 1)] = text
        lines[at] = sep.join(parts)
    return lines


@settings(PROPERTY, max_examples=300)
@given(st.data())
def test_corrupt_model_fails_only_with_data_error(tmp_path, saved_files, data):
    lines = corrupt(saved_files["model"], data.draw(corruptions(len(saved_files["model"]))))
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load_model(path)
    except DataError:
        pass


@settings(PROPERTY, max_examples=300)
@given(st.data())
def test_corrupt_ensemble_fails_only_with_data_error(tmp_path, saved_files, data):
    lines = corrupt(saved_files["ensemble"], data.draw(corruptions(len(saved_files["ensemble"]))))
    path = tmp_path / "ens.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load_ensemble(path)
    except DataError:
        pass


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """The path of a 24-row synthetic table, and the lines of that table as
    CSV and as ARFF and of a config file for a quick exp1 run."""
    path = tmp_path_factory.mktemp("inputs") / "table.csv"
    assert main(["synth", "--out", str(path), "--rows", "24"]) == 0
    csv = path.read_text(encoding="utf-8").splitlines()
    arff = ["@relation ctg"] + [
        "@attribute NSP {Normal, Suspect, Pathologic}" if name == "NSP" else f"@attribute {name} numeric"
        for name in csv[0].split(",")
    ] + ["@data"] + csv[1:]
    config = ["c_grid=10,100", "degree_grid=1,2", "max_iter=2000", "tolerance=0.001", "coef0=1",
              "train_fraction=0.7", "seed=3", "exclude_features=CLASS,DS"]
    return str(path), {"csv": csv, "arff": arff, "cfg": config}


SEPARATORS = {"csv": ",", "arff": ",", "cfg": "="}


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from(sorted(SEPARATORS)), st.data())
def test_corrupt_input_exits_0_3_or_4(tmp_path, input_files, kind, data):
    """A table (CSV or ARFF) given to `train`, or a config file given to a
    quick exp1 run, with one edit: the command exits 0, 3 or 4, and raises
    nothing."""
    table, files = input_files
    lines = corrupt(files[kind], data.draw(corruptions(len(files[kind]))), SEPARATORS[kind])
    path = tmp_path / f"input.{kind}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if kind == "cfg":
        args = ["experiment", "--id", "exp1", "--quick", "--config", str(path), "--data", table,
                "--out", str(tmp_path / "out")]
    else:
        args = ["train", "--data", str(path), "--out", str(tmp_path / "model.txt")]
    assert main(args) in (0, 3, 4)


@st.composite
def labelled_rows(draw):
    """A table whose one feature is the row's index, so a sampled row can be
    traced back, with 2-4 classes of 1-30 rows in a shuffled order."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=2, max_size=4))
    classes = [f"c{c}" for c, size in enumerate(sizes) for _ in range(size)]
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(classes))
    classes = [classes[i] for i in order]
    return numeric_dataset(np.arange(len(classes), dtype=float)[:, None], classes)


def _ids(ds) -> list[int]:
    return ds.feature_column(0).astype(int).tolist()


def _class_sizes(ds) -> list[int]:
    return np.bincount(ds.class_codes(), minlength=len(ds.class_labels)).tolist()


@PROPERTY
@given(labelled_rows(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_stratified_split(ds, fraction, seed):
    spec = SplitSpec(fraction, seed)
    sizes = _class_sizes(ds)
    if any(n_c < 2 or math.floor(fraction * n_c) < 1 for n_c in sizes):
        with pytest.raises(DataError):
            stratified_split(ds, spec)
        return
    train, test = stratified_split(ds, spec)
    train_ids, test_ids = _ids(train), _ids(test)
    assert not set(train_ids) & set(test_ids)
    assert sorted(train_ids + test_ids) == list(range(ds.n_rows))
    assert train_ids == sorted(train_ids) and test_ids == sorted(test_ids)
    assert _class_sizes(train) == [math.floor(fraction * n_c) for n_c in sizes]
    again = stratified_split(ds, spec)
    assert (_ids(again[0]), _ids(again[1])) == (train_ids, test_ids)


@PROPERTY
@given(labelled_rows(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_stratified_subsample(ds, n_target, seed):
    sample = stratified_subsample(ds, n_target, seed)
    ids = _ids(sample)
    if n_target >= ds.n_rows:
        assert ids == list(range(ds.n_rows))
        return
    assert ids == sorted(set(ids)) and set(ids) <= set(range(ds.n_rows))
    assert all(1 <= got <= size for got, size in zip(_class_sizes(sample), _class_sizes(ds)))
    assert n_target <= len(ids) <= n_target + len(ds.class_labels)
    assert _ids(stratified_subsample(ds, n_target, seed)) == ids


# equal priors, a tie case of its own, come up often
SHARES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def votes(draw):
    """An ensemble of 1-12 members over 2-5 classes, with its class priors,
    and a (rows, members) matrix of class indexes."""
    k = draw(st.integers(2, 5))
    members = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 30))
    codes = np.array(draw(st.lists(st.integers(0, k - 1), min_size=rows * members, max_size=rows * members)))
    classes = tuple(f"c{c}" for c in range(k))
    model = labelling_model([classes[0]], classes)  # vote_codes reads no member's machines
    priors = np.array(draw(st.lists(SHARES, min_size=k, max_size=k)))
    ens = EnsembleModel([(model, i) for i in range(members)], classes, priors, master_seed=0)
    return ens, codes.reshape(rows, members)


@settings(PROPERTY, max_examples=200)
@given(votes())
def test_vote_codes_is_the_label_vote(vote):
    ens, codes = vote
    priors = {c: float(p) for c, p in zip(ens.classes, ens.class_priors)}
    want = [ensemble_vote([ens.classes[c] for c in row], priors, ens.classes) for row in codes.tolist()]
    winners, ties = ens.vote_codes(codes)
    assert [ens.classes[c] for c in winners] == [lab for lab, _ in want]
    assert ties == sum(tie for _, tie in want)


@st.composite
def row_tables(draw):
    """A table of 2-150 rows, some of which repeat others, and a kernel spec.
    Widths up to 24 reach the row product's vectorized sums, and row counts
    of every residue mod 4 its last outputs."""
    n = draw(st.integers(2, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 30.0])), (n, draw(st.integers(1, 24))))
    copies = draw(st.integers(0, n // 2))
    X[rng.integers(0, n, copies)] = X[rng.integers(0, n, copies)]
    return X, KernelSpec(degree=draw(st.integers(1, 4)), coef0=draw(st.sampled_from([0.0, 0.5, 1.0])))


@settings(PROPERTY, max_examples=60)
@given(row_tables())
def test_kernel_rows_agree_bit_for_bit(table):
    """The solver's kernel rows give K[i, j] == K[j, i], and K[i, i] ==
    K[i, k] wherever rows i and k are equal, in every bit."""
    X, spec = table
    K = svm._KernelSource(X, spec)
    rows = np.array([K.row(i) for i in range(len(X))])
    assert np.array_equal(rows, rows.T)
    _, group = np.unique(X, axis=0, return_inverse=True)
    same = group.reshape(-1)[:, None] == group.reshape(-1)[None, :]
    assert np.array_equal(rows[same], np.broadcast_to(np.diagonal(rows)[:, None], rows.shape)[same])


@st.composite
def binary_problems(draw):
    """A two-class problem of 2-60 rows and 1-6 features, with copies of
    rows (of either label) and constant columns, both of which give eta = 0
    pairs, labels of any balance and noise, and a sweep of 1-3 ascending Cs
    from 1e-3 to 1e4 at one degree from 1 to 10. The update cap is 1-30,
    or 20 000, which stops the few solves that stall in a fraction of a
    second rather than the default cap's few seconds."""
    n = draw(st.integers(2, 60))
    width = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0.0, 1.0, (n, width))
    X[:, rng.random(width) < 0.2] = rng.normal()
    copies = draw(st.integers(0, n // 2))
    X[rng.integers(0, n, copies)] = X[rng.integers(0, n, copies)]
    score = X @ rng.normal(0.0, 1.0, width) + draw(st.sampled_from([0.0, 0.5, 3.0])) * rng.normal(0.0, 1.0, n)
    y = np.full(n, -1.0)
    y[np.argsort(score, kind="stable")[n - draw(st.integers(1, n - 1)):]] = 1.0
    kernel = KernelSpec(degree=draw(st.integers(1, 10)), coef0=draw(st.sampled_from([0.0, 1.0])))
    Cs = draw(st.lists(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3, 1e4]), min_size=1, max_size=3, unique=True))
    max_iter = draw(st.sampled_from([20_000]) | st.integers(1, 30))
    return np.ascontiguousarray(X), y, [SvmConfig(C, kernel, max_iter=max_iter) for C in sorted(Cs)]


@settings(PROPERTY, max_examples=80)
@given(binary_problems())
def test_every_machine_is_certified(problem):
    """Each machine of a sweep, solved or served by another C's machine, is
    certified at its own C from its alphas alone (oracles.certificate): the
    alphas lie in the box and sum(a y) is 0 within a relative 1e-12. A
    machine that says it converged has a gap within tolerance, a bias within
    tolerance of b_est on every free row, and a dual objective no worse than
    qp_reference's, less 1e-6 and tolerance * sum(a): SMO stops within
    tolerance of the KKT conditions, short of the optimum. So a machine
    stopped early by a small update cap must say it did not converge. A
    machine that did not converge met its cap, unless its problem lies
    beyond what double arithmetic resolves (the certificate's reach)."""
    X, y, cfgs = problem
    for cfg, m in zip(cfgs, svm._pair_machines(svm.PairProblem(0, 1, X, y), cfgs)):
        a = row_alphas(X, y, m)
        cert = certificate(X, y, a, cfg.C, cfg.kernel)
        assert cert["box"] and cert["balance"] <= 1e-12
        if not m.converged:
            assert m.n_updates == cfg.max_iter or cert["reach"] > cfg.tolerance
            continue
        assert cert["gap"] <= cfg.tolerance
        for i in np.flatnonzero((a > 0.0) & (a < cfg.C)).tolist():
            assert abs(m.bias - cert["b_est"][i]) <= cfg.tolerance + cert["slack"][i]
        _, ref = qp_reference(np.array(cert["K"]), y, cfg.C, max_iter=1000)
        assert cert["objective"] >= ref - 1e-6 - cfg.tolerance * math.fsum(a.tolist())
