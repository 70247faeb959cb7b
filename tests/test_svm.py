"""Solver correctness against the QP reference, kernel math, multiclass
voting, and model persistence."""
import hashlib
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ctgsvm.data import DataError
from ctgsvm import svm
from ctgsvm.svm import (
    BinarySvm,
    KernelSpec,
    SvmConfig,
    kernel_matrix,
    load_model,
    model_to_lines,
    pairwise_problems,
    save_model,
    smo_train,
    train_from_problems,
    train_multiclass,
)
from conftest import decision_model, numeric_dataset, unit_rows
from oracles import decision_values, dual_objective, ovo_predict, qp_bias, qp_reference


def cfgp(C, degree, coef0=1.0, **kw):
    return SvmConfig(C=C, kernel=KernelSpec(degree=degree, coef0=coef0), **kw)


def one_entry(u, v, spec):
    """The kernel of two instances: the entry of their one-row kernel_matrix."""
    return kernel_matrix([u], [v], spec)[0, 0]


class TestKernel:
    def test_zero_vectors(self):
        assert one_entry([0, 0, 0], [0, 0, 0], KernelSpec(degree=3, coef0=1.0)) == 1.0

    def test_ones_squared(self):
        assert one_entry([1, 1], [1, 1], KernelSpec(degree=2, coef0=1.0)) == 9.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u, v = rng.normal(size=5), rng.normal(size=5)
            spec = KernelSpec(degree=4, coef0=1.0)
            want = (float(np.dot(u, v)) + 1.0) ** 4
            assert one_entry(u, v, spec) == pytest.approx(want, rel=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=4), rng.normal(size=4)
        spec = KernelSpec(degree=3, coef0=1.0)
        assert one_entry(u, v, spec) == one_entry(v, u, spec)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            one_entry([1, 2], [1, 2, 3], KernelSpec())

    def test_degree_validated(self):
        with pytest.raises(DataError):
            KernelSpec(degree=0)

    @pytest.mark.parametrize("degree", [2.5, 3.0, "3", True, None])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(DataError, match="integer"):
            KernelSpec(degree=degree)

    @pytest.mark.parametrize("coef0", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coef0_rejected(self, coef0):
        with pytest.raises(DataError, match="coef0 must be finite"):
            KernelSpec(coef0=coef0)

    def test_scalar_equals_matrix_entry(self):
        rng = np.random.default_rng(2)
        for degree in range(1, 8):
            spec = KernelSpec(degree=degree, coef0=1.0)
            u, v = rng.normal(size=6), rng.normal(size=6)
            assert one_entry(u, v, spec) == svm._polynomial(np.array([[np.dot(u, v)]]), spec)[0, 0]


BLOCK = svm._BLOCK


class TestPolynomialPower:
    """`_polynomial` raises to an integer power in place, block by block."""

    @pytest.mark.parametrize(
        "shape",
        [(7,), (BLOCK,), (BLOCK + 5,), (3 * BLOCK - 1,), (3, 11), (128, BLOCK // 128), (150, 300)],
        ids=["1d-below", "1d-on", "1d-across", "1d-three-blocks", "2d-below", "2d-on", "2d-across"],
    )
    def test_equals_power_operator(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = 2.0 * rng.normal(size=shape)  # negative bases with either coef0
        assert (x < -1.0).any()
        for coef0 in (0.0, 1.0):
            for degree in range(1, 11):
                dots = x.copy()
                out = svm._polynomial(dots, KernelSpec(degree=degree, coef0=coef0))
                assert out is dots
                np.testing.assert_allclose(dots, (x + coef0) ** degree, rtol=1e-14, atol=0)

    def test_non_contiguous_input_refused(self):
        with pytest.raises(AssertionError):
            svm._polynomial(np.ones((4, 6))[:, ::2], KernelSpec(degree=3))

    @pytest.mark.parametrize("degree", [3, 4, 7])
    def test_dense_kernel_holds_one_matrix(self, degree):
        X = np.random.default_rng(3).normal(size=(1500, 21))
        tracemalloc.start()
        try:
            kernel = svm._dense_kernel(X, KernelSpec(degree=degree, coef0=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernel.shape == (1500, 1500)
        assert peak < kernel.nbytes + 8 * BLOCK + 16 * 1024


class TestSmoAnalytic:
    def test_two_point_solution(self):
        m = smo_train(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), cfgp(10.0, 1, 0.0))
        assert m.alphas.tolist() == [0.5, 0.5]
        assert m.bias == 0.0
        assert m.converged
        assert decision_values(m, [[0.0], [1.0]]).tolist() == [0.0, 1.0]

    def test_xor_poly2(self):
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        m = smo_train(X, y, cfgp(1e6, 2))
        assert np.all(np.sign(decision_values(m, X)) == y)

    def test_duplicates_with_mixed_labels(self):
        X = np.ones((4, 1))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        m = smo_train(X, y, cfgp(5.0, 2))
        K = kernel_matrix(X, X, m.kernel)
        _, obj_ref = qp_reference(K, y, 5.0)
        assert m.converged or np.all(m.alphas <= 5.0)
        assert dual_objective(m) == pytest.approx(obj_ref, abs=1e-6)
        assert not m.c_free  # identical rows: eta = 0 for every pair

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single-class"):
            smo_train(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), cfgp(1.0, 1))

    def test_one_row_rejected(self):
        with pytest.raises(DataError):
            smo_train(np.array([[0.0]]), np.array([1.0]), cfgp(1.0, 1))


class TestSvmConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("C", float("nan"), "C must be positive and finite"),
            ("C", float("inf"), "C must be positive and finite"),
            ("C", 0.0, "C must be positive and finite"),
            ("tolerance", float("nan"), "tolerance must be positive and finite"),
            ("tolerance", float("inf"), "tolerance must be positive and finite"),
            ("tolerance", -1e-3, "tolerance must be positive and finite"),
            ("max_iter", 0, "max_iter must be at least 1"),
            ("max_iter", -5, "max_iter must be at least 1"),
        ],
    )
    def test_invalid_value_rejected(self, field, value, message):
        kw = {"C": 1.0, "kernel": KernelSpec(), field: value}
        with pytest.raises(DataError, match=message):
            SvmConfig(**kw)

    def test_one_update_allowed(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        m = smo_train(X, np.array([-1.0, -1.0, 1.0, 1.0]), cfgp(1.0, 1, max_iter=1))
        assert m.n_updates == 1


def qp_fixtures():
    rng = np.random.default_rng(99)
    yield np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), 10.0, KernelSpec(degree=1, coef0=0.0)
    yield (
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
        np.array([1.0, -1.0, -1.0, 1.0]),
        1e6,
        KernelSpec(degree=2, coef0=1.0),
    )
    yield np.ones((4, 1)), np.array([1.0, 1.0, -1.0, -1.0]), 5.0, KernelSpec(degree=2, coef0=1.0)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        X = np.round(rng.normal(0, 1, (n, int(rng.integers(1, 4)))), 2)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.choice([0.5, 1.0, 5.0, 10.0]))
        spec = KernelSpec(degree=int(rng.integers(1, 4)), coef0=float(rng.choice([0.0, 1.0])))
        yield X, y, C, spec


class TestQpOracleEquivalence:
    def test_objective_and_predictions_match(self):
        for i, (X, y, C, spec) in enumerate(qp_fixtures()):
            K = kernel_matrix(X, X, spec)
            a_ref, obj_ref = qp_reference(K, y, C)
            m = smo_train(X, y, SvmConfig(C=C, kernel=spec))
            assert dual_objective(m) == pytest.approx(obj_ref, abs=1e-6), f"fixture {i}"
            b_ref = qp_bias(K, y, C, a_ref)
            d_ref = K @ (a_ref * y) + b_ref
            assert np.array_equal(d_ref >= 0, decision_values(m, X) >= 0), f"fixture {i}"


class TestSolverInvariants:
    def trained(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(1.5, 1, (20, 3))])
        y = np.concatenate([np.ones(30), -np.ones(20)])
        return X, y

    def test_dual_feasibility(self):
        X, y = self.trained()
        for C in (0.5, 10.0, 1000.0):
            m = smo_train(X, y, cfgp(C, 3))
            assert abs(float(np.dot(m.alphas, m.labels))) < 1e-6
            assert np.all(m.alphas > 0)
            assert np.all(m.alphas <= C + 1e-12)

    def test_kkt_on_unbounded_supports(self):
        X, y = self.trained()
        cfg = cfgp(10.0, 3)
        m = smo_train(X, y, cfg)
        unb = (m.alphas > 0) & (m.alphas < cfg.C)
        if unb.any():
            f = decision_values(m, m.support_vectors[unb])
            assert np.abs(m.labels[unb] * f - 1).max() <= cfg.tolerance + 1e-6

    def test_linear_kernel_matches_explicit_weights(self):
        X, y = self.trained()
        m = smo_train(X, y, cfgp(1.0, 1, 0.0))
        w = (m.alphas * m.labels) @ m.support_vectors
        probe = np.random.default_rng(8).normal(size=(10, 3))
        want = probe @ w + m.bias
        assert np.allclose(decision_values(m, probe), want, atol=1e-9)

    def test_bit_identical_retrain(self):
        X, y = self.trained()
        a = smo_train(X, y, cfgp(10.0, 3))
        b = smo_train(X, y, cfgp(10.0, 3))
        assert np.array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias
        assert np.array_equal(a.support_vectors, b.support_vectors)

    def test_iteration_cap_flags_nonconverged(self):
        X, y = self.trained()
        m = smo_train(X, y, cfgp(10.0, 3, max_iter=3))
        assert not m.converged
        assert m.n_updates == 3

    def test_empty_support_model_rejected(self):
        with pytest.raises(DataError, match="empty support"):
            BinarySvm(np.zeros((0, 2)), np.array([]), np.array([]), 0.0, KernelSpec())

    def test_decision_value_length_mismatch(self):
        model = train_multiclass(numeric_dataset([[-1.0], [1.0]], ["a", "b"]), cfgp(10.0, 1, 0.0))
        with pytest.raises(DataError, match="width"):
            model.predict_matrix([[0.0, 1.0]])

    def test_stuck_pair_ends_the_solve_flagged(self, monkeypatch):
        """A pair that cannot move ends the sweep; the gap check then flags
        the machine instead of the solver raising or spinning."""
        monkeypatch.setattr(svm, "_pair_step", lambda *args: (None, False))
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        m = smo_train(X, y, cfgp(10.0, 1, 0.0))
        assert not m.converged
        assert m.n_updates == 0
        assert np.isfinite(m.bias)


def sep3(n_per=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = {"a": (0, 0), "b": (6, 0), "c": (0, 6)}
    rows, classes = [], []
    for label, c in centers.items():
        rows.append(rng.normal(c, 0.4, size=(n_per, 2)))
        classes += [label] * n_per
    return numeric_dataset(np.vstack(rows), classes)


def rebuild_reference(X, y, cfg, K=None):
    """smo_train's selection loop as it was before its per-step arrays were
    kept between steps: both masks rebuilt from the alphas, and every
    masked array and eta row computed afresh, at each step. K is the kernel
    row source (a svm._KernelSource; by default the one smo_train would
    build). Returns (alphas, bias, updates, c_free, converged, firsts), where
    firsts is the number of distinct first rows of the solve's pairs."""
    if K is None:
        K = svm._KernelSource(X, cfg.kernel, None)
    diag = K.diag
    n, C, tol = len(y), cfg.C, cfg.tolerance
    alphas, b, E, updates, c_free, pos = np.zeros(n), 0.0, -y.copy(), 0, True, y > 0
    eta, gain, firsts = np.empty(n), np.empty(n), set()
    for sweep in range(4):
        if sweep:
            E[:] = g + b - y
        while updates < cfg.max_iter:
            up = np.where(pos, alphas < C, alphas > 0)
            low = np.where(pos, alphas > 0, alphas < C)
            i = int(np.argmin(np.where(up, E, np.inf)))
            e_low = np.where(low, E, -np.inf)
            j_max = int(np.argmax(e_low))
            if E[j_max] - E[i] <= tol:
                break
            firsts.add(i)
            np.add(diag, diag[i], out=eta)
            np.subtract(eta, 2.0 * K.row(i), out=eta)
            np.maximum(eta, 1e-12, out=eta)
            np.divide((E - E[i]) ** 2, eta, out=gain)
            gain[e_low <= E[i]] = -np.inf
            j = int(np.argmax(gain))
            step, c_bound = svm._pair_step(alphas, y, E[i], E[j], b, C, diag, K.row(i), i, j)
            if step is None:
                step, c_max = svm._pair_step(alphas, y, E[i], E[j_max], b, C, diag, K.row(i), i, j_max)
                c_bound = c_bound or c_max
            c_free = c_free and not c_bound
            if step is None:
                break
            i2, a1, a2, d1, d2, b_new = step
            E += y[i] * d1 * K.row(i) + y[i2] * d2 * K.row(i2) + (b_new - b)
            alphas[i], alphas[i2] = a1, a2
            b = b_new
            updates += 1
            if K.dense is not None and updates % 4096 == 0:
                E[:] = K.full_g(alphas * y) + b - y
        g = K.full_g(alphas * y)
        b_est = y - g
        m_up = b_est[np.where(pos, alphas < C, alphas > 0)].max()
        m_low = b_est[np.where(pos, alphas > 0, alphas < C)].min()
        if m_up - m_low <= tol or updates >= cfg.max_iter:
            break
    unbounded = (alphas > 0.0) & (alphas < C)
    bias = float(b_est[unbounded].mean()) if unbounded.any() else float((m_up + m_low) / 2.0)
    return alphas, bias, updates, c_free, m_up - m_low <= tol, len(firsts)


class TestKeptStepArrays:
    """The caches and buffers smo_train keeps between steps give the solve
    of the per-step rebuild, bit for bit, also where alphas sit on C, in
    either kernel mode, and when the solve's first rows outnumber the eta
    memo."""

    def problems(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(20, 120))
            X = rng.normal(0, 1, (n, int(rng.integers(1, 4))))
            y = np.where(X[:, 0] + rng.normal(0, 1.0, n) > 0, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            X[: n // 4] = X[n // 4: 2 * (n // 4)]  # duplicate rows: eta = 0 pairs
            yield X, y, cfgp(float(rng.choice([0.05, 1.0, 10.0, 100.0])), int(rng.integers(1, 4)), max_iter=5000)
        X = rng.normal(0, 1, (300, 2))
        yield X, np.where(X[:, 0] + rng.normal(0, 1.0, 300) > 0, 1.0, -1.0), cfgp(1e3, 3, max_iter=9000)

    def test_matches_per_step_rebuild(self):
        self.assert_matches_rebuild(dense=True, eta_rows=None)

    @pytest.mark.parametrize("dense, eta_rows", [(False, None), (True, 3), (False, 3)],
                             ids=["row-cached", "dense-small-eta-memo", "row-cached-small-eta-memo"])
    def test_other_modes_match_per_step_rebuild(self, monkeypatch, dense, eta_rows):
        if not dense:
            monkeypatch.setattr(svm, "DENSE_LIMIT", 10)  # below every problem's row count
        if eta_rows is not None:
            monkeypatch.setattr(svm, "_ETA_ROWS", eta_rows)
        self.assert_matches_rebuild(dense, eta_rows)

    def assert_matches_rebuild(self, dense, eta_rows):
        bounded = drift = 0
        most_firsts = 0
        for k, (X, y, cfg) in enumerate(self.problems()):
            K = svm._KernelSource(X, cfg.kernel, None)
            assert (K.dense is not None) == dense
            alphas, bias, updates, c_free, converged, firsts = rebuild_reference(X, y, cfg, K)
            m = smo_train(X, y, cfg)
            sv = alphas > 0
            assert np.array_equal(m.alphas, alphas[sv]), k
            assert np.array_equal(m.support_vectors, X[sv]), k
            assert (m.bias, m.n_updates, m.c_free, m.converged) == (bias, updates, c_free, converged), k
            bounded += int((alphas == cfg.C).any())
            drift += updates > 4096
            most_firsts = max(most_firsts, firsts)
        assert bounded >= 3 and drift >= 1  # the fixtures reach C and the drift resync
        if eta_rows is not None:
            assert most_firsts > eta_rows  # the small memo evicts

    def test_zero_gains_pick_the_first_eligible_partner(self, monkeypatch):
        """Where every eligible second-order gain is 0 (here eta overflows to
        inf), the partner is the first I_low row with E > E[i], as in the
        rebuild, not a row the gain's clamping zeroed."""
        y = np.array([1.0, 1.0, -1.0, -1.0])
        X = np.arange(4.0)[:, None]
        # eta from row 0 is inf at rows 2 and 3 (8e307 + 1e308 overflows), finite at rows 0 and 1
        kernel = np.diag([8e307, 8e307, 1e308, 1e308])
        kernel.setflags(write=False)
        cfg = cfgp(1.0, 1, 0.0)
        asked = []
        pair_step = svm._pair_step
        monkeypatch.setattr(svm, "_pair_step", lambda *a: asked.append(a[-2:]) or pair_step(*a))
        with np.errstate(over="ignore"):
            smo_train(X, y, cfg, kernel=kernel)
            ours, asked[:] = asked[:], []
            rebuild_reference(X, y, cfg, svm._KernelSource(X, cfg.kernel, kernel))
        assert ours == asked == [(0, 2)] * 8  # nothing moves: each of 4 sweeps asks for j, then j_max


class TestMulticlass:
    def test_three_classes_three_machines(self):
        model = train_multiclass(sep3(), cfgp(10.0, 2))
        assert len(model.machines) == 3
        assert model.pairs == ((0, 1), (0, 2), (1, 2))

    def test_separable_recall(self):
        ds = sep3()
        model = train_multiclass(ds, cfgp(10.0, 2))
        preds, stats = model.predict_dataset(ds)
        truth = [ds.class_labels[c] for c in ds.class_codes()]
        assert preds == truth
        assert stats["vote_ties"] == 0

    def test_class_absent_rejected(self):
        ds = sep3().take(range(8))  # only class "a" rows
        with pytest.raises(DataError):
            train_multiclass(ds, cfgp(1.0, 1))

    def test_predict_single_instance(self):
        ds = sep3()
        model = train_multiclass(ds, cfgp(10.0, 2))
        assert model.predict_values([0.1, -0.2]) == "a"
        assert model.predict_values([6.1, 0.3]) == "b"

    def test_four_class_ties(self):
        """Six hand-built machines; decisions per unit row, pairs in the
        order (A,B) (A,C) (A,D) (B,C) (B,D) (C,D). Priors 2/9, 1/9, 3/9, 3/9."""
        decisions = [
            [1.0, 1.0, 1.0, 0.5, 0.5, 0.5],  # A by 3 votes
            [-1.0, 0.25, 0.25, 1.0, -0.5, 0.5],  # A, B 2 votes; B by strength 2 > 0.5
            [0.5, -0.5, 0.25, -0.25, 0.5, -0.5],  # A, C 2 votes, strength 0.75; C by prior
            [-0.5, 0.5, -0.5, -0.25, -0.25, 0.5],  # C, D 2 votes, 0.75, equal priors; C by order
            [0.0, 0.5, 0.5, 0.5, 0.5, 0.5],  # a zero decision votes for the first class: A by 3
        ]
        model = decision_model(decisions, ("A", "B", "C", "D"), counts=[20, 10, 30, 30])
        ds = unit_rows(["A", "B", "C", "C", "A"])
        labels, stats = model.predict_dataset(ds)
        assert labels == ["A", "B", "C", "C", "A"]
        assert stats["vote_ties"] == 3
        assert ovo_predict(model, ds.feature_matrix()) == (labels, 3)
        assert [model.predict_values(row) for row in ds.feature_matrix()] == labels

    def test_feature_mask_and_standardizer_applied(self):
        from ctgsvm.data import fit_standardizer, select_features

        rng = np.random.default_rng(2)
        ds = sep3()
        noisy = numeric_dataset(
            np.hstack([rng.normal(size=(ds.n_rows, 1)), ds.feature_matrix()]),
            [ds.class_labels[c] for c in ds.class_codes()],
        )
        mask = [1, 2]
        std = fit_standardizer(select_features(noisy, mask))
        model = train_multiclass(noisy, cfgp(10.0, 2), feature_mask=mask, standardizer=std)
        preds, _ = model.predict_dataset(noisy)
        truth = [noisy.class_labels[c] for c in noisy.class_codes()]
        assert preds == truth
        # the columns at the mask positions are matched by name and width
        renamed = numeric_dataset(noisy.feature_matrix(), truth, names=["f0", "f2", "f1"])
        with pytest.raises(DataError, match="prediction column 2 is 'f2'; the model expects 'f1'"):
            model.predict_dataset(renamed)
        with pytest.raises(DataError, match="width"):
            model.predict_dataset(numeric_dataset(noisy.feature_matrix()[:, :2], truth))


@pytest.fixture(scope="module")
def quick_table():
    """(work, train, standardizer) for a quick-sized synthetic table, split
    the way the experiments split it."""
    from ctgsvm.data import SplitSpec, fit_standardizer, mask_by_names, select_features
    from ctgsvm.data import stratified_split, stratified_subsample
    from ctgsvm.experiments import QUICK_ROWS
    from ctgsvm.synth import make_ctg_like

    ds = make_ctg_like()
    ds = select_features(ds, mask_by_names(ds, drop=["CLASS"]))
    work = stratified_subsample(ds, QUICK_ROWS, 42)
    train, _ = stratified_split(work, SplitSpec(0.70, 42))
    return work, train, fit_standardizer(train)


class TestKernelMemo:
    def test_grid_sweep_equals_fresh_training(self, quick_table):
        """Degree outside, C inside, a return to an earlier degree and a new
        coef0 at the same degree: every model equals a fresh training, and
        each pair holds one kernel, the current spec's, at a time."""
        import weakref

        _, train, std = quick_table
        mp = pairwise_problems(train, None, std)
        sweep = [(2, 1.0, 10.0), (2, 1.0, 1000.0), (3, 1.0, 10.0), (3, 1.0, 500.0),
                 (3, 0.5, 10.0), (3, 0.5, 100.0), (2, 1.0, 100.0)]
        previous = None
        for degree, coef0, C in sweep:
            cfg = cfgp(C, degree, coef0)
            model = train_from_problems(mp, cfg)
            fresh = train_multiclass(train, cfg, standardizer=std)
            assert model_to_lines(model) == model_to_lines(fresh), (degree, coef0, C)
            held = []
            for p in mp.problems:
                n = p.X.shape[0]
                squares = [v for v in vars(p).values() if isinstance(v, np.ndarray) and v.shape == (n, n)]
                assert len(squares) == 1
                assert p.kernel(cfg.kernel) is squares[0]  # a memo hit, no rebuild
                assert np.array_equal(squares[0], kernel_matrix(p.X, p.X, cfg.kernel))
                held.append(weakref.ref(squares[0]))
            del squares
            if previous is not None:
                spec_changed = previous[0] != (degree, coef0)
                # a new spec frees the old kernel; the same spec keeps it
                assert all((ref() is None) == spec_changed for ref in previous[1])
            previous = ((degree, coef0), held)

    def test_row_cache_evicts_the_oldest_row(self, monkeypatch):
        """Above DENSE_LIMIT the solver's kernel rows come from a cache of
        CACHE_ROWS rows that evicts in insertion order, a hit not renewing
        a row; every row it gives equals the dense kernel's row."""
        monkeypatch.setattr(svm, "DENSE_LIMIT", 3)
        monkeypatch.setattr(svm, "CACHE_ROWS", 2)
        X = np.random.default_rng(5).normal(size=(6, 2))
        spec = KernelSpec(degree=2)
        K = svm._KernelSource(X, spec, None)
        assert K.dense is None
        for i in (0, 1, 0, 2, 3, 1):
            assert np.allclose(K.row(i), kernel_matrix(X, X[i:i + 1], spec)[:, 0], rtol=1e-14)
        # 0 goes when 2 comes, though read after 1; then 1 goes for 3, and 2 for 1
        assert list(K._cache) == [3, 1]

    def test_row_cache_mode_matches_dense_mode(self, quick_table, monkeypatch):
        work, train, std = quick_table
        cfg = cfgp(100.0, 3)
        dense = train_from_problems(pairwise_problems(train, None, std), cfg)
        mp = pairwise_problems(train, None, std)
        monkeypatch.setattr(svm, "DENSE_LIMIT", min(p.X.shape[0] for p in mp.problems) - 1)
        assert all(p.kernel(cfg.kernel) is None for p in mp.problems)
        cached = train_from_problems(mp, cfg)
        assert cached.predict_dataset(work)[0] == dense.predict_dataset(work)[0]
        feats = std.transform_features(work.feature_matrix())
        for mc, md in zip(cached.machines, dense.machines):
            assert len(mc.alphas) == len(md.alphas)
            diff = np.abs(decision_values(mc, feats) - decision_values(md, feats)).max()
            assert diff <= 10 * cfg.tolerance


@pytest.fixture
def smo_calls(monkeypatch):
    """Counts smo_train calls: the list gains each returned machine."""
    made = []
    real = svm.smo_train

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(svm, "smo_train", counting)
    return made


def overlapping_pair(n=40, seed=3):
    """A two-class problem whose classes overlap, so small C binds."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, 2))
    y = np.where(X[:, 0] + rng.normal(0.0, 1.0, n) > 0, 1.0, -1.0)
    return svm.PairProblem(0, 1, X, y)


class TestCertifiedReuse:
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "row-cached"])
    def test_exp1_grid_equals_fresh_training(self, quick_table, monkeypatch, smo_calls, dense):
        """Every exp1 cell, in exp1's order, equals a fresh solve on a fresh
        problem: same model file, update counts and convergence flags, in
        both kernel modes; the C grid above 10 is served from the memo."""
        from ctgsvm.experiments import DEFAULT_C_GRID, DEFAULT_DEGREE_GRID

        _, train, std = quick_table
        mp = pairwise_problems(train, None, std)
        if not dense:
            monkeypatch.setattr(svm, "DENSE_LIMIT", min(p.X.shape[0] for p in mp.problems) - 1)
        for degree in DEFAULT_DEGREE_GRID:
            for C in DEFAULT_C_GRID:
                cfg = cfgp(C, degree)
                before = len(smo_calls)
                model = train_from_problems(mp, cfg)
                assert len(smo_calls) - before == (3 if C == DEFAULT_C_GRID[0] else 0)
                fresh = pairwise_problems(train, None, std)
                machines = [smo_train(p.X, p.yb, cfg) for p in fresh.problems]
                assert model_to_lines(model) == model_to_lines(replace(model, machines=machines))
                assert [m.n_updates for m in model.machines] == [m.n_updates for m in machines]
                assert [m.converged for m in model.machines] == [m.converged for m in machines]
                assert all(m.c_free for m in model.machines)

    def test_binding_c_is_not_certified(self, smo_calls):
        p = overlapping_pair()
        small = p.machine(cfgp(0.05, 2))
        assert small.alphas.max() == 0.05
        assert not small.c_free
        large = p.machine(cfgp(10.0, 2))
        assert len(smo_calls) == 2  # nothing was memoized to reuse
        assert not np.array_equal(decision_values(small, p.X), decision_values(large, p.X))

    @pytest.mark.parametrize(
        "X, y, alphas, C, i2, moved, bound",
        [
            ([-1.0, 1.0], [-1.0, 1.0], [0.1, 0.1], 1.0, 1, True, False),  # to the optimum 0.5
            ([-1.0, 1.0], [-1.0, 1.0], [0.1, 0.1], 0.3, 1, True, True),  # a2 clipped to H = C
            ([-1.0, 1.0], [-1.0, 1.0], [0.3, 0.1], 0.3, 1, False, True),  # clipped to H = a2o, as a1 = C
            ([-1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], 1.0, 1, False, True),  # L = H = C
            ([1.0, 1.0], [1.0, 1.0], [0.1, 0.1], 1.0, 1, False, True),  # eta = 0: the objective at L and H
            ([0.0, 1.0], [1.0, 1.0], [0.5, 0.5], 1.0, 1, True, True),  # a2 to L = 0, so a1 = a1o + a2o = C
            ([-1.0, 1.0], [-1.0, 1.0], [0.1, 0.1], 1.0, 0, False, False),  # a pair of one row
        ],
        ids=["interior", "clipped-at-C", "clipped-in-place", "stuck-at-C", "zero-curvature", "a1-reaches-C",
             "same-row"],
    )
    def test_pair_step_reports_c_binding(self, X, y, alphas, C, i2, moved, bound):
        """Whether C decided the step, including steps that do not move."""
        X = np.array(X)[:, None]
        y = np.array(y)
        K = kernel_matrix(X, X, KernelSpec(degree=1, coef0=0.0))
        alphas = np.array(alphas)
        E = K @ (alphas * y) - y
        step, c_bound = svm._pair_step(alphas, y, E[0], E[i2], 0.0, C, np.diagonal(K), K[0], 0, i2)
        assert (step is not None, c_bound) == (moved, bound)

    @pytest.mark.parametrize("first, second", [(True, False), (False, True), (False, False)])
    def test_every_pair_evaluation_counts(self, monkeypatch, first, second):
        """A partner that cannot move still reports whether C decided that;
        both partners' reports reach the certificate."""
        reports = itertools.cycle([(None, first), (None, second)])  # one pair per sweep
        monkeypatch.setattr(svm, "_pair_step", lambda *args: next(reports))
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        m = smo_train(X, np.array([-1.0, -1.0, 1.0, 1.0]), cfgp(10.0, 1, 0.0))
        assert m.c_free == (not first and not second)

    @pytest.mark.parametrize(
        "change",
        [dict(C=5.0), dict(tolerance=1e-4), dict(max_iter=100_000),
         dict(kernel=KernelSpec(degree=3)), dict(kernel=KernelSpec(degree=2, coef0=0.5))],
        ids=["smaller-C", "tolerance", "max_iter", "degree", "coef0"],
    )
    def test_memo_misses_on_other_configs(self, quick_table, smo_calls, change):
        _, train, std = quick_table
        p = pairwise_problems(train, None, std).problems[0]
        base = cfgp(10.0, 2)
        held = p.machine(base)
        assert held.c_free
        assert p.machine(replace(base, C=100.0)) is held
        assert len(smo_calls) == 1
        assert p.machine(replace(base, **change)) is not held
        assert len(smo_calls) == 2

    def test_exp1_trains_one_machine_per_pair_and_degree(self, ctg_table, smo_calls, tmp_path):
        from ctgsvm.experiments import ExperimentConfig, build_pipeline, run_exp1

        _, path, _ = ctg_table
        pipe = build_pipeline(ExperimentConfig(data=path, seed=42, quick=True, out_dir=str(tmp_path)))
        run_exp1(pipe)
        assert len(smo_calls) == 15  # 3 pairs x 5 degrees; the 75 larger-C cells reuse them

    def test_certificate_not_saved(self, quick_table, tmp_path):
        """A memo-served model saves to the same bytes as before the
        certificate existed and loads uncertified."""
        _, train, std = quick_table
        mp = pairwise_problems(train, None, std)
        train_from_problems(mp, cfgp(10.0, 3))
        model = train_from_problems(mp, cfgp(1000.0, 3))
        assert all(m.c_free for m in model.machines)
        path = tmp_path / "model.txt"
        save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        # train_multiclass's file for C=1000, degree 3 before `c_free` existed
        # (numpy 2.4.6, one BLAS thread)
        assert digest == "bf088591c457629d2cc0d9ce4b93aeef9e8c9cc4c7d59154faf9dba6d48fc637"
        assert not any(m.c_free for m in load_model(path).machines)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = sep3(seed=4)
        model = train_multiclass(ds, cfgp(10.0, 3))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        feats = ds.feature_matrix()
        for m1, m2 in zip(model.machines, loaded.machines):
            assert np.array_equal(decision_values(m1, feats), decision_values(m2, feats))
        assert loaded.predict_dataset(ds)[0] == model.predict_dataset(ds)[0]

    def test_round_trip_with_mask_and_standardizer(self, tmp_path):
        from ctgsvm.data import fit_standardizer, select_features

        ds = sep3(seed=6)
        std = fit_standardizer(select_features(ds, [0]))
        model = train_multiclass(ds, cfgp(5.0, 2), feature_mask=[0], standardizer=std)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_mask == (0,)
        assert np.array_equal(loaded.standardizer.means, model.standardizer.means)
        assert loaded.predict_dataset(ds)[0] == model.predict_dataset(ds)[0]

    def test_version_mismatch_rejected(self, tmp_path):
        ds = sep3()
        model = train_multiclass(ds, cfgp(1.0, 1))
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text().replace("ctgsvm-model 1", "ctgsvm-model 2", 1)
        path.write_text(text)
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)

    def test_truncated_or_extended_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        lines = path.read_text().splitlines()
        for bad in [lines[:n] for n in range(len(lines))] + [lines + ["junk"]]:
            path.write_text("".join(ln + "\n" for ln in bad))
            with pytest.raises(DataError):
                load_model(path)

    @pytest.mark.parametrize("first_sv", ["sv", "sv\t+1", "sv\t+1\t0x1p-1"])
    def test_support_row_without_values_rejected(self, tmp_path, first_sv):
        """Without a mask or a standardizer the first support row fixes the
        width, so it must hold a label, an alpha and at least one value."""
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        lines = path.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("sv\t"))
        path.write_text("\n".join(lines[:i] + [first_sv] + lines[i + 1:]) + "\n")
        with pytest.raises(DataError, match=f"malformed model file: .* at line {i + 1}$"):
            load_model(path)

    def test_corrupt_hex_float_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        text = path.read_text()
        i = text.index("\nsv\t")
        path.write_text(text[:i] + text[i:].replace("0x", "0xq", 1))
        with pytest.raises(DataError, match="malformed model file"):
            load_model(path)

    def test_overflowing_hex_float_rejected(self, tmp_path):
        """float.fromhex raises OverflowError, not ValueError, past the
        largest double."""
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        lines = path.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("sv\t"))
        parts = lines[i].split("\t")
        parts[2] = "0x1p+2000"  # the alpha
        lines[i] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="malformed model file: .*too large"):
            load_model(path)

    @pytest.mark.parametrize(
        "prefix, field, value",
        [
            ("kernel", 1, "rbf"),
            ("kernel", 3, "nan"),
            ("feat", 3, "inf"),
            ("feat", 4, "nan"),
            ("feat", 4, "0x0.0p+0"),
            ("feat", 4, "-0x1.0p+0"),
            ("machine", 4, "nan"),
            ("sv", 1, "+7"),
            ("sv", 2, "nan"),
            ("sv", 2, "-0x1.0p-3"),
            ("sv", 3, "-inf"),
        ],
        ids=["kind-rbf", "coef0-nan", "mean-inf", "sigma-nan", "sigma-zero", "sigma-negative", "bias-nan",
             "label-7", "alpha-nan", "alpha-negative", "support-value-inf"],
    )
    def test_invalid_field_rejected(self, tmp_path, prefix, field, value):
        from ctgsvm.data import fit_standardizer

        ds = sep3(seed=4)
        path = tmp_path / "model.txt"
        save_model(train_multiclass(ds, cfgp(10.0, 3), standardizer=fit_standardizer(ds)), path)
        lines = path.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix + "\t"))
        parts = lines[i].split("\t")
        parts[field] = value
        lines[i] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"malformed model file: .* at line {i + 1}$"):
            load_model(path)
