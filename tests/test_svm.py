"""Solver correctness against the QP reference, kernel math, multiclass
voting, and model persistence."""
import hashlib
import math
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
from conftest import decision_model, identity_standardizer, numeric_dataset, unit_rows
from oracles import certificate, decision_values, dual_objective, ovo_predict, qp_bias, qp_reference, row_alphas


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
    """`_polynomial` raises to an integer power in place, in one pass."""

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

    @pytest.mark.parametrize("degree", [3, 4, 7])
    def test_dense_kernel_holds_one_matrix(self, degree):
        """A prediction holds one block of kernel values at a time, raised in
        place beside at most one copy of its base: no kernel matrix of the
        batch against the support rows exists."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1500, 21))
        kernel = KernelSpec(degree=degree, coef0=1.0)
        machines = [BinarySvm(X[i::3], rng.random(500), np.ones(500), 0.0, kernel) for i in range(3)]
        stack = svm._Stack.of(machines, 3)
        assert stack.support.shape == (1500, 21)
        tracemalloc.start()
        try:
            decisions = stack.decisions(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decisions.shape == (1500, 3)
        assert peak < 2 * decisions.nbytes + 2 * 8 * BLOCK + 16 * 1024


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
        monkeypatch.setattr(svm, "_pair_step", lambda *args: None)
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


@pytest.fixture
def finishes(monkeypatch):
    """Records each svm._finish call as (alphas it started from, alphas it
    returned or None)."""
    made = []
    real = svm._finish

    def recording(K, y, a, C, tol):
        done = real(K, y, a, C, tol)
        made.append((a.copy(), done))
        return done

    monkeypatch.setattr(svm, "_finish", recording)
    return made


def rebuild_reference(X, y, cfg):
    """smo_train's selection loop as it was before its per-step arrays were
    kept between steps, in its gradient form (E = g - y, no bias): both masks rebuilt from the alphas, and every
    masked array and eta row computed afresh, at each step, with kernel rows
    from a row source of its own (a svm._KernelSource). Once the free set
    has stayed the same for svm._FINISH_AFTER updates, it calls svm._finish
    as the solver does. Returns (alphas, bias, updates, converged, firsts),
    where firsts is the number of distinct first rows of the solve's
    pairs."""
    K = svm._KernelSource(X, cfg.kernel)
    diag = K.diag
    n, C, tol = len(y), cfg.C, cfg.tolerance
    alphas, E, updates, pos = np.zeros(n), -y.copy(), 0, y > 0
    since = 0
    eta, gain, firsts = np.empty(n), np.empty(n), set()
    for sweep in range(4):
        if sweep:
            E[:] = g - y
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
            step = svm._pair_step(alphas, y, E[i], E[j], C, eta[j], i, j)
            if step is None:
                step = svm._pair_step(alphas, y, E[i], E[j_max], C, eta[j_max], i, j_max)
            if step is None:
                break
            i2, a1, a2, d1, d2 = step
            E += y[i] * d1 * K.row(i) + y[i2] * d2 * K.row(i2)
            free = (alphas > 0) & (alphas < C)
            alphas[i], alphas[i2] = a1, a2
            updates += 1
            if not np.array_equal(free, (alphas > 0) & (alphas < C)):
                since = updates
            elif updates - since == svm._FINISH_AFTER:
                done = svm._finish(K, y, alphas, C, tol)
                if done is not None:
                    alphas = done
                    break
            if updates % 4096 == 0:
                E[:] = K.full_g(alphas * y) - y
        g = K.full_g(alphas * y)
        b_est = y - g
        m_up = b_est[np.where(pos, alphas < C, alphas > 0)].max()
        m_low = b_est[np.where(pos, alphas > 0, alphas < C)].min()
        if m_up - m_low <= tol or updates >= cfg.max_iter:
            break
    unbounded = (alphas > 0.0) & (alphas < C)
    bias = float(b_est[unbounded].mean()) if unbounded.any() else float((m_up + m_low) / 2.0)
    return alphas, bias, updates, m_up - m_low <= tol, len(firsts)


class TestKeptStepArrays:
    """The caches and buffers smo_train keeps between steps give the solve
    of the per-step rebuild, bit for bit, also where alphas sit on C, when
    the solve's first rows outnumber the eta memo, and when its kernel rows
    outnumber the row budget."""

    def problems(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(20, 120))
            X = rng.normal(0, 1, (n, int(rng.integers(1, 4))))
            y = np.where(X[:, 0] + rng.normal(0, 1.0, n) > 0, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            X[: n // 4] = X[n // 4: 2 * (n // 4)]  # duplicate rows: eta = 0 pairs
            yield X, y, cfgp(float(rng.choice([0.05, 1.0, 10.0, 100.0])), int(rng.integers(1, 4)), max_iter=9000)
        X = rng.normal(0, 1, (300, 2))
        yield X, np.where(X[:, 0] + rng.normal(0, 1.0, 300) > 0, 1.0, -1.0), cfgp(1e3, 3, max_iter=9000)

    def test_matches_per_step_rebuild(self, finishes):
        self.assert_matches_rebuild(finishes, small=False)

    @pytest.mark.parametrize("few_rows", [False, True], ids=["small-eta-memo", "small-eta-and-row-memos"])
    def test_other_modes_match_per_step_rebuild(self, monkeypatch, finishes, few_rows):
        monkeypatch.setattr(svm, "_ETA_ROWS", 3)
        if few_rows:
            # two kernel rows of the smallest problem, one of every other
            monkeypatch.setattr(svm, "_CACHE_BYTES", 2 * 8 * 20)
        self.assert_matches_rebuild(finishes, small=True)

    def assert_matches_rebuild(self, finishes, small):
        bounded = drift = 0
        most_firsts = 0
        for k, (X, y, cfg) in enumerate(self.problems()):
            alphas, bias, updates, converged, firsts = rebuild_reference(X, y, cfg)
            m = smo_train(X, y, cfg)
            sv = alphas > 0
            assert np.array_equal(m.alphas, alphas[sv]), k
            assert np.array_equal(m.support_vectors, X[sv]), k
            assert (m.bias, m.n_updates, m.converged) == (bias, updates, converged), k
            bounded += int((alphas == cfg.C).any())
            drift += updates > 4096
            most_firsts = max(most_firsts, firsts)
        assert bounded >= 3 and drift >= 1  # the fixtures reach C and the drift resync
        kept = sum(done is not None for _, done in finishes)  # the solver's and the rebuild's
        assert kept >= 4 and len(finishes) - kept >= 4  # finishes kept and refused
        if small:
            assert most_firsts > 3  # the small memos evict

    def test_zero_gains_pick_the_first_eligible_partner(self, monkeypatch):
        """Where every eligible second-order gain is 0 (here eta overflows to
        inf), the partner is the first I_low row with E > E[i], as in the
        rebuild, not a row the gain's clamping zeroed."""
        y = np.array([1.0, 1.0, -1.0, -1.0])
        # the linear kernel of these rows is diagonal, about (8e307, 8e307, 1e308,
        # 1e308): eta from row 0 is inf at rows 2 and 3 (8e307 + 1e308
        # overflows), finite at rows 0 and 1
        X = np.diag(np.sqrt([8e307, 8e307, 1e308, 1e308]))
        cfg = cfgp(1.0, 1, 0.0)
        asked = []
        pair_step = svm._pair_step
        monkeypatch.setattr(svm, "_pair_step", lambda *a: asked.append(a[-2:]) or pair_step(*a))
        with np.errstate(over="ignore"):
            smo_train(X, y, cfg)
            ours, asked[:] = asked[:], []
            rebuild_reference(X, y, cfg)
        assert ours == asked == [(0, 2)] * 8  # nothing moves: each of 4 sweeps asks for j, then j_max


def full_alphas(X, m):
    """The alpha of each row of X under machine m, 0 off its support set
    (each support row matched to its first equal row of X)."""
    a = np.zeros(len(X))
    for row, alpha in zip(m.support_vectors, m.alphas):
        a[np.flatnonzero((X == row).all(axis=1))[0]] += alpha
    return a


def drawn_problem(seed):
    """A random problem drawn from seed: 10-49 rows of 1-3 features, labels
    from the first feature and noise, C from 0.05 to 10, degree 1-4 and
    coef0 0 or 1, and a cap of 20 000 updates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 50))
    X = rng.normal(0, 1, (n, int(rng.integers(1, 4))))
    y = np.where(X[:, 0] + rng.normal(0, 1.0, n) > 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    C = float(rng.choice([0.05, 0.5, 1.0, 10.0]))
    return X, y, cfgp(C, int(rng.integers(1, 5)), float(rng.choice([0.0, 1.0])), max_iter=20_000)


def assert_certified(X, y, cfg, m):
    """m converged, and its alphas alone certify it (oracles.certificate):
    in the box, sum(a y) 0 within a relative 1e-12, the gap within
    tolerance, and the dual objective no worse than that of 1000
    qp_reference steps, less 1e-6 and tolerance * sum(a), as in
    test_properties.test_every_machine_is_certified."""
    a = row_alphas(X, y, m)
    cert = certificate(X, y, a, cfg.C, cfg.kernel)
    assert m.converged and cert["box"] and cert["balance"] <= 1e-12 and cert["gap"] <= cfg.tolerance
    _, ref = qp_reference(np.array(cert["K"]), y, cfg.C, max_iter=1000)
    assert cert["objective"] >= ref - 1e-6 - cfg.tolerance * math.fsum(a.tolist())


def assert_matches_qp_reference(X, y, cfg, m):
    K = kernel_matrix(X, X, cfg.kernel)
    a_ref, obj_ref = qp_reference(K, y, cfg.C)
    assert dual_objective(m) == pytest.approx(obj_ref, abs=1e-6)
    d_ref = K @ (a_ref * y) + qp_bias(K, y, cfg.C, a_ref)
    assert np.array_equal(d_ref >= 0, decision_values(m, X) >= 0)


class TestFinish:
    """svm._finish, the active-set steps from a stable free set that end a
    solve exactly."""

    def test_stalled_pair_subsample_matches_qp_reference(self, finishes):
        """The class pair 1-2 of `train --features LB,AC,FM,UC,ASTV` on the
        synthetic table, whose machine stopped at the 200 000-update cap
        before solves finished on their free sets, subsampled to 40 rows.
        At C=10 no row of a 40-row subsample binds, and on larger ones
        qp_reference stops short of the optimum, so C is 0.1: the finish
        then holds a row at C in its right-hand side and is kept."""
        from ctgsvm.data import fit_standardizer, mask_by_names, select_features
        from ctgsvm.synth import make_ctg_like

        ds = make_ctg_like()
        mask = mask_by_names(ds, keep=["LB", "AC", "FM", "UC", "ASTV"])
        p = pairwise_problems(ds, mask, fit_standardizer(select_features(ds, mask))).problems[2]
        assert (p.ci, p.cj, len(p.X)) == (1, 2, 471)
        idx = np.sort(np.random.default_rng(2).choice(len(p.X), 40, replace=False))
        X, y, cfg = p.X[idx], p.yb[idx], cfgp(0.1, 3)
        m = smo_train(X, y, cfg)
        assert m.converged and (m.alphas == cfg.C).sum() >= 1
        [(start, done)] = finishes
        assert done is not None and (start == cfg.C).any()
        assert_matches_qp_reference(X, y, cfg, m)

    def test_two_free_copies_fall_back_to_smo(self):
        """A finish whose free set holds two copies of one row meets a Schur
        complement of 0, up to rounding, and is refused, so SMO goes on from
        where it was. The state is the optimum of a problem whose first six
        rows copy the next six, with a free row's alpha split evenly between
        it and its copy: the same decisions and objective, and a singular
        system."""
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (24, 2))
        y = np.where(X[:, 0] + rng.normal(0, 1.0, 24) > 0, 1.0, -1.0)
        X[:6], y[:6] = X[6:12], y[6:12]
        cfg = cfgp(10.0, 1)
        m = smo_train(X, y, cfg)
        assert m.converged
        assert_matches_qp_reference(X, y, cfg, m)
        a = row_alphas(X, y, m)
        i = next(i for i in range(6) if 0.0 < a[i] + a[i + 6] < 2.0 * cfg.C)
        a[i] = a[i + 6] = (a[i] + a[i + 6]) / 2.0
        assert 0.0 < a[i] < cfg.C
        assert svm._finish(svm._KernelSource(X, cfg.kernel), y, a, cfg.C, cfg.tolerance) is None

    def test_never_kept_with_the_equality_broken(self, monkeypatch):
        """A finish is kept only if sum(a y) is 0 within EPSILON of sum(a).
        From a converged solve's alphas on this drawn problem the finish is
        kept with sum(a y) a few ulps from 0 (the rounding of its solve,
        folded back along the inverse's bias column); with EPSILON below
        that share of sum(a), the same try is refused."""
        X, y, cfg = drawn_problem(216)
        a = row_alphas(X, y, smo_train(X, y, cfg))
        K = svm._KernelSource(X, cfg.kernel)
        done = svm._finish(K, y, a, cfg.C, cfg.tolerance)
        off = abs(math.fsum(done * y)) / math.fsum(done)
        assert 0.0 < off <= 1e-15
        monkeypatch.setattr(svm, "EPSILON", off / 2)
        assert svm._finish(K, y, a, cfg.C, cfg.tolerance) is None

    def test_adds_back_a_zero_alpha_row_that_violates_kkt(self):
        """From a converged solve's alphas with free row s moved to 0, s
        violates its KKT condition: the finish adds it back to the free set
        and reaches qp_reference's objective."""
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (30, 2))
        y = np.where(X[:, 0] + rng.normal(0, 1.0, 30) > 0, 1.0, -1.0)
        cfg = cfgp(1.0, 2)
        a = full_alphas(X, smo_train(X, y, cfg))
        s = np.flatnonzero((a > 0) & (a < cfg.C))[2]
        a[s] = 0.0
        done = svm._finish(svm._KernelSource(X, cfg.kernel), y, a, cfg.C, cfg.tolerance)
        assert done is not None and done[s] > 0.0
        cert = certificate(X, y, done, cfg.C, cfg.kernel)
        assert cert["box"] and cert["balance"] <= 1e-12 and cert["gap"] <= cfg.tolerance
        _, ref = qp_reference(np.array(cert["K"]), y, cfg.C)
        assert cert["objective"] == pytest.approx(ref, abs=1e-6)

    def test_row_leaving_c_updates_h(self, finishes):
        """On this drawn problem with a small C (0.05, degree 3, coef0 = 0)
        the kept finish moves a row off C, so h, the kernel sum over the
        rows at C on the right-hand side, loses that row. The finished
        alphas reach qp_reference's objective, with the gap computed
        afresh."""
        X, y, cfg = drawn_problem(216)
        m = smo_train(X, y, cfg)
        [(start, done)] = [(s, d) for s, d in finishes if d is not None]
        assert ((start == cfg.C) & (done < cfg.C)).any()
        assert np.array_equal(row_alphas(X, y, m), done)
        assert_certified(X, y, cfg, m)
        cert = certificate(X, y, done, cfg.C, cfg.kernel)
        _, ref = qp_reference(np.array(cert["K"]), y, cfg.C)
        assert cert["objective"] == pytest.approx(ref, abs=1e-6)

    def test_wrong_way_refusal_ends_certified(self, monkeypatch):
        """The kernel of this drawn problem (one feature, degree 3) has rank
        4, so a free set of more rows is singular. With the singularity
        floor taken away, an add whose Schur complement is rounding noise
        goes through, and at the next solve the added row leaves the box on
        the side it came from. The try is refused there, rather than
        dropping the row and adding it again, and SMO ends the solve,
        certified."""
        monkeypatch.setattr(svm, "_SINGULAR", -np.inf)
        X, y, cfg = drawn_problem(3)
        assert (X.shape[1], cfg.kernel.degree) == (1, 3)
        events = []
        real_add, real_solve, finish = svm._KktInverse.add, svm._KktInverse.solve, svm._finish

        def add(self, B):
            ok = real_add(self, B)
            events.append(("add", ok))
            return ok

        def solve(self, rhs):
            x = real_solve(self, rhs)
            events.append(("solve", x))
            return x

        def recording(*args):
            done = finish(*args)
            events.append(("end", done))
            return done

        monkeypatch.setattr(svm._KktInverse, "add", add)
        monkeypatch.setattr(svm._KktInverse, "solve", solve)
        monkeypatch.setattr(svm, "_finish", recording)
        m = smo_train(X, y, cfg)
        # a refused try that ended at the solve after an add, with the added
        # (last) row outside the box: the wrong-way refusal, as a finite
        # solution outside the box otherwise drops a row
        wrong_way = [
            x for (e1, ok), (e2, x), (e3, done) in zip(events, events[1:], events[2:])
            if (e1, ok, e2, e3) == ("add", True, "solve", "end") and done is None
            and np.isfinite(x).all() and not 0.0 <= x[-1] <= cfg.C
        ]
        assert wrong_way
        assert_certified(X, y, cfg, m)

    def test_updated_inverse_solves_as_fresh_elimination(self):
        """A seeded sequence of bordering by blocks and by single rows, and
        of drops at any position, leaves an inverse that solves the bordered
        KKT system of the rows it holds to 1e-9 of a fresh LAPACK solve."""
        rng = np.random.default_rng(31)
        X = rng.normal(0, 1, (120, 10))  # a kernel of rank 286: every set of rows is regular
        y = np.where(rng.random(120) < 0.5, 1.0, -1.0)
        Q = np.outer(y, y) * kernel_matrix(X, X, KernelSpec(degree=3))
        held, free = [0], list(range(1, 120))
        inv = svm._KktInverse(y[0], Q[0, 0], 121)

        def bordered(rows):
            M = np.zeros((len(rows) + 1,) * 2)
            M[1:, 1:] = Q[np.ix_(rows, rows)]
            M[0, 1:] = M[1:, 0] = y[rows]
            return M

        for step in range(80):
            if step % 20 == 0 or len(held) < 3 or rng.random() < 0.5:
                new = [free.pop(int(rng.integers(len(free)))) for _ in range(1 if step % 20 else 13)]
                assert inv.add(bordered(held + new)[-len(new):])
                held += new
            else:
                p = int(rng.integers(1, len(held) + 1))
                inv.drop(p)
                free.append(held.pop(p - 1))
            rhs = rng.normal(0, 1, len(held) + 1)
            want = np.linalg.solve(bordered(held), rhs)
            assert np.abs(inv.solve(rhs) - want).max() <= 1e-9 * np.abs(want).max(), step
        assert len(held) > 30

    def test_certified_finished_solve_serves_a_larger_c(self, quick_table, finishes, tmp_path):
        """A finished solve whose alphas all lie below C serves a larger C,
        and the model it serves at C=1000 saves to the bytes of a fresh solve
        at C=1000."""
        _, train, std = quick_table
        small, model = train_from_problems(pairwise_problems(train, None, std), [cfgp(10.0, 5), cfgp(1000.0, 5)])
        assert model is small and all(m.alphas.max() < 10.0 for m in model.machines)
        kept = [done[done > 0] for _, done in finishes if done is not None]
        assert any(np.array_equal(a, m.alphas) for a in kept for m in model.machines)
        fresh = train_multiclass(train, cfgp(1000.0, 5), None, std)
        save_model(model, tmp_path / "served.txt")
        save_model(fresh, tmp_path / "fresh.txt")
        assert (tmp_path / "served.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()


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
        # a model trained with no standardizer given fits one, which records the names
        with pytest.raises(DataError, match="prediction column 2 is 'f2'; the model expects 'f1'"):
            train_multiclass(noisy, cfgp(10.0, 2)).predict_dataset(renamed)

    def test_mask_outside_the_table_rejected(self):
        from ctgsvm.data import fit_standardizer

        ds = sep3()
        std = fit_standardizer(ds, [0, 1])
        for mask in ([0, 99], [-1, 0]):
            with pytest.raises(DataError, match=r"feature mask \[.*\] reads outside the table's 2 features"):
                train_multiclass(ds, cfgp(10.0, 2), mask, std)

    def test_standardizer_of_other_columns_rejected(self):
        """A standardizer must have been fitted on the masked columns, by
        name: one fitted on the table with two columns swapped would scale
        each column by the other's mean and sigma."""
        from ctgsvm.data import fit_standardizer

        ds = sep3()
        swapped = numeric_dataset(ds.feature_matrix()[:, ::-1], [ds.class_labels[c] for c in ds.class_codes()],
                                  names=["f1", "f0"])
        with pytest.raises(DataError, match=r"standardizer fitted on \['f1', 'f0'\], not on the masked columns "
                                            r"\['f0', 'f1'\]"):
            train_multiclass(ds, cfgp(10.0, 2), None, fit_standardizer(swapped))
        with pytest.raises(DataError, match=r"not on the masked columns \['f1'\]"):
            train_multiclass(ds, cfgp(10.0, 2), [1], fit_standardizer(ds, [0]))


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


def one_pair(p: svm.PairProblem) -> svm.MulticlassProblem:
    """The multiclass problem of the single class pair p."""
    return svm.MulticlassProblem(("a", "b"), np.array([1, 1]), [p], None, identity_standardizer(p.X.shape[1]))


def fresh_machines(train, std, cfg):
    """Each pair's machine under cfg, solved alone on a fresh problem."""
    return [smo_train(p.X, p.yb, cfg) for p in pairwise_problems(train, None, std).problems]


SWEEPS = {
    # binding C values (below 0.005, the largest alpha of degree 3) and free
    # ones, in each order; a degree met again after another; two coef0
    # values at one degree
    "ascending": [(2, 1.0, 0.0005), (2, 1.0, 0.01), (2, 1.0, 10.0), (2, 1.0, 1000.0), (3, 1.0, 10.0),
                  (3, 1.0, 500.0)],
    "descending": [(3, 1.0, 1000.0), (3, 1.0, 10.0), (3, 1.0, 0.001), (3, 1.0, 0.0005), (2, 1.0, 100.0),
                   (2, 1.0, 0.0005)],
    "shuffled": [(2, 1.0, 100.0), (3, 0.5, 10.0), (2, 1.0, 0.0005), (3, 1.0, 10.0), (2, 1.0, 1000.0),
                 (3, 0.5, 0.001), (3, 1.0, 0.002), (2, 1.0, 10.0), (3, 0.5, 1000.0)],
}


class TestKernelMemo:
    def test_grid_sweep_equals_fresh_training(self, quick_table):
        """A config sequence in one call: every config's model equals each
        pair solved alone under that config, with the same model file and
        update counts, in each sweep order; consecutive configs share a
        model exactly when they share every machine. Each order trains on a
        fresh problem, which holds no machine yet."""
        _, train, std = quick_table
        for order in SWEEPS:
            cfgs = [cfgp(C, degree, coef0) for degree, coef0, C in SWEEPS[order]]
            models = train_from_problems(pairwise_problems(train, None, std), cfgs)
            assert len(models) == len(cfgs)
            for k, (cfg, model) in enumerate(zip(cfgs, models)):
                fresh = fresh_machines(train, std, cfg)
                where = (order, cfg)
                assert model_to_lines(model) == model_to_lines(replace(model, machines=fresh)), where
                assert [m.n_updates for m in model.machines] == [m.n_updates for m in fresh], where
                if k:
                    shared = all(a is b for a, b in zip(models[k - 1].machines, model.machines))
                    assert (models[k - 1] is model) == shared, where
            # a binding C is covered
            assert any((m.alphas == cfg.C).any() for cfg, model in zip(cfgs, models) for m in model.machines)

    def test_solves_build_only_the_rows_they_read(self, quick_table, monkeypatch):
        """Each solve powers its diagonal and then each kernel row it reads,
        once, as a row: no kernel matrix is built, and no solve reads half
        of its rows."""
        _, train, std = quick_table
        sources, powered = [], []
        source, polynomial = svm._KernelSource, svm._polynomial
        monkeypatch.setattr(svm, "_KernelSource", lambda X, spec: sources.append(source(X, spec)) or sources[-1])
        monkeypatch.setattr(svm, "_polynomial", lambda a, spec: powered.append(a.shape) or polynomial(a, spec))
        mp = pairwise_problems(train, None, std)
        train_from_problems(mp, [cfgp(10.0, 3)])
        assert len(sources) == len(mp.problems) == 3
        assert all(len(shape) == 1 for shape in powered)
        assert len(powered) == sum(1 + len(K.rows) for K in sources)
        for K, p in zip(sources, mp.problems):
            assert 0 < len(K.rows) < len(p.X) / 2

    def test_row_cache_evicts_the_oldest_row(self, monkeypatch):
        """The rows a solve keeps fit in _CACHE_BYTES, and the oldest goes
        first, a hit not renewing a row; every row it gives equals the
        kernel matrix's row, and a rebuilt row has the bits it had."""
        X = np.random.default_rng(5).normal(size=(6, 2))
        monkeypatch.setattr(svm, "_CACHE_BYTES", 2 * 8 * len(X))
        spec = KernelSpec(degree=2)
        K = svm._KernelSource(X, spec)
        first = K.row(0).copy()
        for i in (1, 0, 2, 3, 1):
            assert np.allclose(K.row(i), kernel_matrix(X, X[i:i + 1], spec)[:, 0], rtol=1e-14)
        # 0 goes when 2 comes, though read after 1; then 1 goes for 3, and 2 for 1
        assert list(K.rows) == [3, 1]
        assert np.array_equal(K.row(0), first)

    def test_row_budget_never_changes_a_result(self, quick_table, monkeypatch):
        """A budget of a few rows, which evicts and rebuilds rows all through
        each solve, gives the models and update counts of the default
        budget, under a binding C and a free one. Each budget trains on a
        fresh problem, which holds no machine yet."""
        _, train, std = quick_table
        mp = pairwise_problems(train, None, std)
        cfgs = [cfgp(0.0005, 2), cfgp(10.0, 3), cfgp(1000.0, 4, 0.5)]
        powered = []
        polynomial = svm._polynomial
        monkeypatch.setattr(svm, "_polynomial", lambda a, spec: powered.append(a.shape) or polynomial(a, spec))
        roomy = train_from_problems(mp, cfgs)
        roomy_builds = len(powered)
        # at most 4 rows per solve: 4 of the smallest pair's, fewer of the others
        monkeypatch.setattr(svm, "_CACHE_BYTES", 4 * 8 * min(len(p.X) for p in mp.problems))
        tight = train_from_problems(pairwise_problems(train, None, std), cfgs)
        assert len(powered) - roomy_builds > 3 * roomy_builds  # rows were evicted and built again
        for a, b in zip(roomy, tight):
            assert model_to_lines(a) == model_to_lines(b)
            assert [m.n_updates for m in a.machines] == [m.n_updates for m in b.machines]
        bound = [(m.alphas == cfg.C).any() for cfg, model in zip(cfgs, roomy) for m in model.machines]
        assert any(bound) and not all(bound)


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
    def test_exp1_grid_equals_fresh_training(self, quick_table, smo_calls):
        """Every exp1 cell, from exp1's one call, equals a fresh solve on a
        fresh problem: same model file, update counts and convergence flags;
        the C grid above 10 reuses the C=10 machines."""
        from ctgsvm.experiments import DEFAULT_C_GRID, DEFAULT_DEGREE_GRID

        _, train, std = quick_table
        mp = pairwise_problems(train, None, std)
        cfgs = [cfgp(C, degree) for degree in DEFAULT_DEGREE_GRID for C in DEFAULT_C_GRID]
        models = train_from_problems(mp, cfgs)
        assert len(smo_calls) == 3 * len(DEFAULT_DEGREE_GRID)
        assert len({id(m) for m in models}) == len(DEFAULT_DEGREE_GRID)  # one model per degree
        for cfg, model in zip(cfgs, models):
            machines = fresh_machines(train, std, cfg)
            assert model_to_lines(model) == model_to_lines(replace(model, machines=machines))
            assert [m.n_updates for m in model.machines] == [m.n_updates for m in machines]
            assert [m.converged for m in model.machines] == [m.converged for m in machines]

    def test_binding_c_is_not_certified(self, smo_calls):
        p = overlapping_pair()
        small, large = train_from_problems(one_pair(p), [cfgp(0.05, 2), cfgp(10.0, 2)])
        small, large = small.machines[0], large.machines[0]
        assert small.alphas.max() == 0.05
        assert len(smo_calls) == 2  # an alpha at C serves no other C
        assert not np.array_equal(decision_values(small, p.X), decision_values(large, p.X))

    def test_unconverged_machine_is_not_certified(self, smo_calls):
        """A machine stopped at the update cap serves no other C, though its
        alphas all lie below C."""
        small, _ = train_from_problems(one_pair(overlapping_pair()), [cfgp(10.0, 2, max_iter=2),
                                                                      cfgp(100.0, 2, max_iter=2)])
        assert not small.converged and small.machines[0].alphas.max() < 10.0
        assert len(smo_calls) == 2

    def test_served_machines_meet_kkt_at_the_c_they_serve(self, quick_table, smo_calls):
        """Every machine served without a solve, in each sweep order and at
        a C' between the largest alpha of a C=1000 solve and 1000 asked for
        in a later call, meets the KKT conditions at C': its gap is within
        tolerance, with the free set and bias it has at its own C. A machine
        with an alpha at its C serves no other C, and none serves a C below
        its largest alpha."""
        _, train, std = quick_table
        runs = []
        for order in SWEEPS:
            mp = pairwise_problems(train, None, std)
            cfgs = [cfgp(C, degree, coef0) for degree, coef0, C in SWEEPS[order]]
            runs.append((mp, cfgs, train_from_problems(mp, cfgs)))
        mp = pairwise_problems(train, None, std)
        [solved] = train_from_problems(mp, [cfgp(1000.0, 3)])
        top = max(m.alphas.max() for m in solved.machines)
        between = [cfgp(2.0 * top, 3)]
        assert 2.0 * top < 1000.0
        made = len(smo_calls)
        runs.append((mp, between, train_from_problems(mp, between)))
        assert len(smo_calls) == made
        train_from_problems(mp, [cfgp(0.5 * min(m.alphas.max() for m in solved.machines), 3)])
        assert len(smo_calls) == made + len(mp.problems)
        served = 0
        for mp, cfgs, models in runs:
            for cfg, model in zip(cfgs, models):
                for p, m in zip(mp.problems, model.machines):
                    [own] = [c for c, held in p.solves if held is m]
                    if own == cfg:
                        continue
                    served += 1
                    assert not (m.alphas == own.C).any()
                    a = full_alphas(p.X, m)  # the quick table's pairs hold no two equal rows
                    K = svm._KernelSource(p.X, cfg.kernel)
                    _, b_est, m_up, m_low = svm._kkt(K, p.yb, a, cfg.C)
                    assert m_up - m_low <= cfg.tolerance
                    free = (a > 0.0) & (a < cfg.C)
                    assert free.any() and np.array_equal(free, (a > 0.0) & (a < own.C))
                    assert m.bias == pytest.approx(b_est[free].mean(), rel=1e-12)
        assert served == 8 + 7 + 13 + 3  # the sweeps in their order, then C'

    @pytest.mark.parametrize(
        "X, y, alphas, C, i2, moved",
        [
            ([-1.0, 1.0], [-1.0, 1.0], [0.1, 0.1], 1.0, 1, True),  # to the optimum 0.5
            ([-1.0, 1.0], [-1.0, 1.0], [0.1, 0.1], 0.3, 1, True),  # a2 clipped to H = C
            ([-1.0, 1.0], [-1.0, 1.0], [0.3, 0.1], 0.3, 1, False),  # clipped to H = a2o, as a1 = C
            ([-1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], 1.0, 1, False),  # L = H = C
            ([1.0, 1.0], [1.0, 1.0], [0.1, 0.1], 1.0, 1, False),  # eta = 0, clamped; E1 = E2, so no step
            ([0.0, 1.0], [1.0, 1.0], [0.5, 0.5], 1.0, 1, True),  # a2 to L = 0, so a1 = a1o + a2o = C
            ([-1.0, 1.0], [-1.0, 1.0], [0.1, 0.1], 1.0, 0, False),  # a pair of one row
        ],
        ids=["interior", "clipped-at-C", "clipped-in-place", "stuck-at-C", "zero-curvature", "a1-reaches-C",
             "same-row"],
    )
    def test_pair_step_reports_c_binding(self, X, y, alphas, C, i2, moved):
        """Whether the step moves where C binds the pair or could: None
        when the pair cannot move. eta is the pair's entry of the selection's
        eta row, clamped at 1e-12."""
        X = np.array(X)[:, None]
        y = np.array(y)
        K = kernel_matrix(X, X, KernelSpec(degree=1, coef0=0.0))
        alphas = np.array(alphas)
        E = K @ (alphas * y) - y
        eta = max(K[0, 0] + K[i2, i2] - 2.0 * K[0, i2], 1e-12)
        step = svm._pair_step(alphas, y, E[0], E[i2], C, eta, 0, i2)
        assert (step is not None) == moved

    @pytest.mark.parametrize(
        "change",
        [dict(C=5.0), dict(tolerance=1e-4), dict(max_iter=100_000),
         dict(kernel=KernelSpec(degree=3)), dict(kernel=KernelSpec(degree=2, coef0=0.5))],
        ids=["smaller-C", "tolerance", "max_iter", "degree", "coef0"],
    )
    def test_memo_misses_on_other_configs(self, quick_table, smo_calls, monkeypatch, change):
        """A machine serves only the configs that differ from its own by C
        alone. Configs train in ascending C wherever they stand, so a
        smaller C given last trains first, and its machine, whose alphas lie
        below that C, serves the two configs given before it."""
        _, train, std = quick_table
        p = pairwise_problems(train, None, std).problems[0]
        solved, counting = [], svm.smo_train
        monkeypatch.setattr(svm, "smo_train", lambda X, y, cfg: solved.append(cfg) or counting(X, y, cfg))
        base = cfgp(10.0, 2)
        cfgs = [base, replace(base, C=100.0), replace(base, **change)]
        models = train_from_problems(one_pair(p), cfgs)
        held, again, other = (m.machines[0] for m in models)
        assert again is held and models[1] is models[0]
        if change == dict(C=5.0):
            assert solved == [cfgs[2]] and smo_calls == [other] and other.alphas.max() < 5.0
            assert held is other and models[0] is models[2]
        else:
            assert solved == [base, cfgs[2]] and smo_calls == [held, other] and held.alphas.max() < 10.0
            assert other is not held and models[2] is not models[1]

    def test_exp1_trains_one_machine_per_pair_and_degree(self, ctg_table, smo_calls, monkeypatch, tmp_path):
        """exp1's work on the quick table: 15 solves (3 pairs x 5 degrees;
        the 75 larger-C cells reuse them), no kernel matrix of a pair, and
        one train and one test prediction of each of the 5 distinct models,
        the best cell's included."""
        from ctgsvm.experiments import ExperimentConfig, build_pipeline, run_exp1

        _, path, _ = ctg_table
        pipe = build_pipeline(ExperimentConfig(data=path, seed=42, quick=True, out_dir=str(tmp_path)))
        sizes = {p.X.shape[0] for p in pairwise_problems(pipe.train).problems}
        powers, predictions = [], []
        polynomial, predict = svm._polynomial, svm.SvmModel.predict_matrix
        monkeypatch.setattr(svm, "_polynomial", lambda a, spec: powers.append(a.shape) or polynomial(a, spec))
        monkeypatch.setattr(svm.SvmModel, "predict_matrix", lambda m, f: predictions.append(m) or predict(m, f))
        run_exp1(pipe)
        assert len(smo_calls) == 15
        assert not [s for s in powers if len(s) == 2 and s[0] == s[1] and s[0] in sizes]
        assert len(predictions) == 10 and len({id(m) for m in predictions}) == 5

    def test_exp1_peak_memory_below_one_kernel_slot(self, ctg_table, tmp_path):
        """exp1 on the full synthetic table holds less memory at its peak
        than the kernel matrix of its largest pair alone: each solve keeps
        only the kernel rows it reads, and frees them when it ends."""
        from ctgsvm.experiments import ExperimentConfig, build_pipeline, run_exp1

        _, path, is_real = ctg_table
        if is_real:
            pytest.skip("the figure is of the bundled synthetic table, not of CTG_CSV")
        pipe = build_pipeline(ExperimentConfig(data=path, seed=42, out_dir=str(tmp_path)))
        sizes = [p.X.shape[0] for p in pairwise_problems(pipe.train).problems]
        tracemalloc.start()
        try:
            run_exp1(pipe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * max(sizes) ** 2, peak

    def test_certificate_not_saved(self, quick_table, tmp_path):
        """Reuse is decided from the machine, and nothing of it is saved: the
        C=1000 model served by the C=10 machines saves to the bytes of a
        fresh solve at C=1000."""
        _, train, std = quick_table
        small, model = train_from_problems(pairwise_problems(train, None, std), [cfgp(10.0, 3), cfgp(1000.0, 3)])
        assert model is small
        save_model(model, tmp_path / "served.txt")
        save_model(train_multiclass(train, cfgp(1000.0, 3), None, std), tmp_path / "fresh.txt")
        served = (tmp_path / "served.txt").read_bytes()
        assert served == (tmp_path / "fresh.txt").read_bytes()
        # train_multiclass's file for C=1000, degree 3, solved alone (numpy
        # 2.4.6; the same at one and two BLAS threads)
        assert hashlib.sha256(served).hexdigest() == "0cc56ad70d1d1b5316ba0a38ad7db3d3d30238955c3ad49532a37a735fbd29fe"


class TestSingleSvmMemo:
    """`Pipeline.models` and the one problem per column set it keeps: the
    one memo of the experiments' single SVMs."""

    @pytest.fixture
    def quick_pipe(self, ctg_table, tmp_path):
        from ctgsvm.experiments import ExperimentConfig, build_pipeline

        _, path, _ = ctg_table
        return build_pipeline(ExperimentConfig(data=path, seed=42, quick=True, out_dir=str(tmp_path)))

    def test_memo_equals_fresh_training(self, quick_pipe, smo_calls):
        """Every exp2 and exp3 cell of the quick table, as exp2 and exp3
        trained it, equals train_multiclass on that mask alone: the same
        machines, update counts and train and test labels. A mask of every
        feature (FS3 and FS4 keep all) reads the `none` row's model."""
        from ctgsvm.data import fit_standardizer, select_features
        from ctgsvm.experiments import EXP2_SELECTORS, _exp3_combos, efs_feature_sets, run_exp2, run_exp3

        pipe, cfg = quick_pipe, quick_pipe.cfg
        run_exp2(pipe)
        run_exp3(pipe)
        solved = len(smo_calls)
        masks = [None] + [pipe.selection(code, search).selected for code, search in EXP2_SELECTORS]
        keys = [(mask, cell) for mask in masks for cell in cfg.exp2_cells]
        keys += [(feats, cell) for members in _exp3_combos() for _, _, feats in efs_feature_sets(pipe, members)
                 for cell in cfg.exp3_cells]
        served = {(mask, cell): pipe.models(mask, [cell])[0] for mask, cell in keys}
        assert len(smo_calls) == solved  # exp2 and exp3 trained every cell
        every = frozenset(range(pipe.train.n_features))
        assert all(served[(every, cell)] is served[(None, cell)] for cell in cfg.exp2_cells)
        for (mask, (C, degree)), model in served.items():
            cols = sorted(mask) if mask is not None else None
            std = fit_standardizer(select_features(pipe.train, cols) if cols else pipe.train)
            fresh = train_multiclass(pipe.train, cfg.svm(C, degree), cols, std)
            for ds in (pipe.train, pipe.test):
                assert model.predict_dataset(ds)[0] == fresh.predict_dataset(ds)[0]
            for got, want in zip(model.machines, fresh.machines, strict=True):
                assert np.array_equal(got.support_vectors, want.support_vectors)
                assert np.array_equal(got.alphas, want.alphas)
                assert (got.bias, got.n_updates) == (want.bias, want.n_updates)

    def test_quick_all_run_solve_count(self, quick_pipe, smo_calls):
        """The work of a quick `all` run: 118 solves, now that a certified
        machine also serves a larger C asked for in a later call on its
        columns. It was 121 when certified reuse lasted one call, 133 when
        it also followed the order of the cells (exp3 lists C=1000 before
        C=500), and 189 with one training per exp2, exp3 and exp5 cell,
        keyed by the mask object."""
        from ctgsvm.experiments import EXPERIMENT_IDS, RUNNERS

        for exp_id in EXPERIMENT_IDS:
            RUNNERS[exp_id](quick_pipe)
        assert len(smo_calls) == 118

    def test_quick_all_run_fits_a_standardizer_per_build(self, quick_pipe, monkeypatch):
        """A quick `all` run fits 10 standardizers: one for each of its 9
        problems, one per column set, and one for its one ensemble, where
        `pairwise_problems` and `bagging_train` build them. It fitted 46
        when every `models` and `ensemble` call fitted one."""
        from ctgsvm import bagging, experiments

        fitted = []
        real = svm.fit_standardizer
        for module in (svm, bagging):
            monkeypatch.setattr(module, "fit_standardizer", lambda ds, cols: fitted.append(cols) or real(ds, cols))
        for exp_id in experiments.EXPERIMENT_IDS:
            experiments.RUNNERS[exp_id](quick_pipe)
        assert (len(fitted), len(quick_pipe._problems), len(quick_pipe._ensembles)) == (10, 9, 1)

    def test_certified_reuse_lasts_across_calls(self, quick_pipe, smo_calls, tmp_path):
        """C=1000 asked for after C=500 at degree 4, in two calls, reuses the
        3 certified C=500 machines, and the model saves to the bytes of
        train_multiclass at C=1000 on a fresh problem."""
        from ctgsvm.data import fit_standardizer

        pipe = quick_pipe
        pipe.models(None, [(500.0, 4)])
        [model] = pipe.models(None, [(1000.0, 4)])
        assert len(smo_calls) == 3 and all(a is b for a, b in zip(model.machines, smo_calls, strict=True))
        fresh = train_multiclass(pipe.train, pipe.cfg.svm(1000.0, 4), None, fit_standardizer(pipe.train))
        save_model(model, tmp_path / "served.txt")
        save_model(fresh, tmp_path / "fresh.txt")
        assert (tmp_path / "served.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()


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

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            ({1: "0\t1"}, 1, "machine 0 1 out of one-vs-one order, expected 0 2"),
            ({2: "2\t2"}, 2, "machine 2 2 out of one-vs-one order, expected 1 2"),
            ({1: "1\t2", 2: "0\t2"}, 1, "machine 1 2 out of one-vs-one order, expected 0 2"),
            ({0: "1\t0"}, 0, "machine 1 0 out of one-vs-one order, expected 0 1"),
        ],
        ids=["repeated-pair", "diagonal", "swapped", "reversed"],
    )
    def test_machines_out_of_pair_order_rejected(self, tmp_path, edit, line, message):
        """A model file holds machine k for pair k of `_pairs`, so a header
        naming any other pair is refused at its line, even one that names
        in-range classes."""
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        lines = path.read_text().splitlines()
        at = [i for i, ln in enumerate(lines) if ln.startswith("machine\t")]
        assert [tuple(map(int, lines[i].split("\t")[1:3])) for i in at] == list(svm._pairs(3))
        for k, pair in edit.items():
            parts = lines[at[k]].split("\t")
            lines[at[k]] = "\t".join(["machine", *pair.split("\t"), *parts[3:]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"malformed model file: {message} at line {at[line] + 1}$"):
            load_model(path)

    def test_machine_count_is_the_pair_count(self, tmp_path):
        """One machine too many or too few is refused: a third class's
        machines end where the end marker must stand."""
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        lines = path.read_text().splitlines()
        at = [i for i, ln in enumerate(lines) if ln.startswith("machine\t")]
        for bad in (lines[:at[2]] + ["end"], lines[:-1] + lines[at[2]:]):
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(DataError, match="malformed model file: expected '(machine|end)' at line"):
                load_model(path)

    def test_fewer_than_two_classes_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(train_multiclass(sep3(seed=4), cfgp(10.0, 3)), path)
        lines = path.read_text().splitlines()
        lines[1:3] = ["classes\tA", "counts\t9"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="malformed model file: fewer than 2 classes at line 2$"):
            load_model(path)

    @pytest.mark.parametrize("first_sv", ["sv", "sv\t+1", "sv\t+1\t0x1p-1"])
    def test_support_row_without_values_rejected(self, tmp_path, first_sv):
        """A support row holds a label, an alpha and one value per column
        of the standardizer."""
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
            ("counts", 1, "0"),
            ("counts", 2, "-3"),
            ("kernel", 1, "rbf"),
            ("kernel", 3, "nan"),
            ("standardizer", 1, "0"),
            ("standardizer", 1, "-1"),
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
        ids=["count-zero", "count-negative", "kind-rbf", "coef0-nan", "width-zero", "width-negative", "mean-inf", "sigma-nan", "sigma-zero", "sigma-negative", "bias-nan",
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
