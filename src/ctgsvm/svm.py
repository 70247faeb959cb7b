"""Soft-margin SVM with a polynomial kernel, trained by sequential minimal
optimization, plus the one-vs-one wrapper for multiclass problems.

Each solver step takes the first row of the most-violating pair and, as its
partner, the row of largest second-order gain (Fan, Chen & Lin, JMLR 2005),
or the most-violating partner when that pair cannot move; ties go to the
lowest index, so the solver is fully deterministic. A sweep ends when the
pair's violation is within tolerance, when neither partner moves, or at
the update cap. Convergence is then verified against the dual feasibility
gap of the resynced error cache, with at most three more sweeps, and the
bias is recomputed from the unbounded support rows.

SMO finds its support set early and spends most of its updates polishing
it. So once the free set F, the rows with 0 < alpha < C, has not changed
for _FINISH_AFTER updates, the solve tries to finish exactly from there by
active-set steps (SimpleSVM, Vishwanathan, Smola & Murty, ICML 2003;
incremental SVM, Cauwenberghs & Poggio, NIPS 2000): it solves the KKT
system of F with every other alpha held at its bound, steps a row that
leaves the box to its bound and out of F, and adds to F the bounded row
that violates its KKT condition most, each step an O(f^2) update of one
inverse of F's bordered KKT matrix. The finish ends the solve only if the
full dual feasibility gap, over every row, is then within tolerance;
otherwise SMO goes on from the state before it, and tries again once F has
changed and settled.

A converged machine whose every alpha lies below C has the same free set,
bounded set, gap and bias at any C' above its largest alpha, as C enters
the KKT conditions only through a < C (the dual solution is constant in C
until an alpha meets the wall; Hastie, Rosset, Tibshirani & Zhu, JMLR
2004). So a `PairProblem` keeps its machines, and such a machine serves
any such C' on that problem in any later call: an optimum at C', though a
fresh solve at C' may reach it by another path.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, Standardizer, _read_text, feature_columns, fit_standardizer

_CACHE_BYTES = 32 << 20  # kernel rows a solve keeps: every row of a problem of up to 2048 rows
_ETA_ROWS = 128  # eta rows a solve memoizes: at most 1.4 MB at 1400 rows
_FINISH_AFTER = 32  # updates with an unchanged free set before a solve tries to finish from it
_FINISH_ROWS = 256  # the largest free set, and the most steps, of a finish: two buffers of at most 0.5 MB
_SINGULAR = 1e-10  # a finish's Schur complement pivot at or below this share of its kernel diagonal is singular
_BORDER_ROWS = 32  # rows of the free set a finish's first KKT inverse is bordered with at a time
EPSILON = 1e-12  # alpha moves, and a finished sum(a y) relative to sum(a), below this scale count as zero
_BLOCK = 1 << 15  # elements per block of a prediction's kernel values and of its decisions (256 KiB)
_LOG_KERNEL_MAX = math.log(np.finfo(float).max)  # the log of the largest finite kernel value
MODEL_MAGIC = "ctgsvm-model"
MODEL_VERSION = 2


@dataclass(frozen=True)
class KernelSpec:
    """The polynomial kernel (x . y + coef0) ** degree."""

    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if isinstance(self.degree, bool) or not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
            raise DataError(f"kernel degree must be an integer >= 1, not {self.degree!r}")
        if not math.isfinite(self.coef0):
            raise DataError(f"kernel coef0 must be finite, not {self.coef0!r}")


@dataclass(frozen=True)
class SvmConfig:
    C: float
    kernel: KernelSpec
    tolerance: float = 1e-3
    max_iter: int = 200_000

    def __post_init__(self):
        if not 0 < self.C < math.inf:
            raise DataError(f"C must be positive and finite, not {self.C!r}")
        if not 0 < self.tolerance < math.inf:
            raise DataError(f"tolerance must be positive and finite, not {self.tolerance!r}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be at least 1, not {self.max_iter!r}")


def kernel_matrix(U, V, spec: KernelSpec) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape[1] != V.shape[1]:
        raise DataError("kernel arguments must have equal width")
    return _polynomial(U @ V.T, spec)


def _polynomial(dots: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """(dots + coef0) ** degree, computed in place on the dot products that
    the caller hands over (one kernel row, one diagonal or one block of a
    prediction's kernel), and returned.

    The power is left-to-right square-and-multiply over the degree's bits,
    with a copy of the base when a lower bit is set: a few multiplies
    replace libm `pow`. Values may differ from `**` in the last one or two
    ulps.
    """
    dots += spec.coef0
    steps = bin(spec.degree)[3:]  # the bits below the leading one
    base = dots.copy() if "1" in steps else None
    for bit in steps:
        np.multiply(dots, dots, out=dots)
        if bit == "1":
            np.multiply(dots, base, out=dots)
    return dots


class _KernelSource:
    """The kernel rows of X under spec for one solve, each built the first
    time the solver reads it and kept, oldest evicted first, while the rows
    fit in _CACHE_BYTES: the row cache of LIBSVM (Chang & Lin 2011). A solve
    reads a small share of its rows, so no solve builds the whole kernel.

    Row i is powered from X[i] @ X.T, a product over a feature-major copy
    of X padded with zero columns to a multiple of 4: OpenBLAS computes
    four outputs at a time and sums the last n % 4 in another order, so
    without the padding K[i, j] and K[j, i], or the entries of two equal
    rows, could differ in the last bit. `diag` sums each row's squares in
    numpy's order, which can differ from row(i)[i] in the last bit."""

    def __init__(self, X: np.ndarray, spec: KernelSpec):
        n = len(X)
        self.X, self.spec = X, spec
        self.columns = np.zeros((X.shape[1], n + -n % 4))
        self.columns[:, :n] = X.T
        self.rows: dict[int, np.ndarray] = {}  # oldest first
        self.keep = max(1, _CACHE_BYTES // (8 * n))
        squares = np.einsum("ij,ij->i", X, X)
        # every |K[i, j]| is at most (max |x|^2 + |coef0|) ** degree (Cauchy-Schwarz)
        base = float(squares.max()) + abs(spec.coef0)
        if base > 1.0 and spec.degree * math.log(base) > _LOG_KERNEL_MAX:
            raise DataError(f"kernel values overflow at degree {spec.degree}, coef0 {spec.coef0!r}")
        self.diag = _polynomial(squares, spec)

    def row(self, i: int) -> np.ndarray:
        got = self.rows.get(i)
        if got is None:
            if len(self.rows) >= self.keep:
                del self.rows[next(iter(self.rows))]
            got = self.rows[i] = _polynomial(self.X[i] @ self.columns, self.spec)[:len(self.X)]
        return got

    def full_g(self, coef: np.ndarray) -> np.ndarray:
        """K @ coef, summed row by row over the nonzero coefficients in index
        order. A row with a nonzero alpha has been updated, so it is built."""
        g = np.zeros(len(self.X))
        for j in np.flatnonzero(coef).tolist():
            g += coef[j] * self.row(j)
        return g


@dataclass
class BinarySvm:
    """A trained two-class machine: support rows with their dual weights."""

    support_vectors: np.ndarray
    alphas: np.ndarray
    labels: np.ndarray  # +/-1 per support row
    bias: float
    kernel: KernelSpec
    converged: bool = True
    n_updates: int = 0

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise DataError("invalid model: empty support set")


@dataclass(frozen=True)
class _Stack:
    """Groups of one-vs-one machines evaluated in one pass: their distinct
    support rows U, the coefficient matrix A (|U| x machines) of alpha *
    label, summed over rows a machine holds more than once, the biases, and
    one group's pair-to-class matrix. The decisions of a batch X are
    kernel_matrix(X, U) @ A + bias: each kernel value is computed once for
    every machine holding the row, as in LIBSVM's one-vs-one predictor
    (Chang & Lin 2011). A model is one group; an ensemble has one group per
    member, in member order."""

    support: np.ndarray
    coef: np.ndarray
    bias: np.ndarray
    kernel: KernelSpec
    to_class: np.ndarray  # (classes, 2 * pairs): one-hot first classes, then second classes

    @classmethod
    def of(cls, machines, n_classes: int) -> _Stack:
        """The stack of `machines`, groups of one machine per pair of `_pairs(n_classes)`."""
        kernel = machines[0].kernel
        if any(m.kernel != kernel for m in machines):
            raise DataError("machines evaluated together must share one kernel")
        rows = np.ascontiguousarray(np.concatenate([m.support_vectors for m in machines]))
        # distinct rows by their bytes, one void item per row: several
        # times faster than np.unique(axis=0); rows that differ only as
        # -0.0 and 0.0 stay apart, which costs one kernel column
        _, first, where = np.unique(
            rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1),
            return_index=True, return_inverse=True,
        )
        support = rows[first]
        column = np.repeat(np.arange(len(machines)), [len(m.alphas) for m in machines])
        coef = np.zeros((len(support), len(machines)))
        np.add.at(coef, (where.reshape(-1), column), np.concatenate([m.alphas * m.labels for m in machines]))
        onehot, (ci, cj) = np.eye(n_classes), np.array(_pairs(n_classes)).T
        to_class = np.hstack([onehot[:, ci], onehot[:, cj]])
        return cls(support, coef, np.array([m.bias for m in machines]), kernel, to_class)

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """The (rows, machines) decision values of X, a block of rows at a
        time, so that no kernel block holds more than _BLOCK values."""
        step = max(1, _BLOCK // len(self.support))
        out = np.empty((len(X), self.coef.shape[1]))
        for lo in range(0, len(X), step):
            out[lo:lo + step] = kernel_matrix(X[lo:lo + step], self.support, self.kernel) @ self.coef
        return out + self.bias

    def vote(self, X: np.ndarray, priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each group's one-vs-one vote on each row of X, with one row of
        class priors (groups, classes) per group: the (rows, groups) winning
        class indices and tie flags. Rows go a block at a time, so that no
        block of decisions holds more than _BLOCK values."""
        groups = len(priors)
        winners = np.empty((len(X), groups), dtype=np.intp)
        tied = np.empty((len(X), groups), dtype=bool)
        step = max(1, _BLOCK // self.coef.shape[1])
        for lo in range(0, len(X), step):
            d = self.decisions(X[lo:lo + step]).reshape(-1, groups, self.to_class.shape[1] // 2)
            winners[lo:lo + step], tied[lo:lo + step] = _ovo_vote(d, self.to_class, priors)
        return winners, tied


def _ovo_vote(d: np.ndarray, to_class: np.ndarray, priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-vs-one vote of each group on decisions d (rows, groups,
    pairs), with class priors (groups, classes): a machine votes for its
    first class where its decision is >= 0, else for its second, and adds
    |decision| to that class's strength. Returns the (rows, groups) winners
    and tie flags; a tie goes to the larger strength, then the larger prior,
    then the earlier class. Classes run along the first axis, so every
    reduction over them is elementwise across rows. With three classes each
    strength sums two decisions, so it equals a loop's sum exactly."""
    rows, groups, pairs = d.shape
    flat = np.ascontiguousarray(d.reshape(-1, pairs).T)
    pos = flat >= 0
    shape = (len(to_class), rows, groups)
    votes = (to_class @ np.concatenate([pos, ~pos])).reshape(shape)
    strength = (to_class @ np.concatenate([np.where(pos, flat, 0.0), np.where(pos, 0.0, -flat)])).reshape(shape)
    cand = votes == votes.max(axis=0)
    tied = cand.sum(axis=0) > 1
    for key in (strength, priors.T[:, None, :]):
        key = np.where(cand, key, -np.inf)
        cand &= key == key.max(axis=0)
    return cand.argmax(axis=0), tied


def _pair_step(alphas, y, e1, e2, C, eta, i1, i2):
    """The analytic update of the pair (i1, i2), whose errors are e1 and e2
    and whose curvature is eta, not yet applied: (i2, a1, a2, d1, d2), or
    None when the pair cannot move.

    eta is the pair's entry of the eta row the selection holds, clamped at
    1e-12, so a pair of zero or negative curvature takes a long step that
    the box clips, as in LIBSVM (Fan, Chen & Lin, JMLR 2005).
    """
    if i1 == i2:
        return None
    # Python floats: the same IEEE double arithmetic as numpy scalars, at a
    # fraction of the per-operation cost
    a1o, a2o = float(alphas[i1]), float(alphas[i2])
    y2 = float(y[i2])
    s = float(y[i1]) * y2
    if s < 0:
        L = max(0.0, a2o - a1o)
        H = min(C, C + a2o - a1o)
    else:
        L = max(0.0, a1o + a2o - C)
        H = min(C, a1o + a2o)
    if L >= H:
        return None
    a2 = min(max(a2o + y2 * (e1 - e2) / eta, L), H)
    if abs(a2 - a2o) < EPSILON * (a2 + a2o + EPSILON):
        return None
    a1 = a1o + s * (a2o - a2)
    # push any float residue outside the box back into a2, keeping the
    # equality constraint intact
    if a1 < 0.0:
        a2 += s * a1
        a1 = 0.0
    elif a1 > C:
        a2 += s * (a1 - C)
        a1 = C
    # snap cancellation crumbs onto the box walls (threshold relative to
    # the pair's own scale); a stray 1e-19 alpha would otherwise sit on
    # top of the violating-pair ordering forever, blocking progress
    crumb = 1e-12 * max(a1o, a2o, a1, a2)
    if 0.0 < a1 < crumb:
        a2 += s * a1
        a1 = 0.0
    elif 0.0 < C - a1 < crumb:
        a2 += s * (a1 - C)
        a1 = C
    if 0.0 < a2 < crumb:
        a1 += s * a2
        a2 = 0.0
    elif 0.0 < C - a2 < crumb:
        a1 += s * (a2 - C)
        a2 = C
    a1 = min(max(a1, 0.0), C)
    a2 = min(max(a2, 0.0), C)
    return i2, a1, a2, a1 - a1o, a2 - a2o


def _kkt(K: _KernelSource, y: np.ndarray, a: np.ndarray, C: float):
    """g = K @ (a * y), b_est = y - g, and the ends m_up and m_low of the
    dual feasibility gap m_up - m_low: the largest b_est over I_up and the
    smallest over I_low."""
    g = K.full_g(a * y)
    b_est = y - g
    pos = y > 0
    return g, b_est, b_est[np.where(pos, a < C, a > 0.0)].max(), b_est[np.where(pos, a > 0.0, a < C)].min()


def _sweep(S: np.ndarray, floor: np.ndarray) -> bool:
    """Invert the small symmetric matrix S in place by Gauss-Jordan sweeps
    without pivoting, or return False when a pivot is not above its floor
    or not finite."""
    for k in range(len(S)):
        d = S[k, k]
        if not floor[k] < d < math.inf:
            return False
        row, col = S[k] / d, S[:, k].copy()
        S -= np.multiply.outer(col, row)
        S[k], S[:, k] = row, col / d
        S[k, k] = -1.0 / d
    np.negative(S, out=S)  # a sweep over every pivot leaves -S^-1
    return True


class _KktInverse:
    """The inverse R of the bordered KKT matrix [[0, y_F'], [y_F, Q_FF]] of
    a free set F, Q = yy' o K, with the bias at position 0 and the rows of F
    in the order they joined, starting from one row i: [[-Q_ii, y_i], [y_i,
    0]]. R lives in one of two buffers of cap^2 values, contiguous at its
    size; an update writes the new R into the other one.

    No operation calls BLAS or LAPACK, whose results can depend on the
    thread count (with OpenBLAS 0.3.31, a LAPACK solve of 128 rows differs
    in its last bits between 1 and 2 threads): matrix products are numpy's
    own `einsum` loops (not optimized, so no BLAS), which give the same
    bits whatever the layout of their operands."""

    def __init__(self, y_i: float, q_ii: float, cap: int):
        self.bufs = np.empty((2, cap * cap))
        self.cur, self.m = 0, 2
        self.R[...] = [[-q_ii, y_i], [y_i, 0.0]]

    def _buf(self, which: int, m: int) -> np.ndarray:
        return self.bufs[which, :m * m].reshape(m, m)

    @property
    def R(self) -> np.ndarray:
        return self._buf(self.cur, self.m)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", self.R, rhs)

    def add(self, B: np.ndarray) -> bool:
        """Border the matrix by the b rows B (b, m + b): the new rows over
        the current rows, then over themselves. With U' = B[:, :m], D =
        B[:, m:] and the Schur complement S = D - U' R U, the new R is
        [[R + R U S^-1 U' R, -R U S^-1], [-S^-1 U' R, S^-1]], in O(m^2 b)
        operations. R U and U' R are both computed, as an R that is not
        exactly symmetric would otherwise grow its asymmetry from one
        update to the next. False, and R unchanged, when a pivot of S is
        not finite or not above _SINGULAR times its entry of D: S is
        positive definite while Q is on the rows, so such a pivot says
        that a new row depends on the others."""
        m, b, R = self.m, len(B), self.R
        Ut = B[:, :m]
        W = np.einsum("ij,kj->ik", R, Ut)
        Z = np.einsum("ij,jk->ik", Ut, R)
        S = B[:, m:] - np.einsum("ij,jk->ik", Ut, W)
        if not _sweep(S, _SINGULAR * np.diag(B[:, m:])):
            return False
        V = np.einsum("ij,jk->ik", W, S)
        N = self._buf(1 - self.cur, m + b)
        np.einsum("ik,kj->ij", V, Z, out=N[:m, :m])
        N[:m, :m] += R
        N[:m, m:] = -V
        N[m:, :m] = -np.einsum("ij,jk->ik", S, Z)
        N[m:, m:] = S
        self.cur, self.m = 1 - self.cur, m + b
        return True

    def drop(self, p: int) -> None:
        """Remove row and column p of the matrix, in O(m^2) operations; the
        others keep their order."""
        m, R = self.m - 1, self.R
        c = np.delete(R[:, p], p) / R[p, p]
        r = np.delete(R[p], p)
        N = self._buf(1 - self.cur, m)
        N[:p, :p], N[:p, p:] = R[:p, :p], R[:p, p + 1:]
        N[p:, :p], N[p:, p:] = R[p + 1:, :p], R[p + 1:, p + 1:]
        N -= np.multiply.outer(c, r, out=self._buf(self.cur, m))
        self.cur, self.m = 1 - self.cur, m


def _bordered_rows(K: _KernelSource, y: np.ndarray, rows: list[int], new: list[int]) -> np.ndarray:
    """The rows of the bordered KKT matrix of the free set rows + new that
    belong to new, over the bias, rows and new: [y_new, Q_new,rows,
    Q_new,new]."""
    cols = np.array(rows + new)
    B = np.empty((len(new), len(cols) + 1))
    for r, i in enumerate(new):
        np.take(K.row(i), cols, out=B[r, 1:])
    B[:, 1:] *= y[cols]
    B *= y[new, None]
    B[:, 0] = y[new]
    return B


def _finish(K: _KernelSource, y: np.ndarray, a: np.ndarray, C: float, tol: float):
    """The optimum reached from the alphas a by active-set steps that add or
    drop one row of the free set F at a time: SimpleSVM (Vishwanathan,
    Smola & Murty, ICML 2003) and incremental SVM (Cauwenberghs & Poggio,
    NIPS 2000). Returns the finished alphas, or None when there is no
    finish.

    F starts as the rows with 0 < a < C, and every other alpha is held at 0
    or C. h = K @ (C y) over the rows at C carries those to the right-hand
    side, so that R @ [-C sum(y over the rows at C); 1 - y_F h_F], with R
    the `_KktInverse` of F, gives the bias b and a_F. R is built by
    bordering it with _BORDER_ROWS rows of F at a time. Each step then does
    one of two things:
    - a solution outside the box steps from a to the first bound it meets,
      and that row leaves F: R drops its row;
    - a solution inside the box is taken. If the full dual feasibility gap,
      over every row, is still above tol, the bounded row that violates its
      KKT condition most at the bias b joins F: R is bordered by its row.
    Either update costs O(f^2) operations, the first R O(f^3).

    The finished alphas are kept when the gap is within tol and sum(a y) is
    0 within EPSILON of sum(a), which a nearly singular system can break.
    These give None: an F of none or of more than _FINISH_ROWS rows, a row
    that depends on the rows of F (see `_KktInverse.add`), a row that
    joined F and leaves the box at once on the side it came from (it would
    be dropped and added again), and _FINISH_ROWS steps without a finish.
    """
    rows = np.flatnonzero((a > 0.0) & (a < C)).tolist()
    if not 0 < len(rows) <= _FINISH_ROWS:
        return None
    a = a.copy()
    net = float(y[a == C].sum())  # a small integer, exact
    h = K.full_g(np.where(a == C, C * y, 0.0))
    i = rows[0]
    inv = _KktInverse(y[i], K.row(i)[i], min(_FINISH_ROWS, len(a)) + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(1, len(rows), _BORDER_ROWS):
            if not inv.add(_bordered_rows(K, y, rows[:lo], rows[lo:lo + _BORDER_ROWS])):
                return None
        added = None
        for _ in range(_FINISH_ROWS):
            idx = np.array(rows)
            yf = y[idx]
            x = inv.solve(np.append(-C * net, 1.0 - yf * h[idx]))
            if not np.isfinite(x).all():
                return None
            b, new = x[0], x[1:]
            below, above = new < 0.0, new > C
            if added is not None and (below[-1] if a[added] == 0.0 else above[-1]):
                return None
            added = None
            if (below | above).any():
                # the share of the way from a to the solution at which each
                # row leaving the box meets its bound; a_F lies in the box,
                # so no denominator is 0
                old = a[idx]
                t = np.full(len(rows), np.inf)
                t[below] = old[below] / (old[below] - new[below])
                t[above] = (C - old[above]) / (new[above] - old[above])
                k = int(t.argmin())
                a[idx] = np.clip(old + t[k] * (new - old), 0.0, C)
                i = rows.pop(k)
                a[i] = 0.0 if below[k] else C
                if above[k]:
                    h += (C * y[i]) * K.row(i)
                    net += y[i]
                if not rows:
                    return None
                inv.drop(k + 1)
            else:
                a[idx] = new
                # R's bias column moves sum(a y) alone: fold the rounding
                # left in it back, unless that leaves the box
                r0 = -math.fsum((a * y).tolist())
                fixed = new + r0 * inv.R[1:, 0]
                if ((fixed >= 0.0) & (fixed <= C)).all():
                    a[idx], b = fixed, b + r0 * inv.R[0, 0]
                _, b_est, m_up, m_low = _kkt(K, y, a, C)
                if m_up - m_low <= tol:
                    balanced = abs(math.fsum((a * y).tolist())) <= EPSILON * math.fsum(a.tolist())
                    return a if balanced else None
                # each bounded row's violation of its KKT condition at the
                # bias b: positive when it should leave its bound
                v = np.where(a == 0.0, y, -y) * (b_est - b)
                v[idx] = -np.inf
                s = int(v.argmax())
                if not v[s] > 0.0 or len(rows) == _FINISH_ROWS or not inv.add(_bordered_rows(K, y, rows, [s])):
                    return None
                if a[s] == C:
                    h -= (C * y[s]) * K.row(s)
                    net -= y[s]
                rows.append(s)
                added = s
    return None


def smo_train(X, y, cfg: SvmConfig) -> BinarySvm:
    """Train a binary soft-margin SVM by pairwise dual updates.

    Maximizes sum(a) - 1/2 sum a_i a_j y_i y_j K(x_i, x_j) subject to the
    box 0 <= a <= C and sum a_i y_i = 0. Hitting the update cap returns the
    best-so-far model flagged as non-converged instead of raising.

    Kernel rows are built when the solve first reads them (`_KernelSource`).
    Once the free set has stayed the same for _FINISH_AFTER updates, the
    solve tries to end exactly by active-set steps from it, adding and
    dropping rows of the free set (`_finish`); a finish that fails leaves
    the state as it was.

    The error cache holds E = g - y with no bias, which cancels out of every
    selection and step; the bias is computed once, from the final alphas.
    An update makes 12 passes over arrays of n entries when the eta row of
    its first row is memoized, and 4 more to build that row when it is not:
    two to pick the most-violating pair, five for the second-order gain,
    three for the error delta and two to add it to both masked error caches.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise DataError("need at least 2 training rows")
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be +/-1, one per row")
    if np.all(y == y[0]):
        raise DataError("single-class input")

    C = float(cfg.C)
    tol = float(cfg.tolerance)
    K = _KernelSource(X, cfg.kernel)

    # What an update reads and writes one entry at a time lives in Python
    # lists; the alphas become an array only where the solve needs all of
    # them. I_up holds the rows whose y * alpha can still rise (y = +1 below
    # C, y = -1 above 0), I_low the mirror; all alphas start at 0 < C.
    ys = y.tolist()
    pos = [v > 0 for v in ys]
    alphas = [0.0] * n
    up, low = pos[:], [not p for p in pos]
    g = np.zeros(n)  # K @ (alphas * y) as of the last resync
    updates = 0
    since = 0  # the update that last changed the free set, the rows with 0 < alpha < C
    # The error cache E = g - y, the gradient form of LIBSVM (Chang & Lin
    # 2011), is held only as two masked copies, rows of one array so that an
    # update adds its delta to both in one call: e_up is E on I_up and +inf
    # elsewhere, e_low is E on I_low and -inf elsewhere. Every row is in I_up
    # or I_low, so one of the two holds its E; adding a finite delta keeps
    # +-inf where it is.
    cache = np.empty((2, n))
    e_up, e_low = cache
    fill = np.array([[np.inf], [-np.inf]])

    def err(k: int) -> float:
        return float(e_up[k] if up[k] else e_low[k])

    # eta = max(diag + diag[i] - 2 K[i], 1e-12) of each first row i, oldest
    # first, held in the rows of one block. A solve draws its first rows
    # from a few dozen rows, so most updates find theirs here.
    etas: dict[int, np.ndarray] = {}
    eta_rows = np.empty((min(_ETA_ROWS, n), n))
    gain, delta, scratch = np.empty(n), np.empty(n), np.empty(n)
    for sweep in range(4):
        # at sweep 0, g - y is -y; later sweeps resync the incremental
        # cache, which can drift, and re-verify
        np.copyto(cache, np.where([up, low], g - y, fill))
        # Most-violating pair with second-order partner choice: I_up rows
        # want smaller E, I_low rows larger. eta is built in the float order
        # of diag[i] + diag - 2 K[i], the gain in that of (E - E[i]) ** 2 /
        # eta, and the error update in that of y1 d1 K[i] + y2 d2 K[i2].
        while updates < cfg.max_iter:
            i = int(e_up.argmin())
            j_max = int(e_low.argmax())
            e_i = err(i)
            if err(j_max) - e_i <= tol:
                break
            row1 = K.row(i)
            eta = etas.get(i)
            if eta is None:
                # a free row of the block, or else the oldest one's
                eta = eta_rows[len(etas)] if len(etas) < len(eta_rows) else etas.pop(next(iter(etas)))
                np.add(K.diag, K.diag[i], out=eta)
                np.multiply(row1, 2.0, out=gain)
                np.subtract(eta, gain, out=eta)
                np.maximum(eta, 1e-12, out=eta)
                etas[i] = eta
            # the gain of the I_low rows with E > E[i]; every other row's
            # difference is clamped to 0 (-inf - E[i] among them), so its
            # gain is 0 and loses to any positive gain
            np.subtract(e_low, e_i, out=gain)
            np.maximum(gain, 0.0, out=gain)
            np.multiply(gain, gain, out=gain)
            np.divide(gain, eta, out=gain)
            j = int(gain.argmax())
            if not gain[j] > 0.0:
                # no gain is positive (each eligible one underflowed or met an
                # infinite eta) or one is NaN: with the ineligible rows at
                # -inf, argmax picks as the plain masked gain does
                np.putmask(gain, e_low <= e_i, -np.inf)
                j = int(gain.argmax())
            step = _pair_step(alphas, ys, e_i, err(j), C, float(eta[j]), i, j)
            if step is None:
                step = _pair_step(alphas, ys, e_i, err(j_max), C, float(eta[j_max]), i, j_max)
            if step is None:
                break  # numerically stuck; the gap check below decides
            i2, a1, a2, d1, d2 = step
            np.multiply(row1, ys[i] * d1, out=delta)
            np.multiply(K.row(i2), ys[i2] * d2, out=scratch)
            np.add(delta, scratch, out=delta)
            np.add(cache, delta, out=cache)
            changed = False
            for k, a in ((i, a1), (i2, a2)):
                e = err(k)
                free = up[k] and low[k]
                alphas[k] = a
                up[k], low[k] = (a < C, a > 0.0) if pos[k] else (a > 0.0, a < C)
                changed = changed or free != (up[k] and low[k])
                e_up[k] = e if up[k] else np.inf
                e_low[k] = e if low[k] else -np.inf
            updates += 1
            if changed:
                since = updates
            elif updates - since == _FINISH_AFTER:
                done = _finish(K, y, np.array(alphas), C, tol)
                if done is not None:
                    alphas = done.tolist()
                    break
            if updates % 4096 == 0:
                # shed accumulated drift
                np.copyto(cache, np.where([up, low], K.full_g(np.array(alphas) * y) - y, fill))
        g, b_est, m_up, m_low = _kkt(K, y, np.array(alphas), C)
        if m_up - m_low <= tol or updates >= cfg.max_iter:
            break

    alphas = np.array(alphas)
    converged = (m_up - m_low) <= tol
    unbounded = (alphas > 0.0) & (alphas < C)
    if unbounded.any():
        bias = float(b_est[unbounded].mean())
    else:
        bias = float((m_up + m_low) / 2.0)

    sv = alphas > 0.0
    if not sv.any():
        # degenerate but satisfiable KKT state; keep the largest-alpha row
        sv = np.zeros(n, dtype=bool)
        sv[int(np.argmax(alphas))] = True
    return BinarySvm(
        support_vectors=X[sv].copy(),
        alphas=alphas[sv].copy(),
        labels=y[sv].copy(),
        bias=bias,
        kernel=cfg.kernel,
        converged=converged,
        n_updates=updates,
    )


# ---------------------------------------------------------------------------
# One-vs-one multiclass


def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The one-vs-one class pairs of k classes in machine order: (0, 1),
    (0, 2), ..., (1, 2), ..., (k - 2, k - 1). Models, stacks and model files
    hold their machines in this order."""
    return tuple((ci, cj) for ci in range(k) for cj in range(ci + 1, k))


@dataclass(frozen=True)
class PairProblem:
    """The training rows of one class pair: class ci's labelled +1, cj's -1,
    and the (config, machine) of each solve made on them, in solve order."""

    ci: int
    cj: int
    X: np.ndarray
    yb: np.ndarray
    solves: list[tuple[SvmConfig, BinarySvm]] = field(default_factory=list, init=False, repr=False, compare=False)


@dataclass
class MulticlassProblem:
    """The pair problems of one table, and the models built from their
    machines, keyed by the machines' ids, which the pairs keep alive."""

    classes: tuple[str, ...]
    class_counts: np.ndarray
    problems: list[PairProblem]
    width: int
    feature_mask: tuple[int, ...]
    standardizer: Standardizer
    models: dict[tuple[int, ...], SvmModel] = field(default_factory=dict, init=False, repr=False)


def pairwise_problems(
    train: Dataset,
    feature_mask=None,
    standardizer: Standardizer | None = None,
) -> MulticlassProblem:
    """The training matrices of each class pair of `train`, built once for
    every `train_from_problems` call on them. Features are standardized by
    `standardizer`, by default the one fitted on the masked columns of
    `train`. A mask column outside the table, or a standardizer fitted on
    columns of other names than the masked ones, is a DataError."""
    k = len(train.class_labels)
    if k < 2:
        raise DataError("need at least 2 classes")
    codes = train.class_codes()
    counts = np.bincount(codes, minlength=k)
    if (counts == 0).any():
        missing = train.class_labels[int(np.flatnonzero(counts == 0)[0])]
        raise DataError(f"class {missing!r} absent from training data")
    mask = feature_columns(train, feature_mask)
    if standardizer is None:
        standardizer = fit_standardizer(train, mask)
    fitted = tuple(spec.name for spec in standardizer.feature_schema)
    masked = tuple(train.feature_names[i] for i in mask)
    if fitted != masked:
        raise DataError(f"standardizer fitted on {list(fitted)}, not on the masked columns {list(masked)}")
    feats = standardizer.transform_features(train.feature_matrix()[:, list(mask)])
    problems = []
    for ci, cj in _pairs(k):
        idx = np.flatnonzero((codes == ci) | (codes == cj))
        X = np.ascontiguousarray(feats[idx])
        yb = np.where(codes[idx] == ci, 1.0, -1.0)
        problems.append(PairProblem(ci, cj, X, yb))
    return MulticlassProblem(train.class_labels, counts, problems, train.n_features, mask, standardizer)


@dataclass
class SvmModel:
    """One binary machine per unordered class pair, in `pairs` order, voting
    for predictions on the columns `feature_mask` of a table of `width` features."""

    classes: tuple[str, ...]
    class_counts: np.ndarray
    machines: list[BinarySvm]
    width: int
    feature_mask: tuple[int, ...]
    standardizer: Standardizer

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return _pairs(len(self.classes))

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.machines)

    def _prepare(self, feats: np.ndarray) -> np.ndarray:
        """The columns of feats that the model reads, standardized. Rows must
        have the width of the training table, and a NaN or infinite value in
        a column the model reads is a DataError naming that column."""
        if feats.shape[1] != self.width:
            raise DataError(f"feature width {feats.shape[1]}: the model was trained on {self.width} features")
        feats = feats[:, list(self.feature_mask)]
        if not np.isfinite(feats).all():
            j = int(np.flatnonzero(~np.isfinite(feats).all(axis=0))[0])
            raise DataError(f"prediction column {self.feature_mask[j] + 1} holds a non-finite value")
        return self.standardizer.transform_features(feats)

    @cached_property
    def _stack(self) -> _Stack:
        # built on first prediction; a model does not change once built
        return _Stack.of(self.machines, len(self.classes))

    def predict_matrix(self, feats: np.ndarray) -> tuple[list[str], dict]:
        feats = self._prepare(np.asarray(feats, dtype=float))
        priors = self.class_counts / self.class_counts.sum()
        winners, tied = self._stack.vote(feats, priors[None])
        return [self.classes[w] for w in winners[:, 0]], {"vote_ties": int(tied.sum())}

    def _check_columns(self, names: tuple[str, ...]) -> None:
        """The prediction table's feature names must be the training table's:
        as many as the model's width, and at each column the model reads the
        name its standardizer records, so a wider or reordered table fails."""
        if len(names) != self.width:
            raise DataError(f"feature width {len(names)}: the model was trained on {self.width} features")
        for i, spec in zip(self.feature_mask, self.standardizer.feature_schema):
            if names[i] != spec.name:
                raise DataError(f"prediction column {i + 1} is {names[i]!r}; the model expects {spec.name!r}")

    def predict_dataset(self, ds: Dataset) -> tuple[list[str], dict]:
        self._check_columns(ds.feature_names)
        return self.predict_matrix(ds.feature_matrix())

    def predict_values(self, values) -> str:
        return self.predict_matrix(_one_row(values))[0][0]


def _one_row(values) -> np.ndarray:
    """The values of one instance, a 1-D sequence, as a (1, width) matrix."""
    row = np.asarray(values, dtype=float)
    if row.ndim != 1:
        raise DataError(f"predict_values takes one row of values, not an array of shape {row.shape}")
    return row[None]


def _pair_machines(p: PairProblem, cfgs: Sequence[SvmConfig]) -> list[BinarySvm]:
    """The machine of each config on pair p, in the order of `cfgs`: a
    machine p already holds for that config, or a converged one whose config
    differs only by C and whose alphas all lie below both Cs, as it then
    meets the KKT conditions at either C (see the module docstring). The
    configs p cannot serve are solved in ascending C (stably), so that a
    machine free of its wall serves every larger C wherever it stands in
    `cfgs`, and p keeps each new machine.
    """
    def held(cfg: SvmConfig) -> BinarySvm | None:
        served = (m for c, m in p.solves if c == cfg or (
            replace(c, C=cfg.C) == cfg and m.converged and m.alphas.max() < min(c.C, cfg.C)))
        return next(served, None)

    for cfg in sorted(cfgs, key=lambda c: c.C):
        if held(cfg) is None:
            p.solves.append((cfg, smo_train(p.X, p.yb, cfg)))
    return [held(cfg) for cfg in cfgs]


def train_from_problems(mp: MulticlassProblem, cfgs: Sequence[SvmConfig]) -> list[SvmModel]:
    """One model per config.

    Training goes one class pair at a time; each solve builds the kernel
    rows it reads and frees them when it ends. Configs whose machines are
    the same objects share one model, the first one `mp` built of them.
    """
    models: list[SvmModel] = []
    for machines in zip(*[_pair_machines(p, cfgs) for p in mp.problems]):
        key = tuple(map(id, machines))
        if key not in mp.models:
            mp.models[key] = SvmModel(mp.classes, mp.class_counts.copy(), list(machines), mp.width,
                                      mp.feature_mask, mp.standardizer)
        models.append(mp.models[key])
    return models


def train_multiclass(
    train: Dataset,
    cfg: SvmConfig,
    feature_mask=None,
    standardizer: Standardizer | None = None,
) -> SvmModel:
    return train_from_problems(pairwise_problems(train, feature_mask, standardizer), [cfg])[0]


# ---------------------------------------------------------------------------
# Persistence: versioned text format, hex floats for bit-exact round trips


def _hex(x: float) -> str:
    return float(x).hex()


def _write_machine(lines: list[str], pair: tuple[int, int], m: BinarySvm) -> None:
    lines.append(
        "machine\t%d\t%d\t%d\t%s\t%d" % (pair[0], pair[1], len(m.alphas), _hex(m.bias), int(m.converged))
    )
    for a, lab, row in zip(m.alphas, m.labels, m.support_vectors):
        cells = [("%+d" % int(lab)), _hex(a)] + [_hex(v) for v in row]
        lines.append("sv\t" + "\t".join(cells))


def model_to_lines(model: SvmModel) -> list[str]:
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    lines.append("classes\t" + "\t".join(model.classes))
    lines.append("counts\t" + "\t".join(str(int(c)) for c in model.class_counts))
    km = model.machines[0].kernel
    lines.append(f"kernel\tpolynomial\t{km.degree}\t{_hex(km.coef0)}")
    lines.append("mask\t" + "\t".join(str(i) for i in (model.width, *model.feature_mask)))
    s = model.standardizer
    lines.append(f"standardizer\t{len(s.means)}")
    for mu, sg, spec in zip(s.means, s.sigmas, s.feature_schema):
        lines.append(f"feat\t{spec.name}\t{spec.kind}\t{_hex(mu)}\t{_hex(sg)}")
    for pair, m in zip(model.pairs, model.machines):
        _write_machine(lines, pair, m)
    lines.append("end")
    return lines


def save_model(model: SvmModel, path) -> None:
    Path(path).write_text("\n".join(model_to_lines(model)) + "\n", encoding="utf-8")


def model_from_lines(lines: list[str], pos: int = 0) -> tuple[SvmModel, int]:
    """Parse one model section starting at lines[pos]; returns the model and
    the index of the line after its end marker. A truncated or corrupt
    section raises DataError."""
    cur = _Lines(lines, "model", pos)
    return cur.parse(MODEL_MAGIC, MODEL_VERSION, _parse_model), cur.pos


class _Lines:
    """A cursor over a model or ensemble file's lines, whose errors name the
    file kind and the line. `pos` is the next line's index, so the number of
    the line last read."""

    def __init__(self, lines: list[str], kind: str, pos: int = 0):
        self.lines, self.kind, self.pos = lines, kind, pos

    def parse(self, magic: str, version: int, body):
        """Check the header line, then return body(self); a corrupt
        number's ValueError or OverflowError becomes a DataError."""
        try:
            head = "".join(self.lines[self.pos:self.pos + 1]).split()
            at = f"at line {self.pos + 1}"
            if not head or head[0] != magic:
                raise DataError(f"not {'an' if self.kind[0] in 'aeiou' else 'a'} {self.kind} file {at}")
            if len(head) != 2 or int(head[1]) != version:
                raise DataError(f"unsupported {self.kind} version {' '.join(head[1:])!r} {at}")
            self.pos += 1
            return body(self)
        except DataError:
            raise
        except (ValueError, OverflowError) as exc:  # int() or float.fromhex() of a corrupt field
            raise DataError(f"malformed {self.kind} file: {exc}") from None

    def fields(self, expect: str, n: int | None = None) -> list[str]:
        """The next line's fields after its tag, `expect`; n of them if n is given."""
        if self.pos >= len(self.lines):
            raise DataError(f"truncated {self.kind} file: expected {expect!r} at line {self.pos + 1}")
        parts = self.lines[self.pos].split("\t")
        if parts[0] != expect or (n is not None and len(parts) != n + 1):
            raise DataError(f"malformed {self.kind} file: expected {expect!r} at line {self.pos + 1}")
        self.pos += 1
        return parts[1:]

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            raise DataError(f"malformed {self.kind} file: {what} at line {self.pos}")

    def end(self) -> None:
        if self.pos != len(self.lines):
            raise DataError(f"malformed {self.kind} file: trailing data at line {self.pos + 1}")


def _parse_model(cur: _Lines) -> SvmModel:
    from .data import AttributeSpec, NOMINAL, NUMERIC

    classes = tuple(cur.fields("classes"))
    cur.require(len(classes) >= 2, "fewer than 2 classes")
    counts = np.array([int(c) for c in cur.fields("counts", len(classes))])
    cur.require((counts >= 1).all(), "class count below 1")  # as pairwise_problems rejects an absent class
    kparts = cur.fields("kernel", 3)
    cur.require(kparts[0] == "polynomial", f"unsupported kernel kind {kparts[0]!r}")
    try:
        kernel = KernelSpec(int(kparts[1]), float.fromhex(kparts[2]))
    except DataError as exc:  # the rule training enforces, given a line number
        raise DataError(f"malformed model file: {exc} at line {cur.pos}") from None
    width, *mask = (int(i) for i in cur.fields("mask"))
    ok = mask == sorted(set(mask)) and min(mask, default=-1) >= 0
    cur.require(ok, "mask not strictly increasing column indexes from 0")  # as pairwise_problems writes it
    cur.require(mask[-1] < width, f"mask reads column {mask[-1]} of a table of width {width}")
    (swidth,) = cur.fields("standardizer", 1)
    cur.require(swidth != "none", "model has no standardizer")
    dim = int(swidth)
    cur.require(dim == len(mask), f"standardizer width {dim} differs from the mask's {len(mask)}")
    means, sigmas, fschema = [], [], []
    for _ in range(dim):
        fp = cur.fields("feat", 4)
        # nominal label lists are not persisted; a placeholder keeps the
        # width/kind contract, which is all prediction needs
        if fp[1] == NOMINAL:
            fschema.append(AttributeSpec(fp[0], NOMINAL, ("0",)))
        else:
            fschema.append(AttributeSpec(fp[0], NUMERIC))
        means.append(float.fromhex(fp[2]))
        sigmas.append(float.fromhex(fp[3]))
        cur.require(math.isfinite(means[-1]), "non-finite mean")
        cur.require(0.0 < sigmas[-1] < math.inf, "sigma not positive and finite")
    standardizer = Standardizer(np.array(means), np.array(sigmas), tuple(fschema))
    # support rows live in the masked, standardized feature space, of the standardizer's width
    machines = []
    for pair in _pairs(len(classes)):
        mp = cur.fields("machine", 5)
        ci, cj, n_sv, bias, conv = int(mp[0]), int(mp[1]), int(mp[2]), float.fromhex(mp[3]), bool(int(mp[4]))
        cur.require((ci, cj) == pair, "machine %d %d out of one-vs-one order, expected %d %d" % (ci, cj, *pair))
        cur.require(n_sv >= 1, "machine without support rows")
        cur.require(math.isfinite(bias), "non-finite bias")
        labels, alphas, rows = [], [], []
        for _ in range(n_sv):
            sp = cur.fields("sv", dim + 2)
            labels.append(float(sp[0]))
            alphas.append(float.fromhex(sp[1]))
            rows.append([float.fromhex(v) for v in sp[2:]])
            ok = labels[-1] in (-1, 1) and 0.0 <= alphas[-1] < math.inf and all(map(math.isfinite, rows[-1]))
            cur.require(ok, "support row needs a label of +1 or -1, a finite alpha >= 0 and finite values")
        machines.append(
            BinarySvm(np.array(rows), np.array(alphas), np.array(labels), bias, kernel, conv)
        )
    cur.fields("end", 0)
    return SvmModel(classes, counts, machines, width, tuple(mask), standardizer)


def load_model(path) -> SvmModel:
    lines = _read_text(path).splitlines()
    model, pos = model_from_lines(lines)
    _Lines(lines, "model", pos).end()
    return model
