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

A solve in which the box wall C never decided anything is certified
(`BinarySvm.c_free`): no pair clipped to, clamped to or snapped onto a
bound derived from C, no pair took the eta <= 0 branch, and every alpha
stayed below C. Every comparison the solver makes then comes out the same
for any larger C, so that solve is, operation for operation, the solve at
the larger C (the dual path is constant in C until an alpha meets the
wall; Hastie, Rosset, Tibshirani & Zhu, JMLR 2004). `PairProblem.machine`
reuses a certified machine for larger C; the certificate is not saved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, Standardizer, _read_text

DENSE_LIMIT = 4096
CACHE_ROWS = 512  # kernel rows the solver keeps above DENSE_LIMIT
_ETA_ROWS = 128  # eta rows a solve memoizes: at most 1.4 MB at 1400 rows
EPSILON = 1e-12  # alpha moves and objective gaps below this scale count as zero
_BLOCK = 1 << 15  # elements per block of the in-place kernel power and of a prediction kernel (256 KiB)
MODEL_MAGIC = "ctgsvm-model"
MODEL_VERSION = 1


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
    """(dots + coef0) ** degree, computed in place on a fresh C-contiguous
    array of dot products, and returned.

    The power is left-to-right square-and-multiply over the degree's bits,
    one block of the flattened array at a time; a degree whose lower bits
    are set keeps the block's base in a one-block scratch buffer. So no
    second array of the kernel's size exists, and a few multiplies replace
    libm `pow`. Values may differ from `**` in the last one or two ulps.
    """
    assert dots.flags.c_contiguous, "reshape of a non-contiguous array would copy"
    flat = dots.reshape(-1)
    steps = bin(spec.degree)[3:]  # the bits below the leading one
    base = np.empty(min(flat.size, _BLOCK)) if "1" in steps else None
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo:lo + _BLOCK]
        block += spec.coef0
        if base is not None:
            held = base[:block.size]
            np.copyto(held, block)
        for bit in steps:
            np.multiply(block, block, out=block)
            if bit == "1":
                np.multiply(block, held, out=block)
    return dots


def _dense_kernel(X: np.ndarray, spec: KernelSpec) -> np.ndarray | None:
    """The read-only kernel matrix of X, or None above DENSE_LIMIT rows,
    where the solver computes kernel rows on demand instead. Read-only
    because one kernel serves every machine trained on X under `spec`."""
    if X.shape[0] > DENSE_LIMIT:
        return None
    kernel = _polynomial(X @ X.T, spec)
    kernel.setflags(write=False)
    return kernel


class _KernelSource:
    """Kernel rows for the solver: the dense matrix (given, or built here)
    when the problem is small, otherwise an on-demand row cache with FIFO
    eviction."""

    def __init__(self, X: np.ndarray, spec: KernelSpec, kernel: np.ndarray | None):
        self.X = X
        self.spec = spec
        if kernel is None:
            kernel = _dense_kernel(X, spec)
        self.dense = kernel
        if kernel is not None:
            self.diag = np.ascontiguousarray(np.diagonal(kernel))
        else:
            self._cache: dict[int, np.ndarray] = {}  # oldest first
            self.diag = _polynomial(np.einsum("ij,ij->i", X, X), spec)

    def row(self, i: int) -> np.ndarray:
        if self.dense is not None:
            return self.dense[i]
        got = self._cache.get(i)
        if got is None:
            got = _polynomial(self.X @ self.X[i], self.spec)
            self._cache[i] = got
            if len(self._cache) > CACHE_ROWS:
                del self._cache[next(iter(self._cache))]
        return got

    def full_g(self, coef: np.ndarray) -> np.ndarray:
        """K @ coef without materializing K in cached mode."""
        if self.dense is not None:
            return self.dense @ coef
        n = self.X.shape[0]
        out = np.empty(n)
        for lo in range(0, n, 256):
            hi = min(lo + 256, n)
            out[lo:hi] = _polynomial(self.X[lo:hi] @ self.X.T, self.spec) @ coef
        return out


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
    c_free: bool = False  # the solve's certificate (see the module docstring); not saved

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
    def of(cls, machines, pairs, n_classes: int) -> _Stack:
        """The stack of `machines`, groups of len(pairs) machines in the order of `pairs`."""
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
        onehot = np.eye(n_classes)
        to_class = np.hstack([onehot[:, [ci for ci, _ in pairs]], onehot[:, [cj for _, cj in pairs]]])
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


def _pair_step(alphas, y, e1, e2, b, C, diag, row1, i1, i2):
    """The analytic update of the pair (i1, i2), whose errors are e1 and e2,
    not yet applied: returns
    (step, c_bound). step is (i2, a1, a2, d1, d2, b_new), or None when the
    pair cannot move; c_bound is True when C decided anything here, moved
    or not, so that a larger C could have given a different step.

    `row1` is the kernel row of i1; a pair whose second-derivative eta is
    not positive takes whichever clip bound gives the larger objective.
    """
    if i1 == i2:
        return None, False
    # Python floats: the same IEEE double arithmetic as numpy scalars, at a
    # fraction of the per-operation cost
    a1o, a2o = float(alphas[i1]), float(alphas[i2])
    y1, y2 = float(y[i1]), float(y[i2])
    s = y1 * y2
    if s < 0:
        L = max(0.0, a2o - a1o)
        H = min(C, C + a2o - a1o)
        c_low, c_high = False, True  # whether L and H derive from C
    else:
        L = max(0.0, a1o + a2o - C)
        H = min(C, a1o + a2o)
        c_low = c_high = a1o + a2o > C
    if L >= H:
        return None, c_high
    k11, k12, k22 = float(diag[i1]), float(row1[i2]), float(diag[i2])
    eta = k11 + k22 - 2.0 * k12
    c_bound = eta <= 0.0  # that branch compares the objective at L and H
    if eta > 0.0:
        a2 = a2o + y2 * (e1 - e2) / eta
        a2 = min(max(a2, L), H)
    else:
        # pair objective evaluated at both clip bounds
        f1 = y1 * (e1 - b) - a1o * k11 - s * a2o * k12
        f2 = y2 * (e2 - b) - s * a1o * k12 - a2o * k22
        l1 = a1o + s * (a2o - L)
        h1 = a1o + s * (a2o - H)
        lobj = l1 * f1 + L * f2 + 0.5 * l1 * l1 * k11 + 0.5 * L * L * k22 + s * L * l1 * k12
        hobj = h1 * f1 + H * f2 + 0.5 * h1 * h1 * k11 + 0.5 * H * H * k22 + s * H * h1 * k12
        if lobj < hobj - EPSILON:
            a2 = L
        elif lobj > hobj + EPSILON:
            a2 = H
        else:
            a2 = a2o
    c_bound = c_bound or (c_low and a2 == L) or (c_high and a2 == H)
    if abs(a2 - a2o) < EPSILON * (a2 + a2o + EPSILON):
        return None, c_bound
    a1 = a1o + s * (a2o - a2)
    c_bound = c_bound or a1 >= C
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
        c_bound = True
    if 0.0 < a2 < crumb:
        a1 += s * a2
        a2 = 0.0
    elif 0.0 < C - a2 < crumb:
        a1 += s * (a2 - C)
        a2 = C
        c_bound = True
    a1 = min(max(a1, 0.0), C)
    a2 = min(max(a2, 0.0), C)
    c_bound = c_bound or a1 >= C or a2 >= C
    d1, d2 = a1 - a1o, a2 - a2o
    b1 = b - e1 - y1 * d1 * k11 - y2 * d2 * k12
    b2 = b - e2 - y1 * d1 * k12 - y2 * d2 * k22
    if 0.0 < a1 < C:
        b_new = b1
    elif 0.0 < a2 < C:
        b_new = b2
    else:
        b_new = (b1 + b2) / 2.0
    return (i2, a1, a2, d1, d2, b_new), c_bound


def smo_train(X, y, cfg: SvmConfig, kernel: np.ndarray | None = None) -> BinarySvm:
    """Train a binary soft-margin SVM by pairwise dual updates.

    Maximizes sum(a) - 1/2 sum a_i a_j y_i y_j K(x_i, x_j) subject to the
    box 0 <= a <= C and sum a_i y_i = 0. Hitting the update cap returns the
    best-so-far model flagged as non-converged instead of raising.

    `kernel` is the finished kernel matrix of X under cfg.kernel, read and
    never written; without it the kernel is built here (dense up to
    DENSE_LIMIT rows, row-cached above). The machine's `c_free` says
    whether the solve is certified to be the solve at any larger C.

    An update makes 13 passes over arrays of n entries when the eta row of
    its first row is memoized, and 4 more to build that row when it is not:
    two to pick the most-violating pair, five for the second-order gain,
    four for the error delta and two to add it to both masked error caches.
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
    K = _KernelSource(X, cfg.kernel, kernel)
    diag = K.diag

    # What an update reads and writes one entry at a time lives in Python
    # lists; the alphas become an array only where the solve needs all of
    # them. I_up holds the rows whose y * alpha can still rise (y = +1 below
    # C, y = -1 above 0), I_low the mirror; all alphas start at 0 < C.
    ys, dg = y.tolist(), diag.tolist()
    pos = [v > 0 for v in ys]
    alphas = [0.0] * n
    up, low = pos[:], [not p for p in pos]
    b = 0.0
    g = np.zeros(n)  # K @ (alphas * y) as of the last resync
    updates = 0
    c_free = True
    # The error cache E = decision - label is held only as two masked
    # copies, rows of one array so that an update adds its delta to both in
    # one call: e_up is E on I_up and +inf elsewhere, e_low is E on I_low
    # and -inf elsewhere. Every row is in I_up or I_low, so one of the two
    # holds its E; adding a finite delta keeps +-inf where it is.
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
        # at sweep 0, g + b - y is -y; later sweeps resync the incremental
        # cache, which can drift, and re-verify
        np.copyto(cache, np.where([up, low], g + b - y, fill))
        # Most-violating pair with second-order partner choice. b cancels
        # out of every comparison, so the selection reads the error cache
        # directly: I_up rows want smaller E, I_low rows larger. eta is
        # built in the float order of diag[i] + diag - 2 K[i], the gain in
        # that of (E - E[i]) ** 2 / eta, and the error update in that of
        # y1 d1 K[i] + y2 d2 K[i2] + (b_new - b).
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
                np.add(diag, diag[i], out=eta)
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
            step, c_bound = _pair_step(alphas, ys, e_i, err(j), b, C, dg, row1, i, j)
            if step is None:
                step, c_max = _pair_step(alphas, ys, e_i, err(j_max), b, C, dg, row1, i, j_max)
                c_bound = c_bound or c_max
            c_free = c_free and not c_bound
            if step is None:
                break  # numerically stuck; the gap check below decides
            i2, a1, a2, d1, d2, b_new = step
            np.multiply(row1, ys[i] * d1, out=delta)
            np.multiply(K.row(i2), ys[i2] * d2, out=scratch)
            np.add(delta, scratch, out=delta)
            np.add(delta, b_new - b, out=delta)
            np.add(cache, delta, out=cache)
            for k, a in ((i, a1), (i2, a2)):
                e = err(k)
                alphas[k] = a
                up[k], low[k] = (a < C, a > 0.0) if pos[k] else (a > 0.0, a < C)
                e_up[k] = e if up[k] else np.inf
                e_low[k] = e if low[k] else -np.inf
            b = b_new
            updates += 1
            if K.dense is not None and updates % 4096 == 0:
                # shed accumulated drift
                np.copyto(cache, np.where([up, low], K.full_g(np.array(alphas) * y) + b - y, fill))
        g = K.full_g(np.array(alphas) * y)
        b_est = y - g
        m_up = b_est[np.array(up)].max()
        m_low = b_est[np.array(low)].min()
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
        c_free=c_free,
    )


# ---------------------------------------------------------------------------
# One-vs-one multiclass


@dataclass
class PairProblem:
    ci: int
    cj: int
    X: np.ndarray
    yb: np.ndarray
    _kernel_key: tuple | None = field(default=None, init=False, repr=False)
    _kernel: np.ndarray | None = field(default=None, init=False, repr=False)
    _machine: tuple[SvmConfig, BinarySvm] | None = field(default=None, init=False, repr=False)

    def kernel(self, spec: KernelSpec) -> np.ndarray | None:
        """The dense kernel matrix of X under `spec`, memoized in one slot.

        The slot holds the kernel of the last (degree, coef0) asked for, so
        a C grid inside a degree loop builds each kernel once. Above
        DENSE_LIMIT rows there is no dense kernel: None, and the solver
        falls back to its row cache.
        """
        key = (spec.degree, spec.coef0)
        if key != self._kernel_key:
            self._kernel_key, self._kernel = None, None  # free the old matrix before building
            self._kernel = _dense_kernel(self.X, spec)
            self._kernel_key = key
        return self._kernel

    def machine(self, cfg: SvmConfig) -> BinarySvm:
        """The machine trained on this pair under `cfg`, memoized in one slot.

        The slot holds the last certified machine (`c_free`) with the config
        that trained it. It answers any config that differs only by a C at
        least as large, since that solve would repeat the certified one
        step for step; anything else trains, building the kernel if needed.
        """
        if self._machine is not None:
            held, m = self._machine
            if held.C <= cfg.C and replace(held, C=cfg.C) == cfg:
                return m
        m = smo_train(self.X, self.yb, cfg, kernel=self.kernel(cfg.kernel))
        if m.c_free:
            self._machine = (cfg, m)
        return m


@dataclass
class MulticlassProblem:
    classes: tuple[str, ...]
    class_counts: np.ndarray
    problems: list[PairProblem]
    feature_mask: tuple[int, ...] | None
    standardizer: Standardizer | None


def pairwise_problems(
    train: Dataset,
    feature_mask=None,
    standardizer: Standardizer | None = None,
) -> MulticlassProblem:
    """Precompute the per-pair training matrices once so a parameter grid
    can reuse them, and each pair's kernel, across cells."""
    k = len(train.class_labels)
    if k < 2:
        raise DataError("need at least 2 classes")
    codes = train.class_codes()
    counts = np.bincount(codes, minlength=k)
    if (counts == 0).any():
        missing = train.class_labels[int(np.flatnonzero(counts == 0)[0])]
        raise DataError(f"class {missing!r} absent from training data")
    feats = train.feature_matrix()
    mask = tuple(sorted(feature_mask)) if feature_mask is not None else None
    if mask is not None:
        if not mask:
            raise DataError("empty feature mask")
        feats = feats[:, list(mask)]
    if standardizer is not None:
        feats = standardizer.transform_features(feats)
    problems = []
    for ci in range(k):
        for cj in range(ci + 1, k):
            idx = np.flatnonzero((codes == ci) | (codes == cj))
            X = np.ascontiguousarray(feats[idx])
            yb = np.where(codes[idx] == ci, 1.0, -1.0)
            problems.append(PairProblem(ci, cj, X, yb))
    return MulticlassProblem(train.class_labels, counts, problems, mask, standardizer)


@dataclass
class SvmModel:
    """One binary machine per unordered class pair, voting for predictions."""

    classes: tuple[str, ...]
    class_counts: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    machines: list[BinarySvm]
    feature_mask: tuple[int, ...] | None = None
    standardizer: Standardizer | None = None

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.machines)

    def _prepare(self, feats: np.ndarray) -> np.ndarray:
        """feats masked and standardized. A row too narrow for the mask, or of
        another width than the standardizer's, is a DataError; a wider row
        under a mask passes, as model files do not record the table's width."""
        if self.feature_mask is not None:
            if feats.shape[1] <= self.feature_mask[-1]:  # the mask is increasing
                raise DataError(f"feature width {feats.shape[1]}: the model reads column {self.feature_mask[-1] + 1}")
            feats = feats[:, list(self.feature_mask)]
        if self.standardizer is not None:
            feats = self.standardizer.transform_features(feats)
        return feats

    @cached_property
    def _stack(self) -> _Stack:
        # built on first prediction; a model does not change once built
        return _Stack.of(self.machines, self.pairs, len(self.classes))

    def predict_matrix(self, feats: np.ndarray) -> tuple[list[str], dict]:
        feats = self._prepare(np.asarray(feats, dtype=float))
        priors = self.class_counts / self.class_counts.sum()
        winners, tied = self._stack.vote(feats, priors[None])
        return [self.classes[w] for w in winners[:, 0]], {"vote_ties": int(tied.sum())}

    def _check_columns(self, names: tuple[str, ...]) -> None:
        """Prediction columns must be the training columns: the mask must fit
        the table, and each column the model reads must have the name its
        standardizer records, so a reordered table fails here, not silently."""
        if self.feature_mask is not None and self.feature_mask[-1] >= len(names):
            raise DataError(f"feature width {len(names)}: the model reads column {self.feature_mask[-1] + 1}")
        if self.standardizer is None:
            return
        cols = self.feature_mask if self.feature_mask is not None else range(len(names))
        want = [spec.name for spec in self.standardizer.feature_schema]
        if len(cols) != len(want):
            raise DataError("feature width does not match standardizer")
        for i, name in zip(cols, want):
            if names[i] != name:
                raise DataError(f"prediction column {i + 1} is {names[i]!r}; the model expects {name!r}")

    def predict_dataset(self, ds: Dataset) -> tuple[list[str], dict]:
        self._check_columns(ds.feature_names)
        return self.predict_matrix(ds.feature_matrix())

    def predict_values(self, values) -> str:
        values = np.asarray(values, dtype=float).reshape(1, -1)
        return self.predict_matrix(values)[0][0]


def train_from_problems(mp: MulticlassProblem, cfg: SvmConfig) -> SvmModel:
    machines = [p.machine(cfg) for p in mp.problems]
    return SvmModel(
        classes=mp.classes,
        class_counts=mp.class_counts.copy(),
        pairs=tuple((p.ci, p.cj) for p in mp.problems),
        machines=machines,
        feature_mask=mp.feature_mask,
        standardizer=mp.standardizer,
    )


def train_multiclass(
    train: Dataset,
    cfg: SvmConfig,
    feature_mask=None,
    standardizer: Standardizer | None = None,
) -> SvmModel:
    return train_from_problems(pairwise_problems(train, feature_mask, standardizer), cfg)


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
    if model.feature_mask is None:
        lines.append("mask\tall")
    else:
        lines.append("mask\t" + "\t".join(str(i) for i in model.feature_mask))
    s = model.standardizer
    if s is None:
        lines.append("standardizer\tnone")
    else:
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
    counts = np.array([int(c) for c in cur.fields("counts", len(classes))])
    kparts = cur.fields("kernel", 3)
    cur.require(kparts[0] == "polynomial", f"unsupported kernel kind {kparts[0]!r}")
    try:
        kernel = KernelSpec(int(kparts[1]), float.fromhex(kparts[2]))
    except DataError as exc:  # the rule training enforces, given a line number
        raise DataError(f"malformed model file: {exc} at line {cur.pos}") from None
    mparts = cur.fields("mask")
    mask = None if mparts == ["all"] else tuple(int(i) for i in mparts)
    ok = mask is None or (list(mask) == sorted(set(mask)) and min(mask, default=-1) >= 0)
    cur.require(ok, "mask not strictly increasing column indexes from 0")  # as pairwise_problems writes it
    sparts = cur.fields("standardizer", 1)
    standardizer = None
    if sparts != ["none"]:
        width = int(sparts[0])
        means, sigmas, fschema = [], [], []
        for _ in range(width):
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
    # support rows live in the masked, standardized feature space
    if mask is not None:
        dim = len(mask)
    elif standardizer is not None:
        dim = len(standardizer.means)
    else:
        dim = None  # the first support row fixes the width
    pairs, machines = [], []
    while cur.pos < len(cur.lines) and cur.lines[cur.pos].startswith("machine\t"):
        mp = cur.fields("machine", 5)
        ci, cj, n_sv, bias, conv = int(mp[0]), int(mp[1]), int(mp[2]), float.fromhex(mp[3]), bool(int(mp[4]))
        cur.require(0 <= ci < len(classes) and 0 <= cj < len(classes) and n_sv >= 1, "bad machine header")
        cur.require(math.isfinite(bias), "non-finite bias")
        labels, alphas, rows = [], [], []
        for _ in range(n_sv):
            sp = cur.fields("sv", None if dim is None else dim + 2)
            if dim is None:
                dim = len(sp) - 2
                cur.require(dim >= 1, "support row without values")
            labels.append(float(sp[0]))
            alphas.append(float.fromhex(sp[1]))
            rows.append([float.fromhex(v) for v in sp[2:]])
            ok = labels[-1] in (-1, 1) and 0.0 <= alphas[-1] < math.inf and all(map(math.isfinite, rows[-1]))
            cur.require(ok, "support row needs a label of +1 or -1, a finite alpha >= 0 and finite values")
        pairs.append((ci, cj))
        machines.append(
            BinarySvm(np.array(rows), np.array(alphas), np.array(labels), bias, kernel, conv)
        )
    if not machines or cur.lines[cur.pos:cur.pos + 1] != ["end"]:
        raise DataError(f"malformed model file: expected a machine or the end marker at line {cur.pos + 1}")
    cur.pos += 1
    return SvmModel(classes, counts, tuple(pairs), machines, mask, standardizer)


def load_model(path) -> SvmModel:
    lines = _read_text(path).splitlines()
    model, pos = model_from_lines(lines)
    _Lines(lines, "model", pos).end()
    return model
