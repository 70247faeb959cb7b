"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written from the definitions with plain
loops and dicts (numpy only for array plumbing in the QP solver), and never
calls into the package's own scoring or solver code. The exceptions are
relieff_rowwise and mdl_cuts_loop: they keep the package's earlier
row-at-a-time and candidate-at-a-time numpy code, so that the vectorized
versions can be held to it bit for bit.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# Entropy family


def entropy_bits(labels) -> float:
    labels = list(labels)
    n = len(labels)
    h = 0.0
    for count in Counter(labels).values():
        p = count / n
        h -= p * math.log2(p)
    return h


def info_gain_brute(feature_bins, classes) -> float:
    n = len(classes)
    h = entropy_bits(classes)
    by_bin = defaultdict(list)
    for b, c in zip(feature_bins, classes):
        by_bin[b].append(c)
    cond = 0.0
    for group in by_bin.values():
        cond += len(group) / n * entropy_bits(group)
    return h - cond


def su_brute(xs, ys) -> float:
    hx, hy = entropy_bits(xs), entropy_bits(ys)
    if hx == 0.0 and hy == 0.0:
        return 0.0
    hxy = entropy_bits(list(zip(xs, ys)))
    return 2.0 * (hx + hy - hxy) / (hx + hy)


def cfs_merit_brute(columns, classes, subset) -> float:
    subset = sorted(subset)
    k = len(subset)
    r_cf = sum(su_brute(columns[f], classes) for f in subset) / k
    if k == 1:
        r_ff = 0.0
    else:
        pairs = list(combinations(subset, 2))
        r_ff = sum(su_brute(columns[a], columns[b]) for a, b in pairs) / len(pairs)
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def inconsistency_brute(columns, classes, subset) -> float:
    subset = sorted(subset)
    groups = defaultdict(list)
    for i, c in enumerate(classes):
        groups[tuple(columns[f][i] for f in subset)].append(c)
    bad = 0
    for members in groups.values():
        bad += len(members) - max(Counter(members).values())
    return bad / len(classes)


# ---------------------------------------------------------------------------
# Relief weights


def relieff_brute(feats, kinds, classes, k, m=None):
    """Hit/miss weight accumulation exactly from the update rule.

    feats: list of rows (lists); kinds: 'numeric'/'nominal' per feature;
    classes: labels per row. m=None visits all rows in order.
    """
    n = len(feats)
    n_feat = len(kinds)
    if m is None:
        m = n
    spans = []
    for f in range(n_feat):
        vals = [row[f] for row in feats]
        spans.append(max(vals) - min(vals))
    mins = [min(row[f] for row in feats) for f in range(n_feat)]

    def norm(i, f):
        if kinds[f] == "nominal":
            return feats[i][f]
        return (feats[i][f] - mins[f]) / spans[f] if spans[f] > 0 else 0.0

    def diff(f, i, j):
        if kinds[f] == "nominal":
            return 0.0 if feats[i][f] == feats[j][f] else 1.0
        return abs(norm(i, f) - norm(j, f))

    def dist(i, j):
        return sum(diff(f, i, j) for f in range(n_feat))

    prior = Counter(classes)
    labels = sorted(prior)
    w = [0.0] * n_feat
    for r in range(m):
        for cls in labels:
            group = [i for i in range(n) if classes[i] == cls and i != r]
            if classes[r] != cls:
                group = [i for i in range(n) if classes[i] == cls]
            if not group:
                continue
            group.sort(key=lambda i: (dist(r, i), tuple(norm(i, f) for f in range(n_feat))))
            k_use = min(k, len(group))
            chosen = group[:k_use]
            for f in range(n_feat):
                total = sum(diff(f, r, i) for i in chosen)
                if cls == classes[r]:
                    w[f] -= total / (m * k_use)
                else:
                    p = prior[cls] / n
                    p_self = prior[classes[r]] / n
                    w[f] += (p / (1.0 - p_self)) * total / (m * k_use)
    return w


def relieff_rowwise(feats, numeric, y, n_classes, m=None, k=10, seed=0):
    """ReliefF one sampled row at a time. filters.relieff, which tiles its
    distances and streams its neighbour search, must match it bit for bit.
    Each distance adds its features left to right, in index order.
    feats: (n, features) array; numeric: bool per feature; y: class codes.
    Returns the weight vector."""
    n, n_feat = feats.shape
    if m is None:
        m = n
    spans = feats.max(axis=0) - feats.min(axis=0)
    norm = np.zeros((n, n_feat))
    for f in range(n_feat):
        if numeric[f]:
            norm[:, f] = (feats[:, f] - feats[:, f].min()) / spans[f] if spans[f] > 0 else 0.0
        else:
            norm[:, f] = feats[:, f]

    def diffs(rows, r):
        d = np.abs(norm[rows] - norm[r])
        if not numeric.all():
            d[:, ~numeric] = (norm[np.ix_(rows, np.flatnonzero(~numeric))] != norm[r, ~numeric])
        return d

    prior = np.bincount(y, minlength=n_classes) / n
    groups = [np.flatnonzero(y == c) for c in range(n_classes)]
    _, tie_rank = np.unique(norm, axis=0, return_inverse=True)
    if m == n:
        sample = np.arange(n)
    else:
        sample = np.random.default_rng(int(seed)).choice(n, size=m, replace=False)
    w = np.zeros(n_feat)
    for r in sample:
        per_feature = diffs(np.arange(n), r)
        dist = per_feature[:, 0].copy()
        for f in range(1, n_feat):
            dist += per_feature[:, f]
        c = y[r]
        for cls in range(n_classes):
            grp = groups[cls]
            if cls == c:
                grp = grp[grp != r]
            if len(grp) == 0:
                continue
            k_use = min(k, len(grp))
            order = np.lexsort((tie_rank[grp], dist[grp]))[:k_use]
            contrib = diffs(grp[order], r).sum(axis=0) / (m * k_use)
            if cls == c:
                w -= contrib
            else:
                w += prior[cls] / (1.0 - prior[c]) * contrib
    return w


# ---------------------------------------------------------------------------
# Entropy-split discretization over every midpoint (not just boundaries)


def mdl_cuts_brute(values, classes):
    pairs = sorted(zip(values, classes), key=lambda t: t[0])
    v = [p[0] for p in pairs]
    y = [p[1] for p in pairs]

    cuts = []

    def split(lo, hi):
        n = hi - lo
        cands = [p for p in range(lo + 1, hi) if v[p] != v[p - 1]]
        if not cands:
            return
        h_s = entropy_bits(y[lo:hi])
        best_p, best_we = None, None
        for p in cands:
            we = ((p - lo) * entropy_bits(y[lo:p]) + (hi - p) * entropy_bits(y[p:hi])) / n
            if best_we is None or we < best_we:
                best_we, best_p = we, p
        gain = h_s - best_we
        k = len(set(y[lo:hi]))
        k1 = len(set(y[lo:best_p]))
        k2 = len(set(y[best_p:hi]))
        delta = math.log2(3**k - 2) - (
            k * h_s - k1 * entropy_bits(y[lo:best_p]) - k2 * entropy_bits(y[best_p:hi])
        )
        if gain <= (math.log2(n - 1) + delta) / n:
            return
        cuts.append((v[best_p - 1] + v[best_p]) / 2.0)
        split(lo, best_p)
        split(best_p, hi)

    split(0, len(v))
    return sorted(cuts)


def _entropy_of_counts(counts) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def mdl_cuts_loop(values, y, n_classes):
    """MDL cuts with one entropy pair per candidate cut, as
    data.discretize_mdl computed them before it scored every candidate of a
    range at once; data.discretize_mdl must match it bit for bit. values:
    one numeric column; y: class codes."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    labels = y[order]
    n = len(v)
    prefix = np.zeros((n + 1, n_classes), dtype=np.int64)
    np.cumsum(np.eye(n_classes, dtype=np.int64)[labels], axis=0, out=prefix[1:])
    bounds = np.flatnonzero(v[1:] != v[:-1]) + 1
    edges = np.concatenate(([0], bounds, [n]))
    spans_classes = np.count_nonzero(prefix[edges[2:]] - prefix[edges[:-2]], axis=1) > 1
    cands = bounds[spans_classes]
    cuts = []

    def split(lo, hi):
        cand = cands[np.searchsorted(cands, lo, "right"):np.searchsorted(cands, hi)].tolist()
        if not cand:
            return
        total = prefix[hi] - prefix[lo]
        big_n = hi - lo
        h_s = _entropy_of_counts(total)
        best_p = -1
        best_we = math.inf
        for p in cand:
            left = prefix[p] - prefix[lo]
            right = prefix[hi] - prefix[p]
            we = ((p - lo) * _entropy_of_counts(left) + (hi - p) * _entropy_of_counts(right)) / big_n
            if we < best_we:
                best_we = we
                best_p = p
        gain = h_s - best_we
        left = prefix[best_p] - prefix[lo]
        right = prefix[hi] - prefix[best_p]
        k = int(np.count_nonzero(total))
        k1 = int(np.count_nonzero(left))
        k2 = int(np.count_nonzero(right))
        delta = math.log2(3**k - 2) - (
            k * h_s - k1 * _entropy_of_counts(left) - k2 * _entropy_of_counts(right)
        )
        if gain <= (math.log2(big_n - 1) + delta) / big_n:
            return
        cuts.append((v[best_p - 1] + v[best_p]) / 2.0)
        split(lo, best_p)
        split(best_p, hi)

    split(0, n)
    return tuple(sorted(cuts))


# ---------------------------------------------------------------------------
# Subset-search references


def exhaustive_best(score_fn, n_features):
    """Max over all non-empty subsets; ties to smaller, then lexicographic."""
    best = None
    for mask in range(1, 1 << n_features):
        sub = frozenset(f for f in range(n_features) if mask >> f & 1)
        val = score_fn(sub)
        key = (-val, len(sub), tuple(sorted(sub)))
        if best is None or key < best[0]:
            best = (key, sub, val)
    return best[1], best[2]


def forward_selection(score_fn, n_features):
    """Plain greedy: add the best single feature while it improves."""
    current = frozenset()
    value = score_fn(current)
    while True:
        best_child, best_val = None, None
        for f in range(n_features):
            if f in current:
                continue
            child = current | {f}
            v = score_fn(child)
            if best_child is None or v > best_val:
                best_child, best_val = child, v
        if best_child is None or best_val <= value:
            return current, value
        current, value = best_child, best_val


# ---------------------------------------------------------------------------
# Dense projected-gradient QP solver for the SVM dual


def _project_box_hyperplane(v, y, C):
    """Exact projection of v onto {0 <= a <= C, y.a = 0}.

    g(lam) = y . clip(v - lam*y, 0, C) is piecewise linear and
    non-increasing, so the root lies between two kinks and a single linear
    interpolation inside that segment is exact.
    """
    bps = np.unique(np.concatenate([v[y > 0] - C, v[y > 0], -v[y < 0], C - v[y < 0]]))
    gs = np.clip(v[None, :] - bps[:, None] * y[None, :], 0.0, C) @ y
    if gs[0] <= 0.0:
        lam = bps[0]
    elif gs[-1] >= 0.0:
        lam = bps[-1]
    else:
        k = int(np.argmax(gs <= 0.0))
        if gs[k] == 0.0 or gs[k - 1] == gs[k]:
            lam = bps[k]
        else:
            lam = bps[k - 1] + gs[k - 1] * (bps[k] - bps[k - 1]) / (gs[k - 1] - gs[k])
    return np.clip(v - lam * y, 0.0, C)


def qp_reference(K, y, C, max_iter=200_000):
    """Maximize sum(a) - 1/2 a' (yy' o K) a over the box and hyperplane.

    Projected gradient ascent with the exact projection; returns (alphas,
    objective).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = np.outer(y, y) * K
    L = max(float(np.linalg.eigvalsh((Q + Q.T) / 2.0).max()), 1e-9)
    a = np.zeros(n)

    def objective(x):
        return float(x.sum() - 0.5 * x @ Q @ x)

    prev = objective(a)
    stagnant = 0
    for _ in range(max_iter):
        grad = 1.0 - Q @ a
        a = _project_box_hyperplane(a + grad / L, y, C)
        cur = objective(a)
        if abs(cur - prev) < 1e-14 * max(1.0, abs(cur)):
            stagnant += 1
            if stagnant >= 50:
                break
        else:
            stagnant = 0
        prev = cur
    return a, objective(a)


def dual_objective(m) -> float:
    """sum(alpha) - 1/2 * alpha' Q alpha of a trained machine over its
    stored support rows, with the polynomial kernel written out."""
    sv = m.support_vectors
    K = (sv @ sv.T + m.kernel.coef0) ** m.kernel.degree
    ay = m.alphas * m.labels
    return float(m.alphas.sum() - 0.5 * ay @ K @ ay)


def decision_values(m, X) -> np.ndarray:
    """Decision values of one trained machine on rows X, with the polynomial
    kernel written out: the per-machine reference for the stacked
    evaluation that predicts."""
    K = (np.asarray(X, dtype=float) @ m.support_vectors.T + m.kernel.coef0) ** m.kernel.degree
    return K @ (m.alphas * m.labels) + m.bias


def ovo_predict(model, feats) -> tuple[list[str], int]:
    """One-vs-one labels of a model on raw feature rows, one machine at a
    time with a sorted tie-break, and the number of tied rows: the
    reference for the vectorized vote."""
    feats = np.asarray(feats, dtype=float)[:, list(model.feature_mask)]
    feats = (feats - model.standardizer.means) / model.standardizer.sigmas
    n, k = feats.shape[0], len(model.classes)
    votes = [[0] * k for _ in range(n)]
    strength = [[0.0] * k for _ in range(n)]
    for (ci, cj), m in zip(model.pairs, model.machines):
        for i, d in enumerate(decision_values(m, feats)):
            c = ci if d >= 0 else cj
            votes[i][c] += 1
            strength[i][c] += abs(d)
    total = sum(int(c) for c in model.class_counts)
    priors = [int(c) / total for c in model.class_counts]
    labels, ties = [], 0
    for v, s in zip(votes, strength):
        top = max(v)
        cands = [c for c in range(k) if v[c] == top]
        ties += len(cands) > 1
        # larger summed |decision|, then larger prior, then class order
        best = min(cands, key=lambda c: (-s[c], -priors[c], c))
        labels.append(model.classes[best])
    return labels, ties


def ensemble_vote(predictions, priors, class_order) -> tuple[str, int]:
    """The ensemble's majority vote on one row from each member's label,
    and whether the row tied: a tie goes to the larger prior (a dict by
    label), then to the class earlier in class_order. The label-based
    reference for the class-index vote."""
    totals = Counter(predictions)
    top = max(totals.values())
    cands = [lab for lab, v in totals.items() if v == top]
    if len(cands) == 1:
        return cands[0], 0
    rank = {c: i for i, c in enumerate(class_order)}
    cands.sort(key=lambda lab: (-priors.get(lab, 0.0), rank.get(lab, len(rank))))
    return cands[0], 1


def qp_bias(K, y, C, a, tol=1e-8):
    """Bias by the same rule the trained models use: mean over unbounded
    support rows, else the midpoint of the feasible interval."""
    g = K @ (a * y)
    b_est = y - g
    unbounded = (a > tol * C) & (a < C * (1 - tol))
    if unbounded.any():
        return float(b_est[unbounded].mean())
    i_up = ((y > 0) & (a < C)) | ((y < 0) & (a > 0))
    i_low = ((y > 0) & (a > 0)) | ((y < 0) & (a < C))
    return float((b_est[i_up].max() + b_est[i_low].min()) / 2.0)


def certificate(X, y, a, C, kernel):
    """What a binary machine's alphas a certify on rows X, labels y and
    bound C, computed from the alphas alone with a kernel of Python floats
    summed by math.fsum: none of the solver's own arithmetic is trusted.

    Returns a dict:
      box      whether 0 <= a <= C;
      balance  |sum a y| / sum a (0 when every alpha is 0);
      gap      m_up - m_low, the dual feasibility gap, each b_est = y - K(a y)
               moved by its slack towards a smaller gap;
      b_est    the list of y_i - sum_j a_j y_j K_ij;
      slack    per row, 1e-12 * sum_j a_j S_ij, S_ij = (sum_k |x_ik x_jk| +
               |coef0|) ** degree: a bound on how far a solver's own b_est,
               from kernel values and sums rounded another way, may lie
               from this one;
      reach    1e-12 * C * max_i sum_j S_ij, the largest slack any alphas
               in the box can have: where it exceeds the tolerance, double
               arithmetic cannot resolve a gap that small;
      objective  sum a - 1/2 sum_ij a_i a_j y_i y_j K_ij;
      K        the kernel matrix, as a list of lists.
    """
    rows, ys, al = X.tolist(), [float(v) for v in y], [float(v) for v in a]
    c0, d = float(kernel.coef0), int(kernel.degree)
    K = [[(math.fsum(u * v for u, v in zip(r, s)) + c0) ** d for s in rows] for r in rows]
    S = [[(math.fsum(abs(u * v) for u, v in zip(r, s)) + abs(c0)) ** d for s in rows] for r in rows]
    ay = [ai * yi for ai, yi in zip(al, ys)]
    g = [math.fsum(c * k for c, k in zip(ay, Kr)) for Kr in K]
    b_est = [yi - gi for yi, gi in zip(ys, g)]
    slack = [1e-12 * math.fsum(ai * s for ai, s in zip(al, Sr)) for Sr in S]
    up = [(yi > 0 and ai < C) or (yi < 0 and ai > 0) for yi, ai in zip(ys, al)]
    low = [(yi > 0 and ai > 0) or (yi < 0 and ai < C) for yi, ai in zip(ys, al)]
    m_up = max(b - s for b, s, u in zip(b_est, slack, up) if u)
    m_low = min(b + s for b, s, lo in zip(b_est, slack, low) if lo)
    total = math.fsum(al)
    return {
        "box": all(0.0 <= ai <= C for ai in al),
        "balance": abs(math.fsum(ay)) / total if total else 0.0,
        "gap": m_up - m_low,
        "b_est": b_est,
        "slack": slack,
        "reach": 1e-12 * C * max(math.fsum(Sr) for Sr in S),
        "objective": total - 0.5 * math.fsum(c * gi for c, gi in zip(ay, g)),
        "K": K,
    }


def row_alphas(X, y, m) -> np.ndarray:
    """The alpha of each row of X (labels y) under machine m, whose support
    rows are a subsequence of X's rows in order: each support row goes to
    the first row after the last one matched with its bytes and label. Where
    X holds equal rows of one label, that may be another copy than the
    solver's, which has the same kernel row and so the same certificate."""
    a = np.zeros(len(X))
    at = 0
    for row, lab, alpha in zip(m.support_vectors, m.labels, m.alphas):
        while not (np.array_equal(X[at], row) and y[at] == lab):
            at += 1
        a[at] = alpha
        at += 1
    return a
