"""Filter-based feature scoring: correlation merit, consistency, relief weights,
information gain, and the shared entropy machinery underneath them.

Scores treat numeric features through an MDL discretization map where a
method needs categorical views; relief works on the raw values directly.
All entropies are in bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DiscretizationMap, DataError, NUMERIC, _entropy_bits
from .report import render_table

#: sentinel feature index meaning "the class column"
CLASS = -1


def _joint_codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * (int(b.max()) + 1 if len(b) else 1) + b


class SuCache:
    """Memoized binned columns and symmetric-uncertainty values.

    One cache serves one (dataset, discretization map) pair, so a subset
    search pays the pairwise SU cost once. A consistency search uses it
    for its binned columns alone, so it bins each column once. It is not
    synchronized; nothing in the package shares one between threads.
    """

    def __init__(self, ds: Dataset, dmap: DiscretizationMap):
        self.ds = ds
        self.dmap = dmap
        self._cols: dict[int, np.ndarray] = {}
        self._h: dict[int, float] = {}
        self._su: dict[tuple[int, int], float] = {}

    def column(self, f: int) -> np.ndarray:
        got = self._cols.get(f)
        if got is None:
            got = (
                self.ds.class_codes()
                if f == CLASS
                else self.dmap.bin_column(self.ds, f)
            )
            self._cols[f] = got
        return got

    def col_entropy(self, f: int) -> float:
        got = self._h.get(f)
        if got is None:
            got = _entropy_bits(np.bincount(self.column(f)))
            self._h[f] = got
        return got

    def su(self, f1: int, f2: int) -> float:
        key = (min(f1, f2), max(f1, f2))
        got = self._su.get(key)
        if got is None:
            got = symmetric_uncertainty(self.ds, f1, f2, self.dmap, cache=self)
            self._su[key] = got
        return got


def info_gain(ds: Dataset, feature: int, dmap: DiscretizationMap) -> float:
    """H(class) - H(class | binned feature)."""
    if feature == CLASS:
        raise DataError("info_gain of the class column against itself")
    y = ds.class_codes()
    x = dmap.bin_column(ds, feature)
    h_y = _entropy_bits(np.bincount(y))
    cond = 0.0
    n = len(y)
    for b in np.unique(x):
        sub = y[x == b]
        cond += len(sub) / n * _entropy_bits(np.bincount(sub))
    return h_y - cond


def symmetric_uncertainty(
    ds: Dataset, f1: int, f2: int, dmap: DiscretizationMap, cache: SuCache | None = None
) -> float:
    """SU(X, Y) = 2 [H(X) + H(Y) - H(X, Y)] / [H(X) + H(Y)], in [0, 1].

    Either argument may be CLASS (-1) to mean the class column. Defined as 0
    when both marginal entropies vanish.
    """
    if cache is None:
        cache = SuCache(ds, dmap)
    a, b = cache.column(f1), cache.column(f2)
    h_a, h_b = cache.col_entropy(f1), cache.col_entropy(f2)
    if h_a == 0.0 and h_b == 0.0:
        return 0.0
    h_ab = _entropy_bits(np.bincount(_joint_codes(a, b)))
    return 2.0 * (h_a + h_b - h_ab) / (h_a + h_b)


def cfs_merit(
    ds: Dataset, subset, dmap: DiscretizationMap, cache: SuCache | None = None
) -> float:
    """Correlation-based subset merit: k * r_cf / sqrt(k + k(k-1) * r_ff).

    r_cf is the mean feature-class SU over the subset; r_ff the mean
    pairwise SU among subset features.
    """
    subset = sorted(set(subset))
    if not subset:
        raise DataError("cfs_merit of an empty subset")
    if CLASS in subset:
        raise DataError("subset must not contain the class column")
    if cache is None:
        cache = SuCache(ds, dmap)
    k = len(subset)
    r_cf = sum(cache.su(f, CLASS) for f in subset) / k
    if k == 1:
        r_ff = 0.0
    else:
        pair_sum = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                pair_sum += cache.su(subset[i], subset[j])
        r_ff = pair_sum / (k * (k - 1) / 2)
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def inconsistency_rate(
    ds: Dataset, subset, dmap: DiscretizationMap, cache: SuCache | None = None
) -> float:
    """Fraction of rows that majority rule mislabels within identical
    projected (binned) feature patterns. The empty subset is one all-rows
    pattern, whose majority class explains what it can.

    Each row's pattern is one int64 key, built over the sorted subset as
    key = key * radix + code, where radix is the column's largest code + 1.
    Before the product of the radixes would pass 2**62, the key is first
    re-densified to its rank among the distinct keys so far, so distinct
    patterns never share a key. One bincount over (key group, class) then
    gives each pattern's class counts.
    """
    subset = sorted(set(subset))
    if cache is None:
        cache = SuCache(ds, dmap)
    key = np.zeros(ds.n_rows, dtype=np.int64)
    span = 1  # every key lies in [0, span)
    for f in subset:
        col = cache.column(f)
        radix = int(col.max()) + 1
        if span * radix > 2**62:
            uniq, key = np.unique(key, return_inverse=True)
            span = len(uniq)
        key = key * radix + col
        span *= radix
    uniq, group = np.unique(key, return_inverse=True)
    n_classes = len(ds.class_labels)
    counts = np.bincount(
        group * n_classes + cache.column(CLASS), minlength=len(uniq) * n_classes
    ).reshape(len(uniq), n_classes)
    return (ds.n_rows - int(counts.max(axis=1).sum())) / ds.n_rows


@dataclass(frozen=True)
class FeatureScores:
    """Per-feature scores from a ranking method, plus the induced ordering
    (descending score, ties by ascending feature index)."""

    method: str
    scores: tuple[float, ...]
    ordering: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.ordering) != list(range(len(self.scores))):
            raise DataError("ordering must be a permutation of feature indexes")


def rank_features(method: str, scores) -> FeatureScores:
    scores = tuple(float(s) for s in scores)
    ordering = tuple(sorted(range(len(scores)), key=lambda i: (-scores[i], i)))
    return FeatureScores(method, scores, ordering)


@dataclass(frozen=True)
class SubsetEvaluation:
    """A scored feature subset; value is always larger-is-better (the
    consistency criterion stores the negated inconsistency rate)."""

    subset: frozenset
    value: float


_RELIEF_BLOCK = 16  # sampled rows per neighbour search; larger blocks hold more memory


def relief_sample_count(m: int | None, n_rows: int) -> int:
    """The rows `relieff` samples from a table of n_rows: m, or all for None."""
    if m is not None and not 1 <= m <= n_rows:
        raise DataError(f"sample count m={m} out of range 1..{n_rows} rows")
    return n_rows if m is None else m


def relieff(ds: Dataset, m: int | None = None, k: int = 10, seed: int = 0) -> FeatureScores:
    """Relief-style feature weights from nearest hits and misses.

    For each sampled row, the k nearest same-class rows pull each feature's
    weight down by the mean normalized difference, and the k nearest rows of
    every other class push it up, weighted by that class's prior over the
    complement of the sampled row's class. Distances are Manhattan over
    range-normalized numeric values with 0/1 nominal mismatches. m = None
    (or n_rows) visits every row once, deterministically; smaller m samples
    rows without replacement using the seed. k is clamped per class when a
    class is smaller than k + 1. Neighbours are ordered by distance, then by
    a value-based tie rank, then by row index.

    Sampled rows go _RELIEF_BLOCK at a time, with one partition per class
    for the block; a row whose k-th distance ties, or a class of k rows or
    fewer, takes the full per-row sort. Sums and weights add up in the
    row-at-a-time order, so every score is the same float.
    """
    n = ds.n_rows
    m = relief_sample_count(m, n)
    if k < 1:
        raise DataError("k must be >= 1")
    n_feat = ds.n_features
    feats = ds.feature_matrix()
    numeric = np.array([ds.feature_spec(f).kind == NUMERIC for f in range(n_feat)])
    nominal = np.flatnonzero(~numeric)
    spans = feats.max(axis=0) - feats.min(axis=0)
    norm = np.zeros((n, n_feat))
    for f in range(n_feat):
        if numeric[f]:
            norm[:, f] = (feats[:, f] - feats[:, f].min()) / spans[f] if spans[f] > 0 else 0.0
        else:
            norm[:, f] = feats[:, f]

    def diff_sums(rows: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
        """(len(rows), features): each row's differences to its neighbours
        nbrs (len(rows), j), summed over the j neighbours in order."""
        other, own_row = norm[nbrs], norm[rows, None]
        d = np.abs(other - own_row)
        if len(nominal):
            d[..., nominal] = other[..., nominal] != own_row[..., nominal]
        return d.sum(axis=1)

    y = ds.class_codes()
    n_classes = len(ds.class_labels)
    sizes = np.bincount(y, minlength=n_classes)
    prior = sizes / n
    groups = [np.flatnonzero(y == c) for c in range(n_classes)]
    # value-based tie rank: identical rows share a rank, so neighbor choice
    # among ties never depends on row order
    _, tie_rank = np.unique(norm, axis=0, return_inverse=True)

    if m == n:
        sample = np.arange(n)
    else:
        sample = np.random.default_rng(int(seed)).choice(n, size=m, replace=False)

    w = np.zeros(n_feat)
    buf = np.empty((n, n_feat))
    dist = np.empty((_RELIEF_BLOCK, n))
    for lo in range(0, m, _RELIEF_BLOCK):
        rows = sample[lo:lo + _RELIEF_BLOCK]
        for i, r in enumerate(rows):
            np.subtract(norm, norm[r], out=buf)
            np.abs(buf, out=buf)
            if len(nominal):
                buf[:, nominal] = norm[:, nominal] != norm[r, nominal]
            buf.sum(axis=1, out=dist[i])
        # term[i, cls]: row i's mean difference to its cls neighbours
        term = np.empty((len(rows), n_classes, n_feat))
        for cls, grp in enumerate(groups):
            own = y[rows] == cls
            d = dist[:len(rows), grp]
            d[grp == rows[:, None]] = np.inf  # a row is not its own neighbour
            fast = np.zeros(len(rows), dtype=bool)
            if len(grp) > k:
                kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
                near = d <= kth
                fast = np.count_nonzero(near, axis=1) == k
                at = np.nonzero(near[fast])[1].reshape(-1, k)  # in group order
                keys = (tie_rank[grp[at]], np.take_along_axis(d[fast], at, axis=1))
                nbrs = grp[np.take_along_axis(at, np.lexsort(keys, axis=-1), axis=1)]
                term[fast, cls] = diff_sums(rows[fast], nbrs) / (m * k)
            for i in np.flatnonzero(~fast):
                k_use = min(k, len(grp) - int(own[i]))
                if k_use:
                    nbrs = grp[np.lexsort((tie_rank[grp], d[i]))[:k_use]]
                    term[i, cls] = diff_sums(rows[i:i + 1], nbrs[None])[0] / (m * k_use)
        # a row has neighbours in every class but its own one-row class
        has = sizes > (y[rows, None] == np.arange(n_classes))
        for i, r in enumerate(rows):
            c = y[r]
            for cls in np.flatnonzero(has[i]):
                if cls == c:
                    w -= term[i, cls]
                else:
                    w += prior[cls] / (1.0 - prior[c]) * term[i, cls]
    return rank_features("relieff", w)


def rank_cutoff(scores: FeatureScores, rule: str, value=None) -> frozenset:
    """Turn a ranking into a feature set.

    rule = "keep_all" keeps everything; "top_k" keeps the first k of the
    ordering; "threshold" keeps features scoring strictly above value.
    """
    n = len(scores.scores)
    if rule == "keep_all":
        return frozenset(range(n))
    if rule == "top_k":
        k = int(value)
        if not 1 <= k <= n:
            raise DataError(f"top_k: k={k} out of range 1..{n}")
        return frozenset(scores.ordering[:k])
    if rule == "threshold":
        t = float(value)
        return frozenset(i for i, s in enumerate(scores.scores) if s > t)
    raise DataError(f"unknown cutoff rule {rule!r}")


def info_gain_scores(ds: Dataset, dmap: DiscretizationMap) -> FeatureScores:
    return rank_features("info_gain", [info_gain(ds, f, dmap) for f in range(ds.n_features)])


def scores_to_csv(scores: FeatureScores, feature_names) -> str:
    """CSV rows: feature name, method, score, rank."""
    rank_of = {f: r for r, f in enumerate(scores.ordering)}
    rows = [
        (name, scores.method, repr(scores.scores[f]), rank_of[f]) for f, name in enumerate(feature_names)
    ]
    return render_table(("feature", "method", "score", "rank"), rows, "csv")
