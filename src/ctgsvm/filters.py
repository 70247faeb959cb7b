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


# rows and columns of a relief distance tile: three scratch tiles of 138 KB
# (at k = 10) keep relief's working memory near 1.5 MB on 1487 rows;
# smaller tiles take more numpy calls per distance
_RELIEF_TILE = 128


class _Scratch:
    """Reused flat buffers of `size` 8-byte items, lent out as arrays."""

    def __init__(self, size: int):
        self.size = size
        self.free: list[np.ndarray] = []

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        buf = self.free.pop() if self.free else np.empty(self.size)
        return buf[:math.prod(shape)].view(dtype).reshape(shape)

    def give(self, arr: np.ndarray) -> None:
        self.free.append(arr.base)


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

    Each distance is computed once, in square tiles of a feature-major copy
    of the normalized table, adding its features in index order. The
    sampled rows come first, then the rest, each grouped by class so that
    most tiles hold one class. A tile of sampled rows against sampled rows
    serves both its rows and its columns; one against unsampled rows serves
    its rows. Each sampled row keeps its k nearest per class so far: one
    partition per tile and class, and the full order where the k-th
    distance ties or fewer than k rows were met. Last, each row's neighbour
    differences are summed in neighbour order and the weights added in
    sample order, so every score is the same float as the row-at-a-time
    loop gives.
    """
    n = ds.n_rows
    m = relief_sample_count(m, n)
    if k < 1:
        raise DataError("k must be >= 1")
    n_feat = ds.n_features
    numeric = [ds.feature_spec(f).kind == NUMERIC for f in range(n_feat)]
    nominal = np.flatnonzero(np.logical_not(numeric))
    if m == n:
        sample = np.arange(n)
    else:
        sample = np.random.default_rng(int(seed)).choice(n, size=m, replace=False)
    # the table row at each position: the sampled rows, then the rest, each
    # grouped by class, so that most tiles hold one class
    classes = ds.class_codes()
    rest = np.setdiff1d(np.arange(n), sample)
    by_class = np.argsort(classes[sample], kind="stable")
    at = np.concatenate((sample[by_class], rest[np.argsort(classes[rest], kind="stable")]))
    y = classes[at]
    cols = np.empty((n_feat, n))  # the normalized table, feature-major
    for f in range(n_feat):
        cols[f] = ds.feature_column(f)[at]
        if numeric[f]:
            low, span = cols[f].min(), np.ptp(cols[f])
            cols[f] = (cols[f] - low) / span if span > 0 else 0.0
    rows = cols.T  # a row-major view of it
    # neighbours at one distance go by a value-based tie rank, in which
    # identical rows share a rank, so the choice never depends on row
    # order; then by row index
    tie_key = np.unique(rows, axis=0, return_inverse=True)[1].ravel() * n + at
    n_classes = len(ds.class_labels)
    sizes = np.bincount(y, minlength=n_classes)
    prior = sizes / n
    scratch = _Scratch(_RELIEF_TILE * (_RELIEF_TILE + k))

    # each sampled row's k nearest per class so far; an inf distance stands
    # for no row, as long as fewer than k rows of the class were met
    near_d = np.full((m, n_classes, k), np.inf)
    near_i = np.zeros((m, n_classes, k), dtype=np.int32)

    def merge(rs: slice, cs: slice, d: np.ndarray) -> None:
        """Fold the distances d of rows rs to rows cs into the k nearest of rs."""
        line = np.arange(len(d))[:, None]
        bounds = np.searchsorted(y[cs], np.arange(n_classes + 1))
        for c in np.flatnonzero(np.diff(bounds)):
            a, b = bounds[c], bounds[c + 1]
            cand = scratch.take((len(d), k + b - a))
            ids = scratch.take(cand.shape, np.int64)
            cand[:, :k], cand[:, k:] = near_d[rs, c], d[:, a:b]
            ids[:, :k], ids[:, k:] = near_i[rs, c], np.arange(cs.start + a, cs.start + b)
            # a row with exactly k candidates at or below its k-th distance
            # keeps those; a tie there, or fewer than k met, takes the full order
            kth = np.partition(cand, k - 1, axis=1)[:, k - 1:k]
            near = cand <= kth
            fast = np.count_nonzero(near, axis=1) == k
            pick = np.empty((len(d), k), dtype=np.intp)
            pick[fast] = np.nonzero(near[fast])[1].reshape(-1, k)
            slow = np.flatnonzero(~fast)
            if len(slow):
                pick[slow] = np.lexsort((tie_key[ids[slow]], cand[slow]), axis=-1)[:, :k]
            near_d[rs, c] = cand[line, pick]
            near_i[rs, c] = ids[line, pick]
            scratch.give(cand)
            scratch.give(ids)

    def diff(f: int, rs: slice, cs: slice, out: np.ndarray) -> None:
        if numeric[f]:
            np.subtract(cols[f, rs, None], cols[f, None, cs], out=out)
            np.abs(out, out=out)
        else:
            np.not_equal(cols[f, rs, None], cols[f, None, cs], out=out)

    blocks = [slice(lo, min(lo + _RELIEF_TILE, m)) for lo in range(0, m, _RELIEF_TILE)]
    others = [slice(lo, min(lo + _RELIEF_TILE, n)) for lo in range(m, n, _RELIEF_TILE)]
    for i, rs in enumerate(blocks):
        for cs in blocks[i:] + others:
            d = scratch.take((rs.stop - rs.start, cs.stop - cs.start))
            part = scratch.take(d.shape)
            diff(0, rs, cs, d)
            for f in range(1, n_feat):
                diff(f, rs, cs, part)
                d += part
            scratch.give(part)
            if cs is rs:
                np.fill_diagonal(d, np.inf)  # a row is not its own neighbour
            merge(rs, cs, d)
            if cs is not rs and cs.stop <= m:
                merge(cs, rs, d.T)
            scratch.give(d)

    # the weights, 16 sampled rows at a time in sample order
    where = np.argsort(by_class)  # the position of each sampled row
    w = np.zeros(n_feat)
    for lo in range(0, m, 16):
        part = where[lo:lo + 16]
        nd, ni = near_d[part], near_i[part]
        nbrs = np.take_along_axis(ni, np.lexsort((tie_key[ni], nd), axis=-1), axis=-1)
        diffs, mine = rows[nbrs], rows[part][:, None, None]
        mismatch = diffs[..., nominal] != mine[..., nominal]
        np.subtract(diffs, mine, out=diffs)
        np.abs(diffs, out=diffs)
        diffs[..., nominal] = mismatch
        # each row's differences to its k_use nearest of a class, summed
        # in neighbour order as one (k_use, features) array sums
        own = y[part, None] == np.arange(n_classes)
        use = np.minimum(k, sizes - own)
        sums = np.empty((len(part), n_classes, n_feat))
        for u in np.unique(use):
            sums[use == u] = diffs[use == u][:, :u].sum(axis=1)
        # a class with no neighbours adds nothing, also in a table of one
        # class, where 1 - prior is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(own, -1.0, prior / (1.0 - prior[y[part], None]))
            terms = coef[..., None] * (sums / (m * use[..., None]))
        terms[use == 0] = 0.0
        w = np.add.accumulate(np.vstack((w, terms.reshape(-1, n_feat))), axis=0)[-1]
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
