"""Deterministic synthetic stand-in for the cardiotocography table.

The real recordings are not redistributable with this package, so this
module fabricates a table with the same shape and class balance: 2126 rows,
21 numeric fetal-heart-rate features plus a 10-valued pattern-code column
(CLASS) and the 3-valued state target (NSP; 1655 Normal / 295 Suspect /
176 Pathologic). Feature distributions follow the documented semantics
(baseline bpm, variability percentages, histogram statistics), informative
columns shift by class, the histogram trio Mode/Mean/Median is deliberately
collinear, and a small fraction of rows is ambiguous so classifiers top out
near (not at) 100%.

Everything is a pure function of the seed.
"""
from __future__ import annotations

import numpy as np

from .data import AttributeSpec, DataError, Dataset, NOMINAL, NUMERIC

DEFAULT_SEED = 20260811
N_ROWS = 2126
CLASS_COUNTS = {"Normal": 1655, "Suspect": 295, "Pathologic": 176}
CLASS_ORDER = ("Normal", "Suspect", "Pathologic")  # generation order
LABELS = ("Normal", "Pathologic", "Suspect")  # lexicographic, as loaded

FEATURES = (
    "LB", "AC", "FM", "UC", "DL", "DS", "DP", "ASTV", "MSTV", "ALTV", "MLTV",
    "Width", "Min", "Max", "Nmax", "Nzeros", "Mode", "Mean", "Median",
    "Variance", "Tendency",
)

# per-class (mean, sd) for the plainly gaussian columns, keyed N/S/P
_GAUSS = {
    "LB":   ((133, 8), (142, 7), (128, 10)),
    "ASTV": ((42, 12), (67, 8), (72, 10)),
    "MSTV": ((1.5, 0.5), (0.6, 0.2), (2.2, 0.9)),
    "MLTV": ((8.6, 5.0), (7.0, 4.5), (5.5, 4.2)),
}


def _clipped(rng, mean, sd, size, lo=0.0, hi=None):
    v = rng.normal(mean, sd, size)
    v = np.clip(v, lo, hi if hi is not None else np.inf)
    return v


def _class_sizes(n_rows: int) -> dict[str, int]:
    """Rows per class for an n_rows table: n_rows apportioned in the
    published class proportions by largest remainder (ties to the earlier
    class in CLASS_ORDER), then at least 2 rows per class, taken from the
    largest class. The sizes sum to n_rows."""
    if n_rows < 2 * len(CLASS_ORDER):
        raise DataError(f"a synthetic table needs at least {2 * len(CLASS_ORDER)} rows, not {n_rows}")
    quotas = [divmod(CLASS_COUNTS[c] * n_rows, N_ROWS) for c in CLASS_ORDER]
    sizes = [whole for whole, _ in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda k: -quotas[k][1])
    for k in by_remainder[:n_rows - sum(sizes)]:
        sizes[k] += 1
    for k, m in enumerate(sizes):
        if m < 2:
            sizes[0] -= 2 - m  # CLASS_ORDER[0] is the largest class
            sizes[k] = 2
    return dict(zip(CLASS_ORDER, sizes))


def make_ctg_like(seed: int = DEFAULT_SEED, n_rows: int = N_ROWS) -> Dataset:
    """Build the synthetic table of n_rows rows, with class sizes from
    `_class_sizes`."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, not {seed!r}")
    rng = np.random.default_rng(int(seed))
    sizes = _class_sizes(n_rows)
    cols = {name: [] for name in FEATURES}
    class_rows = []

    for k, cname in enumerate(CLASS_ORDER):
        m = sizes[cname]
        class_rows.append(np.full(m, k))
        for name, stats in _GAUSS.items():
            mean, sd = stats[k]
            cols[name].append(_clipped(rng, mean, sd, m))

        accel = (0.0040, 0.0008, 0.0002)[k]
        cols["AC"].append(_clipped(rng, accel, (0.0012, 0.0005, 0.0002)[k], m))
        # bounded tails: spiky rare-event columns would dominate the scaled
        # feature space and wreck high-degree kernel conditioning
        cols["FM"].append(np.minimum(np.abs(rng.standard_cauchy(m)) * 0.004, 0.025))
        cols["UC"].append(_clipped(rng, 0.0045, 0.0029, m))
        cols["DL"].append(_clipped(rng, (0.0018, 0.0008, 0.0030)[k], 0.0022, m))
        cols["DS"].append((rng.random(m) < 0.05) * 0.001)
        dp = (0.00005, 0.0004, 0.0030)[k]
        cols["DP"].append(_clipped(rng, dp, (0.0002, 0.0004, 0.0012)[k], m))
        alt = (5.0, 33.0, 38.0)[k]
        cols["ALTV"].append(_clipped(rng, alt, (7.0, 12.0, 16.0)[k], m, hi=91.0))

        width = _clipped(rng, (74, 52, 96)[k], (32, 22, 30)[k], m, lo=6.0)
        lo_edge = _clipped(rng, 128 - 0.62 * width, 9, m, lo=50.0)
        cols["Width"].append(width)
        cols["Min"].append(lo_edge)
        cols["Max"].append(lo_edge + width + rng.normal(0, 2, m))
        cols["Nmax"].append(rng.poisson(np.maximum(width / 18.0, 0.5)))
        cols["Nzeros"].append(rng.poisson(0.3, m))

        center = _clipped(rng, (138, 144, 114)[k], (10, 7, 14)[k], m, lo=60.0)
        cols["Mode"].append(center + rng.normal(0, 3.0, m))
        cols["Mean"].append(center + rng.normal(0, 2.0, m))
        cols["Median"].append(center + rng.normal(0, 2.5, m))
        var = (12.0, 3.5, 55.0)[k]
        cols["Variance"].append(_clipped(rng, var, (9.0, 2.5, 28.0)[k], m))
        tend_p = ((0.10, 0.55, 0.35), (0.05, 0.35, 0.60), (0.45, 0.40, 0.15))[k]
        cols["Tendency"].append(rng.choice((-1.0, 0.0, 1.0), size=m, p=tend_p))

    y = np.concatenate(class_rows)
    n = len(y)
    feats = np.column_stack([np.concatenate(cols[name]) for name in FEATURES])

    # integer-valued columns, matching the published table's granularity
    for name in ("LB", "ASTV", "ALTV", "Width", "Min", "Max", "Nmax", "Nzeros",
                 "Mode", "Mean", "Median", "Variance"):
        j = FEATURES.index(name)
        feats[:, j] = np.round(feats[:, j])

    # pattern code 1..10: mostly determined by the state, with bleed-through
    code_pool = ((1, 2, 3, 4, 7), (5, 6, 10), (6, 8, 9))
    codes = np.empty(n)
    for k in range(3):
        idx = np.flatnonzero(y == k)
        own = rng.random(len(idx)) < 0.9
        codes[idx] = np.where(
            own,
            rng.choice(code_pool[k], size=len(idx)),
            rng.choice(np.arange(1, 11), size=len(idx)),
        )

    # ambiguous rows: a slice of each class drifts toward another class's
    # profile, capping attainable accuracy just under 100%
    strong = [FEATURES.index(f) for f in ("AC", "DP", "ASTV", "MSTV", "ALTV",
                                          "Mode", "Mean", "Median", "Variance")]
    n_blur = int(round(0.011 * n))
    blur_idx = rng.choice(n, size=n_blur, replace=False)
    for i in blur_idx:
        other = rng.integers(0, 3)
        donor_rows = np.flatnonzero(y == other)
        donor = donor_rows[rng.integers(0, len(donor_rows))]
        mixw = 0.55 + 0.40 * rng.random()
        feats[i, strong] = mixw * feats[donor, strong] + (1 - mixw) * feats[i, strong]

    order = rng.permutation(n)
    feats = feats[order]
    codes = codes[order]
    y = y[order]

    schema = [AttributeSpec(name, NUMERIC) for name in FEATURES]
    schema.append(AttributeSpec("CLASS", NUMERIC))
    schema.append(AttributeSpec("NSP", NOMINAL, LABELS))
    gen_to_label = [LABELS.index(c) for c in CLASS_ORDER]
    class_col = np.array([gen_to_label[int(c)] for c in y], dtype=float)
    rows = np.column_stack([feats, codes, class_col])
    return Dataset(schema, rows, len(schema) - 1)
