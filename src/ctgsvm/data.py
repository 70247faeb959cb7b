"""Tabular dataset core: loading, column selection, splitting, scaling, discretization.

A Dataset is an immutable column-typed table: a schema of named attributes
(numeric or nominal) plus a dense float matrix in which nominal cells hold
indexes into the attribute's label list. Exactly one column is the nominal
class column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUMERIC = "numeric"
NOMINAL = "nominal"

MISSING_TOKENS = ("", "?")


class DataError(ValueError):
    """Unreadable file, malformed cell, or schema violation."""


@dataclass(frozen=True)
class AttributeSpec:
    """One column: a name, a kind, and (for nominals) the ordered label list."""

    name: str
    kind: str
    nominal_values: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise DataError(f"unknown attribute kind {self.kind!r}")
        if (self.kind == NOMINAL) != bool(self.nominal_values):
            raise DataError(
                f"attribute {self.name!r}: nominal_values must be non-empty iff nominal"
            )


class Dataset:
    """Immutable table with one nominal class column.

    Feature indexes used throughout the package are positions among the
    non-class columns (0-based, schema order); the class column is never
    part of that numbering.
    """

    __slots__ = ("schema", "rows", "class_column")

    def __init__(self, schema, rows, class_column: int):
        schema = tuple(schema)
        names = [a.name for a in schema]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        if not 0 <= class_column < len(schema):
            raise DataError("class column index out of range")
        if schema[class_column].kind != NOMINAL:
            raise DataError("class column must be nominal")
        rows = np.array(rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, len(schema))
        if rows.ndim != 2 or rows.shape[1] != len(schema):
            raise DataError("row width does not match schema")
        rows.setflags(write=False)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "class_column", class_column)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.schema) - 1

    @property
    def feature_schema_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.schema)) if i != self.class_column)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.schema[i].name for i in self.feature_schema_indices)

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.schema[self.class_column].nominal_values

    def feature_spec(self, feature: int) -> AttributeSpec:
        return self.schema[self.feature_schema_indices[feature]]

    def feature_matrix(self) -> np.ndarray:
        """All non-class columns as a float matrix (copy)."""
        return self.rows[:, list(self.feature_schema_indices)]

    def feature_column(self, feature: int) -> np.ndarray:
        return self.rows[:, self.feature_schema_indices[feature]]

    def class_codes(self) -> np.ndarray:
        return self.rows[:, self.class_column].astype(np.int64)

    def take(self, indices) -> "Dataset":
        """Row subset in the given order (same schema)."""
        return Dataset(self.schema, self.rows[np.asarray(indices, dtype=int)], self.class_column)


# ---------------------------------------------------------------------------
# Loading and export


def load_dataset(path, class_column: str = "NSP") -> Dataset:
    """Load a CSV or ARFF file into a Dataset; the suffix `.arff` picks ARFF.

    CSV: comma separator, "." decimal point, first row is the header, UTF-8.
    All columns are numeric except the class column, whose raw cell strings
    become nominal labels (sorted lexicographically). ARFF nominal columns
    keep their declared label order. Missing values are rejected.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"no such file: {p}")
    text = _read_text(p)
    if p.suffix.lower() == ".arff":
        return _parse_arff(text, class_column)
    return _parse_csv(text, class_column)


def _read_text(path) -> str:
    """The UTF-8 text of a file, its line endings as they are. Bytes that
    are not UTF-8 are a DataError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _split_csv_line(line: str) -> list[str]:
    return [cell.strip().strip('"').strip("'") for cell in line.split(",")]


def _parse_csv(text: str, class_column: str) -> Dataset:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty file")
    header = _split_csv_line(lines[0])
    if class_column not in header:
        raise DataError(f"class column {class_column!r} not found in header")
    cls_pos = header.index(class_column)
    raw_rows = []
    for i, ln in enumerate(lines[1:], start=1):
        cells = _split_csv_line(ln)
        if len(cells) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(cells)}")
        raw_rows.append(cells)
    return _build_typed(header, raw_rows, cls_pos, declared_nominals={})


def _parse_arff(text: str, class_column: str) -> Dataset:
    names: list[str] = []
    declared: dict[int, tuple[str, ...]] = {}
    data_lines: list[str] = []
    in_data = False
    for ln in text.splitlines():
        stripped = ln.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if in_data:
            data_lines.append(stripped)
            continue
        lower = stripped.lower()
        if lower.startswith("@relation"):
            continue
        if lower.startswith("@attribute"):
            rest = stripped[len("@attribute"):].strip()
            if rest.startswith(("'", '"')):
                end = rest.find(rest[0], 1)
                if end < 0:
                    raise DataError(f"attribute name without its closing quote: {stripped!r}")
                name, type_part = rest[1:end], rest[end + 1:].strip()
            else:
                parts = rest.split(None, 1)
                if len(parts) != 2:
                    raise DataError(f"malformed attribute line: {stripped!r}")
                name, type_part = parts
            if type_part.startswith("{"):
                if not type_part.endswith("}"):
                    raise DataError(f"malformed nominal spec for {name!r}")
                values = tuple(
                    v.strip().strip('"').strip("'") for v in type_part[1:-1].split(",")
                )
                if len(set(values)) < len(values):
                    dup = next(v for k, v in enumerate(values) if v in values[:k])
                    raise DataError(f"nominal spec for {name!r} repeats the value {dup!r}")
                declared[len(names)] = values
            elif type_part.lower() not in ("numeric", "real", "integer"):
                raise DataError(f"unsupported attribute type {type_part!r} for {name!r}")
            names.append(name)
            continue
        if lower.startswith("@data"):
            in_data = True
            continue
        raise DataError(f"unexpected line before @data: {stripped!r}")
    if not in_data:
        raise DataError("missing @data section")
    if class_column not in names:
        raise DataError(f"class column {class_column!r} not declared")
    raw_rows = []
    for i, ln in enumerate(data_lines, start=1):
        cells = _split_csv_line(ln)
        if len(cells) != len(names):
            raise DataError(f"row {i}: expected {len(names)} cells, got {len(cells)}")
        raw_rows.append(cells)
    return _build_typed(names, raw_rows, names.index(class_column), declared)


def _build_typed(names, raw_rows, cls_pos, declared_nominals) -> Dataset:
    if not raw_rows:
        raise DataError("the table has a header but no data rows")
    n_cols = len(names)
    # class labels: declared order for ARFF nominals, else sorted raw strings
    if cls_pos in declared_nominals:
        class_labels = declared_nominals[cls_pos]
    else:
        seen = []
        for i, cells in enumerate(raw_rows, start=1):
            v = cells[cls_pos]
            if v in MISSING_TOKENS:
                raise DataError(f"missing value at row {i}, column {names[cls_pos]!r}")
            if v not in seen:
                seen.append(v)
        class_labels = tuple(sorted(seen))

    schema = []
    for j, name in enumerate(names):
        if j == cls_pos:
            schema.append(AttributeSpec(name, NOMINAL, class_labels))
        elif j in declared_nominals:
            schema.append(AttributeSpec(name, NOMINAL, declared_nominals[j]))
        else:
            schema.append(AttributeSpec(name, NUMERIC))

    label_index = {}
    for j, spec in enumerate(schema):
        if spec.kind == NOMINAL:
            label_index[j] = {v: k for k, v in enumerate(spec.nominal_values)}

    matrix = np.empty((len(raw_rows), n_cols), dtype=float)
    for i, cells in enumerate(raw_rows, start=1):
        for j, cell in enumerate(cells):
            if cell in MISSING_TOKENS:
                raise DataError(f"missing value at row {i}, column {names[j]!r}")
            if schema[j].kind == NOMINAL:
                try:
                    matrix[i - 1, j] = label_index[j][cell]
                except KeyError:
                    raise DataError(
                        f"row {i}, column {names[j]!r}: label {cell!r} not in declared set"
                    ) from None
            else:
                try:
                    matrix[i - 1, j] = float(cell)
                except ValueError:
                    raise DataError(
                        f"row {i}, column {names[j]!r}: cannot parse {cell!r} as numeric"
                    ) from None
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        raise DataError(f"row {i + 1}, column {names[j]!r}: non-finite value {raw_rows[i][j]!r}")
    return Dataset(schema, matrix, cls_pos)


def _format_numeric(v: float) -> str:
    v = float(v)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def export_csv(ds: Dataset, path) -> None:
    """Write the dataset back out as CSV, bit-stable for identical inputs."""
    lines = [",".join(a.name for a in ds.schema)]
    for row in ds.rows:
        cells = []
        for j, spec in enumerate(ds.schema):
            if spec.kind == NOMINAL:
                cells.append(spec.nominal_values[int(row[j])])
            else:
                cells.append(_format_numeric(row[j]))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Column selection


def feature_columns(ds: Dataset, mask=None) -> tuple[int, ...]:
    """The feature columns of `mask` in increasing order, every feature of
    `ds` when mask is None: the one place where None means every column. An
    empty mask, a repeated column or one outside the table is a DataError."""
    if mask is None:
        return tuple(range(ds.n_features))
    cols = tuple(sorted(mask))
    if not cols:
        raise DataError("empty feature mask")
    if len(set(cols)) != len(cols):
        raise DataError(f"feature mask {list(cols)} repeats a column")
    if not 0 <= cols[0] <= cols[-1] < ds.n_features:
        raise DataError(f"feature mask {list(cols)} reads outside the table's {ds.n_features} features")
    return cols


def select_features(ds: Dataset, mask) -> Dataset:
    """Keep only the given feature indexes (plus the class column).

    Selected features keep their relative order; the class column moves to
    the last position. Row order is unchanged.
    """
    schema_idx = [ds.feature_schema_indices[f] for f in feature_columns(ds, mask)]
    new_schema = [ds.schema[i] for i in schema_idx] + [ds.schema[ds.class_column]]
    new_rows = ds.rows[:, schema_idx + [ds.class_column]]
    return Dataset(new_schema, new_rows, len(schema_idx))


def mask_by_names(ds: Dataset, keep=None, drop=None) -> list[int]:
    """Translate feature names into a feature index mask."""
    names = ds.feature_names
    if keep is not None:
        missing = [n for n in keep if n not in names]
        if missing:
            raise DataError(f"unknown feature names: {missing}")
        return [i for i, n in enumerate(names) if n in set(keep)]
    drop = set(drop or ())
    unknown = drop - set(names)
    if unknown:
        raise DataError(f"unknown feature names: {sorted(unknown)}")
    return [i for i, n in enumerate(names) if n not in drop]


# ---------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie in (0, 1)")


def stratified_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split rows into train/test partitions by seeded shuffle.

    Every class c hands floor(train_fraction * n_c) of its rows to the train
    side; the remainder goes to test. Both partitions keep the original row
    order. Deterministic for a given seed.
    """
    rng = np.random.default_rng(int(spec.seed))
    codes = ds.class_codes()
    train_idx: list[int] = []
    for c in range(len(ds.class_labels)):
        idx = np.flatnonzero(codes == c)
        if len(idx) < 2:
            raise DataError(
                f"class {ds.class_labels[c]!r} has fewer than 2 rows; cannot stratify"
            )
        n_train = math.floor(spec.train_fraction * len(idx))
        if n_train < 1:
            raise DataError(
                f"class {ds.class_labels[c]!r}: train_fraction leaves no training rows"
            )
        perm = rng.permutation(len(idx))
        train_idx.extend(idx[perm[:n_train]].tolist())
    train_set = set(train_idx)
    train_rows = [i for i in range(ds.n_rows) if i in train_set]
    test_rows = [i for i in range(ds.n_rows) if i not in train_set]
    return ds.take(train_rows), ds.take(test_rows)


def stratified_subsample(ds: Dataset, n_target: int, seed: int) -> Dataset:
    """Seeded stratified subsample of about n_target rows (>=1 per class).

    Per-class quotas are floors of the proportional share; leftover rows go
    to the classes with the largest fractional remainders.
    """
    if n_target >= ds.n_rows:
        return ds
    codes = ds.class_codes()
    k = len(ds.class_labels)
    sizes = [int(np.sum(codes == c)) for c in range(k)]
    exact = [n_target * s / ds.n_rows for s in sizes]
    quotas = [max(1, math.floor(e)) for e in exact]
    remainders = sorted(
        range(k), key=lambda c: (-(exact[c] - math.floor(exact[c])), c)
    )
    i = 0
    while sum(quotas) < n_target:
        c = remainders[i % k]
        if quotas[c] < sizes[c]:
            quotas[c] += 1
        i += 1
    rng = np.random.default_rng(int(seed))
    chosen: list[int] = []
    for c in range(k):
        idx = np.flatnonzero(codes == c)
        perm = rng.permutation(len(idx))
        chosen.extend(idx[perm[: quotas[c]]].tolist())
    return ds.take(sorted(chosen))


# ---------------------------------------------------------------------------
# Standardization

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class Standardizer:
    """Per-feature centering/scaling constants fitted on training rows.

    Numeric features map x -> (x - mean) / sigma with the population sigma;
    sigmas below 1e-12 are floored to 1 so constant features map to zero.
    Nominal features pass through untouched.
    """

    means: np.ndarray
    sigmas: np.ndarray
    feature_schema: tuple[AttributeSpec, ...]

    def transform_features(self, feats: np.ndarray) -> np.ndarray:
        feats = np.asarray(feats, dtype=float)
        if feats.shape[-1] != len(self.feature_schema):
            raise DataError("feature width does not match standardizer")
        return (feats - self.means) / self.sigmas


def fit_standardizer(train: Dataset, columns=None) -> Standardizer:
    """The standardizer of the feature columns `columns` of `train` (every
    feature when None), fitted on its rows."""
    train = select_features(train, columns)
    if train.n_rows == 0:
        raise DataError("cannot fit standardizer on an empty dataset")
    feats = train.feature_matrix()
    means = feats.mean(axis=0)
    sigmas = np.sqrt(np.mean((feats - means) ** 2, axis=0))
    sigmas = np.where(sigmas < SIGMA_FLOOR, 1.0, sigmas)
    fschema = tuple(train.schema[i] for i in train.feature_schema_indices)
    nominal = [spec.kind == NOMINAL for spec in fschema]
    means[nominal], sigmas[nominal] = 0.0, 1.0
    means.setflags(write=False)
    sigmas.setflags(write=False)
    return Standardizer(means, sigmas, fschema)


# ---------------------------------------------------------------------------
# Entropy-minimizing discretization with an MDL stopping rule


def _entropy_bits(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a vector of class counts (0 when empty)."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """_entropy_bits of each row of a (rows, classes) count matrix whose rows
    are not all zero. Rows with the same number of nonzero classes go as one
    block, so that each row's terms are summed as _entropy_bits sums them."""
    nonzero = counts > 0
    width = np.count_nonzero(nonzero, axis=1)
    out = np.empty(len(counts))
    for j in np.unique(width):
        rows = width == j
        c = counts[rows]
        p = c[nonzero[rows]].reshape(-1, j) / c.sum(axis=1, keepdims=True)
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def discretize_mdl(train: Dataset, feature: int) -> tuple[float, ...]:
    """Cut points for one numeric feature via recursive entropy splitting.

    Candidate cuts are midpoints between adjacent distinct values whose
    surrounding rows are not all of one class. A binary split is accepted
    only when its information gain beats the description-length cost
    (log2(N-1)/N plus the class-structure correction term), then both
    halves are split recursively.
    """
    spec = train.feature_spec(feature)
    if spec.kind != NUMERIC:
        raise DataError(f"feature {spec.name!r} is not numeric")
    if train.n_rows == 0:
        raise DataError("empty dataset")
    col = train.feature_column(feature)
    y = train.class_codes()
    order = np.argsort(col, kind="stable")
    v = col[order]
    labels = y[order]
    n = len(v)
    n_classes = len(train.class_labels)

    # prefix[i, c] = count of class c among the first i sorted rows
    prefix = np.zeros((n + 1, n_classes), dtype=np.int64)
    np.cumsum(np.eye(n_classes, dtype=np.int64)[labels], axis=0, out=prefix[1:])

    # candidate positions: value-change boundaries whose two adjacent
    # equal-value groups hold more than one class. Every range split()
    # sees starts and ends on a boundary (or at 0 and n), so a boundary's
    # adjacent groups are the same in every range that contains it.
    bounds = np.flatnonzero(v[1:] != v[:-1]) + 1
    edges = np.concatenate(([0], bounds, [n]))
    spans_classes = np.count_nonzero(prefix[edges[2:]] - prefix[edges[:-2]], axis=1) > 1
    cands = bounds[spans_classes]

    cuts: list[float] = []

    def split(lo: int, hi: int) -> None:
        cand = cands[np.searchsorted(cands, lo, "right"):np.searchsorted(cands, hi)]
        if not len(cand):
            return
        total = prefix[hi] - prefix[lo]
        big_n = hi - lo
        h_s = _entropy_bits(total)
        # every candidate's class-weighted entropy at once; argmin takes the
        # first of equal minima
        h = _entropy_rows(np.concatenate((prefix[cand] - prefix[lo], prefix[hi] - prefix[cand])))
        we = ((cand - lo) * h[:len(cand)] + (hi - cand) * h[len(cand):]) / big_n
        best = int(np.argmin(we))
        best_p, best_we = int(cand[best]), we[best]
        gain = h_s - best_we
        left = prefix[best_p] - prefix[lo]
        right = prefix[hi] - prefix[best_p]
        k = int(np.count_nonzero(total))
        k1 = int(np.count_nonzero(left))
        k2 = int(np.count_nonzero(right))
        delta = math.log2(3**k - 2) - (
            k * h_s - k1 * _entropy_bits(left) - k2 * _entropy_bits(right)
        )
        threshold = (math.log2(big_n - 1) + delta) / big_n
        if gain <= threshold:
            return
        cuts.append((v[best_p - 1] + v[best_p]) / 2.0)
        split(lo, best_p)
        split(best_p, hi)

    split(0, n)
    return tuple(sorted(cuts))


@dataclass(frozen=True)
class DiscretizationMap:
    """Per-feature ordered cut points; empty tuple = single bin."""

    cuts: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for c in self.cuts:
            if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
                raise DataError("cut points must be strictly increasing")

    def bin_column(self, ds: Dataset, feature: int) -> np.ndarray:
        """Binned integer codes for one feature (nominal codes pass through)."""
        spec = ds.feature_spec(feature)
        col = ds.feature_column(feature)
        if spec.kind == NOMINAL:
            return col.astype(np.int64)
        c = self.cuts[feature]
        if not c:
            return np.zeros(ds.n_rows, dtype=np.int64)
        return np.searchsorted(np.asarray(c), col, side="right").astype(np.int64)


def fit_discretization(train: Dataset) -> DiscretizationMap:
    """Run MDL discretization on every numeric feature of the training set."""
    cuts = []
    for f in range(train.n_features):
        if train.feature_spec(f).kind == NUMERIC:
            cuts.append(discretize_mdl(train, f))
        else:
            cuts.append(())
    return DiscretizationMap(tuple(cuts))
