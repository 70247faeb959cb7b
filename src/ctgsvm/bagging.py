"""Bagged SVM ensembles: bootstrap resampling, majority voting, and
member-agreement statistics.

An ensemble predicts with one kernel product over the distinct support rows
of every member's machines (`svm._Stack`); each member then votes one
versus one on its own decisions, and `EnsembleModel.vote_codes` tallies
the members' class indexes.

Member seeds are derived from the master seed with a splitmix-style mixer,
so each member is fully determined by (master_seed, member_index) no matter
how or where the members are trained.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, Standardizer, _read_text, fit_standardizer
from .svm import (
    SvmConfig,
    SvmModel,
    _Lines,
    _Stack,
    _one_row,
    model_from_lines,
    model_to_lines,
    train_multiclass,
)

ENSEMBLE_MAGIC = "ctgsvm-ensemble"
ENSEMBLE_VERSION = 2

_MASK64 = (1 << 64) - 1


def split_mix(seed: int, index: int) -> int:
    """Derived 64-bit seed for a member; parallel-safe and order-free."""
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bootstrap_sample(train: Dataset, seed: int) -> Dataset:
    """Seeded sample of n_rows draws with replacement."""
    if train.n_rows == 0:
        raise DataError("cannot bootstrap an empty dataset")
    rng = np.random.default_rng(int(seed))
    idx = rng.integers(0, train.n_rows, size=train.n_rows)
    return train.take(idx)


@dataclass(frozen=True)
class EnsembleConfig:
    members: int
    base: SvmConfig
    master_seed: int

    def __post_init__(self):
        if self.members < 1:
            raise DataError(f"members must be >= 1, not {self.members!r}")
        if self.master_seed < 0:
            raise DataError(f"seed must be >= 0, not {self.master_seed!r}")


@dataclass
class EnsembleModel:
    members: list[tuple[SvmModel, int]]  # (model, bootstrap seed)
    classes: tuple[str, ...]
    class_priors: np.ndarray
    master_seed: int

    def __post_init__(self):
        """Members must agree on everything one stacked evaluation shares:
        the classes (and so the one-vs-one pairs), the kernel, the width and
        feature mask, and the standardizer."""
        if not self.members:
            raise DataError("an ensemble needs at least one member")
        first = self.members[0][0]
        for i, (m, _) in enumerate(self.members, start=1):
            if m.classes != self.classes:
                raise DataError(
                    f"ensemble member {i}: classes {m.classes} differ from the ensemble's {self.classes}"
                )
            for what, got, want in (
                ("kernel", m.machines[0].kernel, first.machines[0].kernel),
                ("feature mask", (m.width, m.feature_mask), (first.width, first.feature_mask)),
                ("standardizer", _standardizer_key(m.standardizer), _standardizer_key(first.standardizer)),
            ):
                if got != want:
                    raise DataError(f"ensemble member {i}: {what} differs from member 1's")

    @property
    def converged(self) -> bool:
        return all(m.converged for m, _ in self.members)

    @cached_property
    def _stack(self) -> _Stack:
        # one group of machines per member; built on first prediction
        machines = [mach for m, _ in self.members for mach in m.machines]
        return _Stack.of(machines, len(self.classes))

    @cached_property
    def _priors(self) -> np.ndarray:
        """(members, classes): each member's training class shares, which
        break ties in its vote."""
        counts = np.array([m.class_counts for m, _ in self.members])
        return counts / counts.sum(axis=1, keepdims=True)

    def _member_codes(self, feats: np.ndarray) -> np.ndarray:
        """(rows, members): each member's class index per row of feats."""
        return self._stack.vote(self.members[0][0]._prepare(feats), self._priors)[0]

    def prefix(self, m: int) -> EnsembleModel:
        """The first m members as an ensemble of their own.

        Member i depends only on (master_seed, i), so this equals the
        ensemble that bagging_train trains with members=m.
        """
        if not 1 <= m <= len(self.members):
            raise DataError(f"prefix of {m} members from an ensemble of {len(self.members)}")
        return EnsembleModel(self.members[:m], self.classes, self.class_priors, self.master_seed)

    def member_predictions(self, ds: Dataset) -> np.ndarray:
        """(rows, members): each member's class index per row of ds."""
        self.members[0][0]._check_columns(ds.feature_names)
        return self._member_codes(ds.feature_matrix())

    def vote_codes(self, codes: np.ndarray) -> tuple[list[int], int]:
        """Each row's majority vote over a (rows, members) class-index
        matrix, a tie going to the larger prior, then the earlier class.
        Returns the winning class indexes and the number of tied rows."""
        if codes.shape[1] != len(self.members):
            raise DataError(f"{codes.shape[1]} member columns for {len(self.members)} members")
        order = sorted(range(len(self.classes)), key=lambda c: (-self.class_priors[c], c))  # tie-break order
        winners, ties = [], 0
        for row in codes.tolist():
            totals = [0] * len(order)
            for c in row:
                totals[c] += 1
            top = max(totals)
            cands = [c for c in order if totals[c] == top]
            winners.append(cands[0])
            ties += len(cands) > 1
        return winners, ties

    def predict_dataset(self, ds: Dataset) -> tuple[list[str], dict]:
        winners, ties = self.vote_codes(self.member_predictions(ds))
        return [self.classes[c] for c in winners], {"vote_ties": ties}

    def predict_values(self, values) -> str:
        codes = self._member_codes(_one_row(values))
        return self.classes[self.vote_codes(codes)[0][0]]


def bagging_train(
    train: Dataset,
    cfg: EnsembleConfig,
    feature_mask=None,
    standardizer: Standardizer | None = None,
) -> EnsembleModel:
    """Train cfg.members machines on seeded bootstrap resamples.

    A bootstrap that drops a class entirely is redrawn from a further
    derived seed (up to 10 retries). Every member shares `standardizer`,
    by default the one fitted on the masked columns of `train`, not of a
    resample.
    """
    if standardizer is None:
        standardizer = fit_standardizer(train, feature_mask)
    k = len(train.class_labels)
    members = []
    for i in range(cfg.members):
        seed = split_mix(cfg.master_seed, i)
        sample = None
        for retry in range(11):
            use_seed = seed if retry == 0 else split_mix(seed, retry)
            cand = bootstrap_sample(train, use_seed)
            if len(np.bincount(cand.class_codes(), minlength=k).nonzero()[0]) == k:
                sample, seed = cand, use_seed
                break
        if sample is None:
            raise DataError(f"member {i}: bootstrap kept losing a class after 10 retries")
        members.append((train_multiclass(sample, cfg.base, feature_mask, standardizer), seed))
    priors = np.bincount(train.class_codes(), minlength=k) / train.n_rows
    return EnsembleModel(members, train.class_labels, priors, cfg.master_seed)


def _standardizer_key(s: Standardizer):
    return s.means.tolist(), s.sigmas.tolist(), [spec.name for spec in s.feature_schema]


def agreement(codes: np.ndarray) -> float:
    """Fraction of the rows of a (rows, members) class-index matrix on which
    every member votes for the same class."""
    if codes.shape[1] < 2:
        raise DataError("agreement needs at least 2 members")
    return np.count_nonzero((codes == codes[:, :1]).all(axis=1)) / len(codes)


# ---------------------------------------------------------------------------
# Persistence: manifest line plus one embedded model section per member


def save_ensemble(model: EnsembleModel, path) -> None:
    lines = [f"{ENSEMBLE_MAGIC} {ENSEMBLE_VERSION}"]
    lines.append("manifest\t%d\t%d" % (len(model.members), model.master_seed))
    lines.append("classes\t" + "\t".join(model.classes))
    lines.append("priors\t" + "\t".join(float(p).hex() for p in model.class_priors))
    for m, seed in model.members:
        lines.append("member\t%d" % seed)
        lines.extend(model_to_lines(m))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_ensemble(path) -> EnsembleModel:
    """Read an ensemble file; a truncated or corrupt file raises DataError."""
    cur = _Lines(_read_text(path).splitlines(), "ensemble")
    model = cur.parse(ENSEMBLE_MAGIC, ENSEMBLE_VERSION, _parse_ensemble)
    cur.end()
    return model


def _parse_ensemble(cur: _Lines) -> EnsembleModel:
    n_members, master_seed = map(int, cur.fields("manifest", 2))
    cur.require(n_members >= 1, "bad manifest")
    classes = tuple(cur.fields("classes"))
    priors = [float.fromhex(p) for p in cur.fields("priors", len(classes))]
    cur.require(all(0.0 <= p <= 1.0 for p in priors), "prior not in [0, 1]")
    members = []
    for _ in range(n_members):
        (seed,) = cur.fields("member", 1)
        model, cur.pos = model_from_lines(cur.lines, cur.pos)
        members.append((model, int(seed)))
    return EnsembleModel(members, classes, np.array(priors), master_seed)
