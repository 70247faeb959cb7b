"""Bagged SVM ensembles: bootstrap resampling, majority voting, and
member-agreement statistics.

An ensemble predicts with one kernel product over the distinct support rows
of every member's machines (`svm._Stack`); each member then votes one
versus one on its own decisions, and the members' labels go to one vote.

Member seeds are derived from the master seed with a splitmix-style mixer,
so each member is fully determined by (master_seed, member_index) no matter
how or where the members are trained.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, Standardizer, _read_text
from .svm import (
    SvmConfig,
    SvmModel,
    _Stack,
    model_from_lines,
    model_to_lines,
    train_multiclass,
)

ENSEMBLE_MAGIC = "ctgsvm-ensemble"
ENSEMBLE_VERSION = 1

VOTE_RULES = ("unweighted_majority", "weighted_by_train_accuracy")

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
    vote: str = "unweighted_majority"

    def __post_init__(self):
        if self.members < 1:
            raise DataError("members must be >= 1")
        if self.vote not in VOTE_RULES:
            raise DataError(f"unknown vote rule {self.vote!r}")


@dataclass
class EnsembleModel:
    members: list[tuple[SvmModel, int, float]]  # (model, bootstrap seed, train accuracy)
    vote: str
    classes: tuple[str, ...]
    class_priors: np.ndarray
    master_seed: int

    def __post_init__(self):
        """Members must agree on everything one stacked evaluation shares:
        the classes, the kernel, the one-vs-one pairs, the feature mask and
        the standardizer."""
        if not self.members:
            raise DataError("an ensemble needs at least one member")
        first = self.members[0][0]
        for i, (m, _, _) in enumerate(self.members, start=1):
            if m.classes != self.classes:
                raise DataError(
                    f"ensemble member {i}: classes {m.classes} differ from the ensemble's {self.classes}"
                )
            for what, got, want in (
                ("kernel", m.machines[0].kernel, first.machines[0].kernel),
                ("class pairs", m.pairs, first.pairs),
                ("feature mask", m.feature_mask, first.feature_mask),
                ("standardizer", _standardizer_key(m.standardizer), _standardizer_key(first.standardizer)),
            ):
                if got != want:
                    raise DataError(f"ensemble member {i}: {what} differs from member 1's")

    @property
    def converged(self) -> bool:
        return all(m.converged for m, _, _ in self.members)

    @cached_property
    def _stack(self) -> _Stack:
        # one group of machines per member; built on first prediction
        machines = [mach for m, _, _ in self.members for mach in m.machines]
        return _Stack.of(machines, self.members[0][0].pairs, len(self.classes))

    @cached_property
    def _priors(self) -> np.ndarray:
        """(members, classes): each member's training class shares, which
        break ties in its vote."""
        counts = np.array([m.class_counts for m, _, _ in self.members])
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
        return EnsembleModel(self.members[:m], self.vote, self.classes, self.class_priors, self.master_seed)

    def member_predictions(self, ds: Dataset) -> list[list[str]]:
        self.members[0][0]._check_columns(ds.feature_names)
        codes = self._member_codes(ds.feature_matrix())
        return [[self.classes[c] for c in column] for column in codes.T]

    def vote_labels(self, per_member) -> tuple[list[str], int]:
        """Row-wise vote over one label list per member, in member order;
        returns the voted labels and the number of tied rows."""
        if len(per_member) != len(self.members):
            raise DataError(f"{len(per_member)} label lists for {len(self.members)} members")
        weights = None
        if self.vote == "weighted_by_train_accuracy":
            weights = [acc for _, _, acc in self.members]
        priors = {c: float(p) for c, p in zip(self.classes, self.class_priors)}
        labels, ties = [], 0
        for row in zip(*per_member):
            lab, tie = _vote(row, priors, self.classes, weights)
            labels.append(lab)
            ties += tie
        return labels, ties

    def predict_dataset(self, ds: Dataset) -> tuple[list[str], dict]:
        labels, ties = self.vote_labels(self.member_predictions(ds))
        return labels, {"vote_ties": ties}

    def predict_values(self, values) -> str:
        codes = self._member_codes(np.asarray(values, dtype=float).reshape(1, -1))
        return self.vote_labels([[self.classes[c]] for c in codes[0]])[0][0]


def _vote(predictions, priors, class_order, weights=None) -> tuple[str, int]:
    totals: Counter = Counter()
    if weights is None:
        totals.update(predictions)
    else:
        for lab, w in zip(predictions, weights):
            totals[lab] += w
    top = max(totals.values())
    cands = [lab for lab, v in totals.items() if v == top]
    if len(cands) == 1:
        return cands[0], 0
    rank = {c: i for i, c in enumerate(class_order)}
    cands.sort(key=lambda lab: (-priors.get(lab, 0.0), rank.get(lab, len(rank))))
    return cands[0], 1


def bagging_train(
    train: Dataset,
    cfg: EnsembleConfig,
    feature_mask=None,
    standardizer: Standardizer | None = None,
) -> EnsembleModel:
    """Train cfg.members machines on seeded bootstrap resamples.

    A bootstrap that drops a class entirely is redrawn from a further
    derived seed (up to 10 retries). Each member's accuracy on the full
    training set is recorded for the weighted voting rule.
    """
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
        model = train_multiclass(sample, cfg.base, feature_mask, standardizer)
        preds, _ = model.predict_dataset(train)
        truth = [train.class_labels[c] for c in train.class_codes()]
        acc = sum(p == t for p, t in zip(preds, truth)) / train.n_rows
        members.append((model, seed, acc))
    priors = np.bincount(train.class_codes(), minlength=k) / train.n_rows
    return EnsembleModel(members, cfg.vote, train.class_labels, priors, cfg.master_seed)


def _standardizer_key(s: Standardizer | None):
    if s is None:
        return None
    return s.means.tolist(), s.sigmas.tolist(), [spec.name for spec in s.feature_schema]


def agreement(per_member) -> float:
    """Fraction of rows on which every member's label list holds the same label."""
    if len(per_member) < 2:
        raise DataError("agreement needs at least 2 members")
    agree = sum(1 for row in zip(*per_member) if len(set(row)) == 1)
    return agree / len(per_member[0])


# ---------------------------------------------------------------------------
# Persistence: manifest line plus one embedded model section per member


def save_ensemble(model: EnsembleModel, path) -> None:
    lines = [f"{ENSEMBLE_MAGIC} {ENSEMBLE_VERSION}"]
    lines.append(
        "manifest\t%d\t%d\t%s" % (len(model.members), model.master_seed, model.vote)
    )
    lines.append("classes\t" + "\t".join(model.classes))
    lines.append("priors\t" + "\t".join(float(p).hex() for p in model.class_priors))
    for m, seed, acc in model.members:
        lines.append("member\t%d\t%s" % (seed, float(acc).hex()))
        lines.extend(model_to_lines(m))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_ensemble(path) -> EnsembleModel:
    """Read an ensemble file; a truncated or corrupt file raises DataError."""
    lines = _read_text(path).splitlines()

    def fields(pos: int, expect: str, n: int | None = None) -> list[str]:
        if pos >= len(lines):
            raise DataError(f"truncated ensemble file: expected {expect!r} at line {pos + 1}")
        parts = lines[pos].split("\t")
        if parts[0] != expect or (n is not None and len(parts) != n + 1):
            raise DataError(f"malformed ensemble file: expected {expect!r} at line {pos + 1}")
        return parts[1:]

    head = lines[0].split() if lines else []
    if not head or head[0] != ENSEMBLE_MAGIC:
        raise DataError("not an ensemble file")
    try:
        if len(head) != 2 or int(head[1]) != ENSEMBLE_VERSION:
            raise DataError(f"unsupported ensemble version {' '.join(head[1:])!r}")
        n_members, master_seed, vote = fields(1, "manifest", 3)
        n_members, master_seed = int(n_members), int(master_seed)
        if n_members < 1 or vote not in VOTE_RULES:
            raise DataError("malformed ensemble file: bad manifest at line 2")
        classes = tuple(fields(2, "classes"))
        priors = np.array([float.fromhex(p) for p in fields(3, "priors", len(classes))])
        pos = 4
        members = []
        for _ in range(n_members):
            seed, acc = fields(pos, "member", 2)
            model, pos = model_from_lines(lines, pos + 1)
            members.append((model, int(seed), float.fromhex(acc)))
    except DataError:
        raise
    except (ValueError, OverflowError) as exc:  # int() or float.fromhex() of a corrupt field
        raise DataError(f"malformed ensemble file: {exc}") from None
    if pos != len(lines):
        raise DataError(f"malformed ensemble file: trailing data at line {pos + 1}")
    return EnsembleModel(members, vote, classes, priors, master_seed)
