"""Feature-subset search: greedy best-first and a generational GA over
bitmasks.

All searches share one tie rule, carried by the key `_rank` (higher score,
then smaller subset, then lexicographically smallest index tuple), never
return an empty subset, and are deterministic given their configuration
and seed.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DataError
from .filters import SubsetEvaluation, SuCache, cfs_merit, inconsistency_rate
from .report import render_table


class SubsetEvaluator:
    """Deterministic larger-is-better subset scorer with memo and call count.
    While `trace` is a list, every call appends (call number, subset, score)
    to it: the search's steps, memo hits included."""

    def __init__(self, fn: Callable[[frozenset], float]):
        self._fn = fn
        self.calls = 0
        self._memo: dict[frozenset, float] = {}
        self.trace: list | None = None

    def score(self, subset: frozenset) -> float:
        self.calls += 1
        got = self._memo.get(subset)
        if got is None:
            got = float(self._fn(subset))
            self._memo[subset] = got
        if self.trace is not None:
            self.trace.append((self.calls, subset, got))
        return got


def make_cfs_evaluator(ds, dmap) -> SubsetEvaluator:
    cache = SuCache(ds, dmap)
    return SubsetEvaluator(lambda s: cfs_merit(ds, s, dmap, cache=cache) if s else 0.0)


def make_consistency_evaluator(ds, dmap) -> SubsetEvaluator:
    cache = SuCache(ds, dmap)
    return SubsetEvaluator(lambda s: -inconsistency_rate(ds, s, dmap, cache=cache))


def _rank(subset: frozenset, value: float) -> tuple:
    """The shared tie rule as a key, smallest first: higher score, then
    smaller subset, then lexicographically smallest index tuple."""
    return (-value, len(subset), tuple(sorted(subset)))


def _best_singleton(evaluator: SubsetEvaluator, n_features: int) -> SubsetEvaluation:
    scored = [(frozenset([f]), evaluator.score(frozenset([f]))) for f in range(n_features)]
    return SubsetEvaluation(*min(scored, key=lambda s: _rank(*s)))


@dataclass(frozen=True)
class BestFirstConfig:
    stale_limit: int = 5

    def __post_init__(self):
        if self.stale_limit < 1:
            raise DataError(f"stale_limit must be >= 1, not {self.stale_limit!r}")


def best_first(
    evaluator: SubsetEvaluator,
    n_features: int,
    cfg: BestFirstConfig = BestFirstConfig(),
) -> SubsetEvaluation:
    """Forward best-first search from the empty set over add-one neighbors.

    Keeps an open list ordered by the tie rule, expands the best node, and
    stops after stale_limit consecutive expansions that fail to improve the
    global best. Total evaluations are capped at stale_limit * n * (n + 1).
    The empty set is never returned; if nothing beats it, the best singleton is.
    """
    if n_features < 1:
        raise DataError("n_features must be >= 1")
    cap = cfg.stale_limit * n_features * (n_features + 1)

    empty = frozenset()
    best_sub, best_val = empty, evaluator.score(empty)
    best_key = _rank(empty, best_val)
    evaluated = 1
    visited = {empty}
    heap = [(best_key, empty)]  # each node enters once, so no comparison reaches a subset
    stale = 0
    while heap and stale < cfg.stale_limit and evaluated < cap:
        _, node = heapq.heappop(heap)
        improved = False
        for f in range(n_features):
            if f in node:
                continue
            child = node | {f}
            if child in visited:
                continue
            visited.add(child)
            val = evaluator.score(child)
            evaluated += 1
            key = _rank(child, val)
            heapq.heappush(heap, (key, child))
            if key < best_key:
                best_sub, best_val, best_key = child, val, key
                improved = True
            if evaluated >= cap:
                break
        if improved:
            stale = 0
        else:
            stale += 1
    if not best_sub:
        return _best_singleton(evaluator, n_features)
    return SubsetEvaluation(best_sub, best_val)


@dataclass(frozen=True)
class GeneticConfig:
    population: int = 20
    generations: int = 20
    crossover_prob: float = 0.6
    mutation_prob: float = 0.033
    seed: int = 1

    def __post_init__(self):
        if self.population < 2 or self.population % 2:
            raise DataError(f"population must be even and >= 2, not {self.population!r}")
        if self.generations < 0:
            raise DataError(f"generations must be >= 0, not {self.generations!r}")
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataError(f"{name} must lie in [0, 1], not {getattr(self, name)!r}")


def genetic_search(
    evaluator: SubsetEvaluator,
    n_features: int,
    cfg: GeneticConfig = GeneticConfig(),
) -> SubsetEvaluation:
    """Generational GA over fixed-length bitmasks.

    Roulette selection on min-shifted fitness, single-point crossover,
    per-bit mutation, elitism of one. All-zero individuals score as worst
    and are never returned; the best individual ever seen wins.
    """
    if n_features < 1:
        raise DataError("n_features must be >= 1")
    rng = np.random.default_rng(int(cfg.seed))
    pop = rng.random((cfg.population, n_features)) < 0.5

    best = None  # (key, subset, value) of the best individual so far

    def evaluate(population: np.ndarray) -> np.ndarray:
        nonlocal best
        raw = np.empty(len(population))
        zero = np.zeros(len(population), dtype=bool)
        for i, mask in enumerate(population):
            sub = frozenset(int(f) for f in np.flatnonzero(mask))
            if not sub:
                zero[i] = True
                raw[i] = 0.0
                continue
            val = evaluator.score(sub)
            raw[i] = val
            if best is None or -val <= best[0][0]:  # only a candidate that can win is keyed
                key = _rank(sub, val)
                if best is None or key < best[0]:
                    best = (key, sub, val)
        if zero.any():
            worst = raw[~zero].min() - 1.0 if (~zero).any() else -1.0
            raw[zero] = worst
        return raw

    def select(fitness: np.ndarray) -> int:
        w = fitness - fitness.min()
        total = w.sum()
        r = rng.random()
        if total <= 0.0:
            return min(int(r * len(w)), len(w) - 1)
        return min(int(np.searchsorted(np.cumsum(w / total), r, side="right")), len(w) - 1)

    fitness = evaluate(pop)
    for _ in range(cfg.generations):
        elite = int(np.lexsort((np.arange(len(pop)), -fitness))[0])
        nxt = [pop[elite].copy()]
        while len(nxt) < cfg.population:
            p1 = pop[select(fitness)].copy()
            p2 = pop[select(fitness)].copy()
            if n_features > 1 and rng.random() < cfg.crossover_prob:
                point = int(rng.integers(1, n_features))
                p1[point:], p2[point:] = p2[point:].copy(), p1[point:].copy()
            for child in (p1, p2):
                flips = rng.random(n_features) < cfg.mutation_prob
                child ^= flips
                if len(nxt) < cfg.population:
                    nxt.append(child)
        pop = np.array(nxt)
        fitness = evaluate(pop)

    if best is None:
        return _best_singleton(evaluator, n_features)
    return SubsetEvaluation(best[1], best[2])


def trace_to_csv(trace) -> str:
    """CSV rows: evaluation index, subset bitmask as hex, score."""
    rows = [(it, hex(sum(1 << f for f in sub)), repr(val)) for it, sub, val in trace]
    return render_table(("iteration", "subset_hex", "score"), rows, "csv")
