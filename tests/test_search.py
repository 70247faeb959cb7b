"""Subset-search behavior against exhaustive enumeration and spec'd rules."""
import numpy as np
import pytest

from ctgsvm.data import DataError
from ctgsvm.filters import cfs_merit, SuCache
from ctgsvm.search import (
    BestFirstConfig,
    GeneticConfig,
    SubsetEvaluator,
    best_first,
    genetic_search,
    make_cfs_evaluator,
    make_consistency_evaluator,
    trace_to_csv,
)
from conftest import nominal_dataset, passthrough_dmap
from oracles import exhaustive_best, forward_selection

SHIPPED_SEED = 7


def ev(fn):
    return SubsetEvaluator(fn)


def two_good_features(s):
    return len(s & {2, 5}) - 0.1 * len(s - {2, 5})


class TestBestFirst:
    def test_recovers_planted_optimum(self):
        res = best_first(ev(two_good_features), 8)
        want, _ = exhaustive_best(two_good_features, 8)
        assert res.subset == want == frozenset({2, 5})

    def test_constant_evaluator_floors_to_first_singleton(self):
        res = best_first(ev(lambda s: 1.0), 8)
        assert res.subset == frozenset({0})

    def test_empty_favoring_evaluator_returns_singleton(self):
        res = best_first(ev(lambda s: -len(s)), 8)
        assert res.subset == frozenset({0})

    def test_beats_or_matches_forward_selection(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(3, 8))
            weights = rng.normal(size=n)
            pair_penalty = rng.normal() * 0.3

            def score(s):
                v = sum(weights[i] for i in s)
                if len(s) >= 2:
                    v += pair_penalty * (len(s) - 1)
                return v

            fwd_sub, fwd_val = forward_selection(score, n)
            res = best_first(ev(score), n)
            assert res.value >= fwd_val - 1e-12

    def test_never_exceeds_exhaustive(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            table = {frozenset(np.flatnonzero([m >> f & 1 for f in range(n)]).tolist()): rng.normal()
                     for m in range(1 << n)}

            def score(s):
                return table[frozenset(s)]

            _, best_val = exhaustive_best(score, n)
            res = best_first(ev(score), n)
            assert res.value <= best_val + 1e-12

    def test_evaluation_count_bound(self):
        cfg = BestFirstConfig(stale_limit=5)
        evaluator = ev(two_good_features)
        res = best_first(evaluator, 8, cfg)
        assert evaluator.calls <= cfg.stale_limit * 8 * 9

    def test_stale_limit_validated(self):
        with pytest.raises(DataError):
            BestFirstConfig(stale_limit=0)


class TestGeneticSearch:
    def test_shipped_seed_finds_unique_optimum(self):
        target = {1, 3, 4}

        def score(s):
            return -len(s ^ target) if s else -99.0

        res = genetic_search(ev(score), 6, GeneticConfig(seed=SHIPPED_SEED))
        assert res.subset == frozenset(target)
        assert res.value == 0.0

    def test_zero_generations_uses_initial_population(self):
        evaluator = ev(two_good_features)
        res = genetic_search(evaluator, 8, GeneticConfig(generations=0, seed=3))
        assert evaluator.calls == 20  # one scoring pass over the population
        assert res.subset  # non-empty

    def test_same_seed_same_result_and_evaluations(self):
        a, b = [], []
        for sink in (a, b):
            evaluator = ev(two_good_features)
            res = genetic_search(evaluator, 8, GeneticConfig(seed=11))
            sink.append((res.subset, res.value, evaluator.calls))
        assert a == b

    def test_evaluation_count_bound(self):
        cfg = GeneticConfig(population=20, generations=20, seed=1)
        evaluator = ev(two_good_features)
        genetic_search(evaluator, 8, cfg)
        assert evaluator.calls <= cfg.population * (cfg.generations + 1)

    def test_monotone_in_generations(self):
        prev = None
        for gens in (0, 5, 10, 20):
            res = genetic_search(
                ev(two_good_features), 8, GeneticConfig(generations=gens, seed=9)
            )
            if prev is not None:
                assert res.value >= prev - 1e-12
            prev = res.value

    def test_config_validation(self):
        with pytest.raises(DataError):
            GeneticConfig(population=7)
        with pytest.raises(DataError):
            GeneticConfig(crossover_prob=1.5)

    def test_never_exceeds_exhaustive(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            n = int(rng.integers(2, 7))
            table = {
                frozenset(f for f in range(n) if m >> f & 1): rng.normal()
                for m in range(1 << n)
            }
            _, best_val = exhaustive_best(lambda s: table[frozenset(s)], n)
            res = genetic_search(
                ev(lambda s: table[frozenset(s)]), n, GeneticConfig(seed=trial)
            )
            assert res.value <= best_val + 1e-12


class TestExhaustive:
    """The exhaustive oracle breaks ties by the searches' own rule, so the
    acceptance gate can hold both searches to its optimum."""

    def test_single_feature(self):
        assert exhaustive_best(lambda s: 1.0, 1)[0] == frozenset({0})
        assert best_first(ev(lambda s: 1.0), 1).subset == frozenset({0})

    def test_size_tie_prefers_smaller_then_lexicographic(self):
        assert exhaustive_best(lambda s: -len(s), 4)[0] == frozenset({0})
        assert best_first(ev(lambda s: -len(s)), 4).subset == frozenset({0})
        assert genetic_search(ev(lambda s: -len(s)), 4, GeneticConfig(seed=SHIPPED_SEED)).subset == frozenset({0})

    def test_cfs_toy_maximizer_matches_second_enumeration(self):
        ds = nominal_dataset(
            {
                "signal": [0, 0, 1, 1, 0, 1],
                "copy": [0, 0, 1, 1, 0, 1],
                "noise": [0, 1, 0, 1, 1, 0],
                "partial": [0, 0, 1, 0, 0, 1],
            },
            ["A", "A", "B", "B", "A", "B"],
        )
        dmap = passthrough_dmap(ds)
        cache = SuCache(ds, dmap)

        def merit(s):
            return cfs_merit(ds, s, dmap, cache=cache)

        subset, value = exhaustive_best(lambda s: merit(s) if s else 0.0, 4)
        # independent enumeration in a different order (descending masks)
        best = None
        for mask in range(15, 0, -1):
            sub = frozenset(f for f in range(4) if mask >> f & 1)
            val = merit(sub)
            key = (-val, len(sub), tuple(sorted(sub)))
            if best is None or key < best[0]:
                best = (key, sub, val)
        assert subset == best[1]
        assert value == pytest.approx(best[2], abs=1e-12)


class TestEvaluatorFactories:
    def make(self):
        return nominal_dataset(
            {"x": [0, 0, 1, 1, 2], "y": [1, 0, 1, 0, 1]}, ["A", "A", "B", "B", "B"]
        )

    def test_cfs_evaluator_wraps_merit(self):
        ds = self.make()
        dmap = passthrough_dmap(ds)
        evaluator = make_cfs_evaluator(ds, dmap)
        assert evaluator.score(frozenset({0})) == pytest.approx(
            cfs_merit(ds, {0}, dmap), abs=1e-12
        )
        assert evaluator.score(frozenset()) == 0.0

    def test_consistency_evaluator_nonpositive(self):
        ds = self.make()
        evaluator = make_consistency_evaluator(ds, passthrough_dmap(ds))
        assert evaluator.score(frozenset({0})) <= 0.0
        # the empty set is one all-rows pattern: 2 of the 5 rows are not "B"
        assert evaluator.score(frozenset()) == -(2 / 5)

    def test_memo_counts_calls_not_evaluations(self):
        evaluator = ev(two_good_features)
        evaluator.score(frozenset({1}))
        evaluator.score(frozenset({1}))
        assert evaluator.calls == 2


def test_trace_csv():
    evaluator = ev(two_good_features)
    evaluator.trace = trace = []
    best_first(evaluator, 4)
    text = trace_to_csv(trace)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,subset_hex,score"
    assert len(lines) == len(trace) + 1
    assert all("0x" in ln for ln in lines[2:])
