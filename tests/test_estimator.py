"""Unit tests for the evaluate-or-estimate dispatch and its history store."""

import math
import random

import pytest

from blockmatch import estimator
from blockmatch.estimator import (
    ESTIMATED,
    EVALUATED,
    EvaluationRecord,
    HistoryStore,
    Rule,
    StrategyParams,
    classify,
    fitness_of,
)

D = StrategyParams()


def store_of(*entries):
    """Build a store from (position, fitness) pairs, all marked evaluated."""
    store = HistoryStore()
    for position, fitness in entries:
        store.append(EvaluationRecord(position, fitness, EVALUATED))
    return store


class TestParams:
    def test_default_threshold(self):
        assert D.d == 2.5

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            StrategyParams(d=0.0)


class TestRecord:
    def test_negative_fitness_rejected(self):
        with pytest.raises(ValueError):
            EvaluationRecord((0.0, 0.0), -1.0, EVALUATED)

    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError):
            EvaluationRecord((math.inf, 0.0), 1.0, EVALUATED)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EvaluationRecord((0.0, 0.0), 1.0, "guessed")


class TestNearest:
    def test_empty_store(self):
        assert HistoryStore().nearest((0.0, 0.0)) is None

    def test_three_four_five_triangle(self):
        store = store_of(((0.0, 0.0), 100.0))
        hit = store.nearest((3.0, 4.0))
        assert hit.record.position == (0.0, 0.0)
        assert hit.distance == 5.0

    def test_closest_of_two(self):
        # brute-force check over both stored candidates
        store = store_of(((0.0, 0.0), 100.0), ((3.0, 4.0), 90.0))
        query = (3.0, 3.0)
        expected = min(
            store.records, key=lambda r: math.dist(r.position, query)
        )
        hit = store.nearest(query)
        assert hit.record is expected
        assert hit.record.position == (3.0, 4.0)
        assert hit.distance == 1.0

    def test_tie_breaks_to_earliest_insertion(self):
        store = store_of(((1.0, 0.0), 5.0), ((-1.0, 0.0), 3.0))
        assert store.nearest((0.0, 0.0)).index == 0


class TestBestTracking:
    def test_best_follows_minimum(self):
        store = store_of(((0.0, 0.0), 9.0), ((1.0, 0.0), 4.0), ((2.0, 0.0), 6.0))
        assert store.best_index == 1

    def test_best_tie_keeps_earliest(self):
        store = store_of(((0.0, 0.0), 4.0), ((1.0, 0.0), 4.0))
        assert store.best_index == 0

    def test_best_matches_linear_scan_over_random_appends(self):
        rng = random.Random(7)
        store = HistoryStore()
        for i in range(300):
            store.append(
                EvaluationRecord(
                    (rng.uniform(-7, 7), rng.uniform(-7, 7)),
                    float(rng.randrange(100)),
                    EVALUATED,
                )
            )
            fitnesses = [r.fitness for r in store.records]
            assert store.best_index == fitnesses.index(min(fitnesses))


class TestClassify:
    def test_empty_store_is_unexplored(self):
        assert classify(HistoryStore(), (3.0, 3.0), D) is Rule.UNEXPLORED

    def test_far_from_everything_is_unexplored(self):
        store = store_of(((0.0, 0.0), 50.0))
        assert classify(store, (3.0, 3.0), D) is Rule.UNEXPLORED

    def test_near_best_is_evaluated(self):
        store = store_of(((5.0, 4.0), 10.0), ((0.0, 0.0), 90.0))
        assert classify(store, (6.0, 4.0), D) is Rule.NEAR_BEST

    def test_near_non_best_is_copied(self):
        # nearest is (6,0) at distance 1.0, the best is (0,0) far away
        store = store_of(((0.0, 0.0), 50.0), ((6.0, 0.0), 80.0))
        hit = store.nearest((6.0, 1.0))
        assert hit.record.position == (6.0, 0.0) and hit.index != store.best_index
        assert classify(store, (6.0, 1.0), D) is Rule.NEIGHBOR_COPY

    def test_best_among_equidistant_nearest_is_evaluated(self):
        # nearest() names the earlier, non-best record; the best record is
        # just as near, so the position is worth refining
        store = store_of(((1.0, 0.0), 5.0), ((-1.0, 0.0), 3.0))
        assert store.nearest((0.0, 0.0)).index != store.best_index
        assert classify(store, (0.0, 0.0), D) is Rule.NEAR_BEST
        assert classify(store, (2.0, 0.0), D) is Rule.NEIGHBOR_COPY

    def test_evaluated_zero_best_is_not_refined(self):
        store = store_of(((0.0, 0.0), 0.0), ((6.0, 0.0), 80.0))
        assert classify(store, (1.0, 0.0), D) is Rule.NEIGHBOR_COPY
        assert classify(store, (0.0, 0.0), D) is Rule.NEIGHBOR_COPY
        assert classify(store, (0.0, 5.0), D) is Rule.UNEXPLORED

    def test_estimated_zero_best_is_still_refined(self):
        store = store_of(((0.0, 0.0), 40.0))
        store.append(EvaluationRecord((2.0, 0.0), 0.0, ESTIMATED))
        assert classify(store, (3.0, 0.0), D) is Rule.NEAR_BEST

    def test_given_hit_decides_like_own_scan(self):
        rng = random.Random(6)
        store = HistoryStore()
        for _ in range(40):
            position = (rng.uniform(-7, 7), rng.uniform(-7, 7))
            hit = store.nearest(position)
            assert classify(store, position, D, hit) is classify(store, position, D)
            fitness_of(store, position, D, lambda p: float(rng.randrange(1000)))

    def test_threshold_distance_is_inclusive(self):
        store = store_of(((0.0, 0.0), 50.0))
        assert classify(store, (2.5, 0.0), D) is Rule.NEAR_BEST
        assert classify(store, (2.5 + 1e-9, 0.0), D) is Rule.UNEXPLORED

    def test_pure_function_of_store_contents(self):
        store = store_of(((0.0, 0.0), 50.0), ((6.0, 0.0), 80.0))
        rule = classify(store, (6.0, 1.0), D)
        for _ in range(5):
            assert classify(store, (6.0, 1.0), D) is rule


class TestFitnessOf:
    def test_one_store_scan_per_request(self, monkeypatch):
        # the rule and a copied value come from the same nearest() scan,
        # and the module-level classify still decides every request
        scans, rules = [], []
        nearest, decide = HistoryStore.nearest, estimator.classify
        monkeypatch.setattr(
            HistoryStore, "nearest", lambda self, p: scans.append(p) or nearest(self, p)
        )
        monkeypatch.setattr(
            estimator, "classify", lambda *args: rules.append(decide(*args)) or rules[-1]
        )
        rng = random.Random(5)
        store = HistoryStore()
        for _ in range(40):
            position = (rng.uniform(-7, 7), rng.uniform(-7, 7))
            fitness_of(store, position, D, lambda p: float(rng.randrange(1000)))
        assert len(scans) == len(rules) == 40
        assert Rule.NEIGHBOR_COPY in rules

    def test_empty_store_evaluates(self):
        store = HistoryStore()
        value = fitness_of(store, (0.0, 0.0), D, lambda p: 1234.0)
        kind = store.records[-1].kind
        assert (value, kind) == (1234.0, EVALUATED)
        assert len(store) == 1

    def test_near_best_invokes_objective_once(self):
        store = store_of(((2.0, 2.0), 500.0))
        calls = []
        fitness_of(store, (2.0, 3.0), D, lambda p: calls.append(p) or 321.0)
        assert store.records[-1].kind == EVALUATED
        assert len(calls) == 1

    def test_copy_skips_objective(self):
        store = store_of(((0.0, 0.0), 50.0), ((6.0, 0.0), 80.0))
        calls = []
        value = fitness_of(
            store, (6.0, 1.0), D, lambda p: calls.append(p) or 0.0
        )
        kind = store.records[-1].kind
        assert (value, kind) == (80.0, ESTIMATED)
        assert calls == []
        assert len(store) == 3

    def test_duplicate_of_best_re_evaluates(self):
        store = store_of(((1.0, 1.0), 10.0), ((5.0, 5.0), 20.0))
        calls = []
        fitness_of(store, (1.0, 1.0), D, lambda p: calls.append(p) or 10.0)
        assert store.records[-1].kind == EVALUATED and len(calls) == 1

    def test_duplicate_of_non_best_copies(self):
        store = store_of(((0.0, 0.0), 10.0), ((6.0, 6.0), 20.0))
        value = fitness_of(store, (6.0, 6.0), D, lambda p: 0.0)
        kind = store.records[-1].kind
        assert (value, kind) == (20.0, ESTIMATED)

    def test_store_untouched_when_objective_fails(self):
        store = store_of(((2.0, 2.0), 500.0))

        def broken(position):
            raise RuntimeError("cost unavailable")

        with pytest.raises(RuntimeError):
            fitness_of(store, (2.0, 3.0), D, broken)
        assert len(store) == 1

    def test_estimates_can_chain(self):
        # an estimated record may later serve as a copy source itself
        store = store_of(((0.0, 0.0), 10.0), ((6.0, 0.0), 30.0))
        fitness_of(store, (6.0, 1.0), D, lambda p: 0.0)  # copied 30
        value = fitness_of(store, (6.0, 2.0), D, lambda p: 0.0)
        kind = store.records[-1].kind
        assert (value, kind) == (30.0, ESTIMATED)


class TestAccountingProperties:
    def test_objective_calls_equal_evaluated_records(self):
        rng = random.Random(3)
        for trial in range(50):
            store = HistoryStore()
            calls = [0]

            def objective(position):
                calls[0] += 1
                return float(rng.randrange(1000))

            for _ in range(40):
                position = (rng.uniform(-7, 7), rng.uniform(-7, 7))
                fitness_of(store, position, D, objective)
            evaluated = sum(1 for r in store.records if r.kind == EVALUATED)
            assert calls[0] == evaluated
            assert len(store) == 40

    def test_copy_source_lies_within_threshold(self):
        rng = random.Random(4)
        for trial in range(30):
            store = HistoryStore()
            for _ in range(40):
                position = (rng.uniform(-7, 7), rng.uniform(-7, 7))
                value = fitness_of(
                    store, position, D, lambda p: float(rng.randrange(1000))
                )
                kind = store.records[-1].kind
                if kind == ESTIMATED:
                    sources = [
                        r
                        for r in store.records[:-1]
                        if r.fitness == value
                        and math.dist(r.position, position) <= D.d
                    ]
                    assert sources
