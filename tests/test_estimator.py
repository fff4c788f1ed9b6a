"""Unit tests for the evaluate-or-estimate dispatch and its history store."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from blockmatch import estimator
from blockmatch.estimator import (
    ESTIMATED,
    EVALUATED,
    EvaluationRecord,
    HistoryStore,
    Rule,
    classify,
    fitness_of,
)


def linear_nearest(store, position):
    """Oracle: scan every record in insertion order and keep the first one
    at the least Euclidean distance, as (index, record, distance)."""
    hit = None
    for index, record in enumerate(store.records):
        distance = math.dist(record.position, position)
        if hit is None or distance < hit[2]:
            hit = index, record, distance
    return hit


# Lattice cells, signed zeros and half steps make exact repeats and
# equal-distance ties common; free floats cover off-lattice positions.
coordinates = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.5]),
    st.floats(-8.0, 8.0, allow_nan=False),
)
positions = st.tuples(coordinates, coordinates)


def rule_at(store, position):
    """classify's rule for `position`, given the hit fitness_of passes it."""
    return classify(store, position, store.nearest(position))


def store_of(*entries):
    """Build a store from (position, fitness) pairs, all marked evaluated."""
    store = HistoryStore()
    for position, fitness in entries:
        store.append(EvaluationRecord(position, fitness, EVALUATED))
    return store


class TestParams:
    def test_default_threshold(self):
        assert estimator.D == 2.5


class TestNearest:
    def test_empty_store(self):
        assert HistoryStore().nearest((0.0, 0.0)) is None

    def test_three_four_five_triangle(self):
        store = store_of(((0.0, 0.0), 100.0))
        _, record, distance = store.nearest((3.0, 4.0))
        assert record.position == (0.0, 0.0)
        assert distance == 5.0

    def test_closest_of_two(self):
        # brute-force check over both stored candidates
        store = store_of(((0.0, 0.0), 100.0), ((3.0, 4.0), 90.0))
        query = (3.0, 3.0)
        expected = min(
            store.records, key=lambda r: math.dist(r.position, query)
        )
        _, record, distance = store.nearest(query)
        assert record is expected
        assert record.position == (3.0, 4.0)
        assert distance == 1.0

    def test_tie_breaks_to_earliest_insertion(self):
        store = store_of(((1.0, 0.0), 5.0), ((-1.0, 0.0), 3.0))
        assert store.nearest((0.0, 0.0))[0] == 0

    def test_records_enter_only_through_append(self):
        # the position index and best_index are filled by append, so a
        # constructor that took either could leave them stale
        with pytest.raises(TypeError):
            HistoryStore(records=[EvaluationRecord((0.0, 0.0), 1.0, EVALUATED)])
        with pytest.raises(TypeError):
            HistoryStore(best_index=0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(positions, st.integers(0, 39), st.lists(positions, max_size=3)),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_linear_scan(self, steps):
        # each step appends a record, then queries its position, an earlier
        # stored position and up to three arbitrary ones
        store = HistoryStore()
        for position, earlier, queries in steps:
            store.append(EvaluationRecord(position, 1.0, EVALUATED))
            stored = [position, store.records[earlier % len(store.records)].position]
            for query in stored + queries:
                index, record, distance = store.nearest(query)
                expected_index, _, expected_distance = linear_nearest(store, query)
                assert (index, distance) == (expected_index, expected_distance)
                assert record is store.records[index]


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
        assert rule_at(HistoryStore(), (3.0, 3.0)) is Rule.UNEXPLORED

    def test_far_from_everything_is_unexplored(self):
        store = store_of(((0.0, 0.0), 50.0))
        assert rule_at(store, (3.0, 3.0)) is Rule.UNEXPLORED

    def test_near_best_is_evaluated(self):
        store = store_of(((5.0, 4.0), 10.0), ((0.0, 0.0), 90.0))
        assert rule_at(store, (6.0, 4.0)) is Rule.NEAR_BEST

    def test_near_non_best_is_copied(self):
        # nearest is (6,0) at distance 1.0, the best is (0,0) far away
        store = store_of(((0.0, 0.0), 50.0), ((6.0, 0.0), 80.0))
        index, record, _ = store.nearest((6.0, 1.0))
        assert record.position == (6.0, 0.0) and index != store.best_index
        assert rule_at(store, (6.0, 1.0)) is Rule.NEIGHBOR_COPY

    def test_best_among_equidistant_nearest_is_evaluated(self):
        # nearest() names the earlier, non-best record; the best record is
        # just as near, so the position is worth refining
        store = store_of(((1.0, 0.0), 5.0), ((-1.0, 0.0), 3.0))
        assert store.nearest((0.0, 0.0))[0] != store.best_index
        assert rule_at(store, (0.0, 0.0)) is Rule.NEAR_BEST
        assert rule_at(store, (2.0, 0.0)) is Rule.NEIGHBOR_COPY

    def test_evaluated_zero_best_is_not_refined(self):
        store = store_of(((0.0, 0.0), 0.0), ((6.0, 0.0), 80.0))
        assert rule_at(store, (1.0, 0.0)) is Rule.NEIGHBOR_COPY
        assert rule_at(store, (0.0, 0.0)) is Rule.NEIGHBOR_COPY
        assert rule_at(store, (0.0, 5.0)) is Rule.UNEXPLORED

    def test_threshold_distance_is_inclusive(self):
        store = store_of(((0.0, 0.0), 50.0))
        assert rule_at(store, (2.5, 0.0)) is Rule.NEAR_BEST
        assert rule_at(store, (2.5 + 1e-9, 0.0)) is Rule.UNEXPLORED

    def test_pure_function_of_store_contents(self):
        store = store_of(((0.0, 0.0), 50.0), ((6.0, 0.0), 80.0))
        rule = rule_at(store, (6.0, 1.0))
        for _ in range(5):
            assert rule_at(store, (6.0, 1.0)) is rule


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
            fitness_of(store, position, lambda p: float(rng.randrange(1000)))
        assert len(scans) == len(rules) == 40
        assert Rule.NEIGHBOR_COPY in rules

    def test_empty_store_evaluates(self):
        store = HistoryStore()
        value = fitness_of(store, (0.0, 0.0), lambda p: 1234.0)
        kind = store.records[-1].kind
        assert (value, kind) == (1234.0, EVALUATED)
        assert len(store.records) == 1

    def test_near_best_invokes_objective_once(self):
        store = store_of(((2.0, 2.0), 500.0))
        calls = []
        fitness_of(store, (2.0, 3.0), lambda p: calls.append(p) or 321.0)
        assert store.records[-1].kind == EVALUATED
        assert len(calls) == 1

    def test_copy_skips_objective(self):
        store = store_of(((0.0, 0.0), 50.0), ((6.0, 0.0), 80.0))
        calls = []
        value = fitness_of(
            store, (6.0, 1.0), lambda p: calls.append(p) or 0.0
        )
        kind = store.records[-1].kind
        assert (value, kind) == (80.0, ESTIMATED)
        assert calls == []
        assert len(store.records) == 3

    def test_duplicate_of_best_re_evaluates(self):
        store = store_of(((1.0, 1.0), 10.0), ((5.0, 5.0), 20.0))
        calls = []
        fitness_of(store, (1.0, 1.0), lambda p: calls.append(p) or 10.0)
        assert store.records[-1].kind == EVALUATED and len(calls) == 1

    def test_duplicate_of_non_best_copies(self):
        store = store_of(((0.0, 0.0), 10.0), ((6.0, 6.0), 20.0))
        value = fitness_of(store, (6.0, 6.0), lambda p: 0.0)
        kind = store.records[-1].kind
        assert (value, kind) == (20.0, ESTIMATED)

    def test_store_untouched_when_objective_fails(self):
        store = store_of(((2.0, 2.0), 500.0))

        def broken(position):
            raise RuntimeError("cost unavailable")

        with pytest.raises(RuntimeError):
            fitness_of(store, (2.0, 3.0), broken)
        assert len(store.records) == 1

    def test_estimates_can_chain(self):
        # an estimated record may later serve as a copy source itself
        store = store_of(((0.0, 0.0), 10.0), ((6.0, 0.0), 30.0))
        fitness_of(store, (6.0, 1.0), lambda p: 0.0)  # copied 30
        value = fitness_of(store, (6.0, 2.0), lambda p: 0.0)
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
                fitness_of(store, position, objective)
            evaluated = sum(1 for r in store.records if r.kind == EVALUATED)
            assert calls[0] == evaluated
            assert len(store.records) == 40

    def test_copy_source_lies_within_threshold(self):
        rng = random.Random(4)
        for trial in range(30):
            store = HistoryStore()
            for _ in range(40):
                position = (rng.uniform(-7, 7), rng.uniform(-7, 7))
                value = fitness_of(
                    store, position, lambda p: float(rng.randrange(1000))
                )
                kind = store.records[-1].kind
                if kind == ESTIMATED:
                    sources = [
                        r
                        for r in store.records[:-1]
                        if r.fitness == value
                        and math.dist(r.position, position) <= estimator.D
                    ]
                    assert sources
