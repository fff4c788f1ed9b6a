"""Unit tests for the differential-evolution core."""

import math
import random

import pytest

from blockmatch import de, estimator
from blockmatch.de import (
    Candidate,
    crossover,
    donor_vector,
    mutate_best_1,
    pick_partners,
    select,
)


def sphere(position):
    return sum(x * x for x in position)


def recording(fn):
    """`fn` as an objective that also logs every requested position, in
    request order, in its `requested` list."""

    def objective(position):
        objective.requested.append(position)
        return fn(position)

    objective.requested = []
    return objective


def random_start(seed, count=5):
    """`count` start positions drawn uniformly from the +-7 box."""
    rng = random.Random(seed)
    return [(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0)) for _ in range(count)]


def forced_index(seed, dim):
    """The j_rand of a crossover run on random.Random(seed): its first draw."""
    return random.Random(seed).randrange(dim)


@pytest.fixture
def partner_draws(monkeypatch):
    """Every de.pick_partners call as (population size, target, r1, r2)."""
    draws = []
    pick = de.pick_partners

    def logged(rng, population_size, target_index):
        r1, r2 = pick(rng, population_size, target_index)
        draws.append((population_size, target_index, r1, r2))
        return r1, r2

    monkeypatch.setattr(de, "pick_partners", logged)
    return draws


SEEDS = [(0.0, 0.0), (-4.0, 0.0), (4.0, 0.0), (0.0, -4.0), (0.0, 4.0)]


class TestDeParams:
    def test_defaults_are_reference_configuration(self):
        # f, cr, generations and the copy threshold d of the paper
        assert (de.F, de.CR, de.GENERATIONS, estimator.D) == (0.25, 0.8, 7, 2.5)


class TestInitPopulation:
    def test_exact_seed_pattern(self):
        objective = recording(sphere)
        de.run(objective, 0, SEEDS)
        assert objective.requested[:5] == SEEDS
        assert len(objective.requested) == 5 * (1 + de.GENERATIONS)

    def test_single_seed(self):
        with pytest.raises(ValueError):
            de.run(sphere, 0, [(0.0, 0.0)])

    def test_zero_population_rejected(self):
        with pytest.raises(ValueError):
            de.run(sphere, 0, [])

    def test_one_individual_per_seed(self):
        start = random_start(3, count=7)
        objective = recording(sphere)
        de.run(objective, 3, start)
        assert objective.requested[:7] == start
        assert len(objective.requested) == 7 * (1 + de.GENERATIONS)

    def test_population_needs_best_plus_partners(self):
        with pytest.raises(ValueError):
            de.run(sphere, 0, SEEDS[:3])
        objective = recording(sphere)
        de.run(objective, 0, SEEDS[:4])
        assert objective.requested[:4] == SEEDS[:4]
        assert len(objective.requested) == 4 * (1 + de.GENERATIONS)


class TestMutation:
    def test_donor_arithmetic(self):
        # hand-computed: (2,3) + 0.25 * ((1,1) - (-1,2)) = (2.5, 2.75)
        assert donor_vector((2.0, 3.0), (1.0, 1.0), (-1.0, 2.0), 0.25) == (2.5, 2.75)

    def test_zero_scale_returns_best(self):
        assert donor_vector((2.0, 3.0), (5.0, 1.0), (-1.0, 9.0), 0.0) == (2.0, 3.0)

    def test_equal_partners_return_best(self, partner_draws):
        # all non-target members share one position, so any partner draw
        # yields a zero difference vector
        population = [
            Candidate((2.0, 3.0)),
            Candidate((5.0, 5.0)),
            Candidate((5.0, 5.0)),
            Candidate((5.0, 5.0)),
        ]
        donor = mutate_best_1(population, 0, 0, random.Random(9))
        assert donor == (2.0, 3.0)
        [(_, _, r1, r2)] = partner_draws
        assert r1 != r2 and r1 != 0 and r2 != 0

    def test_partners_distinct_from_target(self):
        rng = random.Random(1)
        for _ in range(500):
            target = rng.randrange(5)
            r1, r2 = pick_partners(rng, 5, target)
            assert r1 != r2
            assert r1 != target and r2 != target

    def test_population_too_small(self):
        population = [Candidate((0.0,)), Candidate((1.0,))]
        with pytest.raises(ValueError):
            mutate_best_1(population, 0, 0, random.Random(0))

    def test_donor_may_exit_bounds(self, monkeypatch):
        monkeypatch.setattr(de, "F", 2.0)
        population = [
            Candidate((7.0, 7.0)),
            Candidate((7.0, -7.0)),
            Candidate((-7.0, 7.0)),
            Candidate((0.0, 0.0)),
        ]
        donor = mutate_best_1(population, 0, 3, random.Random(5))
        assert len(donor) == 2  # no clamping inside the optimizer


class TestCrossover:
    def test_full_rate_copies_donor(self, monkeypatch):
        monkeypatch.setattr(de, "CR", 1.0)
        target = Candidate((1.0, 2.0))
        trial = crossover(target, (9.0, 8.0), random.Random(0))
        assert trial == (9.0, 8.0)

    def test_zero_rate_keeps_target_except_forced_index(self, monkeypatch):
        monkeypatch.setattr(de, "CR", 0.0)
        target = Candidate((1.0, 2.0))
        donor = (9.0, 8.0)
        for seed in range(50):
            trial = crossover(target, donor, random.Random(seed))
            j_rand = forced_index(seed, 2)
            assert trial[j_rand] == donor[j_rand]
            other = 1 - j_rand
            assert trial[other] == target.position[other]

    def test_forced_index_always_from_donor(self):
        target = Candidate((1.0, 2.0, 3.0))
        donor = (9.0, 8.0, 7.0)
        for seed in range(200):
            trial = crossover(target, donor, random.Random(seed))
            j_rand = forced_index(seed, 3)
            assert trial[j_rand] == donor[j_rand]

    def test_seeded_determinism(self):
        target = Candidate((1.0, 2.0))
        donor = (9.0, 8.0)
        first = crossover(target, donor, random.Random(42))
        second = crossover(target, donor, random.Random(42))
        assert first == second

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            crossover(Candidate((1.0, 2.0)), (1.0,), random.Random(0))


class TestSelect:
    def test_strict_improvement(self):
        target = Candidate((0.0,), 12.0)
        trial = Candidate((1.0,), 10.0)
        assert select(target, trial) is trial

    def test_tie_goes_to_trial(self):
        target = Candidate((0.0,), 12.0)
        trial = Candidate((1.0,), 12.0)
        assert select(target, trial) is trial

    def test_worse_trial_rejected(self):
        target = Candidate((0.0,), 12.0)
        trial = Candidate((1.0,), 13.0)
        assert select(target, trial) is target

    def test_unset_fitness_rejected(self):
        with pytest.raises(ValueError):
            select(Candidate((0.0,)), Candidate((1.0,), 1.0))


class TestRun:
    def test_population_best_monotone_on_sphere(self):
        for seed in range(25):
            _, best = de.run(sphere, seed, random_start(seed))
            assert len(best) == 8  # init snapshot + 7 generations
            assert all(b <= a for a, b in zip(best, best[1:]))

    def test_trace_is_bitwise_reproducible(self):
        start = random_start(123)
        objective_a, objective_b = recording(sphere), recording(sphere)
        best_a, per_generation_a = de.run(objective_a, 123, start)
        best_b, per_generation_b = de.run(objective_b, 123, start)
        assert best_a == best_b
        assert per_generation_a == per_generation_b
        assert objective_a.requested == objective_b.requested

    def test_partner_indices_valid_throughout(self, partner_draws):
        for seed in range(20):
            partner_draws.clear()
            de.run(sphere, seed, random_start(seed))
            # one draw per target, targets in population order, each generation
            assert [target for _, target, _, _ in partner_draws] == list(range(5)) * 7
            for size, target, r1, r2 in partner_draws:
                assert size == 5
                assert r1 != r2
                assert r1 != target
                assert r2 != target

    def test_converges_near_origin(self, monkeypatch):
        # The optimum sits at the origin (verified by a brute-force grid
        # scan below). With random_start and the canonical scale factor the
        # first 20 seeds land within 1.0 of it in 18 runs; frozen from
        # measurement.
        grid_best = min(
            sphere((x * 0.5, y * 0.5)) for x in range(-14, 15) for y in range(-14, 15)
        )
        assert grid_best == 0.0
        monkeypatch.setattr(de, "F", 0.5)
        hits = 0
        for seed in range(20):
            best, _ = de.run(sphere, seed, random_start(seed))
            hits += math.dist(best.position, (0.0, 0.0)) <= 1.0
        assert hits >= 18

    def test_seeded_start_keeps_known_optimum(self):
        best, per_generation = de.run(sphere, 7, SEEDS)
        assert best.fitness == 0.0
        assert per_generation[0] == 0.0

    def test_objective_errors_propagate(self):
        def broken(position):
            raise RuntimeError("objective exploded")

        with pytest.raises(RuntimeError, match="objective exploded"):
            de.run(broken, 0, random_start(0))

    def test_requests_match_budget(self):
        start = random_start(5)
        objective = recording(sphere)
        de.run(objective, 5, start)
        assert len(objective.requested) == len(start) * (1 + de.GENERATIONS)

    def test_repair_applies_to_every_trial_and_no_seed(self):
        seeds = [(0.5, 0.5), (-4.0, 0.0), (4.0, 0.0), (0.0, -4.0), (0.0, 4.0)]
        proposed = []

        def to_integers(position):
            proposed.append(position)
            return tuple(float(round(x)) for x in position)

        objective = recording(sphere)
        de.run(objective, 9, seeds, to_integers)
        assert objective.requested[:5] == seeds
        requested = objective.requested[5:]
        assert len(proposed) == 5 * de.GENERATIONS
        assert requested == [tuple(float(round(x)) for x in p) for p in proposed]

    def test_generations_view_mirrors_best_per_generation(self):
        # The benchmark's tracer reads the returned list through this view.
        _, per_generation = de.run(sphere, 3, random_start(3))
        generations = per_generation.generations
        assert [g.best_fitness for g in generations] == per_generation
        assert all(g.calls == () and g.mutations == () for g in generations)
