"""Unit tests for the differential-evolution core."""

import hashlib
import math
import random

import pytest

from blockmatch import de, estimator


def sphere(position):
    return sum(x * x for x in position)


def tied(position):
    """A sphere coarsened so that many trials tie with their target."""
    u, v = position
    return (u * u + v * v) // 4


def as_is(position):
    """A repair that keeps every trial where crossover put it."""
    return position


def to_integers(position):
    return tuple(float(round(x)) for x in position)


def recording(fn):
    """`fn` as an objective that also logs every requested position, in
    request order, in its `requested` list."""

    def objective(position):
        objective.requested.append(position)
        return fn(position)

    objective.requested = []
    return objective


def scripted(values):
    """An objective that returns `values` in request order and then inf,
    which selection never keeps; it logs requests as `recording` does."""
    remaining = iter(values)
    return recording(lambda position: next(remaining, math.inf))


def random_start(seed, count=5):
    """`count` start positions drawn uniformly from the +-7 box."""
    rng = random.Random(seed)
    return [(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0)) for _ in range(count)]


# ---------------------------------------------------------------------------
# The reference: DE/best/1/bin as separate operators over any dimension,
# each drawing from one random.Random in the order de.run's draws follow.
# ---------------------------------------------------------------------------


def reference_partners(rng, population_size, target_index):
    """Draw distinct indices r1 != r2, both different from the target."""
    r1 = rng.randrange(population_size)
    while r1 == target_index:
        r1 = rng.randrange(population_size)
    r2 = rng.randrange(population_size)
    while r2 == target_index or r2 == r1:
        r2 = rng.randrange(population_size)
    return r1, r2


def replayed_draws(seed, size):
    """Each draw of de._draws(seed, size) as (r1, r2, j_rand, x_u, x_v),
    replayed on random.Random(seed) through randrange: partners, then
    j_rand, then one random() per component."""
    rng = random.Random(seed)
    for k in range(size * de.GENERATIONS):
        r1, r2 = reference_partners(rng, size, k % size)
        j_rand = rng.randrange(2)
        yield r1, r2, j_rand, rng.random(), rng.random()


def reference_run(objective, rng_seed, seed_positions, repair):
    """de.run as mutation, crossover and selection steps: returns
    ((best position, best fitness), best_per_generation)."""
    rng = random.Random(rng_seed)
    population = []
    for pos in seed_positions:
        position = tuple(float(x) for x in pos)
        population.append((position, objective(position)))

    def best_of(population):
        # the earliest index wins a tie
        best = 0
        for i in range(1, len(population)):
            if population[i][1] < population[best][1]:
                best = i
        return population[best]

    best = best_of(population)
    best_per_generation = [best[1]]
    for _ in range(de.GENERATIONS):
        next_population = []
        for i, (target, target_fitness) in enumerate(population):
            r1, r2 = reference_partners(rng, len(population), i)
            donor = [
                b + de.F * (a - c)
                for b, a, c in zip(best[0], population[r1][0], population[r2][0])
            ]
            j_rand = rng.randrange(len(donor))
            trial = repair(tuple([
                donor[j] if rng.random() <= de.CR or j == j_rand else target[j]
                for j in range(len(donor))
            ]))
            fitness = objective(trial)
            # greedy selection; a tie goes to the trial
            if fitness <= target_fitness:
                next_population.append((trial, fitness))
            else:
                next_population.append((target, target_fitness))
        population = next_population
        best = best_of(population)
        best_per_generation.append(best[1])
    return best, best_per_generation


def reference_draws(seed, size):
    """The draws reference_run makes at `seed`, as (r1, r2, take_u,
    take_v), read back from the trials it requests. Individual i starts at
    (2**i, 2**i), individual 0 is the best and every trial scores inf, so
    the population never changes; with de.F at 1000 (set by the caller) a
    taken component lands at 1 + F * (2**r1 - 2**r2), far from every
    start, and that difference names r1 and r2."""
    assert de.F == 1000.0
    pairs = {2**a - 2**b: (a, b) for a in range(size) for b in range(size) if a != b}
    start = [(2.0**i, 2.0**i) for i in range(size)]
    objective = scripted([0.0] + [1.0] * (size - 1))
    reference_run(objective, seed, start, as_is)
    draws = []
    for k, trial in enumerate(objective.requested[size:]):
        taken = [x != t for x, t in zip(trial, start[k % size])]
        named = {pairs[int((x - 1.0) / de.F)] for x, take in zip(trial, taken) if take}
        assert len(named) == 1  # u and v, when both taken, name one pair
        draws.append((*named.pop(), *taken))
    return draws


SEEDS = [(0.0, 0.0), (-4.0, 0.0), (4.0, 0.0), (0.0, -4.0), (0.0, 4.0)]


class TestDeParams:
    def test_defaults_are_reference_configuration(self):
        # f, cr, generations and the copy threshold d of the paper
        assert (de.F, de.CR, de.GENERATIONS, estimator.D) == (0.25, 0.8, 7, 2.5)


class TestInitPopulation:
    def test_exact_seed_pattern(self):
        objective = recording(sphere)
        de.run(objective, 0, SEEDS, as_is)
        assert objective.requested[:5] == SEEDS
        assert len(objective.requested) == 5 * (1 + de.GENERATIONS)

    def test_single_seed(self):
        with pytest.raises(ValueError):
            de.run(sphere, 0, [(0.0, 0.0)], as_is)

    def test_zero_population_rejected(self):
        with pytest.raises(ValueError):
            de.run(sphere, 0, [], as_is)

    def test_one_individual_per_seed(self):
        start = random_start(3, count=7)
        objective = recording(sphere)
        de.run(objective, 3, start, as_is)
        assert objective.requested[:7] == start
        assert len(objective.requested) == 7 * (1 + de.GENERATIONS)

    def test_population_needs_best_plus_partners(self):
        with pytest.raises(ValueError):
            de.run(sphere, 0, SEEDS[:3], as_is)
        objective = recording(sphere)
        de.run(objective, 0, SEEDS[:4], as_is)
        assert objective.requested[:4] == SEEDS[:4]
        assert len(objective.requested) == 4 * (1 + de.GENERATIONS)


class TestMutation:
    def test_donor_arithmetic(self, monkeypatch):
        # hand-computed with F = 0.25: (2,3) + 0.25 * ((1,1) - (-1,2)) = (2.5, 2.75);
        # with CR = 1 the first trial is target 0's donor, and target 0 is the best
        monkeypatch.setattr(de, "CR", 1.0)
        r1, r2, _, _ = next(de._draws(0, 4))
        start = [(6.0, 6.0)] * 4
        start[0], start[r1], start[r2] = (2.0, 3.0), (1.0, 1.0), (-1.0, 2.0)
        objective = scripted([0.0, 5.0, 5.0, 5.0])
        de.run(objective, 0, start, as_is)
        assert objective.requested[4] == (2.5, 2.75)

    def test_zero_scale_returns_best(self, monkeypatch):
        # with F = 0 and every component taken, each donor is the best
        monkeypatch.setattr(de, "F", 0.0)
        monkeypatch.setattr(de, "CR", 1.0)
        objective = recording(sphere)
        de.run(objective, 4, SEEDS, as_is)
        assert set(objective.requested[5:]) == {(0.0, 0.0)}

    def test_equal_partners_return_best(self, monkeypatch):
        # all non-target members share one position, so any partner draw
        # yields a zero difference vector
        monkeypatch.setattr(de, "CR", 1.0)
        start = [(2.0, 3.0), (5.0, 5.0), (5.0, 5.0), (5.0, 5.0)]
        objective = scripted([0.0, 5.0, 5.0, 5.0])
        de.run(objective, 9, start, as_is)
        assert objective.requested[4] == (2.0, 3.0)

    def test_partners_distinct_from_target(self):
        for size in (4, 5, 7):
            for seed in range(100):
                for k, (r1, r2, _, _) in enumerate(de._draws(seed, size)):
                    target = k % size
                    assert r1 != r2
                    assert r1 != target and r2 != target
                    assert 0 <= r1 < size and 0 <= r2 < size

    def test_donor_may_exit_bounds(self, monkeypatch):
        # no clamping inside the optimizer: only the repair may move a trial
        monkeypatch.setattr(de, "F", 2.0)
        corners = [(7.0, 7.0), (7.0, -7.0), (-7.0, 7.0), (0.0, 0.0)]
        objective = recording(sphere)
        de.run(objective, 5, corners, as_is)
        assert any(max(abs(u), abs(v)) > 7.0 for u, v in objective.requested[4:])


class TestCrossover:
    def test_full_rate_copies_donor(self, monkeypatch):
        monkeypatch.setattr(de, "CR", 1.0)
        for seed in range(50):
            assert all(take_u and take_v for _, _, take_u, take_v in de._draws(seed, 5))

    def test_zero_rate_keeps_target_except_forced_index(self, monkeypatch):
        monkeypatch.setattr(de, "CR", 0.0)
        for seed in range(50):
            for draw, (r1, r2, j_rand, *_) in zip(de._draws(seed, 5), replayed_draws(seed, 5)):
                assert draw == (r1, r2, j_rand == 0, j_rand == 1)

    def test_forced_index_always_from_donor(self):
        for seed in range(200):
            for (r1, r2, *taken), replayed in zip(de._draws(seed, 5), replayed_draws(seed, 5)):
                assert (r1, r2) == replayed[:2]
                assert taken[replayed[2]]

    def test_seeded_determinism(self):
        assert list(de._draws(42, 6)) == list(de._draws(42, 6))
        assert list(de._draws(42, 6)) != list(de._draws(43, 6))

    def test_dimension_mismatch(self):
        # run refuses, on entry, any seed that is not exactly (u, v)
        for wrong in [(1.0,), (1.0, 2.0, 3.0)]:
            objective = recording(sphere)
            with pytest.raises(ValueError, match="seed position 3 has"):
                de.run(objective, 0, SEEDS[:3] + [wrong] + SEEDS[3:], as_is)
            assert objective.requested == []
            with pytest.raises(ValueError, match="seed position 0 has"):
                de.run(sphere, 0, [wrong] * 5, as_is)


# sha256 over seeds 0-2999 of repr(list(de._draws(seed, 5))), taken from the
# generator that drew through random.Random.randrange before the table
# replaced it; it read the same on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
STREAM_SHA256 = "2413edc9e5f49820b5830803845e46df3755ad4f521f572551c3cd9c415f2ed7"


class TestDrawTable:
    def test_table_replays_randrange(self):
        # size 8 fills the table's byte codes, and size 9 outgrows them
        for size, seeds in [(4, 3000), (5, 3000), (6, 3000), (7, 3000), (8, 100), (9, 100)]:
            for seed in range(seeds):
                assert list(de._draws(seed, size)) == [
                    (r1, r2, x_u <= de.CR or j_rand == 0, x_v <= de.CR or j_rand == 1)
                    for r1, r2, j_rand, x_u, x_v in replayed_draws(seed, size)
                ]

    def test_table_matches_reference_run(self, monkeypatch):
        monkeypatch.setattr(de, "F", 1000.0)
        for size in range(4, 8):
            for seed in range(3000):
                assert list(de._draws(seed, size)) == reference_draws(seed, size)

    def test_stream_pinned(self):
        digest = hashlib.sha256()
        for seed in range(3000):
            digest.update(repr(list(de._draws(seed, 5))).encode())
        assert digest.hexdigest() == STREAM_SHA256

    def test_equal_arguments_reuse_the_table(self):
        de._table.cache_clear()
        first = list(de._draws(11, 5))
        table = de._table(11, 5, de.CR)
        before = de._table.cache_info()
        assert list(de._draws(11, 5)) == first
        after = de._table.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert de._table(11, 5, de.CR) is table

    def test_patched_rate_read_past_a_warm_table(self, monkeypatch):
        warm = list(de._draws(11, 5))
        assert not all(take_u and take_v for *_, take_u, take_v in warm)
        monkeypatch.setattr(de, "CR", 1.0)
        assert all(take_u and take_v for *_, take_u, take_v in de._draws(11, 5))
        monkeypatch.setattr(de, "CR", 0.0)
        assert all(take_u != take_v for *_, take_u, take_v in de._draws(11, 5))
        monkeypatch.undo()
        assert list(de._draws(11, 5)) == warm


class TestSelect:
    # Target 0 is the population's best at fitness 1; its trial, the first
    # one requested, scores as given, and every later trial scores inf, so
    # the final best shows whether that one trial was kept.
    START = [(0.0, 0.0), (1.0, 3.0), (4.0, -2.0), (-3.0, 5.0)]

    def run_first_trial(self, fitness):
        objective = scripted([1.0, 5.0, 5.0, 5.0, fitness])
        best, _ = de.run(objective, 2, self.START, as_is)
        trial = objective.requested[4]
        assert trial != self.START[0]
        return best, trial

    def test_strict_improvement(self):
        best, trial = self.run_first_trial(0.5)
        assert best == (trial, 0.5)

    def test_tie_goes_to_trial(self):
        best, trial = self.run_first_trial(1.0)
        assert best == (trial, 1.0)

    def test_worse_trial_rejected(self):
        best, _ = self.run_first_trial(2.0)
        assert best == (self.START[0], 1.0)


class TestRun:
    def test_matches_reference(self):
        # every requested position, the best (position, fitness) and
        # best_per_generation, over both start sets, both repairs and an
        # objective whose ties exercise the rule that a tie keeps the trial
        for seed in range(200):
            for start in (SEEDS, random_start(seed, count=4 + seed % 4)):
                for repair in (as_is, to_integers):
                    for fn in (sphere, tied):
                        objective, expected = recording(fn), recording(fn)
                        best, per_generation = de.run(objective, seed, start, repair)
                        (position, fitness), reference_per_generation = reference_run(
                            expected, seed, start, repair
                        )
                        assert objective.requested == expected.requested
                        assert best == (position, fitness)
                        assert per_generation == reference_per_generation

    def test_population_best_monotone_on_sphere(self):
        for seed in range(25):
            _, best = de.run(sphere, seed, random_start(seed), as_is)
            assert len(best) == 8  # init snapshot + 7 generations
            assert all(b <= a for a, b in zip(best, best[1:]))

    def test_trace_is_bitwise_reproducible(self):
        start = random_start(123)
        objective_a, objective_b = recording(sphere), recording(sphere)
        best_a, per_generation_a = de.run(objective_a, 123, start, as_is)
        best_b, per_generation_b = de.run(objective_b, 123, start, as_is)
        assert best_a == best_b
        assert per_generation_a == per_generation_b
        assert objective_a.requested == objective_b.requested

    def test_partner_indices_valid_throughout(self):
        # Every trial scores inf, so the population keeps its seeds and
        # draw k's trial can be rebuilt from the seeds: draw k belongs to
        # target k % 5, one draw per target, targets in population order,
        # each generation.
        for seed in range(20):
            start = random_start(seed)
            objective = scripted([sphere(p) for p in start])
            de.run(objective, seed, start, as_is)
            best_u, best_v = min(start, key=sphere)
            draws = list(de._draws(seed, 5))
            assert len(draws) == len(objective.requested[5:]) == 5 * de.GENERATIONS
            for k, (r1, r2, take_u, take_v) in enumerate(draws):
                (u, v), (u1, v1), (u2, v2) = start[k % 5], start[r1], start[r2]
                assert objective.requested[5 + k] == (
                    best_u + de.F * (u1 - u2) if take_u else u,
                    best_v + de.F * (v1 - v2) if take_v else v,
                )

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
            (position, _), _ = de.run(sphere, seed, random_start(seed), as_is)
            hits += math.dist(position, (0.0, 0.0)) <= 1.0
        assert hits >= 18

    def test_seeded_start_keeps_known_optimum(self):
        (_, fitness), per_generation = de.run(sphere, 7, SEEDS, as_is)
        assert fitness == 0.0
        assert per_generation[0] == 0.0

    def test_objective_errors_propagate(self):
        def broken(position):
            raise RuntimeError("objective exploded")

        with pytest.raises(RuntimeError, match="objective exploded"):
            de.run(broken, 0, random_start(0), as_is)

    def test_requests_match_budget(self):
        start = random_start(5)
        objective = recording(sphere)
        de.run(objective, 5, start, as_is)
        assert len(objective.requested) == len(start) * (1 + de.GENERATIONS)

    def test_repair_applies_to_every_trial_and_no_seed(self):
        seeds = [(0.5, 0.5), (-4.0, 0.0), (4.0, 0.0), (0.0, -4.0), (0.0, 4.0)]
        proposed = []

        def logged_to_integers(position):
            proposed.append(position)
            return to_integers(position)

        objective = recording(sphere)
        de.run(objective, 9, seeds, logged_to_integers)
        assert objective.requested[:5] == seeds
        requested = objective.requested[5:]
        assert len(proposed) == 5 * de.GENERATIONS
        assert requested == [to_integers(p) for p in proposed]

    def test_generations_view_mirrors_best_per_generation(self):
        # The benchmark's tracer reads the returned list through this view.
        _, per_generation = de.run(sphere, 3, random_start(3), as_is)
        generations = per_generation.generations
        assert [g.best_fitness for g in generations] == per_generation
        assert all(g.calls == () and g.mutations == () for g in generations)
