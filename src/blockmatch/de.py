"""Differential evolution with best/1 mutation and binomial crossover.

The optimizer minimizes a plain `Position -> float` objective over the
2-D real plane, starting from a given set of seed positions, one
individual per seed. Every trial passes through the caller's repair
before its fitness is requested, and every individual carries its
fitness. The objective may return estimated rather than truly computed
values; the optimizer does not distinguish them, so callers keep that
accounting themselves.

Every random decision of a run comes from `_draws`, which reads only the
run's seed and population size: no draw depends on a position or a
fitness.

The control parameters are the paper's reference set, fixed by design:
F, the mutation scale factor; CR, the crossover rate; and GENERATIONS,
the number of mutate/crossover/select rounds. A variant with other
values is another algorithm, not a setting of this one.
"""

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

Position = tuple[float, float]


F = 0.25
CR = 0.8
GENERATIONS = 7


@dataclass(slots=True)
class Candidate:
    """One individual: a position plus its (possibly estimated) fitness."""

    position: Position
    fitness: float


class _Generation(NamedTuple):
    best_fitness: float
    calls: tuple = ()
    mutations: tuple = ()


class _BestPerGeneration(list):
    """A list of floats whose `generations` view shows each value as a
    generation that recorded no fitness calls or mutation events: the
    shape the benchmark's tracer (bench/tracing.py) reads. The view is
    built only when read."""

    @property
    def generations(self) -> list[_Generation]:
        return [_Generation(value) for value in self]


def _draws(rng_seed: int, size: int) -> Iterator[tuple[int, int, bool, bool]]:
    """Yield every random decision of a run: for each generation and each
    target in population order, the partners r1 != r2, both other than
    the target, and whether the trial takes the donor's u and v.

    Binomial crossover takes a component with probability CR, and always
    takes the one drawn as j_rand. All draws come from
    random.Random(rng_seed), so equal seeds give equal streams.
    """
    rng = random.Random(rng_seed)
    randrange, uniform = rng.randrange, rng.random
    for _ in range(GENERATIONS):
        for target in range(size):
            r1 = randrange(size)
            while r1 == target:
                r1 = randrange(size)
            r2 = randrange(size)
            while r2 == target or r2 == r1:
                r2 = randrange(size)
            j_rand = randrange(2)
            # uniform() runs before the j_rand test, so every draw makes
            # both calls whatever j_rand is.
            take_u = uniform() <= CR or j_rand == 0
            take_v = uniform() <= CR or j_rand == 1
            yield r1, r2, take_u, take_v


def run(
    objective: Callable[[Position], float],
    rng_seed: int,
    seed_positions: Sequence[Sequence[float]],
    repair: Callable[[Position], Position],
) -> tuple[Candidate, list[float]]:
    """Minimize `objective` and return (best of final population,
    best_per_generation).

    Identical seeds and inputs give bitwise-identical runs.
    best_per_generation holds the population-best fitness after
    initialization and after each generation, GENERATIONS + 1 values.
    The population is the seed positions, one individual each; at least 4
    are needed so the best vector plus two mutation partners distinct from
    the target always exist, and each must have exactly two coordinates.
    Each generation builds every target's donor, best + F * (p1 - p2),
    around the best of the population it started with (the earliest on a
    tie), crosses it over with the target, requests the objective for the
    trial, and keeps the trial unless it is worse than the target. Each
    trial is replaced by `repair(trial)` before its fitness is requested;
    the donor is not clamped, and the seed positions are used as given.
    Objective errors propagate unchanged.
    """
    if len(seed_positions) < 4:
        raise ValueError(
            f"population needs at least 4 seed positions, got {len(seed_positions)}"
        )
    for index, seed in enumerate(seed_positions):
        if len(seed) != 2:
            raise ValueError(
                f"seed position {index} has {len(seed)} coordinates, expected 2"
            )
    population = []
    for u, v in seed_positions:
        position = (float(u), float(v))
        population.append(Candidate(position, objective(position)))
    best = min(population, key=attrgetter("fitness"))
    best_per_generation = _BestPerGeneration([best.fitness])

    draws = _draws(rng_seed, len(population))
    for _ in range(GENERATIONS):
        best_u, best_v = best.position
        next_population = []
        # zip takes a target before it takes a draw, so it stops at the
        # generation's end without consuming the next generation's first.
        for target, (r1, r2, take_u, take_v) in zip(population, draws):
            u, v = target.position
            u1, v1 = population[r1].position
            u2, v2 = population[r2].position
            trial_position = repair((
                best_u + F * (u1 - u2) if take_u else u,
                best_v + F * (v1 - v2) if take_v else v,
            ))
            fitness = objective(trial_position)
            next_population.append(
                Candidate(trial_position, fitness)
                if fitness <= target.fitness
                else target
            )
        population = next_population
        best = min(population, key=attrgetter("fitness"))
        best_per_generation.append(best.fitness)

    return best, best_per_generation
