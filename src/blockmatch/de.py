"""Differential evolution with best/1 mutation and binomial crossover.

The optimizer minimizes a plain `Position -> float` objective over a
real-valued search space of any dimension, starting from a given set of
seed positions, one individual per seed. Every trial passes through the
caller's repair before its fitness is requested, and every individual
carries its fitness. The objective may return estimated rather than
truly computed values; the optimizer does not distinguish them, so
callers keep that accounting themselves.

The control parameters are the paper's reference set, fixed by design:
F, the mutation scale factor; CR, the crossover rate; and GENERATIONS,
the number of mutate/crossover/select rounds. A variant with other
values is another algorithm, not a setting of this one.
"""

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

Position = tuple[float, ...]


F = 0.25
CR = 0.8
GENERATIONS = 7


@dataclass(slots=True)
class Candidate:
    """One individual: a position plus its (possibly estimated) fitness."""

    position: Position
    fitness: float


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def pick_partners(
    rng: random.Random, population_size: int, target_index: int
) -> tuple[int, int]:
    """Draw distinct indices r1 != r2, both different from the target."""
    if population_size < 3:
        raise ValueError(
            f"population of {population_size} cannot supply two partners "
            f"distinct from the target"
        )
    r1 = rng.randrange(population_size)
    while r1 == target_index:
        r1 = rng.randrange(population_size)
    r2 = rng.randrange(population_size)
    while r2 == target_index or r2 == r1:
        r2 = rng.randrange(population_size)
    return r1, r2


def donor_vector(best: Position, p1: Position, p2: Position) -> Position:
    """best + F * (p1 - p2), the scaled-difference mutation arithmetic."""
    return tuple([b + F * (a - c) for b, a, c in zip(best, p1, p2)])


def mutate_best_1(
    population: Sequence[Candidate],
    best_index: int,
    target_index: int,
    rng: random.Random,
) -> Position:
    """Donor = best + F * (partner1 - partner2), partners drawn per target.

    The donor may leave the search bounds and is not clamped here: `run`
    passes each trial through the caller's `repair` before its fitness is
    requested. DE-BM's repair, in `motion._debm_search`, rounds and clamps
    it onto the valid lattice with `_clamped_cell`.
    """
    r1, r2 = pick_partners(rng, len(population), target_index)
    return donor_vector(
        population[best_index].position,
        population[r1].position,
        population[r2].position,
    )


def crossover(
    target: Candidate,
    donor: Position,
    rng: random.Random,
) -> Position:
    """Binomial crossover: each component comes from the donor with
    probability CR, and one component drawn uniformly (j_rand) comes from
    the donor always."""
    if len(target.position) != len(donor):
        raise ValueError(
            f"target dimension {len(target.position)} != donor dimension {len(donor)}"
        )
    dim = len(donor)
    j_rand = rng.randrange(dim)
    return tuple([
        donor[j] if rng.random() <= CR or j == j_rand else target.position[j]
        for j in range(dim)
    ])


def select(target: Candidate, trial: Candidate) -> Candidate:
    """Greedy one-to-one selection; ties go to the trial."""
    return trial if trial.fitness <= target.fitness else target


def best_index_of(population: Sequence[Candidate]) -> int:
    """Index of the lowest fitness; earliest index wins ties."""
    best = 0
    for i in range(1, len(population)):
        if population[i].fitness < population[best].fitness:
            best = i
    return best


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


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


def run(
    objective: Callable[[Position], float],
    rng_seed: int,
    seed_positions: Sequence[Sequence[float]],
    repair: Callable[[Position], Position],
) -> tuple[Candidate, list[float]]:
    """Minimize `objective` and return (best of final population,
    best_per_generation).

    All stochastic decisions draw from random.Random(rng_seed), so
    identical seeds and inputs give bitwise-identical runs.
    best_per_generation holds the population-best fitness after
    initialization and after each generation, GENERATIONS + 1 values.
    The population is the seed positions, one individual each; at least 4
    are needed so the best vector plus two mutation partners distinct from
    the target always exist. Each generation mutates around the current
    best (recomputed once per generation), crosses over, requests the
    objective for every trial, and keeps the better of target and trial.
    Each trial is replaced by `repair(trial)` before its fitness is
    requested; the seed positions are used as given.
    Objective errors propagate unchanged.
    """
    if len(seed_positions) < 4:
        raise ValueError(
            f"population needs at least 4 seed positions, got {len(seed_positions)}"
        )
    rng = random.Random(rng_seed)
    population = []
    for pos in seed_positions:
        position = tuple(float(x) for x in pos)
        population.append(Candidate(position, objective(position)))
    best_index = best_index_of(population)
    best_per_generation = _BestPerGeneration([population[best_index].fitness])

    for _ in range(GENERATIONS):
        next_population = []
        for i, target in enumerate(population):
            donor = mutate_best_1(population, best_index, i, rng)
            trial_position = repair(crossover(target, donor, rng))
            trial = Candidate(trial_position, objective(trial_position))
            next_population.append(select(target, trial))
        population = next_population
        best_index = best_index_of(population)
        best_per_generation.append(population[best_index].fitness)

    return population[best_index], best_per_generation
