"""Differential evolution with best/1 mutation and binomial crossover.

The optimizer minimizes over a real-valued search space of any dimension,
starting from a given set of seed positions, one individual per seed.
Fitness values come from a pluggable provider so callers can substitute
estimated values for true evaluations; the provider reports, per request,
whether the value was truly evaluated or estimated, and the run trace
keeps that distinction for later accounting.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

Position = tuple[float, ...]

# Fitness provenance tags shared across the package.
EVALUATED = "evaluated"
ESTIMATED = "estimated"

# A fitness provider maps a position to (value, kind) where kind is
# EVALUATED or ESTIMATED.
FitnessProvider = Callable[[Position], tuple[float, str]]


@dataclass(frozen=True)
class DeParams:
    """Control parameters for one optimizer run.

    f: mutation scale factor, positive and at most 2.
    cr: crossover rate in [0, 1].
    generations: number of mutate/crossover/select rounds, at least 1.
    rng_seed: seed for all stochastic decisions; identical seeds and
        inputs give bitwise-identical runs.
    """

    f: float = 0.25
    cr: float = 0.8
    generations: int = 7
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.f <= 2.0:
            raise ValueError(f"mutation factor must be in (0, 2], got {self.f}")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError(f"crossover rate must be in [0, 1], got {self.cr}")
        if self.generations < 1:
            raise ValueError(f"generations must be positive, got {self.generations}")


@dataclass
class Candidate:
    """One individual: a position plus its (possibly estimated) fitness."""

    position: Position
    fitness: float | None = None


class MutationResult(NamedTuple):
    donor: Position
    r1: int
    r2: int


class CrossoverResult(NamedTuple):
    trial: Position
    j_rand: int


# ---------------------------------------------------------------------------
# Run trace
# ---------------------------------------------------------------------------


@dataclass
class FitnessCall:
    position: Position
    value: float
    kind: str


@dataclass
class MutationEvent:
    target_index: int
    best_index: int
    r1: int
    r2: int
    j_rand: int


@dataclass
class GenerationRecord:
    """Snapshot of one generation: index 0 is the initialized population."""

    index: int
    best_fitness: float
    best_position: Position
    calls: list[FitnessCall] = field(default_factory=list)
    mutations: list[MutationEvent] = field(default_factory=list)


@dataclass
class RunTrace:
    generations: list[GenerationRecord] = field(default_factory=list)


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


def donor_vector(best: Position, p1: Position, p2: Position, f: float) -> Position:
    """best + f * (p1 - p2), the scaled-difference mutation arithmetic."""
    return tuple(b + f * (a - c) for b, a, c in zip(best, p1, p2))


def mutate_best_1(
    population: Sequence[Candidate],
    best_index: int,
    target_index: int,
    params: DeParams,
    rng: random.Random,
) -> MutationResult:
    """Donor = best + f * (partner1 - partner2), partners drawn per target.

    The donor may leave the search bounds; positions are only clamped when
    they are converted for fitness evaluation, never here.
    """
    r1, r2 = pick_partners(rng, len(population), target_index)
    donor = donor_vector(
        population[best_index].position,
        population[r1].position,
        population[r2].position,
        params.f,
    )
    return MutationResult(donor, r1, r2)


def crossover(
    target: Candidate,
    donor: Position,
    params: DeParams,
    rng: random.Random,
) -> CrossoverResult:
    """Binomial crossover: each component comes from the donor with
    probability cr, and the j_rand component comes from the donor always."""
    if len(target.position) != len(donor):
        raise ValueError(
            f"target dimension {len(target.position)} != donor dimension {len(donor)}"
        )
    dim = len(donor)
    j_rand = rng.randrange(dim)
    trial = tuple(
        donor[j] if rng.random() <= params.cr or j == j_rand else target.position[j]
        for j in range(dim)
    )
    return CrossoverResult(trial, j_rand)


def select(target: Candidate, trial: Candidate) -> Candidate:
    """Greedy one-to-one selection; ties go to the trial."""
    if target.fitness is None or trial.fitness is None:
        raise ValueError("selection requires both candidates to carry fitness")
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


def run(
    fitness: FitnessProvider,
    params: DeParams,
    seed_positions: Sequence[Sequence[float]],
    repair: Callable[[Position], Position] | None = None,
) -> tuple[Candidate, RunTrace]:
    """Minimize `fitness` and return (best of final population, trace).

    The population is the seed positions, one individual each; at least 4
    are needed so the best vector plus two mutation partners distinct from
    the target always exist. Each generation mutates around the current
    best (recomputed once per generation), crosses over, requests fitness
    for every trial, and keeps the better of target and trial. When
    `repair` is given, each trial is replaced by `repair(trial)` before
    its fitness is requested; the seed positions are used as given.
    Provider errors propagate unchanged.
    """
    if len(seed_positions) < 4:
        raise ValueError(
            f"population needs at least 4 seed positions, got {len(seed_positions)}"
        )
    rng = random.Random(params.rng_seed)
    population = [Candidate(tuple(float(x) for x in pos)) for pos in seed_positions]
    trace = RunTrace()

    init_record = GenerationRecord(0, 0.0, ())
    for candidate in population:
        value, kind = fitness(candidate.position)
        candidate.fitness = value
        init_record.calls.append(FitnessCall(candidate.position, value, kind))
    best = population[best_index_of(population)]
    init_record.best_fitness = best.fitness
    init_record.best_position = best.position
    trace.generations.append(init_record)

    for generation in range(1, params.generations + 1):
        record = GenerationRecord(generation, 0.0, ())
        best_index = best_index_of(population)
        next_population = []
        for i, target in enumerate(population):
            donor, r1, r2 = mutate_best_1(population, best_index, i, params, rng)
            trial_position, j_rand = crossover(target, donor, params, rng)
            if repair is not None:
                trial_position = repair(trial_position)
            value, kind = fitness(trial_position)
            record.calls.append(FitnessCall(trial_position, value, kind))
            record.mutations.append(MutationEvent(i, best_index, r1, r2, j_rand))
            trial = Candidate(trial_position, value)
            next_population.append(select(target, trial))
        population = next_population
        best = population[best_index_of(population)]
        record.best_fitness = best.fitness
        record.best_position = best.position
        trace.generations.append(record)

    return population[best_index_of(population)], trace
