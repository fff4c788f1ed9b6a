"""Differential evolution with best/1 mutation and binomial crossover.

The optimizer minimizes a plain `Position -> float` objective over the
2-D real plane, starting from a given set of seed positions, one
individual per seed. Every trial passes through the caller's repair
before its fitness is requested. A run holds its population as two
lists, positions and fitnesses, and returns its best individual as a
plain (position, fitness) pair. The objective may return estimated
rather than truly computed values; the optimizer does not distinguish
them, so callers keep that accounting themselves.

Every random decision of a run comes from `_draws`: random.Random(seed)'s
Mersenne Twister output, read as randrange would draw it. It reads only the
seed, population size and CR, and is cached per (seed, size, CR), never evicted.

The control parameters are the paper's reference set, fixed by design:
F, the mutation scale factor; CR, the crossover rate; and GENERATIONS,
the number of mutate/crossover/select rounds. A variant with other
values is another algorithm, not a setting of this one.
"""

import random
from functools import cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

Position = tuple[float, float]


F = 0.25
CR = 0.8
GENERATIONS = 7


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


@cache
def _rows(size: int) -> tuple[tuple[int, int, bool, bool], ...]:
    return tuple(product(range(size), range(size), (False, True), (False, True)))


@cache
def _table(rng_seed: int, size: int, cr: float) -> Sequence[int]:
    """`_draws` as indices into `_rows(size)`. randrange(n) is
    getrandbits(n.bit_length()) redrawn while >= n; so are r1, r2, j_rand."""
    rng = random.Random(rng_seed)
    bits, uniform, k = rng.getrandbits, rng.random, size.bit_length()
    codes = []
    for target in [*range(size)] * GENERATIONS:
        while (r1 := bits(k)) >= size or r1 == target:
            pass
        while (r2 := bits(k)) >= size or r2 == target or r2 == r1:
            pass
        while (j_rand := bits(2)) >= 2:
            pass
        take_u = uniform() <= cr or j_rand == 0
        take_v = uniform() <= cr or j_rand == 1
        codes.append((r1 * size + r2) << 2 | take_u << 1 | take_v)
    return bytes(codes) if len(_rows(size)) <= 256 else tuple(codes)


def _draws(rng_seed: int, size: int) -> Iterator[tuple[int, int, bool, bool]]:
    """Yield (r1, r2, take_u, take_v) per generation and target in population
    order: partners r1 != r2 other than the target, then whether the trial
    takes the donor's u and v (random() <= CR, read at call time, or j_rand).
    `_table` builds each stream once, about 200 B, and keeps it."""
    return map(_rows(size).__getitem__, _table(rng_seed, size, CR))


def run(
    objective: Callable[[Position], float],
    rng_seed: int,
    seed_positions: Sequence[Sequence[float]],
    repair: Callable[[Position], Position],
) -> tuple[tuple[Position, float], list[float]]:
    """Minimize `objective` and return ((position, fitness) of the best of
    the final population, best_per_generation).

    Identical seeds and inputs give bitwise-identical runs.
    best_per_generation holds the population-best fitness after
    initialization and after each generation, GENERATIONS + 1 values.
    The population is the seed positions, one individual each, held as
    a list of positions and a list of their fitnesses; at least 4
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
    positions = [(u, v) for u, v in seed_positions]
    fitnesses = [objective(position) for position in positions]
    # min, then index, finds the earliest individual of least fitness
    best_fitness = min(fitnesses)
    best_per_generation = _BestPerGeneration([best_fitness])

    draws = _draws(rng_seed, len(positions))
    for _ in range(GENERATIONS):
        best_u, best_v = positions[fitnesses.index(best_fitness)]
        next_positions, next_fitnesses = [], []
        # zip takes a target before it takes a draw, so it stops at the
        # generation's end without consuming the next generation's first.
        for target, target_fitness, (r1, r2, take_u, take_v) in zip(positions, fitnesses, draws):
            u, v = target
            u1, v1 = positions[r1]
            u2, v2 = positions[r2]
            trial = repair((
                best_u + F * (u1 - u2) if take_u else u,
                best_v + F * (v1 - v2) if take_v else v,
            ))
            fitness = objective(trial)
            if fitness <= target_fitness:
                target, target_fitness = trial, fitness
            next_positions.append(target)
            next_fitnesses.append(target_fitness)
        positions, fitnesses = next_positions, next_fitnesses
        best_fitness = min(fitnesses)
        best_per_generation.append(best_fitness)

    return (positions[fitnesses.index(best_fitness)], best_fitness), best_per_generation
