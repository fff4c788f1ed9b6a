"""Evaluate-or-estimate fitness dispatch backed by a history of seen points.

Every fitness request within one search is recorded in a history store.
A new position is truly evaluated when the best point seen so far is one
of its nearest recorded neighbors (worth refining), also when other
records lie at the same distance, or when no record lies within the
distance threshold D (nothing to copy from); otherwise its fitness is
copied from the earliest nearest neighbor. The best is always truly
evaluated and fitness is nonnegative, so a best of 0 leaves nothing to
refine: from then on, near positions are copied. Estimated entries join
the store too, so later queries may chain off them.

The store indexes its records by position: a request for a position
already stored is answered by one lookup, and any other request measures
its distance to each distinct stored position once, however many records
share it; ties resolve to the least (distance, first index) pair, that
is, to the position stored first. `fitness_of` looks the nearest record
up once per request, as a plain (index, record, distance) tuple, and
hands it to `classify`.

D is the paper's copy threshold, fixed by design like the optimizer's
parameters in `de`.
"""

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from .de import Position

# Fitness provenance tags: how a record's value was obtained.
EVALUATED = "evaluated"
ESTIMATED = "estimated"

# Neighbor-distance threshold (pixels, Euclidean) steering the trade-off
# between true evaluations and copies.
D = 2.5


class Rule(enum.Enum):
    """Dispatch outcome for one queried position."""

    NEAR_BEST = 1  # evaluate: nearest stored point is the best seen so far
    UNEXPLORED = 2  # evaluate: no stored point within the distance threshold
    NEIGHBOR_COPY = 3  # estimate: copy the nearest stored fitness


# Bound once, in definition order: a `Rule.X` read is an enum class
# lookup, about 0.2 us on CPython 3.11.
_NEAR_BEST, _UNEXPLORED, _NEIGHBOR_COPY = Rule


@dataclass(slots=True)
class EvaluationRecord:
    """One request's outcome; only `fitness_of` writes records."""

    position: Position
    fitness: float
    kind: str


@dataclass
class HistoryStore:
    """Ordered log of all fitness requests within one block search.

    A store starts empty and records enter only through `append`.
    best_index always points at the minimal fitness over all records,
    evaluated and estimated alike; ties keep the earliest insertion, and
    `records[best_index]` is the best record, always an evaluated one:
    `fitness_of` evaluates the first request, and a copy never lowers the best.
    `positions` maps each distinct stored position, in the order it was
    first stored, to the index of its earliest record; DE-BM's repair
    reads it as the set of cells requested so far.
    """

    records: list[EvaluationRecord] = field(default_factory=list, init=False)
    best_index: int | None = field(default=None, init=False)
    positions: dict[Position, int] = field(default_factory=dict, init=False, repr=False)

    def append(self, record: EvaluationRecord) -> None:
        records = self.records
        records.append(record)
        index = len(records) - 1
        self.positions.setdefault(record.position, index)
        if self.best_index is None or record.fitness < records[self.best_index].fitness:
            self.best_index = index

    def nearest(self, position: Position) -> tuple[int, EvaluationRecord, float] | None:
        """Closest record by Euclidean distance, as (index, record,
        distance): of each distinct position's earliest record, the one
        with the least (distance, index) pair, so the earliest insertion
        wins every tie. None iff the store is empty.

        A stored position is found by lookup at distance 0.0; otherwise
        each distinct position is measured once.
        """
        index = self.positions.get(position)
        if index is not None:
            return index, self.records[index], 0.0
        if not self.positions:
            return None
        distances = list(map(math.dist, self.positions, repeat(position)))
        distance = min(distances)
        index = list(self.positions.values())[distances.index(distance)]
        return index, self.records[index], distance


def classify(store: HistoryStore, position: Position, hit: tuple | None) -> Rule:
    """Decide how a position's fitness is obtained, given `hit`, the
    store's `nearest(position)`.

    Exactly one rule applies: no record within D (or an empty store)
    means UNEXPLORED (evaluate, nothing nearby to copy from); the best
    record seen so far lying at the nearest distance means NEAR_BEST
    (evaluate, to keep refining the minimum), even when other records are
    equally near and `nearest` names one of them; any other near record
    means NEIGHBOR_COPY. The best record was truly evaluated (see
    `HistoryStore`), so a best at 0, the least fitness a record can hold,
    cannot be refined, and a position near it is a NEIGHBOR_COPY too.
    """
    if hit is None or hit[2] > D:
        return _UNEXPLORED
    best = store.records[store.best_index]
    if best.fitness == 0:
        return _NEIGHBOR_COPY
    if hit[0] == store.best_index or math.dist(best.position, position) == hit[2]:
        return _NEAR_BEST
    return _NEIGHBOR_COPY


def fitness_of(
    store: HistoryStore,
    position: Position,
    objective: Callable[[Position], float],
) -> float:
    """Resolve one fitness request, record it in the store and return its
    value; the record appended last carries the kind, EVALUATED or
    ESTIMATED.

    NEAR_BEST and UNEXPLORED invoke the objective exactly once; a
    NEIGHBOR_COPY copies the nearest record's fitness and does not touch
    the objective. The store is searched once per request, by one lookup
    when the position is already stored and otherwise by one pass over
    its distinct positions. Objective errors propagate and leave the
    store as-is.
    """
    hit = store.nearest(position)
    if classify(store, position, hit) is _NEIGHBOR_COPY:
        value = hit[1].fitness
        kind = ESTIMATED
    else:
        value = objective(position)
        kind = EVALUATED
    store.append(EvaluationRecord(position, value, kind))
    return value
