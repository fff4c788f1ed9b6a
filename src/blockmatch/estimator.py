"""Evaluate-or-estimate fitness dispatch backed by a history of seen points.

Every fitness request within one search is recorded in a history store.
A new position is truly evaluated when the best point seen so far is one
of its nearest recorded neighbors (worth refining), also when other
records lie at the same distance, or when no record lies within the
distance threshold D (nothing to copy from); otherwise its fitness is
copied from the earliest nearest neighbor. Fitness is nonnegative, so a
truly evaluated 0 leaves nothing to refine: from then on, near positions
are copied. Estimated entries join the store too, so later queries may
chain off them.

The store indexes its records by position: a request for a position
already stored is answered by one lookup, and any other request measures
its distance to each distinct stored position once, however many records
share it.

D is the paper's copy threshold, fixed by design like the optimizer's
parameters in `de`.
"""

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple

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


@dataclass(slots=True)
class EvaluationRecord:
    position: Position
    fitness: float
    kind: str

    def __post_init__(self):
        if self.fitness < 0:
            raise ValueError(f"fitness must be nonnegative, got {self.fitness}")
        if not all(map(math.isfinite, self.position)):
            raise ValueError(f"position must be finite, got {self.position}")
        if self.kind not in (EVALUATED, ESTIMATED):
            raise ValueError(f"unknown record kind {self.kind!r}")


class NearestHit(NamedTuple):
    index: int
    record: EvaluationRecord
    distance: float


@dataclass
class HistoryStore:
    """Ordered log of all fitness requests within one block search.

    best_index always points at the minimal fitness over all records,
    evaluated and estimated alike; ties keep the earliest insertion.
    Alongside the records the store keeps each distinct position, in the
    order it was first stored, with the index of its earliest record; so
    records enter only through `append`. DE-BM's repair reads that index
    as the set of positions requested so far.
    """

    records: list[EvaluationRecord] = field(default_factory=list, init=False)
    best_index: int | None = None
    _first: dict[Position, int] = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: EvaluationRecord) -> int:
        self.records.append(record)
        index = len(self.records) - 1
        self._first.setdefault(tuple(record.position), index)
        if self.best_index is None or record.fitness < self.records[self.best_index].fitness:
            self.best_index = index
        return index

    def best(self) -> EvaluationRecord | None:
        return None if self.best_index is None else self.records[self.best_index]

    def nearest(self, position: Position) -> NearestHit | None:
        """Closest record by Euclidean distance. Of equally near distinct
        positions the one stored first wins, and of the records at that
        position the earliest; so the earliest insertion wins every tie.
        None iff the store is empty.

        A stored position is found by lookup at distance 0.0; otherwise
        each distinct position is measured once.
        """
        index = self._first.get(tuple(position))
        if index is not None:
            return NearestHit(index, self.records[index], 0.0)
        if not self._first:
            return None
        distances = list(map(math.dist, self._first, repeat(position)))
        distance = min(distances)
        index = list(self._first.values())[distances.index(distance)]
        return NearestHit(index, self.records[index], distance)


def classify(
    store: HistoryStore,
    position: Position,
    hit: NearestHit | None = None,
) -> Rule:
    """Decide how a position's fitness is obtained.

    Exactly one rule applies: no record within D (or an empty store)
    means UNEXPLORED (evaluate, nothing nearby to copy from); the best
    record seen so far lying at the nearest distance means NEAR_BEST
    (evaluate, to keep refining the minimum), even when other records are
    equally near and `nearest` names one of them; any other near record
    means NEIGHBOR_COPY. A best record that was truly evaluated at 0, the
    least fitness a record can hold, cannot be refined, so a position
    near it is a NEIGHBOR_COPY too.

    `hit` is `store.nearest(position)` when the caller has already looked
    it up; otherwise it is looked up here.
    """
    if hit is None and store.records:
        hit = store.nearest(position)
    if hit is None or hit.distance > D:
        return Rule.UNEXPLORED
    best = store.best()
    if best.fitness == 0 and best.kind == EVALUATED:
        return Rule.NEIGHBOR_COPY
    if hit.index == store.best_index or (
        math.dist(best.position, position) == hit.distance
    ):
        return Rule.NEAR_BEST
    return Rule.NEIGHBOR_COPY


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
    if classify(store, position, hit) is Rule.NEIGHBOR_COPY:
        value = hit.record.fitness
        kind = ESTIMATED
    else:
        value = float(objective(position))
        kind = EVALUATED
    store.append(EvaluationRecord(tuple(position), value, kind))
    return value
