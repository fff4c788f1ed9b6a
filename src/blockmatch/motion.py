"""Block-matching motion estimation over 8-bit luminance frames.

Frames are 2-D numpy arrays of dtype uint8, indexed [row, column] =
[y, x]. A motion vector (u, v) displaces a block by u pixels horizontally
and v vertically into the previous frame. Candidate displacements are
limited to the box |u|, |v| <= w intersected with the frame interior, and
the matching cost is the sum of absolute differences over the block.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import de
from .de import DeParams, Position
from .estimator import (
    EVALUATED,
    EvaluationRecord,
    HistoryStore,
    StrategyParams,
    provider,
)

# The searches search_block dispatches to, by name.
ALGORITHMS = ("fsa", "debm", "tss", "ds")


class MotionVector(NamedTuple):
    u: int
    v: int


class BlockRef(NamedTuple):
    """Top-left anchor (x, y) and side n of one square block."""

    x: int
    y: int
    n: int


@dataclass(frozen=True)
class SearchConfig:
    """Search settings; the defaults are the reference configuration
    (16x16 blocks, +-7 px window, f=0.25, cr=0.8, 5 individuals, one per
    pattern point, over 7 generations, copy threshold 2.5)."""

    w: int = 7
    n: int = 16
    de: DeParams = field(default_factory=DeParams)
    strategy: StrategyParams = field(default_factory=StrategyParams)

    def __post_init__(self):
        if self.w < 1:
            raise ValueError(f"search range must be at least 1, got {self.w}")
        if self.n < 1:
            raise ValueError(f"block size must be at least 1, got {self.n}")


@dataclass
class BlockResult:
    """Per-block search outcome and cost accounting.

    evaluations counts true cost computations and estimations counts
    copied values; their sum equals the number of fitness requests.
    """

    mv: MotionVector
    sad: int
    evaluations: int
    estimations: int


class CellVisit(NamedTuple):
    """One visited search-window cell and how its cost was obtained."""

    u: int
    v: int
    kind: str


@dataclass
class SearchProbe:
    """Optional diagnostics collector for a single block search, the
    package's one diagnostics path; passing one never changes a result.

    visits: the cells the search obtained a cost for, in order, each
        tagged EVALUATED or ESTIMATED; fsa, tss and ds list a cell once.
    records: debm's history store, evaluated and estimated entries alike.
    best_per_generation: debm's population-best fitness after
        initialization and after each generation.
    """

    visits: list[CellVisit] = field(default_factory=list)
    records: list[EvaluationRecord] = field(default_factory=list)
    best_per_generation: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Frame and block geometry
# ---------------------------------------------------------------------------


def _require_frame(frame: np.ndarray, name: str = "frame") -> None:
    if not isinstance(frame, np.ndarray) or frame.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array")
    if frame.dtype != np.uint8:
        raise ValueError(f"{name} must have dtype uint8, got {frame.dtype}")


def _require_pair(current: np.ndarray, previous: np.ndarray) -> None:
    _require_frame(current, "current frame")
    _require_frame(previous, "previous frame")
    if current.shape != previous.shape:
        raise ValueError(
            f"frame dimensions differ: {current.shape} vs {previous.shape}"
        )


def _require_block(
    current: np.ndarray, previous: np.ndarray, block: BlockRef
) -> None:
    _require_pair(current, previous)
    height, width = previous.shape
    x, y, n = block
    if not (0 <= x <= width - n and 0 <= y <= height - n):
        raise ValueError(f"block {block} does not fit the {width}x{height} frame")


def partition(frame: np.ndarray, n: int) -> list[BlockRef]:
    """Tile the frame with non-overlapping n x n blocks in row-major order.

    Right/bottom remainder pixels that do not fill a whole block are left
    out of motion estimation (compensation copies them through verbatim).
    """
    _require_frame(frame)
    height, width = frame.shape
    if n < 1:
        raise ValueError(f"block size must be at least 1, got {n}")
    if width < n or height < n:
        raise ValueError(
            f"frame {width}x{height} is smaller than the {n}x{n} block size"
        )
    return [
        BlockRef(x, y, n)
        for y in range(0, height - n + 1, n)
        for x in range(0, width - n + 1, n)
    ]


def grid_shape(frame_shape: tuple[int, int], n: int) -> tuple[int, int]:
    """(rows, cols) of the block grid produced by partition."""
    height, width = frame_shape
    return height // n, width // n


def mv_bounds(
    block: BlockRef, frame_width: int, frame_height: int, w: int
) -> tuple[int, int, int, int]:
    """Valid displacement box (umin, umax, vmin, vmax) for this block:
    |u|, |v| <= w and the displaced block stays inside the frame."""
    umin = -min(w, block.x)
    umax = min(w, frame_width - block.n - block.x)
    vmin = -min(w, block.y)
    vmax = min(w, frame_height - block.n - block.y)
    return umin, umax, vmin, vmax


# ---------------------------------------------------------------------------
# Matching cost
# ---------------------------------------------------------------------------


def _sad_wide(
    cur: np.ndarray, prev: np.ndarray, block: BlockRef, u: int, v: int
) -> int:
    # cur/prev carry a widened signed dtype so the difference cannot wrap.
    x, y, n = block
    diff = cur[y : y + n, x : x + n] - prev[y + v : y + v + n, x + u : x + u + n]
    return int(np.abs(diff, out=diff).sum(dtype=np.int64))


def sad(
    current: np.ndarray,
    previous: np.ndarray,
    block: BlockRef,
    mv: MotionVector | tuple[int, int],
) -> int:
    """Sum of absolute differences between the block in the current frame
    and its displaced counterpart in the previous frame.

    The displaced block must lie fully inside the previous frame; callers
    clamp candidates before asking for a cost.
    """
    _require_block(current, previous, block)
    height, width = previous.shape
    x, y, n = block
    u, v = int(mv[0]), int(mv[1])
    if not (0 <= x + u <= width - n and 0 <= y + v <= height - n):
        raise ValueError(
            f"candidate ({u}, {v}) moves block {block} outside the previous frame"
        )
    return _sad_wide(
        current.astype(np.int16), previous.astype(np.int16), block, u, v
    )


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


def _full_search(
    cur: np.ndarray,
    prev: np.ndarray,
    block: BlockRef,
    w: int,
    probe: SearchProbe | None = None,
) -> BlockResult:
    height, width = prev.shape
    x, y, n = block
    umin, umax, vmin, vmax = mv_bounds(block, width, height, w)
    template = cur[y : y + n, x : x + n]
    region = prev[y + vmin : y + vmax + n, x + umin : x + umax + n]
    windows = np.lib.stride_tricks.sliding_window_view(region, (n, n))
    sads = np.abs(windows - template).sum(axis=(2, 3), dtype=np.int64)
    # argmin scans v-major then u, so the first minimum has the smallest
    # v and, within it, the smallest u.
    flat = int(np.argmin(sads))
    vi, ui = divmod(flat, sads.shape[1])
    mv = MotionVector(umin + ui, vmin + vi)
    count = sads.size
    if probe is not None:
        probe.visits.extend(
            CellVisit(u, v, EVALUATED)
            for v in range(vmin, vmax + 1)
            for u in range(umin, umax + 1)
        )
    return BlockResult(mv, int(sads[vi, ui]), count, 0)


def full_search(
    current: np.ndarray,
    previous: np.ndarray,
    block: BlockRef,
    w: int,
    probe: SearchProbe | None = None,
) -> BlockResult:
    """Evaluate every valid displacement and return the global minimum.

    Ties resolve to the smallest v, then the smallest u. An interior block
    visits the full (2w+1)^2 candidate grid.
    """
    _require_block(current, previous, block)
    return _full_search(
        current.astype(np.int16), previous.astype(np.int16), block, w, probe
    )


# ---------------------------------------------------------------------------
# Differential-evolution search
# ---------------------------------------------------------------------------


def initial_pattern(w: int) -> list[Position]:
    """Five fixed starting positions: the origin, where most real-world
    motion concentrates, plus four axial points splitting the window."""
    if w < 1:
        raise ValueError(f"search range must be at least 1, got {w}")
    offset = float(min(4, w))
    return [
        (0.0, 0.0),
        (-offset, 0.0),
        (offset, 0.0),
        (0.0, -offset),
        (0.0, offset),
    ]


def _clamped_cell(
    position: Sequence[float], bounds: tuple[int, int, int, int]
) -> tuple[int, int]:
    """Project a real-valued position onto the valid displacement lattice:
    round half away from zero, then clamp into the (umin, umax, vmin, vmax)
    box, which for `mv_bounds` keeps |u|,|v| <= w and the displaced block
    inside the frame."""
    umin, umax, vmin, vmax = bounds
    x, y = position
    u = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    v = math.floor(y + 0.5) if y >= 0 else math.ceil(y - 0.5)
    return min(max(u, umin), umax), min(max(v, vmin), vmax)


@functools.lru_cache(maxsize=None)
def _offsets_nearest_first(w: int) -> tuple[tuple[int, int, int], ...]:
    """(du, dv, du^2 + dv^2) for every nonzero offset between two cells of
    a (2w+1)^2 window, by increasing length; equal lengths keep v-major
    scan order."""
    span = range(-2 * w, 2 * w + 1)
    return tuple(
        sorted(
            ((du, dv, du * du + dv * dv) for dv in span for du in span if du or dv),
            key=lambda offset: offset[2],
        )
    )


def _debm_search(
    cur: np.ndarray,
    prev: np.ndarray,
    block: BlockRef,
    config: SearchConfig,
    probe: SearchProbe | None = None,
) -> BlockResult:
    """Search one block with differential evolution plus fitness copying.

    Individuals live on the valid displacement lattice. The five pattern
    points, projected onto it, are requested up front, then each of the
    configured generations mutates around the running best, crosses over,
    rounds the trial to its cell and resolves its cost through the
    evaluate-or-estimate dispatch. A trial that lands on the cell of the
    best record so far moves to the nearest cell not yet requested in
    this search, so it never spends a true evaluation on a known cost.
    The motion vector is the cell with the lowest cost the search truly
    computed (the earliest on ties), and its SAD is that computed cost;
    no copied value is reported and no extra evaluation is spent.
    """
    height, width = prev.shape
    w = config.w
    bounds = mv_bounds(block, width, height, w)
    umin, umax, vmin, vmax = bounds
    offsets = _offsets_nearest_first(w)
    store = HistoryStore()
    true_evaluations = 0
    # Individuals live on the valid lattice, so every requested position
    # is already a cell and the objective needs no projection.
    seeds = [_clamped_cell(p, bounds) for p in initial_pattern(w)]
    requested = set(seeds)

    def repair(position: Position) -> Position:
        # A trial on the incumbent's cell would only re-evaluate a known
        # cost; it moves to the nearest cell not yet requested, and among
        # equally near ones to the one nearest the trial itself.
        cell = u, v = _clamped_cell(position, bounds)
        if cell == store.best().position:
            found = None  # (squared offset, squared gap to the trial, cell)
            for du, dv, ring in offsets:
                if found is not None and ring > found[0]:
                    break
                fresh = (u + du, v + dv)
                if (
                    umin <= fresh[0] <= umax
                    and vmin <= fresh[1] <= vmax
                    and fresh not in requested
                ):
                    gap = (fresh[0] - position[0]) ** 2 + (fresh[1] - position[1]) ** 2
                    if found is None or gap < found[1]:
                        found = (ring, gap, fresh)
            if found is not None:
                cell = found[2]
        requested.add(cell)
        # float coordinates keep the DE arithmetic on CPython's float fast path
        return float(cell[0]), float(cell[1])

    def objective(position: Position) -> float:
        nonlocal true_evaluations
        true_evaluations += 1
        u, v = position
        return float(_sad_wide(cur, prev, block, int(u), int(v)))

    _, best_per_generation = de.run(
        provider(store, config.strategy, objective),
        config.de,
        seeds,
        repair,
    )

    # Report the lowest cost truly computed (earliest on ties): a copied
    # value never stands in for a computed one.
    best = min(
        (r for r in store.records if r.kind == EVALUATED), key=lambda r: r.fitness
    )
    mv = MotionVector(*map(int, best.position))
    estimations = len(store.records) - true_evaluations
    if probe is not None:
        probe.best_per_generation = best_per_generation
        probe.records = list(store.records)
        probe.visits = [
            CellVisit(*map(int, r.position), r.kind)
            for r in store.records
        ]
    return BlockResult(mv, int(best.fitness), true_evaluations, estimations)


# ---------------------------------------------------------------------------
# Frame-level drivers
# ---------------------------------------------------------------------------


def search_block(
    algorithm: str,
    current: np.ndarray,
    previous: np.ndarray,
    block: BlockRef,
    config: SearchConfig,
    index: int,
    probe: SearchProbe | None = None,
) -> BlockResult:
    """Search one block of a uint8 frame pair with the named algorithm
    (one of ALGORITHMS), exactly as a full-frame run searches it.

    `index` is the block's position in partition order; debm seeds its
    run with rng_seed ^ index, so a block's result does not depend on
    which other blocks are searched or in what order. The block must lie
    inside the frame.
    """
    _require_block(current, previous, block)
    cur, prev = current.astype(np.int16), previous.astype(np.int16)
    return _search_block(algorithm, cur, prev, block, config, index, probe)


def _search_block(
    algorithm: str,
    cur: np.ndarray,
    prev: np.ndarray,
    block: BlockRef,
    config: SearchConfig,
    index: int,
    probe: SearchProbe | None = None,
) -> BlockResult:
    # cur/prev are validated and widened to int16. Each search is looked up
    # on its module when called, so a replaced module attribute sees every
    # block.
    if algorithm == "fsa":
        return _full_search(cur, prev, block, config.w, probe)
    if algorithm == "debm":
        seeded = replace(
            config, de=replace(config.de, rng_seed=config.de.rng_seed ^ index)
        )
        return _debm_search(cur, prev, block, seeded, probe)
    if algorithm == "tss":
        return baselines._tss_search(cur, prev, block, config.w, probe)
    if algorithm == "ds":
        return baselines._ds_search(cur, prev, block, config.w, probe)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected {ALGORITHMS}")


def estimate_frame(
    current: np.ndarray,
    previous: np.ndarray,
    config: SearchConfig,
    algorithm: str,
) -> tuple[np.ndarray, list[BlockResult]]:
    """Run one search algorithm over every block of the frame.

    Returns the motion-vector field as an int32 grid of shape
    (rows, cols, 2) holding (u, v) per block, plus the per-block results
    in partition order, each as `search_block` gives it.
    """
    _require_pair(current, previous)
    blocks = partition(current, config.n)
    cur = current.astype(np.int16)
    prev = previous.astype(np.int16)
    results = [
        _search_block(algorithm, cur, prev, block, config, index)
        for index, block in enumerate(blocks)
    ]

    rows, cols = grid_shape(current.shape, config.n)
    field_array = np.zeros((rows, cols, 2), dtype=np.int32)
    for block, result in zip(blocks, results):
        field_array[block.y // config.n, block.x // config.n] = result.mv
    return field_array, results


def compensate(previous: np.ndarray, mv_field: np.ndarray, n: int) -> np.ndarray:
    """Predict the current frame by copying each block from the previous
    frame at its motion-vector offset; remainder pixels outside the block
    grid are copied through unchanged."""
    _require_frame(previous, "previous frame")
    height, width = previous.shape
    rows, cols = grid_shape(previous.shape, n)
    if mv_field.shape != (rows, cols, 2):
        raise ValueError(
            f"mv field shape {mv_field.shape} does not match the "
            f"{rows}x{cols} block grid"
        )
    output = previous.copy()
    for row in range(rows):
        for col in range(cols):
            x, y = col * n, row * n
            u, v = int(mv_field[row, col, 0]), int(mv_field[row, col, 1])
            if not (0 <= x + u <= width - n and 0 <= y + v <= height - n):
                raise ValueError(
                    f"mv ({u}, {v}) for block at ({x}, {y}) leaves the frame"
                )
            output[y : y + n, x : x + n] = previous[y + v : y + v + n, x + u : x + u + n]
    return output


# Imported last, because baselines builds on the names above. Loading it
# with this module, not on first use, also binds its _sad_wide before
# anything can replace motion._sad_wide.
from . import baselines  # noqa: E402
