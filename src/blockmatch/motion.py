"""Block-matching motion estimation over 8-bit luminance frames.

Frames are 2-D numpy arrays of dtype uint8, indexed [row, column] =
[y, x]. A motion vector (u, v) displaces a block by u pixels horizontally
and v vertically into the previous frame. The displacements searched are
limited to the box |u|, |v| <= w intersected with the frame interior, and
the matching cost is the sum of absolute differences over the block.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Container, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import de, estimator
from .de import Position
from .estimator import EVALUATED, HistoryStore

# The searches _search_blocks dispatches to, by name.
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
    (16x16 blocks, +-7 px window).

    rng_seed, nonnegative, seeds debm: the block at index i in partition
    order runs its optimizer from rng_seed ^ i. DE-BM's other parameters
    are the paper's and not settable: de.F, de.CR and de.GENERATIONS, 5
    individuals, one per pattern point, and the copy threshold estimator.D.
    """

    w: int = 7
    n: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        if self.w < 1:
            raise ValueError(f"search range must be at least 1, got {self.w}")
        if self.n < 1:
            raise ValueError(f"block size must be at least 1, got {self.n}")
        # random.Random(-s) draws the stream of Random(s), so the per-block
        # seeds rng_seed ^ i of a negative seed would alias other seeds'.
        if self.rng_seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.rng_seed}")


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
    """Optional diagnostics collector for one `search_block` call, the
    package's one diagnostics path; passing one never changes a result.
    A probe serves one call: `search_block` refuses one that holds data.

    visits: the cells the search obtained a cost for, in order, each
        tagged EVALUATED or ESTIMATED; fsa, tss and ds list a cell once.
    best_per_generation: debm's population-best fitness after
        initialization and after each generation.
    """

    visits: list[CellVisit] = field(default_factory=list)
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


def _widen(
    current: np.ndarray, previous: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(cur, windows): the one form of a validated uint8 frame pair that
    every search reads. cur is the current frame widened to int16, so a
    difference cannot wrap; windows[y, x] is the n x n int16 patch of the
    previous frame whose top-left pixel is (x, y). Build it once per frame
    pair: slicing the view copies nothing, and `_bounds` reads the frame
    size from its shape."""
    windows = sliding_window_view(previous.astype(np.int16), (n, n))
    return current.astype(np.int16), windows


def _bounds(windows: np.ndarray, block: BlockRef, w: int) -> tuple[int, int, int, int]:
    """`mv_bounds` for a block of the frame pair `windows` was built from."""
    rows, cols, n, _ = windows.shape
    return mv_bounds(block, cols + n - 1, rows + n - 1, w)


# ---------------------------------------------------------------------------
# Matching cost
# ---------------------------------------------------------------------------


_UINT16_MAX = 2**16 - 1
_INT32_MAX = 2**31 - 1


def _sad_accumulator(n: int) -> type:
    """Narrowest integer dtype that holds the SAD of an n x n block of
    8-bit pixels: uint16 up to n = 16 (a 16x16 SAD is at most 65,280),
    int32 up to n = 2901, int64 above."""
    largest = n * n * 255
    if largest <= _UINT16_MAX:
        return np.uint16
    return np.int32 if largest <= _INT32_MAX else np.int64


def _abs_sum(diff: np.ndarray, axis, n: int) -> np.ndarray:
    """The one way every search sums a SAD: |diff| over `axis`, for an
    int16 difference of n x n blocks of 8-bit pixels, taken in place.
    Every |diff| is at most 255, so its uint16 view reads the same and is
    summed in `_sad_accumulator(n)`, for n <= 16 with no per-element cast."""
    np.abs(diff, out=diff)
    return np.add.reduce(diff.view(np.uint16), axis, _sad_accumulator(n))


def _sad_wide(
    cur: np.ndarray, windows: np.ndarray, block: BlockRef, u: int, v: int
) -> int:
    """SAD of one candidate, summed by `_abs_sum`; cur and windows come
    from _widen."""
    x, y, n = block
    diff = cur[y : y + n, x : x + n] - windows[y + v, x + u]
    # one axis of the fresh, contiguous difference reduces faster than None
    return int(_abs_sum(diff.ravel(), 0, n))


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
    return _sad_wide(*_widen(current, previous, n), block, u, v)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


def _full_search(
    cur: np.ndarray,
    windows: np.ndarray,
    block: BlockRef,
    w: int,
    probe: SearchProbe | None,
) -> BlockResult:
    """Exhaustive search of one block, laid out as one contiguous run of
    candidates per block pixel.

    The block's candidate region of the previous frame is copied once
    into shifted[j, r, u] = previous pixel (x + umin + u + j, y + vmin + r),
    of shape n x (rows + n - 1) x cols. Block pixel (i, j) then meets
    candidate (umin + u, vmin + r) at element (i + r)*cols + u of plane j,
    so the run view runs[i, j, r*cols + u], with element strides
    (cols, (rows + n - 1)*cols, 1), reads every candidate of that pixel
    as one stretch of rows*cols cells. Differencing, `abs` and the
    reduction over the n*n pixels then loop n*n times over long runs
    instead of rows*cols*n times over rows of n pixels, summed by
    `_abs_sum`.
    """
    x, y, n = block
    umin, umax, vmin, vmax = _bounds(windows, block, w)
    rows, cols = vmax - vmin + 1, umax - umin + 1
    box = windows[y + vmin : y + vmax + 1, x + umin : x + umax + 1]
    shifted = np.empty((n, rows + n - 1, cols), dtype=np.int16)
    shifted[:, :rows] = box[:, :, 0].transpose(2, 0, 1)
    shifted[:, rows:] = box[-1, :, 1:].transpose(2, 1, 0)
    # np.ndarray(shape, dtype, buffer, offset, strides) builds the run view
    # without the Python wrapper of as_strided, which costs more per block
    # than the view itself; strides are in bytes.
    item = shifted.itemsize
    runs = np.ndarray(
        (n, n, rows * cols),
        np.int16,
        shifted,
        0,
        (cols * item, (rows + n - 1) * cols * item, item),
    )
    sads = _abs_sum(runs - cur[y : y + n, x : x + n, None], (0, 1), n)
    # sads[r*cols + u] is candidate (umin + u, vmin + r), so argmin scans
    # v-major then u: the first minimum has the smallest v and, within
    # it, the smallest u.
    flat = int(np.argmin(sads))
    vi, ui = divmod(flat, cols)
    mv = MotionVector(umin + ui, vmin + vi)
    if probe is not None:
        probe.visits.extend(
            CellVisit(u, v, EVALUATED)
            for v in range(vmin, vmax + 1)
            for u in range(umin, umax + 1)
        )
    return BlockResult(mv, int(sads[flat]), sads.size, 0)


def full_search(
    current: np.ndarray, previous: np.ndarray, block: BlockRef, w: int
) -> BlockResult:
    """Evaluate every valid displacement and return the global minimum.

    Ties resolve to the smallest v, then the smallest u. An interior block
    visits the full (2w+1)^2 candidate grid. `search_block("fsa", ...)`
    runs the same search and takes a probe.
    """
    _require_block(current, previous, block)
    SearchConfig(w, block.n)  # refuses w < 1 as every search does
    return _full_search(*_widen(current, previous, block.n), block, w, None)


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
    # int truncates toward zero: floor for x + 0.5 > 0, ceil for x - 0.5 < 0
    u = int(x + 0.5) if x >= 0 else int(x - 0.5)
    v = int(y + 0.5) if y >= 0 else int(y - 0.5)
    return (umin if u < umin else umax if u > umax else u,
            vmin if v < vmin else vmax if v > vmax else v)


@functools.lru_cache(maxsize=None)
def _offsets_nearest_first(reach: int) -> tuple[tuple[int, int, int], ...]:
    """(du, dv, du^2 + dv^2) for every nonzero offset with |du|, |dv| <=
    `reach`, by increasing length; equal lengths keep v-major scan order."""
    span = range(-reach, reach + 1)
    offsets = [(du, dv, du * du + dv * dv) for dv in span for du in span if du or dv]
    return tuple(sorted(offsets, key=lambda offset: offset[2]))


# A repair runs before its trial is requested, so at most this many cells, 39,
# are requested when it does: the pattern's and every earlier trial's.
_REPAIR_REACH = len(initial_pattern(1)) * (de.GENERATIONS + 1) - 1


def _nearest_free(cell, trial: Position, bounds, requested: Container) -> tuple[int, int]:
    """The cell of the (umin, umax, vmin, vmax) box not in `requested`
    nearest the box cell `cell`, by least (squared offset, squared gap to
    `trial`, table order), or `cell` if every box cell is requested. With
    at most _REPAIR_REACH cells requested, a box side reaching that far from
    `cell` holds a free cell within that reach, so the table stops there."""
    umin, umax, vmin, vmax = bounds
    (u, v), (x, y) = cell, trial
    ring_found = gap = math.inf
    for du, dv, ring in _offsets_nearest_first(min(max(umax - umin, vmax - vmin), _REPAIR_REACH)):
        if ring > ring_found:
            break
        fu, fv = u + du, v + dv
        if umin <= fu <= umax and vmin <= fv <= vmax and (fu, fv) not in requested:
            fresh_gap = (fu - x) ** 2 + (fv - y) ** 2
            if fresh_gap < gap:
                ring_found, gap, cell = ring, fresh_gap, (fu, fv)
    return cell


def _debm_search(
    cur: np.ndarray,
    windows: np.ndarray,
    block: BlockRef,
    w: int,
    rng_seed: int,
    probe: SearchProbe | None = None,
) -> BlockResult:
    """Search one block with differential evolution plus fitness copying.

    Individuals live on the valid displacement lattice. The five pattern
    points, projected onto it, are requested up front, then each of the
    de.GENERATIONS generations mutates around the running best, crosses over,
    rounds the trial to its cell and resolves its cost through the
    evaluate-or-estimate dispatch. A trial that lands on the cell of the
    best record so far moves to the nearest cell not yet requested in
    this search, none of the store's `positions`, so it never spends a
    true evaluation on a known cost.
    The result is the store's best record. A copy takes an earlier
    record's value and so never undercuts it, which makes it the earliest
    lowest cost the search truly computed: no copied value is reported and
    no extra evaluation is spent.
    """
    bounds = _bounds(windows, block, w)
    store = HistoryStore()
    # Individuals live on the valid lattice: every requested position is
    # an int cell from _clamped_cell, which the objective passes on as is.
    seeds = [_clamped_cell(p, bounds) for p in initial_pattern(w)]

    def repair(position: Position) -> tuple[int, int]:
        # A trial on the incumbent's cell would only re-evaluate a known
        # cost; it moves to the nearest cell not yet requested, and among
        # equally near ones to the one nearest the trial itself.
        # fitness_of stores every request, so store.positions holds them all.
        cell = _clamped_cell(position, bounds)
        if cell == store.records[store.best_index].position:
            cell = _nearest_free(cell, position, bounds, store.positions)
        return cell

    def objective(cell: tuple[int, int]) -> float:
        return float(_sad_wide(cur, windows, block, *cell))

    # Bound from the module attribute per block, so a replaced
    # `fitness_of` sees every request.
    request = functools.partial(estimator.fitness_of, store, objective=objective)
    _, best_per_generation = de.run(request, rng_seed, seeds, repair)

    best = store.records[store.best_index]
    mv = MotionVector(*best.position)
    evaluations = sum(r.kind == EVALUATED for r in store.records)
    estimations = len(store.records) - evaluations
    if probe is not None:
        probe.best_per_generation.extend(best_per_generation)
        probe.visits.extend(CellVisit(*r.position, r.kind) for r in store.records)
    return BlockResult(mv, int(best.fitness), evaluations, estimations)


# ---------------------------------------------------------------------------
# Frame-level drivers
# ---------------------------------------------------------------------------


def search_block(
    algorithm: str,
    current: np.ndarray,
    previous: np.ndarray,
    block: BlockRef,
    config: SearchConfig,
    probe: SearchProbe | None = None,
) -> BlockResult:
    """Search one block of a uint8 frame pair with the named algorithm
    (one of ALGORITHMS), exactly as a full-frame run searches it.

    The block must be one of `partition(current, config.n)`; any other is
    refused. Its index there, (y // n) * (width // n) + x // n, seeds
    debm's run with rng_seed ^ index, so a block's result does not depend
    on which other blocks are searched or in what order.
    """
    _require_block(current, previous, block)
    x, y, n = block
    if n != config.n or x % n or y % n:
        grid = partition(current, config.n)
        raise ValueError(f"block ({x}, {y}) of side {n} is not on the partition grid of side {config.n}; "
                         f"valid x: {sorted({b.x for b in grid})}, valid y: {sorted({b.y for b in grid})}")
    if probe is not None and (probe.visits or probe.best_per_generation):
        raise ValueError("a SearchProbe serves one search; pass a fresh one")
    index = (y // n) * (current.shape[1] // n) + x // n
    cur, windows = _widen(current, previous, n)
    return next(_search_blocks(algorithm, cur, windows, [block], config, index, probe))


def _search_blocks(algorithm: str, cur, windows, blocks: list[BlockRef], config: SearchConfig,
                   first_index: int = 0, probe: SearchProbe | None = None) -> Iterator[BlockResult]:
    """Each block's result in order: the one dispatch on a search's name.
    blocks are consecutive in partition order from index first_index, and
    debm seeds block i's run with rng_seed ^ i; cur and windows come from
    _widen. Each search is looked up when called, so a replaced module
    attribute sees every block."""
    w = config.w
    if algorithm == "fsa":
        return (_full_search(cur, windows, block, w, probe) for block in blocks)
    if algorithm == "debm":
        return (_debm_search(cur, windows, block, w, config.rng_seed ^ index, probe)
                for index, block in enumerate(blocks, first_index))
    if algorithm in ("tss", "ds"):
        return baselines._search(algorithm, cur, windows, blocks, w, probe)
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
    in partition order, each as `search_block` gives it: both run
    `_search_blocks`, here over the whole partition.
    """
    _require_pair(current, previous)
    blocks = partition(current, config.n)
    cur, windows = _widen(current, previous, config.n)
    results = list(_search_blocks(algorithm, cur, windows, blocks, config))

    # partition's row-major order is the grid's.
    rows, cols = grid_shape(current.shape, config.n)
    return np.array([c for r in results for c in r.mv], np.int32).reshape(rows, cols, 2), results


def compensate(previous: np.ndarray, mv_field: np.ndarray, n: int) -> np.ndarray:
    """Predict the current frame by copying each block from the previous
    frame at its motion-vector offset; remainder pixels outside the block
    grid are copied through unchanged.

    Every block is gathered at once from the n x n window view of the
    previous frame, at its anchor plus its vector. A vector that moves its
    block outside the frame raises ValueError naming the first such block
    in row-major order."""
    _require_frame(previous, "previous frame")
    height, width = previous.shape
    rows, cols = grid_shape(previous.shape, n)
    if mv_field.shape != (rows, cols, 2):
        raise ValueError(
            f"mv field shape {mv_field.shape} does not match the "
            f"{rows}x{cols} block grid"
        )
    vectors = mv_field.astype(np.int64)
    xs = np.arange(cols) * n + vectors[:, :, 0]
    ys = np.arange(rows)[:, None] * n + vectors[:, :, 1]
    outside = (xs < 0) | (xs > width - n) | (ys < 0) | (ys > height - n)
    if outside.any():
        row, col = np.argwhere(outside)[0]
        u, v = vectors[row, col]
        raise ValueError(
            f"mv ({u}, {v}) for block at ({col * n}, {row * n}) leaves the frame"
        )
    output = previous.copy()
    # A frame smaller than one block has an empty grid and no n x n window.
    if rows and cols:
        # grid[row, col] is the output block at (row, col): splitting the
        # axes of a slice makes a view, so the gather writes into output.
        grid = output[: rows * n, : cols * n].reshape(rows, n, cols, n).transpose(0, 2, 1, 3)
        grid[...] = sliding_window_view(previous, (n, n))[ys, xs]
    return output


# Imported last, because baselines builds on the names above;
# `_search_blocks` looks tss and ds up on it when called.
from . import baselines  # noqa: E402
