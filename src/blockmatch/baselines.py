"""Classical fixed-pattern fast searches: three-step and diamond.

Both share the SAD cost, skip candidates outside the valid displacement
region, cost a position at most once, and report the same per-block
accounting as the other algorithms. `_search` runs them over a frame's
blocks or one, for `motion._search_blocks`: it walks a walking set of
blocks in lockstep, each step one pattern for every block still walking,
costing its unseen in-box cells a gather chunk of blocks at a time, one
gather each from the shared window view, then replays each block's walk
through `_tss_search` or `_ds_search`, which look the costs up. One byte
budget per step, `_BATCH_BYTES`, sizes both the walking set's state and a
chunk's gather (`_sizes`).
A SAD here is exactly the one `motion.sad` computes, summed by `_abs_sum`.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimator import EVALUATED
from .motion import (
    BlockRef,
    BlockResult,
    CellVisit,
    MotionVector,
    SearchProbe,
    _abs_sum,
    _bounds,
    _sad_accumulator,
)

# Large diamond: center first so a tie never moves the center, which keeps
# every recentering a strict improvement and guarantees termination.
_LARGE_DIAMOND = ((0, 0), (0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))
_SMALL_DIAMOND = ((0, 0), (0, -1), (-1, 0), (1, 0), (0, 1))
# Three-step search's 9-point grid in v-major order, scaled by each step.
_GRID = tuple((du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1))
# The lockstep's patterns as (axis, 1, cell) offset tables, u on axis 0
# and v on axis 1, that every block of a step shares. They are int32, the
# walk's coordinate dtype below 2**31 window positions: int64 would widen
# every cell and key, and int8 wrap past tss step 127.
_LARGE_OFFSETS, _SMALL_OFFSETS, _GRID_OFFSETS = (
    np.array(pattern, np.int32).T[:, None, :] for pattern in (_LARGE_DIAMOND, _SMALL_DIAMOND, _GRID))
# Bytes of one lockstep step: a gather chunk's compacted (F, n, n) int16
# gather, at most 9 cells of each of its blocks, and a walking set's state.
# Most of a step's time is numpy's fixed cost per chunk, so the budget sets
# how many blocks share it.
_BATCH_BYTES = 512 * 1024
# Bytes a walking set allows each block for its box, centre and a log of
# about 90 cells, so that a walking set's state fits the step budget.
_WALKER_BYTES = 768


def _sizes(n: int) -> tuple[int, int]:
    """(gather chunk, walking set) in blocks at block size n: (682, 682)
    at n <= 6, (455, 455) at n = 8 and (113, 678) at n = 16. A walking set
    is whole chunks and at most `_BATCH_BYTES // _WALKER_BYTES` blocks,
    682, so a chunk is capped there too: small blocks, whose gather is
    cheap, still walk in sets whose state fits the budget."""
    walkers = _BATCH_BYTES // _WALKER_BYTES
    chunk = max(1, min(_BATCH_BYTES // (9 * n * n * 2), walkers))
    return chunk, walkers // chunk * chunk


class _CachedCost:
    """A block's SADs, `seen`: the {cell: SAD} dict that `_search`'s
    lockstep costed for it, in the order its walk first visits the cells.
    A call takes one pattern step's cells inside `bounds`, the valid box,
    and returns their SADs in order; a cell the lockstep did not cost
    raises KeyError."""

    def __init__(self, windows, block, w, seen: dict[tuple[int, int], int]):
        self.bounds = _bounds(windows, block, w)
        self.seen = seen

    def __call__(self, cells: list[tuple[int, int]]) -> list[int]:
        return [self.seen[cell] for cell in cells]

    def result(self, u: int, v: int, probe: SearchProbe | None) -> BlockResult:
        """The search's outcome at (u, v); a probe gets every visit, once."""
        if probe is not None:
            probe.visits.extend(CellVisit(*cell, EVALUATED) for cell in self.seen)
        return BlockResult(MotionVector(u, v), self.seen[(u, v)], len(self.seen), 0)


def _scan_min(cost: _CachedCost, center, offsets, scale=1):
    """Evaluate the pattern's cells inside the box around the center and
    return the first-scanned minimum in pattern-definition order."""
    umin, umax, vmin, vmax = cost.bounds
    cu, cv = center
    cells = [(u, v) for du, dv in offsets if umin <= (u := cu + du * scale) <= umax
             and vmin <= (v := cv + dv * scale) <= vmax]
    values = cost(cells)
    return cells[values.index(min(values))]


def _tss_search(windows, block: BlockRef, w: int, seen, probe: SearchProbe | None) -> BlockResult:
    """Three-step search: 9-point grids at halving step sizes, each pass
    recentered on the running minimum. At w=7 the steps are 4, 2, 1 for at
    most 25 distinct candidates."""
    cost = _CachedCost(windows, block, w, seen)
    center = (0, 0)
    # The origin is requested on its own: it is the first pattern step.
    cost([center])
    step = (w + 1) // 2
    while step >= 1:
        center = _scan_min(cost, center, _GRID, step)
        step //= 2
    return cost.result(*center, probe)


def _ds_search(windows, block: BlockRef, w: int, seen, probe: SearchProbe | None) -> BlockResult:
    """Diamond search: the 9-point large diamond walks until its minimum
    stays central, then one 5-point small diamond refines the result."""
    cost = _CachedCost(windows, block, w, seen)
    center = (0, 0)
    while True:
        minimum = _scan_min(cost, center, _LARGE_DIAMOND)
        if minimum == center:
            break
        center = minimum
    return cost.result(*_scan_min(cost, center, _SMALL_DIAMOND), probe)


class _Lockstep:
    """A walking set of blocks taking one pattern step at a time, in window
    coordinates (x + u, y + v). Each block logs the cells it has costed
    and their SADs, in the order its scalar walk costs them, a cell packed
    in one key, Y * cols + X, which is unique inside the frame. A step
    compares its cells with the log, so the state per block is its own
    costed cells at any search range. A step runs a gather chunk of
    blocks at a time, so what it allocates does not grow with the set."""

    def __init__(self, cur, windows, blocks: list[BlockRef], w: int, chunk: int):
        rows, cols, self.n, _ = windows.shape
        self.windows, self.cols, self.chunk = windows, cols, chunk
        self.cur = sliding_window_view(cur, (self.n, self.n))
        # int32 keys, where they fit, halve the buffers that numpy's
        # broadcast comparison with the log allocates; coordinates share
        # their type, so no arithmetic casts; the least key marks an empty
        # slot
        key_type = np.int32 if rows * cols < np.iinfo(np.int32).max else np.int64
        self.anchor = np.array(blocks, key_type).T[:2, :, None]
        self.at = self.anchor.copy()
        # (low or high, X or Y, block, 1): the valid box of each block; any
        # range past the view's extent, rows + cols, boxes as the extent does
        self.reach = min(w, rows + cols)
        self.box = np.array([np.maximum(self.anchor - self.reach, 0),
                             np.minimum(self.anchor + self.reach, np.array([cols - 1, rows - 1])[:, None, None])], key_type)
        self.empty = np.array(np.iinfo(key_type).min, key_type)
        self.keys = np.full((len(blocks), 9), self.empty)
        self.sads = np.zeros((len(blocks), 9), _sad_accumulator(self.n))
        # above any SAD of an n x n block, in the SADs' own dtype
        self.top = np.iinfo(self.sads.dtype).max
        self.count = np.zeros(len(blocks), np.intp)

    def scan(self, active, offsets):
        """Move each `active` block's center to the first minimum, in
        pattern order, of its cells center + offsets inside its box,
        costing the unseen ones a gather chunk of blocks at a time; return
        the minima's pattern indices. offsets is (2, 1, pattern): every
        block takes the same pattern."""
        best = np.empty(len(active), np.intp)
        for start in range(0, len(active), self.chunk):
            part = slice(start, start + self.chunk)
            best[part] = self._scan(active[part], offsets)
        return best

    def _scan(self, active, offsets):
        cells = self.at[:, active] + offsets
        low, high = self.box[:, :, active]
        inside = ((low <= cells) & (cells <= high)).all(0)
        # a cell outside its box may wrap to any key; it is never logged
        keys = cells[1] * self.cols + cells[0]
        match = keys[:, :, None] == self.keys[active, None, :]
        fresh = inside & ~match.any(2)
        values = self.sads[active[:, None], match.argmax(2)]
        del match
        if fresh.any():
            owner = np.arange(len(active)).repeat(fresh.sum(1))
            values[fresh] = sads = self._cost(active, owner, cells, fresh)
            self._log(active, fresh, active[owner], keys[fresh], sads)
        values[~inside] = self.top
        best = values.argmin(1)
        self.at[:, active] = cells[:, np.arange(len(active)), best, None]
        return best

    def _cost(self, active, owner, cells, fresh):
        """SADs of the `fresh` cells, in row-major order, from one gather;
        the i-th is a cell of block active[owner[i]]."""
        diff = self.windows[cells[1][fresh], cells[0][fresh]]
        # the chunk's own pixels, contiguous, so a cell's copy is one run,
        # subtracted a chunk's worth at a time: one copy per cell at once
        # would double the gather's memory
        targets = self.cur[self.anchor[1, active, 0], self.anchor[0, active, 0]]
        for start in range(0, len(diff), len(targets)):
            part = slice(start, start + len(targets))
            diff[part] -= targets[owner[part]]
        return _abs_sum(diff, (1, 2), self.n)

    def _log(self, active, fresh, blocks, keys, sads):
        """Append the `fresh` cells' keys and SADs to their blocks' logs,
        in pattern order."""
        rank = np.cumsum(fresh, 1)
        slots = self.count[blocks] + rank[fresh] - 1
        self.count[active] += rank[:, -1]
        if slots.max() >= self.keys.shape[1]:
            grow = len(self.keys), 9
            self.keys = np.concatenate([self.keys, np.full(grow, self.empty)], 1)
            self.sads = np.concatenate([self.sads, np.zeros(grow, self.sads.dtype)], 1)
        self.keys[blocks, slots] = keys
        self.sads[blocks, slots] = sads

    def seen(self):
        """Each block's {cell: SAD} dict, one at a time, decoded a chunk at
        a time: a walking set's at once would cost peak memory."""
        for start in range(0, len(self.keys), self.chunk):
            rows = slice(start, start + self.chunk)
            v, u = np.divmod(self.keys[rows], self.cols)
            u -= self.anchor[0, rows]
            v -= self.anchor[1, rows]
            for us, vs, sads, count in zip(u, v, self.sads[rows], self.count[rows].tolist()):
                yield dict(zip(zip(us[:count].tolist(), vs[:count].tolist()), sads[:count].tolist()))


def _tss_lockstep(walk: _Lockstep, w: int) -> None:
    every = np.arange(len(walk.keys))
    # the origin: the unit grid's centre cell, (0, 0)
    walk.scan(every, _GRID_OFFSETS[:, :, 4:5])
    step = (w + 1) // 2
    while step >= 1:
        # a step past the walk's reach leaves only the centre in any box
        walk.scan(every, _GRID_OFFSETS * min(step, walk.reach))
        step //= 2


def _ds_lockstep(walk: _Lockstep, w: int) -> None:
    # large diamonds until each block's minimum stays, then one small for all
    every = active = np.arange(len(walk.keys))
    while active.size:
        active = active[walk.scan(active, _LARGE_OFFSETS) != 0]
    walk.scan(every, _SMALL_OFFSETS)


def _search(algorithm: str, cur, windows, blocks: list[BlockRef], w: int, probe: SearchProbe | None = None):
    """Yield each block's tss or ds result in order. A walking set of
    blocks (`_sizes`) walks in lockstep, one shared pattern step at a time
    for the blocks still walking (tss's origin and grids; ds's large
    diamonds until each block's minimum stays central, then one small
    diamond for every block), one gather per chunk of them, so a block
    whose large walk has ended costs a step nothing. Then each block
    replays its walk from the {cell: SAD} dict it costed."""
    # looked up per call, so a replaced module attribute sees every block
    search = _tss_search if algorithm == "tss" else _ds_search
    lockstep = _tss_lockstep if algorithm == "tss" else _ds_lockstep
    chunk, size = _sizes(windows.shape[2])
    for start in range(0, len(blocks), size):
        walk = _Lockstep(cur, windows, batch := blocks[start : start + size], w, chunk)
        lockstep(walk, w)
        for block, seen in zip(batch, walk.seen()):
            yield search(windows, block, w, seen, probe)
