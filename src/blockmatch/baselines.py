"""Classical fixed-pattern fast searches: three-step and diamond.

Both share the SAD cost, skip candidates outside the valid displacement
region, cost a pattern step's unseen cells in one gather from the shared
window view, cache every computed cost so a position is never evaluated
twice, and report the same per-block accounting as the other algorithms.
`_search` runs them over a list of blocks, one for `motion.search_block`.
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
)

# Large diamond: center first so a tie never moves the center, which keeps
# every recentering a strict improvement and guarantees termination.
_LARGE_DIAMOND = ((0, 0), (0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))
_SMALL_DIAMOND = ((0, 0), (0, -1), (-1, 0), (1, 0), (0, 1))
# Three-step search's 9-point grid in v-major order, scaled by each step.
_GRID = tuple((du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1))
# Bytes of one batch's (B, 9, n, n) int16 first-step gather: B is 113 at n = 8, 28 at n = 16.
_BATCH_BYTES = 128 * 1024


class _CachedCost:
    """SAD with a per-search visited-position cache, `seen`, which starts as
    the block's first-step costs. A call takes one pattern step's distinct
    cells inside `bounds`, the valid box, costs the unseen ones in one gather
    of their patches from the window view, adding them to `seen` in visit
    order, and returns the step's SADs in order, summed by `_abs_sum`."""

    def __init__(self, cur, windows, block, w, seen: dict[tuple[int, int], int]):
        x, y, n = self.block = block
        self.target = cur[y : y + n, x : x + n]
        self.windows = windows
        self.bounds = _bounds(windows, block, w)
        self.seen = seen

    def __call__(self, cells: list[tuple[int, int]]) -> list[int]:
        fresh = [cell for cell in cells if cell not in self.seen]
        if fresh:
            x, y, n = self.block
            # index arrays gather faster than lists, which numpy converts
            diff = self.windows[np.array([y + v for _, v in fresh]), np.array([x + u for u, _ in fresh])]
            diff -= self.target
            self.seen.update(zip(fresh, _abs_sum(diff, (1, 2), n).tolist()))
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


def _tss_search(cur, windows, block: BlockRef, w: int, first, probe: SearchProbe | None) -> BlockResult:
    """Three-step search: 9-point grids at halving step sizes, each pass
    recentered on the running minimum. At w=7 the steps are 4, 2, 1 for at
    most 25 distinct candidates."""
    cost = _CachedCost(cur, windows, block, w, first)
    center = (0, 0)
    # The origin is requested on its own: it is the first pattern step.
    cost([center])
    step = (w + 1) // 2
    while step >= 1:
        center = _scan_min(cost, center, _GRID, step)
        step //= 2
    return cost.result(*center, probe)


def _ds_search(cur, windows, block: BlockRef, w: int, first, probe: SearchProbe | None) -> BlockResult:
    """Diamond search: the 9-point large diamond walks until its minimum
    stays central, then one 5-point small diamond refines the result."""
    cost = _CachedCost(cur, windows, block, w, first)
    center = (0, 0)
    while True:
        minimum = _scan_min(cost, center, _LARGE_DIAMOND)
        if minimum == center:
            break
        center = minimum
    return cost.result(*_scan_min(cost, center, _SMALL_DIAMOND), probe)


def _search(algorithm: str, cur, windows, blocks: list[BlockRef], w: int, probe: SearchProbe | None = None):
    """Yield each block's tss or ds result in order. Their first step's cells
    (tss's origin and first grid, ds's first large diamond) depend only on
    the box, so one (B, 9, n, n) gather costs them for a batch of blocks; a
    cell outside a block's box reads its (0, 0) patch and is dropped. Each
    block walks from its {cell: SAD} dict before the next batch is costed."""
    # looked up per call, so a replaced module attribute sees every block
    search = _tss_search if algorithm == "tss" else _ds_search
    if algorithm == "tss":
        step = (w + 1) // 2
        cells = [(0, 0)] + [(du * step, dv * step) for du, dv in _GRID if du or dv]
    else:
        cells = [(du, dv) for du, dv in _LARGE_DIAMOND if abs(du) <= w and abs(dv) <= w]
    us, vs = np.array(cells).T
    rows, cols, n, _ = windows.shape
    targets = sliding_window_view(cur, (n, n))
    size = max(1, _BATCH_BYTES // (len(cells) * n * n * 2))
    for start in range(0, len(blocks), size):
        x, y, _ = np.array(batch := blocks[start : start + size]).T[:, :, None]
        inside = (-x <= us) & (us < cols - x) & (-y <= vs) & (vs < rows - y)
        diff = windows[y + np.where(inside, vs, 0), x + np.where(inside, us, 0)]
        diff -= targets[y, x]
        sads = _abs_sum(diff, (2, 3), n)
        del diff  # so the next batch's gather never meets this one's
        # one row at a time: a batch's Python ints at once cost peak memory
        for block, row, keep in zip(batch, sads, inside):
            first = {cell: value for cell, value, ok in zip(cells, row.tolist(), keep.tolist()) if ok}
            yield search(cur, windows, block, w, first, probe)
