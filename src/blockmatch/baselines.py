"""Classical fixed-pattern fast searches: three-step and diamond.

Both share the SAD cost, skip candidates outside the valid displacement
region, cost a pattern step's unseen cells in one gather from the shared
window view, cache every computed cost so a position is never evaluated
twice, and report the same per-block accounting as the other algorithms.
`motion.search_block` runs them by name, "tss" and "ds". A SAD here
is exactly the one `motion.sad` computes, summed by `motion._abs_sum`.
"""

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


class _CachedCost:
    """SAD with a per-search visited-position cache and validity guard.
    A call takes one pattern step's distinct valid cells, costs the unseen
    ones in one gather of their patches from the window view, visiting them
    in order, and returns the step's SADs in order, summed by `_abs_sum`."""

    def __init__(self, cur, windows, block, w, probe):
        self.cur = cur
        self.windows = windows
        self.block = block
        self.bounds = _bounds(windows, block, w)
        self.seen: dict[tuple[int, int], int] = {}
        self.probe = probe

    def valid(self, u: int, v: int) -> bool:
        umin, umax, vmin, vmax = self.bounds
        return umin <= u <= umax and vmin <= v <= vmax

    def __call__(self, cells: list[tuple[int, int]]) -> list[int]:
        fresh = [cell for cell in cells if cell not in self.seen]
        if fresh:
            x, y, n = self.block
            diff = self.windows[[y + v for _, v in fresh], [x + u for u, _ in fresh]]
            diff -= self.cur[y : y + n, x : x + n]
            self.seen.update(zip(fresh, _abs_sum(diff, (1, 2), n).tolist()))
            if self.probe is not None:
                self.probe.visits.extend(CellVisit(u, v, EVALUATED) for u, v in fresh)
        return [self.seen[cell] for cell in cells]

    def result(self, u: int, v: int) -> BlockResult:
        return BlockResult(MotionVector(u, v), self.seen[(u, v)], len(self.seen), 0)


def _scan_min(cost: _CachedCost, center, offsets, scale=1):
    """Evaluate the pattern around the center and return the first-scanned
    minimum in pattern-definition order."""
    cells = [(center[0] + du * scale, center[1] + dv * scale) for du, dv in offsets]
    cells = [cell for cell in cells if cost.valid(*cell)]
    values = cost(cells)
    return cells[values.index(min(values))]


def _tss_search(cur, windows, block: BlockRef, w: int, probe: SearchProbe | None = None) -> BlockResult:
    """Three-step search: 9-point grids at halving step sizes, each pass
    recentered on the running minimum. At w=7 the steps are 4, 2, 1 for at
    most 25 distinct candidates."""
    cost = _CachedCost(cur, windows, block, w, probe)
    offsets = tuple(
        (du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1)
    )
    center = (0, 0)
    # The origin goes first on its own: the first grid lists it fifth, so
    # leaving it to that grid would reorder the visits a trace records.
    cost([center])
    step = (w + 1) // 2
    while step >= 1:
        center = _scan_min(cost, center, offsets, step)
        step //= 2
    return cost.result(*center)


def _ds_search(cur, windows, block: BlockRef, w: int, probe: SearchProbe | None = None) -> BlockResult:
    """Diamond search: the 9-point large diamond walks until its minimum
    stays central, then one 5-point small diamond refines the result."""
    cost = _CachedCost(cur, windows, block, w, probe)
    center = (0, 0)
    while True:
        minimum = _scan_min(cost, center, _LARGE_DIAMOND)
        if minimum == center:
            break
        center = minimum
    return cost.result(*_scan_min(cost, center, _SMALL_DIAMOND))
