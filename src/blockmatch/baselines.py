"""Classical fixed-pattern fast searches: three-step and diamond.

Both share the SAD cost, skip candidates outside the valid displacement
region, cache every computed cost so a position is never evaluated twice,
and report the same per-block accounting as the other algorithms.
`motion.search_block` runs them by name, "tss" and "ds".
"""

from .estimator import EVALUATED
from .motion import (
    BlockRef,
    BlockResult,
    CellVisit,
    MotionVector,
    SearchProbe,
    _sad_wide,
    mv_bounds,
)

# Large diamond: center first so a tie never moves the center, which keeps
# every recentering a strict improvement and guarantees termination.
_LARGE_DIAMOND = ((0, 0), (0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))
_SMALL_DIAMOND = ((0, 0), (0, -1), (-1, 0), (1, 0), (0, 1))


class _CachedCost:
    """SAD with a per-search visited-position cache and validity guard."""

    def __init__(self, cur, prev, block, w, probe):
        self.cur = cur
        self.prev = prev
        self.block = block
        height, width = prev.shape
        self.bounds = mv_bounds(block, width, height, w)
        self.seen: dict[tuple[int, int], int] = {}
        self.probe = probe

    def valid(self, u: int, v: int) -> bool:
        umin, umax, vmin, vmax = self.bounds
        return umin <= u <= umax and vmin <= v <= vmax

    def __call__(self, u: int, v: int) -> int:
        try:
            return self.seen[(u, v)]
        except KeyError:
            pass
        value = _sad_wide(self.cur, self.prev, self.block, u, v)
        self.seen[(u, v)] = value
        if self.probe is not None:
            self.probe.visits.append(CellVisit(u, v, EVALUATED))
        return value

    def result(self, u: int, v: int) -> BlockResult:
        return BlockResult(MotionVector(u, v), self.seen[(u, v)], len(self.seen), 0)


def _scan_min(cost: _CachedCost, center, offsets, scale=1):
    """Evaluate the pattern around the center and return the first-scanned
    minimum in pattern-definition order."""
    best = None
    for du, dv in offsets:
        u, v = center[0] + du * scale, center[1] + dv * scale
        if not cost.valid(u, v):
            continue
        value = cost(u, v)
        if best is None or value < best[0]:
            best = (value, (u, v))
    return best[1]


def _tss_search(cur, prev, block: BlockRef, w: int, probe: SearchProbe | None = None) -> BlockResult:
    """Three-step search: 9-point grids at halving step sizes, each pass
    recentered on the running minimum. At w=7 the steps are 4, 2, 1 for at
    most 25 distinct candidates."""
    cost = _CachedCost(cur, prev, block, w, probe)
    offsets = tuple(
        (du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1)
    )
    center = (0, 0)
    cost(0, 0)
    step = (w + 1) // 2
    while step >= 1:
        center = _scan_min(cost, center, offsets, step)
        step //= 2
    return cost.result(*center)


def _ds_search(cur, prev, block: BlockRef, w: int, probe: SearchProbe | None = None) -> BlockResult:
    """Diamond search: the 9-point large diamond walks until its minimum
    stays central, then one 5-point small diamond refines the result."""
    cost = _CachedCost(cur, prev, block, w, probe)
    center = (0, 0)
    cost(0, 0)
    while True:
        minimum = _scan_min(cost, center, _LARGE_DIAMOND)
        if minimum == center:
            break
        center = minimum
    return cost.result(*_scan_min(cost, center, _SMALL_DIAMOND))
