"""Unit tests for the three-step and diamond searches."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter

from blockmatch import baselines
from blockmatch.estimator import EVALUATED
from blockmatch.motion import (
    BlockRef,
    BlockResult,
    CellVisit,
    MotionVector,
    SearchConfig,
    SearchProbe,
    _widen,
    estimate_frame,
    full_search,
    mv_bounds,
    partition,
    sad,
    search_block,
)

CONFIG = SearchConfig()
BASELINES = pytest.mark.parametrize(
    "algorithm", ["tss", "ds"], ids=["tss_search", "ds_search"]
)


def rolled_pair(rng, height, width, du, dv):
    base = rng.standard_normal((height, width))
    base = gaussian_filter(base, 2.0, mode="wrap")
    base -= base.min()
    base = np.round(base / base.max() * 255).astype(np.uint8)
    return base, np.roll(base, shift=(-dv, -du), axis=(0, 1))


def interior_blocks(frame, n=16, w=7):
    height, width = frame.shape
    return [
        b
        for b in partition(frame, n)
        if mv_bounds(b, width, height, w) == (-w, w, -w, w)
    ]


class TestThreeStep:
    def test_budget_at_most_25(self):
        rng = np.random.default_rng(0)
        current = rng.integers(0, 256, (96, 96), dtype=np.uint8)
        previous = rng.integers(0, 256, (96, 96), dtype=np.uint8)
        for block in partition(current, 16):
            result = search_block("tss", current, previous, block, CONFIG)
            assert result.evaluations <= 25
            assert result.estimations == 0

    def test_zero_motion(self):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        result = search_block("tss", frame, frame, BlockRef(16, 16, 16), CONFIG)
        assert result.mv == (0, 0)
        assert result.sad == 0

    def test_recovers_translation_via_step_sequence(self):
        # (4,4) is reachable exactly through the 4 -> 2 -> 1 step ladder
        rng = np.random.default_rng(3)
        previous, current = rolled_pair(rng, 144, 176, 4, 4)
        for block in interior_blocks(current):
            result = search_block("tss", current, previous, block, CONFIG)
            assert result.mv == (4, 4)
            assert result.sad == 0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        current = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        previous = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        block = BlockRef(16, 16, 16)
        assert search_block(
            "tss", current, previous, block, CONFIG
        ) == search_block("tss", current, previous, block, CONFIG)

    def test_small_window(self):
        rng = np.random.default_rng(5)
        frame = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        block = BlockRef(16, 16, 16)
        result = search_block("tss", frame, frame, block, SearchConfig(w=1))
        assert result.mv == (0, 0)


class TestDiamond:
    def test_zero_motion_costs_one_large_plus_small_diamond(self):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        result = search_block("ds", frame, frame, BlockRef(16, 16, 16), CONFIG)
        assert result.mv == (0, 0)
        assert result.sad == 0
        assert result.evaluations == 9 + 4

    def test_recovers_translation(self):
        rng = np.random.default_rng(2)
        previous, current = rolled_pair(rng, 144, 176, 3, 0)
        for block in interior_blocks(current):
            result = search_block("ds", current, previous, block, CONFIG)
            assert result.mv == (3, 0)
            assert result.sad == 0

    def test_medium_motion_cost_scale(self):
        # order-of-magnitude check: the walk stays far below exhaustive
        # search and near the reported low-teens scale
        rng = np.random.default_rng(4)
        previous, current = rolled_pair(rng, 144, 176, 2, 1)
        evaluations = [
            search_block("ds", current, previous, block, CONFIG).evaluations
            for block in partition(current, 16)
        ]
        assert 9 <= np.mean(evaluations) <= 25

    def test_terminates_on_adversarial_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            current = rng.integers(0, 256, (48, 48), dtype=np.uint8)
            previous = rng.integers(0, 256, (48, 48), dtype=np.uint8)
            for block in partition(current, 16):
                probe = SearchProbe()
                result = search_block("ds", current, previous, block, CONFIG, probe)
                assert len({(v.u, v.v) for v in probe.visits}) == result.evaluations


class TestSharedContracts:
    @BASELINES
    def test_never_visits_invalid_candidates(self, algorithm):
        rng = np.random.default_rng(6)
        current = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        previous = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        height, width = previous.shape
        for block in partition(current, 16):
            probe = SearchProbe()
            search_block(algorithm, current, previous, block, CONFIG, probe)
            umin, umax, vmin, vmax = mv_bounds(block, width, height, 7)
            for visit in probe.visits:
                assert umin <= visit.u <= umax
                assert vmin <= visit.v <= vmax

    @BASELINES
    def test_distinct_positions_counted_once(self, algorithm):
        rng = np.random.default_rng(7)
        current = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        previous = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        for block in partition(current, 16):
            probe = SearchProbe()
            result = search_block(algorithm, current, previous, block, CONFIG, probe)
            cells = {(v.u, v.v) for v in probe.visits}
            assert len(cells) == len(probe.visits) == result.evaluations

    @BASELINES
    def test_never_beats_exhaustive_search(self, algorithm):
        rng = np.random.default_rng(8)
        for _ in range(5):
            current = rng.integers(0, 256, (64, 64), dtype=np.uint8)
            previous = rng.integers(0, 256, (64, 64), dtype=np.uint8)
            for block in partition(current, 16):
                fast = search_block(algorithm, current, previous, block, CONFIG)
                exhaustive = full_search(current, previous, block, 7)
                assert fast.sad >= exhaustive.sad


_NINE_POINTS = tuple((du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1))
_LARGE = ((0, 0), (0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))
_SMALL = ((0, 0), (0, -1), (-1, 0), (1, 0), (0, 1))


def scalar_search(algorithm, current, previous, block, w):
    """tss or ds costed one cell at a time through the public `sad`:
    a seen-cell dict, the first-scanned minimum of each pattern step and
    the same center and step rules. Returns the result and the visits."""
    height, width = current.shape
    umin, umax, vmin, vmax = mv_bounds(block, width, height, w)
    seen = {}

    def cost(cell):
        if cell not in seen:
            seen[cell] = sad(current, previous, block, cell)
        return seen[cell]

    def scan(center, offsets, scale=1):
        best = None
        for du, dv in offsets:
            cell = (center[0] + du * scale, center[1] + dv * scale)
            if umin <= cell[0] <= umax and vmin <= cell[1] <= vmax:
                value = cost(cell)
                if best is None or value < best[0]:
                    best = (value, cell)
        return best[1]

    center = (0, 0)
    cost(center)
    if algorithm == "tss":
        step = (w + 1) // 2
        while step >= 1:
            center = scan(center, _NINE_POINTS, step)
            step //= 2
    else:
        while (moved := scan(center, _LARGE)) != center:
            center = moved
        center = scan(center, _SMALL)
    result = BlockResult(MotionVector(*center), seen[center], len(seen), 0)
    return result, [CellVisit(u, v, EVALUATED) for u, v in seen]


@st.composite
def block_cases(draw):
    """A random small frame pair, search range and block, edge blocks
    included."""
    n = draw(st.integers(1, 6))
    height = n * draw(st.integers(1, 3)) + draw(st.integers(0, n - 1))
    width = n * draw(st.integers(1, 3)) + draw(st.integers(0, n - 1))
    current = draw(arrays(np.uint8, (height, width)))
    previous = draw(arrays(np.uint8, (height, width)))
    block = draw(st.sampled_from(partition(current, n)))
    return current, previous, block, draw(st.integers(1, 5))


class TestScalarReference:
    @BASELINES
    @settings(max_examples=80, deadline=None)
    @given(block_cases())
    def test_matches_one_cell_at_a_time_scan(self, algorithm, case):
        current, previous, block, w = case
        expected, visits = scalar_search(algorithm, current, previous, block, w)
        probe = SearchProbe()
        config = SearchConfig(w=w, n=block.n)
        assert search_block(algorithm, current, previous, block, config, probe) == expected
        assert probe.visits == visits


def frame_cases():
    """(current, previous, n, w) pairs for the frame-level searches: more
    blocks than one batch at n = 8 (113) and n = 16 (28), a window wider
    than the frame, constant frames where every cost ties, sizes that leave
    remainder pixels, and one batch whose walks end far apart: its
    constant top half stops after one large diamond while its textured
    bottom half walks towards (-11, 9)."""
    rng = np.random.default_rng(28)
    textured = rolled_pair(rng, 104, 136, 3, -2)
    noise = rng.integers(0, 256, (2, 24, 24), dtype=np.uint8)
    flat = np.full((40, 56), 77, np.uint8)
    half_flat = rolled_pair(rng, 72, 96, -11, 9)
    for frame in half_flat:
        frame[:32] = 128
    return {
        "n8_batches": (*textured, 8, 7),
        "n16_batches": (*textured, 16, 7),
        "w40_on_24x24": (*noise, 8, 40),
        "constant": (flat, flat, 8, 7),
        "constant_w1": (flat, flat.copy(), 5, 1),
        "odd_sizes": (*rng.integers(0, 256, (2, 45, 67), dtype=np.uint8), 6, 11),
        "walks_end_apart": (*half_flat[::-1], 8, 16),
    }


FRAME_CASES = frame_cases()


class TestBatchedFirstStep:
    @BASELINES
    @pytest.mark.parametrize("case", list(FRAME_CASES))
    def test_frame_matches_one_cell_oracle(self, algorithm, case):
        current, previous, n, w = FRAME_CASES[case]
        _, results = estimate_frame(current, previous, SearchConfig(w=w, n=n), algorithm)
        for block, result in zip(partition(current, n), results, strict=True):
            assert result == scalar_search(algorithm, current, previous, block, w)[0]

    @BASELINES
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_frame_matches_one_cell_oracle(self, algorithm, data):
        n = data.draw(st.integers(1, 11))
        height = n * data.draw(st.integers(1, 3)) + data.draw(st.integers(0, n - 1))
        width = n * data.draw(st.integers(1, 3)) + data.draw(st.integers(0, n - 1))
        current = data.draw(arrays(np.uint8, (height, width)))
        previous = data.draw(arrays(np.uint8, (height, width)))
        w = data.draw(st.integers(1, 11))
        _, results = estimate_frame(current, previous, SearchConfig(w=w, n=n), algorithm)
        for block, result in zip(partition(current, n), results, strict=True):
            assert result == scalar_search(algorithm, current, previous, block, w)[0]

    @BASELINES
    @pytest.mark.parametrize("case", ["n8_batches", "w40_on_24x24", "constant"])
    def test_first_step_calls_gather_no_cell(self, monkeypatch, algorithm, case):
        # The lockstep costs every cell a walk visits, outside any
        # `_CachedCost` call, through the module's `_abs_sum`, and no other:
        # a cell it missed would fail its walk's lookup, and one it summed
        # twice or never visited would be a SAD no result counts.
        current, previous, n, w = FRAME_CASES[case]
        summed, in_calls = [0], [0]
        abs_sum, call = baselines._abs_sum, baselines._CachedCost.__call__

        def counting_abs_sum(diff, axis, n):
            summed[0] += diff.size // (n * n)
            return abs_sum(diff, axis, n)

        def counting_call(cost, cells):
            before = summed[0]
            values = call(cost, cells)
            in_calls[0] += summed[0] - before
            return values

        monkeypatch.setattr(baselines, "_abs_sum", counting_abs_sum)
        monkeypatch.setattr(baselines._CachedCost, "__call__", counting_call)
        _, results = estimate_frame(current, previous, SearchConfig(w=w, n=n), algorithm)
        assert in_calls[0] == 0
        assert summed[0] == sum(r.evaluations for r in results)

    @BASELINES
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_first_step_batch_memory_is_bounded(self, monkeypatch, algorithm, n):
        # Walking a 640x360 frame's blocks in lockstep, with each replay
        # stubbed out, holds one batch at a time, so its peak stays near the
        # byte budget whatever the block size and however long ds's walks
        # run; batches of a fixed block count would not.
        rng = np.random.default_rng(n)
        current, previous = rng.integers(0, 256, (2, 360, 640), dtype=np.uint8)
        cur, windows = _widen(current, previous, n)
        blocks = partition(current, n)
        monkeypatch.setattr(baselines, f"_{algorithm}_search", lambda *args: None)
        tracemalloc.start()
        try:
            for _ in baselines._search(algorithm, cur, windows, blocks, 16):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * baselines._BATCH_BYTES
