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
    """(current, previous, n, w) pairs for the frame-level searches. Sized
    by `baselines._sizes`, whatever the byte budget: `n8_batches` spans
    more than one walking set at n = 8, `n16_batches` more than one gather
    chunk of one walking set at n = 16, and `n16_walking_sets` more than
    one walking set at n = 16. Also: a window wider than the frame, and
    ranges at and past int32's maximum on that frame; constant frames
    where every cost ties, sizes that leave remainder pixels, and walks
    that end far apart.
    `walks_end_apart`'s constant top half stops after one large diamond
    while its textured bottom half walks towards (-11, 9); in each chunk of
    `n16_walking_sets`, constant left blocks stop as soon while textured
    right blocks walk towards (11, -9)."""
    rng = np.random.default_rng(28)
    walking_8 = baselines._sizes(8)[1]
    chunk_16, walking_16 = baselines._sizes(16)
    textured_8 = rolled_pair(rng, 8 * (walking_8 // 17 + 1), 8 * 17, 3, -2)
    textured_16 = rolled_pair(rng, 16 * (chunk_16 // 17 + 1), 16 * 17, 3, -2)
    noise = rng.integers(0, 256, (2, 24, 24), dtype=np.uint8)
    flat = np.full((40, 56), 77, np.uint8)
    half_flat = rolled_pair(rng, 72, 96, -11, 9)
    for frame in half_flat:
        frame[:32] = 128
    rows = walking_16 // 14 + 1
    left_flat = rolled_pair(rng, 16 * rows, 16 * 14, 11, -9)
    for frame in left_flat:
        frame[:, : 16 * 7] = 128
    return {
        "n8_batches": (*textured_8, 8, 7),
        "n16_batches": (*textured_16, 16, 7),
        "w40_on_24x24": (*noise, 8, 40),
        "w2147483647_on_24x24": (*noise, 8, 2**31 - 1),
        "w5000000000_on_24x24": (*noise, 8, 5_000_000_000),
        "constant": (flat, flat, 8, 7),
        "constant_w1": (flat, flat.copy(), 5, 1),
        "odd_sizes": (*rng.integers(0, 256, (2, 45, 67), dtype=np.uint8), 6, 11),
        "walks_end_apart": (*half_flat[::-1], 8, 16),
        "n16_walking_sets": (*left_flat[::-1], 16, 16),
    }


FRAME_CASES = frame_cases()


@st.composite
def frame_pairs(draw):
    """A random small frame pair with its block size and search range."""
    n = draw(st.integers(1, 11))
    height = n * draw(st.integers(1, 3)) + draw(st.integers(0, n - 1))
    width = n * draw(st.integers(1, 3)) + draw(st.integers(0, n - 1))
    current = draw(arrays(np.uint8, (height, width)))
    previous = draw(arrays(np.uint8, (height, width)))
    return current, previous, n, draw(st.integers(1, 11))


def lockstep_peak(monkeypatch, algorithm, current, previous, n):
    """tracemalloc's peak over walking the frame's blocks in lockstep at
    w = 16, with each block's replay stubbed out. It is printed, so
    `pytest -k memory -rP` lists every case's peak."""
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
    print(f"lockstep peak: {algorithm} n={n} {peak} B")
    return peak


class TestBatchedFirstStep:
    @BASELINES
    @pytest.mark.parametrize("case", list(FRAME_CASES))
    def test_frame_matches_one_cell_oracle(self, algorithm, case):
        current, previous, n, w = FRAME_CASES[case]
        _, results = estimate_frame(current, previous, SearchConfig(w=w, n=n), algorithm)
        for block, result in zip(partition(current, n), results, strict=True):
            assert result == scalar_search(algorithm, current, previous, block, w)[0]

    def test_cases_cross_the_boundaries_they_name(self):
        def blocks(case):
            current, _, n, _ = FRAME_CASES[case]
            return len(partition(current, n))

        chunk_8, walking_8 = baselines._sizes(8)
        chunk_16, walking_16 = baselines._sizes(16)
        assert walking_8 < blocks("n8_batches")
        assert chunk_16 < blocks("n16_batches") <= walking_16 < blocks("n16_walking_sets")
        # in every chunk of n16_walking_sets' first walking set, one walk
        # ends after a large and a small diamond, 13 cells at most, and
        # another runs on
        current, previous, n, w = FRAME_CASES["n16_walking_sets"]
        _, results = estimate_frame(current, previous, SearchConfig(w=w, n=n), "ds")
        for start in range(0, walking_16, chunk_16):
            evaluations = [r.evaluations for r in results[start : start + chunk_16]]
            assert min(evaluations) <= 13
            assert max(evaluations) >= 30

    @BASELINES
    @settings(max_examples=40, deadline=None)
    @given(frame_pairs())
    def test_random_frame_matches_one_cell_oracle(self, algorithm, case):
        current, previous, n, w = case
        _, results = estimate_frame(current, previous, SearchConfig(w=w, n=n), algorithm)
        for block, result in zip(partition(current, n), results, strict=True):
            assert result == scalar_search(algorithm, current, previous, block, w)[0]

    @BASELINES
    @settings(max_examples=40, deadline=None)
    @given(frame_pairs(), st.integers(2, 4))
    def test_results_do_not_depend_on_batching(self, algorithm, case, walking):
        # A gather chunk of one block and a walking set of a few, so a
        # small random frame crosses both boundaries, mid-row included.
        current, previous, n, w = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines, "_BATCH_BYTES", 9 * n * n * 2)
            patch.setattr(baselines, "_WALKER_BYTES", 9 * n * n * 2 // walking)
            assert baselines._sizes(n) == (1, walking)
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
    def test_steps_keep_the_coordinate_dtype(self, monkeypatch, algorithm):
        # Every step adds its offsets to the walk's coordinates and packs
        # the cells into keys, so offsets in the coordinate dtype keep every
        # cell and key from widening to int64, and the keys it logs are
        # already in the log's dtype.
        dtypes, logged = [], []
        scan, log = baselines._Lockstep._scan, baselines._Lockstep._log

        def recording(walk, active, offsets):
            dtypes.append((offsets.dtype, walk.at.dtype))
            return scan(walk, active, offsets)

        def recording_log(walk, active, fresh, blocks, keys, sads):
            logged.append((keys.dtype, walk.keys.dtype))
            return log(walk, active, fresh, blocks, keys, sads)

        monkeypatch.setattr(baselines._Lockstep, "_scan", recording)
        monkeypatch.setattr(baselines._Lockstep, "_log", recording_log)
        current, previous, n, w = FRAME_CASES["n8_batches"]
        estimate_frame(current, previous, SearchConfig(w=w, n=n), algorithm)
        assert dtypes and logged
        for offsets, coordinates in dtypes:
            assert offsets == coordinates
        for keys, log_keys in logged:
            assert keys == log_keys

    @pytest.mark.parametrize("case", ["walks_end_apart", "n16_walking_sets"])
    def test_ds_steps_are_the_longest_walk_in_each_walking_set(self, monkeypatch, case):
        # ds walks every block's large diamonds in lockstep, then takes one
        # small diamond for all of them, so a walking set's steps are its
        # longest walk's pattern steps, large diamonds and small one, and
        # no more: its replay's `_scan_min` calls.
        scans, per_block = [0], []
        scan, scan_min, ds_search = baselines._Lockstep.scan, baselines._scan_min, baselines._ds_search

        def counting_scan(walk, active, offsets):
            scans[0] += 1
            return scan(walk, active, offsets)

        def counting_scan_min(*args):
            per_block[-1] += 1
            return scan_min(*args)

        def counting_ds_search(*args):
            per_block.append(0)
            return ds_search(*args)

        monkeypatch.setattr(baselines._Lockstep, "scan", counting_scan)
        monkeypatch.setattr(baselines, "_scan_min", counting_scan_min)
        monkeypatch.setattr(baselines, "_ds_search", counting_ds_search)
        current, previous, n, w = FRAME_CASES[case]
        estimate_frame(current, previous, SearchConfig(w=w, n=n), "ds")
        size = baselines._sizes(n)[1]
        assert len(per_block) == len(partition(current, n))
        assert scans[0] == sum(max(per_block[start : start + size]) for start in range(0, len(per_block), size))

    def test_tss_frame_shares_each_chunk_scan_among_many_blocks(self, monkeypatch):
        # Most of a lockstep step's time is numpy's fixed cost per gather
        # chunk, so the step budget sets how many blocks share it. A
        # 640x360 frame's 880 blocks at n = 16 walk in two walking sets,
        # 678 and 202 blocks, of 113-block chunks: tss's five steps at
        # w = 16, its origin and four grids, take 8 chunk scans each.
        scans = [0]
        scan = baselines._Lockstep._scan

        def counting_scan(walk, active, offsets):
            scans[0] += 1
            return scan(walk, active, offsets)

        monkeypatch.setattr(baselines._Lockstep, "_scan", counting_scan)
        current, previous = np.random.default_rng(34).integers(0, 256, (2, 360, 640), dtype=np.uint8)
        estimate_frame(current, previous, SearchConfig(w=16, n=16), "tss")
        assert scans[0] == 40

    @BASELINES
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_first_step_batch_memory_is_bounded(self, monkeypatch, algorithm, n):
        # Walking a frame's blocks in lockstep, with each replay stubbed
        # out, holds one walking set's state and one gather chunk at a time,
        # so its peak stays near the byte budget whatever the block size;
        # walking sets or chunks of a fixed block count would not. Small
        # blocks walk a 64x96 frame, several walking sets at n = 1 and 2,
        # the rest a 640x360 one. On noise ds stops after about one large
        # diamond.
        rng = np.random.default_rng(n)
        height, width = (64, 96) if n <= 4 else (360, 640)
        current, previous = rng.integers(0, 256, (2, height, width), dtype=np.uint8)
        peak = lockstep_peak(monkeypatch, algorithm, current, previous, n)
        assert peak <= 2 * baselines._BATCH_BYTES

    @BASELINES
    def test_long_walk_memory_is_bounded(self, monkeypatch, algorithm):
        # A smooth texture translated by (11, -9), the nhd-w16 geometry: ds
        # walks about ten large diamonds, so every block's log grows across
        # the whole walking set.
        current, previous = rolled_pair(np.random.default_rng(31), 360, 640, 11, -9)[::-1]
        peak = lockstep_peak(monkeypatch, algorithm, current, previous, 16)
        assert peak <= 2 * baselines._BATCH_BYTES
