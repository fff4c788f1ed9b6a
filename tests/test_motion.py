"""Unit tests for frame geometry, SAD, the exhaustive search and the
differential-evolution search."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blockmatch import de, estimator, motion
from blockmatch.estimator import ESTIMATED, EVALUATED
from blockmatch.motion import (
    ALGORITHMS,
    BlockRef,
    MotionVector,
    SearchConfig,
    SearchProbe,
    _clamped_cell,
    _debm_search,
    _sad_accumulator,
    _widen,
    compensate,
    estimate_frame,
    full_search,
    grid_shape,
    initial_pattern,
    mv_bounds,
    partition,
    sad,
    search_block,
)


def naive_sad(current, previous, block, mv):
    """Independent double-loop oracle for the matching cost; the frames
    are arrays or nested lists of rows."""
    x, y, n = block
    u, v = mv
    total = 0
    for j in range(n):
        for i in range(n):
            total += abs(
                int(current[y + j][x + i]) - int(previous[y + v + j][x + u + i])
            )
    return total


def naive_full_search(current, previous, block, w):
    """Independent exhaustive oracle: first minimum in v-major scan order."""
    height, width = previous.shape
    # Python lists index an order of magnitude faster than arrays.
    current, previous = current.tolist(), previous.tolist()
    best = None
    count = 0
    for v in range(-w, w + 1):
        for u in range(-w, w + 1):
            if not (0 <= block.x + u <= width - block.n):
                continue
            if not (0 <= block.y + v <= height - block.n):
                continue
            count += 1
            cost = naive_sad(current, previous, block, (u, v))
            if best is None or cost < best[0]:
                best = (cost, (u, v))
    return best[1], best[0], count


def random_frame(rng, height, width):
    return rng.integers(0, 256, (height, width), dtype=np.uint8)


class TestPartition:
    def test_cif_block_count(self):
        frame = np.zeros((288, 352), dtype=np.uint8)
        assert len(partition(frame, 16)) == 22 * 18

    def test_qcif_block_count(self):
        frame = np.zeros((144, 176), dtype=np.uint8)
        assert len(partition(frame, 16)) == 11 * 9

    def test_single_block(self):
        frame = np.zeros((16, 16), dtype=np.uint8)
        assert partition(frame, 16) == [BlockRef(0, 0, 16)]

    def test_row_major_order_and_remainder_exclusion(self):
        frame = np.zeros((40, 50), dtype=np.uint8)
        blocks = partition(frame, 16)
        assert blocks == [
            BlockRef(0, 0, 16),
            BlockRef(16, 0, 16),
            BlockRef(32, 0, 16),
            BlockRef(0, 16, 16),
            BlockRef(16, 16, 16),
            BlockRef(32, 16, 16),
        ]
        assert grid_shape(frame.shape, 16) == (2, 3)

    def test_frame_smaller_than_block(self):
        with pytest.raises(ValueError):
            partition(np.zeros((8, 32), dtype=np.uint8), 16)


class TestSad:
    def test_identical_frames_zero(self):
        rng = np.random.default_rng(0)
        frame = random_frame(rng, 32, 32)
        assert sad(frame, frame, BlockRef(8, 8, 16), (0, 0)) == 0

    def test_hand_computed_two_by_two(self):
        current = np.array([[10, 10], [10, 10]], dtype=np.uint8)
        previous = np.array([[8, 12], [10, 6]], dtype=np.uint8)
        assert sad(current, previous, BlockRef(0, 0, 2), (0, 0)) == 8

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        current = random_frame(rng, 48, 48)
        previous = random_frame(rng, 48, 48)
        for _ in range(100):
            x = int(rng.integers(0, 48 - 16 + 1))
            y = int(rng.integers(0, 48 - 16 + 1))
            block = BlockRef(x, y, 16)
            u = int(rng.integers(-min(7, x), min(7, 48 - 16 - x) + 1))
            v = int(rng.integers(-min(7, y), min(7, 48 - 16 - y) + 1))
            assert sad(current, previous, block, (u, v)) == naive_sad(
                current, previous, block, (u, v)
            )

    def test_out_of_frame_candidate_rejected(self):
        frame = np.zeros((32, 32), dtype=np.uint8)
        with pytest.raises(ValueError):
            sad(frame, frame, BlockRef(0, 0, 16), (-1, 0))
        with pytest.raises(ValueError):
            sad(frame, frame, BlockRef(16, 16, 16), (1, 0))

    def test_symmetry_under_frame_swap(self):
        # sad(A, B, block, mv) equals sad(B, A, shifted block, -mv) where
        # both candidates are valid
        rng = np.random.default_rng(5)
        a = random_frame(rng, 48, 48)
        b = random_frame(rng, 48, 48)
        block = BlockRef(16, 16, 16)
        for u, v in [(3, -2), (-5, 7), (0, 0), (7, 7)]:
            shifted = BlockRef(block.x + u, block.y + v, block.n)
            assert sad(a, b, block, (u, v)) == sad(b, a, shifted, (-u, -v))


class TestFullSearch:
    def test_interior_budget_is_full_window(self):
        rng = np.random.default_rng(1)
        current = random_frame(rng, 64, 64)
        previous = random_frame(rng, 64, 64)
        result = full_search(current, previous, BlockRef(16, 16, 16), 7)
        assert result.evaluations == 225
        assert result.estimations == 0

    def test_corner_block_budget(self):
        rng = np.random.default_rng(2)
        current = random_frame(rng, 64, 64)
        previous = random_frame(rng, 64, 64)
        result = full_search(current, previous, BlockRef(0, 0, 16), 7)
        # only non-negative displacements stay inside the frame
        assert result.evaluations == 8 * 8

    def test_recovers_exact_translation(self):
        rng = np.random.default_rng(3)
        previous = random_frame(rng, 64, 64)
        current = np.roll(previous, shift=(0, -3), axis=(0, 1))
        result = full_search(current, previous, BlockRef(16, 16, 16), 7)
        assert result.mv == MotionVector(3, 0)
        assert result.sad == 0

    def test_matches_naive_oracle_everywhere(self):
        rng = np.random.default_rng(4)
        for trial in range(4):
            current = random_frame(rng, 48, 48)
            previous = random_frame(rng, 48, 48)
            for block in partition(current, 16):
                result = full_search(current, previous, block, 7)
                mv, cost, count = naive_full_search(current, previous, block, 7)
                assert result.mv == MotionVector(*mv)
                assert result.sad == cost
                assert result.evaluations == count

    def test_tie_break_prefers_smallest_v_then_u(self):
        # constant frames make every candidate cost 0
        flat = np.full((64, 64), 77, dtype=np.uint8)
        result = full_search(flat, flat, BlockRef(16, 16, 16), 7)
        assert result.mv == MotionVector(-7, -7)

    def test_probe_covers_every_valid_cell(self):
        rng = np.random.default_rng(6)
        current = random_frame(rng, 64, 64)
        previous = random_frame(rng, 64, 64)
        probe = SearchProbe()
        result = full_search(current, previous, BlockRef(16, 16, 16), 7, probe)
        assert len(probe.visits) == 225
        assert all(visit.kind == EVALUATED for visit in probe.visits)
        assert len({(v.u, v.v) for v in probe.visits}) == 225


@st.composite
def fsa_frames(draw):
    """A small frame pair with block size 1-12 and window 1 to 2n+3, so
    the window can be wider than the frame and n can exceed the rows of
    candidates. About half the grids have no remainder, so a candidate
    region can end on the frame's last row and column. The pixels are
    random, drawn from {0, 255}, an all-255 frame against an all-0 one
    (the largest SAD an n x n block can have), or two constant frames,
    where every candidate ties."""
    n = draw(st.integers(1, 12))
    remainder = st.just(0) | st.integers(0, n - 1)
    height = n * draw(st.integers(1, 3)) + draw(remainder)
    width = n * draw(st.integers(1, 3)) + draw(remainder)
    kind = draw(st.sampled_from(["random", "binary", "saturated", "constant"]))
    if kind == "saturated":
        current = np.full((height, width), 255, dtype=np.uint8)
        previous = np.zeros((height, width), dtype=np.uint8)
    elif kind == "constant":
        current = np.full((height, width), draw(st.integers(0, 255)), dtype=np.uint8)
        previous = np.full((height, width), draw(st.integers(0, 255)), dtype=np.uint8)
    else:
        pixels = st.integers(0, 255) if kind == "random" else st.sampled_from([0, 255])
        current = draw(arrays(np.uint8, (height, width), elements=pixels))
        previous = draw(arrays(np.uint8, (height, width), elements=pixels))
    return current, previous, SearchConfig(w=draw(st.integers(1, 2 * n + 3)), n=n)


class TestFullSearchKernel:
    @settings(max_examples=60, deadline=None)
    @given(fsa_frames())
    def test_frame_matches_naive_scan(self, case):
        current, previous, config = case
        mv_field, results = estimate_frame(current, previous, config, "fsa")
        for block, result in zip(partition(current, config.n), results):
            mv, cost, count = naive_full_search(current, previous, block, config.w)
            assert result.mv == MotionVector(*mv)
            assert result.sad == cost
            assert result.evaluations == count
            row, col = block.y // config.n, block.x // config.n
            assert tuple(mv_field[row, col]) == mv

    def test_accumulator_holds_largest_block_sad(self):
        # 16^2 * 255 = 65,280 is the last block SAD that fits uint16 and
        # 2901^2 * 255 the last that fits int32.
        assert _sad_accumulator(1) is np.uint16
        assert _sad_accumulator(16) is np.uint16
        assert _sad_accumulator(17) is np.int32
        assert _sad_accumulator(2901) is np.int32
        assert _sad_accumulator(2902) is np.int64

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_saturated_16x16_blocks_reach_the_uint16_ceiling(self, algorithm):
        # At n = 16 every candidate of every block costs 65,280, the
        # largest SAD a uint16 accumulator is asked to hold; n = 17, at
        # 73,695, takes the int32 path.
        for n in (16, 17):
            current = np.full((3 * n, 3 * n), 255, dtype=np.uint8)
            previous = np.zeros((3 * n, 3 * n), dtype=np.uint8)
            _, results = estimate_frame(current, previous, SearchConfig(w=7, n=n), algorithm)
            assert [result.sad for result in results] == [n * n * 255] * 9

    @pytest.mark.parametrize("n", [16, 17])
    def test_binary_frames_match_naive_scan_either_side_of_uint16(self, n):
        # n = 16 sums in uint16 and n = 17 in int32; {0, 255} pixels put
        # SADs near either accumulator's limit.
        rng = np.random.default_rng(n)
        pixels = np.array([0, 255], dtype=np.uint8)
        current = rng.choice(pixels, (2 * n + 3, 3 * n + 5))
        previous = rng.choice(pixels, (2 * n + 3, 3 * n + 5))
        config = SearchConfig(w=5, n=n)
        mv_field, results = estimate_frame(current, previous, config, "fsa")
        for block, result in zip(partition(current, n), results):
            mv, cost, count = naive_full_search(current, previous, block, config.w)
            assert (result.mv, result.sad, result.evaluations) == (mv, cost, count)
            assert tuple(mv_field[block.y // n, block.x // n]) == mv


class TestDebmFrame:
    def test_estimate_frame_searches_each_block_once_in_order(self, monkeypatch):
        # The benchmark's per-block debm hook replaces `_debm_search` on
        # the module; a frame run must pass every block through it.
        rng = np.random.default_rng(25)
        current = random_frame(rng, 40, 56)
        previous = random_frame(rng, 40, 56)
        config = SearchConfig(w=4, n=8, rng_seed=9)
        blocks = partition(current, config.n)
        calls = []
        search = motion._debm_search

        def counting(cur, windows, block, w, rng_seed, probe=None):
            calls.append((block, rng_seed))
            return search(cur, windows, block, w, rng_seed, probe)

        monkeypatch.setattr(motion, "_debm_search", counting)
        _, results = estimate_frame(current, previous, config, "debm")
        assert calls == [(block, 9 ^ index) for index, block in enumerate(blocks)]

        wide = _widen(current, previous, config.n)
        assert motion._debm_frame(*wide, blocks, config) == results == [
            search_block("debm", current, previous, block, config, index)
            for index, block in enumerate(blocks)
        ]

    def test_every_request_goes_through_module_dispatch(self, monkeypatch):
        # The benchmark's dispatch hook replaces `fitness_of` on the
        # estimator module; a debm search must send every request through it.
        rng = np.random.default_rng(26)
        previous, current = rolled_pair(rng, 64, 64, 2, -1)
        calls = []
        dispatch = estimator.fitness_of

        def counting(store, position, objective):
            calls.append(position)
            return dispatch(store, position, objective)

        monkeypatch.setattr(estimator, "fitness_of", counting)
        block = BlockRef(16, 16, 16)
        result = search_block("debm", current, previous, block, SearchConfig(), 0)
        assert len(calls) == result.evaluations + result.estimations == 40


class TestInitialPattern:
    def test_default_window_pattern(self):
        assert initial_pattern(7) == [
            (0.0, 0.0),
            (-4.0, 0.0),
            (4.0, 0.0),
            (0.0, -4.0),
            (0.0, 4.0),
        ]

    def test_small_window_scales_down(self):
        pattern = initial_pattern(2)
        assert (0.0, 0.0) in pattern
        assert all(abs(u) <= 2 and abs(v) <= 2 for u, v in pattern)

    @pytest.mark.parametrize("w", [1, 2, 4, 7, 15])
    def test_positions_distinct_and_in_bounds(self, w):
        pattern = initial_pattern(w)
        assert len(pattern) == 5
        assert len(set(pattern)) == 5
        assert all(abs(u) <= w and abs(v) <= w for u, v in pattern)


class TestLatticeProjection:
    FRAME = (176, 144)

    def test_rounds_half_away_from_zero(self):
        block = BlockRef(48, 48, 16)
        assert _clamped_cell((2.5, -2.5), mv_bounds(block, *self.FRAME, 7)) == (3, -3)
        assert _clamped_cell((2.4, -2.4), mv_bounds(block, *self.FRAME, 7)) == (2, -2)

    def test_clamps_to_window(self):
        block = BlockRef(48, 48, 16)
        assert _clamped_cell((9.2, 0.0), mv_bounds(block, *self.FRAME, 7)) == (7, 0)

    def test_clamps_to_frame_validity(self):
        corner = BlockRef(0, 0, 16)
        assert _clamped_cell((-3.0, -3.0), mv_bounds(corner, *self.FRAME, 7)) == (0, 0)

    def test_result_always_valid(self):
        rng = np.random.default_rng(8)
        blocks = partition(np.zeros((144, 176), dtype=np.uint8), 16)
        for _ in range(500):
            block = blocks[rng.integers(0, len(blocks))]
            position = tuple(rng.uniform(-12, 12, 2))
            u, v = _clamped_cell(position, mv_bounds(block, *self.FRAME, 7))
            umin, umax, vmin, vmax = mv_bounds(block, *self.FRAME, 7)
            assert umin <= u <= umax and vmin <= v <= vmax


def rolled_pair(rng, height, width, du, dv, smooth=True):
    """Frame pair whose true motion is exactly (du, dv) everywhere."""
    from scipy.ndimage import gaussian_filter

    base = rng.standard_normal((height, width))
    if smooth:
        base = gaussian_filter(base, 2.0, mode="wrap")
    base -= base.min()
    base = np.round(base / base.max() * 255).astype(np.uint8)
    current = np.roll(base, shift=(-dv, -du), axis=(0, 1))
    return base, current


class TestDebmSearch:
    CONFIG = SearchConfig()

    def test_budget_bounds(self):
        rng = np.random.default_rng(11)
        previous, current = rolled_pair(rng, 64, 64, 2, -1)
        for block in partition(current, 16):
            result = search_block("debm", current, previous, block, self.CONFIG, 0)
            requests = result.evaluations + result.estimations
            assert requests == 40
            assert result.evaluations >= 5

    def test_initial_pattern_always_truly_evaluated(self):
        rng = np.random.default_rng(12)
        previous, current = rolled_pair(rng, 64, 64, 3, 2)
        probe = SearchProbe()
        search_block(
            "debm", current, previous, BlockRef(16, 16, 16), self.CONFIG, 0, probe
        )
        first_five = probe.visits[:5]
        assert [visit.kind for visit in first_five] == [EVALUATED] * 5
        assert [(visit.u, visit.v) for visit in first_five] == initial_pattern(7)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        previous, current = rolled_pair(rng, 64, 64, -2, 3)
        block = BlockRef(16, 16, 16)

        def search(seed):
            probe = SearchProbe()
            config = SearchConfig(rng_seed=seed)
            result = search_block("debm", current, previous, block, config, 0, probe)
            return result, probe.visits

        first = search(0)
        assert search(0) == first
        assert search(99)[1] != first[1]

    def test_zero_motion_block_recovery(self):
        # With identical frames the origin, the first pattern point, is
        # truly evaluated at 0. The reported vector is the lowest cost the
        # search truly computed, earliest on ties, so an estimated tie that
        # displaces the origin in the population cannot displace it from
        # the report (measured 99 of 99 here). Reporting must stay
        # truthful on every block.
        rng = np.random.default_rng(14)
        frame = random_frame(rng, 144, 176)
        blocks = partition(frame, 16)
        exact = 0
        for index, block in enumerate(blocks):
            result = search_block("debm", frame, frame, block, self.CONFIG, index)
            assert result.sad == sad(frame, frame, block, result.mv)
            exact += result.mv == (0, 0) and result.sad == 0
        assert exact >= 0.85 * len(blocks)

    def test_reported_cost_is_ground_truth(self):
        rng = np.random.default_rng(15)
        previous, current = rolled_pair(rng, 96, 96, 3, -2)
        for index, block in enumerate(partition(current, 16)):
            result = search_block(
                "debm", current, previous, block, self.CONFIG, index
            )
            assert result.sad == sad(current, previous, block, result.mv)

    def test_reports_lowest_computed_cost(self):
        rng = np.random.default_rng(18)
        previous, current = rolled_pair(rng, 96, 96, 3, -2)
        for index, block in enumerate(partition(current, 16)):
            probe = SearchProbe()
            result = search_block(
                "debm", current, previous, block, self.CONFIG, index, probe
            )
            # each evaluated cell's cost recomputed as its true SAD; min
            # keeps the earliest of equal costs
            costs = [
                (sad(current, previous, block, (visit.u, visit.v)), (visit.u, visit.v))
                for visit in probe.visits
                if visit.kind == EVALUATED
            ]
            assert min(costs, key=lambda c: c[0]) == (result.sad, result.mv)

    def test_known_costs_are_not_evaluated_again(self):
        # Interior blocks have five distinct pattern cells, a trial on the
        # incumbent's cell moves to a fresh one and a trial on any other
        # known cell copies it, so no cell's cost is truly computed twice.
        rng = np.random.default_rng(19)
        previous, current = rolled_pair(rng, 96, 96, -2, 3)
        height, width = current.shape
        for index, block in enumerate(partition(current, 16)):
            if mv_bounds(block, width, height, 7) != (-7, 7, -7, 7):
                continue
            probe = SearchProbe()
            result = search_block(
                "debm", current, previous, block, self.CONFIG, index, probe
            )
            cells = [(v.u, v.v) for v in probe.visits if v.kind == EVALUATED]
            assert len(cells) == len(set(cells)) == result.evaluations

    def test_repair_reach_is_the_block_box(self, monkeypatch):
        # On a 48x48 frame of 16x16 blocks every box spans at most 32
        # cells a side, whatever w asks for, so w = 60 and w = 40 search
        # the same boxes and repair over offsets of at most 32.
        rng = np.random.default_rng(27)
        current, previous = random_frame(rng, 48, 48), random_frame(rng, 48, 48)
        reaches = []
        table = motion._offsets_nearest_first
        monkeypatch.setattr(
            motion, "_offsets_nearest_first", lambda reach: reaches.append(reach) or table(reach)
        )
        wide = estimate_frame(current, previous, SearchConfig(w=60, n=16, rng_seed=5), "debm")
        assert reaches and max(reaches) <= 32
        narrow = estimate_frame(current, previous, SearchConfig(w=40, n=16, rng_seed=5), "debm")
        assert np.array_equal(wide[0], narrow[0]) and wide[1] == narrow[1]

    def test_never_beats_exhaustive_search(self):
        rng = np.random.default_rng(16)
        previous, current = rolled_pair(rng, 96, 96, 1, 1)
        for index, block in enumerate(partition(current, 16)):
            debm = search_block("debm", current, previous, block, self.CONFIG, index)
            exhaustive = full_search(current, previous, block, 7)
            assert debm.sad >= exhaustive.sad

    def test_probe_accounting_matches_result(self):
        rng = np.random.default_rng(17)
        previous, current = rolled_pair(rng, 64, 64, 2, 2)
        probe = SearchProbe()
        result = search_block(
            "debm", current, previous, BlockRef(32, 32, 16), self.CONFIG, 0, probe
        )
        assert len(probe.visits) == result.evaluations + result.estimations
        evaluated = sum(1 for visit in probe.visits if visit.kind == EVALUATED)
        estimated = sum(1 for visit in probe.visits if visit.kind == ESTIMATED)
        assert evaluated == result.evaluations
        assert estimated == result.estimations
        fits = probe.best_per_generation
        assert all(b <= a for a, b in zip(fits, fits[1:]))


def integer_pair(height, width, du, dv):
    """Frame pair built with integer arithmetic alone, so its pixels do not
    depend on the numpy version or the platform's libm: a sum of triangle
    waves plus a hashed term, shifted by (du, dv), with a small integer
    ripple added to the current frame so no cell matches exactly."""
    margin = 20
    y = np.arange(height + 2 * margin, dtype=np.int64)[:, None]
    x = np.arange(width + 2 * margin, dtype=np.int64)[None, :]
    base = (
        5 * abs(x % 32 - 16)
        + 4 * abs(y % 24 - 12)
        + 3 * abs((x + 2 * y) % 18 - 9)
        + (x * 2654435761 + y * 40503) % 29
    )
    previous = base[margin:margin + height, margin:margin + width]
    current = base[margin + dv:margin + dv + height, margin + du:margin + du + width]
    current = current + (x[:, :width] * 7 + y[:height] * 13) % 5
    return previous.astype(np.uint8), current.astype(np.uint8)


class TestDebmPinned:
    """DE-BM's outputs on fixed integer frames, recorded from the scalar
    search. Any change to its arithmetic, dispatch or random stream shows
    here as a changed vector, cost, count, visit or generation best."""

    # (n, w): (du, dv, height, width) of its frame pair
    PAIRS = {(16, 7): (3, -2, 48, 64), (8, 16): (-5, 4, 40, 48)}
    # (n, w, rng_seed): per block in partition order, (u, v, sad,
    # evaluations, estimations)
    FIELDS = {
        (16, 7, 1): [
            (4, 0, 3648, 7, 33), (4, 0, 3523, 7, 33), (4, 0, 3754, 8, 32),
            (0, 1, 4473, 8, 32), (3, -2, 513, 13, 27), (2, -1, 1739, 11, 29),
            (4, 0, 3417, 10, 30), (0, -1, 3988, 9, 31), (4, -1, 3367, 9, 31),
            (4, -1, 3591, 9, 31), (5, -1, 3350, 9, 31), (0, -1, 3651, 9, 31),
        ],
        (16, 7, 201): [
            (4, 0, 3648, 7, 33), (4, 0, 3523, 8, 32), (4, 0, 3754, 7, 33),
            (0, 1, 4473, 8, 32), (3, -2, 513, 11, 29), (4, 0, 3331, 12, 28),
            (4, 0, 3417, 9, 31), (0, -1, 3988, 8, 32), (4, -1, 3367, 9, 31),
            (3, -2, 513, 11, 29), (5, -1, 3350, 10, 30), (0, -1, 3651, 8, 32),
        ],
        (8, 16, 1): [
            (1, 9, 509, 17, 23), (-4, 0, 1087, 7, 33), (-4, 0, 970, 8, 32),
            (-2, 1, 849, 12, 28), (-5, 1, 645, 9, 31), (-4, 3, 463, 9, 31),
            (0, 5, 1396, 9, 31), (-5, 4, 125, 18, 22), (-4, 0, 927, 10, 30),
            (-4, 0, 852, 10, 30), (-4, 3, 353, 13, 27), (-4, 0, 923, 9, 31),
            (1, 0, 843, 9, 31), (-2, 1, 645, 13, 27), (-6, 2, 833, 17, 23),
            (-5, 1, 1011, 11, 29), (-1, 0, 780, 9, 31), (0, 1, 826, 8, 32),
            (0, -8, 1139, 13, 27), (-5, 4, 127, 13, 27), (-4, 0, 717, 11, 29),
            (-6, -1, 1165, 11, 29), (-5, 4, 129, 14, 26), (-4, 0, 944, 10, 30),
            (0, 0, 2090, 7, 33), (-4, 0, 816, 7, 33), (-1, -6, 835, 10, 30),
            (-4, 0, 705, 7, 33), (-4, 0, 1249, 7, 33), (-4, 0, 1035, 6, 34),
        ],
        (8, 16, 201): [
            (1, 9, 509, 17, 23), (-4, 5, 790, 12, 28), (-4, 0, 970, 7, 33),
            (-4, 3, 361, 15, 25), (-4, 0, 717, 7, 33), (-1, 3, 1168, 8, 32),
            (0, 5, 1396, 10, 30), (-6, 5, 503, 19, 21), (-3, 2, 747, 10, 30),
            (-4, 0, 852, 11, 29), (-4, 3, 353, 18, 22), (-4, 3, 367, 16, 24),
            (0, 1, 859, 8, 32), (-2, 1, 645, 10, 30), (-5, 1, 1075, 14, 26),
            (-5, 1, 1011, 11, 29), (1, 0, 878, 9, 31), (0, 1, 826, 8, 32),
            (0, -8, 1139, 14, 26), (-2, 4, 785, 12, 28), (-4, 0, 717, 11, 29),
            (-3, 2, 619, 14, 26), (-5, 1, 909, 11, 29), (-4, 0, 944, 8, 32),
            (0, 0, 2090, 7, 33), (-4, 0, 816, 7, 33), (-1, -6, 835, 13, 27),
            (-4, 0, 705, 9, 31), (-4, 0, 1249, 8, 32), (-4, 0, 1035, 6, 34),
        ],
    }
    # n=16/w=7 at rng_seed 1, block index: the probe's visits as "u,v"
    # plus e (evaluated) or c (copied), then its best_per_generation
    PROBES = {
        0: (
            "0,0e 0,0e 4,0e 0,0c 0,4e 3,0e 5,0e 4,1e 3,1c 5,1c 3,0c 0,0c 5,0c 3,0c "
            "5,0c 2,0c 4,2c 5,0c 6,0c 3,0c 2,0c 2,1c 5,0c 6,1c 5,2c 3,2c 6,2c 2,2c "
            "5,0c 1,0c 7,0c 4,3c 4,1c 7,1c 1,1c 3,3c 3,0c 5,3c 5,0c 7,2c ",
            [3648, 3648, 3648, 3648, 3648, 3648, 3648, 3648],
        ),
        5: (
            "0,0e -4,0e 4,0e 0,-4e 0,4e 2,0e -4,1c 3,-1e 3,0e 6,0c 2,-1e 3,1c 4,-1c "
            "6,-1c 5,0c 3,-1c 1,-1e 1,-1c 2,-2e 5,-1c 2,-2c 1,-2c 3,-2c 2,-2c 5,-1c "
            "1,0c 3,-1c 3,-2c 2,-2c 3,-2c 2,-3c 0,-1c 3,-1c 2,1c 1,-1c 1,-1c 1,-1c "
            "0,-2c 4,-2c 3,-1c ",
            [3331, 3320, 1739, 1739, 1739, 1739, 1739, 1739],
        ),
    }

    @pytest.mark.parametrize("key", sorted(FIELDS))
    def test_estimate_frame(self, key):
        n, w, seed = key
        du, dv, height, width = self.PAIRS[(n, w)]
        previous, current = integer_pair(height, width, du, dv)
        config = SearchConfig(w=w, n=n, rng_seed=seed)
        mv_field, results = estimate_frame(current, previous, config, "debm")
        got = [
            (r.mv.u, r.mv.v, r.sad, r.evaluations, r.estimations) for r in results
        ]
        assert got == self.FIELDS[key]
        assert mv_field.reshape(-1, 2).tolist() == [[u, v] for u, v, *_ in got]

    @pytest.mark.parametrize("index", sorted(PROBES))
    def test_search_block_probe(self, index):
        previous, current = integer_pair(48, 64, 3, -2)
        block = partition(current, 16)[index]
        probe = SearchProbe()
        search_block(
            "debm", current, previous, block, SearchConfig(rng_seed=1), index, probe
        )
        visits, best_per_generation = self.PROBES[index]
        kinds = {"e": EVALUATED, "c": ESTIMATED}
        expected = [
            (*map(int, cell[:-1].split(",")), kinds[cell[-1]])
            for cell in visits.split()
        ]
        assert [tuple(visit) for visit in probe.visits] == expected
        assert probe.best_per_generation == best_per_generation


class TestEstimateFrame:
    def test_fsa_on_identical_frames(self):
        rng = np.random.default_rng(20)
        frame = random_frame(rng, 144, 176)
        mv_field, results = estimate_frame(frame, frame, SearchConfig(), "fsa")
        assert len(results) == 99
        assert np.all(mv_field == 0)
        assert all(r.sad == 0 for r in results)

    def test_debm_deterministic_across_runs(self):
        rng = np.random.default_rng(21)
        previous, current = rolled_pair(rng, 144, 176, 3, -2)
        config = SearchConfig(rng_seed=77)
        field_a, results_a = estimate_frame(current, previous, config, "debm")
        field_b, results_b = estimate_frame(current, previous, config, "debm")
        assert np.array_equal(field_a, field_b)
        assert results_a == results_b

    def test_per_block_seeds_differ(self):
        # A texture of period 16 gives every interior block the same content
        # and the same search window, so only the derived per-block seeds
        # can make their outcomes differ.
        rng = np.random.default_rng(22)
        previous = np.tile(random_frame(rng, 16, 16), (4, 8))
        current = np.roll(previous, shift=(-1, -2), axis=(0, 1))
        config = SearchConfig(rng_seed=0)
        _, results = estimate_frame(current, previous, config, "debm")
        height, width = current.shape
        outcomes = {
            (r.mv, r.evaluations, r.estimations)
            for block, r in zip(partition(current, 16), results)
            if mv_bounds(block, width, height, 7) == (-7, 7, -7, 7)
        }
        assert len(outcomes) > 1

    def test_dimension_mismatch_rejected(self):
        a = np.zeros((64, 64), dtype=np.uint8)
        b = np.zeros((64, 48), dtype=np.uint8)
        with pytest.raises(ValueError):
            estimate_frame(a, b, SearchConfig(), "fsa")

    def test_unknown_algorithm_rejected(self):
        frame = np.zeros((64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            estimate_frame(frame, frame, SearchConfig(), "zigzag")

    def test_results_align_with_partition(self):
        rng = np.random.default_rng(23)
        previous, current = rolled_pair(rng, 80, 96, 1, 0)
        mv_field, results = estimate_frame(current, previous, SearchConfig(), "fsa")
        blocks = partition(current, 16)
        assert mv_field.shape == (5, 6, 2)
        for block, result in zip(blocks, results):
            row, col = block.y // 16, block.x // 16
            assert tuple(mv_field[row, col]) == result.mv


@st.composite
def search_cases(draw):
    """A random small frame pair, search config and block index."""
    n = draw(st.integers(1, 6))
    height = n * draw(st.integers(1, 3)) + draw(st.integers(0, n - 1))
    width = n * draw(st.integers(1, 3)) + draw(st.integers(0, n - 1))
    current = draw(arrays(np.uint8, (height, width)))
    previous = draw(arrays(np.uint8, (height, width)))
    config = SearchConfig(
        w=draw(st.integers(1, 5)),
        n=n,
        rng_seed=draw(st.integers(0, 2**16)),
    )
    index = draw(st.integers(0, (height // n) * (width // n) - 1))
    return current, previous, config, index


class TestSearchBlock:
    @settings(max_examples=60, deadline=None)
    @given(search_cases())
    def test_single_block_matches_full_frame_run(self, case):
        current, previous, config, index = case
        block = partition(current, config.n)[index]
        height, width = current.shape
        umin, umax, vmin, vmax = mv_bounds(block, width, height, config.w)
        exhaustive = estimate_frame(current, previous, config, "fsa")[1][index]
        for algorithm in ALGORITHMS:
            result = search_block(algorithm, current, previous, block, config, index)
            assert result == estimate_frame(current, previous, config, algorithm)[1][index]
            assert umin <= result.mv.u <= umax and vmin <= result.mv.v <= vmax
            assert result.sad >= exhaustive.sad
            assert result.sad == sad(current, previous, block, result.mv)

            probe = SearchProbe()
            probed = search_block(
                algorithm, current, previous, block, config, index, probe
            )
            assert probed == result
            if algorithm == "debm":
                best = probe.best_per_generation
                assert len(probe.visits) == result.evaluations + result.estimations
                assert len(best) == de.GENERATIONS + 1
                assert all(b <= a for a, b in zip(best, best[1:]))
                # A copy repeats an earlier record's value, so the earliest
                # lowest record is a computed cost and is what is reported.
                low = min(
                    (
                        (sad(current, previous, block, (visit.u, visit.v)), (visit.u, visit.v))
                        for visit in probe.visits
                        if visit.kind == EVALUATED
                    ),
                    key=lambda c: c[0],
                )
                assert low == (result.sad, result.mv)
            else:
                # fsa, tss and ds never evaluate a cell twice
                cells = {(visit.u, visit.v) for visit in probe.visits}
                assert len(cells) == len(probe.visits) == result.evaluations

    def test_debm_seed_derives_from_block_index(self):
        rng = np.random.default_rng(24)
        previous, current = rolled_pair(rng, 48, 48, 2, 1)
        block = BlockRef(16, 16, 16)
        config = SearchConfig(rng_seed=40)
        seeded = SearchConfig(rng_seed=40 ^ 4)
        probe = SearchProbe()
        result = search_block("debm", current, previous, block, config, 4, probe)
        # The oracle is a plain run at seed 40 ^ 4, outside the derivation;
        # block 0 keeps rng_seed unchanged.
        wide = _widen(current, previous, 16)
        assert result == _debm_search(*wide, block, 7, 40 ^ 4)
        assert search_block(
            "debm", current, previous, block, seeded, 0
        ) == _debm_search(*wide, block, 7, 40 ^ 4)
        assert len(probe.best_per_generation) == 8 and len(probe.visits) == 40

    def test_unknown_algorithm_rejected(self):
        frame = np.zeros((16, 16), dtype=np.uint8)
        with pytest.raises(ValueError):
            search_block("zigzag", frame, frame, BlockRef(0, 0, 16), SearchConfig(), 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_off_frame_block_rejected(self, algorithm):
        frame = np.zeros((64, 64), dtype=np.uint8)
        block = BlockRef(60, 60, 16)
        with pytest.raises(ValueError, match="does not fit the 64x64 frame"):
            search_block(algorithm, frame, frame, block, SearchConfig(), 0)


def loop_compensate(previous, mv_field, n):
    """Per-block loop oracle for compensate: copy the previous frame and
    overwrite each grid block with its displaced patch."""
    output = previous.copy()
    rows, cols = mv_field.shape[:2]
    for row in range(rows):
        for col in range(cols):
            x, y = col * n, row * n
            u, v = int(mv_field[row, col, 0]), int(mv_field[row, col, 1])
            output[y : y + n, x : x + n] = previous[y + v : y + v + n, x + u : x + u + n]
    return output


@st.composite
def compensation_cases(draw):
    """A frame with 0-3 block rows and columns plus remainder pixels, and
    a field whose vectors are anywhere in their valid box, often on its
    edge."""
    n = draw(st.integers(1, 8))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    height = rows * n + draw(st.integers(0, n - 1))
    width = cols * n + draw(st.integers(0, n - 1))
    previous = draw(arrays(np.uint8, (height, width)))
    field = np.zeros((rows, cols, 2), dtype=np.int32)
    for row in range(rows):
        for col in range(cols):
            for axis, anchor, size in ((0, col * n, width), (1, row * n, height)):
                low, high = -anchor, size - n - anchor
                edge = st.sampled_from([low, high])
                field[row, col, axis] = draw(edge | st.integers(low, high))
    return previous, field, n


class TestCompensate:
    @settings(max_examples=80, deadline=None)
    @given(compensation_cases())
    def test_matches_per_block_loop(self, case):
        previous, field, n = case
        assert np.array_equal(compensate(previous, field, n), loop_compensate(previous, field, n))

    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(30)
        previous = random_frame(rng, 64, 64)
        field = np.zeros((4, 4, 2), dtype=np.int32)
        assert np.array_equal(compensate(previous, field, 16), previous)

    def test_exact_translation_reconstruction(self):
        rng = np.random.default_rng(31)
        previous, current = rolled_pair(rng, 144, 176, 3, 0)
        mv_field, _ = estimate_frame(current, previous, SearchConfig(), "fsa")
        predicted = compensate(previous, mv_field, 16)
        rows, cols = grid_shape(previous.shape, 16)
        # the rightmost block column cannot represent u=3 (the displaced
        # block would leave the frame), so compare the columns that can
        assert np.array_equal(
            predicted[: rows * 16, : (cols - 1) * 16],
            current[: rows * 16, : (cols - 1) * 16],
        )
        assert np.all(mv_field[:, : cols - 1] == (3, 0))

    def test_remainder_strip_copied_verbatim(self):
        rng = np.random.default_rng(32)
        previous = random_frame(rng, 40, 50)
        field = np.ones((2, 3, 2), dtype=np.int32)
        predicted = compensate(previous, field, 16)
        assert np.array_equal(predicted[32:, :], previous[32:, :])
        assert np.array_equal(predicted[:, 48:], previous[:, 48:])

    def test_block_error_matches_recorded_cost(self):
        rng = np.random.default_rng(33)
        current = random_frame(rng, 96, 96)
        previous = random_frame(rng, 96, 96)
        mv_field, results = estimate_frame(current, previous, SearchConfig(), "fsa")
        predicted = compensate(previous, mv_field, 16)
        for block, result in zip(partition(current, 16), results):
            x, y, n = block
            residual = np.abs(
                current[y : y + n, x : x + n].astype(np.int32)
                - predicted[y : y + n, x : x + n].astype(np.int32)
            ).sum()
            assert residual == result.sad

    def test_field_shape_must_match_grid(self):
        previous = np.zeros((64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            compensate(previous, np.zeros((3, 4, 2), dtype=np.int32), 16)

    def test_escaping_vector_rejected(self):
        # Two blocks escape; the error names the first in row-major order.
        previous = np.zeros((32, 32), dtype=np.uint8)
        field = np.zeros((2, 2, 2), dtype=np.int32)
        field[1, 0] = (-1, 0)
        field[0, 1] = (0, 17)
        with pytest.raises(ValueError, match=r"mv \(0, 17\) for block at \(16, 0\) leaves the frame"):
            compensate(previous, field, 16)


class TestConfigDefaults:
    def test_reference_parameter_snapshot(self):
        # w, n and the seed are the only settings; DE-BM's parameters are
        # the constants checked in test_de
        config = SearchConfig()
        assert dataclasses.astuple(config) == (7, 16, 0)
        assert [f.name for f in dataclasses.fields(config)] == ["w", "n", "rng_seed"]
        assert len(initial_pattern(config.w)) == 5  # one individual per point

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(w=0)
        with pytest.raises(ValueError):
            SearchConfig(n=0)
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(rng_seed=-1)

    def test_interior_predicate(self):
        # A block is interior when its bounds are the whole |u|,|v| <= w window.
        assert mv_bounds(BlockRef(16, 16, 16), 176, 144, 7) == (-7, 7, -7, 7)
        assert mv_bounds(BlockRef(0, 16, 16), 176, 144, 7) == (0, 7, -7, 7)
        assert mv_bounds(BlockRef(160, 16, 16), 176, 144, 7) == (-7, 0, -7, 7)
