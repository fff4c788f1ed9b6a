"""Unit tests for frame geometry, SAD, the exhaustive search and the
differential-evolution search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blockmatch.de import DeParams
from blockmatch.estimator import ESTIMATED, EVALUATED
from blockmatch.motion import (
    ALGORITHMS,
    BlockRef,
    MotionVector,
    SearchConfig,
    SearchProbe,
    _clamped_cell,
    _debm_search,
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
    """Independent double-loop oracle for the matching cost."""
    x, y, n = block
    u, v = mv
    total = 0
    for j in range(n):
        for i in range(n):
            total += abs(
                int(current[y + j, x + i]) - int(previous[y + v + j, x + u + i])
            )
    return total


def naive_full_search(current, previous, block, w):
    """Independent exhaustive oracle: first minimum in v-major scan order."""
    height, width = previous.shape
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
        first_five = probe.records[:5]
        assert [r.kind for r in first_five] == [EVALUATED] * 5
        assert [r.position for r in first_five] == initial_pattern(7)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        previous, current = rolled_pair(rng, 64, 64, -2, 3)
        block = BlockRef(16, 16, 16)

        def search(seed):
            probe = SearchProbe()
            config = SearchConfig(de=DeParams(rng_seed=seed))
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
            evaluated = [r for r in probe.records if r.kind == EVALUATED]
            lowest = min(r.fitness for r in evaluated)
            assert result.sad == lowest
            first = next(r for r in evaluated if r.fitness == lowest)
            assert result.mv == tuple(first.position)

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
        assert len(probe.records) == result.evaluations + result.estimations
        evaluated = sum(1 for r in probe.records if r.kind == EVALUATED)
        estimated = sum(1 for r in probe.records if r.kind == ESTIMATED)
        assert evaluated == result.evaluations
        assert estimated == result.estimations
        assert len(probe.visits) == len(probe.records)
        fits = probe.best_per_generation
        assert all(b <= a for a, b in zip(fits, fits[1:]))


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
        config = SearchConfig(de=DeParams(rng_seed=77))
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
        config = SearchConfig(de=DeParams(rng_seed=0))
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
        de=DeParams(rng_seed=draw(st.integers(0, 2**16))),
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
                assert len(best) == config.de.generations + 1
                assert all(b <= a for a, b in zip(best, best[1:]))
            else:
                # fsa, tss and ds never evaluate a cell twice
                cells = {(visit.u, visit.v) for visit in probe.visits}
                assert len(cells) == len(probe.visits) == result.evaluations

    def test_debm_seed_derives_from_block_index(self):
        rng = np.random.default_rng(24)
        previous, current = rolled_pair(rng, 48, 48, 2, 1)
        block = BlockRef(16, 16, 16)
        config = SearchConfig(de=DeParams(rng_seed=40))
        seeded = SearchConfig(de=DeParams(rng_seed=40 ^ 4))
        probe = SearchProbe()
        result = search_block("debm", current, previous, block, config, 4, probe)
        # The oracle is a plain run at seed 40 ^ 4, outside the derivation;
        # block 0 keeps rng_seed unchanged.
        wide = current.astype(np.int16), previous.astype(np.int16)
        assert result == _debm_search(*wide, block, seeded)
        assert search_block(
            "debm", current, previous, block, seeded, 0
        ) == _debm_search(*wide, block, seeded)
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


class TestCompensate:
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
        previous = np.zeros((32, 32), dtype=np.uint8)
        field = np.zeros((2, 2, 2), dtype=np.int32)
        field[0, 0] = (-1, 0)
        with pytest.raises(ValueError):
            compensate(previous, field, 16)


class TestConfigDefaults:
    def test_reference_parameter_snapshot(self):
        config = SearchConfig()
        assert config.n == 16
        assert config.w == 7
        assert config.de.f == 0.25
        assert config.de.cr == 0.8
        assert len(initial_pattern(config.w)) == 5  # one individual per point
        assert config.de.generations == 7
        assert config.strategy.d == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(w=0)
        with pytest.raises(ValueError):
            SearchConfig(n=0)

    def test_interior_predicate(self):
        # A block is interior when its bounds are the whole |u|,|v| <= w window.
        assert mv_bounds(BlockRef(16, 16, 16), 176, 144, 7) == (-7, 7, -7, 7)
        assert mv_bounds(BlockRef(0, 16, 16), 176, 144, 7) == (0, 7, -7, 7)
        assert mv_bounds(BlockRef(160, 16, 16), 176, 144, 7) == (-7, 0, -7, 7)
