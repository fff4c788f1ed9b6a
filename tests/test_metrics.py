"""Unit tests for the quality metrics, aggregation and pattern traces."""

import math
import tracemalloc

import numpy as np
import pytest

from blockmatch.estimator import ESTIMATED, EVALUATED
from blockmatch.metrics import (
    FrameOutcome,
    aggregate,
    d_psnr,
    export_pattern_trace,
    frame_score,
    mse,
    psnr,
)
from blockmatch.motion import BlockResult, CellVisit, MotionVector


def result(evaluations, estimations=0, sad=0, mv=(0, 0)):
    return BlockResult(MotionVector(*mv), sad, evaluations, estimations)


IDENTITY = {"width": 48, "height": 48, "frames": 2, "n": 16, "w": 7, "crc32": "00000000"}


class TestMse:
    def test_identical_frames(self):
        frame = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert mse(frame, frame) == 0.0

    def test_full_scale_difference(self):
        zeros = np.zeros((8, 8), dtype=np.uint8)
        ones = np.full((8, 8), 255, dtype=np.uint8)
        assert mse(zeros, ones) == 65025.0

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (24, 32), dtype=np.uint8)
        b = rng.integers(0, 256, (24, 32), dtype=np.uint8)
        naive = sum(
            (int(a[r, c]) - int(b[r, c])) ** 2
            for r in range(24)
            for c in range(32)
        ) / (24 * 32)
        assert mse(a, b) == pytest.approx(naive, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros((4, 4), np.int32), np.zeros((4, 4), np.int32)),
            (np.zeros((4, 4), np.uint16), np.zeros((4, 4), np.uint16)),
            (np.zeros((4, 4), np.float64), np.zeros((4, 4), np.float64)),
            (np.zeros((4, 4), np.uint8), np.zeros((4, 4), np.int32)),
            (np.zeros(16, np.uint8), np.zeros(16, np.uint8)),
            (np.zeros((2, 4, 4), np.uint8), np.zeros((2, 4, 4), np.uint8)),
        ],
        ids=["int32", "uint16", "float64", "mixed", "1-D", "3-D"],
    )
    def test_only_uint8_frames_accepted(self, a, b):
        # an int16 difference of wider integers would wrap without a word
        with pytest.raises(ValueError):
            mse(a, b)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (3, 5), (16, 16), (144, 176), (360, 640), (1080, 1920)]
    )
    @pytest.mark.parametrize("kind", ["random", "identical", "full-scale", "near"])
    def test_equals_float64_mean_exactly(self, shape, kind):
        # every partial sum of the float64 mean is an integer below 2**53,
        # so its one rounding is the division, as in int / int
        rng = np.random.default_rng(sum(shape))
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        if kind == "random":
            b = rng.integers(0, 256, shape, dtype=np.uint8)
        elif kind == "identical":
            b = a.copy()
        elif kind == "full-scale":
            a = np.where(a < 128, 0, 255).astype(np.uint8)
            b = 255 - a
        else:
            noise = rng.integers(-2, 3, shape) * (rng.random(shape) < 0.01)
            b = np.clip(a + noise, 0, 255).astype(np.uint8)
        diff = a.astype(np.float64) - b.astype(np.float64)
        assert mse(a, b) == float(np.mean(diff * diff))

    def test_full_scale_large_frame_does_not_overflow(self):
        # 65025 * 230400 is above 2**31: an int32 sum would wrap
        zeros = np.zeros((360, 640), dtype=np.uint8)
        assert mse(zeros, np.full_like(zeros, 255)) == 65025.0

    def test_allocates_at_most_four_bytes_per_pixel(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, (360, 640), dtype=np.uint8)
        b = rng.integers(0, 256, (360, 640), dtype=np.uint8)
        mse(a, b)
        tracemalloc.start()
        try:
            mse(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * a.size


class TestPsnr:
    def test_unit_ratio_is_zero_db(self):
        assert psnr(65025.0) == 0.0

    def test_hundredfold_ratio_is_twenty_db(self):
        assert psnr(650.25) == pytest.approx(20.0, abs=1e-12)

    def test_zero_error_is_infinite(self):
        assert psnr(0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psnr(-1.0)

    def test_strictly_decreasing_in_mse(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            low, high = sorted(rng.uniform(1e-6, 1e5, 2))
            if low == high:
                continue
            assert psnr(low) > psnr(high)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            value = float(rng.uniform(1e-6, 1e5))
            independent = 10.0 * (math.log(255.0 * 255.0 / value) / math.log(10.0))
            assert psnr(value) == pytest.approx(independent, rel=1e-12)


class TestDegradationRatio:
    def test_identity_is_zero(self):
        assert d_psnr(30.0, 30.0) == 0.0

    def test_identity_has_positive_zero_sign(self):
        assert math.copysign(1.0, d_psnr(30.0, 30.0)) == 1.0

    def test_ten_percent_drop(self):
        assert d_psnr(40.0, 36.0) == pytest.approx(-10.0, rel=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            reference = float(rng.uniform(1.0, 60.0))
            other = float(rng.uniform(1.0, 60.0))
            independent = -((reference - other) / reference) * 100.0
            assert d_psnr(reference, other) == pytest.approx(independent, rel=1e-12)

    def test_not_applicable_markers(self):
        assert d_psnr(math.inf, 30.0) is None
        assert d_psnr(30.0, math.inf) is None
        assert d_psnr(0.0, 30.0) is None
        assert d_psnr(-5.0, 30.0) is None


class TestAggregate:
    def test_single_block_single_frame(self):
        report = aggregate("fsa", [FrameOutcome(1, 100.0, [result(12)])], IDENTITY)
        assert report.input == IDENTITY
        assert report.mean_search_points == 12.0
        assert report.per_frame[0].avg_eval == 12.0

    def test_full_window_reference_scale(self):
        # every interior block of an exhaustive run costs the full window
        outcomes = [FrameOutcome(1, 25.0, [result(225) for _ in range(9)])]
        report = aggregate("fsa", outcomes, IDENTITY)
        assert report.mean_search_points == 225.0

    def test_mean_psnr_is_arithmetic_mean(self):
        outcomes = [
            FrameOutcome(1, 65.025, [result(10)]),  # 30 dB
            FrameOutcome(2, 41.02800132482455, [result(20)]),  # 32 dB
        ]
        report = aggregate("fsa", outcomes, IDENTITY)
        assert report.mean_psnr == pytest.approx(31.0, abs=1e-9)
        assert report.mean_search_points == 15.0

    def test_exact_frames_excluded_and_counted(self):
        outcomes = [
            FrameOutcome(1, 0.0, [result(10)]),
            FrameOutcome(2, 65.025, [result(10)]),
        ]
        report = aggregate("fsa", outcomes, IDENTITY)
        assert report.infinite_psnr_frames == 1
        assert report.mean_psnr == pytest.approx(30.0, abs=1e-9)

    def test_all_exact_frames(self):
        report = aggregate("fsa", [FrameOutcome(1, 0.0, [result(10)])], IDENTITY)
        assert report.mean_psnr == math.inf
        assert report.infinite_psnr_frames == 1

    def test_totals_have_no_drift(self):
        rng = np.random.default_rng(4)
        outcomes = []
        total_evaluations = 0
        total_blocks = 0
        for index in range(10):
            results = [
                result(int(rng.integers(5, 41)), int(rng.integers(0, 36)))
                for _ in range(99)
            ]
            total_evaluations += sum(r.evaluations for r in results)
            total_blocks += len(results)
            outcomes.append(FrameOutcome(index + 1, float(rng.uniform(1, 100)), results))
        report = aggregate("debm", outcomes, IDENTITY)
        assert report.mean_search_points == pytest.approx(
            total_evaluations / total_blocks, rel=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate("fsa", [], IDENTITY)
        with pytest.raises(ValueError):
            frame_score(1, 0.0, [])


class TestPatternTrace:
    def test_exhaustive_trace_all_evaluated(self):
        visits = [
            CellVisit(u, v, EVALUATED)
            for v in range(-7, 8)
            for u in range(-7, 8)
        ]
        doc = export_pattern_trace(visits, MotionVector(3, -2), 7)
        assert doc["counts"] == {"evaluated": 225, "estimated": 0, "unvisited": 0}
        assert doc["minimum"] == [3, -2]

    def test_cell_classes_partition_window(self):
        visits = [
            CellVisit(0, 0, EVALUATED),
            CellVisit(1, 0, ESTIMATED),
            CellVisit(0, 1, ESTIMATED),
        ]
        doc = export_pattern_trace(visits, MotionVector(0, 0), 7)
        counts = doc["counts"]
        assert counts["evaluated"] + counts["estimated"] + counts["unvisited"] == 225
        assert counts == {"evaluated": 1, "estimated": 2, "unvisited": 222}

    def test_evaluated_wins_mixed_cell(self):
        visits = [CellVisit(2, 2, ESTIMATED), CellVisit(2, 2, EVALUATED)]
        doc = export_pattern_trace(visits, MotionVector(2, 2), 7)
        assert doc["grid"][2 + 7][2 + 7] == EVALUATED

    def test_minimum_cell_matches_reported_vector(self):
        visits = [CellVisit(-5, 0, EVALUATED)]
        doc = export_pattern_trace(visits, MotionVector(-5, 0), 7)
        assert doc["minimum"] == [-5, 0]
        assert doc["grid"][0 + 7][-5 + 7] == EVALUATED

    def test_visit_multiplicity_preserved(self):
        visits = [CellVisit(1, 1, EVALUATED), CellVisit(1, 1, EVALUATED)]
        doc = export_pattern_trace(visits, MotionVector(1, 1), 7)
        assert len(doc["visits"]) == 2
        assert doc["counts"]["evaluated"] == 1

    def test_out_of_window_visit_rejected(self):
        with pytest.raises(ValueError):
            export_pattern_trace([CellVisit(8, 0, EVALUATED)], MotionVector(0, 0), 7)
