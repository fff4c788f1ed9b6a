"""Unit tests for sequence ingestion, synthesis and persistence."""

import json
import math
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

from blockmatch.metrics import FrameOutcome, FrameScore, SequenceReport
from blockmatch.motion import BlockRef, BlockResult, MotionVector, SearchConfig
from blockmatch.motion import estimate_frame, mv_bounds, partition
from blockmatch.video_io import (
    FormatError,
    _blur_wrap,
    SequenceSource,
    SynthParams,
    TruncationError,
    open_sequence,
    synth_sequence,
    write_mv_dump,
    write_report,
)


def luma_bytes(rng, count):
    return bytes(rng.integers(0, 256, count, dtype=np.uint8))


class TestY4m:
    def write(self, path, payload):
        path.write_bytes(payload)
        return SequenceSource("y4m", str(path))

    def test_minimal_stream(self, tmp_path):
        rng = np.random.default_rng(0)
        luma = luma_bytes(rng, 256)
        chroma = luma_bytes(rng, 128)
        source = self.write(
            tmp_path / "clip.y4m",
            b"YUV4MPEG2 W16 H16 F25:1\nFRAME\n" + luma + chroma,
        )
        frames = list(open_sequence(source))
        assert len(frames) == 1
        assert frames[0].shape == (16, 16)
        assert frames[0].tobytes() == luma  # lossless luma extraction

    def test_multiple_frames_and_limit(self, tmp_path):
        rng = np.random.default_rng(1)
        frame_payload = lambda: b"FRAME\n" + luma_bytes(rng, 384)
        payload = b"YUV4MPEG2 W16 H16 F30:1 Ip A1:1 C420jpeg\n" + b"".join(
            frame_payload() for _ in range(3)
        )
        path = tmp_path / "clip.y4m"
        path.write_bytes(payload)
        assert len(list(open_sequence(SequenceSource("y4m", str(path))))) == 3
        limited = SequenceSource("y4m", str(path), frame_count=2)
        assert len(list(open_sequence(limited))) == 2

    @pytest.mark.parametrize("count", [0, -1])
    def test_frame_count_below_one_rejected(self, tmp_path, count):
        # unchecked, a count below 1 reads no frame, and the CLI then
        # blames the clip: "need at least two frames, got 0"
        path = tmp_path / "clip.y4m"
        path.write_bytes(b"YUV4MPEG2 W16 H16\n" + (b"FRAME\n" + bytes(384)) * 2)
        for source in (SequenceSource("y4m", str(path), frame_count=count),
                       SequenceSource("yuv420", str(path), 16, 16, frame_count=count)):
            with pytest.raises(ValueError, match=f"frame count must be at least 1, got {count}"):
                open_sequence(source)

    def test_bad_signature(self, tmp_path):
        source = self.write(tmp_path / "bad.y4m", b"JUNKHEADER\nFRAME\n")
        with pytest.raises(FormatError) as info:
            list(open_sequence(source))
        assert info.value.offset == 0

    @pytest.mark.parametrize(
        "header",
        [
            b"YUV4MPEG2 W16 F25:1\n",
            b"YUV4MPEG2 Wabc H16\n",
            b"YUV4MPEG2 W0 H16\n",
            b"YUV4MPEG2 W15 H16\n",
        ],
        ids=["no-height", "non-numeric-width", "zero-width", "odd-width"],
    )
    def test_missing_geometry(self, tmp_path, header):
        source = self.write(tmp_path / "bad.y4m", header + b"FRAME\n")
        with pytest.raises(FormatError) as info:
            list(open_sequence(source))
        assert info.value.offset == 0
        assert str(source.path) in str(info.value)

    def test_non_420_chroma_rejected(self, tmp_path):
        source = self.write(
            tmp_path / "c444.y4m", b"YUV4MPEG2 W16 H16 C444\nFRAME\n" + b"\0" * 768
        )
        with pytest.raises(FormatError, match="4:2:0"):
            list(open_sequence(source))

    def test_high_bit_depth_420_rejected(self, tmp_path):
        source = self.write(
            tmp_path / "p10.y4m", b"YUV4MPEG2 W16 H16 C420p10\nFRAME\n" + b"\0" * 768
        )
        with pytest.raises(FormatError, match="C420p10") as info:
            list(open_sequence(source))
        assert info.value.offset == 0
        assert str(source.path) in str(info.value)

    def test_truncated_frame_reports_progress(self, tmp_path):
        rng = np.random.default_rng(2)
        payload = (
            b"YUV4MPEG2 W16 H16\nFRAME\n"
            + luma_bytes(rng, 384)
            + b"FRAME\n"
            + luma_bytes(rng, 100)
        )
        source = self.write(tmp_path / "short.y4m", payload)
        with pytest.raises(TruncationError) as info:
            list(open_sequence(source))
        assert info.value.frames_read == 1

    def test_garbage_between_frames(self, tmp_path):
        rng = np.random.default_rng(3)
        payload = (
            b"YUV4MPEG2 W16 H16\nFRAME\n" + luma_bytes(rng, 384) + b"NOTAFRAME\n"
        )
        source = self.write(tmp_path / "garbage.y4m", payload)
        with pytest.raises(FormatError, match="FRAME"):
            list(open_sequence(source))


class TestRawYuv:
    def test_two_frames(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "clip.yuv"
        path.write_bytes(luma_bytes(rng, 768))
        source = SequenceSource("yuv420", str(path), width=16, height=16)
        frames = list(open_sequence(source))
        assert len(frames) == 2
        assert all(f.shape == (16, 16) for f in frames)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "short.yuv"
        path.write_bytes(luma_bytes(rng, 384 + 300))
        source = SequenceSource("yuv420", str(path), width=16, height=16)
        with pytest.raises(TruncationError) as info:
            list(open_sequence(source))
        assert info.value.frames_read == 1

    def test_geometry_required(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(b"\0" * 384)
        with pytest.raises(ValueError, match="width"):
            open_sequence(SequenceSource("yuv420", str(path)))

    def test_odd_geometry_rejected(self, tmp_path):
        path = tmp_path / "odd.yuv"
        path.write_bytes(b"\0" * 1000)
        source = SequenceSource("yuv420", str(path), width=15, height=16)
        with pytest.raises(FormatError, match="even"):
            open_sequence(source)

    def test_missing_file(self, tmp_path):
        source = SequenceSource(
            "yuv420", str(tmp_path / "nope.yuv"), width=16, height=16
        )
        with pytest.raises(FileNotFoundError):
            open_sequence(source)


def peak_while_failing(source, error, match):
    """Python heap peak, in bytes, of decoding `source`, which must raise
    `error` with a message matching `match`."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            list(open_sequence(source))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadMemory:
    """A reader's memory is bounded by its input, not by what the input
    declares: a line without a newline is cut at a fixed length, and a
    frame size that the header or the geometry flags declare is not
    allocated up front."""

    @pytest.mark.parametrize(
        "head, size, error, match",
        [
            (b"", 16 << 20, FormatError, "missing YUV4MPEG2 signature"),
            (b"YUV4MPEG2 ", 16 << 20, FormatError, "header line longer than 4096 bytes"),
            (b"YUV4MPEG2 W16 H16\n", 16 << 20, FormatError, "expected FRAME marker"),
            (b"YUV4MPEG2 W16 H16\nFRAME ", 16 << 20, FormatError, "FRAME marker line longer"),
            (b"YUV4MPEG2 W8192 H8192\nFRAME\n", 1000, TruncationError, "luma"),
        ],
        ids=["no-newline", "long-header", "long-garbage", "long-frame-line", "huge-geometry"],
    )
    def test_y4m_peak_under_1mb(self, tmp_path, head, size, error, match):
        # `head` then `size` bytes with no newline
        path = tmp_path / "clip.y4m"
        path.write_bytes(head + b"x" * size)
        assert peak_while_failing(SequenceSource("y4m", str(path)), error, match) < 1 << 20

    def test_raw_yuv_peak_under_1mb(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(1024))
        source = SequenceSource("yuv420", str(path), width=8192, height=8192)
        assert peak_while_failing(source, TruncationError, "luma") < 1 << 20

    def test_long_line_offset(self, tmp_path):
        header = b"YUV4MPEG2 W16 H16\n"
        path = tmp_path / "clip.y4m"
        path.write_bytes(header + b"FRAME\n" + bytes(384) + b"FRAME" + b" " * 5000)
        with pytest.raises(FormatError) as info:
            list(open_sequence(SequenceSource("y4m", str(path))))
        assert info.value.offset == len(header) + 6 + 384


class TestSynth:
    def test_static_frames_identical(self):
        params = SynthParams(width=32, height=32, frames=4, du=0, dv=0)
        frames = list(synth_sequence("random", params))
        assert len(frames) == 4
        for frame in frames[1:]:
            assert np.array_equal(frame, frames[0])

    def test_same_seed_reproduces(self):
        params = SynthParams(width=32, height=32, frames=3, du=2, dv=-1, seed=9)
        a = list(synth_sequence("random", params))
        b = list(synth_sequence("random", params))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_translate_ground_truth_recovered_exhaustively(self):
        params = SynthParams(width=176, height=144, frames=2, du=3, dv=-2)
        previous, current = synth_sequence("translate", params)
        height, width = current.shape
        _, results = estimate_frame(current, previous, SearchConfig(), "fsa")
        for block, result in zip(partition(current, 16), results):
            if mv_bounds(block, width, height, 7) == (-7, 7, -7, 7):
                assert result.mv == (3, -2)
                assert result.sad == 0

    def test_wraparound_is_exact_for_representable_blocks(self):
        params = SynthParams(width=64, height=48, frames=3, du=-4, dv=3, seed=2)
        frames = list(synth_sequence("random", params))
        for previous, current in zip(frames, frames[1:]):
            # blocks whose displaced window stays inside the frame match
            block = BlockRef(16, 0, 16)
            window = previous[0 + 3 : 16 + 3, 16 - 4 : 32 - 4]
            assert np.array_equal(window, current[0:16, 16:32])

    def test_unknown_kind(self):
        # the CLI's "random" is the kind's one name
        for kind in ("zoom", "random_texture_translate"):
            with pytest.raises(ValueError):
                list(synth_sequence(kind, SynthParams()))

    def test_blur_equals_scipy_gaussian_filter(self):
        # Synthetic clips, and the acceptance data built from them, stay
        # the same only while the blur matches scipy's to the last bit.
        from scipy.ndimage import gaussian_filter

        rng = np.random.default_rng(40)
        # the smallest sizes are narrower than the kernel radius
        for height, width in [(5, 7), (3, 12), (33, 17), (144, 176), (36, 64)]:
            for sigma in [0.5, 0.7, 1.0, 2.0, 3.5, 4.0]:
                image = rng.standard_normal((height, width))
                expected = gaussian_filter(image, sigma, mode="wrap")
                assert np.array_equal(_blur_wrap(image, sigma), expected)


def sample_report():
    return SequenceReport(
        algorithm="debm",
        input={"width": 176, "height": 144, "frames": 3, "n": 16, "w": 7,
               "crc32": "0badf00d"},
        mean_psnr=31.25,
        mean_search_points=13.25,
        infinite_psnr_frames=1,
        per_frame=[
            FrameScore(1, math.inf, 0.0, 12.0, 28.0),
            FrameScore(2, 31.25, 48.7, 14.5, 25.5),
        ],
    )


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = sample_report()
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == asdict(report)

    def test_file_keys_are_field_names(self, tmp_path):
        names = [f.name for f in fields(FrameScore)]
        json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        write_report(sample_report(), str(json_path))
        write_report(sample_report(), str(csv_path))
        document = json.loads(json_path.read_text())
        assert list(document) == [f.name for f in fields(SequenceReport)]
        assert [list(s) for s in document["per_frame"]] == [names, names]
        assert csv_path.read_text().split("\n")[0] == ",".join(names)

    def test_csv_row_count(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(sample_report(), str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2
        assert lines[0] == "frame_index,psnr_db,mse,avg_eval,avg_est"
        assert lines[1].startswith("1,inf,0.0,")

    def test_format_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(sample_report(), str(path))
        assert path.read_text().startswith("frame_index,")

    def test_format_suffix_matches_in_any_case(self, tmp_path):
        path = tmp_path / "r.CSV"
        write_report(sample_report(), str(path))
        assert path.read_text().startswith("frame_index,")

    def test_write_error_carries_path(self, tmp_path):
        # A missing directory fails the temp-file write and a directory
        # target fails the rename; each error names the target alone.
        (tmp_path / "out").mkdir()
        for target in (tmp_path / "no" / "such" / "dir" / "report.json", tmp_path / "out"):
            with pytest.raises(OSError) as info:
                write_report(sample_report(), str(target))
            assert repr(str(target)) in str(info.value)
            assert ".tmp" not in str(info.value)

    @pytest.mark.parametrize("name", ["report.json", "report.csv"])
    def test_failed_write_removes_temp_file(self, tmp_path, name):
        # the target is a directory, so the temp file is written but the
        # rename onto the target fails
        (tmp_path / name).mkdir()
        with pytest.raises(OSError):
            write_report(sample_report(), str(tmp_path / name))
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_mv_dump_layout(self, tmp_path):
        blocks = [BlockRef(0, 0, 16), BlockRef(16, 0, 16)]
        results = [
            BlockResult(MotionVector(3, -2), 120, 14, 26),
            BlockResult(MotionVector(0, 0), 0, 12, 28),
        ]
        path = tmp_path / "mv.csv"
        write_mv_dump(str(path), blocks, [FrameOutcome(1, 0.0, results)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "frame,x,y,u,v,sad,evaluations,estimations"
        assert lines[1] == "1,0,0,3,-2,120,14,26"
        assert lines[2] == "1,16,0,0,0,0,12,28"

    @pytest.mark.parametrize("count", [1, 3])
    def test_mv_dump_rejects_results_that_do_not_match_blocks(self, tmp_path, count):
        blocks = [BlockRef(0, 0, 16), BlockRef(16, 0, 16)]
        results = [BlockResult(MotionVector(0, 0), 0, 12, 28)] * count
        path = tmp_path / "mv.csv"
        with pytest.raises(ValueError):
            write_mv_dump(str(path), blocks, [FrameOutcome(1, 0.0, results)])
        assert list(tmp_path.iterdir()) == []
