"""Sequence ingestion, synthetic clips, and result persistence.

Every input is one file: a YUV4MPEG2 stream or headerless planar 4:2:0
YUV with explicit geometry. Only the luminance plane is returned; 4:2:0
chroma is skipped and other subsamplings are rejected. All file writes go
through a temp-file-and-rename so a crashed run never leaves a
half-written artifact; OS errors carry the target path.
"""

import json
import os
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .metrics import FrameOutcome, FrameScore, SequenceReport
from .motion import BlockRef

FORMATS = ("y4m", "yuv420")
SYNTH_KINDS = ("translate", "random")

# Longest y4m header or FRAME line accepted, newline included; real ones
# are a few dozen bytes.
_LINE_LIMIT = 4096
# Largest single read. A plane is read in pieces of at most this size, so
# a size that the header or --width/--height declares allocates at most
# one piece beyond the bytes actually present, and a plane of up to
# 512 KiB, such as 720x576 luma, still takes one read.
_READ_CHUNK = 1 << 19


class FormatError(ValueError):
    """Malformed input bytes; offset locates the failure when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TruncationError(FormatError):
    """Input ended mid-frame; frames_read frames were complete."""

    def __init__(self, message: str, frames_read: int):
        super().__init__(f"{message} after {frames_read} complete frame(s)")
        self.frames_read = frames_read


@dataclass(frozen=True)
class SequenceSource:
    """Locator for a sequence file. yuv420 needs explicit geometry; y4m
    reads it from the stream header."""

    format: str
    path: str
    width: int | None = None
    height: int | None = None


def open_sequence(source: SequenceSource) -> Iterator[np.ndarray]:
    """Yield the luminance plane of each frame as a uint8 array; a frame
    is read only when the next one is asked for."""
    if source.format not in FORMATS:
        raise ValueError(f"unknown format {source.format!r}, expected {FORMATS}")
    if not os.path.exists(source.path):
        raise FileNotFoundError(f"no such sequence: {source.path}")
    if source.format == "y4m":
        return _iter_y4m(source.path)
    if source.width is None or source.height is None:
        raise ValueError("raw yuv420 input needs explicit --width and --height")
    _check_dims(source.width, source.height)
    return _iter_yuv420(source.path, source.width, source.height)


def _check_dims(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError(f"bad frame geometry {width}x{height}")
    if width % 2 or height % 2:
        raise FormatError(
            f"4:2:0 chroma needs even dimensions, got {width}x{height}"
        )


def _iter_y4m(path: str) -> Iterator[np.ndarray]:
    with open(path, "rb") as stream:
        header = stream.readline(_LINE_LIMIT)
        if not header.startswith(b"YUV4MPEG2"):
            raise FormatError(f"missing YUV4MPEG2 signature in {path}", offset=0)
        _check_line(header, "header", path, 0)
        width = height = None
        colorspace = b"C420"
        for token in header.split()[1:]:
            tag, value = token[:1], token[1:]
            if tag in (b"W", b"H") and not value.isdigit():
                name = token.decode(errors="replace")
                raise FormatError(f"bad y4m geometry token {name} in {path}", offset=0)
            if tag == b"W":
                width = int(value)
            elif tag == b"H":
                height = int(value)
            elif tag == b"C":
                colorspace = token
            # F (rate), I (interlace), A (aspect) and X extensions do not
            # affect luma extraction and are ignored.
        if width is None or height is None:
            raise FormatError(f"y4m header misses W or H token in {path}", offset=0)
        # C420p10 and other high-bit-depth tokens store two bytes a sample.
        if colorspace not in (b"C420", b"C420jpeg", b"C420paldv", b"C420mpeg2"):
            raise FormatError(
                f"unsupported chroma {colorspace.decode(errors='replace')} "
                f"in {path}; only 8-bit 4:2:0 is handled",
                offset=0,
            )
        try:
            _check_dims(width, height)
        except ValueError as exc:
            raise FormatError(f"{exc} in {path}", offset=0) from None

        def at_frame() -> bool:
            offset = stream.tell()
            marker = stream.readline(_LINE_LIMIT)
            if marker and not marker.startswith(b"FRAME"):
                raise FormatError(f"expected FRAME marker in {path}", offset=offset)
            _check_line(marker, "FRAME marker", path, offset)
            return marker != b""

        yield from _read_frames(stream, path, width, height, at_frame)


def _check_line(line: bytes, name: str, path: str, offset: int) -> None:
    """Reject a y4m line that `readline(_LINE_LIMIT)` cut off at the limit."""
    if len(line) == _LINE_LIMIT and not line.endswith(b"\n"):
        raise FormatError(
            f"y4m {name} line longer than {_LINE_LIMIT} bytes in {path}", offset=offset
        )


def _read_up_to(stream, size: int) -> bytes:
    """`size` bytes from the stream, or all that is left when fewer are."""
    chunks = []
    while size > 0:
        chunk = stream.read(min(size, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _iter_yuv420(path: str, width: int, height: int) -> Iterator[np.ndarray]:
    with open(path, "rb") as stream:
        yield from _read_frames(stream, path, width, height, lambda: stream.peek(1) != b"")


def _read_frames(stream, path: str, width: int, height: int, at_frame) -> Iterator[np.ndarray]:
    """Yield the luma plane of each 4:2:0 frame while `at_frame()` says
    another frame starts; a frame cut short raises TruncationError."""
    y_size = width * height
    chroma_size = y_size // 2
    frames_read = 0
    while at_frame():
        luma = _read_up_to(stream, y_size)
        if len(luma) < y_size:
            raise TruncationError(f"truncated luma plane in {path}", frames_read)
        chroma = _read_up_to(stream, chroma_size)
        if len(chroma) < chroma_size:
            raise TruncationError(
                f"truncated chroma planes in {path}", frames_read
            )
        yield np.frombuffer(luma, dtype=np.uint8).reshape(height, width).copy()
        frames_read += 1


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    """Geometry, per-frame motion (du, dv), length and seed of a synthetic
    clip."""

    width: int = 176
    height: int = 144
    frames: int = 10
    du: int = 0
    dv: int = 0
    seed: int = 0


def synth_sequence(kind: str, params: SynthParams) -> Iterator[np.ndarray]:
    """Deterministic synthetic clips with known ground truth.

    `kind` is one of SYNTH_KINDS, as the CLI's `--input KIND:DU,DV` names
    it: translate rolls a wave texture and random a seeded noise texture by
    (du, dv) per frame with wrap-around, so every block whose displaced
    window stays inside the frame has true motion exactly (du, dv) with a
    zero matching error; du = dv = 0 repeats one texture unchanged.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}, expected {SYNTH_KINDS}")
    if params.width < 1 or params.height < 1 or params.frames < 1:
        raise ValueError(
            f"bad synthetic geometry {params.width}x{params.height}"
            f"x{params.frames}"
        )
    if kind == "translate":
        base = _wave_texture(params.width, params.height)
    else:
        base = _noise_texture(params.width, params.height, params.seed)
    return _roll_frames(base, params)


def _roll_frames(base: np.ndarray, params: SynthParams) -> Iterator[np.ndarray]:
    frame = base
    for _ in range(params.frames):
        yield frame.copy()
        # Rolling by (-dv, -du) makes the current frame's content sit at
        # (+du, +dv) in the frame before it.
        frame = np.roll(frame, shift=(-params.dv, -params.du), axis=(0, 1))


def _noise_texture(width: int, height: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = _blur_wrap(rng.standard_normal((height, width)), sigma=2.0)
    low, high = float(base.min()), float(base.max())
    if high == low:
        return np.full((height, width), 128, dtype=np.uint8)
    return np.round((base - low) / (high - low) * 255.0).astype(np.uint8)


def _blur_wrap(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a float64 image with wrap-around edges, equal bit
    for bit to scipy.ndimage.gaussian_filter(image, sigma, mode="wrap").

    It repeats scipy's arithmetic step for step: the kernel is truncated
    at radius int(4 sigma + 0.5) and normalised by its own sum, and each
    axis, 0 then 1, is filtered in the symmetric order scipy's correlate1d
    uses: the center term first, then pairs from the outermost inward.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    taps = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * taps**2)
    kernel = kernel / kernel.sum()
    weights = kernel[radius:]  # weights[j] applies at offset +-j
    for axis in (0, 1):
        out = image * weights[0]
        for j in range(radius, 0, -1):
            out += (np.roll(image, j, axis) + np.roll(image, -j, axis)) * weights[j]
        image = out
    return image


def _wave_texture(width: int, height: int) -> np.ndarray:
    # Incommensurate periods keep the matching cost of every wrong offset
    # within +-7 px strictly positive.
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    value = (
        127.5
        + 52.0 * np.sin(x / 3.7)
        + 44.0 * np.cos(y / 4.1)
        + 28.0 * np.sin((2.0 * x + 3.0 * y) / 9.3)
    )
    return np.clip(np.round(value), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Reports and dumps
# ---------------------------------------------------------------------------

MV_DUMP_HEADER = "frame,x,y,u,v,sad,evaluations,estimations"


def _atomic_write_text(path: str, payload: str) -> None:
    """Write through a hidden temp file beside the target and rename it
    over the target. The temp file is removed on any failure, and an
    OSError names the target alone."""
    target = Path(path)
    temp = target.with_name(f".{target.name}.tmp{os.getpid()}")
    try:
        temp.write_bytes(payload.encode())
        os.replace(temp, target)
    except OSError as exc:
        temp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(document: dict, path: str) -> None:
    _atomic_write_text(path, json.dumps(document, indent=2) + "\n")


def write_report(report: SequenceReport, path: str) -> None:
    """Serialize a sequence report as CSV when the path ends in .csv (in
    any case), as JSON otherwise. JSON keys are the SequenceReport and
    FrameScore field names; CSV has one row of FrameScore fields a frame."""
    if str(path).lower().endswith(".csv"):
        lines = [",".join(f.name for f in fields(FrameScore))]
        lines += [",".join(map(repr, astuple(s))) for s in report.per_frame]
        _atomic_write_text(path, "\n".join(lines) + "\n")
    else:
        write_json(asdict(report), path)


def write_mv_dump(
    path: str, blocks: Sequence[BlockRef], outcomes: Sequence[FrameOutcome]
) -> None:
    """One CSV row per (frame, block): the predicted frame's index, the
    block anchor, motion vector, cost and evaluation/estimation tallies.
    Each outcome's results follow the order of `blocks`."""
    lines = [MV_DUMP_HEADER]
    for outcome in outcomes:
        for block, result in zip(blocks, outcome.results, strict=True):
            lines.append(
                f"{outcome.frame_index},{block.x},{block.y},{result.mv.u},{result.mv.v},"
                f"{result.sad},{result.evaluations},{result.estimations}"
            )
    _atomic_write_text(path, "\n".join(lines) + "\n")
