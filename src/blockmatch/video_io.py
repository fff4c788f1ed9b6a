"""Sequence ingestion, synthetic clips, and result persistence.

Supported inputs: YUV4MPEG2 streams, headerless planar 4:2:0 YUV with
explicit geometry, and binary PGM image sequences. Only the luminance
plane is returned; 4:2:0 chroma is skipped and other subsamplings are
rejected. All file writes go through a temp-file-and-rename so a crashed
run never leaves a half-written artifact; OS errors carry the target path.
"""

import glob
import json
import os
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .metrics import FrameOutcome, FrameScore, SequenceReport
from .motion import BlockRef

FORMATS = ("y4m", "yuv420", "pgm")
SYNTH_KINDS = ("static", "translate", "random_texture_translate")


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
    """Locator for an on-disk sequence. yuv420 needs explicit geometry;
    y4m reads it from the stream header and pgm from the first image.
    frame_count, when set, caps how many frames are yielded."""

    format: str
    path: str
    width: int | None = None
    height: int | None = None
    frame_count: int | None = None


def open_sequence(source: SequenceSource) -> Iterator[np.ndarray]:
    """Yield the luminance plane of each frame as a uint8 array."""
    if source.format not in FORMATS:
        raise ValueError(f"unknown format {source.format!r}, expected {FORMATS}")
    if source.format == "pgm":
        paths = _pgm_paths(source.path)
        return _iter_pgm(paths, source.frame_count)
    if not os.path.exists(source.path):
        raise FileNotFoundError(f"no such sequence: {source.path}")
    if source.format == "y4m":
        return _iter_y4m(source.path, source.frame_count)
    if source.width is None or source.height is None:
        raise ValueError("raw yuv420 input needs explicit --width and --height")
    _check_dims(source.width, source.height)
    return _iter_yuv420(source.path, source.width, source.height, source.frame_count)


def _check_dims(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError(f"bad frame geometry {width}x{height}")
    if width % 2 or height % 2:
        raise FormatError(
            f"4:2:0 chroma needs even dimensions, got {width}x{height}"
        )


def _iter_y4m(path: str, limit: int | None) -> Iterator[np.ndarray]:
    with open(path, "rb") as stream:
        header = stream.readline()
        if not header.startswith(b"YUV4MPEG2"):
            raise FormatError(f"missing YUV4MPEG2 signature in {path}", offset=0)
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
            marker = stream.readline()
            if marker and not marker.startswith(b"FRAME"):
                raise FormatError(f"expected FRAME marker in {path}", offset=offset)
            return marker != b""

        yield from _read_frames(stream, path, width, height, limit, at_frame)


def _iter_yuv420(
    path: str, width: int, height: int, limit: int | None
) -> Iterator[np.ndarray]:
    with open(path, "rb") as stream:
        yield from _read_frames(
            stream, path, width, height, limit, lambda: stream.peek(1) != b""
        )


def _read_frames(
    stream, path: str, width: int, height: int, limit: int | None, at_frame
) -> Iterator[np.ndarray]:
    """Yield the luma plane of each 4:2:0 frame while fewer than `limit`
    were read and `at_frame()` says another frame starts; a frame cut short
    raises TruncationError."""
    y_size = width * height
    chroma_size = y_size // 2
    frames_read = 0
    while (limit is None or frames_read < limit) and at_frame():
        luma = stream.read(y_size)
        if len(luma) < y_size:
            raise TruncationError(f"truncated luma plane in {path}", frames_read)
        chroma = stream.read(chroma_size)
        if len(chroma) < chroma_size:
            raise TruncationError(
                f"truncated chroma planes in {path}", frames_read
            )
        yield np.frombuffer(luma, dtype=np.uint8).reshape(height, width).copy()
        frames_read += 1


def _pgm_paths(pattern: str) -> list[str]:
    if glob.has_magic(pattern):
        paths = sorted(glob.glob(pattern))
    elif os.path.isdir(pattern):
        paths = sorted(glob.glob(os.path.join(pattern, "*.pgm")))
    else:
        paths = [pattern] if os.path.exists(pattern) else []
    if not paths:
        raise FileNotFoundError(f"no PGM frames match {pattern!r}")
    return paths


def _iter_pgm(paths: list[str], limit: int | None) -> Iterator[np.ndarray]:
    geometry = None
    for frames_read, path in enumerate(paths):
        if limit is not None and frames_read >= limit:
            return
        frame = read_pgm(path)
        if geometry is None:
            geometry = frame.shape
        elif frame.shape != geometry:
            raise FormatError(
                f"{path} is {frame.shape[1]}x{frame.shape[0]} but the sequence "
                f"started as {geometry[1]}x{geometry[0]}"
            )
        yield frame


def read_pgm(path: str) -> np.ndarray:
    """Read one binary (P5) PGM image with maxval 255."""
    data = Path(path).read_bytes()
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            byte = data[pos : pos + 1]
            if byte == b"#":
                newline = data.find(b"\n", pos)
                if newline < 0:
                    raise FormatError(f"unterminated comment in {path}", offset=pos)
                pos = newline + 1
            elif byte.isspace():
                pos += 1
            else:
                break
        if pos >= len(data):
            raise FormatError(f"unexpected end of PGM header in {path}", offset=pos)
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise FormatError(f"{path} is not binary PGM (magic {magic!r})", offset=0)
    try:
        width, height, maxval = (int(next_token()) for _ in range(3))
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"bad PGM header field in {path}: {exc}", offset=pos)
    if maxval != 255:
        raise FormatError(f"{path} has maxval {maxval}, only 255 is supported")
    if width < 1 or height < 1:
        raise FormatError(f"{path} has bad geometry {width}x{height}")
    pos += 1  # single whitespace byte separating header and raster
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise TruncationError(f"truncated raster in {path}", frames_read=0)
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(frame: np.ndarray, path: str) -> None:
    """Write one uint8 frame as binary PGM (used to build fixtures)."""
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode()
    _atomic_write_bytes(path, header + frame.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    """Geometry, per-frame motion (du, dv), length and seed of a synthetic
    clip. max_shift bounds the allowed motion."""

    width: int = 176
    height: int = 144
    frames: int = 10
    du: int = 0
    dv: int = 0
    seed: int = 0
    max_shift: int = 7


def synth_sequence(kind: str, params: SynthParams) -> Iterator[np.ndarray]:
    """Deterministic synthetic clips with known ground truth.

    translate and random_texture_translate roll the base texture by
    (du, dv) per frame with wrap-around, so every block whose displaced
    window stays inside the frame has true motion exactly (du, dv) with a
    zero matching error. static repeats one texture unchanged.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}, expected {SYNTH_KINDS}")
    if params.width < 1 or params.height < 1 or params.frames < 1:
        raise ValueError(
            f"bad synthetic geometry {params.width}x{params.height}"
            f"x{params.frames}"
        )
    if max(abs(params.du), abs(params.dv)) > params.max_shift:
        raise ValueError(
            f"motion ({params.du}, {params.dv}) exceeds the "
            f"+-{params.max_shift} search range"
        )
    if kind == "translate":
        base = _wave_texture(params.width, params.height)
    else:
        base = _noise_texture(params.width, params.height, params.seed)
    return _roll_frames(base, params, static=kind == "static")


def _roll_frames(
    base: np.ndarray, params: SynthParams, static: bool
) -> Iterator[np.ndarray]:
    frame = base
    for _ in range(params.frames):
        yield frame.copy()
        if not static:
            # Rolling by (-dv, -du) makes the current frame's content sit
            # at (+du, +dv) in the frame before it.
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


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    target = Path(path)
    temp = target.with_name(f".{target.name}.tmp{os.getpid()}")
    try:
        temp.write_bytes(payload)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: str, payload: str) -> None:
    _atomic_write_bytes(path, payload.encode())


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


def read_report(path: str) -> SequenceReport:
    """Parse a JSON report back into a SequenceReport; a report without an
    `input` object, such as one written before it was recorded, is rejected."""
    with open(path) as stream:
        try:
            data = json.load(stream)
            if not isinstance(data["input"], dict):
                raise TypeError(f"'input' is {type(data['input']).__name__}, not an object")
            return SequenceReport(
                algorithm=data["algorithm"],
                input=data["input"],
                mean_psnr=float(data["mean_psnr"]),
                mean_search_points=float(data["mean_search_points"]),
                infinite_psnr_frames=int(data["infinite_psnr_frames"]),
                per_frame=[
                    FrameScore(
                        frame_index=int(s["frame_index"]),
                        psnr_db=float(s["psnr_db"]),
                        mse=float(s["mse"]),
                        avg_eval=float(s["avg_eval"]),
                        avg_est=float(s["avg_est"]),
                    )
                    for s in data["per_frame"]
                ],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(
                f"{path} is not a JSON report ({type(exc).__name__}: {exc})"
            ) from None


def write_mv_dump(
    path: str, blocks: Sequence[BlockRef], outcomes: Sequence[FrameOutcome]
) -> None:
    """One CSV row per (frame, block): the predicted frame's index, the
    block anchor, motion vector, cost and evaluation/estimation tallies.
    Each outcome's results follow the order of `blocks`."""
    lines = [MV_DUMP_HEADER]
    for outcome in outcomes:
        for block, result in zip(blocks, outcome.results):
            lines.append(
                f"{outcome.frame_index},{block.x},{block.y},{result.mv.u},{result.mv.v},"
                f"{result.sad},{result.evaluations},{result.estimations}"
            )
    _atomic_write_text(path, "\n".join(lines) + "\n")
