"""Coding-quality and search-efficiency metrics.

PSNR is computed against the motion-compensated prediction over the full
frame with an 8-bit peak (255); the degradation ratio expresses, in
percent, how far an algorithm's PSNR falls below the exhaustive-search
reference. Search efficiency is the average number of true cost
evaluations per block.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimator import ESTIMATED, EVALUATED
from .motion import BlockResult, CellVisit, MotionVector

PEAK = 255.0


@dataclass
class FrameScore:
    """Quality and per-block search effort for one predicted frame.
    psnr_db is math.inf when the prediction is exact (mse 0). The field
    names are the report's per-frame JSON keys and CSV columns."""

    frame_index: int
    psnr_db: float
    mse: float
    avg_eval: float
    avg_est: float


@dataclass
class FrameOutcome:
    """Raw per-frame material entering aggregation: the prediction error
    and every block's search result."""

    frame_index: int
    mse: float
    results: list[BlockResult]


@dataclass
class SequenceReport:
    """Field names are the JSON report's keys, see video_io.write_report."""

    algorithm: str
    input: dict  # what the report was computed from, see cli.input_identity
    mean_psnr: float
    mean_search_points: float
    infinite_psnr_frames: int
    per_frame: list[FrameScore] = field(default_factory=list)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Full-frame mean squared error."""
    if a.shape != b.shape:
        raise ValueError(f"frame dimensions differ: {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(mse_value: float) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for a zero error."""
    if mse_value < 0:
        raise ValueError(f"mse must be nonnegative, got {mse_value}")
    if mse_value == 0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse_value)


def d_psnr(psnr_fsa: float, psnr_bm: float) -> float | None:
    """Degradation of psnr_bm relative to the exhaustive-search reference,
    as a (typically negative) percentage; None when the reference is
    infinite or nonpositive, where the ratio is undefined."""
    if not math.isfinite(psnr_fsa) or not math.isfinite(psnr_bm) or psnr_fsa <= 0:
        return None
    # The +0.0 folds an IEEE -0.0 (exact-match case) into plain 0.0.
    return -((psnr_fsa - psnr_bm) / psnr_fsa) * 100.0 + 0.0


def frame_score(
    frame_index: int, mse_value: float, results: Sequence[BlockResult]
) -> FrameScore:
    if not results:
        raise ValueError("a frame score needs at least one block result")
    count = len(results)
    return FrameScore(
        frame_index,
        psnr(mse_value),
        mse_value,
        sum(r.evaluations for r in results) / count,
        sum(r.estimations for r in results) / count,
    )


def aggregate(
    algorithm: str, outcomes: Sequence[FrameOutcome], input: dict
) -> SequenceReport:
    """Fold per-frame outcomes on `input` into one sequence-level report.

    Mean PSNR averages the finite per-frame values; exact frames (infinite
    PSNR) are excluded from the mean and reported as a separate count.
    Mean search points is total true evaluations over total blocks.
    """
    if not outcomes:
        raise ValueError("cannot aggregate an empty sequence")
    scores = [frame_score(o.frame_index, o.mse, o.results) for o in outcomes]
    finite = [s.psnr_db for s in scores if math.isfinite(s.psnr_db)]
    mean_psnr = sum(finite) / len(finite) if finite else math.inf
    total_evaluations = sum(r.evaluations for o in outcomes for r in o.results)
    total_blocks = sum(len(o.results) for o in outcomes)
    return SequenceReport(
        algorithm=algorithm,
        input=input,
        mean_psnr=mean_psnr,
        mean_search_points=total_evaluations / total_blocks,
        infinite_psnr_frames=len(scores) - len(finite),
        per_frame=scores,
    )


# ---------------------------------------------------------------------------
# Search-pattern traces
# ---------------------------------------------------------------------------

UNVISITED = "unvisited"


def export_pattern_trace(
    visits: Sequence[CellVisit], mv: MotionVector | tuple[int, int], w: int
) -> dict:
    """Render one block search as a (2w+1)^2 cell grid.

    Each cell is tagged unvisited, estimated, or evaluated (evaluated wins
    when a cell saw both); the winning cell is reported separately so it
    still counts in its visit class. Rows run v = -w..w, columns u = -w..w.
    """
    size = 2 * w + 1
    grid = [[UNVISITED] * size for _ in range(size)]
    for visit in visits:
        if abs(visit.u) > w or abs(visit.v) > w:
            raise ValueError(f"visit {visit} lies outside the +-{w} window")
        row, col = visit.v + w, visit.u + w
        if visit.kind == EVALUATED or grid[row][col] == UNVISITED:
            grid[row][col] = visit.kind
    return {
        "w": w,
        "minimum": [int(mv[0]), int(mv[1])],
        "grid": grid,
        "visits": [{"u": c.u, "v": c.v, "kind": c.kind} for c in visits],
        "counts": {
            "evaluated": sum(row.count(EVALUATED) for row in grid),
            "estimated": sum(row.count(ESTIMATED) for row in grid),
            "unvisited": sum(row.count(UNVISITED) for row in grid),
        },
    }
