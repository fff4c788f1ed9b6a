"""Motion-estimation toolkit: exhaustive, fixed-pattern and
differential-evolution block matching with fitness estimation."""

from .de import Candidate, DeParams
from .estimator import EvaluationRecord, HistoryStore, Rule, StrategyParams
from .metrics import (
    FrameOutcome,
    FrameScore,
    SequenceReport,
    aggregate,
    d_psnr,
    export_pattern_trace,
    mse,
    psnr,
)
from .motion import (
    ALGORITHMS,
    BlockRef,
    BlockResult,
    MotionVector,
    SearchConfig,
    SearchProbe,
    compensate,
    estimate_frame,
    full_search,
    initial_pattern,
    partition,
    sad,
    search_block,
)
from .video_io import (
    FormatError,
    SequenceSource,
    SynthParams,
    TruncationError,
    open_sequence,
    read_pgm,
    read_report,
    synth_sequence,
    write_mv_dump,
    write_pgm,
    write_report,
)

__version__ = "0.1.0"
