"""Benchmark harness for the motion-search algorithms.

Three subcommands: `run` estimates motion for every consecutive frame
pair with one algorithm and reports coding quality and search effort,
`compare` tabulates the algorithms named in --algo against a full search
(fsa) that it always runs on the same input, and `trace` dumps the
visited-cell pattern of a single block search. Human summaries go to
stdout; machine artifacts are only written where --out/--mv-dump point,
and neither may name the input or the other output.
"""

import argparse
import contextlib
import math
import os
import sys
import zlib

import numpy as np

from .metrics import (
    FrameOutcome,
    SequenceReport,
    aggregate,
    d_psnr,
    export_pattern_trace,
    mse,
)
from .motion import (
    ALGORITHMS,
    BlockRef,
    SearchConfig,
    SearchProbe,
    compensate,
    estimate_frame,
    partition,
    search_block,
)
from .video_io import (
    FORMATS,
    SequenceSource,
    SynthParams,
    open_sequence,
    synth_sequence,
    write_json,
    write_mv_dump,
    write_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmatch",
        description="Block-matching motion estimation benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input",
        required=True,
        help="sequence path (or synthetic spec like 'translate:3,-2' with "
        "--format synth)",
    )
    common.add_argument(
        "--format",
        choices=FORMATS + ("synth",),
        help="input format; inferred from the file suffix when omitted",
    )
    common.add_argument("--width", type=int, help="frame width (yuv420 and synth)")
    common.add_argument("--height", type=int, help="frame height (yuv420 and synth)")
    common.add_argument("--frames", type=int, help="max frames to read or generate")
    common.add_argument("--block-size", type=int, default=16)
    common.add_argument("--search-range", type=int, default=7)
    common.add_argument("--seed", type=int, default=0)

    run_p = sub.add_parser("run", parents=[common], help="run one algorithm")
    run_p.add_argument("--algo", choices=ALGORITHMS, required=True)
    run_p.add_argument("--out", help="report file (.json or .csv)")
    run_p.add_argument("--mv-dump", help="per-block motion-vector CSV")
    run_p.set_defaults(handler=cmd_run)

    cmp_p = sub.add_parser(
        "compare", parents=[common], help="compare algorithms against fsa"
    )
    cmp_p.add_argument(
        "--algo",
        default="fsa,debm,tss,ds",
        help="comma-separated algorithm list (default: fsa,debm,tss,ds)",
    )
    cmp_p.add_argument("--out", help="comparison table JSON")
    cmp_p.set_defaults(handler=cmd_compare)

    trc_p = sub.add_parser(
        "trace", parents=[common], help="dump one block's search pattern"
    )
    trc_p.add_argument("--algo", choices=ALGORITHMS, required=True)
    trc_p.add_argument(
        "--trace-block", required=True, metavar="X,Y", help="block anchor"
    )
    trc_p.add_argument(
        "--frame", type=int, default=1, help="frame index to predict (default 1)"
    )
    trc_p.add_argument("--out", required=True, help="trace JSON path")
    trc_p.set_defaults(handler=cmd_trace)
    return parser


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------

_SUFFIX_FORMATS = {".y4m": "y4m", ".yuv": "yuv420"}


def _resolve_format(args) -> str:
    if args.format:
        return args.format
    suffix = os.path.splitext(args.input)[1].lower()
    if suffix in _SUFFIX_FORMATS:
        return _SUFFIX_FORMATS[suffix]
    raise ValueError(
        f"cannot infer format from {args.input!r}; pass --format"
    )


def _int_pair(text: str, what: str, names: str) -> tuple[int, int]:
    """Two integers written 'a,b'; `what` and `names` word the error."""
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}, expected '{names}'") from None


def _parse_synth_spec(spec: str, args) -> tuple[str, SynthParams]:
    label, _, motion = spec.partition(":")
    kinds = {"translate": "translate", "random": "random_texture_translate"}
    if label not in kinds:
        raise ValueError(
            f"unknown synthetic kind {label!r}, expected one of {', '.join(kinds)}"
        )
    kind = kinds[label]
    du, dv = _int_pair(motion, "synthetic motion", "du,dv") if motion else (0, 0)
    if max(abs(du), abs(dv)) > args.search_range:
        raise ValueError(
            f"motion ({du}, {dv}) exceeds the +-{args.search_range} search range"
        )
    given = {"width": args.width, "height": args.height, "frames": args.frames}
    params = SynthParams(
        du=du,
        dv=dv,
        seed=args.seed,
        # unset flags take the SynthParams defaults; synth_sequence rejects 0
        **{name: value for name, value in given.items() if value is not None},
    )
    return kind, params


def load_frames(args) -> list[np.ndarray]:
    """Every frame of the input; fewer than two leave no pair to predict."""
    fmt = _resolve_format(args)
    if fmt == "synth":
        kind, params = _parse_synth_spec(args.input, args)
        frames = list(synth_sequence(kind, params))
    else:
        source = SequenceSource(
            format=fmt,
            path=args.input,
            width=args.width,
            height=args.height,
            frame_count=args.frames,
        )
        frames = list(open_sequence(source))
    if len(frames) < 2:
        raise ValueError(f"need at least two frames, got {len(frames)}")
    return frames


def build_config(args) -> SearchConfig:
    return SearchConfig(w=args.search_range, n=args.block_size, rng_seed=args.seed)


# ---------------------------------------------------------------------------
# Shared pipeline
# ---------------------------------------------------------------------------


def input_identity(frames: list[np.ndarray], config: SearchConfig) -> dict:
    """Frame size and count, block size, search range and a crc32 chained over
    the decoded luma frames in order: what a report was computed from. It is
    recorded for the reader; the program does not check it."""
    crc = 0
    for frame in frames:
        crc = zlib.crc32(frame, crc)
    height, width = frames[0].shape
    return {"width": width, "height": height, "frames": len(frames),
            "n": config.n, "w": config.w, "crc32": f"{crc:08x}"}


def run_sequence(
    frames: list[np.ndarray], config: SearchConfig, algorithm: str
) -> tuple[SequenceReport, list[FrameOutcome]]:
    """Estimate, compensate and score every consecutive frame pair.

    Returns the aggregated report and one FrameOutcome per predicted frame
    t = 1..len(frames)-1, whose block results follow partition(frames[0], n).
    """
    outcomes = []
    for t in range(1, len(frames)):
        mv_field, results = estimate_frame(
            frames[t], frames[t - 1], config, algorithm
        )
        predicted = compensate(frames[t - 1], mv_field, config.n)
        outcomes.append(FrameOutcome(t, mse(frames[t], predicted), results))
    return aggregate(algorithm, outcomes, input_identity(frames, config)), outcomes


def _fmt_db(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.2f}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args, written: list[str]) -> str:
    config = build_config(args)
    frames = load_frames(args)
    report, outcomes = run_sequence(frames, config, args.algo)
    blocks = partition(frames[0], config.n)
    if args.out:
        write_report(report, args.out)
        written.append(args.out)
    if args.mv_dump:
        write_mv_dump(args.mv_dump, blocks, outcomes)
        written.append(args.mv_dump)
    extra = (
        f" exact_frames={report.infinite_psnr_frames}"
        if report.infinite_psnr_frames
        else ""
    )
    return (
        f"{args.algo}: frame_pairs={len(report.per_frame)} "
        f"blocks_per_frame={len(blocks)} mean_psnr={_fmt_db(report.mean_psnr)}"
        f"{extra} mean_search_points={report.mean_search_points:.2f}"
    )


def cmd_compare(args, written: list[str]) -> str:
    """Tabulate each search in --algo against one fsa run on the same input,
    which is also the fsa row when --algo lists fsa."""
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm(s) {unknown}, expected {ALGORITHMS}")
    if not algos:
        raise ValueError("no algorithms requested")
    repeated = sorted({a for a in algos if algos.count(a) > 1})
    if repeated:
        raise ValueError(f"algorithm(s) {repeated} requested more than once")
    config = build_config(args)
    frames = load_frames(args)
    reference = run_sequence(frames, config, "fsa")[0]

    rows = []
    for algo in algos:
        report = reference if algo == "fsa" else run_sequence(frames, config, algo)[0]
        rows.append(
            {
                "algorithm": algo,
                "mean_psnr": report.mean_psnr,
                "d_psnr": d_psnr(reference.mean_psnr, report.mean_psnr),
                "mean_search_points": report.mean_search_points,
            }
        )
    # Rank 1 = fewest true evaluations per block; ties keep list order.
    for rank, row in enumerate(
        sorted(rows, key=lambda r: r["mean_search_points"]), start=1
    ):
        row["rank"] = rank

    if args.out:
        write_json({"reference": "fsa", "rows": rows}, args.out)
        written.append(args.out)

    lines = [
        f"{'algorithm':<10} {'mean_psnr':>10} {'d_psnr%':>9} {'points':>8} {'rank':>5}"
    ]
    for row in rows:
        dp = "n/a" if row["d_psnr"] is None else f"{row['d_psnr']:.2f}"
        lines.append(
            f"{row['algorithm']:<10} {_fmt_db(row['mean_psnr']):>10} {dp:>9} "
            f"{row['mean_search_points']:>8.2f} {row['rank']:>5}"
        )
    return "\n".join(lines)


def cmd_trace(args, written: list[str]) -> str:
    config = build_config(args)
    frames = load_frames(args)
    if not 1 <= args.frame < len(frames):
        raise ValueError(
            f"frame {args.frame} out of range; predictable frames are "
            f"1..{len(frames) - 1}"
        )
    x, y = _int_pair(args.trace_block, "--trace-block", "x,y")

    current, previous = frames[args.frame], frames[args.frame - 1]
    blocks = partition(current, config.n)
    anchors = {(b.x, b.y): i for i, b in enumerate(blocks)}
    if (x, y) not in anchors:
        xs = sorted({b.x for b in blocks})
        ys = sorted({b.y for b in blocks})
        raise ValueError(
            f"block ({x}, {y}) is not on the partition grid; valid x: "
            f"{xs}, valid y: {ys}"
        )
    probe = SearchProbe()
    result = search_block(
        args.algo, current, previous, BlockRef(x, y, config.n), config,
        anchors[(x, y)], probe,
    )

    document = {
        "algorithm": args.algo,
        "frame": args.frame,
        "block": {"x": x, "y": y, "n": config.n},
        "sad": result.sad,
        "evaluations": result.evaluations,
        "estimations": result.estimations,
    }
    document.update(export_pattern_trace(probe.visits, result.mv, config.w))
    write_json(document, args.out)
    written.append(args.out)
    return (
        f"{args.algo} block ({x},{y}) frame {args.frame}: mv=({result.mv.u},"
        f"{result.mv.v}) sad={result.sad} evaluations={result.evaluations} "
        f"estimations={result.estimations} -> {args.out}"
    )


def _check_paths(args) -> None:
    """Reject --out and --mv-dump naming the same file, or naming the input
    file (a synthetic spec names no file)."""
    named = {"--input": args.input if os.path.isfile(args.input) else None,
             "--out": args.out,
             "--mv-dump": getattr(args, "mv_dump", None)}
    seen: dict[str, str] = {}
    for flag, path in named.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"{flag} names the same file as {seen[real]}: {path}")
            seen[real] = flag


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, which lists each file it writes in `written`
    and returns its stdout summary. On any error the listed files are
    removed, the error goes to stderr and the exit status is 1."""
    args = build_parser().parse_args(argv)
    written: list[str] = []
    try:
        _check_paths(args)
        summary = args.handler(args, written)
    except Exception as exc:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
