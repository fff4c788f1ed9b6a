"""Correctness checks on one round of CLI outputs.

Usage: python3 bench/checks.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload, the seed, each search's report and MV dump
and the `compare` table. The clip is regenerated from the seed, so the
checks do not rely on the program's decoder. RESULT_JSON receives one
{"check", "ok", "detail"} entry per check; each counts as one operation.
"""

import json
import math
import sys

import numpy as np
from blockmatch.metrics import d_psnr
from blockmatch.motion import BlockRef, mv_bounds, sad

import clips
from workloads import WORKLOADS


def read_dump(path: str) -> np.ndarray:
    """Rows of (frame, x, y, u, v, sad, evaluations, estimations)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def recomputed_sad(frames, row, n: int) -> int | None:
    """SAD of one dump row through the public `motion.sad`, on the smallest
    crop holding the block and its match; None if the vector leaves the frame."""
    t, x, y, u, v = (int(c) for c in row[:5])
    height, width = frames[t].shape
    if not (0 <= x + u <= width - n and 0 <= y + v <= height - n):
        return None
    x0, y0 = min(x, x + u), min(y, y + v)
    x1, y1 = max(x, x + u) + n, max(y, y + v) + n
    crop = np.s_[y0:y1, x0:x1]
    return sad(frames[t][crop], frames[t - 1][crop], BlockRef(x - x0, y - y0, n), (u, v))


def run_checks(spec: dict) -> list[dict]:
    workload = WORKLOADS[spec["workload"]]
    n, w = workload.n, workload.w
    frames = clips.frames(workload, spec["seed"])
    dumps = {algo: read_dump(path) for algo, path in spec["dumps"].items()}
    reports = {}
    for algo, path in spec["reports"].items():
        with open(path) as stream:
            reports[algo] = json.load(stream)
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append({"check": name, "ok": bool(ok), "detail": "" if ok else detail})

    expected_rows = workload.pairs * workload.blocks_per_frame
    fsa = dumps["fsa"]
    valid = np.array([clips.true_motion_valid(workload, x, y) for x, y in fsa[:, 1:3]])
    truth_ok = (fsa[valid, 3] == workload.du) & (fsa[valid, 4] == workload.dv) & (fsa[valid, 5] == 0)
    check("fsa.ground_truth", valid.any() and truth_ok.all(),
          f"{int((~truth_ok).sum())} of {int(valid.sum())} blocks miss ({workload.du},{workload.dv}) at SAD 0")

    for algo, dump in dumps.items():
        if dump.shape[0] != expected_rows or not np.array_equal(dump[:, :3], fsa[:, :3]):
            check(f"{algo}.dump_layout", False, f"{dump.shape[0]} rows, expected {expected_rows}")
            continue
        bounds = [mv_bounds(BlockRef(int(x), int(y), n), workload.width, workload.height, w)
                  for x, y in dump[:, 1:3]]
        inside = [umin <= u <= umax and vmin <= v <= vmax
                  for (umin, umax, vmin, vmax), (u, v) in zip(bounds, dump[:, 3:5])]
        check(f"{algo}.mv_bounds", all(inside), f"{inside.count(False)} vectors out of bounds")
        recomputed = [recomputed_sad(frames, row, n) for row in dump]
        mismatches = sum(1 for r, row in zip(recomputed, dump) if r != row[5])
        check(f"{algo}.sad_recompute", mismatches == 0, f"{mismatches} blocks disagree with motion.sad")
        if algo != "fsa":
            worse = int((dump[:, 5] < fsa[:, 5]).sum())
            check(f"{algo}.sad_ge_fsa", worse == 0, f"{worse} blocks beat full search")
        mean_points = dump[:, 6].sum() / dump.shape[0]
        reported = reports[algo]["mean_search_points"]
        check(f"{algo}.mean_search_points", reported == mean_points,
              f"report says {reported}, dump gives {mean_points}")

    if spec.get("compare"):
        with open(spec["compare"]) as stream:
            rows = {row["algorithm"]: row for row in json.load(stream)["rows"]}
        reference = reports["fsa"]["mean_psnr"]
        problems = []
        for algo, report in reports.items():
            row = rows.get(algo)
            if row is None:
                problems.append(f"{algo} missing")
                continue
            if row["mean_psnr"] != report["mean_psnr"]:
                problems.append(f"{algo} mean_psnr {row['mean_psnr']} != {report['mean_psnr']}")
            if row["mean_search_points"] != report["mean_search_points"]:
                problems.append(f"{algo} mean_search_points differ")
            expected = d_psnr(reference, report["mean_psnr"])
            if (row["d_psnr"] is None) != (expected is None) or (
                    expected is not None and not math.isclose(row["d_psnr"], expected, rel_tol=1e-12)):
                problems.append(f"{algo} d_psnr {row['d_psnr']} != {expected}")
        check("compare.agrees_with_runs", not problems, "; ".join(problems))
    return results


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as stream:
        spec = json.load(stream)
    with open(result_path, "w") as stream:
        json.dump(run_checks(spec), stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
