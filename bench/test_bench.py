"""Tests of the benchmark itself: clips, ground truth, metric declarations,
tracing hooks and the diff verdicts.

Run from the repository root: python3 -m pytest bench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from blockmatch.motion import BlockRef, full_search, partition  # noqa: E402
from blockmatch.video_io import SequenceSource, open_sequence  # noqa: E402

import clips  # noqa: E402
import diff  # noqa: E402
import run  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", ["qcif-ref", "cif-n8"])
def test_clip_decodes_to_written_frames(tmp_path, name):
    workload = dataclasses.replace(WORKLOADS[name], frames=3)
    frames = clips.frames(workload, seed=5)
    path = tmp_path / f"clip{workload.suffix}"
    clips.write_clip(str(path), workload, frames)
    source = SequenceSource(format=workload.fmt, path=str(path),
                            width=workload.width, height=workload.height)
    decoded = list(open_sequence(source))
    assert len(decoded) == len(frames)
    for got, want in zip(decoded, frames):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ground_truth_matches_full_search(name):
    workload = dataclasses.replace(WORKLOADS[name], frames=2)
    previous, current = clips.frames(workload, seed=3)
    blocks = partition(current, workload.n)
    valid = [b for b in blocks if clips.true_motion_valid(workload, b.x, b.y)]
    assert len(valid) < len(blocks), "some edge blocks must lack their exact match"
    for block in valid[:: max(1, len(valid) // 12)]:
        result = full_search(current, previous, BlockRef(*block), workload.w)
        assert (result.mv, result.sad) == ((workload.du, workload.dv), 0)


def test_declared_metrics_follow_the_naming_rules():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qcif-ref", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    done = run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_hook_is_reported_and_others_still_attach():
    recorder = Recorder("test")
    recorder.attach(hooks=(
        ("blockmatch.motion", "no_such_entry_point", "motion.gone", "span"),
        ("blockmatch.metrics", "psnr", "metrics.psnr", "span"),
    ))
    import blockmatch.metrics

    try:
        assert recorder.missing == ["blockmatch.motion.no_such_entry_point"]
        assert blockmatch.metrics.psnr(100.0) > 0
        assert recorder.summary()["spans"]["metrics.psnr"]["count"] == 1
    finally:
        blockmatch.metrics.psnr = blockmatch.metrics.psnr.__wrapped__


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(100)))[1:] == (90.0, 100)
    assert run.tail(list(range(1000)))[1:] == (99.0, 1000)
    assert run.tail(list(range(15)))[1:] == (50.0, 15)


def record(workload, seed, value, name="fsa.ms_per_pair"):
    return {"workload": workload, "seed": seed,
            "result": {"metrics": {name: {"value": value, "unit": "ms"}}}}


def test_diff_verdicts():
    base = [record("w", s, v) for s, v in enumerate([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])]
    faster = [record("w", s, 0.8 * v) for s, v in enumerate([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])]
    slower = [record("w", s, 1.4 * r["result"]["metrics"]["fsa.ms_per_pair"]["value"]) for s, r in enumerate(base)]
    noisy = [record("w", s, v) for s, v in enumerate([50, 150, 60, 140, 100, 70, 130, 100, 90, 110])]
    verdict = {label: diff.diff(b, n, SPEC)[0]["verdict"]
               for label, b, n in [("faster", base, faster), ("slower", base, slower),
                                   ("same", base, base), ("noisy", noisy, base)]}
    assert verdict == {"faster": "better", "slower": "worse", "same": "no change",
                       "noisy": "unresolved"}
