"""End-to-end tests for the benchmark harness CLI."""

import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import blockmatch
from blockmatch.cli import main
from blockmatch.motion import ALGORITHMS
from blockmatch.video_io import (
    SequenceSource,
    SynthParams,
    open_sequence,
    synth_sequence,
    write_pgm,
)


def run_cli(*argv):
    return main(list(argv))


def read_dump_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def interior_qcif(row):
    x, y = int(row["x"]), int(row["y"])
    return 16 <= x <= 144 and 16 <= y <= 112


class TestRun:
    def test_static_clip_exhaustive_reference(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        dump_path = tmp_path / "mv.csv"
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "static",
            "--frames", "10",
            "--out", str(report_path),
            "--mv-dump", str(dump_path),
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["algorithm"] == "fsa"
        assert report["infinite_psnr_frames"] == 9
        assert len(report["per_frame"]) == 9
        rows = [r for r in read_dump_rows(dump_path) if interior_qcif(r)]
        assert rows and all(int(r["evaluations"]) == 225 for r in rows)
        assert "mean_search_points" in capsys.readouterr().out

    def test_debm_reports_are_byte_identical_across_runs(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            report_path = tmp_path / f"report_{name}.json"
            dump_path = tmp_path / f"mv_{name}.csv"
            status = run_cli(
                "run",
                "--algo", "debm",
                "--format", "synth",
                "--input", "random:3,-2",
                "--frames", "4",
                "--seed", "1",
                "--out", str(report_path),
                "--mv-dump", str(dump_path),
            )
            assert status == 0
            outputs.append((report_path.read_bytes(), dump_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_debm_search_points_stay_far_below_fixed_patterns(self, tmp_path):
        report_path = tmp_path / "report.json"
        status = run_cli(
            "run",
            "--algo", "debm",
            "--format", "synth",
            "--input", "random:2,-1",
            "--frames", "4",
            "--out", str(report_path),
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["mean_search_points"] < 25

    def test_csv_report(self, tmp_path):
        report_path = tmp_path / "report.csv"
        status = run_cli(
            "run",
            "--algo", "ds",
            "--format", "synth",
            "--input", "translate:1,0",
            "--frames", "3",
            "--out", str(report_path),
        )
        assert status == 0
        lines = report_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2

    def test_pgm_sequence_input_with_inferred_format(self, tmp_path):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        for index in range(3):
            write_pgm(
                np.roll(base, shift=(0, -index), axis=(0, 1)),
                str(tmp_path / f"f{index}.pgm"),
            )
        report_path = tmp_path / "report.json"
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--input", str(tmp_path / "*.pgm"),
            "--out", str(report_path),
        )
        assert status == 0
        assert json.loads(report_path.read_text())["infinite_psnr_frames"] == 0

    def test_failure_removes_partial_outputs(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        bad_dump = tmp_path / "missing" / "mv.csv"
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "static",
            "--frames", "3",
            "--out", str(report_path),
            "--mv-dump", str(bad_dump),
        )
        assert status == 1
        assert not report_path.exists()
        assert "error:" in capsys.readouterr().err

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the report path is an existing directory, so the final rename fails
        target = tmp_path / "D"
        target.mkdir()
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "random:1,1",
            "--frames", "2",
            "--out", str(target),
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["D"]
        assert list(target.iterdir()) == []

    def test_unreadable_input_fails_with_diagnostic(self, tmp_path, capsys):
        status = run_cli(
            "run", "--algo", "fsa", "--input", str(tmp_path / "nope.y4m")
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_format_needs_flag(self, tmp_path, capsys):
        data = tmp_path / "clip.bin"
        data.write_bytes(b"\0" * 100)
        status = run_cli("run", "--algo", "fsa", "--input", str(data))
        assert status == 1
        assert "--format" in capsys.readouterr().err

    def test_input_identity_covers_decoded_luma(self, tmp_path):
        # the same luma planes as y4m and as raw 4:2:0 with other chroma
        rng = np.random.default_rng(9)
        width, height = 48, 32
        lumas = [rng.integers(0, 256, (height, width), dtype=np.uint8) for _ in range(3)]
        chroma = width * height // 2
        y4m, yuv = tmp_path / "clip.y4m", tmp_path / "clip.yuv"
        y4m.write_bytes(
            f"YUV4MPEG2 W{width} H{height} F25:1 C420\n".encode()
            + b"".join(b"FRAME\n" + y.tobytes() + bytes(chroma) for y in lumas)
        )
        yuv.write_bytes(b"".join(y.tobytes() + rng.bytes(chroma) for y in lumas))
        identities = []
        for path, extra in ((y4m, ()), (yuv, ("--width", "48", "--height", "32"))):
            report = tmp_path / f"{path.suffix[1:]}.json"
            status = run_cli(
                "run", "--algo", "fsa", "--input", str(path), *extra,
                "--block-size", "8", "--search-range", "3", "--out", str(report),
            )
            assert status == 0
            identities.append(json.loads(report.read_text())["input"])
        crc = 0
        for frame in open_sequence(SequenceSource("y4m", str(y4m))):
            crc = zlib.crc32(frame, crc)
        assert identities[0] == identities[1] == {
            "width": 48, "height": 32, "frames": 3, "n": 8, "w": 3,
            "crc32": f"{crc:08x}",
        }


class TestCompare:
    def test_self_comparison_has_zero_degradation(self, tmp_path):
        clip = ("--format", "synth", "--input", "translate:2,1", "--frames", "3")
        ref_path = tmp_path / "fsa.json"
        assert run_cli("run", "--algo", "fsa", *clip, "--out", str(ref_path)) == 0
        out = tmp_path / "table.json"
        status = run_cli(
            "compare", "--algo", "fsa", *clip,
            "--reference", str(ref_path), "--out", str(out),
        )
        assert status == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1
        assert rows[0]["d_psnr"] == 0.0

    def test_duplicate_algorithm_rejected(self, capsys):
        status = run_cli(
            "compare", "--algo", "fsa,fsa,tss",
            "--format", "synth", "--input", "static", "--frames", "3",
        )
        assert status == 1
        assert "['fsa'] requested more than once" in capsys.readouterr().err

    def test_reference_for_another_clip_rejected(self, tmp_path, capsys):
        ref_path = tmp_path / "fsa.json"
        status = run_cli(
            "run", "--algo", "fsa", "--format", "synth", "--input", "random:1,1",
            "--frames", "3", "--out", str(ref_path),
        )
        assert status == 0
        status = run_cli(
            "compare", "--algo", "tss", "--format", "synth", "--input",
            "random:1,1", "--width", "64", "--height", "64", "--frames", "6",
            "--reference", str(ref_path),
        )
        assert status == 1
        assert "frames 3 vs 6" in capsys.readouterr().err

    def test_reference_for_another_geometry_rejected(self, tmp_path, capsys):
        ref_path, out = tmp_path / "fsa.json", tmp_path / "table.json"
        status = run_cli(
            "run", "--algo", "fsa", "--format", "synth", "--input", "random:1,1",
            "--frames", "3", "--out", str(ref_path),
        )
        assert status == 0
        stored = json.loads(ref_path.read_text())["input"]["crc32"]
        small = ("--format", "synth", "--input", "random:2,2", "--frames", "3")
        status = run_cli(
            "compare", "--algo", "tss", *small, "--width", "64", "--height", "64",
            "--reference", str(ref_path), "--out", str(out),
        )
        assert status == 1
        assert "width 176 vs 64, height 144 vs 64" in capsys.readouterr().err
        assert not out.exists()
        # the same geometry with other content differs only in its digest
        crc = 0
        for frame in synth_sequence(
            "random_texture_translate", SynthParams(du=2, dv=2, frames=3)
        ):
            crc = zlib.crc32(frame, crc)
        status = run_cli(
            "compare", "--algo", "tss", *small, "--reference", str(ref_path),
            "--out", str(out),
        )
        assert status == 1
        assert capsys.readouterr().err == (
            "error: --reference was computed on another input: "
            f"crc32 {stored} vs {crc:08x}\n"
        )
        assert not out.exists()

    def test_reference_from_before_input_identity_rejected(self, tmp_path, capsys):
        # the report format without `input`, which carried `d_psnr` instead
        ref_path, out = tmp_path / "fsa.json", tmp_path / "table.json"
        clip = ("--format", "synth", "--input", "translate:2,1", "--frames", "3")
        assert run_cli("run", "--algo", "fsa", *clip, "--out", str(ref_path)) == 0
        report = json.loads(ref_path.read_text())
        del report["input"]
        report["d_psnr"] = None
        ref_path.write_text(json.dumps(report, indent=2) + "\n")
        status = run_cli(
            "compare", "--algo", "tss", *clip, "--reference", str(ref_path),
            "--out", str(out),
        )
        assert status == 1
        assert f"{ref_path} is not a JSON report" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, name",
        [("run", "fsa.csv"), ("compare", "table.json")],
        ids=["csv-report", "compare-table"],
    )
    def test_non_report_reference_names_the_file(
        self, tmp_path, capsys, subcommand, name
    ):
        # a CSV report is not JSON; a compare table is JSON but no report
        ref_path = tmp_path / name
        clip = ("--format", "synth", "--input", "static", "--frames", "3")
        assert run_cli(subcommand, "--algo", "fsa", *clip, "--out", str(ref_path)) == 0
        status = run_cli(
            "compare", "--algo", "tss", *clip, "--reference", str(ref_path)
        )
        assert status == 1
        assert f"{ref_path} is not a JSON report" in capsys.readouterr().err

    def test_full_table_ranks_are_a_permutation(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        status = run_cli(
            "compare",
            "--algo", "fsa,debm,tss,ds",
            "--format", "synth",
            "--input", "random:2,-1",
            "--frames", "3",
            "--seed", "3",
            "--out", str(out),
        )
        assert status == 0
        rows = json.loads(out.read_text())["rows"]
        assert sorted(row["rank"] for row in rows) == [1, 2, 3, 4]
        by_algo = {row["algorithm"]: row for row in rows}
        assert by_algo["fsa"]["d_psnr"] == 0.0
        assert by_algo["fsa"]["mean_search_points"] == max(
            row["mean_search_points"] for row in rows
        )
        # rank 1 is the cheapest searcher
        cheapest = min(rows, key=lambda row: row["mean_search_points"])
        assert cheapest["rank"] == 1
        table = capsys.readouterr().out
        assert "algorithm" in table and "rank" in table

    def test_reference_report_reused(self, tmp_path):
        ref_path = tmp_path / "fsa.json"
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "translate:2,1",
            "--frames", "3",
            "--out", str(ref_path),
        )
        assert status == 0
        out = tmp_path / "table.json"
        status = run_cli(
            "compare",
            "--algo", "tss,ds",
            "--format", "synth",
            "--input", "translate:2,1",
            "--frames", "3",
            "--reference", str(ref_path),
            "--out", str(out),
        )
        assert status == 0
        rows = json.loads(out.read_text())["rows"]
        assert {row["algorithm"] for row in rows} == {"tss", "ds"}

    def test_missing_reference_is_config_error(self, capsys):
        status = run_cli(
            "compare",
            "--algo", "tss,ds",
            "--format", "synth",
            "--input", "static",
            "--frames", "3",
        )
        assert status == 1
        assert "fsa" in capsys.readouterr().err

    def test_non_fsa_reference_rejected(self, tmp_path, capsys):
        ref_path = tmp_path / "tss.json"
        run_cli(
            "run",
            "--algo", "tss",
            "--format", "synth",
            "--input", "static",
            "--frames", "3",
            "--out", str(ref_path),
        )
        status = run_cli(
            "compare",
            "--algo", "ds",
            "--format", "synth",
            "--input", "static",
            "--frames", "3",
            "--reference", str(ref_path),
        )
        assert status == 1
        assert "fsa" in capsys.readouterr().err


class TestTrace:
    def test_exhaustive_trace_covers_window(self, tmp_path):
        out = tmp_path / "trace.json"
        status = run_cli(
            "trace",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "random:3,-2",
            "--frames", "2",
            "--trace-block", "48,48",
            "--out", str(out),
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["counts"]["evaluated"] == 225
        assert doc["counts"]["estimated"] == 0
        assert doc["block"] == {"x": 48, "y": 48, "n": 16}
        assert len(doc["grid"]) == 15

    def test_debm_trace_partitions_window(self, tmp_path):
        out = tmp_path / "trace.json"
        status = run_cli(
            "trace",
            "--algo", "debm",
            "--format", "synth",
            "--input", "random:3,-2",
            "--frames", "2",
            "--seed", "5",
            "--trace-block", "48,48",
            "--out", str(out),
        )
        assert status == 0
        doc = json.loads(out.read_text())
        counts = doc["counts"]
        assert counts["evaluated"] + counts["estimated"] + counts["unvisited"] == 225
        assert 5 <= doc["evaluations"] <= 40
        assert doc["evaluations"] + doc["estimations"] == 40
        evaluated_visits = [v for v in doc["visits"] if v["kind"] == "evaluated"]
        assert len(evaluated_visits) == doc["evaluations"]
        u, v = doc["minimum"]
        assert {"u": u, "v": v, "kind": "evaluated"} in doc["visits"]

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_trace_matches_full_run_accounting(self, tmp_path, algo):
        dump_path = tmp_path / "mv.csv"
        run_cli(
            "run",
            "--algo", algo,
            "--format", "synth",
            "--input", "random:2,-1",
            "--frames", "2",
            "--seed", "9",
            "--mv-dump", str(dump_path),
        )
        out = tmp_path / "trace.json"
        run_cli(
            "trace",
            "--algo", algo,
            "--format", "synth",
            "--input", "random:2,-1",
            "--frames", "2",
            "--seed", "9",
            "--trace-block", "32,16",
            "--out", str(out),
        )
        doc = json.loads(out.read_text())
        row = next(
            r
            for r in read_dump_rows(dump_path)
            if r["x"] == "32" and r["y"] == "16" and r["frame"] == "1"
        )
        assert int(row["evaluations"]) == doc["evaluations"]
        assert int(row["estimations"]) == doc["estimations"]
        assert int(row["sad"]) == doc["sad"]
        assert [int(row["u"]), int(row["v"])] == doc["minimum"]

    def test_misaligned_block_lists_valid_anchors(self, tmp_path, capsys):
        status = run_cli(
            "trace",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "static",
            "--frames", "2",
            "--trace-block", "17,48",
            "--out", str(tmp_path / "trace.json"),
        )
        assert status == 1
        message = capsys.readouterr().err
        assert "partition grid" in message
        assert "16" in message and "32" in message

    def test_frame_out_of_range(self, tmp_path, capsys):
        status = run_cli(
            "trace",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "static",
            "--frames", "2",
            "--frame", "5",
            "--trace-block", "16,16",
            "--out", str(tmp_path / "trace.json"),
        )
        assert status == 1
        assert "1..1" in capsys.readouterr().err


class TestArgumentSurface:
    def test_unknown_algorithm_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--algo", "bogus", "--input", "x")

    def test_bad_synth_motion_spec(self, capsys):
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "translate:3",
            "--frames", "2",
        )
        assert status == 1
        assert "du,dv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "geometry",
        [("--frames", "0"), ("--width", "0", "--height", "0")],
        ids=["frames", "size"],
    )
    def test_explicit_zero_synth_geometry_rejected(self, geometry, capsys):
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "random:1,1",
            *geometry,
        )
        assert status == 1
        assert "bad synthetic geometry" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("command", ["run", "compare", "trace"])
    def test_clip_without_a_frame_pair_rejected(self, tmp_path, capsys, command, count):
        header = b"YUV4MPEG2 W16 H16 F25:1 C420\n"
        frame = b"FRAME\n" + bytes(16 * 16 * 3 // 2)
        (tmp_path / "pair.y4m").write_bytes(header + frame * 2)
        reference = tmp_path / "fsa.json"
        assert run_cli("run", "--algo", "fsa", "--input", str(tmp_path / "pair.y4m"),
                       "--out", str(reference)) == 0
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(header + frame * count)
        out = tmp_path / "out.json"
        extra = {
            "run": ["--algo", "fsa"],
            "compare": ["--reference", str(reference)],
            "trace": ["--algo", "fsa", "--trace-block", "0,0"],
        }[command]
        capsys.readouterr()
        status = run_cli(command, "--input", str(clip), *extra, "--out", str(out))
        assert status == 1
        assert capsys.readouterr().err == f"error: need at least two frames, got {count}\n"
        assert not out.exists()

    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: the CLI, synthetic clips
        # included, must import and run with it blocked.
        script = (
            "import sys; sys.modules['scipy'] = None\n"
            "from blockmatch.cli import main\n"
            "sys.exit(main(['run', '--algo', 'fsa', '--format', 'synth',"
            " '--input', 'random:1,1', '--frames', '2',"
            " '--width', '32', '--height', '32']))\n"
        )
        src = os.path.dirname(os.path.dirname(blockmatch.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "fsa: frame_pairs=1" in done.stdout

    def test_cli_import_leaves_hashlib_unloaded(self):
        # hashlib loads OpenSSL's _hashlib, about 3.4 MB of resident memory
        # on top of numpy; the report's input identity uses zlib's crc32.
        script = (
            "import sys\n"
            "import blockmatch.cli\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(blockmatch.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
