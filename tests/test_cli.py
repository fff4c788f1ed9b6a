"""End-to-end tests for the benchmark harness CLI."""

import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import blockmatch
from blockmatch import cli
from blockmatch.cli import main
from blockmatch.motion import ALGORITHMS
from blockmatch.video_io import SequenceSource, open_sequence


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
            "--input", "random:0,0",
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

    def test_failure_removes_partial_outputs(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        bad_dump = tmp_path / "missing" / "mv.csv"
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "random:0,0",
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
        # neither a .pgm file nor a pattern is an input, and an --out that a
        # pattern matches must stay untouched
        (tmp_path / "clip.bin").write_bytes(b"\0" * 100)
        for name in ("clip.pgm", "f0.pgm", "f1.pgm", "f2.pgm"):
            (tmp_path / name).write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for name, out in (("clip.bin", "report.json"),
                          ("clip.pgm", "report.json"),
                          ("f*.pgm", "f2.pgm")):
            status = run_cli(
                "run", "--algo", "fsa", "--block-size", "4", "--search-range", "2",
                "--input", str(tmp_path / name), "--out", str(tmp_path / out),
            )
            assert status == 1, name
            assert "--format" in capsys.readouterr().err, name
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
        out = tmp_path / "table.json"
        status = run_cli("compare", "--algo", "fsa", *clip, "--out", str(out))
        assert status == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1
        assert rows[0]["d_psnr"] == 0.0

    def test_duplicate_algorithm_rejected(self, capsys):
        status = run_cli(
            "compare", "--algo", "fsa,fsa,tss",
            "--format", "synth", "--input", "random:0,0", "--frames", "3",
        )
        assert status == 1
        assert "['fsa'] requested more than once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algos, message",
        [
            ("tss,", "--algo 'tss,' has an empty entry"),
            ("fsa,,ds", "--algo 'fsa,,ds' has an empty entry"),
            ("", "--algo '' has an empty entry"),
            ("bogus", "unknown algorithm(s) ['bogus']"),
        ],
        ids=["trailing-comma", "double-comma", "empty", "unknown"],
    )
    def test_bad_algorithm_list_rejected(self, tmp_path, capsys, algos, message):
        status = run_cli(
            "compare", "--algo", algos,
            "--format", "synth", "--input", "random:0,0", "--frames", "3",
            "--out", str(tmp_path / "table.json"),
        )
        assert status == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_reference_runs_when_fsa_is_not_listed(self, tmp_path, monkeypatch):
        calls = []
        counted = cli.run_sequence

        def counting(frames, config, algorithm):
            calls.append(algorithm)
            return counted(frames, config, algorithm)

        monkeypatch.setattr(cli, "run_sequence", counting)
        # large motion, so that tss and ds lose PSNR against the reference
        clip = ("--format", "synth", "--input", "random:6,-5", "--frames", "3",
                "--width", "64", "--height", "64", "--seed", "5")
        tables = {}
        for algos in ("fsa,tss,ds", "tss,ds"):
            calls.clear()
            out = tmp_path / f"{algos}.json"
            assert run_cli("compare", "--algo", algos, *clip, "--out", str(out)) == 0
            listed = algos.split(",")
            assert sorted(calls) == sorted({"fsa", *listed})
            assert len(calls) == len(listed) + ("fsa" not in listed)
            rows = json.loads(out.read_text())["rows"]
            assert [row["algorithm"] for row in rows] == listed
            tables[algos] = {
                row["algorithm"]: {k: v for k, v in row.items() if k != "rank"}
                for row in rows
            }
        full = tables["fsa,tss,ds"]
        assert tables["tss,ds"] == {"tss": full["tss"], "ds": full["ds"]}


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

    @pytest.mark.parametrize("search_range, radius", [(400, 16), (7, 7)])
    def test_grid_reaches_as_far_as_the_block_box(self, tmp_path, search_range, radius):
        # In a 32x32 frame the 16x16 block at (16, 16) can move at most 16
        # cells left or up and none right or down, so a wider range adds no
        # cell the search can visit; a range the frame has room for keeps
        # its (2w+1)^2 grid.
        out = tmp_path / "trace.json"
        status = run_cli(
            "trace", "--algo", "fsa", "--format", "synth", "--input", "random:1,1",
            "--frames", "2", "--width", "32", "--height", "32",
            "--search-range", str(search_range), "--trace-block", "16,16", "--out", str(out),
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["w"] == radius
        assert [len(row) for row in doc["grid"]] == [2 * radius + 1] * (2 * radius + 1)
        assert doc["counts"]["evaluated"] == doc["evaluations"] == (radius + 1) ** 2

    def test_reads_no_frame_after_the_predicted_one(self, tmp_path, capsys):
        # the third frame is cut short: run must refuse the clip, while
        # trace of frame 1 never reads that far
        frame_bytes = 32 * 32 * 3 // 2
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(np.random.default_rng(3).integers(
            0, 256, 2 * frame_bytes + 100, dtype=np.uint8).tobytes())
        common = ["--format", "yuv420", "--input", str(clip), "--width", "32", "--height", "32"]
        out = tmp_path / "trace.json"
        assert run_cli("trace", *common, "--algo", "ds", "--trace-block", "16,16",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["frame"] == 1
        capsys.readouterr()
        assert run_cli("run", *common, "--algo", "ds") == 1
        assert "truncated luma plane" in capsys.readouterr().err

    def test_frame_past_the_clip_names_its_length(self, tmp_path, capsys):
        # trace loads at most --frame + 1 frames, yet a clip that ends
        # first is still named whole: synth makes 10 frames by default
        status = run_cli(
            "trace", "--algo", "fsa", "--format", "synth", "--input", "random:0,0",
            "--frame", "12", "--trace-block", "16,16", "--out", str(tmp_path / "trace.json"),
        )
        assert status == 1
        assert capsys.readouterr().err == (
            "error: frame 12 out of range; predictable frames are 1..9\n"
        )

    def test_misaligned_block_lists_valid_anchors(self, tmp_path, capsys):
        status = run_cli(
            "trace",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "random:0,0",
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
            "--input", "random:0,0",
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

    def test_pgm_format_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--algo", "fsa", "--format", "pgm", "--input", "x")
        assert exit_info.value.code == 2

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

    def test_unknown_synth_kind_lists_documented_kinds(self, capsys):
        status = run_cli(
            "run",
            "--algo", "fsa",
            "--format", "synth",
            "--input", "static",
            "--frames", "2",
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "'static'" in err and "translate" in err and "random" in err
        assert "random_texture_translate" not in err

    # an explicit --frames 0 is test_synth_frame_count_below_one_rejected's
    @pytest.mark.parametrize("geometry", [("--width", "0", "--height", "0")], ids=["size"])
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

    def test_motion_capped_by_search_range(self, capsys):
        clip = ("--format", "synth", "--input", "translate:9,0", "--frames", "2")
        assert run_cli("run", "--algo", "fsa", *clip) == 1
        assert capsys.readouterr().err == (
            "error: motion (9, 0) exceeds the +-7 search range\n"
        )
        assert run_cli("run", "--algo", "fsa", *clip, "--search-range", "9") == 0

    @pytest.mark.parametrize("command", ["run", "compare", "trace"])
    @pytest.mark.parametrize("fmt", ["synth", "y4m"])
    def test_negative_seed_rejected(self, tmp_path, capsys, fmt, command):
        # random.Random(-1) draws Random(1)'s stream, so a negative seed
        # would alias another seed's blocks. Synth input would otherwise
        # fail in numpy with a message that does not name the flag.
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(b"YUV4MPEG2 W16 H16 C420\n" + (b"FRAME\n" + bytes(384)) * 2)
        given = {"synth": ["--format", "synth", "--input", "random:1,1", "--frames", "2"],
                 "y4m": ["--input", str(clip)]}[fmt]
        extra = {"run": ["--algo", "debm"], "compare": [],
                 "trace": ["--algo", "debm", "--trace-block", "0,0", "--out", str(tmp_path / "t.json")]}[command]
        assert run_cli(command, *given, *extra, "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "command, outputs, clash",
        [
            ("run", {"--out": "same.csv", "--mv-dump": "same.csv"},
             ("--mv-dump", "--out")),
            ("run", {"--out": "clip.y4m", "--mv-dump": "mv.csv"}, ("--out", "--input")),
            ("run", {"--mv-dump": "clip.y4m"}, ("--mv-dump", "--input")),
            ("compare", {"--out": "clip.y4m"}, ("--out", "--input")),
            ("trace", {"--out": "clip.y4m"}, ("--out", "--input")),
        ],
        ids=["run-out-mv-dump", "run-out-input", "run-mv-dump-input",
             "compare-out-input", "trace-out-input"],
    )
    def test_output_naming_the_input_or_another_output_rejected(
        self, tmp_path, capsys, command, outputs, clash
    ):
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(
            b"YUV4MPEG2 W16 H16 F25:1 C420\n" + (b"FRAME\n" + bytes(range(128)) * 3) * 2
        )
        before = clip.read_bytes()
        extra = {
            "run": ["--algo", "fsa"],
            "compare": [],
            "trace": ["--algo", "fsa", "--trace-block", "0,0"],
        }[command]
        named = [arg for flag, name in outputs.items() for arg in (flag, str(tmp_path / name))]
        status = run_cli(command, "--input", str(clip), *extra, *named)
        assert status == 1
        path = tmp_path / outputs[clash[0]]
        assert capsys.readouterr().err == (
            f"error: {clash[0]} names the same file as {clash[1]}: {path}\n"
        )
        assert clip.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["clip.y4m"]

    @pytest.mark.parametrize("frames", ["0", "-1"])
    def test_frame_count_below_one_rejected(self, tmp_path, capsys, frames):
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(b"YUV4MPEG2 W16 H16 C420\n" + (b"FRAME\n" + bytes(384)) * 2)
        status = run_cli("run", "--algo", "fsa", "--input", str(clip), "--frames", frames,
                         "--out", str(tmp_path / "out.json"))
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: frame count must be at least 1, got {frames}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["clip.y4m"]

    def test_frame_cap_stops_before_a_frame_cut_short(self, tmp_path, capsys):
        # a yuv clip of two 16x16 frames and 100 bytes of a third: --frames 2
        # reads the two and never reaches the third
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(bytes(range(128)) * 6 + bytes(100))
        given = ["--input", str(clip), "--width", "16", "--height", "16"]
        assert run_cli("run", "--algo", "fsa", *given, "--frames", "2") == 0
        assert "frame_pairs=1 " in capsys.readouterr().out
        assert run_cli("run", "--algo", "fsa", *given) == 1
        assert "truncated luma plane" in capsys.readouterr().err

    @pytest.mark.parametrize("frames", ["0", "-1"])
    def test_synth_frame_count_below_one_rejected(self, tmp_path, capsys, frames):
        # synth input names the bound in the words Y4M and YUV input use
        status = run_cli("run", "--algo", "fsa", "--format", "synth", "--input", "random:1,1",
                         "--frames", frames, "--width", "32", "--height", "32",
                         "--out", str(tmp_path / "out.json"))
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: frame count must be at least 1, got {frames}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("command", ["run", "compare", "trace"])
    def test_clip_without_a_frame_pair_rejected(self, tmp_path, capsys, command, count):
        header = b"YUV4MPEG2 W16 H16 F25:1 C420\n"
        frame = b"FRAME\n" + bytes(16 * 16 * 3 // 2)
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(header + frame * count)
        out = tmp_path / "out.json"
        extra = {
            "run": ["--algo", "fsa"],
            "compare": [],
            "trace": ["--algo", "fsa", "--trace-block", "0,0"],
        }[command]
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
