"""The blockmatch benchmark: ms per frame pair per search on synthetic clips.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's clip from the seed, runs the real CLI
(`blockmatch.cli.main`) in rounds, each command in a fresh child process,
checks every output and prints the metrics; the last line of stdout is
one JSON object. A round is one `run` per search; round 0 also runs
`compare`. With --trace 0 rounds repeat while the next fits in S seconds
(at least two, so repeated runs can be compared byte for byte). With
--trace 1 round 0 and one traced round give the per-layer split and the
tracing overhead.

Children run one at a time, with thread-pool variables set to 1 for them
only. This process imports only the standard library, so the peak RSS
read from each child's rusage is the child's own. Everything is written
under .bench_work/ in the checkout; a copy of each result, with the
environment it was measured in, goes to .bench_work/records/ for diff.py.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import SEARCHES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170  # children still running this long after the start are killed
MIN_ROUNDS = 2
# The host's speed swings by up to 1.7x within seconds (other tenants), so
# each child times a fixed loop around its command and end-to-end times
# are reported at the speed where that loop takes this long.
CALIBRATION_REF_S = 0.015
# fsa's numpy arithmetic also slows under memory contention that the
# calibration loop does not see, so an untraced round times it twice.
TIMES_PER_ROUND = {"fsa": 2}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_VARS})
    return env


class Ops:
    """Attempted and failed operations: CLI commands and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok


class Bench:
    def __init__(self, workload, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.dir = directory
        self.ops = Ops()
        self.clip = directory / f"clip{workload.suffix}"
        self.missing_hooks: list[str] = []
        self.children: list[dict] = []  # raw timings of every CLI child
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float]:
        """Run one child to completion, killing it at the run's deadline;
        return its exit code and peak RSS in MB."""
        timeout_s = self.deadline - time.monotonic()
        if timeout_s <= 0:
            return -1, 0.0
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=child_env())
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def helper(self, script: str, *args: str) -> bool:
        log = self.dir / Path(script).stem
        code, _ = self.spawn([sys.executable, str(BENCH / script), *map(str, args)], log)
        return self.ops.record(script, code == 0, f"exit {code}; see {log}.err")

    def cli(self, label: str, cli_args: list[str], traced: bool) -> dict | None:
        result_path = self.dir / f"{label}.json"
        spans = str(self.dir / f"{label}.spans.npz") if traced else "-"
        argv = [sys.executable, *(["-X", "importtime"] if traced else []),
                str(BENCH / "cli_child.py"), str(result_path), spans, "--", *cli_args]
        code, rss_mb = self.spawn(argv, self.dir / label)
        if not self.ops.record(label, code == 0 and result_path.exists(),
                               f"exit {code}; see {self.dir / label}.err"):
            return None
        result = json.loads(result_path.read_text())
        result["rss_mb"] = rss_mb
        self.children.append({"label": label, **{k: result[k] for k in
                              ("import_s", "main_s", "calibration_s", "rss_mb")}})
        if traced:
            result["video_io_import_s"] = video_io_import_s(Path(f"{self.dir / label}.err"))
        return result

    def search_args(self) -> list[str]:
        return self.workload.cli_input_args(str(self.clip)) + ["--seed", str(self.seed)]

    def run_round(self, index: int, traced: bool = False, with_compare: bool = False) -> dict:
        """Each search's `run` (TIMES_PER_ROUND times unless traced), then
        optionally one `compare`; returns the child results of each command,
        keyed by search name or "compare". A repeated command rewrites the
        same outputs."""
        out = self.dir / f"r{index}"
        out.mkdir()
        passes = 1 if traced else max(TIMES_PER_ROUND.values())
        commands = [
            (algo, f"r{index}/{algo}" + (f".{k}" if k else ""),
             ["run", "--algo", algo, *self.search_args(),
              "--out", str(out / f"report_{algo}.json"), "--mv-dump", str(out / f"mv_{algo}.csv")])
            for k in range(passes) for algo in SEARCHES if k < TIMES_PER_ROUND.get(algo, 1)
        ]
        if with_compare:
            commands.append(("compare", f"r{index}/compare",
                             ["compare", "--algo", ",".join(SEARCHES), *self.search_args(),
                              "--out", str(out / "compare_table.json")]))
        results = {}
        for kind, label, args in commands:
            result = self.cli(label, args, traced)
            if result is not None:
                results.setdefault(kind, []).append(result)
        return results

    def check_outputs(self) -> None:
        out = self.dir / "r0"
        spec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "reports": {a: str(out / f"report_{a}.json") for a in SEARCHES},
            "dumps": {a: str(out / f"mv_{a}.csv") for a in SEARCHES},
            "compare": str(out / "compare_table.json"),
        }
        spec_path, result_path = self.dir / "checks_spec.json", self.dir / "checks.json"
        spec_path.write_text(json.dumps(spec))
        if self.helper("checks.py", spec_path, result_path):
            for entry in json.loads(result_path.read_text()):
                self.ops.record(entry["check"], entry["ok"], entry["detail"])

    def check_repeat(self, index: int) -> None:
        """Round `index` must reproduce round 0's reports and dumps byte for byte."""
        for algo in SEARCHES:
            for name in (f"report_{algo}.json", f"mv_{algo}.csv"):
                self.ops.record(f"{name}.repeat_identical.r{index}",
                                digest(self.dir / "r0" / name) == digest(self.dir / f"r{index}" / name),
                                f"round {index} output differs from round 0")


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def video_io_import_s(stderr_log: Path) -> float | None:
    """Cumulative import time of blockmatch.video_io from `-X importtime`."""
    for line in stderr_log.read_text(errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "blockmatch.video_io":
            return int(parts[1]) / 1e6
    return None


def tail(samples: list[float]) -> tuple[float, float, float]:
    """The highest of p99.9, p99, p90 and p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    pct = next((p for p in (99.9, 99.0, 90.0) if count * (100.0 - p) / 100.0 >= 10), 50.0)
    position = pct / 100.0 * (count - 1)
    low = int(position)
    high = min(low + 1, count - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, pct, count


def ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def src_lines() -> dict[str, int]:
    return {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "blockmatch").glob("*.py"))}


def environment(seed: int) -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "blockmatch").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    lines = src_lines()
    return {
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "src_lines": {"total": sum(lines.values()), **lines},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def at_reference_speed(child: dict, seconds: float) -> float:
    """Scale a child's time to the host speed at which the calibration loop
    takes CALIBRATION_REF_S, using the loops the child timed just before its
    import and just after its command."""
    return seconds * CALIBRATION_REF_S / statistics.median(child["calibration_s"])


def end_to_end(workload, rounds: list[dict], reports: dict) -> dict:
    metrics = {}
    children = [child for rnd in rounds for results in rnd.values() for child in results]
    if children:
        metrics["setup_s"] = (statistics.median(
            at_reference_speed(c, c["import_s"]) for c in children), "s")
        metrics["peak_rss_mb"] = (max(c["rss_mb"] for c in children), "MB")
    for algo in SEARCHES:
        times = [at_reference_speed(c, c["main_s"]) for rnd in rounds for c in rnd.get(algo, [])]
        if times:
            metrics[f"{algo}.ms_per_pair"] = (statistics.median(times) * 1e3 / workload.pairs, "ms")
    if "debm" in reports:
        metrics["debm.sad_per_block"] = (reports["debm"]["mean_search_points"], "count")
    for algo in ("debm", "tss", "ds"):
        if algo in reports:
            metrics[f"{algo}.psnr_db"] = (reports[algo]["mean_psnr"], "dB")
    return metrics


def per_layer(workload, plain: dict, traced: dict, reports: dict, round_dir: Path) -> dict:
    metrics = {}

    def put(name, value, unit):
        if value is not None:
            metrics[name] = (value, unit)

    pairs = workload.pairs
    blocks = pairs * workload.blocks_per_frame
    summaries = {algo: r["trace"] for algo, r in traced.items()}

    def span(field, name, algos=SEARCHES):
        values = [summaries[a]["spans"][name][field] for a in algos
                  if a in summaries and name in summaries[a]["spans"]]
        return sum(values) if values else None

    def counter(name, algos=SEARCHES):
        values = [summaries[a]["counters"][name] for a in algos
                  if a in summaries and name in summaries[a]["counters"]]
        return sum(values) if values else None

    def per_block(base, name, algos):
        samples = [s for a in algos if a in summaries for s in summaries[a]["samples_us"].get(name, [])]
        if samples:
            value, pct, count = tail(samples)
            put(base, statistics.median(samples), "us")
            put(f"{base}.tail", value, "us")
            put(f"{base}.tail_pct", pct, "%")
            put(f"{base}.samples", count, "count")

    commands = len(summaries)
    per_pair = commands * pairs
    debm_blocks = blocks if "debm" in summaries else 0
    sad_blocks = blocks * sum(1 for a in ("debm", "tss", "ds") if a in summaries)
    baseline_blocks = blocks * sum(1 for a in ("tss", "ds") if a in summaries)

    # cli
    put("cli.load_frames_ms", ratio(span("total_s", "cli.load_frames"), (span("count", "cli.load_frames") or 0) / 1e3), "ms")
    if "compare" in plain:
        put("cli.compare_ms_per_pair", plain["compare"]["main_s"] * 1e3 / pairs, "ms")
    buffered = [s["counters"]["cli.buffered_frames"] for s in summaries.values()
                if "cli.buffered_frames" in s["counters"]]
    put("cli.buffered_frames", max(buffered, default=None), "count")
    # video_io
    imports = [r["video_io_import_s"] for r in traced.values() if r.get("video_io_import_s") is not None]
    put("video_io.import_s", statistics.median(imports) if imports else None, "s")
    put("video_io.decode_ms_per_frame", ratio(span("total_s", "video_io.decode"), (counter("video_io.frames") or 0) / 1e3), "ms")
    put("video_io.write_ms_per_pair", ratio(span("total_s", "video_io.write"), per_pair / 1e3), "ms")
    written = sum((round_dir / f"{kind}_{a}.{ext}").stat().st_size
                  for a in summaries for kind, ext in (("report", "json"), ("mv", "csv")))
    put("video_io.bytes_written_per_pair", ratio(written, per_pair), "B")
    # motion
    put("motion.estimate_frame.self_ms_per_pair", ratio(span("self_s", "motion.estimate_frame"), per_pair / 1e3), "ms")
    per_block("motion.full_search.us_per_block", "motion.full_search", ["fsa"])
    if "fsa" in reports:
        evaluations = reports["fsa"]["mean_search_points"]
        put("motion.kernel.pixel_ops_per_block", evaluations * workload.n ** 2, "computed_ops")
        put("motion.kernel.bytes_per_block", evaluations * workload.n ** 2 * 4, "computed_B")
    sad_algos = ("debm", "tss", "ds")
    put("motion.sad.calls_per_block", ratio(span("count", "motion.sad", sad_algos), sad_blocks), "count")
    put("motion.sad.us_per_call", ratio(span("total_s", "motion.sad", sad_algos), (span("count", "motion.sad", sad_algos) or 0) / 1e6), "us")
    put("motion.compensate_ms_per_pair", ratio(span("total_s", "motion.compensate"), per_pair / 1e3), "ms")
    per_block("motion.debm_search.us_per_block", "motion.debm_search", ["debm"])
    # de
    per_block("de.run.self_us_per_block", "de.run", ["debm"])
    put("de.trace_records_per_block", ratio(counter("de.trace_records", ["debm"]), debm_blocks), "count")
    put("de.run.calls_outside_debm", span("count", "de.run", ("fsa", "tss", "ds")), "count")
    put("de.last_improving_generation", ratio(counter("de.last_improving_generation", ["debm"]), counter("de.runs", ["debm"])), "count")
    # estimator
    requests = span("count", "estimator.dispatch", ["debm"])
    put("estimator.requests_per_block", ratio(requests, debm_blocks), "count")
    put("estimator.requests_outside_debm", span("count", "estimator.dispatch", ("fsa", "tss", "ds")), "count")
    put("estimator.dispatch.self_us_per_request", ratio(span("self_s", "estimator.dispatch", ["debm"]), (requests or 0) / 1e6), "us")
    nearest = span("count", "estimator.nearest", ["debm"])
    put("estimator.nearest.calls_per_request", ratio(nearest, requests), "count")
    put("estimator.nearest.us_per_call", ratio(span("total_s", "estimator.nearest", ["debm"]), (nearest or 0) / 1e6), "us")
    rules = {r: counter(f"rule.{r}", ["debm"]) for r in ("near_best", "unexplored", "neighbor_copy")}
    if None not in rules.values():
        put("estimator.copy_ratio", ratio(rules["neighbor_copy"], sum(rules.values())), "ratio")
    for rule, count in rules.items():
        put(f"estimator.rule.{rule}_per_block", ratio(count, debm_blocks), "count")
    put("estimator.distinct_cell_ratio", ratio(counter("debm.distinct_cells", ["debm"]), counter("debm.sad_calls", ["debm"])), "ratio")
    # baselines
    per_block("baselines.tss.us_per_block", "baselines.tss", ["tss"])
    per_block("baselines.ds.us_per_block", "baselines.ds", ["ds"])
    cost_requests = span("count", "baselines.cost", ("tss", "ds"))
    put("baselines.cost_requests_per_block", ratio(cost_requests, baseline_blocks), "count")
    baseline_sads = span("count", "motion.sad", ("tss", "ds"))
    if cost_requests and baseline_sads is not None:
        put("baselines.memo_hit_ratio", 1.0 - baseline_sads / cost_requests, "ratio")
    # metrics
    scoring = [span("total_s", "metrics.mse"), span("total_s", "metrics.aggregate")]
    if None not in scoring:
        put("metrics.score_ms_per_pair", sum(scoring) * 1e3 / per_pair, "ms")
    # repo
    lines = src_lines()
    put("src.lines", sum(lines.values()), "lines")
    for module, count in lines.items():
        put(f"src.lines.{module}", count, "lines")
    # trace
    both = [a for a in traced if a in plain]
    if both:
        base = sum(plain[a]["main_s"] for a in both)
        put("trace.overhead_pct", (sum(traced[a]["main_s"] for a in both) / base - 1.0) * 100.0, "%")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(bench: Bench, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    rounds = [bench.run_round(0, with_compare=True)]
    if trace:
        traced = {kind: results[0] for kind, results in bench.run_round(1, traced=True).items()}
        bench.missing_hooks = sorted({m for r in traced.values() for m in r["trace"]["missing"]})
        print("hooks not attached: " + (", ".join(bench.missing_hooks) or "none"))
        repeats = [1]
    else:
        while True:
            round_start = time.perf_counter()
            rounds.append(bench.run_round(len(rounds)))
            round_s = time.perf_counter() - round_start
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - started + round_s > seconds:
                break
        repeats = range(1, len(rounds))
    bench.check_outputs()
    for index in repeats:
        bench.check_repeat(index)
    reports = {}
    for algo in SEARCHES:
        path = bench.dir / "r0" / f"report_{algo}.json"
        if path.exists():
            reports[algo] = json.loads(path.read_text())
    if trace:
        plain = {kind: results[0] for kind, results in rounds[0].items()}
        return per_layer(bench.workload, plain, traced, reports, bench.dir / "r1")
    return end_to_end(bench.workload, rounds, reports)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockmatch" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'blockmatch'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(workload, args.seed, run_dir)

    metrics = {}
    if bench.helper("clips.py", workload.name, args.seed, bench.clip):
        metrics = measure(bench, args.seconds, bool(args.trace))
    ops = bench.ops
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "failures": ops.failures,
        "hooks_not_attached": bench.missing_hooks,
        "children": bench.children,
        "result": result,
    }
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    record_path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>9} {name:<45} {value:>14.6g} {unit}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
