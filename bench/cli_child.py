"""Run one `blockmatch` CLI command in this fresh process and time it.

Usage: python3 bench/cli_child.py RESULT_JSON SPANS_PATH|- -- CLI_ARGS...

Times the import of `blockmatch.cli` (the set-up every CLI call pays) and
the call of `blockmatch.cli.main` separately, and writes both, the exit
code and the imported module's path to RESULT_JSON. A fixed calibration
loop is timed just before the import and just after the call, so both
times can be read against the host's speed at that moment. With a
SPANS_PATH the layer entry points are wrapped first (see tracing.py); the
span summary goes into RESULT_JSON and the raw spans to SPANS_PATH.
"""

import json
import os
import sys
import time

CALIBRATION_LOOPS = 3


def calibrate() -> list[float]:
    """Seconds each of a few fixed pure-Python loops takes: the host's speed now."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def main(argv: list[str]) -> int:
    result_path, spans_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: cli_child.py RESULT_JSON SPANS_PATH|- -- CLI_ARGS...")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    calibration = calibrate()
    start = time.perf_counter()
    import blockmatch.cli as cli
    import_s = time.perf_counter() - start

    # The program under test is the checkout's own source tree, never an
    # installed copy.
    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        print(f"error: blockmatch imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    recorder = None
    if spans_path != "-":
        from tracing import Recorder

        recorder = Recorder(command_id=os.path.basename(result_path))
        recorder.attach()

    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    calibration += calibrate()

    result = {"import_s": import_s, "main_s": main_s, "calibration_s": calibration,
              "exit": code, "module": cli.__file__}
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.dump(spans_path)
    with open(result_path, "w") as stream:
        json.dump(result, stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
