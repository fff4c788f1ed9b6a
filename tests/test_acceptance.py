"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 4 and 5 hold the evolutionary search, with its reference
parameter set (scale factor 0.25, five individuals, seven generations),
to the accuracy of full search on uniformly translated synthetic
textures. They are implemented exactly as stated; the measured numbers
are printed by the tests, and the README's "Accuracy acceptance
criteria" section says how the search meets them.
"""

import math
import time

import numpy as np
import pytest

from blockmatch.cli import main
from blockmatch.estimator import (
    D,
    ESTIMATED,
    EVALUATED,
    EvaluationRecord,
    HistoryStore,
    Rule,
    classify,
    fitness_of,
)
from blockmatch.metrics import d_psnr, mse, psnr
from blockmatch.motion import (
    BlockRef,
    SearchConfig,
    SearchProbe,
    compensate,
    estimate_frame,
    full_search,
    mv_bounds,
    partition,
    sad,
    search_block,
)
from blockmatch.video_io import SynthParams, synth_sequence


def report(number, ok, name, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}" + (f" ({detail})" if detail else ""))


def naive_sad(current, previous, block, mv):
    x, y, n = block
    u, v = mv
    total = 0
    for j in range(n):
        for i in range(n):
            total += abs(
                int(current[y + j, x + i]) - int(previous[y + v + j, x + u + i])
            )
    return total


@pytest.fixture(scope="module")
def translation_sequence():
    """The shared 50-frame quarter-CIF clip with uniform motion (3, -2)."""
    params = SynthParams(width=176, height=144, frames=50, du=3, dv=-2, seed=11)
    return list(synth_sequence("random", params))


def test_criterion_01_sad_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 10_000:
        size = int(rng.integers(24, 49))
        current = rng.integers(0, 256, (size, size), dtype=np.uint8)
        previous = rng.integers(0, 256, (size, size), dtype=np.uint8)
        for _ in range(200):
            if checked >= 10_000:
                break
            n = int(rng.choice((4, 8, 16)))
            x = int(rng.integers(0, size - n + 1))
            y = int(rng.integers(0, size - n + 1))
            block = BlockRef(x, y, n)
            u = int(rng.integers(-min(7, x), min(7, size - n - x) + 1))
            v = int(rng.integers(-min(7, y), min(7, size - n - y) + 1))
            assert sad(current, previous, block, (u, v)) == naive_sad(
                current, previous, block, (u, v)
            )
            checked += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 10.0
    report(1, ok, "SAD oracle equivalence", f"{checked} tuples in {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeded 10s"


def test_criterion_02_full_search_exhaustiveness():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(12):
        current = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        previous = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        height, width = previous.shape
        for block in partition(current, 16):
            result = full_search(current, previous, block, 7)
            # independent second pass over every valid candidate
            best = None
            count = 0
            for v in range(-7, 8):
                for u in range(-7, 8):
                    if not (0 <= block.x + u <= width - 16):
                        continue
                    if not (0 <= block.y + v <= height - 16):
                        continue
                    count += 1
                    cost = sad(current, previous, block, (u, v))
                    if best is None or cost < best[0]:
                        best = (cost, (u, v))
            assert result.sad == best[0], "not the global minimum"
            assert tuple(result.mv) == best[1], "tie-break differs from scan order"
            assert result.evaluations == count
            if mv_bounds(block, width, height, 7) == (-7, 7, -7, 7):
                assert result.evaluations == 225
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    report(2, ok, "full-search exhaustiveness", f"12 frame pairs in {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeded 30s"


def test_criterion_03_debm_budget(translation_sequence):
    started = time.monotonic()
    frames = translation_sequence
    config = SearchConfig()
    total_evaluations = 0
    total_blocks = 0
    for t in range(1, len(frames)):
        _, results = estimate_frame(frames[t], frames[t - 1], config, "debm")
        for result in results:
            requests = result.evaluations + result.estimations
            assert requests <= 40, f"budget exceeded: {requests}"
            assert result.evaluations >= 5, "initial pattern not truly evaluated"
            total_evaluations += result.evaluations
            total_blocks += 1
    mean_evaluations = total_evaluations / total_blocks
    elapsed = time.monotonic() - started
    ok = mean_evaluations <= 20.0 and elapsed < 60.0
    report(
        3,
        ok,
        "DE-BM evaluation budget",
        f"mean true evaluations {mean_evaluations:.2f} per block "
        f"(reference scale 9.2-16.8), {total_blocks} blocks in {elapsed:.1f}s",
    )
    assert mean_evaluations <= 20.0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeded 60s"


def test_criterion_04_debm_accuracy_vs_oracle(translation_sequence):
    started = time.monotonic()
    frames = translation_sequence
    config = SearchConfig()

    fsa_sads = []
    fsa_psnrs = []
    for t in range(1, len(frames)):
        mv_field, results = estimate_frame(frames[t], frames[t - 1], config, "fsa")
        fsa_sads.extend(r.sad for r in results)
        predicted = compensate(frames[t - 1], mv_field, config.n)
        fsa_psnrs.append(psnr(mse(frames[t], predicted)))
    fsa_mean_sad = float(np.mean(fsa_sads))
    fsa_mean_psnr = float(np.mean(fsa_psnrs))

    debm_sads = []
    debm_psnrs = []
    for seed in range(10):
        seeded = SearchConfig(rng_seed=seed)
        for t in range(1, len(frames)):
            mv_field, results = estimate_frame(
                frames[t], frames[t - 1], seeded, "debm"
            )
            debm_sads.extend(r.sad for r in results)
            predicted = compensate(frames[t - 1], mv_field, seeded.n)
            debm_psnrs.append(psnr(mse(frames[t], predicted)))
    debm_mean_sad = float(np.mean(debm_sads))
    debm_mean_psnr = float(np.mean(debm_psnrs))

    sad_excess = (debm_mean_sad - fsa_mean_sad) / fsa_mean_sad
    degradation = d_psnr(fsa_mean_psnr, debm_mean_psnr)
    elapsed = time.monotonic() - started
    ok = abs(sad_excess) <= 0.05 and degradation >= -3.0 and elapsed < 300.0
    report(
        4,
        ok,
        "DE-BM accuracy vs exhaustive oracle",
        f"mean SAD {debm_mean_sad:.0f} vs {fsa_mean_sad:.0f} "
        f"({sad_excess * 100.0:+.1f}% vs +-5% allowed), degradation "
        f"{degradation:.2f}% vs >= -3% required, {elapsed:.0f}s",
    )
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeded 5min"
    assert abs(sad_excess) <= 0.05, (
        f"mean SAD {debm_mean_sad:.0f} is {sad_excess * 100.0:+.1f}% off the "
        f"exhaustive-search mean {fsa_mean_sad:.0f}; tolerance is 5%"
    )
    assert degradation >= -3.0, (
        f"sequence degradation {degradation:.2f}% is below the -3% floor"
    )


def test_criterion_05_exact_translation_recovery():
    motions = [(3, -2), (-4, 3)]
    fsa_ok = True
    recovered_trials = 0
    total_trials = 0
    recovered_any_seed = 0
    total_interior = 0
    for du, dv in motions:
        params = SynthParams(
            width=176, height=144, frames=2, du=du, dv=dv, seed=11
        )
        previous, current = synth_sequence("random", params)
        height, width = current.shape
        blocks = partition(current, 16)
        interior = [
            i
            for i, b in enumerate(blocks)
            if mv_bounds(b, width, height, 7) == (-7, 7, -7, 7)
        ]
        _, fsa_results = estimate_frame(current, previous, SearchConfig(), "fsa")
        for i in interior:
            if fsa_results[i].mv != (du, dv) or fsa_results[i].sad != 0:
                fsa_ok = False
        hits = {i: 0 for i in interior}
        for seed in range(10):
            config = SearchConfig(rng_seed=seed)
            _, results = estimate_frame(current, previous, config, "debm")
            for i in interior:
                hit = results[i].sad == 0
                hits[i] += hit
                recovered_trials += hit
                total_trials += 1
        recovered_any_seed += sum(1 for count in hits.values() if count > 0)
        total_interior += len(interior)

    trial_rate = recovered_trials / total_trials
    union_rate = recovered_any_seed / total_interior
    debm_ok = trial_rate >= 0.90
    report(
        5,
        fsa_ok and debm_ok,
        "exact-translation recovery",
        f"FSA {'100%' if fsa_ok else 'incomplete'}; DE-BM per-trial "
        f"{trial_rate * 100.0:.1f}% (>=90% required), any-of-10-seeds "
        f"{union_rate * 100.0:.1f}%",
    )
    assert fsa_ok, "exhaustive search missed an exact translation"
    assert debm_ok, (
        f"DE-BM recovered zero-SAD matches on {trial_rate * 100.0:.1f}% of "
        f"interior-block trials across 10 seeds; the criterion requires 90%"
    )


def test_criterion_06_baseline_budgets():
    started = time.monotonic()
    rng = np.random.default_rng(606)
    pairs = 1000
    config = SearchConfig()
    for _ in range(pairs):
        current = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        previous = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        height, width = previous.shape
        for block in partition(current, 16):
            probe = SearchProbe()
            tss = search_block("tss", current, previous, block, config, probe)
            assert tss.evaluations <= 25
            assert len({(v.u, v.v) for v in probe.visits}) == tss.evaluations
            probe = SearchProbe()
            # must terminate
            search_block("ds", current, previous, block, config, probe)
            umin, umax, vmin, vmax = mv_bounds(block, width, height, 7)
            for visit in probe.visits:
                assert umin <= visit.u <= umax and vmin <= visit.v <= vmax
    elapsed = time.monotonic() - started
    report(
        6,
        True,
        "baseline budgets",
        f"TSS <= 25 points, DS terminated on {pairs} random frame pairs "
        f"with only valid candidates, {elapsed:.1f}s",
    )


def test_criterion_07_run_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        report_path = tmp_path / f"{name}.json"
        dump_path = tmp_path / f"{name}.csv"
        status = main(
            [
                "run",
                "--algo", "debm",
                "--format", "synth",
                "--input", "random:3,-2",
                "--frames", "6",
                "--seed", "42",
                "--out", str(report_path),
                "--mv-dump", str(dump_path),
            ]
        )
        assert status == 0
        outputs.append((report_path.read_bytes(), dump_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(7, ok, "benchmark determinism", "byte-identical report and MV dump")
    assert ok


def test_criterion_08_fitness_strategy_dispatch():
    calls = [0]

    def objective(position):
        calls[0] += 1
        return 111.0

    # empty store -> true evaluation
    store = HistoryStore()
    assert classify(store, (0.0, 0.0), store.nearest((0.0, 0.0))) is Rule.UNEXPLORED
    fitness_of(store, (0.0, 0.0), objective)
    assert (store.records[-1].kind, calls[0]) == (EVALUATED, 1)

    # far neighbor -> true evaluation
    store = HistoryStore()
    store.append(EvaluationRecord((0.0, 0.0), 50.0, EVALUATED))
    calls[0] = 0
    assert classify(store, (5.0, 5.0), store.nearest((5.0, 5.0))) is Rule.UNEXPLORED
    fitness_of(store, (5.0, 5.0), objective)
    assert calls[0] == 1

    # near-best neighbor -> true evaluation
    store = HistoryStore()
    store.append(EvaluationRecord((5.0, 4.0), 10.0, EVALUATED))
    store.append(EvaluationRecord((0.0, 0.0), 90.0, EVALUATED))
    calls[0] = 0
    assert classify(store, (6.0, 4.0), store.nearest((6.0, 4.0))) is Rule.NEAR_BEST
    fitness_of(store, (6.0, 4.0), objective)
    assert calls[0] == 1

    # near-non-best neighbor -> copy without touching the objective
    store = HistoryStore()
    store.append(EvaluationRecord((0.0, 0.0), 50.0, EVALUATED))
    store.append(EvaluationRecord((6.0, 0.0), 80.0, EVALUATED))
    calls[0] = 0
    assert classify(store, (6.0, 1.0), store.nearest((6.0, 1.0))) is Rule.NEIGHBOR_COPY
    value = fitness_of(store, (6.0, 1.0), objective)
    kind = store.records[-1].kind
    assert (value, kind, calls[0]) == (80.0, ESTIMATED, 0)

    # exact duplicate of the best -> re-evaluated; of a non-best -> copied
    calls[0] = 0
    assert classify(store, (0.0, 0.0), store.nearest((0.0, 0.0))) is Rule.NEAR_BEST
    fitness_of(store, (0.0, 0.0), objective)
    assert calls[0] == 1
    calls[0] = 0
    assert classify(store, (6.0, 0.0), store.nearest((6.0, 0.0))) is Rule.NEIGHBOR_COPY
    value = fitness_of(store, (6.0, 0.0), objective)
    kind = store.records[-1].kind
    assert (value, kind, calls[0]) == (80.0, ESTIMATED, 0)

    # every copy matches a stored record within the 2.5 px threshold
    rng = np.random.default_rng(808)
    store = HistoryStore()
    for _ in range(300):
        position = (float(rng.uniform(-7, 7)), float(rng.uniform(-7, 7)))
        value = fitness_of(
            store, position, lambda p: float(rng.integers(0, 1000))
        )
        kind = store.records[-1].kind
        if kind == ESTIMATED:
            assert any(
                r.fitness == value
                and math.dist(r.position, position) <= D
                for r in store.records[:-1]
            )
    report(8, True, "fitness-strategy dispatch", "all rules with exact call counts")


def test_criterion_09_metric_identities():
    assert psnr(65025.0) == 0.0
    assert d_psnr(30.0, 30.0) == 0.0
    rng = np.random.default_rng(909)
    for _ in range(1000):
        low, high = sorted(rng.uniform(1e-9, 1e6, 2))
        if low < high:
            assert psnr(low) > psnr(high)
    for _ in range(1000):
        value = float(rng.uniform(1e-9, 1e6))
        independent = 10.0 * math.log(255.0**2 / value, 10.0)
        assert abs(psnr(value) - independent) <= 1e-12 * max(1.0, abs(independent))
        reference = float(rng.uniform(1.0, 60.0))
        other = float(rng.uniform(1.0, 60.0))
        expected = -((reference - other) / reference) * 100.0
        assert abs(d_psnr(reference, other) - expected) <= 1e-12 * max(
            1.0, abs(expected)
        )
    report(9, True, "metric identities", "Eq. fidelity to 1e-12 relative")


def test_criterion_10_monotone_population_best():
    rng = np.random.default_rng(1010)
    from scipy.ndimage import gaussian_filter

    base = gaussian_filter(rng.standard_normal((144, 176)), 2.0, mode="wrap")
    base -= base.min()
    previous = np.round(base / base.max() * 255).astype(np.uint8)
    current = np.roll(previous, shift=(2, -3), axis=(0, 1))
    blocks = partition(current, 16)
    searches = 0
    for seed in range(11):
        for block in blocks:
            if searches >= 1000:
                break
            probe = SearchProbe()
            config = SearchConfig(rng_seed=seed)
            search_block("debm", current, previous, block, config, probe)
            best = probe.best_per_generation
            assert all(b <= a for a, b in zip(best, best[1:])), (
                f"best fitness increased in block {block} seed {seed}"
            )
            searches += 1
    report(10, True, "monotone population best", f"{searches} seeded searches")
