"""Compare two sets of benchmark results, one row per workload and metric.

Usage: python3 bench/diff.py BASE NEW

BASE and NEW are directories (or single files) of records that run.py
writes to .bench_work/records/, e.g. one set from the parent commit and
one from the change, made with the same seeds, alternating which side
runs first. Each row gives both sides' median and quartiles, the share
of same-seed pairs the change won (ties count for neither side), and a
verdict:

  unresolved      the parent's own spread (quartile distance over median)
                  exceeds the metric's bound, and not every run of the
                  change beats every run of the parent
  worse           the change's median is worse by more than the bound
  better          the change won at least nine tenths of the pairs and
                  the medians differ by more than the parent's quartile
                  distance
  no change       none of the above

Per-layer metrics have no bound; they get "better", "worse" or "-".
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(location: str) -> list[dict]:
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def declared_metrics(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def by_seed(records: list[dict]) -> dict[tuple, dict[int, list[float]]]:
    """(workload, metric) -> seed -> values, in record order."""
    table = defaultdict(lambda: defaultdict(list))
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            table[(record["workload"], name)][record["seed"]].append(metric["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], won: float, lost: float,
            higher_is_better: bool, bound: float | None) -> str:
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    sign = 1.0 if higher_is_better else -1.0
    gain = sign * (nm - bm)  # positive when the change is better
    every_run_better = min(sign * v for v in new) > max(sign * v for v in base)
    spread = b3 - b1
    if bound is None:
        if won >= 0.9 and gain > spread:
            return "better"
        if lost >= 0.9 and -gain > spread:
            return "worse"
        return "-"
    if bm and spread / abs(bm) > bound and not every_run_better:
        return "unresolved"
    if bm and -gain / abs(bm) > bound:
        return "worse"
    if (won >= 0.9 and gain > spread) or every_run_better:
        return "better"
    return "no change"


def diff(base_records: list[dict], new_records: list[dict], spec: dict) -> list[dict]:
    declared = declared_metrics(spec)
    base, new = by_seed(base_records), by_seed(new_records)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in declared:
            continue
        higher = declared[name]["better"] == "higher"
        wins = losses = pairs = 0
        for seed in set(base[key]) & set(new[key]):
            for b, n in zip(base[key][seed], new[key][seed]):
                pairs += 1
                if n != b:
                    if (n > b) == higher:
                        wins += 1
                    else:
                        losses += 1
        base_values = [v for vs in base[key].values() for v in vs]
        new_values = [v for vs in new[key].values() for v in vs]
        won = wins / pairs if pairs else 0.0
        lost = losses / pairs if pairs else 0.0
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": declared[name]["unit"],
            "base": quartiles(base_values),
            "new": quartiles(new_values),
            "runs": (len(base_values), len(new_values)),
            "won": f"{wins}/{pairs}",
            "verdict": verdict(base_values, new_values, won, lost, higher,
                               declared[name].get("bound")),
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = diff(load_records(argv[0]), load_records(argv[1]), spec)

    def spread(q):
        q1, median, q3 = q
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<9} {'metric':<44} {'unit':<6} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'runs':<7} {'won':<7} verdict")
    for r in rows:
        runs = f"{r['runs'][0]}/{r['runs'][1]}"
        print(f"{r['workload']:<9} {r['metric']:<44} {r['unit']:<6} {spread(r['base']):<30} "
              f"{spread(r['new']):<30} {runs:<7} {r['won']:<7} {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
