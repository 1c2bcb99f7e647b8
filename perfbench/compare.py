"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records ``run.py --results DIR`` writes. For every
workload and end-to-end metric of ``BENCHMARK.json`` this prints each side's
median and quartiles over its untraced runs, how many of the alternating
pairs (the i-th run of each side, in the order they started) the change
won, and a verdict by the rule of section 8 of the choosing-metrics guide:

- ``unresolved``: the base's own spread (quartile distance over median) is
  wider than the metric's bound, and not every change run beats every base run;
- ``regression``: the change's median is worse than the base's by more than
  the bound;
- ``gain``: the change won at least nine tenths of the pairs and the medians
  differ by more than the base's quartile distance;
- ``within bound`` otherwise.

Exits 1 if any metric is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ROOT, quartiles


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced records by workload, in the order the runs started."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["started_at"])
    return by_workload


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs compared)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = quartiles(base)
    c_med = statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(sign * c < sign * b for b, c in pairs)
    scale = abs(b_med) or 1.0
    if (b3 - b1) / scale > bound and not all(
        sign * c < sign * b for c in change for b in base
    ):
        return "unresolved", wins, len(pairs)
    if sign * (c_med - b_med) / scale > bound:
        return "regression", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b3 - b1:
        return "gain", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    regressions = 0
    header = f"{'workload':9s} {'metric':12s} {'base q1/median/q3':>30s} {'change q1/median/q3':>30s}  wins  verdict"
    print(header)
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base[workload]]
            c = [r["metrics"][name] for r in change[workload]]
            outcome, wins, n = verdict(b, c, metric["better"], metric["bound"])
            regressions += outcome == "regression"
            bq = "/".join(f"{v:.4g}" for v in quartiles(b))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{workload:9s} {name:12s} {bq:>30s} {cq:>30s}  {wins:>2d}/{n:<2d} {outcome}"
                  f"  ({metric['unit']}, bound {metric['bound']:g}, runs {len(b)}/{len(c)})")
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: runs on one side only", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
