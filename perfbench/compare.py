"""Compare benchmark result sets.

    python3 perfbench/compare.py SET               # medians and spreads
    python3 perfbench/compare.py PARENT CHANGE     # one row per workload

A set is a JSON-lines file written by sweep.py, one end-to-end result per
(workload, seed).  Runs of the two sets are paired by seed.  For each
workload and each end-to-end metric of BENCHMARK.json the verdict is:

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ, in the change's favour, by
              more than the parent's interquartile range;
  unresolved  the parent's spread (interquartile range over median) exceeds
              the metric's bound, and not every change run beats every
              parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound, as a share of the parent's median;
  within      otherwise.

Exit status is 1 when any metric regressed or the failed share differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path) -> dict:
    """{workload: {seed: result}} from a JSON-lines file."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def failed_share(results) -> tuple[int, int]:
    return (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))


def print_spreads(runs: dict, spec: dict) -> None:
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        failed, attempted = failed_share(results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, failed {failed}/{attempted}, "
              f"correct {correct}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / med
            note = "" if spread <= m["bound"] / 3 else (
                "  above a third of the bound" if spread <= m["bound"] else "  ABOVE THE BOUND")
            print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<9} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.1%} "
                  f"(bound {m['bound']:.0%}){note}")


def verdict(metric: dict, parent: dict, change: dict) -> tuple[str, float]:
    """Verdict and relative median change (positive = better) of one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    name = metric["name"]
    seeds = sorted(set(parent) & set(change))
    p = [parent[s]["metrics"][name]["value"] for s in seeds]
    c = [change[s]["metrics"][name]["value"] for s in seeds]
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    better = sign * (c_med - p_med) / p_med + 0.0  # no -0.0 in the report
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    if wins >= 0.9 * len(seeds) and sign * (c_med - p_med) > q3 - q1:
        return "gain", better
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if (q3 - q1) / p_med > metric["bound"] and not all_better:
        return "unresolved", better
    if -better > metric["bound"]:
        return "regressed", better
    return "within", better


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> int:
    status = 0
    for workload in parent_runs:
        parent, change = parent_runs[workload], change_runs.get(workload, {})
        seeds = sorted(set(parent) & set(change))
        if not seeds:
            print(f"{workload}: no seed in both sets")
            status = 1
            continue
        cells = []
        for m in spec["end_to_end"]:
            v, better = verdict(m, parent, change)
            status |= v == "regressed"
            cells.append(f"{m['name']} {v} ({better:+.1%})")
        pf = failed_share([parent[s] for s in seeds])
        cf = failed_share([change[s] for s in seeds])
        same = pf[0] * cf[1] == cf[0] * pf[1]
        status |= not same
        cells.append(f"failed {pf[0]}/{pf[1]} -> {cf[0]}/{cf[1]}")
        print(f"{workload} [{len(seeds)} pairs]: " + " | ".join(cells))
    return int(status)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        print_spreads(load_set(argv[0]), spec)
        return 0
    return compare(load_set(argv[0]), load_set(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
