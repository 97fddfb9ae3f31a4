"""Run the benchmark over several seeds and collect one result set.

    python3 perfbench/sweep.py --seeds 0-9 --out .bench_runs/parent.jsonl

Each BENCHMARK.json workload and seed runs ``run.py --trace 0`` for
BENCHMARK.json's run_seconds;
its result line is appended to ``--out`` with the workload and seed, and
the set's medians and spreads are printed (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_set, print_spreads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    """``0-9`` or ``0,3,7``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result}) + "\n")
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    print_spreads(load_set(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
