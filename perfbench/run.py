"""Run one sonsim benchmark workload for a fixed time and print one JSON result.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Run from the root of a sonsim checkout; sonsim is imported from its
``src/``.  One repeat runs the whole workload -- every agent, q and seed
of ``workloads/<name>.cfg`` -- through ``run_experiment`` in a fresh
single-threaded interpreter (worker.py), after a separate fresh
interpreter has timed set-up, and the CSVs it wrote are then checked
(check.py).  Repeats go on for about ``--seconds``, at least two of
them; each time is corrected for the host's speed while it was taken
(probe.py) and reported as the median over repeats.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer metrics.  Metric names and units come from BENCHMARK.json.
Work files go to ``.bench_runs/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # every repeat imports sonsim from source alike

from probe import REFERENCE_S  # noqa: E402  (perfbench/ is sys.path[0])

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Master seeds per repeat; --seed n runs seeds n*k .. n*k + k - 1.  dqn's
# episode lengths vary from seed to seed, and on dqn-minibatch they are
# nearly all the work, so it averages 16 seeds; one seed each elsewhere
# leaves room for two or more repeats in a 30 s run.
SEEDS_PER_ROUND = {"paper-grid": 1, "fault-storm": 1, "dqn-minibatch": 16}

# One BLAS/OpenMP thread, so a repeat measures one core's work.
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                        "VECLIB_MAXIMUM_THREADS")}
# Stop starting repeats once this much of the 180 s limit is used.
TIME_LIMIT_S = 150.0
# Every run makes at least this many repeats, so that the byte-identity
# check across repeats always has two sets of files to compare.
MIN_REPEATS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_ROUND))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg())}


def run_worker(phase: str, config: Path, env: dict, timeout: float,
               extra=()) -> tuple[dict | None, str]:
    """Run one worker.py phase; its JSON result, or None and the error."""
    cmd = [sys.executable, str(BENCH / "worker.py"), phase, "--src", str(SRC),
           "--config", str(config), *extra]
    if phase == "setup":
        cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-2000:] or f"worker exit code {proc.returncode}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"worker printed no result: {lines[-1][:200]}"


def flatten_trace(res: dict) -> dict:
    """Per-layer metric values of one traced repeat, by metric name."""
    from sonsim.config import KNOWN_AGENTS
    from tracing import LAYERS, TARGETS
    flat = {}
    names = [f"{m}.{f}" for m, f in TARGETS if f != "run_single"]
    names += [f"experiment.run_single.{a}" for a in KNOWN_AGENTS]
    for name in names:
        row = res["trace"]["functions"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        flat[f"{name}.calls"] = row["calls"]
        flat[f"{name}.s"] = row["s"]
        flat[f"{name}.self_s"] = row["self_s"]
    flat.update(res["trace"]["counters"])
    for name in LAYERS:
        flat[f"layer.{name}.self_s"] = res["trace"]["layers"][name]
    flat["trace.wall_s"] = res["wall_s"]
    return flat


def corrected(res: dict, key: str, speed_key: str) -> float:
    """A time of one repeat at the host's reference speed (probe.py)."""
    return res[key] * REFERENCE_S / res[speed_key]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sonsim" / "__init__.py").is_file():
        print(f"run.py: no sonsim package under {SRC}; run from a sonsim checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from sonsim.config import load_config
    from sonsim.nn import load_params
    from sonsim.metrics import write_cdf_csv
    from check import KNOWN_FAULT, check_cdf_writer, check_outputs, output_files, owners
    from tracing import LAYERS

    started = time.perf_counter()
    env_info = environment()
    run_dir = ROOT / ".bench_runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)

    per_round = SEEDS_PER_ROUND[args.workload]
    seeds = [args.seed * per_round + k for k in range(per_round)]
    config = run_dir / "workload.cfg"
    template = (BENCH / "workloads" / f"{args.workload}.cfg").read_text()
    config.write_text(template + "run.seeds = " + ",".join(map(str, seeds)) + "\n")
    cfg = load_config(config)
    runs_per_round = len(cfg.agents) * len(cfg.effective_qs()) * len(seeds)

    child_env = dict(os.environ, **SINGLE_THREAD, PYTHONDONTWRITEBYTECODE="1",
                     PYTHONHASHSEED="0", TMPDIR=str(run_dir / "tmp"))
    modes = ("plain", "traced") if args.trace else ("plain",)
    repeats: list[dict] = []
    attempted = failed = writer_attempted = writer_failed = 0
    correct = True
    reference = None
    ties = 0
    problems: dict = {}
    writer_problems: dict = {}
    while True:
        mode = modes[len(repeats) % len(modes)]
        out = run_dir / f"out{len(repeats)}"
        t_rep = time.perf_counter()
        timeout = max(10.0, 170.0 - (t_rep - started))
        res, setup = None, {}
        if mode == "plain":
            setup, err = run_worker("setup", config, child_env, timeout)
        if setup is not None:
            extra = ["--out", str(out)]
            if mode == "traced":
                extra += ["--spans", str(run_dir / "spans.csv")]
            res, err = run_worker("run", config, child_env, timeout, extra)
        if res is not None:
            res.update(setup)
        # The (agent, q, seed) runs of the workload, then the two CDF writer
        # operations on their fixed input.
        attempted += runs_per_round
        writer_problems = check_cdf_writer(write_cdf_csv, run_dir / "cdf_fixed.csv")
        writer_attempted += len(writer_problems)
        for name, msg in writer_problems.items():
            writer_failed += msg is not None
            correct = correct and (msg is None or name == KNOWN_FAULT)
        if res is None:
            print(f"repeat {len(repeats)} ({mode}) failed: {err}", file=sys.stderr)
            failed += runs_per_round
        else:
            bad = set()
            if Path(res["sonsim_file"]).resolve().parent != (SRC / "sonsim").resolve():
                print(f"sonsim imported from {res['sonsim_file']}, not {SRC}", file=sys.stderr)
                return 2
            if reference is None:
                checked = check_outputs(out, cfg, load_params)
                problems = checked["problems"]
                res["ue_ttis"] = checked["ue_ttis"]
                ties = checked["cdf_print_ties"]
                reference = (output_files(out), checked["ue_ttis"])
            else:
                files = output_files(out)
                res["ue_ttis"] = reference[1]
                for rel in set(files) | set(reference[0]):
                    if files.get(rel) != reference[0].get(rel):
                        print(f"repeat {len(repeats)}: {rel} differs from repeat 0",
                              file=sys.stderr)
                        bad.update((a, q, s) for a, q in owners(rel, cfg) for s in seeds)
                shutil.rmtree(out)
            bad.update(problems)
            correct = correct and not bad
            failed += len(bad)
        res = res or {}
        res.update(mode=mode, repeat_s=time.perf_counter() - t_rep)
        repeats.append(res)
        elapsed = time.perf_counter() - started
        # Start another repeat only if it should end within half a repeat of
        # --seconds, so a run lasts about --seconds however long a repeat is.
        if len(repeats) >= MIN_REPEATS and (
                elapsed + res["repeat_s"] / 2 >= args.seconds
                or elapsed + res["repeat_s"] > TIME_LIMIT_S):
            break

    for (agent, q, seed), msgs in sorted(problems.items()):
        for msg in msgs[:5]:
            print(f"check: {agent} q={q} seed={seed}: {msg}", file=sys.stderr)
    for name, msg in writer_problems.items():
        if msg is not None:
            print(f"check: {name}: {msg}", file=sys.stderr)
    ok = [r for r in repeats if "wall_s" in r]
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if not plain or (args.trace and not traced):
        print("run.py: no untraced repeat" + (" and traced repeat" if args.trace else "")
              + " finished", file=sys.stderr)
        return 1
    raw = {key: statistics.median(r[key] for r in plain)
           for key in ("setup_s", "wall_s", "setup_speed_s", "speed_s")}
    if args.trace:
        flats = [flatten_trace(r) for r in traced]
        values = {k: statistics.median(f[k] for f in flats) for k in flats[0]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - raw["wall_s"])
        (run_dir / "layers.json").write_text(json.dumps(values, indent=1, sort_keys=True))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(corrected(r, "setup_s", "setup_speed_s")
                                         for r in plain),
            "wall_s": statistics.median(corrected(r, "wall_s", "speed_s") for r in plain),
            "ue_ttis_per_s": statistics.median(
                r["ue_ttis"] / corrected(r, "wall_s", "speed_s") for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted + writer_attempted,
              "failed": failed + writer_failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seeds": seeds, "env": env_info, "sonsim_file": ok[0]["sonsim_file"],
              "cdf_print_ties": ties, "cdf_writer": writer_problems,
              "raw_medians": raw,
              "repeats": [{k: v for k, v in r.items() if k != "trace"} for r in repeats],
              "result": result}
    (run_dir / "run.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir / "tmp", ignore_errors=True)

    print(f"sonsim: {ok[0]['sonsim_file']}")
    print("env: " + json.dumps(env_info))
    print(f"{args.workload}: seeds {seeds}, {len(plain)} untraced and {len(traced)} traced "
          f"repeats; {attempted} (agent, q, seed) runs attempted, {failed} failed; "
          f"{writer_attempted} CDF writer operations attempted, {writer_failed} failed; "
          f"{ties} CDF rows repeating the printed value before them")
    print(f"{args.workload} measured: setup {raw['setup_s']:.4g} s, wall {raw['wall_s']:.4g} s, "
          f"speed sample {raw['speed_s'] * 1e3:.4g} ms (reference {REFERENCE_S * 1e3:.4g} ms)")
    if args.trace:
        total = sum(values[f"layer.{name}.self_s"] for name in LAYERS)
        print(f"{args.workload} layer self time, share of {total:.4g} s under run_experiment: "
              + ", ".join(f"{name} {values[f'layer.{name}.self_s'] / total:.1%}"
                          for name in LAYERS))
    else:
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
