"""One phase of one benchmark repeat, in a fresh interpreter.

    python3 perfbench/worker.py setup --src SRC --config CFG --t0 T
    python3 perfbench/worker.py run --src SRC --config CFG --out DIR [--spans FILE]

``setup`` times a fresh interpreter to ready-to-simulate: importing
sonsim, parsing the workload config and building one ``SonEnv`` per
distinct (q, seed).  ``--t0`` is ``time.monotonic()`` taken by the parent
just before it started this process; the monotonic clock is shared by all
processes, so interpreter start-up is counted.

``run`` times ``run_experiment`` writing the workload's CSVs into
``--out``.  It is a separate process because envs built and freed
beforehand slow the run by several per cent.  With ``--spans`` every
public sonsim function is traced and the spans are written to that file
after the timed region.

Both untraced phases sample the host's speed while they are timed
(probe.py); the sampler's own time is taken out of the reported time.

The last stdout line is a JSON object with the timings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import replace


def peak_rss_mb() -> float:
    """Peak resident memory of this process since exec.

    ``ru_maxrss`` is not used: Linux carries the launching process's peak
    across exec into it, so a child started by a large parent reports the
    parent's figure.  ``VmHWM`` belongs to the new address space alone.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from probe import SpeedSampler

    if args.phase == "setup":
        with SpeedSampler() as speed:
            import sonsim
            from sonsim.config import load_config
            from sonsim.mdp import SonEnv
            cfg = load_config(args.config)
            envs = [SonEnv(replace(cfg.cluster, ues_per_cell=q), cfg.rates, cfg.rewards,
                           cfg.episode, seed=seed, azimuth_delta=cfg.azimuth_delta)
                    for q in cfg.effective_qs() for seed in cfg.seeds]
            setup_s = time.monotonic() - args.t0 - speed.spent_s
        print(json.dumps({"sonsim_file": sonsim.__file__, "envs": len(envs),
                          "setup_s": setup_s, "setup_speed_s": speed.mean_s}))
        return 0

    import sonsim
    from sonsim.config import load_config
    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cfg = load_config(args.config)

    # The traced run is not sampled, so that no sample lands in a span.
    speed = SpeedSampler() if tracer is None else contextlib.nullcontext()
    start = time.perf_counter()
    with speed:
        sonsim.run_experiment(cfg, args.out)
    wall_s = time.perf_counter() - start

    result = {"sonsim_file": sonsim.__file__, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is None:
        result.update(wall_s=wall_s - speed.spent_s, speed_s=speed.mean_s)
    else:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
