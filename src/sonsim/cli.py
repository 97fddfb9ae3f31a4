"""Command-line entry point for running experiments."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import (ConfigError, KNOWN_AGENTS, default_config,
                     dump_effective_config, load_config)
from .experiment import run_experiment

# the largest N of ``--seeds N``, checked before the seed tuple is built
MAX_SEED_COUNT = 1_000_000


def _parse_seeds(text: str) -> tuple:
    """A single integer N means seeds 0..N-1; a comma list is taken as-is."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("--seeds needs a count or a comma-separated list")
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError as exc:
            raise ConfigError(f"--seeds: {p!r} is not an integer") from exc
    if len(values) == 1 and "," not in text:
        n = values[0]
        if not 1 <= n <= MAX_SEED_COUNT:
            raise ConfigError(f"--seeds count must be in 1..{MAX_SEED_COUNT:,}")
        return tuple(range(n))
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonsim",
        description="Simulate a faulty cellular cluster and compare "
                    "self-healing agents (random, fifo, dqn).")
    parser.add_argument("--config", help="configuration file (key = value lines)")
    parser.add_argument("--agent", choices=list(KNOWN_AGENTS) + ["all"],
                        help="run a single agent, or all of them")
    parser.add_argument("--seeds",
                        help="seed count (e.g. 20 -> seeds 0..19) or comma list")
    parser.add_argument("--ues-per-cell", type=int, dest="ues_per_cell",
                        help="number of concurrently active UEs per cell")
    parser.add_argument("--episodes", type=int,
                        help="number of episodes per run")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--dump-effective-config", action="store_true",
                        help="print the effective configuration and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.agent:
            cfg = replace(cfg, agents=tuple(KNOWN_AGENTS) if args.agent == "all"
                          else (args.agent,))
        if args.seeds:
            cfg = replace(cfg, seeds=_parse_seeds(args.seeds))
        if args.ues_per_cell is not None:
            cfg = replace(cfg,
                          cluster=replace(cfg.cluster, ues_per_cell=args.ues_per_cell),
                          qs=(args.ues_per_cell,))
        if args.episodes is not None:
            cfg = replace(cfg, episode=replace(cfg.episode,
                                               num_episodes=args.episodes))
        if args.out:
            cfg = replace(cfg, output_dir=args.out)

        if args.dump_effective_config:
            print(dump_effective_config(cfg), end="")
            return 0

        out = run_experiment(cfg)
        print(f"results written to {out}")
        return 0
    except (ConfigError, OSError, ValueError) as exc:
        print(f"sonsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
