"""Experiment orchestration over the (agent, UEs-per-cell, seed) grid,
with deterministic outputs.  Each (q, seed) builds one drop and runs all
its agents on it in lockstep.

Every run writes into a staging directory first and is moved into place
only on success, so a failed experiment leaves no partial results.  All
CSV bytes are fully determined by (config, seed); only the manifest
carries a timestamp.
"""

from __future__ import annotations

import datetime
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import seeding
from .baselines import FifoAgent, RandomAgent
from .config import ExperimentConfig, dump_effective_config
from .dqn import DqnAgent, ExplorationSchedule, ReplayMemory
from .mdp import NUM_ACTIONS, NUM_STATES, SonEnv, drop_radio
from .metrics import (EpisodeTrace, summarize_run, write_cdf_csv,
                      write_episodes_csv, write_summary_csv, write_trace_csv,
                      ue_average_sinrs)
from .nn import init_params, save_params
from .runner import EpisodeResult, run_episodes


@dataclass
class SeedRunResult:
    """Everything one (agent, q, seed) cell produced."""

    agent: str
    q: int
    seed: int
    traces: list[EpisodeTrace]
    episodes: list[EpisodeResult]
    dqn_params: np.ndarray | None = None    # the dqn agent's flat parameter vector
    dqn_layer_sizes: tuple = ()


def build_agent(name: str, cfg: ExperimentConfig, seed: int):
    if name == "random":
        return RandomAgent(seeding.stream(seed, seeding.POLICY))
    if name == "fifo":
        return FifoAgent()
    if name == "dqn":
        ml = cfg.ml
        params = init_params((NUM_STATES, ml.hidden_width, ml.hidden_width,
                              NUM_ACTIONS),
                             seeding.stream(seed, seeding.WEIGHTS))
        return DqnAgent(params,
                        gamma=cfg.episode.gamma,
                        rng=seeding.stream(seed, seeding.POLICY),
                        schedule=ExplorationSchedule(ml.epsilon, ml.epsilon_decay,
                                                     ml.epsilon_min),
                        memory=ReplayMemory(ml.replay_capacity),
                        batch_size=ml.batch_size,
                        learning_rate=ml.learning_rate)
    raise ValueError(f"unknown agent {name!r}")


def run_seed(agent_names, q: int, seed: int,
             cfg: ExperimentConfig) -> list[SeedRunResult]:
    """Build the cluster for this (q, seed) once and run every agent of
    ``agent_names`` on it: the control loops episode by episode in lockstep
    (``runner.run_episodes``), then one radio pass over all the episodes'
    register histories (``mdp.drop_radio``); one result per agent, in
    order."""
    cluster = replace(cfg.cluster, ues_per_cell=q)
    env = SonEnv(cluster, cfg.rates, cfg.rewards, cfg.episode,
                 seed=seed, azimuth_delta=cfg.azimuth_delta)
    agents = [build_agent(name, cfg, seed) for name in agent_names]
    pairs = [(env if i == 0 else env.replica(), agent) for i, agent in enumerate(agents)]
    episodes = [run_episodes(pairs, ep) for ep in range(cfg.episode.num_episodes)]
    drop_radio(env, [(history, trace) for runs in episodes for _, trace, history in runs])
    results = []
    for name, agent, runs in zip(agent_names, agents, zip(*episodes)):
        summaries, traces, _ = zip(*runs)
        result = SeedRunResult(agent=name, q=q, seed=seed, traces=list(traces),
                               episodes=list(summaries))
        if name == "dqn":
            result.dqn_params, result.dqn_layer_sizes = agent.flat, agent.layer_sizes
        results.append(result)
    return results


def run_single(agent_name: str, q: int, seed: int,
               cfg: ExperimentConfig) -> SeedRunResult:
    """Build the cluster for this seed, run every episode, keep the traces:
    ``run_seed`` with one agent."""
    return run_seed((agent_name,), q, seed, cfg)[0]


def _write_cell_outputs(out: Path, agent: str, results: list[SeedRunResult]) -> None:
    """Per-(agent, q) files: episode log, SINR CDF, TTI trace, weights."""
    all_traces = [tr for r in results for tr in r.traces]
    episode_rows = [(ep, res)
                    for r in results for ep, res in enumerate(r.episodes)]
    write_episodes_csv(out / f"episodes_{agent}.csv", episode_rows)
    write_cdf_csv(out / f"cdf_{agent}.csv", ue_average_sinrs(all_traces))
    write_trace_csv(out / f"traces_{agent}.csv", all_traces)
    for r in results:
        if r.dqn_params is not None:
            save_params(r.dqn_params, r.dqn_layer_sizes,
                        out / f"weights_dqn_seed{r.seed}.txt")


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Run the full grid and write all result files.

    Returns the output directory.  With a single UEs-per-cell value the
    per-agent files sit at the top level; with several, each value gets a
    ``q<value>`` subdirectory.  ``summary.csv`` always pools per (agent, q).
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not out.is_dir():
        raise OSError(f"output path {out} is not a directory")

    qs = cfg.effective_qs()
    manifest_runs: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        stage = Path(tmp)
        summary_rows = []
        for q in qs:
            cell_dir = stage if len(qs) == 1 else stage / f"q{q}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            results = {agent: [] for agent in cfg.agents}
            for seed in cfg.seeds:
                for r in run_seed(cfg.agents, q, seed, cfg):
                    results[r.agent].append(r)
            for agent in cfg.agents:
                manifest_runs += [f"run: agent={agent} q={q} seed={seed}"
                                  for seed in cfg.seeds]
                _write_cell_outputs(cell_dir, agent, results[agent])
                pooled = [tr for r in results.pop(agent) for tr in r.traces]
                summary_rows.append(
                    (agent, q, summarize_run(pooled, cfg.episode.ttis_per_episode)))

        write_summary_csv(stage / "summary.csv", summary_rows)
        (stage / "effective_config.txt").write_text(dump_effective_config(cfg))
        stamp = datetime.datetime.now().isoformat(timespec="seconds")
        manifest = [f"created: {stamp}", "config: effective_config.txt"]
        (stage / "manifest.txt").write_text("\n".join(manifest + manifest_runs) + "\n")

        for item in sorted(stage.rglob("*")):
            rel = item.relative_to(stage)
            target = out / rel
            if item.is_dir():
                target.mkdir(parents=True, exist_ok=True)
            else:
                shutil.copy2(item, target)
    return out
