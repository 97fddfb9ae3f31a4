"""Experiment orchestration over the (agent, UEs-per-cell, seed) grid,
with deterministic outputs.  Every (seed, agent) pair runs its control
loop once for all qs, in lockstep ticks; then each (q, seed) builds one
drop, whose one radio pass runs when its traces are first read.  Each
distinct file is formatted once a run.

Every run writes into a staging directory first and is moved into place
only on success, so a failed experiment leaves no partial results.  All
CSV bytes are fully determined by (config, seed); only the manifest
carries a timestamp.
"""

from __future__ import annotations

import copy
import datetime
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import seeding
from .baselines import FifoAgent, RandomAgent
from .config import ExperimentConfig, dump_effective_config
from .dqn import DqnAgent, ExplorationSchedule, ReplayMemory
from .mdp import NUM_ACTIONS, NUM_STATES, SonEnv, drop_radio
from .metrics import (EpisodeTrace, RunSummary, summarize_run, trace_columns,
                      ue_average_sinrs, write_cdf_csv, write_episodes_csv,
                      write_summary_csv, write_trace_csv)
from .nn import init_params, save_params
from .runner import EpisodeResult, run_lockstep


@dataclass
class SeedRunResult:
    """Everything one (agent, q, seed) cell produced.  Reading ``traces``
    runs the (q, seed)'s radio pass, once for all its agents' results."""

    agent: str
    q: int
    seed: int
    episodes: list[EpisodeResult]
    dqn_params: np.ndarray | None    # the dqn agent's flat parameter vector
    dqn_layer_sizes: tuple
    radio: list = field(repr=False, compare=False)  # the (q, seed)'s pass until it runs
    _traces: list[EpisodeTrace] = field(repr=False, compare=False)

    @property
    def traces(self) -> list[EpisodeTrace]:
        if self.radio:
            drop_radio(*self.radio[0])
            self.radio.clear()
        return self._traces


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
        return DqnAgent(params, gamma=cfg.episode.gamma, rng=seeding.stream(seed, seeding.POLICY),
                        schedule=ExplorationSchedule(ml.epsilon, ml.epsilon_decay, ml.epsilon_min),
                        memory=ReplayMemory(ml.replay_capacity), batch_size=ml.batch_size,
                        learning_rate=ml.learning_rate)
    raise ValueError(f"unknown agent {name!r}")


def run_seeds(agent_names, qs, seeds, cfg: ExperimentConfig):
    """Run every agent of ``agent_names`` on every seed of ``seeds`` at each
    UEs-per-cell value of ``qs``; yield (q, per-seed results) one q at a
    time, per seed one result per agent, in order.

    Faults, rewards, actions and learning never read the radio, so the
    control loops of all (seed, agent) pairs run once, in lockstep ticks
    (``runner.run_lockstep``) on each seed's drop at the first q.  Each
    (q, seed) then gets one radio pass (``mdp.drop_radio``) on the seed's
    drop at that q, run when one of its results' traces is first read.
    """
    drops = ([SonEnv(replace(cfg.cluster, ues_per_cell=q), cfg.rates, cfg.rewards,
                     cfg.episode, seed=seed, azimuth_delta=cfg.azimuth_delta)
              for seed in seeds] for q in qs)
    envs = next(drops)
    agents = [[build_agent(name, cfg, seed) for name in agent_names] for seed in seeds]
    runs = run_lockstep([(env if i == 0 else env.replica(), agent)
                         for env, row in zip(envs, agents) for i, agent in enumerate(row)],
                        range(cfg.episode.num_episodes))
    runs = [runs[s:s + len(agent_names)] for s in range(0, len(runs), len(agent_names))]
    for i, q in enumerate(qs):
        yield q, [_seed_results(env, q, seed, agent_names, row, seed_runs, i == len(qs) - 1)
                  for seed, env, row, seed_runs in zip(seeds, envs, agents, runs)]
        envs = next(drops, None)


def _seed_results(env: SonEnv, q: int, seed: int, agent_names, agents, seed_runs,
                  last: bool) -> list[SeedRunResult]:
    """One seed's results at ``q``, from its runs ``seed_runs``: copies of
    the traces, but the ``last`` q takes them and empties ``seed_runs``.  A
    trace with an earlier agent's history and actions is that trace (under
    one reward schedule the history fixes the state, reward and alarm
    columns), and the radio pass on ``env`` waits in the results until read."""
    firsts: dict = {}  # (episode, history, action bytes) -> (history, trace)
    traces = [[] for _ in seed_runs]
    for e, episode in enumerate(zip(*seed_runs)):
        for agent_traces, (_, trace, history) in zip(traces, episode):
            key = (e, tuple(history), trace.action.tobytes())
            agent_traces.append(firsts.setdefault(
                key, (history, trace if last else copy.copy(trace)))[1])
    radio = [(env, list(firsts.values()))]
    results = [SeedRunResult(name, q, seed, [summary for summary, _, _ in agent_runs],
                             getattr(agent, "flat", None), getattr(agent, "layer_sizes", ()),
                             radio, agent_traces)
               for name, agent, agent_runs, agent_traces in zip(agent_names, agents, seed_runs,
                                                                 traces)]
    if last:
        seed_runs.clear()
    return results


def run_single(agent_name: str, q: int, seed: int,
               cfg: ExperimentConfig) -> SeedRunResult:
    """Build the cluster for this seed, run every episode, keep the traces:
    ``run_seeds`` with one agent, one q and one seed."""
    [(_, [[result]])] = run_seeds((agent_name,), (q,), (seed,), cfg)
    return result


def _write_cell_outputs(out: Path, agent: str, q: int, results, written: dict,
                        cfg: ExperimentConfig) -> RunSummary:
    """Write the per-(agent, q) files and return the pooled traces' summary.
    ``written`` maps (file kind, the exact input its writer formats) to the
    first file written from it, which a file with the same key copies, and
    holds the summaries.  The summary, CDF and trace file key on q and the
    traces' ids: a q's traces all live while its files are written, a run
    takes each q once, and equal traces are one object (``run_seeds``)."""
    traces = [tr for r in results for tr in r.traces]
    pooled = (q, *map(id, traces))
    sinrs = []  # the per-UE means, pooled once, until the CDF writer takes them
    if ("summary", pooled) not in written:
        sinrs.append(ue_average_sinrs(traces))
        written["summary", pooled] = summarize_run(traces, cfg.episode.ttis_per_episode, sinrs[0])
    rows = [(ep, res) for r in results for ep, res in enumerate(r.episodes)]
    files = [(f"episodes_{agent}.csv", repr(rows), write_episodes_csv, rows),  # exact floats
             (f"cdf_{agent}.csv", pooled, lambda path: write_cdf_csv(path, sinrs.pop())),
             (f"traces_{agent}.csv", pooled,
              lambda path: write_trace_csv(path, trace_columns(traces)))]
    files += [(f"weights_dqn_seed{r.seed}.txt", (r.dqn_layer_sizes, r.dqn_params.tobytes()),
               lambda path, r: save_params(r.dqn_params, r.dqn_layer_sizes, path), r)
              for r in results if r.dqn_params is not None]
    for name, key, write, *data in files:
        path = out / name
        first = written.setdefault((name.split("_")[0], key), path)
        if first is path:
            write(path, *data)
        else:
            shutil.copyfile(first, path)
    return written["summary", pooled]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Run the full grid and write all result files.

    Returns the output directory.  With a single UEs-per-cell value the
    per-agent files sit at the top level; with several, each value gets a
    ``q<value>`` subdirectory.  ``summary.csv`` always pools per (agent, q).
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    qs = cfg.effective_qs()
    manifest_runs = [f"run: agent={agent} q={q} seed={seed}"
                     for q in qs for agent in cfg.agents for seed in cfg.seeds]
    written: dict = {}  # (file kind, writer input) -> the first file written
    with tempfile.TemporaryDirectory() as tmp:
        stage = Path(tmp)
        summary_rows = []
        for q, per_seed in run_seeds(cfg.agents, qs, cfg.seeds, cfg):
            cell_dir = stage if len(qs) == 1 else stage / f"q{q}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            summary_rows += [(agent, q, _write_cell_outputs(cell_dir, agent, q, results,
                                                            written, cfg))
                             for agent, results in zip(cfg.agents, zip(*per_seed))]
            del per_seed  # frees this q's radio before the next q's pass

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
