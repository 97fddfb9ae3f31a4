"""Agent-environment episode loop shared by all agents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import episode_radio
from .metrics import EpisodeTrace


@dataclass
class EpisodeResult:
    total_reward: float
    ttis: int
    cleared: bool


def run_episodes(pairs, episode_index: int = 0) -> list[tuple[EpisodeResult, EpisodeTrace]]:
    """Run one episode of every (env, agent) pair of ``pairs``, whose envs
    share one drop (``SonEnv.replica``), and return a summary plus the
    per-TTI trace of each.

    Every env is reset to the episode under one shadowing draw and its
    agent runs the control loop to termination; then one shared pass
    computes the radio columns of all the traces (``mdp.episode_radio``).
    """
    shadow = None
    logs = []
    for env, agent in pairs:
        state = env.reset(episode_index, shadow)
        shadow = env.shadow
        agent.begin_episode()
        total = 0.0
        rows = []
        while True:
            action = agent.act(state, env)
            next_state, reward, terminal, obs = env.step(action)
            agent.observe(state, action, reward, next_state, terminal, obs)
            total += reward
            rows.append((int(state), int(action), reward, obs["alarm_count"]))
            state = next_state
            if terminal:
                break
        logs.append((total, rows))

    out = []
    radio = episode_radio([env for env, _ in pairs])
    for (env, _), (total, rows), (sinr_db, ue_mbps, cell_mbps) in zip(pairs, logs, radio):
        result = EpisodeResult(total_reward=total, ttis=env.t,
                               cleared=env.alarm_count == 0)
        states, actions, rewards, alarms = zip(*rows)
        out.append((result, EpisodeTrace(
            episode=episode_index,
            tti=np.arange(1, env.t + 1),
            state=np.array(states, dtype=int),
            action=np.array(actions, dtype=int),
            reward=np.array(rewards, dtype=float),
            alarm_count=np.array(alarms, dtype=int),
            sinr_db=sinr_db,
            rate_mbps=ue_mbps,
            cell_mbps=cell_mbps,
        )))
    return out


def run_episode(env, agent, episode_index: int = 0) -> tuple[EpisodeResult, EpisodeTrace]:
    """Reset the environment, run one episode to termination, and return a
    summary plus the per-TTI trace: ``run_episodes`` with one pair."""
    return run_episodes([(env, agent)], episode_index)[0]
