"""Agent-environment episode loop shared by all agents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import EpisodeTrace


@dataclass
class EpisodeResult:
    total_reward: float
    ttis: int
    cleared: bool


def run_episode(env, agent, episode_index: int = 0) -> tuple[EpisodeResult, EpisodeTrace]:
    """Reset the environment, run one episode to termination, and return a
    summary plus the per-TTI trace, whose radio columns are the terminal
    step's episode observables."""
    state = env.reset(episode_index)
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

    result = EpisodeResult(total_reward=total, ttis=env.t,
                           cleared=env.alarm_count == 0)
    states, actions, rewards, alarms = zip(*rows)
    return result, EpisodeTrace(
        episode=episode_index,
        tti=np.arange(1, env.t + 1),
        state=np.array(states, dtype=int),
        action=np.array(actions, dtype=int),
        reward=np.array(rewards, dtype=float),
        alarm_count=np.array(alarms, dtype=int),
        sinr_db=obs["sinr_db"],
        rate_mbps=obs["ue_mbps"],
        cell_mbps=obs["cell_mbps"],
    )
