"""Agent-environment episode loop shared by all agents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import drop_radio
from .metrics import EpisodeTrace


@dataclass
class EpisodeResult:
    total_reward: float
    ttis: int
    cleared: bool


def run_episodes(pairs, episode_index: int = 0) -> list[tuple[EpisodeResult, EpisodeTrace, list]]:
    """Run the control loop of one episode of every (env, agent) pair of
    ``pairs``, whose envs share one drop (``SonEnv.replica``), and return a
    summary, the per-TTI trace and the register history of each.

    The traces' radio columns stay None until ``mdp.drop_radio`` fills
    them from the histories.
    """
    out = []
    for env, agent in pairs:
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
        states, actions, rewards, alarms = zip(*rows)
        out.append((EpisodeResult(total_reward=total, ttis=env.t,
                                  cleared=env.alarm_count == 0),
                    EpisodeTrace(episode=episode_index,
                                 tti=np.arange(1, env.t + 1),
                                 state=np.array(states, dtype=int),
                                 action=np.array(actions, dtype=int),
                                 reward=np.array(rewards, dtype=float),
                                 alarm_count=np.array(alarms, dtype=int)),
                    env.history))
    return out


def run_episode(env, agent, episode_index: int = 0) -> tuple[EpisodeResult, EpisodeTrace]:
    """Reset the environment, run one episode to termination, and return a
    summary plus the per-TTI trace, radio columns included:
    ``run_episodes`` and ``mdp.drop_radio`` with one pair."""
    result, trace, history = run_episodes([(env, agent)], episode_index)[0]
    drop_radio(env, [(history, trace)])
    return result, trace
