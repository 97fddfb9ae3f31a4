"""Agent-environment control loop shared by all agents: every (env, agent)
pair of a run advances in lockstep ticks, one TTI per tick."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dqn import DqnAgent, LearnerStack
from .mdp import drop_radio
from .metrics import EpisodeTrace


@dataclass
class EpisodeResult:
    total_reward: float
    ttis: int
    cleared: bool


class _Pair:
    """A pair's place in the loop: its finished episodes and the return
    and per-TTI rows of its episode so far (no rows between episodes)."""

    __slots__ = ("env", "agent", "done", "total", "rows")

    def __init__(self, env, agent):
        self.env, self.agent, self.done, self.rows = env, agent, [], []


def run_lockstep(pairs, episodes) -> list[list[tuple[EpisodeResult, EpisodeTrace, list]]]:
    """Run the episodes ``episodes`` (indices, in order) of every (env,
    agent) pair of ``pairs`` and return, per pair and episode, a summary,
    the per-TTI trace and the register history.

    Each tick every pair still running advances one TTI; a pair whose
    episode ended starts its next one on the next tick, and a pair leaves
    after its last.  So every pair runs its own episodes in order, and the
    pairs' dqn learners, each storing one transition per tick, train as one
    ``LearnerStack``, which a learner leaves with its pair.  The traces'
    radio columns stay None until ``mdp.drop_radio`` fills them from the
    histories.
    """
    running = [_Pair(env, agent) for env, agent in pairs]
    out = [pair.done for pair in running]
    LearnerStack.of([p.agent for p in running if isinstance(p.agent, DqnAgent)])
    while running:
        for pair in running:
            env, agent = pair.env, pair.agent
            if not pair.rows:
                env.reset(episodes[len(pair.done)])
                agent.begin_episode()
                pair.total = 0.0
            state = env.state
            action = agent.act(state, env)
            next_state, reward, terminal, obs = env.step(action)
            agent.observe(state, action, reward, next_state, terminal, obs)
            pair.total += reward
            pair.rows.append((int(state), int(action), reward, obs["alarm_count"]))
            if terminal:
                pair.done.append(_finish(pair))
                pair.rows = []
        leaving = [p for p in running if not p.rows and len(p.done) == len(episodes)]
        if leaving:
            running = [p for p in running if p not in leaving]
            left = [p.agent for p in leaving if isinstance(p.agent, DqnAgent)]
            if left:  # each into a stack of its own, and the others on together
                LearnerStack.of([p.agent for p in running if isinstance(p.agent, DqnAgent)])
                for learner in left:
                    LearnerStack.of([learner])
    return out


def _finish(pair: _Pair) -> tuple[EpisodeResult, EpisodeTrace, list]:
    env = pair.env
    states, actions, rewards, alarms = zip(*pair.rows)
    return (EpisodeResult(total_reward=pair.total, ttis=env.t,
                          cleared=env.alarm_count == 0),
            EpisodeTrace(episode=env.episode_index,
                         state=np.array(states, dtype=int),
                         action=np.array(actions, dtype=int),
                         reward=np.array(rewards, dtype=float),
                         alarm_count=np.array(alarms, dtype=int)),
            env.history)


def run_episode(env, agent, episode_index: int = 0) -> tuple[EpisodeResult, EpisodeTrace]:
    """Reset the environment, run one episode to termination, and return a
    summary plus the per-TTI trace, radio columns included:
    ``run_lockstep`` and ``mdp.drop_radio`` with one pair."""
    [[(result, trace, history)]] = run_lockstep([(env, agent)], [episode_index])
    drop_radio(env, [(history, trace)])
    return result, trace
