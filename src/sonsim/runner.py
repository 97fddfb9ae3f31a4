"""Agent-environment control loop shared by all agents: every (env, agent)
pair of a run advances in lockstep ticks, one TTI per tick."""

from __future__ import annotations

from .dqn import DqnAgent, LearnerStack
from .mdp import drop_radio
from .metrics import EpisodeTrace


def run_lockstep(pairs, episodes) -> list[list[EpisodeTrace]]:
    """Run the episodes ``episodes`` (indices, in order) of every (env,
    agent) pair of ``pairs``, each env between episodes, and return per pair
    its episodes' traces (``SonEnv.trace``).

    Each tick every pair still running advances one TTI; a pair whose
    episode ended starts its next one on the next tick, and a pair leaves
    after its last.  So every pair runs its own episodes in order, and the
    pairs' dqn learners, each storing one transition per tick, train as one
    ``LearnerStack``, which a learner leaves with its pair.  The traces'
    radio columns stay None until ``mdp.drop_radio`` fills them.
    """
    out = [[] for _ in pairs]
    running = [(env, agent, done) for (env, agent), done in zip(pairs, out)]
    LearnerStack.of([agent for _, agent, _ in running if isinstance(agent, DqnAgent)])
    while running:
        for env, agent, done in running:
            if env.terminal:
                env.reset(episodes[len(done)])
                agent.begin_episode()
            state = env.state
            action = agent.act(state, env)
            next_state, reward, terminal, obs = env.step(action)
            agent.observe(state, action, reward, next_state, terminal, obs)
            if terminal:
                done.append(env.trace())
        leaving = [agent for _, agent, done in running if len(done) == len(episodes)]
        if leaving:
            running = [(env, agent, done) for env, agent, done in running
                       if len(done) < len(episodes)]
            left = [agent for agent in leaving if isinstance(agent, DqnAgent)]
            if left:  # each into a stack of its own, and the others on together
                LearnerStack.of([agent for _, agent, _ in running if isinstance(agent, DqnAgent)])
                for learner in left:
                    LearnerStack.of([learner])
    return out


def run_episode(env, agent, episode_index: int = 0) -> EpisodeTrace:
    """Run one episode of ``env`` (between episodes) to termination and
    return its trace, radio columns included: ``run_lockstep`` and
    ``mdp.drop_radio`` with one pair."""
    [[trace]] = run_lockstep([(env, agent)], [episode_index])
    drop_radio(env, [trace])
    return trace
