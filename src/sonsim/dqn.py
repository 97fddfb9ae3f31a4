"""Value-learning self-healing agent: epsilon-greedy selection with
per-episode decay, a bounded replay memory, and a per-TTI optimizer step
whose targets come from the pre-update parameter snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .mdp import MdpAction, MdpState, encode_state, NUM_ACTIONS
from .nn import AdamState, adam_step, backward, forward


@dataclass
class Experience:
    """One transition as stored in the replay memory."""

    state: MdpState
    action: MdpAction
    reward: float
    next_state: MdpState
    next_is_terminal: bool


class ReplayMemory:
    """Bounded FIFO store of experiences; oldest evicted first."""

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._buf: deque[Experience] = deque(maxlen=capacity)
        self.capacity = capacity

    def push(self, exp: Experience) -> None:
        self._buf.append(exp)

    def __len__(self) -> int:
        return len(self._buf)

    def __getitem__(self, i: int) -> Experience:
        return self._buf[i]

    def sample(self, rng: np.random.Generator, batch_size: int) -> list[Experience]:
        """Uniform sample without replacement; fewer entries than the batch
        size means every entry is used."""
        n = len(self._buf)
        if n <= batch_size:
            return list(self._buf)
        idx = rng.choice(n, size=batch_size, replace=False)
        return [self._buf[int(i)] for i in idx]


@dataclass
class ExplorationSchedule:
    epsilon: float = 1.0
    decay: float = 0.91
    epsilon_min: float = 0.01


def decay_epsilon(schedule: ExplorationSchedule) -> ExplorationSchedule:
    """epsilon <- max(epsilon * decay, epsilon_min), applied once per episode."""
    return replace(schedule,
                   epsilon=max(schedule.epsilon * schedule.decay,
                               schedule.epsilon_min))


def select_action(state: MdpState, params, schedule: ExplorationSchedule,
                  rng: np.random.Generator) -> MdpAction:
    """Uniform random action with probability epsilon, else the argmax of
    the network's values (ties break toward the lowest action index)."""
    if rng.random() < schedule.epsilon:
        return MdpAction(int(rng.integers(NUM_ACTIONS)))
    q = forward(params, encode_state(state))
    return MdpAction(int(np.argmax(q)))


def compute_targets(batch: list[Experience], params_prev, gamma: float) -> np.ndarray:
    """Bootstrap targets, one per experience: the raw reward on terminal
    transitions, otherwise reward + gamma * max value of the next state
    under the snapshot parameters from before this TTI's update."""
    q_next = forward(params_prev, encode_state([e.next_state for e in batch])).max(axis=1)
    return np.array([e.reward if e.next_is_terminal else e.reward + gamma * q
                     for e, q in zip(batch, q_next)])


class DqnAgent:
    """Owns the network parameters, optimizer state, replay memory and
    exploration schedule for one training run."""

    def __init__(self, params, gamma: float, rng: np.random.Generator,
                 schedule: ExplorationSchedule | None = None,
                 memory: ReplayMemory | None = None,
                 batch_size: int = 1,
                 learning_rate: float = 1e-3):
        self.params = params
        self.opt_state = AdamState.for_params(params, learning_rate)
        self.memory = memory if memory is not None else ReplayMemory()
        self.schedule = schedule if schedule is not None else ExplorationSchedule()
        self.gamma = gamma
        self.batch_size = batch_size
        self.rng = rng

    def begin_episode(self) -> None:
        self.schedule = decay_epsilon(self.schedule)

    def act(self, state: MdpState, env) -> MdpAction:
        return select_action(state, self.params, self.schedule, self.rng)

    def observe(self, state, action, reward, next_state, terminal, obs) -> None:
        """Store the transition, then one optimizer step on a replay batch,
        the whole batch in one forward and one backward pass.  Targets are
        computed before the update, from the parameters as they stood at
        the start of this TTI."""
        self.memory.push(Experience(state, action, reward, next_state, terminal))
        batch = self.memory.sample(self.rng, self.batch_size)
        # adam_step never mutates, so self.params is the pre-update snapshot
        targets = compute_targets(batch, self.params, self.gamma)
        grads = backward(self.params, encode_state([e.state for e in batch]),
                         [int(e.action) for e in batch], targets)
        grads = [g / len(batch) for g in grads]
        self.params, self.opt_state = adam_step(self.params, grads, self.opt_state)

