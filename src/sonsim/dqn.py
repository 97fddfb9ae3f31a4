"""Value-learning self-healing agent: epsilon-greedy selection with
per-episode decay, a bounded replay memory, and a per-TTI optimizer step
whose targets come from the pre-update parameter snapshot.

The network sees one of three one-hot states, so one forward pass over all
three per parameter version gives everything a TTI needs: the action's
values, every target's next-state maximum and, row by row, the activations
of the backward pass.  The network is row-independent, so this is
bit-identical to evaluating each row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mdp import MdpAction, MdpState, encode_state, NUM_ACTIONS, NUM_STATES
from .nn import (AdamState, adam_step, backward, flatten, forward,
                 layer_sizes_of, layer_views)

# the network input of every state, one row each (the identity)
ALL_STATES = encode_state(np.arange(NUM_STATES))


class ReplayMemory:
    """Bounded FIFO store of transitions; oldest evicted first.

    A ring of five columns (state, action, reward, next state, terminal)
    that grow as they fill, up to ``capacity`` rows.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._columns = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                         np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=bool))
        self._len = 0
        self._head = 0    # row of the oldest transition

    def push(self, state, action, reward, next_state, terminal) -> None:
        if self._len < self.capacity:
            i = self._len
            if i == len(self._columns[0]):
                size = min(self.capacity, max(64, 2 * i))
                self._columns = tuple(np.resize(c, size) for c in self._columns)
            self._len += 1
        else:
            i = self._head
            self._head = (i + 1) % self.capacity
        for column, value in zip(self._columns, (state, action, reward, next_state, terminal)):
            column[i] = value

    def __len__(self) -> int:
        return self._len

    def sample(self, rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, ...]:
        """Uniform sample without replacement, as the five columns; fewer
        entries than the batch size means every entry is used, oldest
        first."""
        n = self._len
        if n <= batch_size:
            rows = np.arange(n)
        else:
            rows = rng.choice(n, size=batch_size, replace=False)
        rows = (rows + self._head) % n
        return tuple(c[rows] for c in self._columns)


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


def select_action(q: np.ndarray, schedule: ExplorationSchedule,
                  rng: np.random.Generator) -> MdpAction:
    """Uniform random action with probability epsilon, else the argmax of
    the state's values ``q`` (ties break toward the lowest action index)."""
    if rng.random() < schedule.epsilon:
        return MdpAction(int(rng.integers(NUM_ACTIONS)))
    return MdpAction(int(np.argmax(q)))


def compute_targets(q: np.ndarray, reward, next_state, terminal,
                    gamma: float) -> np.ndarray:
    """Bootstrap targets, one per transition: the raw reward on terminal
    transitions, otherwise reward + gamma * max value of the next state.
    ``q`` holds every state's values (one row each) under the snapshot
    parameters from before this TTI's update."""
    return np.where(terminal, reward, reward + gamma * q.max(axis=1)[next_state])


class DqnAgent:
    """Owns the network parameters, optimizer state, replay memory and
    exploration schedule for one training run.

    ``flat`` is the parameter vector and ``params`` its per-layer views.
    """

    def __init__(self, params, gamma: float, rng: np.random.Generator,
                 schedule: ExplorationSchedule | None = None,
                 memory: ReplayMemory | None = None,
                 batch_size: int = 1,
                 learning_rate: float = 1e-3):
        self.layer_sizes = layer_sizes_of(params)
        self.flat = flatten(params)
        self.params = layer_views(self.flat, self.layer_sizes)
        self.opt_state = AdamState.for_params(self.flat, learning_rate)
        self.memory = memory if memory is not None else ReplayMemory()
        self.schedule = schedule if schedule is not None else ExplorationSchedule()
        self.gamma = gamma
        self.batch_size = batch_size
        self.rng = rng
        self._acts = None     # every state's layer outputs under params

    def _state_pass(self) -> list[np.ndarray]:
        """Every layer's output for all three states, one forward pass per
        parameter version."""
        if self._acts is None:
            self._acts = forward(self.params, ALL_STATES, all_layers=True)
        return self._acts

    def begin_episode(self) -> None:
        self.schedule = decay_epsilon(self.schedule)

    def act(self, state: MdpState, env) -> MdpAction:
        return select_action(self._state_pass()[-1][state], self.schedule, self.rng)

    def observe(self, state, action, reward, next_state, terminal, obs) -> None:
        """Store the transition, then one optimizer step on a replay batch,
        the whole batch in one backward pass over rows of the state pass.
        Targets are computed before the update, from the parameters as they
        stood at the start of this TTI."""
        self.memory.push(state, action, reward, next_state, terminal)
        states, actions, rewards, next_states, terminals = \
            self.memory.sample(self.rng, self.batch_size)
        acts = self._state_pass()
        targets = compute_targets(acts[-1], rewards, next_states, terminals, self.gamma)
        rows = [a[states] for a in acts]
        grads = backward(self.params, rows[0], actions, targets, acts=rows)
        self.flat, self.opt_state = adam_step(self.flat, flatten(grads) / len(states),
                                              self.opt_state)
        self.params = layer_views(self.flat, self.layer_sizes)
        self._acts = None
