"""Value-learning self-healing agent: epsilon-greedy selection with
per-episode decay, a bounded replay memory, and a per-TTI optimizer step
whose targets come from the pre-update parameter snapshot.

The network sees one of three one-hot states, so one forward pass over all
three per parameter version gives everything a TTI needs: the action's
values, every target's next-state maximum and, row by row, the activations
of the backward pass.  The network is row-independent, so this is
bit-identical to evaluating each row on its own.

Every learner is a row of a ``LearnerStack``: its parameters and
optimizer moments are rows of (A, P) arrays and its replay columns rows of
(A, size) arrays, and each tick one gather per replay column, one state
pass, one target computation, one backward pass and one Adam step serve
every learner that takes its TTIs in lockstep with it; only the sample's
rows are drawn learner by learner.  A lone learner is a stack of one, with
a learner axis of 1.
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
    that grow as they fill, up to ``capacity`` rows.  A learner's memory
    views its row of its ``LearnerStack``'s columns, which the stack grows
    before the pushes that fill them.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._columns = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                         np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=bool))
        self._len = 0
        self._head = 0    # row of the oldest transition

    def next_size(self) -> int:
        """The ring's size for the next push: doubled, to at least 64 and at
        most ``capacity`` rows, when it is full below capacity."""
        size = len(self._columns[0])
        return min(self.capacity, max(64, 2 * size)) if self._len == size < self.capacity \
            else size

    def push(self, state, action, reward, next_state, terminal) -> None:
        if self._len < self.capacity:
            i = self._len
            if i == len(self._columns[0]):  # a stack grows its rows first
                self._columns = tuple(_resized(c, self.next_size()) for c in self._columns)
            self._len += 1
        else:
            i = self._head
            self._head = (i + 1) % self.capacity
        for column, value in zip(self._columns, (state, action, reward, next_state, terminal)):
            column[i] = value

    def __len__(self) -> int:
        return self._len

    def rows(self, rngs, batch_size: int) -> np.ndarray:
        """Ring rows of a uniform sample without replacement, one row of
        them drawn from each generator of ``rngs``; fewer entries than the
        batch size means every entry, oldest first, as one row."""
        n = self._len
        if n <= batch_size:
            rows = np.arange(n)
        else:
            rows = np.array([rng.choice(n, size=batch_size, replace=False) for rng in rngs])
        return (rows + self._head) % n

    def sample(self, rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, ...]:
        """The five columns at the :meth:`rows` of one sample from ``rng``."""
        rows = self.rows([rng], batch_size).ravel()
        return tuple(c[rows] for c in self._columns)


def _resized(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` with ``size`` values along its last axis: itself when it
    has as many, else a new array holding its values first."""
    if column.shape[-1] == size:
        return column
    out = np.empty(column.shape[:-1] + (size,), column.dtype)
    out[..., :column.shape[-1]] = column
    return out


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
    parameters from before this TTI's update, and ``next_state`` indexes
    its rows (for a stack of networks, a (learner, state) index pair)."""
    return np.where(terminal, reward, reward + gamma * q.max(axis=-1)[next_state])


class LearnerStack:
    """Learners with one network shape and one set of hyperparameters,
    trained side by side.  Their parameters and Adam moments are rows of
    (A, P) arrays and ``params`` per-layer views with a leading learner
    axis, and their replay memories' five columns are views of rows of the
    stack's (A, size) arrays; a lone learner is a stack with A = 1.  A
    learner's ``index`` is its row; ``memories`` and ``rngs`` hold each
    learner's replay memory and generator, in row order.

    Every learner stores one transition per TTI, so all hold the same
    number from the same head, sample batches of one size and share one
    Adam step count.  Once each has stored this TTI's (``observed``), one
    update serves all: each learner's generator draws its sample's rows,
    in row order, one gather per column takes every batch, and the
    targets, backward pass and Adam step run over the learner axis.  Every
    operation is elementwise or row by row across learners, so each row
    gets the bits it gets alone.
    """

    def __init__(self, learners, flat: np.ndarray, opt_state: AdamState,
                 layer_sizes, gamma: float, batch_size: int, ring):
        self.flat = flat
        self.params = layer_views(flat, layer_sizes)
        self.opt_state = opt_state
        self.layer_sizes = tuple(layer_sizes)
        self.gamma = gamma
        self.batch_size = batch_size
        self.memories = [learner.memory for learner in learners]
        self.rngs = [learner.rng for learner in learners]
        self._acts = None     # every state's layer outputs under params
        self._waiting = len(learners)  # learners yet to store this TTI's
        self._learners = np.arange(len(learners))[:, None]
        for row, learner in enumerate(learners):
            learner.stack, learner.index = self, row
        self._share(ring)
        self._reserve()

    @classmethod
    def of(cls, learners) -> None:
        """Put ``learners``, taken between TTIs, in one stack with copies of
        their rows; they must be alike in shape, hyperparameters, stored
        transitions and steps (as learners of one configuration that have
        run the same number of TTIs are).  No learner, or a learner alone
        in its stack, stays put."""
        stacks = [learner.stack for learner in learners]
        if len(learners) < 2 and all(len(s.memories) == 1 for s in stacks):
            return
        memories = [learner.memory for learner in learners]
        if len({(s.layer_sizes, s.gamma, s.batch_size, s.opt_state.step_count,
                 s.opt_state.learning_rate, m.capacity, len(m), m._head)
                for s, m in zip(stacks, memories)}) > 1:
            raise ValueError("learners of one stack must be alike")
        size = max(len(m._columns[0]) for m in memories)
        states = [learner.opt_state for learner in learners]
        cls(learners, np.stack([learner.flat for learner in learners]),
            AdamState(np.stack([s.m for s in states]), np.stack([s.v for s in states]),
                      states[0].step_count, states[0].learning_rate),
            stacks[0].layer_sizes, stacks[0].gamma, stacks[0].batch_size,
            [np.stack([_resized(c, size) for c in column])
             for column in zip(*(m._columns for m in memories))])

    def _share(self, ring) -> None:
        """Hold the replay columns ``ring`` as (A, size) rows, each learner's
        memory viewing its row."""
        self._ring = tuple(ring)
        for row, memory in enumerate(self.memories):
            memory._columns = tuple(c[row] for c in self._ring)

    def _reserve(self) -> None:
        """Grow the replay rows before the pushes that fill them, to the
        size each learner's own ring would grow to."""
        size = self.memories[0].next_size()
        if size != self._ring[0].shape[-1]:
            self._share(_resized(c, size) for c in self._ring)

    def state_pass(self) -> list[np.ndarray]:
        """Every layer's output for all three states, (A, 3, ·) past the
        input, one forward pass per parameter version."""
        if self._acts is None:
            self._acts = forward(self.params, ALL_STATES, all_layers=True)
        return self._acts

    def observed(self) -> None:
        """Count a learner's stored transition; the last of a TTI updates."""
        self._waiting -= 1
        if not self._waiting:
            self._waiting = len(self.memories)
            self._update()

    def _update(self) -> None:
        """One optimizer step per learner on a replay batch of its own, the
        whole stack's batches in one backward pass over rows of the state
        pass.  Targets are computed before the update, from the parameters
        as they stood at the start of this TTI."""
        # every ring holds as many transitions from the same head; one take
        # per column gathers them at their offsets into the (A, size) rows
        at = self.memories[0].rows(self.rngs, self.batch_size) \
            + self._learners * self._ring[0].shape[-1]
        states, actions, rewards, next_states, terminals = (c.take(at) for c in self._ring)
        self._reserve()
        acts = self.state_pass()
        targets = compute_targets(acts[-1], rewards, (self._learners, next_states),
                                  terminals, self.gamma)
        acts = [ALL_STATES[states]] + [a[self._learners, states] for a in acts[1:]]
        grads = backward(self.params, acts[0], actions, targets, acts=acts)
        grads = np.concatenate([g.reshape(len(self.flat), -1) for g in grads], axis=-1)
        self.flat, self.opt_state = adam_step(self.flat, grads / states.shape[-1],
                                              self.opt_state)
        self.params = layer_views(self.flat, self.layer_sizes)
        self._acts = None


class DqnAgent:
    """One training run's learner: its generator, exploration schedule and
    replay memory, and its row ``index`` of ``stack``, which holds its
    network parameters, optimizer state and replay memory's columns
    (``flat``, ``params`` and ``opt_state`` are views of its row).
    """

    def __init__(self, params, gamma: float, rng: np.random.Generator,
                 schedule: ExplorationSchedule | None = None,
                 memory: ReplayMemory | None = None,
                 batch_size: int = 1,
                 learning_rate: float = 1e-3):
        self.memory = memory if memory is not None else ReplayMemory()
        self.schedule = schedule if schedule is not None else ExplorationSchedule()
        self.rng = rng
        flat = flatten(params)[None]
        LearnerStack([self], flat, AdamState.for_params(flat, learning_rate),
                     layer_sizes_of(params), gamma, batch_size,
                     [c[None] for c in self.memory._columns])

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.stack.layer_sizes

    @property
    def flat(self) -> np.ndarray:
        return self.stack.flat[self.index]

    @property
    def params(self) -> list[np.ndarray]:
        return layer_views(self.flat, self.layer_sizes)

    @property
    def opt_state(self) -> AdamState:
        state = self.stack.opt_state
        return AdamState(state.m[self.index], state.v[self.index], state.step_count,
                         state.learning_rate)

    def begin_episode(self) -> None:
        self.schedule = decay_epsilon(self.schedule)

    def act(self, state: MdpState, env) -> MdpAction:
        return select_action(self.stack.state_pass()[-1][self.index, state],
                             self.schedule, self.rng)

    def observe(self, state, action, reward, next_state, terminal, obs) -> None:
        """Store the transition; the stack updates once every learner in it
        has stored this TTI's (``LearnerStack.observed``)."""
        self.memory.push(state, action, reward, next_state, terminal)
        self.stack.observed()
