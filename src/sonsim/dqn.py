"""Value-learning self-healing agent: epsilon-greedy selection with
per-episode decay, a bounded replay memory, and a per-TTI optimizer step
whose targets come from the pre-update parameter snapshot.

The network sees one of three one-hot states, so one forward pass over all
three per parameter version gives everything a TTI needs: the action's
values, every target's next-state maximum and, row by row, the activations
of the backward pass.  The network is row-independent, so this is
bit-identical to evaluating each row on its own.

Every learner is a row of a ``LearnerStack``: its parameters and
optimizer moments are rows of (A, P) arrays and its transitions a row of
the stack's one replay memory, whose columns are (A, size).  Each tick
one gather per replay column, one state pass, one target computation, one
backward pass and one Adam step serve every learner that takes its TTIs
in lockstep with it; only the sample's rows are drawn learner by learner.
A lone learner is a stack of one, with a learner axis of 1.
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

    A ring of five columns (state, action, reward, next state, terminal),
    each (A, size) with one row per learner of a ``LearnerStack``, that
    grow as they fill, up to ``capacity`` slots.  Every learner puts its
    transition of a TTI in the same slot and ``advance`` stores them, so
    the rows hold as many transitions from one head.  A lone memory has
    one row; ``sample`` uses row 0.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._columns = tuple(np.empty((1, 0), dtype=t)
                              for t in (np.intp, np.intp, float, np.intp, bool))
        self._len = 0
        self._head = 0    # slot of the oldest transition

    @classmethod
    def of(cls, rows) -> ReplayMemory:
        """A memory of the rows of the (memory, row) pairs ``rows``, in
        order; the memories must hold as many transitions from one head."""
        first = rows[0][0]
        memory = cls(first.capacity)
        memory._columns = tuple(np.stack([m._columns[k][row] for m, row in rows])
                                for k in range(len(first._columns)))
        memory._len, memory._head = first._len, first._head
        return memory

    def put(self, row: int, state, action, reward, next_state, terminal) -> None:
        """Write ``row``'s transition in this TTI's slot; the columns grow,
        doubled to at least 64 and at most ``capacity`` slots, when the slot
        is past their end."""
        i = self._len if self._len < self.capacity else self._head
        if i == self._columns[0].shape[1]:
            size = min(self.capacity, max(64, 2 * i))
            self._columns = tuple(np.concatenate([c, np.empty((len(c), size - i), c.dtype)], 1)
                                  for c in self._columns)
        for column, value in zip(self._columns, (state, action, reward, next_state, terminal)):
            column[row, i] = value

    def advance(self) -> None:
        """Store this TTI's slot, evicting the oldest transition when full."""
        if self._len < self.capacity:
            self._len += 1
        else:
            self._head = (self._head + 1) % self.capacity

    def __len__(self) -> int:
        return self._len

    def batches(self, rngs, batch_size: int) -> list[np.ndarray]:
        """The five columns of a uniform sample without replacement from
        each of the first len(rngs) rows, the r-th drawn from ``rngs[r]``,
        as a list of (len(rngs), batch) arrays (a tuple built from a
        generator would stay in the 5-tuple free list); fewer entries than
        the batch size means every entry, oldest first."""
        n = self._len
        if n <= batch_size:
            slots = np.arange(n)
        else:
            slots = np.array([rng.choice(n, size=batch_size, replace=False) for rng in rngs])
        at = (slots + self._head) % n + np.arange(len(rngs))[:, None] * self._columns[0].shape[1]
        return [c.take(at) for c in self._columns]

    def sample(self, rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, ...]:
        """Row 0's five columns at one sample from ``rng``."""
        return tuple(c[0] for c in self.batches([rng], batch_size))


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
    axis, and they share one replay ``memory`` with a row each; a lone
    learner is a stack with A = 1.  A learner's ``index`` is its row, and
    ``rngs`` holds each learner's generator, in row order.

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
                 layer_sizes, gamma: float, batch_size: int, memory: ReplayMemory):
        self.flat = flat
        self.params = layer_views(flat, layer_sizes)
        self.opt_state = opt_state
        self.layer_sizes = tuple(layer_sizes)
        self.gamma = gamma
        self.batch_size = batch_size
        self.memory = memory
        self.rngs = [learner.rng for learner in learners]
        self._acts = None     # every state's layer outputs under params
        self._waiting = len(learners)  # learners yet to store this TTI's
        self._learners = np.arange(len(learners))[:, None]
        for row, learner in enumerate(learners):
            learner.stack, learner.index, learner.memory = self, row, memory

    @classmethod
    def of(cls, learners) -> None:
        """Put ``learners``, taken between TTIs, in one stack with copies of
        their rows; they must be alike in shape, hyperparameters, stored
        transitions and steps (as learners of one configuration that have
        run the same number of TTIs are).  No learner, or a learner alone
        in its stack, stays put."""
        stacks = [learner.stack for learner in learners]
        if len(learners) < 2 and all(len(s.rngs) == 1 for s in stacks):
            return
        memories = [learner.memory for learner in learners]
        if len({(s.layer_sizes, s.gamma, s.batch_size, s.opt_state.step_count,
                 s.opt_state.learning_rate, m.capacity, len(m), m._head)
                for s, m in zip(stacks, memories)}) > 1:
            raise ValueError("learners of one stack must be alike")
        states = [learner.opt_state for learner in learners]
        cls(learners, np.stack([learner.flat for learner in learners]),
            AdamState(np.stack([s.m for s in states]), np.stack([s.v for s in states]),
                      states[0].step_count, states[0].learning_rate),
            stacks[0].layer_sizes, stacks[0].gamma, stacks[0].batch_size,
            ReplayMemory.of([(learner.memory, learner.index) for learner in learners]))

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
            self._waiting = len(self.rngs)
            self.memory.advance()
            self._update()

    def _update(self) -> None:
        """One optimizer step per learner on a replay batch of its own, the
        whole stack's batches in one backward pass over rows of the state
        pass.  Targets are computed before the update, from the parameters
        as they stood at the start of this TTI."""
        states, actions, rewards, next_states, terminals = self.memory.batches(
            self.rngs, self.batch_size)
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
    """One training run's learner: its generator and exploration schedule,
    and its row ``index`` of ``stack``, which holds its network parameters
    and optimizer state (``flat`` and ``opt_state`` are views of its
    row) and of the stack's replay ``memory``.
    """

    def __init__(self, params, gamma: float, rng: np.random.Generator,
                 schedule: ExplorationSchedule | None = None,
                 memory: ReplayMemory | None = None,
                 batch_size: int = 1,
                 learning_rate: float = 1e-3):
        self.schedule = schedule if schedule is not None else ExplorationSchedule()
        self.rng = rng
        flat = flatten(params)[None]
        LearnerStack([self], flat, AdamState.for_params(flat, learning_rate),
                     layer_sizes_of(params), gamma, batch_size,
                     memory if memory is not None else ReplayMemory())

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.stack.layer_sizes

    @property
    def flat(self) -> np.ndarray:
        return self.stack.flat[self.index]

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
        self.memory.put(self.index, state, action, reward, next_state, terminal)
        self.stack.observed()
