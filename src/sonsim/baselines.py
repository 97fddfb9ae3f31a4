"""Comparison fault-handling policies: uniform-random over active alarms
and first-in-first-out over fault arrivals, one action per TTI."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .faults import ALARM_KINDS, FaultKind, FaultRegister, paired_alarm
from .mdp import CLEAR_ACTION_FOR, MdpAction


def random_policy(register: FaultRegister, rng: np.random.Generator) -> MdpAction:
    """Clear-action for a uniformly chosen active alarm type; NO_ACTION when
    the register is empty."""
    active = [a for a in ALARM_KINDS if register.is_active(a)]
    if not active:
        return MdpAction.NO_ACTION
    return CLEAR_ACTION_FOR[active[int(rng.integers(len(active)))]]


@dataclass
class FifoQueue:
    """Pending fault instances in arrival order: (alarm type, arrival TTI)."""

    pending: deque = field(default_factory=deque)

    def push(self, alarm: FaultKind, tti: int) -> None:
        self.pending.append((FaultKind(alarm), tti))

    def drop_one(self, alarm: FaultKind) -> None:
        """Remove the oldest pending instance of ``alarm`` (a spontaneous
        clear resolved it before the agent got there)."""
        for entry in self.pending:
            if entry[0] == alarm:
                self.pending.remove(entry)
                return


def fifo_policy(queue: FifoQueue) -> MdpAction:
    """Clear-action for the head-of-queue fault (popped); NO_ACTION when
    the queue is empty."""
    if not queue.pending:
        return MdpAction.NO_ACTION
    alarm, _ = queue.pending.popleft()
    return CLEAR_ACTION_FOR[alarm]


class RandomAgent:
    """Stateless uniform-random fault handler."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def begin_episode(self) -> None:
        pass

    def act(self, state, env) -> MdpAction:
        return random_policy(env.register, self.rng)

    def observe(self, state, action, reward, next_state, terminal, obs) -> None:
        pass


class FifoAgent:
    """Clears faults strictly in arrival order, one per TTI."""

    def __init__(self):
        self.queue = FifoQueue()

    def begin_episode(self) -> None:
        self.queue = FifoQueue()

    def act(self, state, env) -> MdpAction:
        return fifo_policy(self.queue)

    def observe(self, state, action, reward, next_state, terminal, obs) -> None:
        event = obs["fault_event"]
        if event in ALARM_KINDS:
            self.queue.push(event, obs["tti"])
        elif event >= FaultKind.AZIMUTH_RESTORED:
            self.queue.drop_one(paired_alarm(event))
