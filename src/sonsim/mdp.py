"""The self-healing control problem: states, actions, reward and the
TTI-clocked environment wrapping the radio cluster and the fault process.

One environment step is one TTI (1 ms) of the control loop: the fault
process draws one event, the agent's action (if any) clears one alarm
instance, the reward compares the register population before and after,
and a snapshot of the register is recorded.  An episode ends when the
register empties or the TTI budget runs out.  The agents see the register
alone, so the radio observables (SINR and throughput, which only the
metrics read) are computed once per episode, at its terminal step: the
UEs walk every TTI from the drop, then handover, SINR and throughput run
over blocks of TTIs, each block under the cells ``derive_cells`` derives
from its register snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from . import seeding
from .faults import (ALARM_KINDS, FaultKind, FaultRates, FaultRegister,
                     apply_fault, clear_fault, derive_cells, paired_alarm,
                     sample_event, DEFAULT_AZIMUTH_DELTA_DEG)
from .radio import (ClusterConfig, build_cluster, compute_sinr_all,
                    compute_throughputs, reassign_serving, rx_power_matrix,
                    step_mobility)

NUM_STATES = 3
NUM_ACTIONS = 5
# UE-rows (TTIs x UEs) per block of an episode's radio pass; bounds its
# (rows, C) temporaries, as DROP_CHUNK_ROWS does for the drop
RADIO_BLOCK_ROWS = 2048


class MdpState(IntEnum):
    TRANSIENT = 0   # start state, nothing observed yet
    INCREASED = 1   # active alarm count went up
    DECREASED = 2   # active alarm count went down


class MdpAction(IntEnum):
    NO_ACTION = 0
    RESTORE_NEIGHBOR = 1
    ENABLE_DIVERSITY = 2
    RECOVER_POWER = 3
    RESET_AZIMUTH = 4


# Which alarm type each action clears, and the reverse map.
ACTION_CLEARS = {
    MdpAction.RESTORE_NEIGHBOR: FaultKind.NEIGHBOR_DOWN,
    MdpAction.ENABLE_DIVERSITY: FaultKind.DIVERSITY_LOST,
    MdpAction.RECOVER_POWER: FaultKind.FEEDER_FAULT,
    MdpAction.RESET_AZIMUTH: FaultKind.AZIMUTH_DRIFT,
}
CLEAR_ACTION_FOR = {alarm: action for action, alarm in ACTION_CLEARS.items()}


@dataclass
class RewardSchedule:
    """Reward per alarm-count transition; the all-clear case dominates."""

    worsened: float = -1.0    # more alarm types active than before
    unchanged: float = 0.0    # population count unchanged
    improved: float = 1.0     # fewer alarm types active
    cleared: float = 5.0      # register empty (objective met)

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"rewards.{f.name} must be finite")


@dataclass
class EpisodeConfig:
    ttis_per_episode: int = 20
    num_episodes: int = 50
    gamma: float = 0.95

    def __post_init__(self):
        if self.ttis_per_episode < 1:
            raise ValueError("ttis_per_episode must be at least 1")
        if self.num_episodes < 1:
            raise ValueError("num_episodes must be at least 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")


def alarm_reward(prev_count: int, cur_count: int,
                 schedule: RewardSchedule) -> float:
    """Reward for moving the register population from prev to cur."""
    if prev_count < 0 or cur_count < 0:
        raise ValueError("alarm counts must be non-negative")
    if cur_count == 0:
        return schedule.cleared
    if cur_count < prev_count:
        return schedule.improved
    if cur_count == prev_count:
        return schedule.unchanged
    return schedule.worsened


def transition(state: MdpState, prev_count: int, cur_count: int) -> MdpState:
    """Next control state; equal counts self-loop."""
    if cur_count > prev_count:
        return MdpState.INCREASED
    if cur_count < prev_count:
        return MdpState.DECREASED
    return MdpState(state)


_ONE_HOT = np.eye(NUM_STATES)


def encode_state(state) -> np.ndarray:
    """One-hot feature vector over the three control states; a sequence of
    states gives one row per state."""
    return _ONE_HOT.take(state, axis=0)


class SonEnv:
    """Fault-injected cluster as a step environment for the healing agents.

    The alarm register is the only fault state: ``cells`` is the healthy
    cluster from the drop and is never written, and the radio derives each
    TTI's cells from the register snapshot ``step`` recorded for it.
    All randomness is keyed off ``seed`` through named substreams; fault,
    mobility and shadowing streams are re-keyed per episode.  ``ues`` is the
    read-only drop: every episode walks the UEs from it on the episode's
    mobility stream, so every agent walks the same path in an episode, and
    an agent with a longer episode walks further along it.
    """

    def __init__(self, cluster: ClusterConfig,
                 rates: FaultRates | None = None,
                 rewards: RewardSchedule | None = None,
                 episode: EpisodeConfig | None = None,
                 seed: int = 0,
                 azimuth_delta: float = DEFAULT_AZIMUTH_DELTA_DEG):
        self.config = cluster
        self.rates = rates if rates is not None else FaultRates()
        self.rewards = rewards if rewards is not None else RewardSchedule()
        self.episode_config = episode if episode is not None else EpisodeConfig()
        self.seed = seed
        self.azimuth_delta = azimuth_delta

        self.cells, self.ues = build_cluster(
            cluster, seeding.stream(seed, seeding.GEOMETRY))
        self.shadow: np.ndarray | None = None  # (N, C) dB, drawn per episode
        self.history: list = []  # (counts, down cells) of the register per TTI
        self.register = FaultRegister()
        self.state = MdpState.TRANSIENT
        self.t = 0
        self.terminal = True  # needs reset() before stepping
        self._fault_rng: np.random.Generator | None = None
        self._mobility_rng: np.random.Generator | None = None

    @property
    def alarm_count(self) -> int:
        return self.register.active_count

    def reset(self, episode_index: int = 0) -> MdpState:
        """Empty the register and its history, redraw shadowing, rewind
        the TTI clock and return the start state."""
        self.register.clear()
        self.history = []

        shadow_rng = seeding.stream(self.seed, seeding.SHADOW, episode_index)
        self.shadow = shadow_rng.normal(0.0, self.config.shadow_sigma,
                                        size=(len(self.ues), len(self.cells)))
        self._fault_rng = seeding.stream(self.seed, seeding.FAULTS, episode_index)
        self._mobility_rng = seeding.stream(self.seed, seeding.MOBILITY, episode_index)

        self.state = MdpState.TRANSIENT
        self.t = 0
        self.terminal = False
        return self.state

    def step(self, action: MdpAction) -> tuple[MdpState, float, bool, dict]:
        """Advance the control loop one TTI under ``action``; returns (state,
        reward, terminal, observables).

        The observables are the TTI (1-based), the fault event and the alarm
        count.  On the terminal TTI they also hold the whole episode's radio
        observables, one row per TTI: ``sinr_db`` and ``ue_mbps`` (T, N) and
        ``cell_mbps`` (T, C).
        """
        if self.terminal:
            raise RuntimeError("episode is finished; call reset() first")
        action = MdpAction(action)
        prev_count = self.register.active_count

        event = sample_event(self.rates, self.register, self._fault_rng)
        if event in ALARM_KINDS:
            if not apply_fault(event, self.register, self._fault_rng, len(self.cells)):
                event = FaultKind.NORMAL
        elif event != FaultKind.NORMAL:
            clear_fault(paired_alarm(event), self.register)

        if action != MdpAction.NO_ACTION:
            clear_fault(ACTION_CLEARS[action], self.register)

        cur_count = self.register.active_count
        reward = alarm_reward(prev_count, cur_count, self.rewards)
        self.state = transition(self.state, prev_count, cur_count)
        self.history.append((self.register.counts, self.register.down_cells))
        self.t += 1
        self.terminal = (cur_count == 0
                         or self.t >= self.episode_config.ttis_per_episode)

        obs = {"tti": self.t, "fault_event": event, "alarm_count": cur_count}
        if self.terminal:
            obs.update(self._episode_radio())
        return self.state, reward, self.terminal, obs

    def _episode_radio(self) -> dict:
        """Walk the UEs from the drop through the episode's TTIs, then run
        handover, SINR and throughput over blocks of at most RADIO_BLOCK_ROWS
        UE-rows, each TTI under the cells of its register snapshot."""
        ttis, n, n_cells = self.t, len(self.ues), len(self.cells)
        # the outputs outlive the call, so they are allocated before the
        # walk, whose freed buffer would otherwise fragment the heap under
        # them (6% more peak RSS on the fault-storm workload)
        sinr_db, ue_mbps = np.empty((ttis, n)), np.empty((ttis, n))
        cell_mbps = np.empty((ttis, n_cells))
        track = step_mobility(self.ues.position, self.ues.heading, self.config,
                              self._mobility_rng, ttis)
        block = max(1, RADIO_BLOCK_ROWS // n)
        for a in range(0, ttis, block):
            rows = slice(a, min(a + block, ttis))
            cells = derive_cells(self.cells, self.history[rows], self.azimuth_delta)
            rx = rx_power_matrix(track[rows], self.shadow, cells, self.config)
            serving = reassign_serving(rx, cells)
            sinr_db[rows] = compute_sinr_all(serving, rx, cells, self.config)
            ue_mbps[rows], cell_mbps[rows] = compute_throughputs(
                serving, sinr_db[rows], n_cells, self.config)
        return {"sinr_db": sinr_db, "ue_mbps": ue_mbps, "cell_mbps": cell_mbps}
