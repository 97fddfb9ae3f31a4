"""The self-healing control problem: states, actions, reward and the
TTI-clocked environment wrapping the radio cluster and the fault process.

One environment step is one TTI (1 ms) of the control loop: the fault
process draws one event, the agent's action (if any) clears one alarm
instance, the reward compares the register population before and after,
and a snapshot of the register is recorded.  An episode ends when the
register empties or the TTI budget runs out.  The agents see the register
alone, so the radio observables (SINR and throughput, which only the
metrics read) are computed after the episode, by ``episode_radio``, for
every env of one drop at once: the UEs walk from the drop once, as far as
the longest episode, and each block of TTIs runs the healthy link budget
once; every distinct register history then recomputes only the managed
cell's column, which its faults move, and runs handover, SINR and
throughput under the cells ``derive_cells`` derives from its snapshots.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from . import seeding
from .faults import (ALARM_KINDS, MANAGED_CELL, FaultKind, FaultRates,
                     FaultRegister, apply_fault, clear_fault, derive_cells,
                     paired_alarm, sample_event, DEFAULT_AZIMUTH_DELTA_DEG)
from .radio import (ClusterConfig, build_cluster, compute_sinr_all,
                    compute_throughputs, reassign_serving, rx_power_matrix,
                    site_links, step_mobility)

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


class ConfigError(ValueError):
    """Malformed configuration file or value."""


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
            raise ConfigError("episode.ttis_per_episode must be at least 1")
        if self.num_episodes < 1:
            raise ConfigError("episode.num_episodes must be at least 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("episode.gamma must be in (0, 1)")


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
    an agent with a longer episode walks further along it.  ``replica``
    gives another agent an env on the same drop.
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
        self.episode_index = 0
        self.shadow: np.ndarray | None = None  # (N, C) dB, drawn per episode
        self.history: list = []  # (counts, down cells) of the register per TTI
        self.register = FaultRegister()
        self.state = MdpState.TRANSIENT
        self.t = 0
        self.terminal = True  # needs reset() before stepping
        self._fault_rng: np.random.Generator | None = None

    @property
    def alarm_count(self) -> int:
        return self.register.active_count

    def replica(self) -> SonEnv:
        """A new env on this one's drop (the same cells, UEs and seed) with
        a register of its own; it needs reset() before stepping."""
        twin = copy.copy(self)
        twin.register = FaultRegister()
        twin.history = []
        twin.terminal = True
        return twin

    def reset(self, episode_index: int = 0,
              shadow: np.ndarray | None = None) -> MdpState:
        """Empty the register and its history, rewind the TTI clock and
        return the start state.  The episode's shadowing is drawn from its
        stream, unless ``shadow`` passes the draw another env of this drop
        made for the same episode."""
        self.register.clear()
        self.history = []

        self.episode_index = episode_index
        if shadow is None:
            shadow_rng = seeding.stream(self.seed, seeding.SHADOW, episode_index)
            shadow = shadow_rng.normal(0.0, self.config.shadow_sigma,
                                       size=(len(self.ues), len(self.cells)))
        self.shadow = shadow
        self._fault_rng = seeding.stream(self.seed, seeding.FAULTS, episode_index)

        self.state = MdpState.TRANSIENT
        self.t = 0
        self.terminal = False
        return self.state

    def step(self, action: MdpAction) -> tuple[MdpState, float, bool, dict]:
        """Advance the control loop one TTI under ``action``; returns (state,
        reward, terminal, observables).

        The observables are the TTI (1-based), the fault event and the alarm
        count; the episode's radio observables come from ``episode_radio``
        once it has ended.
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
        return self.state, reward, self.terminal, {
            "tti": self.t, "fault_event": event, "alarm_count": cur_count}


def episode_radio(envs: list[SonEnv]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The radio observables of the episode each env of ``envs`` has just
    finished: per env, ``sinr_db`` and ``ue_mbps`` (T, N) and ``cell_mbps``
    (T, C), one row per TTI of its episode.

    The envs share one drop and one episode: replicas, reset to the same
    episode index with one shadowing draw.  The UEs walk from the drop once,
    as far as the longest episode.  Blocks of at most RADIO_BLOCK_ROWS
    UE-rows run the healthy link budget once; each distinct register
    history then recomputes the managed cell's column, the only one its
    faults move, where they do, and runs handover, SINR and throughput
    under the cells of its snapshots.  Envs with equal histories get the
    same read-only arrays.
    """
    first = envs[0]
    for env in envs:
        if not (env.ues is first.ues and env.shadow is first.shadow
                and env.episode_index == first.episode_index and env.history):
            raise ValueError("episode_radio takes finished envs of one drop and episode")
    cells, config, n = first.cells, first.config, len(first.ues)
    # the outputs outlive the call, so they are allocated before the walk,
    # whose freed buffer would otherwise fragment the heap under them (6%
    # more peak RSS on the fault-storm workload)
    out = {history: (np.empty((len(history), n)), np.empty((len(history), n)),
                     np.empty((len(history), len(cells))))
           for history in dict.fromkeys(tuple(env.history) for env in envs)}
    ttis = max(len(history) for history in out)
    walk = seeding.stream(first.seed, seeding.MOBILITY, first.episode_index)
    track = step_mobility(first.ues.position, first.ues.heading, config, walk, ttis)
    block = max(1, RADIO_BLOCK_ROWS // n)
    for a in range(0, ttis, block):
        position = track[a:a + block]
        links = site_links(position, cells.sites, config)
        healthy = rx_power_matrix(position, first.shadow, cells, config, links)
        for history, (sinr_db, ue_mbps, cell_mbps) in out.items():
            if a >= len(history):
                continue
            rows = slice(a, min(a + block, len(history)))
            k = rows.stop - a
            faulted = derive_cells(cells, history[rows], first.azimuth_delta)
            rx = healthy[:k]
            if (faulted.azimuth_offset[:, MANAGED_CELL].any()
                    or faulted.tx_power_delta[:, MANAGED_CELL].any()):
                rx = rx.copy()
                rx[..., MANAGED_CELL] = rx_power_matrix(
                    position[:k], first.shadow, faulted, config,
                    (links[0][:k], links[1][:k]), [MANAGED_CELL])[..., 0]
            serving = reassign_serving(rx, faulted)
            sinr_db[rows] = compute_sinr_all(serving, rx, faulted, config)
            ue_mbps[rows], cell_mbps[rows] = compute_throughputs(
                serving, sinr_db[rows], len(cells), config)
    for arrays in out.values():
        for array in arrays:
            array.flags.writeable = False
    return [out[tuple(env.history)] for env in envs]
