"""The self-healing control problem: states, actions, reward and the
TTI-clocked environment wrapping the radio cluster and the fault process.

One environment step is one TTI (1 ms): the fault process draws one event,
the agent's action (if any) clears one alarm instance, the reward compares
the register population before and after, UEs move and the radio
observables are refreshed.  An episode ends when the register empties or
the TTI budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import seeding
from .faults import (FaultKind, FaultRates, FaultRegister, apply_fault,
                     clear_fault, sample_event, DEFAULT_AZIMUTH_DELTA_DEG)
from .radio import (ClusterConfig, build_cluster, compute_sinr_all,
                    compute_throughputs, reassign_serving, step_mobility)

NUM_STATES = 3
NUM_ACTIONS = 5


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

    All randomness is keyed off ``seed`` through named substreams; fault,
    mobility and shadowing streams are re-keyed per episode so every agent
    sees the same environment realization at each episode start.
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
        self.register = FaultRegister()
        self.state = MdpState.TRANSIENT
        self.t = 0
        self.terminal = True  # needs reset() before stepping
        self._episode_index: int | None = None
        self._fault_rng: np.random.Generator | None = None
        self._mobility_rng: np.random.Generator | None = None

    @property
    def alarm_count(self) -> int:
        return self.register.active_count

    def reset(self, episode_index: int = 0) -> MdpState:
        """Heal all cells, empty the register, redraw shadowing, rewind the
        TTI clock and return the start state."""
        for cell in self.cells:
            cell.azimuth_offset = 0.0
            cell.tx_power_delta = 0.0
            cell.diversity_enabled = True
            cell.is_up = True
        self.register.clear()

        shadow_rng = seeding.stream(self.seed, seeding.SHADOW, episode_index)
        shadow = shadow_rng.normal(0.0, self.config.shadow_sigma,
                                   size=(len(self.ues), len(self.cells)))
        for i, ue in enumerate(self.ues):
            ue.shadow_map = shadow[i]
        self._fault_rng = seeding.stream(self.seed, seeding.FAULTS, episode_index)
        self._mobility_rng = seeding.stream(self.seed, seeding.MOBILITY, episode_index)

        reassign_serving(self.ues, self.cells, self.config)
        self.state = MdpState.TRANSIENT
        self.t = 0
        self.terminal = False
        self._episode_index = episode_index
        return self.state

    def step(self, action: MdpAction) -> tuple[MdpState, float, bool, dict]:
        """Advance one TTI under ``action``; returns (state, reward,
        terminal, observables)."""
        if self.terminal:
            raise RuntimeError("episode is finished; call reset() first")
        action = MdpAction(action)
        prev_count = self.register.active_count

        event = sample_event(self.rates, self.register, self._fault_rng)
        if event in (FaultKind.AZIMUTH_DRIFT, FaultKind.NEIGHBOR_DOWN,
                     FaultKind.DIVERSITY_LOST, FaultKind.FEEDER_FAULT):
            applied = apply_fault(event, self.cells, self.register,
                                  self._fault_rng, self.azimuth_delta)
            if not applied:
                event = FaultKind.NORMAL
        elif event != FaultKind.NORMAL:
            clear_fault(FaultKind(event - 4), self.cells, self.register)

        if action != MdpAction.NO_ACTION:
            clear_fault(ACTION_CLEARS[action], self.cells, self.register)

        cur_count = self.register.active_count
        reward = alarm_reward(prev_count, cur_count, self.rewards)
        self.state = transition(self.state, prev_count, cur_count)
        self.t += 1
        self.terminal = (cur_count == 0
                         or self.t >= self.episode_config.ttis_per_episode)

        rx = step_mobility(self.ues, self.cells, self.config, self._mobility_rng)
        sinr_db = compute_sinr_all(self.ues, self.cells, self.config, rx)
        ue_mbps, cell_mbps = compute_throughputs(self.ues, self.cells,
                                                 self.config, sinr_db)
        obs = {
            "tti": self.t,
            "fault_event": event,
            "alarm_count": cur_count,
            "sinr_db": sinr_db,
            "ue_mbps": ue_mbps,
            "cell_mbps": cell_mbps,
        }
        return self.state, reward, self.terminal, obs
