"""The self-healing control problem: states, actions, reward and the
TTI-clocked environment wrapping the radio cluster and the fault process.

One environment step is one TTI (1 ms) of the control loop: the fault
process draws one event, the agent's action (if any) clears one alarm
instance, the reward compares the register population before and after,
and the TTI's (state, action, reward, alarm count) row and register
snapshot are recorded.  An episode ends when the register empties or the
TTI budget runs out; ``SonEnv.trace`` hands it out as one record.  The
agents see the register alone, so the radio observables (SINR and
throughput, which only the metrics read) are computed after the control
loops, by ``drop_radio``, for every episode of one drop at once, and each
register history keeps only the per-UE and per-TTI means of them that the
metrics read.
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
from .metrics import EpisodeTrace
from .radio import (TURN_SIGMA_RAD, ClusterConfig, build_cluster,
                    compute_sinr_all, compute_throughputs, reassign_serving,
                    rx_power_matrix, site_links, step_mobility)

NUM_STATES = 3
NUM_ACTIONS = 5
# UE-rows (TTIs x UEs) per block of an episode's radio pass; bounds its
# (rows, C) temporaries, as DROP_CHUNK_ROWS does for the drop
RADIO_BLOCK_ROWS = 2048
# The most episodes per run: a finished episode keeps about 2.3 kB per agent
# at one UE per cell and 16 B more a UE, so three agents at the bound keep
# about 0.7 GB a seed.
MAX_EPISODES = 100_000
# The most TTIs per episode: a TTI keeps about 0.26 kB per agent at any q
# (trace row, mean SINR, cell throughputs), so three agents' episodes at
# the bound keep about 80 MB; the radio pass walks them block by block.
MAX_TTIS_PER_EPISODE = 100_000


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
        if not 1 <= self.ttis_per_episode <= MAX_TTIS_PER_EPISODE:
            raise ConfigError(f"episode.ttis_per_episode must be in 1..{MAX_TTIS_PER_EPISODE:,}")
        if not 1 <= self.num_episodes <= MAX_EPISODES:
            raise ConfigError(f"episode.num_episodes must be in 1..{MAX_EPISODES:,}")
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
    gives another agent an env on the same drop.  The shadowing is drawn
    only when the radio reads it (``episode_shadow``).
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
        self.history: list = []  # (counts, down cells) of the register per TTI
        self.rows: list = []  # (state, action, reward, alarm count) per TTI
        self.total_reward = 0.0
        self.register = FaultRegister()
        self.state = MdpState.TRANSIENT
        self.terminal = True  # needs reset() before stepping
        self._fault_rng: np.random.Generator | None = None

    def replica(self) -> SonEnv:
        """A new env on this one's drop (the same cells, UEs and seed) with
        a register of its own; it needs reset() before stepping."""
        twin = copy.copy(self)
        twin.register = FaultRegister()
        twin.history, twin.rows = [], []
        twin.terminal = True
        return twin

    def episode_shadow(self, episode_index: int) -> np.ndarray:
        """The per-link shadowing (N, C) dB of episode ``episode_index``,
        drawn afresh from its stream."""
        rng = seeding.stream(self.seed, seeding.SHADOW, episode_index)
        return rng.normal(0.0, self.config.shadow_sigma,
                          size=(len(self.ues), len(self.cells)))

    @property
    def shadow(self) -> np.ndarray:
        """The current episode's shadowing, drawn when read."""
        return self.episode_shadow(self.episode_index)

    def reset(self, episode_index: int = 0) -> MdpState:
        """Empty the register, start a new record (a trace keeps the last
        one) and return the start state of episode ``episode_index``."""
        self.register = FaultRegister()
        self.history, self.rows, self.total_reward = [], [], 0.0
        self.episode_index = episode_index
        self._fault_rng = seeding.stream(self.seed, seeding.FAULTS, episode_index)
        self.state = MdpState.TRANSIENT
        self.terminal = False
        return self.state

    def trace(self) -> EpisodeTrace:
        """The finished episode's record, its register history included (no
        later step extends it); its radio columns stay None until
        ``drop_radio`` fills them."""
        if not (self.terminal and self.rows):
            raise RuntimeError("no episode has finished since reset()")
        columns = [np.array(c, dtype=dtype) for c, dtype in zip(zip(*self.rows),
                                                                (int, int, float, int))]
        return EpisodeTrace(self.episode_index, *columns, self.total_reward, self.history)

    def step(self, action: MdpAction) -> tuple[MdpState, float, bool, dict]:
        """Advance the control loop one TTI under ``action``; returns (state,
        reward, terminal, observables).

        The observables are the TTI (1-based) and the fault event; the
        episode's radio observables come from ``drop_radio`` once it has
        ended.
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
        self.rows.append((int(self.state), int(action), reward, cur_count))
        self.total_reward += reward
        self.state = transition(self.state, prev_count, cur_count)
        snapshot = (self.register.counts, self.register.down_cells)
        # an unchanged register appends its last snapshot object again
        self.history.append(self.history[-1] if self.history[-1:] == [snapshot] else snapshot)
        tti = len(self.history)
        self.terminal = cur_count == 0 or tti >= self.episode_config.ttis_per_episode
        return self.state, reward, self.terminal, {"tti": tti, "fault_event": event}


def drop_radio(env: SonEnv, traces) -> None:
    """Fill the radio columns of every trace of ``traces``, each a finished
    episode on the drop of ``env``, from its register ``history``: its
    per-UE means over its TTIs ``ue_sinr_db`` (of the finite SINRs, NaN if
    none) and ``ue_mbps`` (N,), per-TTI mean of the finite UE SINRs
    ``tti_sinr_db`` (T,) and ``cell_mbps`` (T, C).

    Each episode's UEs walk from the drop as far as its longest history,
    in blocks of at most RADIO_BLOCK_ROWS UE-rows: consecutive episodes
    that fit in one walk it side by side, and a longer one walks alone, on
    from block to block.  Each block runs the healthy link budget once,
    every row under its own episode's shadowing.  The rows of every
    distinct history of a block then go through ``derive_cells``, the
    managed cell's column (the only one faults move, recomputed where they
    do), handover, SINR and throughput in chunks of at most
    RADIO_BLOCK_ROWS UE-rows.  No history's (T, N) SINR and rate exist
    whole: each block adds its rows to the history's per-UE sums one after
    another, in TTI order, as numpy's axis-0 sum of the whole does for
    N > 1.  Traces of one episode with equal histories get the same
    read-only arrays.
    """
    cells, n = env.cells, len(env.ues)
    # per episode, its distinct histories with [per-UE sums, (T,) and (T, C)
    # outputs, traces]; the outputs outlive the call, so they precede any walk
    episodes: dict[int, dict[tuple, list]] = {}
    for trace in traces:
        outs = episodes.setdefault(trace.episode, {})
        t = len(trace.history)
        outs.setdefault(tuple(trace.history), [None, np.empty(t), np.empty((t, len(cells))), []]
                        )[3].append(trace)
    block = max(1, RADIO_BLOCK_ROWS // n)
    group, rows = [], 0
    for episode, outs in episodes.items():
        ttis = max(map(len, outs))
        if group and rows + ttis > block:
            _group_radio(env, group, block)
            group, rows = [], 0
        group.append((episode, ttis, outs))
        rows += ttis
    if group:
        _group_radio(env, group, block)
    for outs in episodes.values():
        for history, (sums, *arrays, traces) in outs.items():
            sinr, rate, finite = sums.reshape(3, n)
            with np.errstate(invalid="ignore"):  # 0 / 0 for a UE never served
                arrays = [sinr / finite, rate / len(history), *arrays]
            for array in arrays:
                array.flags.writeable = False
            for trace in traces:
                trace.ue_sinr_db, trace.ue_mbps, trace.tti_sinr_db, trace.cell_mbps = arrays


def _group_radio(env: SonEnv, group, block: int) -> None:
    """The radio of ``group``, consecutive (episode, walk TTIs, {history:
    outputs}) of ``drop_radio``, in blocks of ``block`` rows, episode after
    episode.  Each block walks the group's episodes side by side from where
    the last left them: a group is one block or one lone episode."""
    cells, config, n = env.cells, env.config, len(env.ues)
    ttis = np.array([t for _, t, _ in group])
    starts = np.cumsum(ttis) - ttis
    mobility = [seeding.stream(env.seed, seeding.MOBILITY, episode) for episode, _, _ in group]
    shadow = np.stack([env.episode_shadow(episode) for episode, _, _ in group])
    position, heading = env.ues.position, env.ues.heading
    for a in range(0, ttis.sum(), block):
        # each episode's walk rows in the block, its next turns from its stream
        walked = np.clip(a + block - starts, 0, ttis) - np.clip(a - starts, 0, ttis)
        turns = np.zeros((walked.max(), len(group), n))
        for j, rng in enumerate(mobility):
            turns[:walked[j], j] = rng.normal(0.0, TURN_SIGMA_RAD, size=(walked[j], n))
        walk, heading = step_mobility(position, heading, turns, config)
        position = walk[-1]
        # the block's rows, episode after episode, and the episode of each
        points = walk.swapaxes(0, 1)[np.arange(len(turns)) < walked[:, None]]
        episode_of = np.repeat(np.arange(len(group)), walked)
        links = site_links(points, cells.sites, config)
        healthy = rx_power_matrix(points, shadow[episode_of], cells, config, links)
        # (drop_radio's list, first output row, rows, first gathered row) per
        # history of the block's episodes, its block rows and snapshots gathered
        segments, at, snaps = [], [], []
        for start, (_, _, outs) in zip(starts, group):
            for history, out in outs.items():
                lo, hi = max(a, start), min(a + block, start + len(history))
                if lo < hi:
                    segments.append((out, lo - start, hi - lo, len(snaps)))
                    at.append(np.arange(lo - a, hi - a))
                    snaps += history[lo - start:hi - start]
        at = np.concatenate(at)
        # per row, its UEs' SINR (0 where not finite), rate and finite flags
        ue, cell = np.empty((len(at), 3, n)), np.empty((len(at), len(cells)))
        for c in range(0, len(at), block):  # bounds the (rows, N, C) temporaries
            rows = at[c:c + block]
            faulted = derive_cells(cells, snaps[c:c + block], env.azimuth_delta)
            rx = healthy[rows]
            if (faulted.azimuth_offset[:, MANAGED_CELL].any()
                    or faulted.tx_power_delta[:, MANAGED_CELL].any()):
                rx[..., MANAGED_CELL] = rx_power_matrix(
                    None, shadow[episode_of[rows], :, MANAGED_CELL:MANAGED_CELL + 1],
                    faulted, config, (links[0][rows], links[1][rows]), [MANAGED_CELL])[..., 0]
            serving = reassign_serving(rx, faulted)
            sinr_db = ue[c:c + block, 0] = compute_sinr_all(serving, rx, faulted, config)
            ue[c:c + block, 1], cell[c:c + block] = compute_throughputs(
                serving, sinr_db, len(cells), config)
        sinr_db, finite = ue[:, 0], ue[:, 2]
        np.isfinite(sinr_db, out=finite)
        sinr_db[finite == 0] = 0.0
        with np.errstate(invalid="ignore"):  # 0 / 0 for a row that serves no UE
            tti_sinr = sinr_db.sum(axis=1) / finite.sum(axis=1)
        ue = ue.reshape(len(at), -1)
        for out, i, m, k in segments:
            out[1][i:i + m], out[2][i:i + m] = tti_sinr[k:k + m], cell[k:k + m]
            rows = ue[k:k + m]  # added to the history's sums one after another
            out[0] = (rows if out[0] is None else np.vstack((out[0], rows))).sum(axis=0)
