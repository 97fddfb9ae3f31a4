import copy
import functools
import math
import operator
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_faults import FAULT_ARRAYS, cells_oracle, same_bits, snapshot
from test_radio import per_cell_rx_oracle

from sonsim import mdp, radio, seeding
from sonsim.config import KNOWN_AGENTS, default_config
from sonsim.experiment import build_agent
from sonsim.dqn import ALL_STATES
from sonsim.faults import FaultKind, FaultRates, apply_fault, derive_cells
from sonsim.mdp import (ACTION_CLEARS, CLEAR_ACTION_FOR, EpisodeConfig,
                        MdpAction, MdpState, RewardSchedule, SonEnv,
                        alarm_reward, transition)
from sonsim.radio import ClusterConfig
from sonsim.runner import run_lockstep


def reward_oracle(prev, cur, r=(-1.0, 0.0, 1.0, 5.0)):
    # independent transcription of the reward cases; the all-clear
    # objective case takes priority, and a fresh increase from zero counts
    # as worsened
    worsened, unchanged, improved, cleared = r
    if cur == 0:
        return cleared
    if cur < prev:
        return improved
    if cur == prev:
        return unchanged
    return worsened


SMALL = ClusterConfig(num_sites=1, sectors_per_site=3, ues_per_cell=2)


RADIO_FIELDS = ("ue_sinr_db", "ue_mbps", "tti_sinr_db", "cell_mbps")


def radio_of(env, history, episode):
    # the radio columns drop_radio fills for one episode's history
    trace = SimpleNamespace(episode=episode, state=np.arange(len(history)))
    mdp.drop_radio(env, [(history, trace)])
    return tuple(getattr(trace, name) for name in RADIO_FIELDS)


class TestReward:
    def test_exhaustive_against_oracle(self):
        sched = RewardSchedule()
        for prev in range(6):
            for cur in range(6):
                assert alarm_reward(prev, cur, sched) == reward_oracle(prev, cur)

    @pytest.mark.parametrize("prev,cur,expected", [
        (1, 0, 5.0),
        (2, 2, 0.0),
        (1, 2, -1.0),
        (3, 2, 1.0),
        (0, 0, 5.0),
        (0, 1, -1.0),
    ])
    def test_known_cases(self, prev, cur, expected):
        assert alarm_reward(prev, cur, RewardSchedule()) == expected

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            alarm_reward(-1, 0, RewardSchedule())


class TestTransition:
    @pytest.mark.parametrize("state,prev,cur,expected", [
        (MdpState.TRANSIENT, 0, 1, MdpState.INCREASED),
        (MdpState.DECREASED, 2, 1, MdpState.DECREASED),
        (MdpState.INCREASED, 1, 1, MdpState.INCREASED),
        (MdpState.INCREASED, 2, 1, MdpState.DECREASED),
        (MdpState.TRANSIENT, 0, 0, MdpState.TRANSIENT),
    ])
    def test_cases(self, state, prev, cur, expected):
        assert transition(state, prev, cur) == expected


class TestEncode:
    """The network's input of each state, its row of ``ALL_STATES``."""

    def test_one_hot(self):
        assert np.array_equal(ALL_STATES[MdpState.TRANSIENT], [1.0, 0.0, 0.0])
        assert np.array_equal(ALL_STATES[MdpState.DECREASED], [0.0, 0.0, 1.0])

    def test_orthonormal(self):
        mat = np.stack([ALL_STATES[MdpState(s)] for s in range(3)])
        assert np.array_equal(mat @ mat.T, np.eye(3))


class TestEpisodeConfig:
    def test_defaults(self):
        cfg = EpisodeConfig()
        assert cfg.ttis_per_episode == 20
        assert cfg.num_episodes == 50
        assert cfg.gamma == 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(ttis_per_episode=0)
        with pytest.raises(ValueError):
            EpisodeConfig(gamma=1.0)


class TestActionAlarmPairing:
    def test_maps_are_inverse(self):
        for action, alarm in ACTION_CLEARS.items():
            assert CLEAR_ACTION_FOR[alarm] == action
        assert ACTION_CLEARS[MdpAction.RESTORE_NEIGHBOR] == FaultKind.NEIGHBOR_DOWN
        assert ACTION_CLEARS[MdpAction.ENABLE_DIVERSITY] == FaultKind.DIVERSITY_LOST
        assert ACTION_CLEARS[MdpAction.RECOVER_POWER] == FaultKind.FEEDER_FAULT
        assert ACTION_CLEARS[MdpAction.RESET_AZIMUTH] == FaultKind.AZIMUTH_DRIFT


class TestEnv:
    def test_clear_last_alarm_terminates_with_objective_reward(self):
        env = SonEnv(SMALL, rates=FaultRates((1.0, 0, 0, 0, 0)), seed=1)
        env.reset(0)
        apply_fault(FaultKind.FEEDER_FAULT, env.register, np.random.default_rng(0), len(env.cells))
        assert derive_cells(env.cells, [snapshot(env.register)]).tx_power_delta[0, 0] == -3.0
        state, reward, terminal, obs = env.step(MdpAction.RECOVER_POWER)
        assert reward == 5.0
        assert terminal
        # the TTI ran under the cleared register
        assert env.history == [((0, 0, 0, 0), ())]
        assert derive_cells(env.cells, env.history).tx_power_delta[0, 0] == 0.0
        assert obs["alarm_count"] == 0

    def test_no_faults_terminates_first_tti(self):
        env = SonEnv(SMALL, rates=FaultRates((1.0, 0, 0, 0, 0)), seed=1)
        env.reset(0)
        state, reward, terminal, obs = env.step(MdpAction.NO_ACTION)
        assert terminal
        assert env.t == 1
        assert reward == 5.0

    def test_timeout_terminates_without_objective_reward(self):
        # azimuth fault every TTI, agent never acts
        env = SonEnv(SMALL, rates=FaultRates((0, 1.0, 0, 0, 0)), seed=1)
        env.reset(0)
        rewards = []
        while not env.terminal:
            _, r, _, _ = env.step(MdpAction.NO_ACTION)
            rewards.append(r)
        assert env.t == env.episode_config.ttis_per_episode
        assert rewards[0] == -1.0          # first fault raises the count
        assert all(r == 0.0 for r in rewards[1:])  # same-type repeats
        assert env.alarm_count == 1

    def test_step_after_terminal_raises(self):
        env = SonEnv(SMALL, rates=FaultRates((1.0, 0, 0, 0, 0)), seed=1)
        env.reset(0)
        env.step(MdpAction.NO_ACTION)
        with pytest.raises(RuntimeError):
            env.step(MdpAction.NO_ACTION)

    def test_tti_budget_respected(self):
        env = SonEnv(SMALL, seed=9)
        for ep in range(5):
            env.reset(ep)
            steps = 0
            while not env.terminal:
                env.step(MdpAction.NO_ACTION)
                steps += 1
            assert steps <= env.episode_config.ttis_per_episode

    def test_terminal_iff_cleared_or_budget(self):
        env = SonEnv(SMALL, seed=13)
        rng = np.random.default_rng(0)
        for ep in range(10):
            env.reset(ep)
            while not env.terminal:
                env.step(MdpAction(int(rng.integers(5))))
                budget = env.episode_config.ttis_per_episode
                assert env.terminal == (env.alarm_count == 0 or env.t >= budget)

    def test_deterministic_given_seed_and_actions(self):
        def run(seed):
            env = SonEnv(ClusterConfig(ues_per_cell=2), seed=seed)
            out = []
            for ep in range(4):
                env.reset(ep)
                k = 0
                while not env.terminal:
                    action = MdpAction((k + ep) % 5)
                    state, r, term, _ = env.step(action)
                    out.append((int(state), r, term))
                    k += 1
                # the episode's observables
                out.append(tuple(a.tobytes() for a in radio_of(env, env.history, ep)))
            return out

        a, b = run(11), run(11)
        assert a == b
        assert a != run(12)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            seeding.stream(-1, 0)

    def test_reset_heals_everything(self):
        env = SonEnv(SMALL, rates=FaultRates((0, 0.25, 0.25, 0.25, 0.25)), seed=4)
        env.reset(0)
        while not env.terminal:
            env.step(MdpAction.NO_ACTION)
        assert env.alarm_count > 0
        assert env.history
        env.reset(1)
        assert env.alarm_count == 0
        assert env.history == []
        cells = env.cells
        assert cells.is_up.all() and cells.diversity.all()
        assert not cells.tx_power_delta.any() and not cells.azimuth_offset.any()

    @pytest.mark.parametrize("rates", [
        (0, 1 / 4, 1 / 4, 1 / 4, 1 / 4),  # a fault every TTI
        (0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1),  # spontaneous clears too
    ])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), delta=st.sampled_from([30.0, 7.5, -45.0]),
           ttis=st.integers(1, 60))
    def test_cells_follow_the_register_every_step(self, rates, seed, delta, ttis):
        # row t of the cells derived from the episode's register history is
        # the register's cells after step t, whatever the actions
        env = SonEnv(ClusterConfig(ues_per_cell=1), rates=FaultRates(rates),
                     episode=EpisodeConfig(ttis_per_episode=ttis), seed=seed,
                     azimuth_delta=delta)
        healthy = copy.deepcopy(env.cells)
        actions = np.random.default_rng(seed)
        for ep in range(4):
            env.reset(ep)
            want = []
            while not env.terminal:
                env.step(MdpAction(int(actions.integers(5))))
                want.append(cells_oracle(healthy, env.register, delta))
                assert same_bits(env.cells, healthy)  # never written
            assert len(env.history) == env.t == len(want)
            got = derive_cells(healthy, env.history, delta)
            for name in FAULT_ARRAYS:
                rows = getattr(got, name)
                assert rows.shape == (env.t, len(healthy))
                for row, w in zip(rows, want):
                    assert row.tobytes() == getattr(w, name).tobytes()

    def test_replica_shares_the_drop_and_not_the_register(self):
        env = SonEnv(SMALL, rates=FaultRates((0, 1.0, 0, 0, 0)), seed=2)
        twin = env.replica()
        assert twin.cells is env.cells and twin.ues is env.ues
        env.reset(0)
        env.step(MdpAction.NO_ACTION)
        assert twin.terminal and twin.history == [] and twin.alarm_count == 0
        twin.reset(0)
        assert twin.shadow.tobytes() == env.shadow.tobytes()
        twin.step(MdpAction.RESET_AZIMUTH)
        assert env.history == [((1, 0, 0, 0), ())]
        assert twin.history == [((0, 0, 0, 0), ())]

    @pytest.mark.parametrize("seed", range(3))
    def test_unchanged_register_appends_its_last_snapshot(self, seed):
        # a TTI that leaves the register as it was appends the snapshot
        # object before it again, and derive_cells and drop_radio read the
        # history as they read one of fresh, equal pairs
        env = SonEnv(SMALL, FaultRates((1 / 2, 1 / 8, 1 / 8, 1 / 8, 1 / 8)), seed=seed)
        actions = np.random.default_rng(seed)
        shared = 0
        for ep in range(4):
            env.reset(ep)
            while not env.terminal:
                env.step(MdpAction(int(actions.integers(len(MdpAction)))))
            history = env.history
            for before, after in zip(history, history[1:]):
                assert (after is before) == (after == before)
                shared += after is before
            fresh = [(tuple(list(counts)), tuple(list(down))) for counts, down in history]
            assert not any(a is b for a, b in zip(fresh, fresh[1:]))
            assert same_bits(derive_cells(env.cells, history), derive_cells(env.cells, fresh))
            for got, want in zip(radio_of(env, history, ep), radio_of(env, fresh, ep)):
                assert got.tobytes() == want.tobytes()
        assert shared

    def test_drop_radio_takes_each_trace_with_its_history(self):
        env = SonEnv(SMALL, rates=FaultRates((0, 1.0, 0, 0, 0)), seed=3)
        env.reset(0)
        env.step(MdpAction.NO_ACTION)
        history = env.history
        with pytest.raises(ValueError):  # not run yet
            radio_of(env, [], 0)
        with pytest.raises(ValueError):  # another episode's length
            mdp.drop_radio(env, [(history, SimpleNamespace(episode=0, state=np.arange(2)))])
        # equal histories of one episode share read-only arrays, and the
        # same history in another episode walks and shadows another way
        a, b, c = (SimpleNamespace(episode=ep, state=np.arange(1)) for ep in (0, 0, 1))
        mdp.drop_radio(env, [(history, a), (list(history), b), (history, c)])
        for name in RADIO_FIELDS:
            assert getattr(a, name) is getattr(b, name)
            assert not getattr(a, name).flags.writeable
            assert getattr(a, name).tobytes() != getattr(c, name).tobytes()

    def test_shadowing_redrawn_per_episode(self):
        env = SonEnv(SMALL, seed=4)
        env.reset(0)
        first = env.shadow.copy()
        assert first.shape == (len(env.ues), len(env.cells))
        env.reset(1)
        assert not np.array_equal(env.shadow[0], first[0])
        assert env.shadow.tobytes() == env.episode_shadow(1).tobytes()
        env.reset(0)
        assert env.shadow.tobytes() == first.tobytes()
        want = seeding.stream(4, seeding.SHADOW, 0).normal(0.0, SMALL.shadow_sigma, first.shape)
        assert first.tobytes() == want.tobytes()


def tti_radio_oracle(position, heading, shadow, cells, cfg, rng):
    # one TTI of the radio path as every step used to run it, in the order
    # step_mobility -> reassign_serving -> compute_sinr_all ->
    # compute_throughputs: walk, hand over on the shadowed link budget,
    # SINR, equal-share throughput; moves position (N, 2) and heading (N,)
    # in place, returns the observables
    step_m = cfg.ue_speed / 3.6 * (1.0 / 1000.0)
    turns = rng.normal(0.0, radio.TURN_SIGMA_RAD, size=len(position))
    radius = cfg.bounding_radius
    heading[:] = (heading + turns) % (2.0 * math.pi)
    position[:, 0] += step_m * np.cos(heading)
    position[:, 1] += step_m * np.sin(heading)
    rr = np.hypot(position[:, 0], position[:, 1])
    out = rr > radius
    position[out] *= ((2.0 * radius - rr[out]) / rr[out])[:, None]
    heading[out] = (heading[out] + math.pi) % (2.0 * math.pi)

    rx = per_cell_rx_oracle(position, cells, cfg) + shadow
    up = cells.is_up
    serving = (np.where(up, rx, -np.inf).argmax(axis=1) if up.any()
               else np.full(len(position), -1))

    lin = np.power(10.0, rx / 10.0) * up
    noise_mw = 10.0 ** (cfg.noise_power_dbm / 10.0)
    sinr = np.full(len(serving), -np.inf)
    idx = np.nonzero((serving >= 0) & up[np.clip(serving, 0, len(cells) - 1)])[0]
    if idx.size:
        sig = lin[idx, serving[idx]]
        interference = lin[idx].sum(axis=1) - sig
        with np.errstate(divide="ignore"):
            vals = 10.0 * np.log10(sig / (interference + noise_mw))
        vals = np.where(cells.diversity[serving[idx]], vals, vals - cfg.diversity_gain)
        sinr[idx] = np.minimum(vals, cfg.sinr_cap)

    ok = serving >= 0
    attached = np.bincount(serving[ok], minlength=len(cells))
    rate = np.zeros(len(serving))
    rate[ok] = (cfg.bandwidth / attached[serving[ok]]
                * np.log2(1.0 + np.power(10.0, sinr[ok] / 10.0)))
    cell = np.bincount(serving[ok], weights=rate[ok], minlength=len(cells))
    return sinr, rate / 1e6, cell / 1e6


class TestDropRadio:
    @pytest.mark.parametrize("ttis_per_block, spare_rows", [(1, 0), (2, 1), (7, 0)])
    @settings(max_examples=25, deadline=None)
    @given(weights=st.lists(st.integers(0, 4), min_size=9, max_size=9).filter(any),
           agents=st.lists(st.sampled_from(KNOWN_AGENTS), min_size=1, max_size=3,
                           unique=True),
           q=st.sampled_from([1, 3]), ttis=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_matches_per_tti_path_bit_for_bit(self, ttis_per_block, spare_rows,
                                              weights, agents, q, ttis, seed):
        # events 5..8 are the spontaneous clears; random and fifo act alike
        # at any rates, so distinct histories come from dqn.  Blocks of one
        # TTI split every longer episode, so its per-UE sums cross blocks;
        # blocks of seven span short ones, and with several histories a
        # chunk of history-rows ends inside a walk block
        cfg = replace(default_config(), cluster=ClusterConfig(ues_per_cell=q),
                      rates=FaultRates(np.array(weights) / sum(weights)),
                      episode=EpisodeConfig(ttis_per_episode=ttis, num_episodes=4))
        env = SonEnv(cfg.cluster, cfg.rates, cfg.rewards, cfg.episode, seed=seed)
        healthy = copy.deepcopy(env.cells)
        drop = env.ues.copy()
        n = len(env.ues)
        pairs = [(env if i == 0 else env.replica(), build_agent(name, cfg, seed))
                 for i, name in enumerate(agents)]
        cells = {}  # (env, episode) -> the register's cells after every step
        for e, _ in pairs:
            def step(action, e=e, step=e.step):
                out = step(action)
                cells.setdefault((id(e), e.episode_index), []).append(
                    cells_oracle(healthy, e.register))
                return out
            e.step = step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdp, "RADIO_BLOCK_ROWS", ttis_per_block * n + spare_rows)
            episodes = list(zip(*run_lockstep(pairs, range(4))))
            mdp.drop_radio(env, [(history, trace) for runs in episodes
                                 for _, trace, history in runs])
        for ep, runs in enumerate(episodes):
            shadow = seeding.stream(seed, seeding.SHADOW, ep).normal(
                0.0, cfg.cluster.shadow_sigma, (n, len(healthy)))
            for (e, _), (_, trace, _) in zip(pairs, runs):
                # every episode walks from the drop, one TTI at a time
                position, heading = drop.position.copy(), drop.heading.copy()
                walk = seeding.stream(seed, seeding.MOBILITY, ep)
                sinr, rate, cell = (np.stack(col) for col in zip(
                    *(tti_radio_oracle(position, heading, shadow, c, cfg.cluster, walk)
                      for c in cells[id(e), ep])))
                assert np.isfinite(sinr).all()  # no UE is ever in outage
                # per UE, its TTIs added one after another; per TTI, its mean
                want = (functools.reduce(operator.add, sinr) / len(sinr),
                        functools.reduce(operator.add, rate) / len(rate),
                        np.array([row[np.isfinite(row)].mean() for row in sinr]), cell)
                for name, w in zip(RADIO_FIELDS, want):
                    got = getattr(trace, name)
                    assert got.shape == w.shape and got.tobytes() == w.tobytes(), name
        assert env.ues.tobytes() == drop.tobytes()  # never written

    def test_a_long_episode_keeps_no_rows_per_ue(self):
        # a 400-TTI history of 210 UEs runs in 45 blocks and keeps its
        # per-UE means (N,), per-TTI means (T,) and cell throughputs (T, C),
        # about 74 kB, where its (T, N) SINR and rate would keep 1.3 MB more
        env = SonEnv(ClusterConfig(ues_per_cell=10), FaultRates((0, 1 / 4, 1 / 4, 1 / 4, 1 / 4)),
                     episode=EpisodeConfig(ttis_per_episode=400), seed=0)
        env.reset(0)
        while not env.terminal:
            env.step(MdpAction.NO_ACTION)
        history = env.history
        n, t, c = len(env.ues), len(history), len(env.cells)
        assert t == 400
        trace, warm = (SimpleNamespace(episode=0, state=np.arange(t)) for _ in range(2))
        mdp.drop_radio(env, [(history, warm)])
        tracemalloc.start()
        try:
            mdp.drop_radio(env, [(history, trace)])
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 8 * (2 * n + t + t * c) + 16 * 1024
