from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from sonsim.baselines import FifoQueue, fifo_policy, random_policy
from sonsim.config import default_config
from sonsim.experiment import run_single
from sonsim.faults import FaultKind, FaultRates, FaultRegister, apply_fault
from sonsim.mdp import CLEAR_ACTION_FOR, MdpAction


def raised(*alarms) -> FaultRegister:
    """A register with one instance of each alarm of ``alarms`` set."""
    reg = FaultRegister()
    for alarm in alarms:
        apply_fault(alarm, reg, np.random.default_rng(0), 21)
    return reg


class TestRandomPolicy:
    def test_empty_register_no_action(self):
        assert random_policy(FaultRegister(), np.random.default_rng(0)) == MdpAction.NO_ACTION

    def test_single_active_alarm_deterministic(self):
        reg = raised(FaultKind.FEEDER_FAULT)
        rng = np.random.default_rng(0)
        assert all(random_policy(reg, rng) == MdpAction.RECOVER_POWER
                   for _ in range(50))

    def test_two_active_alarms_uniform(self):
        reg = raised(FaultKind.AZIMUTH_DRIFT, FaultKind.NEIGHBOR_DOWN)
        rng = np.random.default_rng(3)
        draws = [random_policy(reg, rng) for _ in range(10_000)]
        share_reset = np.mean([a == MdpAction.RESET_AZIMUTH for a in draws])
        share_neigh = np.mean([a == MdpAction.RESTORE_NEIGHBOR for a in draws])
        assert share_reset == pytest.approx(0.5, abs=0.02)
        assert share_neigh == pytest.approx(0.5, abs=0.02)
        assert share_reset + share_neigh == 1.0

    def test_four_active_uniform_chisquare(self):
        reg = raised(FaultKind.AZIMUTH_DRIFT, FaultKind.NEIGHBOR_DOWN,
                     FaultKind.DIVERSITY_LOST, FaultKind.FEEDER_FAULT)
        rng = np.random.default_rng(4)
        draws = [int(random_policy(reg, rng)) for _ in range(10_000)]
        counts = np.bincount(draws, minlength=5)[1:]
        assert stats.chisquare(counts).pvalue > 0.01

    def test_never_targets_inactive_alarm(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            active = [k for k in (1, 2, 3, 4) if rng.random() < 0.5]
            reg = raised(*active)
            action = random_policy(reg, rng)
            if not active:
                assert action == MdpAction.NO_ACTION
            else:
                assert action in {CLEAR_ACTION_FOR[FaultKind(k)] for k in active}


class TestFifoPolicy:
    def test_empty_queue_no_action(self):
        assert fifo_policy(FifoQueue()) == MdpAction.NO_ACTION

    def test_scripted_trace_ordering(self):
        # arrivals: neighbor-down @3, feeder @5, azimuth @7
        arrivals = {3: FaultKind.NEIGHBOR_DOWN, 5: FaultKind.FEEDER_FAULT,
                    7: FaultKind.AZIMUTH_DRIFT}
        queue = FifoQueue()
        issued = {}
        for tti in range(1, 11):
            action = fifo_policy(queue)
            if action != MdpAction.NO_ACTION:
                issued[tti] = action
            if tti in arrivals:
                queue.push(arrivals[tti], tti)
        assert issued == {4: MdpAction.RESTORE_NEIGHBOR,
                          6: MdpAction.RECOVER_POWER,
                          8: MdpAction.RESET_AZIMUTH}

    def test_duplicate_arrivals_cleared_in_order(self):
        queue = FifoQueue()
        queue.push(FaultKind.NEIGHBOR_DOWN, 1)
        queue.push(FaultKind.NEIGHBOR_DOWN, 2)
        assert fifo_policy(queue) == MdpAction.RESTORE_NEIGHBOR
        assert fifo_policy(queue) == MdpAction.RESTORE_NEIGHBOR
        assert fifo_policy(queue) == MdpAction.NO_ACTION

    def test_arrival_order_replay(self):
        rng = np.random.default_rng(6)
        arrivals = [FaultKind(int(rng.integers(1, 5))) for _ in range(30)]
        queue = FifoQueue()
        for t, kind in enumerate(arrivals):
            queue.push(kind, t)
        actions = []
        while True:
            a = fifo_policy(queue)
            if a == MdpAction.NO_ACTION:
                break
            actions.append(a)
        assert actions == [CLEAR_ACTION_FOR[k] for k in arrivals]

    def test_drop_one_removes_oldest_of_type(self):
        queue = FifoQueue()
        queue.push(FaultKind.FEEDER_FAULT, 1)
        queue.push(FaultKind.NEIGHBOR_DOWN, 2)
        queue.push(FaultKind.FEEDER_FAULT, 3)
        queue.drop_one(FaultKind.FEEDER_FAULT)
        assert list(queue.pending) == [(FaultKind.NEIGHBOR_DOWN, 2),
                                       (FaultKind.FEEDER_FAULT, 3)]


class TestAgentsAgainstEnv:
    def _run(self, agent_cls_name, seed=0):
        from sonsim.config import default_config
        from sonsim.experiment import build_agent
        from sonsim.mdp import SonEnv
        from sonsim.radio import ClusterConfig

        cfg = default_config()
        env = SonEnv(ClusterConfig(ues_per_cell=2), cfg.rates, cfg.rewards,
                     cfg.episode, seed=seed)
        agent = build_agent(agent_cls_name, cfg, seed)
        from sonsim.mdp import ACTION_CLEARS

        rows = []
        for ep in range(20):
            state = env.reset(ep)
            agent.begin_episode()
            while True:
                # one event and one clear a TTI leave at most one instance pending
                assert sum(env.register.counts) <= 1
                a = agent.act(state, env)
                # both baselines must only clear active alarm types
                if a != MdpAction.NO_ACTION:
                    assert env.register.is_active(ACTION_CLEARS[a])
                next_state, r, term, obs = env.step(a)
                agent.observe(state, a, r, next_state, term, obs)
                state = next_state
                if term:
                    break
            rows.append(len(env.history))
        return rows

    def test_random_agent_clears_only_active(self):
        self._run("random")

    def test_fifo_agent_clears_only_active(self):
        self._run("fifo")

    def test_baselines_have_identical_clearance_paths(self):
        # both clear exactly one pending instance per TTI, so the alarm
        # count trajectory and episode lengths coincide seed for seed
        assert self._run("random", seed=3) == self._run("fifo", seed=3)

    @pytest.mark.parametrize("p", [(5 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9),
                                   (0, 1 / 4, 1 / 4, 1 / 4, 1 / 4),
                                   (2 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9,
                                    1 / 12, 1 / 12, 1 / 12, 1 / 12)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_and_fifo_traces_identical(self, seed, p):
        # the one pending instance leaves both baselines the same choice, at
        # any rates, spontaneous clears (events 5..8) included
        cfg = replace(default_config(), rates=FaultRates(p))
        rand, fifo = (run_single(agent, 1, seed, cfg) for agent in ("random", "fifo"))
        for a, b in zip(rand.traces, fifo.traces, strict=True):
            assert a.history == b.history
            for f in fields(a):
                if f.name != "history":
                    assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
