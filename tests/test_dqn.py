import numpy as np
import pytest
from scipy import stats

from sonsim.config import default_config
from sonsim.dqn import (DqnAgent, Experience, ExplorationSchedule,
                        ReplayMemory, compute_targets, decay_epsilon,
                        select_action)
from sonsim.experiment import build_agent
from sonsim.faults import FaultRates
from sonsim.mdp import MdpAction, MdpState, SonEnv
from sonsim.nn import AdamState, adam_step, init_params
from sonsim.radio import ClusterConfig
from sonsim.runner import run_episode


def params_with_q(q_rows):
    """Zero network whose output biases realize fixed q-values per state.

    All states map through zero weights to the same output bias vector, so
    forward() returns ``q_rows`` regardless of state when rows are equal.
    """
    q = np.asarray(q_rows, dtype=float)
    return [np.zeros((3, 4)), np.zeros(4), np.zeros((4, 5)), q.copy()]


class TestDecay:
    def test_single_decay(self):
        s = decay_epsilon(ExplorationSchedule(1.0, 0.91, 0.01))
        assert s.epsilon == pytest.approx(0.91, abs=1e-15)

    def test_geometric_sequence_floors_at_49(self):
        s = ExplorationSchedule(1.0, 0.91, 0.01)
        values = []
        for _ in range(60):
            s = decay_epsilon(s)
            values.append(s.epsilon)
        assert values[47] == pytest.approx(0.91 ** 48, abs=1e-12)
        assert 0.91 ** 48 > 0.01
        assert 0.91 ** 49 < 0.01
        assert values[48] == 0.01
        assert all(v == 0.01 for v in values[48:])

    def test_floor_is_sticky(self):
        s = ExplorationSchedule(0.01, 0.91, 0.01)
        assert decay_epsilon(s).epsilon == 0.01


class TestSelectAction:
    def test_greedy_argmax(self):
        params = params_with_q([0.0, 3.0, 1.0, 1.0, 0.0])
        sched = ExplorationSchedule(epsilon=0.0)
        a = select_action(MdpState.INCREASED, params, sched, np.random.default_rng(0))
        assert a == MdpAction.RESTORE_NEIGHBOR

    def test_greedy_tie_breaks_lowest_index(self):
        params = params_with_q([0.7, 0.7, 0.7, 0.7, 0.7])
        sched = ExplorationSchedule(epsilon=0.0)
        a = select_action(MdpState.DECREASED, params, sched, np.random.default_rng(0))
        assert a == MdpAction.NO_ACTION

    def test_greedy_is_pure_function_of_state_and_weights(self):
        params = params_with_q([0.1, -0.4, 2.0, 0.3, 0.0])
        sched = ExplorationSchedule(epsilon=0.0)
        actions = {select_action(MdpState.TRANSIENT, params, sched,
                                 np.random.default_rng(seed))
                   for seed in range(50)}
        assert actions == {MdpAction.ENABLE_DIVERSITY}

    def test_full_exploration_is_uniform(self):
        params = params_with_q([9.0, 0.0, 0.0, 0.0, 0.0])
        sched = ExplorationSchedule(epsilon=1.0)
        rng = np.random.default_rng(7)
        draws = [int(select_action(MdpState.TRANSIENT, params, sched, rng))
                 for _ in range(10_000)]
        counts = np.bincount(draws, minlength=5)
        assert stats.chisquare(counts).pvalue > 0.01


class TestComputeTarget:
    def test_terminal_returns_raw_reward(self):
        exp = Experience(MdpState.INCREASED, MdpAction.RECOVER_POWER, 5.0,
                         MdpState.DECREASED, True)
        assert compute_targets([exp], params_with_q(np.ones(5)), 0.95)[0] == 5.0

    def test_bootstrap_arithmetic(self):
        params = params_with_q([0.0, 2.0, 1.0, 0.0, 0.0])
        exp = Experience(MdpState.INCREASED, MdpAction.NO_ACTION, 1.0,
                         MdpState.INCREASED, False)
        assert compute_targets([exp], params, 0.95)[0] == pytest.approx(2.9, abs=1e-12)

    def test_zero_discount_reduces_to_reward(self):
        params = params_with_q([4.0, 4.0, 4.0, 4.0, 4.0])
        exp = Experience(MdpState.INCREASED, MdpAction.NO_ACTION, -1.0,
                         MdpState.DECREASED, False)
        assert compute_targets([exp], params, 0.0)[0] == -1.0

    def test_snapshot_unaffected_by_later_update(self):
        params = params_with_q([0.0, 2.0, 1.0, 0.0, 0.0])
        exp = Experience(MdpState.INCREASED, MdpAction.NO_ACTION, 1.0,
                         MdpState.INCREASED, False)
        y_before = compute_targets([exp], params, 0.95)[0]
        grads = [np.ones_like(p) for p in params]
        adam_step(params, grads, AdamState.for_params(params, 0.5))
        assert compute_targets([exp], params, 0.95)[0] == y_before


class TestReplayMemory:
    def test_eviction_order(self):
        mem = ReplayMemory(capacity=2)
        exps = [Experience(MdpState.TRANSIENT, MdpAction.NO_ACTION, float(i),
                           MdpState.TRANSIENT, False) for i in range(3)]
        for e in exps:
            mem.push(e)
        assert len(mem) == 2
        # a memory no larger than the batch samples every entry, in order
        batch = mem.sample(np.random.default_rng(0), 2)
        assert batch[0].reward == 1.0 and batch[1].reward == 2.0

    def test_small_memory_returns_everything(self):
        mem = ReplayMemory(capacity=10)
        for i in range(3):
            mem.push(Experience(MdpState.TRANSIENT, MdpAction.NO_ACTION,
                                float(i), MdpState.TRANSIENT, False))
        batch = mem.sample(np.random.default_rng(0), batch_size=8)
        assert len(batch) == 3

    def test_sample_without_replacement(self):
        mem = ReplayMemory(capacity=100)
        for i in range(50):
            mem.push(Experience(MdpState.TRANSIENT, MdpAction.NO_ACTION,
                                float(i), MdpState.TRANSIENT, False))
        batch = mem.sample(np.random.default_rng(1), batch_size=20)
        rewards = [e.reward for e in batch]
        assert len(rewards) == len(set(rewards)) == 20

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=0)


class TestTrainEpisode:
    def test_fault_free_episode_ends_at_first_tti(self):
        cfg = default_config()
        env = SonEnv(ClusterConfig(ues_per_cell=2),
                     rates=FaultRates((1.0, 0, 0, 0, 0)), seed=1)
        agent = build_agent("dqn", cfg, 1)
        result = run_episode(env, agent, 0)[0]
        assert result.ttis == 1
        assert result.total_reward == 5.0
        assert result.cleared
        assert len(agent.memory) == 1

    def test_epsilon_decays_once_per_episode(self):
        cfg = default_config()
        env = SonEnv(ClusterConfig(ues_per_cell=2),
                     rates=FaultRates((1.0, 0, 0, 0, 0)), seed=1)
        agent = build_agent("dqn", cfg, 1)
        for ep in range(3):
            run_episode(env, agent, ep)
        assert agent.schedule.epsilon == pytest.approx(0.91 ** 3, abs=1e-12)

    def test_full_run_deterministic(self):
        def run(seed):
            cfg = default_config()
            env = SonEnv(ClusterConfig(ues_per_cell=2), seed=seed)
            agent = build_agent("dqn", cfg, seed)
            return [(run_episode(env, agent, ep)[0].total_reward,
                     run_episode(env, agent, ep + 1)[0].ttis)
                    for ep in range(0, 10, 2)]

        assert run(5) == run(5)

    def test_weights_actually_change(self):
        cfg = default_config()
        env = SonEnv(ClusterConfig(ues_per_cell=2), seed=3)
        agent = build_agent("dqn", cfg, 3)
        before = [p.copy() for p in agent.params]
        for ep in range(5):
            run_episode(env, agent, ep)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(agent.params, before))


def per_sample_forward(params, x):
    h = np.asarray(x, dtype=float)
    for i in range(len(params) // 2):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i < len(params) // 2 - 1:
            h = np.maximum(h, 0.0)
    return h


def per_sample_backward(params, x, action_index, target):
    x = np.asarray(x, dtype=float)
    num_layers = len(params) // 2
    acts, pre, h = [x], [], x
    for i in range(num_layers):
        z = h @ params[2 * i] + params[2 * i + 1]
        pre.append(z)
        h = np.maximum(z, 0.0) if i < num_layers - 1 else z
        acts.append(h)
    q = acts[-1]
    delta = np.zeros_like(q)
    delta[action_index] = 2.0 * (q[action_index] - target)
    grads = [None] * len(params)
    for i in reversed(range(num_layers)):
        grads[2 * i] = np.outer(acts[i], delta)
        grads[2 * i + 1] = delta.copy()
        if i > 0:
            delta = (params[2 * i] @ delta) * (pre[i - 1] > 0)
    return grads


class PerSampleLearner:
    """Transcription of the one-experience-at-a-time update: a target per
    experience, a backward pass per sample, gradients summed list by list
    in batch order, then divided by the batch size."""

    def __init__(self, params, gamma, rng, batch_size, capacity):
        self.params = params
        self.opt_state = AdamState.for_params(params)
        self.memory = ReplayMemory(capacity)
        self.gamma, self.rng, self.batch_size = gamma, rng, batch_size

    def observe(self, state, action, reward, next_state, terminal):
        self.memory.push(Experience(state, action, reward, next_state, terminal))
        batch = self.memory.sample(self.rng, self.batch_size)
        targets = []
        for e in batch:
            if e.next_is_terminal:
                targets.append(float(e.reward))
            else:
                q_next = per_sample_forward(self.params, np.eye(3)[int(e.next_state)])
                targets.append(float(e.reward + self.gamma * q_next.max()))
        grads = None
        for e, y in zip(batch, targets):
            g = per_sample_backward(self.params, np.eye(3)[int(e.state)], int(e.action), y)
            grads = g if grads is None else [a + b for a, b in zip(grads, g)]
        grads = [g / len(batch) for g in grads]
        self.params, self.opt_state = adam_step(self.params, grads, self.opt_state)


class TestBatchedUpdate:
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_matches_per_sample_update_bit_for_bit(self, batch_size):
        params = init_params((3, 24, 24, 5), np.random.default_rng(batch_size))
        agent = DqnAgent([p.copy() for p in params], 0.95, np.random.default_rng(11),
                         memory=ReplayMemory(100), batch_size=batch_size)
        oracle = PerSampleLearner([p.copy() for p in params], 0.95,
                                  np.random.default_rng(11), batch_size, 100)
        transitions = np.random.default_rng(batch_size + 100)
        for _ in range(400):
            state, next_state = (MdpState(int(s)) for s in transitions.integers(3, size=2))
            action = MdpAction(int(transitions.integers(5)))
            reward = float(transitions.choice([-1.0, 0.0, 1.0, 5.0]))
            terminal = bool(transitions.random() < 0.2)
            agent.observe(state, action, reward, next_state, terminal, None)
            oracle.observe(state, action, reward, next_state, terminal)
        for got, want in [(agent.params, oracle.params),
                          (agent.opt_state.m, oracle.opt_state.m),
                          (agent.opt_state.v, oracle.opt_state.v)]:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert agent.opt_state.step_count == oracle.opt_state.step_count == 400
