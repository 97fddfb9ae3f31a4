import copy
import tracemalloc
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sonsim.config import default_config
from sonsim.dqn import (DqnAgent, ExplorationSchedule, LearnerStack, ReplayMemory,
                        compute_targets, decay_epsilon, select_action)
from sonsim.experiment import build_agent, run_single
from sonsim.faults import FaultRates
from sonsim.mdp import (NUM_ACTIONS, EpisodeConfig, MdpAction, MdpState, SonEnv,
                        encode_state)
from sonsim.nn import (AdamState, adam_step, flatten, forward, init_params,
                       layer_sizes_of, layer_views)
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


def params_of(agent):
    """The agent's per-layer parameters, views of its row of its stack."""
    return layer_views(agent.flat, agent.layer_sizes)


def greedy_values(params, state):
    return forward(params, encode_state(state))


class TestSelectAction:
    def test_greedy_argmax(self):
        params = params_with_q([0.0, 3.0, 1.0, 1.0, 0.0])
        sched = ExplorationSchedule(epsilon=0.0)
        a = select_action(greedy_values(params, MdpState.INCREASED), sched,
                          np.random.default_rng(0))
        assert a == MdpAction.RESTORE_NEIGHBOR

    def test_greedy_tie_breaks_lowest_index(self):
        params = params_with_q([0.7, 0.7, 0.7, 0.7, 0.7])
        sched = ExplorationSchedule(epsilon=0.0)
        a = select_action(greedy_values(params, MdpState.DECREASED), sched,
                          np.random.default_rng(0))
        assert a == MdpAction.NO_ACTION

    def test_greedy_is_pure_function_of_state_and_weights(self):
        params = params_with_q([0.1, -0.4, 2.0, 0.3, 0.0])
        sched = ExplorationSchedule(epsilon=0.0)
        actions = {select_action(greedy_values(params, MdpState.TRANSIENT), sched,
                                 np.random.default_rng(seed))
                   for seed in range(50)}
        assert actions == {MdpAction.ENABLE_DIVERSITY}

    def test_full_exploration_is_uniform(self):
        params = params_with_q([9.0, 0.0, 0.0, 0.0, 0.0])
        sched = ExplorationSchedule(epsilon=1.0)
        rng = np.random.default_rng(7)
        draws = [int(select_action(greedy_values(params, MdpState.TRANSIENT), sched, rng))
                 for _ in range(10_000)]
        counts = np.bincount(draws, minlength=5)
        assert stats.chisquare(counts).pvalue > 0.01


def one_target(params, reward, next_state, terminal, gamma):
    q = forward(params, np.eye(3))
    return compute_targets(q, np.array([reward]), np.array([int(next_state)]),
                           np.array([terminal]), gamma)[0]


class TestComputeTarget:
    def test_terminal_returns_raw_reward(self):
        assert one_target(params_with_q(np.ones(5)), 5.0, MdpState.DECREASED,
                          True, 0.95) == 5.0

    def test_bootstrap_arithmetic(self):
        params = params_with_q([0.0, 2.0, 1.0, 0.0, 0.0])
        assert one_target(params, 1.0, MdpState.INCREASED, False,
                          0.95) == pytest.approx(2.9, abs=1e-12)

    def test_zero_discount_reduces_to_reward(self):
        params = params_with_q([4.0, 4.0, 4.0, 4.0, 4.0])
        assert one_target(params, -1.0, MdpState.DECREASED, False, 0.0) == -1.0

    def test_snapshot_unaffected_by_later_update(self):
        flat = flatten(params_with_q([0.0, 2.0, 1.0, 0.0, 0.0]))
        params = layer_views(flat, (3, 4, 5))
        y_before = one_target(params, 1.0, MdpState.INCREASED, False, 0.95)
        adam_step(flat, np.ones_like(flat), AdamState.for_params(flat, 0.5))
        assert one_target(params, 1.0, MdpState.INCREASED, False, 0.95) == y_before


def push_rewards(mem, rewards):
    for r in rewards:
        mem.put(0, MdpState.TRANSIENT, MdpAction.NO_ACTION, float(r),
                MdpState.TRANSIENT, False)
        mem.advance()


@dataclass
class Experience:
    state: MdpState
    action: MdpAction
    reward: float
    next_state: MdpState
    next_is_terminal: bool


class DequeMemory:
    """Transcription of the replay memory as a bounded deque of experience
    records, sampled one index at a time."""

    def __init__(self, capacity):
        self._buf = deque(maxlen=capacity)

    def push(self, *transition):
        self._buf.append(Experience(*transition))

    def sample(self, rng, batch_size):
        n = len(self._buf)
        if n <= batch_size:
            return list(self._buf)
        idx = rng.choice(n, size=batch_size, replace=False)
        return [self._buf[int(i)] for i in idx]


class TestReplayMemory:
    def test_eviction_order(self):
        mem = ReplayMemory(capacity=2)
        push_rewards(mem, range(3))
        assert len(mem) == 2
        # a memory no larger than the batch samples every entry, in order
        rewards = mem.sample(np.random.default_rng(0), 2)[2]
        assert rewards[0] == 1.0 and rewards[1] == 2.0

    def test_small_memory_returns_everything(self):
        mem = ReplayMemory(capacity=10)
        push_rewards(mem, range(3))
        batch = mem.sample(np.random.default_rng(0), batch_size=8)
        assert all(len(column) == 3 for column in batch)

    def test_sample_without_replacement(self):
        mem = ReplayMemory(capacity=100)
        push_rewards(mem, range(50))
        rewards = list(mem.sample(np.random.default_rng(1), batch_size=20)[2])
        assert len(rewards) == len(set(rewards)) == 20

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=0)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 50), batch_size=st.integers(1, 40),
           pushes=st.integers(0, 200), seed=st.integers(0, 2 ** 32 - 1))
    @example(capacity=7, batch_size=3, pushes=40, seed=1)    # sampled across the wrap
    @example(capacity=5, batch_size=8, pushes=13, seed=2)    # all of a wrapped ring
    def test_samples_as_the_deque_did(self, capacity, batch_size, pushes, seed):
        # the same experiences in the same order, and the generator left in
        # the same state, before and after the ring wraps around
        transitions = np.random.default_rng(seed)
        ring, oracle = ReplayMemory(capacity), DequeMemory(capacity)
        ring_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(pushes):
            t = (MdpState(int(transitions.integers(3))), MdpAction(int(transitions.integers(5))),
                 float(transitions.normal()), MdpState(int(transitions.integers(3))),
                 bool(transitions.random() < 0.5))
            ring.put(0, *t)
            ring.advance()
            oracle.push(*t)
            got = ring.sample(ring_rng, batch_size)
            want = oracle.sample(oracle_rng, batch_size)
            assert len(ring) == len(oracle._buf)
            assert list(zip(*(column.tolist() for column in got))) == \
                [(e.state, e.action, e.reward, e.next_state, e.next_is_terminal)
                 for e in want]
            assert ring_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_huge_capacity_allocates_only_what_is_pushed(self):
        # the ring grows with its contents, so a dqn run with a capacity far
        # beyond any run's transitions completes and peaks no higher than
        # one with the default capacity
        cfg = default_config()
        cfg = replace(cfg, episode=EpisodeConfig(num_episodes=4))
        peaks = {}
        for capacity in (cfg.ml.replay_capacity, 10 ** 12):
            run_cfg = replace(cfg, ml=replace(cfg.ml, replay_capacity=capacity))
            tracemalloc.start()
            try:
                run_single("dqn", 1, 0, run_cfg)
                peaks[capacity] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10 ** 12] <= peaks[cfg.ml.replay_capacity] + 64 * 1024

    def test_learner_with_a_full_ring_keeps_nothing_per_tti(self):
        # nothing a TTI allocates stays, not even a block cached by a free
        # list: a tuple built from a generator is shrunk in place, and
        # one a TTI would fill the 5-tuple free list (up to 160 kB)
        agent = DqnAgent(init_params((3, 24, 24, 5), np.random.default_rng(0)), 0.95,
                         np.random.default_rng(1), memory=ReplayMemory(64), batch_size=4)

        def run(ttis):
            for k in range(ttis):
                state = MdpState(k % 3)
                agent.observe(state, agent.act(state, None), -1.0, MdpState((k + 1) % 3),
                              False, None)

        run(100)
        tracemalloc.start()
        try:
            run(2000)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 16 * 1024


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
        before = [p.copy() for p in params_of(agent)]
        for ep in range(5):
            run_episode(env, agent, ep)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(params_of(agent), before))


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
        self.opt_state = AdamState.for_params(flatten(params))
        self.memory = DequeMemory(capacity)
        self.gamma, self.rng, self.batch_size = gamma, rng, batch_size

    def observe(self, state, action, reward, next_state, terminal):
        self.memory.push(state, action, reward, next_state, terminal)
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
        flat, self.opt_state = adam_step(flatten(self.params), flatten(grads),
                                         self.opt_state)
        self.params = layer_views(flat, layer_sizes_of(self.params))


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
        for got, want in [(params_of(agent), oracle.params),
                          (agent.opt_state.m, oracle.opt_state.m),
                          (agent.opt_state.v, oracle.opt_state.v)]:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert agent.opt_state.step_count == oracle.opt_state.step_count == 400


def per_call_select(state, params, epsilon, rng):
    """Transcription of action selection with a forward pass per call."""
    if rng.random() < epsilon:
        return MdpAction(int(rng.integers(NUM_ACTIONS)))
    return MdpAction(int(np.argmax(forward(params, encode_state(state)))))


class TestStatePass:
    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_act_sees_every_update(self, epsilon):
        # after each observe, act uses the updated parameters, and it draws
        # from the agent's generator as a per-call forward pass did: one
        # uniform, then an action index only when it explores
        params = init_params((3, 24, 24, 5), np.random.default_rng(3))
        agent = DqnAgent(params, 0.95, np.random.default_rng(4),
                         schedule=ExplorationSchedule(epsilon, 1.0, 0.0),
                         memory=ReplayMemory(50), batch_size=4, learning_rate=0.05)
        transitions = np.random.default_rng(5)
        greedy = set()
        for _ in range(300):
            state = MdpState(int(transitions.integers(3)))
            reference = copy.deepcopy(agent.rng)
            want = per_call_select(state, params_of(agent), epsilon, reference)
            action = agent.act(state, None)
            assert action == want
            assert agent.rng.bit_generator.state == reference.bit_generator.state
            agent.observe(state, action, float(transitions.choice([-1.0, 0.0])),
                          MdpState(int(transitions.integers(3))),
                          bool(transitions.random() < 0.2), None)
            greedy.add(tuple(np.argmax(forward(params_of(agent), np.eye(3)), axis=1)))
        assert len(greedy) > 1    # the updates did move the greedy actions


class TestLearnerStack:
    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(1, 6), batch_size=st.integers(1, 8),
           capacity=st.integers(1, 40), lifetimes=st.lists(st.integers(1, 30), min_size=6,
                                                            max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(num=3, batch_size=4, capacity=5, lifetimes=[12, 3, 30, 1, 1, 1], seed=7)
    @example(num=1, batch_size=4, capacity=5, lifetimes=[12, 1, 1, 1, 1, 1], seed=7)
    def test_stack_matches_per_sample_oracles(self, num, batch_size, capacity,
                                              lifetimes, seed):
        # learners of one stack act and learn as each learner alone, one
        # experience at a time, would: the same actions, parameters,
        # moments, step counts and generator states, bit for bit, also after
        # others left the stack at other ticks; tobytes() is blind to shape,
        # so the shapes are checked on their own
        schedule = ExplorationSchedule(0.5, 1.0, 0.0)
        learners, oracles = [], []
        for i in range(num):
            params = init_params((3, 24, 24, 5), np.random.default_rng([seed, i]))
            learners.append(DqnAgent([p.copy() for p in params], 0.95,
                                     np.random.default_rng([seed, i, 1]), schedule=schedule,
                                     memory=ReplayMemory(capacity), batch_size=batch_size))
            oracles.append(PerSampleLearner([p.copy() for p in params], 0.95,
                                            np.random.default_rng([seed, i, 1]),
                                            batch_size, capacity))
        LearnerStack.of(learners)
        transitions = np.random.default_rng(seed)
        running = list(range(num))
        for tick in range(max(lifetimes[:num])):
            for i in running:
                state = MdpState(int(transitions.integers(3)))
                want = per_call_select(state, oracles[i].params, 0.5, oracles[i].rng)
                action = learners[i].act(state, None)
                assert action == want
                t = (state, action, float(transitions.choice([-1.0, 0.0, 1.0, 5.0])),
                     MdpState(int(transitions.integers(3))), bool(transitions.random() < 0.2))
                learners[i].observe(*t, None)
                oracles[i].observe(*t)
            left = [learners[i] for i in running if lifetimes[i] == tick + 1]
            running = [i for i in running if lifetimes[i] > tick + 1]
            if left:  # each into a stack of its own, and the others on together
                LearnerStack.of([learners[i] for i in running])
                for learner in left:
                    LearnerStack.of([learner])
        for learner, oracle, ticks in zip(learners, oracles, lifetimes):
            assert learner.flat.shape == flatten(oracle.params).shape
            assert [a.shape for a in params_of(learner)] == [b.shape for b in oracle.params]
            assert learner.opt_state.m.shape == learner.opt_state.v.shape \
                == oracle.opt_state.m.shape == oracle.opt_state.v.shape
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(params_of(learner), oracle.params))
            assert learner.opt_state.m.tobytes() == oracle.opt_state.m.tobytes()
            assert learner.opt_state.v.tobytes() == oracle.opt_state.v.tobytes()
            assert learner.opt_state.step_count == oracle.opt_state.step_count == ticks
            assert learner.rng.bit_generator.state == oracle.rng.bit_generator.state
            assert len(learner.stack.rngs) == 1  # every learner left
            assert learner.memory is learner.stack.memory
            assert learner.memory._columns[0].shape[0] == 1

    def test_learners_at_different_steps_do_not_join(self):
        # a shared Adam step count would give one of them the other's bias
        # corrections, and a shared ring one of them the other's capacity
        cfg = default_config()
        a, b = build_agent("dqn", cfg, 0), build_agent("dqn", cfg, 1)
        c = build_agent("dqn", replace(cfg, ml=replace(cfg.ml, replay_capacity=64)), 2)
        for learner in (a, c):
            learner.observe(MdpState.TRANSIENT, MdpAction.NO_ACTION, 0.0, MdpState.TRANSIENT,
                            False, None)
        with pytest.raises(ValueError, match="alike"):
            LearnerStack.of([a, b])
        with pytest.raises(ValueError, match="alike"):
            LearnerStack.of([a, c])
        b.observe(MdpState.TRANSIENT, MdpAction.NO_ACTION, 0.0, MdpState.TRANSIENT, False, None)
        LearnerStack.of([a, b])
        assert a.stack is b.stack and (a.index, b.index) == (0, 1)
        assert a.memory is b.memory is a.stack.memory and len(a.memory) == 1
