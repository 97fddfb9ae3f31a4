"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

Two criteria (07 learning signal, 08 agent ordering) encode qualitative
expectations about the value-learning agent that the shipped implementation
measurably does not reproduce; they are asserted unmodified and fail
honestly.  See their docstrings and the README acceptance section.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from test_faults import register_cells, same_bits

from sonsim.config import default_config
from sonsim.dqn import ExplorationSchedule, decay_epsilon
from sonsim.experiment import run_experiment, run_seeds, run_single
from sonsim.faults import FaultKind, FaultRegister, apply_fault, clear_fault
from sonsim.mdp import (EpisodeConfig, MdpAction, RewardSchedule, SonEnv,
                        alarm_reward)
from sonsim.metrics import empirical_cdf, percentile, summarize_run
from sonsim.nn import backward, forward, init_params
from sonsim.radio import (ClusterConfig, build_cluster, compute_sinr_all,
                          reassign_serving, rx_power_matrix)

AGENTS = ("random", "fifo", "dqn")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {num:02d} ({name}): PASS", flush=True)


@pytest.fixture(scope="module")
def ordering_data():
    """Per-seed run summaries for every (agent, q) cell, 20 paired seeds."""
    cfg = default_config()
    data = {(agent, q): [] for q in (10, 50) for agent in AGENTS}
    for seed in range(20):
        for q, [results] in run_seeds(AGENTS, (10, 50), (seed,), cfg):
            for r in results:
                data[r.agent, q].append(
                    summarize_run(r.traces, cfg.episode.ttis_per_episode))
    return data


def test_c01_reward_oracle():
    """Exhaustive reward check against an independent case transcription."""
    def oracle(prev, cur):
        if cur == 0:
            return 5.0
        if cur < prev:
            return 1.0
        if cur == prev:
            return 0.0
        return -1.0

    with criterion(1, "reward oracle"):
        start = time.perf_counter()
        sched = RewardSchedule(worsened=-1.0, unchanged=0.0,
                               improved=1.0, cleared=5.0)
        for prev in range(6):
            for cur in range(6):
                assert alarm_reward(prev, cur, sched) == oracle(prev, cur)
        assert time.perf_counter() - start < 1.0


def test_c02_gradient_correctness():
    """Analytic gradients vs central finite differences on 100 random nets."""
    with criterion(2, "gradient correctness"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        h = 1e-5
        for _ in range(100):
            params = init_params((3, 24, 24, 5), rng)
            x = np.zeros(3)
            x[rng.integers(3)] = 1.0
            action = int(rng.integers(5))
            target = float(rng.normal(scale=3.0))
            analytic = backward(params, x, action, target)
            for p, g in zip(params, analytic):
                flat, gflat = p.ravel(), g.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = (target - forward(params, x)[action]) ** 2
                    flat[k] = orig - h
                    down = (target - forward(params, x)[action]) ** 2
                    flat[k] = orig
                    numeric = (up - down) / (2 * h)
                    assert abs(gflat[k] - numeric) <= 1e-4 * abs(numeric) + 1e-6
        assert time.perf_counter() - start < 10.0


def test_c03_epsilon_schedule():
    """Geometric decay with floor: exact against max(0.91^k, 0.01)."""
    with criterion(3, "epsilon schedule"):
        sched = ExplorationSchedule(epsilon=1.0, decay=0.91, epsilon_min=0.01)
        for k in range(1, 80):
            sched = decay_epsilon(sched)
            assert sched.epsilon == pytest.approx(max(0.91 ** k, 0.01), abs=1e-12)
        assert 0.91 ** 48 > 0.01 > 0.91 ** 49  # floor engages at decay 49


def test_c04_fault_roundtrip():
    """apply + clear restores bit-identical cell state for every fault."""
    with criterion(4, "fault round-trip"):
        cells_ref, _ = build_cluster(ClusterConfig(ues_per_cell=1), seed=0)
        for kind in (FaultKind.AZIMUTH_DRIFT, FaultKind.NEIGHBOR_DOWN,
                     FaultKind.DIVERSITY_LOST, FaultKind.FEEDER_FAULT):
            cells, _ = build_cluster(ClusterConfig(ues_per_cell=1), seed=0)
            reg = FaultRegister()
            apply_fault(kind, reg, np.random.default_rng(4), len(cells))
            clear_fault(kind, reg)
            assert same_bits(register_cells(reg, healthy=cells), cells_ref)
            assert reg.active_count == 0

        # double neighbour-outage counter semantics
        cells, _ = build_cluster(ClusterConfig(ues_per_cell=1), seed=0)
        reg = FaultRegister()
        rng = np.random.default_rng(5)
        apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, len(cells))
        apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, len(cells))
        assert reg.counts[FaultKind.NEIGHBOR_DOWN - 1] == 2
        assert reg.active_count == 1
        clear_fault(FaultKind.NEIGHBOR_DOWN, reg)
        assert reg.counts[FaultKind.NEIGHBOR_DOWN - 1] == 1
        assert reg.active_count == 1
        clear_fault(FaultKind.NEIGHBOR_DOWN, reg)
        assert reg.active_count == 0
        assert same_bits(register_cells(reg, healthy=cells), cells_ref)


def test_c05_feeder_physics():
    """A feeder fault shifts every serving-cell UE's SINR by exactly -3 dB.

    The link-adaptation cap would clip the shift at capped operating
    points, so the check runs uncapped; the cap has its own tests.
    """
    with criterion(5, "feeder physics"):
        cfg = replace(ClusterConfig(), sinr_cap=float("inf"))
        env = SonEnv(cfg, seed=11)
        env.reset(0)
        cells, position = env.cells, env.ues.position
        rx_dbm = rx_power_matrix(position, env.shadow, cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        healthy = compute_sinr_all(serving, rx_dbm, cells, cfg)
        reg = FaultRegister()
        apply_fault(FaultKind.FEEDER_FAULT, reg, np.random.default_rng(0), len(cells))
        feeder = register_cells(reg, healthy=cells)
        faulted = compute_sinr_all(
            serving, rx_power_matrix(position, env.shadow, feeder, cfg), feeder, cfg)
        on_serving = serving == 0
        assert on_serving.any()
        deltas = faulted[on_serving] - healthy[on_serving]
        assert np.all(np.abs(deltas + 3.0) < 1e-9)


def test_c06_fifo_ordering():
    """Scripted arrivals are answered in order, one TTI later."""
    from sonsim.baselines import FifoQueue, fifo_policy

    with criterion(6, "fifo ordering"):
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


def test_c07_learning_signal():
    """Mean total episode reward, episodes 41-50 vs 1-10, one-sided sign
    test over 25 seeds at p < 0.05, all learning knobs at shipped defaults.

    Known-red: the three-state encoding carries no information about which
    alarm type is pending, so every clear action has identical expected
    value and the greedy policy degenerates to repeating one action, which
    underperforms the early high-exploration phase.  A hyperparameter sweep
    (learning rate 1e-3..1, batch 1..full-replay, replay capacity 8..10k,
    moment coefficients) never exceeded 11/20 seeds improving.
    """
    with criterion(7, "learning signal"):
        start = time.perf_counter()
        cfg = default_config()
        n_seeds, wins, ties = 25, 0, 0
        for seed in range(n_seeds):
            r = run_single("dqn", 10, seed, cfg)
            totals = [e.total_reward for e in r.episodes]
            early, late = np.mean(totals[:10]), np.mean(totals[40:50])
            if late > early:
                wins += 1
            elif late == early:
                ties += 1
        assert time.perf_counter() - start < 60.0
        p = stats.binomtest(wins, n_seeds - ties, 0.5,
                            alternative="greater").pvalue
        assert p < 0.05, (f"no learning signal: {wins} wins, "
                          f"{ties} ties over {n_seeds} seeds, p={p:.4f}")


def test_c08_algorithm_ordering(ordering_data):
    """Paired-seed ordering at q=10: the learning agent should clear alarms
    at least as fast as both baselines, and the mean UE SINR should order
    dqn >= fifo >= random.

    Known-red on the clearance clause: both baselines read the alarm
    register directly and always clear one pending instance per TTI, which
    is the pathwise-minimal clearance time; the register-blind learner
    cannot match it.  The SINR clause does hold here.
    """
    with criterion(8, "algorithm ordering"):
        clearance = {a: np.mean([s.mean_clearance_ttis
                                 for s in ordering_data[a, 10]])
                     for a in AGENTS}
        sinr = {a: np.mean([s.mean_sinr_db for s in ordering_data[a, 10]])
                for a in AGENTS}
        assert sinr["dqn"] >= sinr["fifo"] >= sinr["random"], sinr
        assert clearance["dqn"] <= clearance["fifo"], clearance
        assert clearance["dqn"] <= clearance["random"], clearance


def test_c09_high_load_convergence(ordering_data):
    """Relative spread of average UE throughput across agents shrinks when
    the per-cell load grows from 10 to 50 UEs."""
    with criterion(9, "high-load convergence"):
        def spread(q):
            means = [np.mean([s.throughput.average_mbps
                              for s in ordering_data[a, q]])
                     for a in AGENTS]
            return (max(means) - min(means)) / np.mean(means)

        assert spread(50) < spread(10)


def test_c10_percentile_cdf_oracles():
    """Nearest-rank percentiles and CDFs vs sort-based oracles, 1000 sets."""
    def percentile_oracle(samples, p):
        ordered = sorted(samples)
        need = p * len(ordered) - 1e-9
        for rank, value in enumerate(ordered, start=1):
            if rank >= need:
                return value
        return ordered[-1]

    with criterion(10, "percentile/cdf oracles"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(1, 80))
            samples = rng.normal(scale=10.0, size=n).tolist()
            p = float(rng.random())
            assert percentile(samples, p) == percentile_oracle(samples, p)

            steps = empirical_cdf(samples)
            ordered = sorted(samples)
            for value, prob in steps:
                assert prob == sum(1 for s in ordered if s <= value) / n


def test_c11_determinism(tmp_path):
    """Identical (config, seed) twice produces byte-identical CSV outputs."""
    with criterion(11, "determinism"):
        cfg = replace(default_config(),
                      episode=EpisodeConfig(ttis_per_episode=20, num_episodes=10),
                      seeds=(0,))
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        files_a = sorted(p for p in a.rglob("*.csv"))
        files_b = sorted(p for p in b.rglob("*.csv"))
        assert [p.name for p in files_a] == [p.name for p in files_b]
        assert files_a
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_c12_desk_scale_runtime(tmp_path):
    """A full default experiment (one agent, one seed) runs in under 10 s."""
    with criterion(12, "desk-scale runtime"):
        cfg = replace(default_config(), agents=("dqn",), seeds=(0,))
        start = time.perf_counter()
        run_experiment(cfg, tmp_path / "res")
        assert time.perf_counter() - start < 10.0
