import csv
import math
import re
import stat
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mdp import RADIO_FIELDS

from sonsim import experiment, mdp, seeding
from sonsim.cli import main
from sonsim.config import KNOWN_AGENTS, default_config, parse_config
from sonsim.experiment import build_agent, run_experiment, run_seeds, run_single
from sonsim.faults import FaultRates
from sonsim.mdp import EpisodeConfig, SonEnv
from sonsim.metrics import (summarize_run, trace_columns, ue_average_sinrs, write_cdf_csv,
                            write_trace_csv)
from sonsim.nn import load_params
from sonsim.radio import ClusterConfig, step_mobility
from sonsim.runner import run_lockstep


def tiny_config(**kw):
    cfg = default_config()
    cfg = replace(cfg,
                  cluster=ClusterConfig(num_sites=1, sectors_per_site=3,
                                        ues_per_cell=2),
                  episode=EpisodeConfig(ttis_per_episode=5, num_episodes=4),
                  agents=("random", "fifo", "dqn"),
                  seeds=(0, 1),
                  **kw)
    return cfg


# every event has a chance, the spontaneous clears too
CLEARING_RATES = FaultRates((2 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 12, 1 / 12, 1 / 12, 1 / 12))


def read_bytes_tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunSingle:
    def test_produces_expected_counts(self):
        cfg = tiny_config()
        result = run_single("fifo", 2, 0, cfg)
        assert len(result.traces) == 4
        assert len(result.episodes) == 4
        assert result.dqn_params is None

    def test_dqn_returns_weights(self):
        cfg = tiny_config()
        result = run_single("dqn", 2, 0, cfg)
        assert result.dqn_params is not None

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError):
            run_single("psychic", 2, 0, tiny_config())

    @pytest.mark.parametrize("agent", KNOWN_AGENTS)
    @pytest.mark.parametrize("seed", range(2))
    def test_mean_clearance_is_the_mean_episode_length(self, agent, seed):
        # a runner episode ends at its first empty register or at the
        # budget, so its clearance TTI is its length, spontaneous clears
        # included
        cfg = replace(tiny_config(), rates=CLEARING_RATES,
                      episode=EpisodeConfig(ttis_per_episode=3, num_episodes=30))
        r = run_single(agent, 2, seed, cfg)
        assert {bool(tr.alarm_count[-1] == 0) for tr in r.episodes} == {True, False}
        assert (summarize_run(r.traces, cfg.episode.ttis_per_episode).mean_clearance_ttis
                == np.mean([len(tr.state) for tr in r.episodes]))

    @pytest.mark.parametrize("seed", range(3))
    def test_every_agent_walks_the_same_path(self, monkeypatch, seed):
        # each episode walks the UEs from the drop on that episode's
        # mobility stream, so of two agents' tracks in an episode the
        # shorter is a prefix of the longer, bit for bit
        cfg = default_config()
        tracks = {}
        for agent in ("random", "dqn"):
            walks = []
            def record(*args, **kwargs):
                walk = step_mobility(*args, **kwargs)
                walks.append(walk[0])
                return walk
            monkeypatch.setattr(mdp, "step_mobility", record)
            traces = run_single(agent, 1, seed, cfg).traces
            # a walk's episodes side by side, in order; each walked as far
            # as the agent's episode ran (at q = 1 no episode outgrows a block)
            walked = [episode for walk in walks for episode in walk.swapaxes(0, 1)]
            assert len(walked) == len(traces) == cfg.episode.num_episodes
            tracks[agent] = [w[:len(tr.state)] for w, tr in zip(walked, traces)]
        pairs = list(zip(tracks["random"], tracks["dqn"]))
        assert any(len(a) != len(b) for a, b in pairs)  # the episodes differ
        for a, b in pairs:
            short, long = sorted((a, b), key=len)
            assert short.tobytes() == long[:len(short)].tobytes()


def assert_same_run(got, want):
    # every trace column, episode total and history, and the weights, bit for bit
    assert (got.agent, got.q, got.seed) == (want.agent, want.q, want.seed)
    assert got.traces is got.episodes
    assert len(got.traces) == len(want.traces)
    for a, b in zip(got.traces, want.traces):
        assert a.episode == b.episode and a.history == b.history
        assert a.total_reward.hex() == b.total_reward.hex()
        for f in fields(a)[1:]:
            if f.name in ("total_reward", "history"):
                continue
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.shape == y.shape and x.dtype == y.dtype, f.name
            assert x.tobytes() == y.tobytes(), f.name
    if want.dqn_params is None:
        assert got.dqn_params is None
    else:
        assert [p.tobytes() for p in got.dqn_params] == [p.tobytes() for p in want.dqn_params]


class TestLazyRadio:
    @staticmethod
    def count_passes(monkeypatch):
        passes = []
        def counted(env, traces, original=experiment.drop_radio):
            passes.append((env.config.ues_per_cell, env.seed))
            return original(env, traces)
        monkeypatch.setattr(experiment, "drop_radio", counted)
        return passes

    def test_episodes_alone_run_no_radio(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        result = run_single("dqn", 2, 0, tiny_config())
        assert len(result.episodes) == 4 and result.dqn_params is not None
        assert passes == []

    @pytest.mark.parametrize("rates", [FaultRates(), CLEARING_RATES])
    def test_traces_run_one_pass_per_q_and_seed(self, tmp_path, monkeypatch, rates):
        # read in any order, after the run, twice: one pass per (q, seed),
        # and the traces run_experiment reads at once, bit for bit
        passes = self.count_passes(monkeypatch)
        cfg = replace(tiny_config(), rates=rates, qs=(2, 3))
        grid = list(run_seeds(cfg.agents, cfg.qs, cfg.seeds, cfg))
        assert passes == []
        for q, per_seed in reversed(grid):
            for results in per_seed:
                for r in results[::-1] + results:
                    assert len(r.traces) == cfg.episode.num_episodes
        assert sorted(passes) == [(q, seed) for q in cfg.qs for seed in cfg.seeds]
        passes.clear()
        for (q, lazy), (_, eager) in zip(grid, run_seeds(cfg.agents, cfg.qs, cfg.seeds, cfg),
                                         strict=True):
            for got, want in zip(lazy, eager, strict=True):
                for a, b in zip(got, want, strict=True):
                    assert_same_run(a, b)
        passes.clear()
        run_experiment(cfg, tmp_path / "res")
        assert sorted(passes) == [(q, seed) for q in cfg.qs for seed in cfg.seeds]


class TestLockstep:
    def test_one_drop_per_q_seed_and_one_walk_per_episode(self, tmp_path, monkeypatch):
        drops, walks = [], []
        def drop(*args, original=mdp.build_cluster, **kwargs):
            drops.append(args[0].ues_per_cell)
            return original(*args, **kwargs)
        def stream(seed, channel, *extra, original=seeding.stream):
            if channel == seeding.MOBILITY:
                walks.append((seed, *extra))
            return original(seed, channel, *extra)
        monkeypatch.setattr(mdp, "build_cluster", drop)
        monkeypatch.setattr(seeding, "stream", stream)
        cfg = replace(tiny_config(), qs=(1, 2))
        assert len(cfg.agents) == 3 and cfg.seeds == (0, 1)
        run_experiment(cfg, tmp_path / "res")
        assert drops == [1, 1, 2, 2]
        # one draw of turns per (q, seed, episode), whatever the agents
        episodes = range(cfg.episode.num_episodes)
        assert sorted(walks) == sorted([(seed, ep) for seed in cfg.seeds
                                        for ep in episodes] * 2)

    @pytest.mark.parametrize("q, rates, episodes", [
        (1, FaultRates(), 50),  # blocks span episodes
        (10, FaultRates((0, 1 / 4, 1 / 4, 1 / 4, 1 / 4)), 8),  # blocks cut episodes
    ])
    def test_radio_calls_stay_within_the_block(self, monkeypatch, q, rates, episodes):
        # the pass's (rows, N, C) temporaries are bounded by its block of
        # UE-rows, whatever the episodes and histories it packs together,
        # and so is every walk, of the episodes it packs or of one block of
        # an episode it cuts
        sizes, walks = [], []
        for name in ("reassign_serving", "compute_sinr_all"):
            def counted(serving_or_rx, *args, original=getattr(mdp, name), **kwargs):
                sizes.append(math.prod(serving_or_rx.shape[:2]))
                return original(serving_or_rx, *args, **kwargs)
            monkeypatch.setattr(mdp, name, counted)
        def walk(position, heading, turns, config, original=mdp.step_mobility):
            walks.append(turns)
            return original(position, heading, turns, config)
        monkeypatch.setattr(mdp, "step_mobility", walk)
        cfg = replace(default_config(), rates=rates, episode=EpisodeConfig(num_episodes=episodes))
        [(_, [results])] = run_seeds(KNOWN_AGENTS, (q,), (0,), cfg)
        results[0].traces  # runs the seed's radio pass
        n = q * cfg.cluster.num_cells
        assert sizes and max(sizes) <= mdp.RADIO_BLOCK_ROWS
        assert max(sizes) > mdp.RADIO_BLOCK_ROWS - n  # the chunks fill up
        for turns in walks:  # an episode's rows turn, the padding after it not
            assert turns.any(axis=-1).sum() * n <= mdp.RADIO_BLOCK_ROWS

    @settings(max_examples=40, deadline=None)
    @given(weights=st.lists(st.integers(0, 4), min_size=9, max_size=9).filter(any),
           agents=st.lists(st.sampled_from(KNOWN_AGENTS), min_size=1, max_size=3,
                           unique=True),
           q=st.integers(1, 3), ttis=st.integers(1, 20), seed=st.integers(0, 1000),
           ttis_per_block=st.integers(1, 8))
    def test_shared_pass_equals_solo_runs(self, weights, agents, q, ttis, seed,
                                          ttis_per_block):
        # events 5..8 are the spontaneous clears; random and fifo act alike
        # at any rates, so distinct histories come from dqn, and small blocks
        # split long episodes
        cfg = replace(tiny_config(),
                      rates=FaultRates(np.array(weights) / sum(weights)),
                      episode=EpisodeConfig(ttis_per_episode=ttis, num_episodes=3))
        n = q * cfg.cluster.num_cells
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdp, "RADIO_BLOCK_ROWS", ttis_per_block * n)
            [(_, [shared])] = run_seeds(agents, (q,), (seed,), cfg)
            assert [r.agent for r in shared] == agents
            for got in shared:
                assert_same_run(got, run_single(got.agent, q, seed, cfg))

    def test_seeds_in_lockstep_equal_each_seed_alone(self):
        # the learners of four seeds train as one stack, and each pair
        # leaves it when its episodes end, at its own tick
        cfg = replace(default_config(), ml=replace(default_config().ml, batch_size=4),
                      episode=EpisodeConfig(num_episodes=6))
        [(q, together)] = run_seeds(KNOWN_AGENTS, (2,), range(4), cfg)
        assert q == 2
        assert [[r.seed for r in rs] for rs in together] == [[s] * 3 for s in range(4)]
        ttis = [sum(len(tr.state) for tr in rs[-1].episodes) for rs in together]
        assert len(set(ttis)) > 1  # the dqn learners left at different ticks
        for seed, results in enumerate(together):
            [(_, [alone])] = run_seeds(KNOWN_AGENTS, (2,), (seed,), cfg)
            for got, want in zip(results, alone, strict=True):
                assert_same_run(got, want)

    @pytest.mark.parametrize("rates", [FaultRates(), CLEARING_RATES])
    @pytest.mark.parametrize("seed", range(2))
    def test_random_and_fifo_share_one_pass(self, seed, rates):
        # random and fifo clear the same alarm every TTI at any rates, the
        # spontaneous clears included, so their registers match every TTI
        # and their traces are one object each, with read-only radio arrays
        cfg = replace(tiny_config(), rates=rates, episode=EpisodeConfig(num_episodes=6))
        [(_, [(rand, fifo, dqn)])] = run_seeds(("random", "fifo", "dqn"), (2,), (seed,), cfg)
        assert_same_run(replace(fifo, agent="random"), rand)
        for a, b in zip(rand.traces, fifo.traces, strict=True):
            assert a is b
            for name in RADIO_FIELDS:
                assert getattr(a, name) is getattr(b, name)
                assert not getattr(a, name).flags.writeable
        assert_same_run(dqn, run_single("dqn", 2, seed, cfg))

    @settings(max_examples=40, deadline=None)
    @given(weights=st.lists(st.integers(0, 4), min_size=9, max_size=9).filter(any),
           seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=3, unique=True))
    def test_a_history_fixes_state_reward_and_alarms(self, weights, seeds):
        # the merge of equal traces keys on (episode, history, actions):
        # under one reward schedule, a register history fixes the trace's
        # state, reward and alarm columns and its total reward, whatever the
        # agent, seed or episode; the total is the rewards added in TTI order
        cfg = replace(tiny_config(), rates=FaultRates(np.array(weights) / sum(weights)),
                      episode=EpisodeConfig(ttis_per_episode=8, num_episodes=5))
        pairs = []
        for seed in seeds:
            env = SonEnv(cfg.cluster, cfg.rates, cfg.rewards, cfg.episode, seed=seed)
            pairs += [(env if i == 0 else env.replica(), build_agent(name, cfg, seed))
                      for i, name in enumerate(KNOWN_AGENTS)]
        columns = {}
        for runs in run_lockstep(pairs, range(cfg.episode.num_episodes)):
            for trace in runs:
                assert len(trace.history) == len(trace.state)
                total = 0.0
                for reward in trace.reward.tolist():
                    total += reward
                assert trace.total_reward.hex() == total.hex()
                got = tuple(c.tobytes() for c in (trace.state, trace.reward, trace.alarm_count))
                got += (trace.total_reward.hex(),)
                assert columns.setdefault(tuple(trace.history), got) == got


class TestRunExperiment:
    def test_file_layout_single_q(self, tmp_path):
        out = run_experiment(tiny_config(), tmp_path / "res")
        names = {p.name for p in out.iterdir()}
        for agent in ("random", "fifo", "dqn"):
            assert f"episodes_{agent}.csv" in names
            assert f"cdf_{agent}.csv" in names
            assert f"traces_{agent}.csv" in names
        assert "summary.csv" in names
        assert "manifest.txt" in names
        assert "effective_config.txt" in names
        assert "weights_dqn_seed0.txt" in names
        assert "weights_dqn_seed1.txt" in names

    def test_summary_has_one_row_per_agent_q(self, tmp_path):
        cfg = replace(tiny_config(), qs=(2, 3))
        out = run_experiment(cfg, tmp_path / "res")
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {(r["agent"], r["q"]) for r in rows} == {
            (a, str(q)) for a in ("random", "fifo", "dqn") for q in (2, 3)}
        assert (out / "q2" / "episodes_dqn.csv").exists()
        assert (out / "q3" / "cdf_random.csv").exists()

    def test_control_loop_does_not_depend_on_q(self, tmp_path):
        # faults, rewards, actions and learning never read the radio, so
        # every q writes the same episode logs and weights
        out = run_experiment(replace(tiny_config(), qs=(2, 3)), tmp_path / "res")
        names = [f"episodes_{agent}.csv" for agent in KNOWN_AGENTS]
        names += [f"weights_dqn_seed{seed}.txt" for seed in tiny_config().seeds]
        for name in names:
            assert (out / "q2" / name).read_bytes() == (out / "q3" / name).read_bytes(), name

    @pytest.mark.parametrize("rates", [FaultRates(), CLEARING_RATES])
    def test_each_q_writes_what_a_run_at_that_q_alone_writes(self, tmp_path, monkeypatch,
                                                              rates):
        # the control loops run once for both qs, yet every file of q2/ and
        # q3/ and every summary row is what a run at that q alone writes
        calls = []
        def counted(pairs, episodes, original=experiment.run_lockstep):
            calls.append(len(pairs))
            return original(pairs, episodes)
        monkeypatch.setattr(experiment, "run_lockstep", counted)
        cfg = replace(tiny_config(), rates=rates, qs=(2, 3))
        both = run_experiment(cfg, tmp_path / "both")
        assert calls == [len(cfg.agents) * len(cfg.seeds)]
        summary = (both / "summary.csv").read_text().splitlines()
        for q in cfg.qs:
            alone = read_bytes_tree(run_experiment(replace(cfg, qs=(q,)), tmp_path / f"{q}"))
            got = read_bytes_tree(both / f"q{q}")
            assert set(got) == {rel for rel in alone if rel.name not in
                                ("summary.csv", "manifest.txt", "effective_config.txt")}
            for rel, data in got.items():
                assert data == alone[rel], (q, rel)
            assert set(alone[Path("summary.csv")].decode().splitlines()) <= set(summary)
        assert len(calls) == 1 + len(cfg.qs)  # one control stage a run

    @pytest.mark.parametrize("rates", [FaultRates(), CLEARING_RATES])
    def test_every_file_is_written_from_its_own_results(self, tmp_path, rates):
        # a file copied from another is the file its own agent's results at
        # its own q write: the qs' traces differ only in their SINR column,
        # and dqn's results differ from the baselines'
        cfg = replace(tiny_config(), rates=rates, qs=(2, 3),
                      episode=EpisodeConfig(ttis_per_episode=10, num_episodes=6))
        out = run_experiment(cfg, tmp_path / "res")
        want = tmp_path / "want.csv"
        for q, per_seed in run_seeds(cfg.agents, cfg.qs, cfg.seeds, cfg):
            for agent, results in zip(cfg.agents, zip(*per_seed)):
                traces = [tr for r in results for tr in r.traces]
                write_cdf_csv(want, ue_average_sinrs(traces))
                assert (out / f"q{q}" / f"cdf_{agent}.csv").read_bytes() == want.read_bytes()
                write_trace_csv(want, trace_columns(traces))
                assert (out / f"q{q}" / f"traces_{agent}.csv").read_bytes() == want.read_bytes()
        for name in ("cdf", "traces"):
            files = {(q, agent): (out / f"q{q}" / f"{name}_{agent}.csv").read_bytes()
                     for q in cfg.qs for agent in cfg.agents}
            # one alarm type at most is pending when a baseline acts, so
            # random and fifo clear the same alarm every TTI, at any rates
            assert files[2, "random"] == files[2, "fifo"] != files[2, "dqn"]
            assert files[2, "random"] != files[3, "random"]

    def test_signed_zeros_get_files_of_their_own(self, tmp_path, monkeypatch):
        # -0.0 == 0.0, yet "%.8g" prints them as -0 and 0: CDF samples that
        # differ only in the sign of a zero are two inputs and two files.
        # fifo's traces are random's, so its samples are not asked for
        samples = {"random": np.array([-0.0, 1.0]), "dqn": np.array([0.0, 1.0])}
        given = iter(samples.values())
        monkeypatch.setattr(experiment, "ue_average_sinrs", lambda traces: next(given))
        out = run_experiment(tiny_config(), tmp_path / "res")
        assert next(given, None) is None
        want = tmp_path / "want.csv"
        for agent, values in samples.items():
            write_cdf_csv(want, values)
            assert (out / f"cdf_{agent}.csv").read_bytes() == want.read_bytes(), agent
        files = [(out / f"cdf_{agent}.csv").read_bytes() for agent in ("random", "fifo", "dqn")]
        assert files[0] == files[1] != files[2]

    def test_memo_keys_hold_no_samples_or_columns(self, tmp_path, monkeypatch):
        # the pooled files are keyed on the traces' ids, not on copies of
        # their samples or columns: at q = 50 all keys together take less
        # than one CDF's samples
        memos = []
        def spy(*args, original=experiment._write_cell_outputs):
            memos.append(args[-2])
            return original(*args)
        monkeypatch.setattr(experiment, "_write_cell_outputs", spy)
        cfg = replace(default_config(), qs=(50,), seeds=(0,),
                      episode=EpisodeConfig(num_episodes=4))
        run_experiment(cfg, tmp_path / "res")
        assert len(memos) == len(cfg.agents) and all(m is memos[0] for m in memos)
        def size(key):
            return sys.getsizeof(key) + (sum(map(size, key)) if isinstance(key, tuple) else 0)
        samples = cfg.episode.num_episodes * 50 * cfg.cluster.num_cells
        assert sum(map(size, memos[0])) < 8 * samples

    def test_writes_into_an_existing_directory(self, tmp_path):
        # every file a run writes replaces the one there, other files stay,
        # and the directories keep their permission bits: the staging
        # directory is 0o700, which a copystat would hand on
        out = tmp_path / "res"
        (out / "q2").mkdir(parents=True)
        out.chmod(0o755)
        (out / "q2").chmod(0o751)
        mine = {Path("notes.txt"): b"mine\n", Path("q2") / "notes.txt": b"also mine\n"}
        for rel, data in mine.items():
            (out / rel).write_bytes(data)
        for rel in (Path("summary.csv"), Path("q2") / "episodes_dqn.csv"):
            (out / rel).write_bytes(b"stale\n")
        cfg = replace(tiny_config(), qs=(2, 3))
        assert run_experiment(cfg, out) == out
        fresh = read_bytes_tree(run_experiment(cfg, tmp_path / "fresh"))
        got = read_bytes_tree(out)
        assert (stat.S_IMODE(out.stat().st_mode), stat.S_IMODE((out / "q2").stat().st_mode)
                ) == (0o755, 0o751)
        for rel, data in mine.items():
            assert got.pop(rel) == data
        assert set(got) == set(fresh)
        for rel, data in got.items():
            if rel.name != "manifest.txt":  # its timestamp may differ
                assert data == fresh[rel], rel

    def test_output_path_that_is_a_file_rejected(self, tmp_path, capsys):
        # making the output directory fails, naming the path, before any
        # run, and the file keeps its bytes
        path = tmp_path / "results"
        path.write_bytes(b"not a directory\n")
        with pytest.raises(FileExistsError, match=re.escape(str(path))):
            run_experiment(tiny_config(), path)
        assert main(["--out", str(path), "--episodes", "1", "--seeds", "1"]) == 1
        assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == b"not a directory\n"

    def test_episode_csv_row_count(self, tmp_path):
        out = run_experiment(tiny_config(), tmp_path / "res")
        lines = (out / "episodes_dqn.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 2  # header + episodes x seeds

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        ta, tb = read_bytes_tree(a), read_bytes_tree(b)
        assert set(ta) == set(tb)
        for rel in ta:
            if rel.name == "manifest.txt":  # carries a timestamp
                continue
            assert ta[rel] == tb[rel], rel

    def test_seed_changes_outputs(self, tmp_path):
        a = run_experiment(tiny_config(), tmp_path / "a")
        b = run_experiment(replace(tiny_config(), seeds=(2, 3)), tmp_path / "b")
        assert (a / "episodes_random.csv").read_bytes() != \
               (b / "episodes_random.csv").read_bytes()

    def test_saved_weights_loadable(self, tmp_path):
        out = run_experiment(tiny_config(), tmp_path / "res")
        params = load_params(out / "weights_dqn_seed0.txt")
        assert [p.shape for p in params] == [(3, 24), (24,), (24, 24), (24,),
                                             (24, 5), (5,)]

    def test_effective_config_round_trips(self, tmp_path):
        out = run_experiment(tiny_config(), tmp_path / "res")
        text = (out / "effective_config.txt").read_text()
        cfg = parse_config(text.splitlines(keepends=True))
        assert cfg.ml == tiny_config().ml
        assert cfg.cluster == tiny_config().cluster

    def test_manifest_lists_every_run(self, tmp_path):
        out = run_experiment(tiny_config(), tmp_path / "res")
        text = (out / "manifest.txt").read_text()
        assert text.count("run: ") == 6  # 3 agents x 2 seeds
        assert "agent=dqn q=2 seed=1" in text


class TestCli:
    def test_dump_effective_config(self, capsys):
        assert main(["--dump-effective-config", "--agent", "dqn",
                     "--seeds", "3"]) == 0
        text = capsys.readouterr().out
        assert "run.agents = dqn" in text
        assert "run.seeds = 0,1,2" in text

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("faults.p = 0.5,0.1,0.1,0.1,0.1\n")
        assert main(["--config", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_nonzero_exit(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg"]) == 1

    @pytest.mark.parametrize("flag, field", [("--episodes", "num_episodes"),
                                             ("--ues-per-cell", "ues_per_cell")])
    def test_zero_count_rejected(self, flag, field, capsys):
        assert main(["--dump-effective-config", flag, "0"]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [("--out", "run.output_dir"),
                                               ("--seeds", "--seeds"),
                                               ("--config", "No such file")])
    def test_empty_value_rejected(self, flag, message, capsys):
        # an empty value is validated, not taken for an absent flag
        assert main(["--dump-effective-config", flag, ""]) == 1
        assert message in capsys.readouterr().err

    def test_seed_list_parsing(self, capsys):
        assert main(["--dump-effective-config", "--seeds", "4,7"]) == 0
        assert "run.seeds = 4,7" in capsys.readouterr().out

    def test_end_to_end_tiny_run(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("cluster.num_sites = 1\ncluster.ues_per_cell = 2\n"
                       "episode.ttis_per_episode = 5\n"
                       "episode.num_episodes = 2\n"
                       "run.agents = fifo\nrun.seeds = 0\n")
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "episodes_fifo.csv").exists()
