import io
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonsim.cli import MAX_SEED_COUNT, main
from sonsim.config import (KNOWN_AGENTS, MAX_BATCH_SIZE, MAX_HIDDEN_WIDTH, ConfigError,
                           ExperimentConfig, MlConfig, default_config,
                           dump_effective_config, load_config, parse_config)
from sonsim.faults import FaultRates
from sonsim.mdp import MAX_EPISODES, MAX_TTIS_PER_EPISODE, EpisodeConfig, RewardSchedule
from sonsim.radio import MAX_SECTORS_PER_SITE, MAX_UES_PER_CELL, ClusterConfig


def parse(text):
    return parse_config(text.splitlines(keepends=True))


class TestDefaults:
    def test_empty_file_gives_table_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.ml.hidden_width == 24
        assert cfg.episode.gamma == 0.95
        assert cfg.ml.epsilon == 1.0
        assert cfg.ml.epsilon_decay == 0.91
        assert cfg.ml.epsilon_min == 0.01
        assert cfg.episode.ttis_per_episode == 20
        assert cfg.episode.num_episodes == 50
        assert cfg.cluster.ues_per_cell == 10
        assert cfg.cluster.num_cells == 21
        assert cfg.cluster.bs_tx_power == 46.0
        assert cfg.cluster.shadow_sigma == 8.0
        assert cfg.cluster.noise_density == -174.0
        assert cfg.rewards.worsened == -1.0
        assert cfg.rewards.cleared == 5.0
        assert cfg.rates.p[0] == pytest.approx(5 / 9)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse("\n# top comment\nml.hidden_width = 16  # trailing\n\n")
        assert cfg.ml.hidden_width == 16


class TestValues:
    def test_fault_free_environment_accepted(self):
        cfg = parse("faults.p = 1,0,0,0,0\n")
        assert cfg.rates.p == (1.0,) + (0.0,) * 8

    def test_fraction_values(self):
        cfg = parse("faults.p = 5/9,1/9,1/9,1/9,1/9\n")
        assert cfg.rates.p[0] == pytest.approx(5 / 9, abs=1e-15)

    def test_probabilities_not_summing_to_one_rejected(self):
        with pytest.raises(ConfigError):
            parse("faults.p = 0.5,0.1,0.1,0.1,0.1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="2"):
            parse("ml.hidden_width = 24\nnot.a.key = 5\n")

    def test_malformed_value_reports_line(self):
        with pytest.raises(ConfigError, match="3"):
            parse("# c\nml.hidden_width = 24\nepisode.gamma = fast\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="1"):
            parse("episode.gamma 0.9\n")

    def test_non_integer_count_rejected(self):
        with pytest.raises(ConfigError):
            parse("cluster.ues_per_cell = 2.5\n")

    @pytest.mark.parametrize("line", [
        "episode.num_episodes = inf", "run.seeds = 1e400", "run.q = 10,-inf",
        "ml.batch_size = 1e400/1e400", "cluster.ues_per_cell = nan",
    ])
    def test_non_finite_count_names_line_and_key(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^f\.cfg:2: {key}: expected an integer"):
            parse_config(["# counts\n", line + "\n"], source="f.cfg")

    def test_non_finite_count_exits_with_the_message(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("run.agents = fifo\nepisode.num_episodes = inf\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: episode.num_episodes: expected an integer" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_agent_rejected(self):
        with pytest.raises(ConfigError):
            parse("run.agents = dqn,psychic\n")

    def test_run_section(self):
        cfg = parse("run.agents = dqn,fifo\nrun.seeds = 3,5\nrun.q = 10,50\n"
                    "run.output_dir = out\n")
        assert cfg.agents == ("dqn", "fifo")
        assert cfg.seeds == (3, 5)
        assert cfg.effective_qs() == (10, 50)
        assert cfg.output_dir == "out"

    def test_cluster_override(self):
        cfg = parse("cluster.inter_site_distance = 350\ncluster.ues_per_cell = 4\n")
        assert cfg.cluster.inter_site_distance == 350.0
        assert cfg.effective_qs() == (4,)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "-1"), ("learning_rate", "0"), ("learning_rate", "nan"),
        ("learning_rate", "inf"), ("epsilon_decay", "1.5"),
        ("epsilon_decay", "-0.2"), ("epsilon_decay", "0"),
        ("epsilon_min", "-0.5"), ("epsilon_min", "2"),
    ])
    def test_learning_knob_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"ml.{key}"):
            parse(f"ml.{key} = {value}\n")

    @pytest.mark.parametrize("key, value", [
        ("carrier_freq", "0"), ("bs_height", "-1"), ("ue_height", "inf"),
        ("ue_speed", "-3"), ("shadow_sigma", "nan"), ("sinr_cap", "nan"),
        ("inter_site_distance", "nan"), ("inter_site_distance", "inf"),
        ("bs_tx_power", "inf"), ("bandwidth", "inf"), ("shadow_sigma", "inf"),
        ("noise_density", "inf"), ("sinr_cap", "-inf"),
    ])
    def test_bad_cluster_value_names_the_field(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse(f"cluster.{key} = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_azimuth_delta_rejected(self, value):
        with pytest.raises(ConfigError, match="faults.azimuth_delta"):
            parse(f"faults.azimuth_delta = {value}\n")

    @pytest.mark.parametrize("value", [
        "nan,0.5,0.5,0,0", "0.5,nan,0.5,0,0", "1,0,0,0,0,inf,0,0,0", "0,1,0,0,-inf",
    ])
    def test_non_finite_fault_rate_rejected(self, value):
        with pytest.raises(ConfigError, match="faults.p"):
            parse(f"faults.p = {value}\n")

    @pytest.mark.parametrize("key, value", [
        ("cleared", "nan"), ("worsened", "inf"), ("improved", "-inf"), ("unchanged", "nan"),
    ])
    def test_non_finite_reward_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"rewards.{key}"):
            parse(f"rewards.{key} = {value}\n")

    @pytest.mark.parametrize("key, value", [
        ("gamma", "1.5"), ("gamma", "0"), ("gamma", "nan"),
        ("num_episodes", "0"), ("ttis_per_episode", "-2"),
    ])
    def test_bad_episode_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^f\.cfg: episode\.{key} must"):
            parse_config([f"episode.{key} = {value}\n"], source="f.cfg")

    @pytest.mark.parametrize("key, value", [
        ("gamma", 1.0), ("num_episodes", 0), ("ttis_per_episode", 0),
    ])
    def test_episode_config_raises_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"episode.{key}"):
            EpisodeConfig(**{key: value})

    def test_finite_rewards_accepted(self):
        cfg = parse("rewards.cleared = 10\nrewards.worsened = -2.5\n")
        assert (cfg.rewards.cleared, cfg.rewards.worsened) == (10.0, -2.5)

    @pytest.mark.parametrize("line, key", [
        ("run.seeds = -1", "run.seeds"), ("run.seeds = 0,-2", "run.seeds"),
        ("run.seeds = ,", "run.seeds"), ("run.seeds = 1,2,1", "run.seeds"),
        ("run.q = 0", "run.q"), ("run.q = 10,-5", "run.q"), ("run.q = 10,10", "run.q"),
        ("run.agents = ,", "run.agents"), ("run.agents = dqn,fifo,dqn", "run.agents"),
    ])
    def test_bad_run_value_names_the_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse(line + "\n")

    @pytest.mark.parametrize("field, value, key", [
        ("seeds", (0, 0), "run.seeds"), ("seeds", (-1,), "run.seeds"),
        ("seeds", (), "run.seeds"), ("qs", (0,), "run.q"), ("qs", (5, 5), "run.q"),
        ("agents", (), "run.agents"), ("agents", ("fifo", "fifo"), "run.agents"),
    ])
    def test_bad_run_override_names_the_key(self, field, value, key):
        with pytest.raises(ConfigError, match=key):
            replace(default_config(), **{field: value})

    def test_repeated_cli_seed_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--seeds", "0,0", "--episodes", "1", "--out", str(out)]) == 1
        assert "run.seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        (f"cluster.ues_per_cell = {MAX_UES_PER_CELL + 1}", "ues_per_cell"),
        ("cluster.ues_per_cell = " + "9" * 400, "ues_per_cell"),
        (f"run.q = 10,{MAX_UES_PER_CELL + 1}", "run.q"),
        (f"episode.num_episodes = {MAX_EPISODES + 1}", "episode.num_episodes"),
        ("episode.num_episodes = " + "9" * 400, "episode.num_episodes"),
        (f"episode.ttis_per_episode = {MAX_TTIS_PER_EPISODE + 1}", "episode.ttis_per_episode"),
        ("episode.ttis_per_episode = 1000000000000", "episode.ttis_per_episode"),
        (f"ml.hidden_width = {MAX_HIDDEN_WIDTH + 1}", "ml.hidden_width"),
        (f"ml.batch_size = {MAX_BATCH_SIZE + 1}", "ml.batch_size"),
        (f"cluster.sectors_per_site = {MAX_SECTORS_PER_SITE + 1}", "sectors_per_site"),
    ])
    def test_count_past_its_bound_names_the_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse(line + "\n")

    def test_counts_at_their_bounds_accepted(self):
        cfg = parse(f"cluster.ues_per_cell = {MAX_UES_PER_CELL}\nrun.q = {MAX_UES_PER_CELL}\n"
                    f"episode.num_episodes = {MAX_EPISODES}\n"
                    f"episode.ttis_per_episode = {MAX_TTIS_PER_EPISODE}\n"
                    f"ml.hidden_width = {MAX_HIDDEN_WIDTH}\nml.batch_size = {MAX_BATCH_SIZE}\n"
                    f"cluster.sectors_per_site = {MAX_SECTORS_PER_SITE}\n")
        assert cfg.effective_qs() == (MAX_UES_PER_CELL,)
        assert cfg.episode.num_episodes == MAX_EPISODES
        assert cfg.episode.ttis_per_episode == MAX_TTIS_PER_EPISODE
        assert (cfg.ml.hidden_width, cfg.ml.batch_size) == (MAX_HIDDEN_WIDTH, MAX_BATCH_SIZE)
        assert cfg.cluster.sectors_per_site == MAX_SECTORS_PER_SITE

    @pytest.mark.parametrize("out", ["res#1", " res", "res\t", "a\nb", "a\rb", "a\x85b", ""])
    def test_output_dir_the_file_cannot_hold_is_rejected(self, out, capsys):
        with pytest.raises(ConfigError, match="run.output_dir"):
            replace(default_config(), output_dir=out)
        if out:
            assert main(["--out", out, "--dump-effective-config"]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("sonsim: error: run.output_dir")
            assert captured.out == ""

    def test_empty_q_list_means_the_cluster_default(self):
        assert parse("run.q = ,\ncluster.ues_per_cell = 4\n").effective_qs() == (4,)

    def test_uncapped_sinr_and_standing_ues_accepted(self):
        cfg = parse("cluster.sinr_cap = inf\ncluster.ue_speed = 0\n")
        assert cfg.cluster.sinr_cap == float("inf")
        assert cfg.cluster.ue_speed == 0.0
        assert parse(dump_effective_config(cfg)).cluster == cfg.cluster


class TestDump:
    def test_dump_round_trips(self):
        cfg = parse("ml.learning_rate = 0.004\nfaults.p = 5/9,1/9,1/9,1/9,1/9\n"
                    "run.seeds = 0,1,2\ncluster.sinr_cap = 25\n")
        text = dump_effective_config(cfg)
        again = parse(text)
        assert dump_effective_config(again) == text
        assert again.ml.learning_rate == cfg.ml.learning_rate
        assert again.rates == cfg.rates
        assert again.cluster == cfg.cluster
        assert again.episode == cfg.episode
        assert again.rewards == cfg.rewards
        assert again.seeds == cfg.seeds

    def test_dump_of_range_edges_round_trips(self):
        cfg = parse("ml.learning_rate = 1e-300\nml.epsilon_decay = 1\n"
                    "ml.epsilon_min = 0\nml.epsilon = 0\n")
        text = dump_effective_config(cfg)
        again = parse(text)
        assert dump_effective_config(again) == text
        assert again.ml == cfg.ml

    def test_dump_of_defaults_round_trips(self):
        text = dump_effective_config(default_config())
        again = parse(text)
        assert dump_effective_config(again) == text


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


positive = finite(0.0, exclude_min=True)
counts = st.integers(1, 2**63)  # past a float's 53 bits of mantissa
ues_per_cell = st.integers(1, MAX_UES_PER_CELL)
# the largest values of the bounded counts sectors_per_site, hidden_width
# and batch_size
BOUNDS = (MAX_SECTORS_PER_SITE, MAX_HIDDEN_WIDTH, MAX_BATCH_SIZE)


def up_to(bound):
    return st.integers(1, bound) | st.just(bound)


@st.composite
def configs(draw):
    weights = draw(st.lists(finite(0.0, 1.0), min_size=5, max_size=5)
                   | st.lists(finite(0.0, 1.0), min_size=9, max_size=9))
    weights[0] += 1e-3  # the probabilities must sum to 1
    return ExperimentConfig(
        cluster=ClusterConfig(
            inter_site_distance=draw(positive), num_sites=draw(st.integers(1, 7)),
            sectors_per_site=draw(up_to(MAX_SECTORS_PER_SITE)), carrier_freq=draw(positive),
            bandwidth=draw(positive), bs_tx_power=draw(finite()),
            bs_height=draw(positive), ue_height=draw(positive),
            electrical_tilt=draw(finite()), shadow_sigma=draw(finite(0.0)),
            noise_density=draw(finite()), ues_per_cell=draw(ues_per_cell),
            ue_speed=draw(finite(0.0)),
            sinr_cap=draw(finite() | st.just(float("inf"))),
            diversity_gain=draw(finite())),
        rates=FaultRates(tuple(w / sum(weights) for w in weights)),
        rewards=RewardSchedule(*(draw(finite()) for _ in range(4))),
        episode=EpisodeConfig(draw(up_to(MAX_TTIS_PER_EPISODE)),
                              draw(st.integers(1, MAX_EPISODES)),
                              draw(finite(0.0, 1.0, exclude_min=True, exclude_max=True))),
        ml=MlConfig(draw(up_to(MAX_HIDDEN_WIDTH)), draw(positive), draw(up_to(MAX_BATCH_SIZE)),
                    draw(counts),
                    draw(finite(0.0, 1.0)),
                    draw(finite(0.0, 1.0, exclude_min=True)), draw(finite(0.0, 1.0))),
        azimuth_delta=draw(finite()),
        agents=tuple(draw(st.lists(st.sampled_from(KNOWN_AGENTS), min_size=1,
                                   unique=True))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**63), min_size=1, unique=True))),
        qs=tuple(draw(st.lists(ues_per_cell, unique=True))))


def holds_in_the_file(text):
    """Whether a value survives the file format, which has no escape for
    "#", line ends or edge blanks."""
    return bool(text) and "#" not in text and text.splitlines() == [text] \
        and text == text.strip()


class TestDumpProperty:
    @settings(max_examples=200, deadline=None)
    @given(configs(), st.text("abcXYZ019._-/", max_size=20)
           | st.text(st.characters(codec="utf-8"), max_size=8))
    def test_dump_round_trips_any_valid_config(self, cfg, output_dir):
        if not holds_in_the_file(output_dir):
            with pytest.raises(ConfigError, match="run.output_dir"):
                replace(cfg, output_dir=output_dir)
            return
        cfg = replace(cfg, output_dir=output_dir)
        text = dump_effective_config(cfg)
        again = parse(text)
        assert again == replace(cfg, qs=cfg.effective_qs())
        assert dump_effective_config(again) == text


# Config text: known keys (and near misses) with numbers, fractions, lists,
# agent names and free text as values, mixed with comments, blank lines,
# lines without "=" and free text.
KEYS = ([f"{section}.{f.name}" for section, cls in (
            ("cluster", ClusterConfig), ("rewards", RewardSchedule),
            ("episode", EpisodeConfig), ("ml", MlConfig)) for f in fields(cls)]
        + ["faults.p", "faults.azimuth_delta", "run.agents", "run.seeds", "run.q",
           "run.output_dir"])
numbers = (st.sampled_from(["0", "1", "2", "0.5", "1/9", "5/9", "-1", "nan", "inf"])
           | st.integers(-10**30, 10**30).map(str) | st.floats().map(repr)
           | st.integers(0, 5000).map(lambda n: "9" * n)
           | st.sampled_from(sorted({str(b + d) for b in BOUNDS for d in (0, 1)}))
           | st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map("{0[0]}/{0[1]}".format))
values = (numbers | st.lists(numbers, max_size=10).map(",".join)
          | st.lists(st.sampled_from(KNOWN_AGENTS + ("x",)), max_size=4).map(",".join)
          | st.text(max_size=12))
setting = st.tuples(st.sampled_from(KEYS + ["cluster.nope", "nosection", ""]),
                    st.sampled_from(["=", " = "]), values,
                    st.sampled_from(["", "  # note"])).map("".join)
other_line = st.sampled_from(["", "# comment", "no equals sign"]) | st.text(max_size=20)
# settings three times as often as other lines: a line that does not parse
# ends the text's checks there, so texts that reach the checks over the
# whole configuration need few of them
config_text = st.lists(st.one_of(setting, setting, setting, other_line),
                       max_size=5).map("\n".join)


def keys_of(text):
    """The keys of ``text``'s settings, read as the file format reads them."""
    lines = (line.split("#", 1)[0] for line in text.splitlines())
    return {line.partition("=")[0].strip() for line in lines if "=" in line}


class TestParseProperty:
    @settings(max_examples=400, deadline=None)
    @given(config_text)
    @example("faults.p=0")  # once "need 5 or 9 event probabilities", naming no key
    @example("faults.p = 1,1,1,1,1")
    @example(f"ml.hidden_width = {MAX_HIDDEN_WIDTH + 1}")
    @example(f"ml.batch_size = {MAX_BATCH_SIZE + 1}")
    @example(f"cluster.sectors_per_site = {MAX_SECTORS_PER_SITE + 1}")
    @example(f"episode.ttis_per_episode = {MAX_TTIS_PER_EPISODE + 1}")
    def test_text_parses_or_names_the_line_or_key(self, text):
        try:
            cfg = parse(text)
        except ConfigError as exc:
            message = str(exc)
            line = re.match(r"<config>:(\d+): ", message)
            if line:
                assert 1 <= int(line[1]) <= len(text.splitlines())
            else:  # a value the file's lines set together: led by its key
                assert message.startswith("<config>: ")
                named = message.split(" ")[1].rstrip(":")
                assert any(named in (k, k.partition(".")[2]) for k in keys_of(text)), message
        else:
            assert isinstance(cfg, ExperimentConfig)


# CLI values: small numbers, numbers past an index-sized integer, and text
# with no decimal digit (so never a number), joined by commas.  No count
# between 2,000 and 2**63 is drawn, so no example allocates per seed, even
# where the seed count is unbounded.
cli_numbers = (st.integers(-5, 2000) | st.integers(2**63, 10**400)
               | st.integers(-10**400, -5))
cli_values = st.lists(cli_numbers.map(str)
                      | st.text(st.characters(exclude_categories=("Nd",)), max_size=8),
                      min_size=1, max_size=4).map(",".join)
# counts at and past the bounds of --episodes and --ues-per-cell, which
# allocate nothing with --dump-effective-config
cli_counts = cli_values | st.sampled_from(
    [MAX_UES_PER_CELL, MAX_UES_PER_CELL + 1, MAX_EPISODES, MAX_EPISODES + 1]).map(str)


class TestCliProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        "--seeds": cli_values, "--episodes": cli_counts, "--ues-per-cell": cli_counts}))
    def test_overrides_exit_with_a_diagnostic(self, options):
        argv = [f"{name}={value}" for name, value in options.items()]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv + ["--dump-effective-config"])
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2
                assert "usage: sonsim" in err.getvalue()
                return
        if code == 0:
            assert out.getvalue().startswith("# effective configuration")
        else:
            assert code == 1
            assert err.getvalue().startswith("sonsim: error: ")

    @pytest.mark.parametrize("count", ["99999999999999999999999", str(MAX_SEED_COUNT + 1)])
    def test_seed_count_past_the_bound_is_rejected(self, count, capsys):
        assert main(["--seeds", count, "--dump-effective-config"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"sonsim: error: --seeds count must be in 1..{MAX_SEED_COUNT:,}\n"
        assert captured.out == ""
