import pytest

from sonsim.config import (ConfigError, default_config, dump_effective_config,
                           load_config, parse_config)


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
