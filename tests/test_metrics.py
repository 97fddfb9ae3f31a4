import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonsim.metrics import (EpisodeTrace, clearance_ttis, empirical_cdf,
                            percentile, summarize_run, ue_average_rates,
                            ue_average_sinrs, write_cdf_csv,
                            write_episodes_csv, write_summary_csv,
                            write_trace_csv)
from sonsim.runner import EpisodeResult


def percentile_oracle(samples, p):
    # independent scan: smallest value covering at least p*n of the mass
    ordered = sorted(samples)
    n = len(ordered)
    need = p * n - 1e-9
    for rank, value in enumerate(ordered, start=1):
        if rank >= need:
            return value
    return ordered[-1]


def cdf_oracle(samples):
    ordered = sorted(samples)
    n = len(ordered)
    out = []
    for v in sorted(set(ordered)):
        out.append((v, sum(1 for s in ordered if s <= v) / n))
    return out


def make_trace(episode, rates, sinrs, alarm_counts, cell_rates=None):
    rates = np.asarray(rates, dtype=float)
    sinrs = np.asarray(sinrs, dtype=float)
    t = rates.shape[0]
    if cell_rates is None:
        cell_rates = rates.sum(axis=1, keepdims=True)
    return EpisodeTrace(
        episode=episode,
        tti=np.arange(1, t + 1),
        state=np.zeros(t, dtype=int),
        action=np.zeros(t, dtype=int),
        reward=np.zeros(t),
        alarm_count=np.asarray(alarm_counts, dtype=int),
        sinr_db=sinrs,
        rate_mbps=rates,
        cell_mbps=np.asarray(cell_rates, dtype=float),
    )


class TestEmpiricalCdf:
    def test_basic_steps(self):
        steps = empirical_cdf([1.0, 2.0, 3.0])
        assert steps.shape == (3, 2)
        assert steps[:, 0].tolist() == [1.0, 2.0, 3.0]
        np.testing.assert_allclose(steps[:, 1], [1 / 3, 2 / 3, 1.0], rtol=1e-12)

    def test_all_equal_single_step(self):
        assert empirical_cdf([4.2, 4.2, 4.2]).tolist() == [[4.2, 1.0]]

    def test_standard_normal_median(self):
        rng = np.random.default_rng(0)
        steps = empirical_cdf(rng.normal(size=10_000))
        below = [prob for value, prob in steps if value <= 0.0]
        assert 0.48 <= below[-1] <= 0.52

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        samples = rng.integers(0, 6, size=40).astype(float)
        got = empirical_cdf(samples)
        want = cdf_oracle(samples)
        assert len(got) == len(want)
        for (gv, gp), (wv, wp) in zip(got, want):
            assert gv == wv
            assert gp == pytest.approx(wp, abs=1e-12)


class TestPercentile:
    def test_95th_of_1_to_100(self):
        assert percentile(list(range(1, 101)), 0.95) == 95.0

    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 3.0

    def test_single_sample(self):
        for p in (0.0, 0.3, 0.5, 0.95, 1.0):
            assert percentile([7.5], p) == 7.5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_thousand_random_sets_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            samples = rng.normal(size=n).tolist()
            p = float(rng.random())
            assert percentile(samples, p) == percentile_oracle(samples, p)


class TestSummaries:
    def test_constant_rates_collapse_percentiles(self):
        tr = make_trace(0, rates=np.full((4, 6), 10.0),
                        sinrs=np.full((4, 6), 12.0),
                        alarm_counts=[1, 1, 1, 0])
        s = summarize_run([tr], ttis_per_episode=20)
        assert s.throughput.peak_mbps == 10.0
        assert s.throughput.average_mbps == 10.0
        assert s.throughput.edge_mbps == 10.0
        assert s.mean_sinr_db == 12.0

    def test_never_cleared_episode_scores_budget(self):
        tr = make_trace(0, rates=np.ones((3, 2)), sinrs=np.ones((3, 2)),
                        alarm_counts=[1, 2, 2])
        assert clearance_ttis(tr, ttis_per_episode=20) == 20
        s = summarize_run([tr], ttis_per_episode=20)
        assert s.mean_clearance_ttis == 20.0
        assert s.cleared_fraction == 0.0

    def test_clearance_is_first_zero(self):
        tr = make_trace(0, rates=np.ones((4, 2)), sinrs=np.ones((4, 2)),
                        alarm_counts=[1, 0, 1, 0])
        assert clearance_ttis(tr, 20) == 2

    def test_hand_computed_summary(self):
        # two episodes, two UEs; spreadsheet arithmetic
        tr1 = make_trace(0, rates=[[1.0, 3.0], [2.0, 5.0]],
                         sinrs=[[0.0, 10.0], [4.0, 14.0]],
                         alarm_counts=[1, 0])
        tr2 = make_trace(1, rates=[[4.0, 8.0]],
                         sinrs=[[6.0, 16.0]],
                         alarm_counts=[0])
        s = summarize_run([tr1, tr2], ttis_per_episode=20)
        pooled = [1.5, 4.0, 4.0, 8.0]  # per-UE time averages
        assert s.throughput.average_mbps == pytest.approx(np.mean(pooled))
        assert s.throughput.peak_mbps == 8.0
        assert s.throughput.edge_mbps == 1.5
        assert s.mean_sinr_db == pytest.approx(np.mean([2.0, 12.0, 6.0, 16.0]))
        assert s.throughput.cell_average_mbps == pytest.approx(np.mean([4.0, 7.0, 12.0]))
        assert s.mean_clearance_ttis == pytest.approx(1.5)  # (2 + 1) / 2
        assert s.cleared_fraction == 1.0

    def test_outage_excluded_from_sinr_included_in_rates(self):
        tr = make_trace(0, rates=[[0.0, 2.0]],
                        sinrs=[[-np.inf, 5.0]],
                        alarm_counts=[0])
        assert list(ue_average_rates([tr])) == [0.0, 2.0]
        assert list(ue_average_sinrs([tr])) == [5.0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        traces = [make_trace(i, rates=rng.uniform(0, 5, (3, 4)),
                             sinrs=rng.uniform(-5, 25, (3, 4)),
                             alarm_counts=[1, 1, 0]) for i in range(6)]
        fwd = summarize_run(traces, 20)
        rev = summarize_run(traces[::-1], 20)
        assert fwd == rev

    def test_edge_average_peak_ordering_on_simulated_data(self):
        rng = np.random.default_rng(4)
        traces = [make_trace(i, rates=rng.lognormal(0.5, 0.6, (4, 30)),
                             sinrs=rng.normal(8, 6, (4, 30)),
                             alarm_counts=[1, 1, 1, 0]) for i in range(8)]
        s = summarize_run(traces, 20)
        assert s.throughput.edge_mbps <= s.throughput.average_mbps <= s.throughput.peak_mbps


class TestCsvWriters:
    def test_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf_random.csv"
        write_cdf_csv(path, [1.0, 2.0, 2.0, 5.0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "value,probability"
        assert lines[1] == "1,0.25"
        assert lines[2] == "2,0.75"
        assert lines[3] == "5,1"

    def test_episodes_csv(self, tmp_path):
        path = tmp_path / "episodes_fifo.csv"
        write_episodes_csv(path, [(0, EpisodeResult(4.0, 3, True)),
                                  (1, EpisodeResult(-2.0, 20, False))])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,total_reward,ttis,cleared"
        assert lines[1] == "0,4,3,1"
        assert lines[2] == "1,-2,20,0"

    def test_summary_csv_layout(self, tmp_path):
        tr = make_trace(0, rates=np.full((2, 3), 2.0),
                        sinrs=np.full((2, 3), 9.0), alarm_counts=[1, 0])
        s = summarize_run([tr], 20)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [("dqn", 10, s)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "agent,q,peak,average,edge,cell_average,mean_clearance_ttis"
        assert lines[1].startswith("dqn,10,2,2,2,6,2")

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "cdf_x.csv"
        write_cdf_csv(path, [math.pi])
        assert "3.1415927" in path.read_text()

    def test_cdf_csv_keeps_close_values_distinct(self, tmp_path):
        path = tmp_path / "cdf_x.csv"
        write_cdf_csv(path, [-1.41029791, -1.41029794, 0.5, 0.5, 2.0])
        rows = path.read_text().strip().splitlines()[1:]
        values = [float(row.split(",")[0]) for row in rows]
        assert len(rows) == 4
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_trace_csv(self, tmp_path):
        tr = make_trace(3, rates=[[1.0, 2.0]], sinrs=[[6.0, 10.0]],
                        alarm_counts=[2])
        path = tmp_path / "traces_dqn.csv"
        write_trace_csv(path, [tr])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,tti,state,action,reward,alarm_count,mean_sinr_db"
        assert lines[1] == "3,1,0,0,0,2,8"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_cdf_is_a_distribution_function(samples):
    steps = empirical_cdf(samples)
    values = [v for v, _ in steps]
    probs = [p for _, p in steps]
    assert values == sorted(values)
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert 0.0 < probs[0] <= 1.0
    assert probs[-1] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(0.0, 1.0))
def test_percentile_brackets_sample(samples, p):
    value = percentile(samples, p)
    assert min(samples) <= value <= max(samples)
    assert value == percentile_oracle(samples, p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30),
       st.integers(0, 5))
def test_cdf_csv_prints_strictly_increasing_values(tmp_path_factory, samples, neighbours):
    # add next-door doubles, which need up to 17 digits to print apart
    samples = samples + [float(np.nextafter(x, 0.0)) for x in samples[:neighbours]]
    path = tmp_path_factory.mktemp("cdf") / "cdf_x.csv"
    write_cdf_csv(path, samples)
    rows = [row.split(",") for row in path.read_text().strip().splitlines()[1:]]
    values = [float(v) for v, _ in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert rows[-1][1] == "1"
