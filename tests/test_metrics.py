import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonsim import metrics
from sonsim.config import KNOWN_AGENTS
from sonsim.metrics import (EpisodeTrace, RunSummary, ThroughputSummary,
                            clearance_ttis, empirical_cdf, percentile,
                            summarize_run, trace_columns, ue_average_rates,
                            ue_average_sinrs, write_cdf_csv, write_episodes_csv,
                            write_summary_csv, write_trace_csv)
from sonsim.runner import EpisodeResult


def write_traces(path, traces):
    write_trace_csv(path, trace_columns(traces))


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
    def test_no_traces_rejected(self):
        with pytest.raises(ValueError, match="at least one trace"):
            summarize_run([], ttis_per_episode=20)

    @pytest.mark.parametrize("tti", [[1, 1], [2, 1]])
    def test_tti_that_does_not_increase_rejected(self, tti):
        tr = make_trace(0, rates=np.ones((2, 1)), sinrs=np.ones((2, 1)), alarm_counts=[1, 0])
        with pytest.raises(ValueError, match="strictly increasing"):
            replace(tr, tti=np.array(tti))

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
        write_traces(path, [tr])
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


# --- csv.writer transcription of the row-at-a-time writers ------------------

def _fmt_oracle(x):
    return "%.8g" % float(x)


def cdf_csv_oracle(path, samples):
    steps = empirical_cdf(samples)
    v, p = steps[:, 0], steps[:, 1]
    # the fewest digits, at least 8, that print every neighbour pair increasing
    digits = 8
    while any(float("%.*g" % (digits, a)) >= float("%.*g" % (digits, b))
              for a, b in zip(v[:-1], v[1:])):
        digits += 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "probability"])
        for value, prob in zip(v, p):
            writer.writerow(["%.*g" % (digits, value), _fmt_oracle(prob)])


def episodes_csv_oracle(path, episode_results):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "total_reward", "ttis", "cleared"])
        for episode, result in episode_results:
            writer.writerow([episode, _fmt_oracle(result.total_reward),
                             result.ttis, int(result.cleared)])


def summary_csv_oracle(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "q", "peak", "average", "edge",
                         "cell_average", "mean_clearance_ttis"])
        for agent, q, summary in rows:
            tp = summary.throughput
            writer.writerow([agent, q, _fmt_oracle(tp.peak_mbps),
                             _fmt_oracle(tp.average_mbps), _fmt_oracle(tp.edge_mbps),
                             _fmt_oracle(tp.cell_average_mbps),
                             _fmt_oracle(summary.mean_clearance_ttis)])


def row_mean_oracle(row_sinr):
    finite = row_sinr[np.isfinite(row_sinr)]
    return finite.mean() if finite.size else float("nan")


def trace_csv_oracle(path, traces):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "tti", "state", "action", "reward",
                         "alarm_count", "mean_sinr_db"])
        for tr in traces:
            for i in range(len(tr.tti)):
                writer.writerow([tr.episode, int(tr.tti[i]), int(tr.state[i]),
                                 int(tr.action[i]), _fmt_oracle(tr.reward[i]),
                                 int(tr.alarm_count[i]),
                                 _fmt_oracle(row_mean_oracle(tr.sinr_db[i]))])


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0]
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
small_int = st.integers(-10**9, 10**9)


@st.composite
def traces_st(draw):
    traces = []
    for episode in range(draw(st.integers(0, 3))):
        t = draw(st.integers(1, 6))
        n = draw(st.integers(1, 12))
        # whole rows finite or whole rows in outage: the mean of a partial
        # row may differ from the oracle in its last bit (see TestTraceMean)
        rows = [draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
                if draw(st.booleans()) else
                draw(st.lists(st.sampled_from([-math.inf, math.nan]), min_size=n, max_size=n))
                for _ in range(t)]
        ints = st.lists(small_int, min_size=t, max_size=t)
        start = draw(small_int)
        traces.append(EpisodeTrace(
            episode=draw(small_int),
            tti=np.arange(start, start + t),
            state=np.array(draw(ints)),
            action=np.array(draw(ints)),
            reward=np.array(draw(st.lists(any_float, min_size=t, max_size=t))),
            alarm_count=np.array(draw(ints)),
            sinr_db=np.array(rows, dtype=float),
            rate_mbps=np.zeros((t, n)),
            cell_mbps=np.zeros((t, 1))))
    return traces


summaries_st = st.builds(
    RunSummary,
    throughput=st.builds(ThroughputSummary, any_float, any_float, any_float, any_float),
    mean_sinr_db=any_float, mean_clearance_ttis=any_float, cleared_fraction=any_float)


def assert_same_bytes(tmp_path, writer, oracle, arg):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    writer(got, arg)
    oracle(want, arg)
    assert got.read_bytes() == want.read_bytes()


class TestWriterBytes:
    """All four writers give the bytes of the csv.writer transcription
    above, CRLF line ends included."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(any_float, min_size=1, max_size=40), st.integers(0, 5))
    def test_cdf(self, tmp_path_factory, samples, neighbours):
        samples = samples + [float(np.nextafter(x, 0.0)) for x in samples[:neighbours]]
        assert_same_bytes(tmp_path_factory.mktemp("cdf"), write_cdf_csv,
                          cdf_csv_oracle, samples)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cdf_spanning_the_float_range(self, tmp_path):
        # the gap between the two values overflows a float
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, [1.7e308, -1.7e308])
        assert path.read_bytes() == b"value,probability\r\n-1.7e+308,0.5\r\n1.7e+308,1\r\n"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(small_int, st.builds(EpisodeResult, any_float, small_int,
                                                   st.booleans())), max_size=20))
    def test_episodes(self, tmp_path_factory, rows):
        assert_same_bytes(tmp_path_factory.mktemp("episodes"), write_episodes_csv,
                          episodes_csv_oracle, rows)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(KNOWN_AGENTS), small_int, summaries_st),
                    max_size=8))
    def test_summary(self, tmp_path_factory, rows):
        assert_same_bytes(tmp_path_factory.mktemp("summary"), write_summary_csv,
                          summary_csv_oracle, rows)

    @settings(max_examples=150, deadline=None)
    @given(traces_st())
    def test_trace(self, tmp_path_factory, traces):
        assert_same_bytes(tmp_path_factory.mktemp("trace"), write_traces,
                          trace_csv_oracle, traces)


class TestTraceMean:
    """The trace's per-TTI mean over finite SINRs, computed on whole
    episodes, against the per-row mean it replaced."""

    @staticmethod
    def means(sinr_db):
        t, n = sinr_db.shape
        tr = make_trace(0, rates=np.zeros((t, n)), sinrs=sinr_db,
                        alarm_counts=np.zeros(t))
        return metrics.trace_columns([tr])[-1]

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 21, 127, 128, 129, 210, 1050])
    def test_all_finite_rows_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        sinr = rng.normal(8.0, 6.0, (5, n))
        got = self.means(sinr)
        want = np.array([row_mean_oracle(row) for row in sinr])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_with_outages_within_rounding(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 1051))
        sinr = rng.normal(8.0, 6.0, (6, n))
        sinr[rng.random((6, n)) < rng.random((6, 1))] = -np.inf
        sinr[0, :] = -np.inf
        sinr[1, 1:] = -np.inf  # one UE served
        got = self.means(sinr)
        want = np.array([row_mean_oracle(row) for row in sinr])
        assert np.isnan(got[0])
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-15, atol=0)

    def test_all_outage_row_prints_nan(self, tmp_path):
        tr = make_trace(2, rates=np.zeros((2, 3)),
                        sinrs=[[-np.inf, -np.inf, -np.inf], [-np.inf, 4.0, 8.0]],
                        alarm_counts=[1, 0])
        path = tmp_path / "traces_x.csv"
        write_traces(path, [tr])
        rows = path.read_bytes().split(b"\r\n")
        assert rows[1] == b"2,1,0,0,0,1,nan"
        assert rows[2] == b"2,2,0,0,0,0,6"
        assert rows[3] == b""
