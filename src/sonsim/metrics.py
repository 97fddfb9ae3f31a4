"""Performance reporting: empirical CDFs, nearest-rank percentiles,
throughput/SINR summaries and the fixed-layout CSV outputs.

A UE on a down serving cell (outage, which a run never has) gets -inf SINR,
as does one whose signal underflows to zero under an extreme config; such
UEs enter throughput statistics at 0 Mbps and are left out of SINR
statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

FLOAT_FORMAT = "%.8g"  # at least 6 significant digits in every CSV
CSV_BLOCK_ROWS = 512  # rows formatted per "%"; larger blocks are no faster


@dataclass
class EpisodeTrace:
    """Per-TTI log of one episode."""

    episode: int
    tti: np.ndarray          # (T,) 1-based TTI index
    state: np.ndarray        # (T,) control state the action was taken in
    action: np.ndarray       # (T,)
    reward: np.ndarray       # (T,)
    alarm_count: np.ndarray  # (T,) register population after the TTI
    sinr_db: np.ndarray | None = None    # (T, N), from the radio pass
    rate_mbps: np.ndarray | None = None  # (T, N)
    cell_mbps: np.ndarray | None = None  # (T, C)

    def __post_init__(self):
        if len(self.tti) and np.any(np.diff(self.tti) <= 0):
            raise ValueError("tti column must be strictly increasing")


@dataclass
class ThroughputSummary:
    peak_mbps: float       # 95th percentile of per-UE average throughput
    average_mbps: float    # mean of per-UE average throughput
    edge_mbps: float       # 5th percentile
    cell_average_mbps: float


@dataclass
class RunSummary:
    throughput: ThroughputSummary
    mean_sinr_db: float
    mean_clearance_ttis: float
    cleared_fraction: float


def empirical_cdf(samples) -> np.ndarray:
    """Empirical distribution function as a (K, 2) array of (value,
    cumulative probability) rows over the K distinct sorted values; the
    last probability is 1."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise ValueError("empirical_cdf needs at least one sample")
    values, counts = np.unique(arr, return_counts=True)
    cum = np.cumsum(counts) / arr.size
    return np.column_stack([values, cum])


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample value whose rank is at
    least p * n (a tiny slack absorbs binary rounding in p * n)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise ValueError("percentile needs at least one sample")
    rank = max(1, math.ceil(p * arr.size - 1e-9))
    return float(arr[rank - 1])


def ue_average_rates(traces) -> np.ndarray:
    """Per-UE time-averaged throughput, pooled over all traces."""
    return np.concatenate([tr.rate_mbps.mean(axis=0) for tr in traces])


def _finite_mean(sinr_db: np.ndarray, axis: int) -> np.ndarray:
    """Mean over the finite entries along ``axis``; NaN where there is none."""
    finite = np.isfinite(sinr_db)
    with np.errstate(invalid="ignore"):
        return np.where(finite, sinr_db, 0.0).sum(axis=axis) / finite.sum(axis=axis)


def ue_average_sinrs(traces) -> np.ndarray:
    """Per-UE time-averaged SINR over finite TTIs, pooled over all traces;
    UEs with no finite sample (never served) are dropped."""
    means = np.concatenate([_finite_mean(tr.sinr_db, axis=0) for tr in traces])
    return means[~np.isnan(means)]


def clearance_ttis(trace: EpisodeTrace, ttis_per_episode: int) -> int:
    """First TTI with an empty register; the episode budget if never."""
    zeros = np.nonzero(trace.alarm_count == 0)[0]
    if zeros.size == 0:
        return ttis_per_episode
    return int(trace.tti[zeros[0]])


def summarize_run(traces, ttis_per_episode: int) -> RunSummary:
    """Pool per-UE time averages over the given traces and compute the
    throughput percentiles, mean SINR and alarm-clearance statistics."""
    if not traces:
        raise ValueError("summarize_run needs at least one trace")
    rates = ue_average_rates(traces)
    sinrs = ue_average_sinrs(traces)
    cell_means = np.concatenate([tr.cell_mbps.ravel() for tr in traces])

    clear = np.array([clearance_ttis(tr, ttis_per_episode) for tr in traces], dtype=float)
    cleared = np.array([bool(np.any(tr.alarm_count == 0)) for tr in traces])

    summary = ThroughputSummary(
        peak_mbps=percentile(rates, 0.95),
        average_mbps=float(rates.mean()),
        edge_mbps=percentile(rates, 0.05),
        cell_average_mbps=float(cell_means.mean()),
    )
    return RunSummary(
        throughput=summary,
        mean_sinr_db=float(sinrs.mean()) if sinrs.size else float("nan"),
        mean_clearance_ttis=float(clear.mean()),
        cleared_fraction=float(cleared.mean()),
    )


def _write_csv(path, header: str, row_format: str, columns) -> None:
    """Write ``header``, then ``row_format`` filled from each row of
    ``columns``, equal-length arrays or lists; lines end in CRLF, as
    ``csv.writer`` ends them.  Each block of ``CSV_BLOCK_ROWS`` rows is one
    ``%`` over the block's values, which become Python objects a block at
    a time: whole columns of them would raise a run's peak memory."""
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            block = [c[lo:lo + CSV_BLOCK_ROWS] for c in columns]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            fh.write((row_format + "\r\n") * len(block[0])
                     % tuple(itertools.chain.from_iterable(zip(*block))))


def write_cdf_csv(path, samples) -> None:
    """cdf_<agent>.csv: value, probability.  Values print with the fewest
    significant digits, at least 8, that keep them strictly increasing."""
    steps = empirical_cdf(samples)
    v, p = steps[:, 0], steps[:, 1]
    # neighbours print alike at 8+ digits only when closer than a relative
    # ~1e-7; the gap is taken between halves, which cannot overflow
    near = np.flatnonzero(np.diff(v / 2) <= 1e-7 * np.maximum(abs(v[:-1]), abs(v[1:])))
    digits = 8  # 17 always suffices
    while any(float("%.*g" % (digits, v[i])) >= float("%.*g" % (digits, v[i + 1]))
              for i in near):
        digits += 1
    _write_csv(path, "value,probability", f"%.{digits}g,{FLOAT_FORMAT}", (v, p))


def write_episodes_csv(path, episode_results) -> None:
    """episodes_<agent>.csv: episode, total_reward, ttis, cleared."""
    _write_csv(path, "episode,total_reward,ttis,cleared", f"%s,{FLOAT_FORMAT},%s,%d",
               list(zip(*((episode, result.total_reward, result.ttis, result.cleared)
                          for episode, result in episode_results))))


def write_summary_csv(path, rows) -> None:
    """summary.csv: agent, q, peak, average, edge, cell_average,
    mean_clearance_ttis.  ``rows`` holds (agent, q, RunSummary)."""
    _write_csv(path, "agent,q,peak,average,edge,cell_average,mean_clearance_ttis",
               "%s,%s" + f",{FLOAT_FORMAT}" * 5,
               list(zip(*((agent, q, s.throughput.peak_mbps, s.throughput.average_mbps,
                           s.throughput.edge_mbps, s.throughput.cell_average_mbps,
                           s.mean_clearance_ttis) for agent, q, s in rows))))


def trace_columns(traces) -> list[np.ndarray]:
    """The columns of ``write_trace_csv``: one row per TTI of ``traces``,
    with the TTI's mean over its finite UE SINRs."""
    return [np.concatenate(c) for c in zip(*(
        (np.full(len(tr.tti), tr.episode), tr.tti, tr.state, tr.action, tr.reward,
         tr.alarm_count, _finite_mean(tr.sinr_db, axis=1)) for tr in traces))]


def write_trace_csv(path, columns) -> None:
    """traces_<agent>.csv: one row per TTI with the mean UE SINR, from
    ``columns``, the traces' ``trace_columns``."""
    _write_csv(path, "episode,tti,state,action,reward,alarm_count,mean_sinr_db",
               f"%s,%d,%d,%d,{FLOAT_FORMAT},%d,{FLOAT_FORMAT}", columns)
