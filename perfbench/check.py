"""Output checker for one repeat of a benchmark workload.

Every check recomputes a property of the run's CSVs by a rule written
out here, independently of sonsim's own code (only the weight loader and
the CDF writer are the program's, because calling them is what is
checked).  No check compares against stored output.  Problems are reported per
(agent, q, seed); a problem in a file pooled over seeds marks every seed
of that (agent, q).

CDF values must strictly increase.  Two rows that print the same value
are the one exception: they are distinct samples that the CSV's ``%.8g``
rounded together, a known fault of ``metrics.write_cdf_csv`` that shows
on some seeds only, so they are counted as ``cdf_print_ties`` instead of
failing the run.  ``check_cdf_writer`` checks the writer itself on every
repeat, on a fixed input: there the fault fails every time, and a writer
that stopped merging equal samples (which would also give equal printed
values) fails as well.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# The reward rule and state-transition rule, transcribed from the paper's
# description rather than imported: +5 when the register empties, +1 when
# fewer alarm types are set, 0 when as many, -1 when more.
CLEARED, IMPROVED, UNCHANGED, WORSENED = 5.0, 1.0, 0.0, -1.0
TRANSIENT, INCREASED, DECREASED = 0, 1, 2
NUM_ACTIONS = 5
DQN_LAYERS = (3, 24, 24, 5)


def expected_reward(prev: int, cur: int) -> float:
    if cur == 0:
        return CLEARED
    if cur < prev:
        return IMPROVED
    if cur == prev:
        return UNCHANGED
    return WORSENED


def next_state(state: int, prev: int, cur: int) -> int:
    if cur > prev:
        return INCREASED
    if cur < prev:
        return DECREASED
    return state


# A fixed input for sonsim's CDF writer, the same on every seed: two
# distinct values that agree to eight significant digits, and one value
# drawn twice.
CDF_SAMPLES = (-1.41029791, -1.41029794, 0.5, 0.5, 2.0)
# The operation that fails every time on the current code because of the
# known fault; its failure counts in ``failed`` but leaves ``correct`` true.
KNOWN_FAULT = "cdf.keeps_distinct_values"


def check_cdf_writer(write_cdf_csv, path: Path) -> dict:
    """Two operations on CDF_SAMPLES: {name: problem or None}."""
    try:
        write_cdf_csv(path, list(CDF_SAMPLES))
        rows = _rows(path, ["value", "probability"])
    except Exception as exc:  # the program under test; a raise fails both
        msg = f"write_cdf_csv: {exc!r}"
        return {"cdf.merges_duplicates": msg, "cdf.keeps_distinct_values": msg}
    values = [float(r[0]) for r in rows]
    merged = None if values.count(0.5) == 1 and len(rows) == 4 else (
        f"{len(rows)} rows for 4 distinct values, {values.count(0.5)} of them 0.5")
    texts = [r[0] for r in rows]
    distinct = None if len(set(texts)) == len(texts) else (
        f"distinct values printed alike: {texts}")
    return {"cdf.merges_duplicates": merged, "cdf.keeps_distinct_values": distinct}


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def cell_dir(out: Path, q: int, qs) -> Path:
    return out if len(qs) == 1 else out / f"q{q}"


def split_episodes(trace_rows):
    """Cut the pooled trace into episodes at each TTI 1."""
    episodes = []
    for row in trace_rows:
        if int(row[1]) == 1:
            episodes.append([])
        if not episodes:
            raise ValueError("traces do not start at TTI 1")
        episodes[-1].append(row)
    return episodes


def check_episode(trace, ep_row, ttis_max: int) -> list[str]:
    """Reward, state, TTI and termination rules over one episode."""
    problems = []
    ttis, cleared = int(ep_row[2]), int(ep_row[3])
    if not 1 <= ttis <= ttis_max:
        problems.append(f"ttis {ttis} outside 1..{ttis_max}")
    if cleared == 0 and ttis != ttis_max:
        problems.append(f"uncleared episode ended after {ttis} TTIs")
    if len(trace) != ttis:
        problems.append(f"{len(trace)} trace rows for {ttis} TTIs")
    prev, state, total = 0, TRANSIENT, 0.0
    for k, row in enumerate(trace, start=1):
        tti, st, action, reward, count = (int(row[1]), int(row[2]), int(row[3]),
                                          float(row[4]), int(row[5]))
        if tti != k:
            problems.append(f"tti {tti} at row {k}")
        if st != state:
            problems.append(f"tti {k}: state {st}, rule gives {state}")
        if not 0 <= action < NUM_ACTIONS:
            problems.append(f"tti {k}: action {action}")
        if reward != expected_reward(prev, count):
            problems.append(f"tti {k}: reward {reward}, rule gives "
                            f"{expected_reward(prev, count)}")
        if count == 0 and k != len(trace):
            problems.append(f"tti {k}: register empty before the episode ended")
        total += reward
        state = next_state(state, prev, count)
        prev = count
    if total != float(ep_row[1]):
        problems.append(f"rewards sum to {total}, episode log says {ep_row[1]}")
    if trace and (int(trace[-1][5]) == 0) != bool(cleared):
        problems.append("cleared flag disagrees with the last alarm count")
    return problems


def clearance(trace, ttis_max: int) -> int:
    for row in trace:
        if int(row[5]) == 0:
            return int(row[1])
    return ttis_max


def check_outputs(out: Path, cfg, load_params) -> dict:
    """Check one run_experiment output directory against ``cfg``.

    Returns {"problems": {(agent, q, seed): [problem, ...]}, "ue_ttis":
    simulated UE-TTIs, "cdf_print_ties": CDF rows whose printed value
    repeats the row before}.
    """
    out = Path(out)
    qs, seeds = cfg.effective_qs(), cfg.seeds
    n_ep = cfg.episode.num_episodes
    ttis_max = cfg.episode.ttis_per_episode
    cap = cfg.cluster.sinr_cap
    rate_cap = cfg.cluster.bandwidth / 1e6 * math.log2(1.0 + 10.0 ** (cap / 10.0))
    never_clears = cfg.rates.p[0] == 0.0 and not any(cfg.rates.p[5:])
    problems: dict = {}
    ue_ttis = print_ties = 0

    def flag(agent, q, seed, msg):
        for s in (seeds if seed is None else (seed,)):
            problems.setdefault((agent, q, s), []).append(msg)

    summary = {}
    try:
        for row in _rows(out / "summary.csv", ["agent", "q", "peak", "average", "edge",
                                                "cell_average", "mean_clearance_ttis"]):
            summary[(row[0], int(row[1]))] = [float(x) for x in row[2:]]
    except (OSError, ValueError) as exc:
        for agent in cfg.agents:
            for q in qs:
                flag(agent, q, None, f"summary.csv: {exc}")
        return {"problems": problems, "ue_ttis": 0, "cdf_print_ties": 0}

    for q in qs:
        d = cell_dir(out, q, qs)
        for agent in cfg.agents:
            try:
                ep_rows = _rows(d / f"episodes_{agent}.csv",
                                ["episode", "total_reward", "ttis", "cleared"])
                tr_rows = _rows(d / f"traces_{agent}.csv",
                                ["episode", "tti", "state", "action", "reward",
                                 "alarm_count", "mean_sinr_db"])
                cdf_rows = _rows(d / f"cdf_{agent}.csv", ["value", "probability"])
                traces = split_episodes(tr_rows)
            except (OSError, ValueError, IndexError) as exc:
                flag(agent, q, None, str(exc))
                continue
            if len(ep_rows) != n_ep * len(seeds) or len(traces) != len(ep_rows):
                flag(agent, q, None, f"{len(ep_rows)} episode rows and {len(traces)} "
                                     f"traced episodes, expected {n_ep * len(seeds)}")
                continue

            for k, (ep_row, trace) in enumerate(zip(ep_rows, traces)):
                seed = seeds[k // n_ep]
                issues = check_episode(trace, ep_row, ttis_max)
                if int(ep_row[0]) != k % n_ep or any(int(r[0]) != k % n_ep for r in trace):
                    issues.append(f"episode index {ep_row[0]} at position {k % n_ep}")
                if any(float(r[6]) > cap for r in trace):
                    issues.append(f"mean SINR above the {cap} dB cap")
                if never_clears and agent in ("random", "fifo") and (
                        int(ep_row[2]) != ttis_max or int(ep_row[3]) != 0):
                    issues.append("a fault every TTI, yet the register emptied")
                for msg in issues:
                    flag(agent, q, seed, f"episode {k % n_ep}: {msg}")
                ue_ttis += int(ep_row[2]) * cfg.cluster.num_cells * q

            values = [float(r[0]) for r in cdf_rows]
            probs = [float(r[1]) for r in cdf_rows]
            if not values or probs[-1] != 1.0:
                flag(agent, q, None, "CDF does not end at probability 1")
            if any(b <= a for a, b in zip(probs, probs[1:])):
                flag(agent, q, None, "CDF probabilities not strictly increasing")
            for a, b in zip(cdf_rows, cdf_rows[1:]):
                if float(b[0]) > float(a[0]):
                    continue
                if a[0] == b[0]:
                    print_ties += 1
                else:
                    flag(agent, q, None, f"CDF value {b[0]} after {a[0]}")
                    break
            if values and values[-1] > cap:
                flag(agent, q, None, f"CDF SINR {values[-1]} above the {cap} dB cap")

            row = summary.get((agent, q))
            if row is None:
                flag(agent, q, None, "no summary.csv row")
            else:
                peak, _, edge, _, clear_mean = row
                if not edge <= peak <= rate_cap:
                    flag(agent, q, None, f"edge {edge} <= peak {peak} <= {rate_cap:.6g} fails")
                expect = sum(clearance(t, ttis_max) for t in traces) / len(traces)
                if not math.isclose(clear_mean, expect, rel_tol=1e-7):
                    flag(agent, q, None, f"mean_clearance_ttis {clear_mean}, traces give {expect}")

            if agent == "dqn":
                for seed in seeds:
                    try:
                        params = load_params(d / f"weights_dqn_seed{seed}.txt")
                        sizes = (params[0].shape[0],) + tuple(w.shape[1] for w in params[0::2])
                        if sizes != DQN_LAYERS:
                            flag(agent, q, seed, f"weights have layer sizes {sizes}")
                        elif not all(bool((abs(p) < math.inf).all()) for p in params):
                            flag(agent, q, seed, "weights are not finite")
                    except (OSError, ValueError) as exc:
                        flag(agent, q, seed, f"weights: {exc}")
    return {"problems": problems, "ue_ttis": ue_ttis, "cdf_print_ties": print_ties}


def output_files(out: Path) -> dict:
    """Bytes of every deterministic output file; manifest.txt carries a
    timestamp and is left out."""
    out = Path(out)
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.txt"}


def owners(relpath: str, cfg):
    """The (agent, q) cells an output file belongs to."""
    qs = cfg.effective_qs()
    parts = Path(relpath).parts
    q = int(parts[0][1:]) if len(parts) > 1 else qs[0]
    stem = Path(parts[-1]).stem
    agents = [a for a in cfg.agents if stem.endswith("_" + a) or stem.startswith(f"weights_{a}")]
    if not agents:  # summary.csv and effective_config.txt pool every cell
        return [(a, qq) for a in cfg.agents for qq in qs]
    return [(a, q) for a in agents]
