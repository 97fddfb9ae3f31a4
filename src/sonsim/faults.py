"""Stochastic fault/clear events and the per-type alarm register.

Four alarm types afflict the cluster: a wind-drifted sector azimuth, a
neighbour cell outage, a lost transmit-diversity path, and a feeder fault
costing 3 dB of signal.  Events 5..8 are the matching spontaneous clears
(event k clears alarm k-4); they are only admissible while that alarm is
active.  The register keeps one occurrence counter per alarm type; the
type's bit reads as set while its counter is positive.  It is the only
fault state: the environment records a snapshot of it every TTI, and
``derive_cells`` turns a run of snapshots into the cells' fault arrays,
one row per TTI, when the radio needs them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

FEEDER_LOSS_DB = 3.0
DEFAULT_AZIMUTH_DELTA_DEG = 30.0
NUM_ALARM_TYPES = 4
MANAGED_CELL = 0  # the serving cell the agent heals; cell 0 of the centre site


class FaultKind(IntEnum):
    NORMAL = 0
    AZIMUTH_DRIFT = 1
    NEIGHBOR_DOWN = 2
    DIVERSITY_LOST = 3
    FEEDER_FAULT = 4
    AZIMUTH_RESTORED = 5
    NEIGHBOR_RESTORED = 6
    DIVERSITY_RESTORED = 7
    FEEDER_RESTORED = 8


ALARM_KINDS = (FaultKind.AZIMUTH_DRIFT, FaultKind.NEIGHBOR_DOWN,
               FaultKind.DIVERSITY_LOST, FaultKind.FEEDER_FAULT)


def paired_alarm(clear_kind: FaultKind) -> FaultKind:
    """Alarm type a spontaneous clear event acts on."""
    if not FaultKind.AZIMUTH_RESTORED <= clear_kind <= FaultKind.FEEDER_RESTORED:
        raise ValueError(f"{clear_kind!r} is not a clear event")
    return FaultKind(clear_kind - NUM_ALARM_TYPES)


@dataclass
class FaultRates:
    """Categorical event probabilities over the nine event kinds.

    Accepts five probabilities (normal + four faults, clears all zero) or
    the full nine.  Defaults: normal 5/9, each fault 1/9, no spontaneous
    clears.
    """

    p: tuple = (5 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        if len(p) == 5:
            p = p + (0.0,) * 4
        if len(p) != 9:
            raise ValueError("faults.p: need 5 or 9 event probabilities")
        if not all(0.0 <= x <= 1.0 for x in p):  # NaN fails too
            raise ValueError("faults.p: event probabilities must be in [0, 1]")
        if abs(sum(p) - 1.0) > 1e-9:
            raise ValueError(f"faults.p: event probabilities sum to {sum(p)!r}, expected 1")
        self.p = p
        self._cumulative = np.cumsum(np.asarray(p))
        support = [i for i, x in enumerate(p) if x > 0]
        self._last_support = support[-1] if support else 0


class FaultRegister:
    """Occurrence counters per alarm type, plus the order neighbour cells
    went down (so restores bring them back oldest-first); ``apply_fault``
    and ``clear_fault`` write them."""

    def __init__(self):
        self._counts = [0] * (NUM_ALARM_TYPES + 1)  # index by alarm kind 1..4
        self._down_cells: list[int] = []

    def is_active(self, alarm: int) -> bool:
        return self._counts[int(alarm)] > 0

    @property
    def active_count(self) -> int:
        """Number of alarm types currently set (register population count)."""
        return sum(1 for c in self._counts[1:] if c > 0)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(self._counts[1:])

    @property
    def down_cells(self) -> tuple[int, ...]:
        return tuple(self._down_cells)


def sample_event(rates: FaultRates, register: FaultRegister,
                 rng: np.random.Generator) -> FaultKind:
    """Draw one event; inadmissible spontaneous clears degrade to NORMAL."""
    u = rng.random()
    idx = int(np.searchsorted(rates._cumulative, u, side="right"))
    idx = min(idx, rates._last_support)
    kind = FaultKind(idx)
    if kind >= FaultKind.AZIMUTH_RESTORED and not register.is_active(paired_alarm(kind)):
        return FaultKind.NORMAL
    return kind


def derive_cells(cells, history, azimuth_delta: float = DEFAULT_AZIMUTH_DELTA_DEG):
    """The cells under each register snapshot ``(counts, down_cells)`` of
    ``history``: a copy of the healthy ``cells`` whose four fault arrays
    are (T, C), one row per snapshot.  The managed cell turns by
    ``azimuth_delta`` per pending drift, and loses ``FEEDER_LOSS_DB`` while
    a feeder fault is pending and its diversity while a diversity loss is;
    the snapshot's down cells are dark."""
    counts, down_cells = zip(*history)
    drifts, _, losses, feeders = np.array(counts).T
    out = copy.copy(cells)
    shape = (len(history), len(cells))
    out.azimuth_offset = np.zeros(shape)  # += keeps 0 x a negative delta at +0.0
    out.azimuth_offset[:, MANAGED_CELL] += drifts * azimuth_delta
    out.tx_power_delta = np.zeros(shape)
    out.tx_power_delta[feeders > 0, MANAGED_CELL] = -FEEDER_LOSS_DB
    out.diversity = np.ones(shape, dtype=bool)
    out.diversity[:, MANAGED_CELL] = losses == 0
    out.is_up = np.ones(shape, dtype=bool)
    for up, down in zip(out.is_up, down_cells):
        up[list(down)] = False
    return out


def apply_fault(kind: FaultKind, register: FaultRegister,
                rng: np.random.Generator, num_cells: int) -> bool:
    """Count one fault in the register.

    Azimuth drift, diversity loss and feeder faults strike the managed
    (serving) cell; a neighbour outage downs one uniformly chosen up cell
    of the ``num_cells`` other than the managed one.  Returns whether the
    fault actually landed (a neighbour outage with no up neighbour left is
    dropped).
    """
    kind = FaultKind(kind)
    if kind == FaultKind.NORMAL:
        return False
    if kind not in ALARM_KINDS:
        raise ValueError(f"apply_fault takes fault kinds 1..4, got {kind!r}")

    if kind == FaultKind.NEIGHBOR_DOWN:
        down = register.down_cells
        candidates = [c for c in range(num_cells) if c != MANAGED_CELL and c not in down]
        if not candidates:
            return False
        register._down_cells.append(candidates[int(rng.integers(len(candidates)))])
    register._counts[kind] += 1
    return True


def clear_fault(alarm: FaultKind, register: FaultRegister) -> None:
    """Clear one instance of an alarm (the oldest outage, for a neighbour
    outage); clearing an inactive alarm is a legal no-op."""
    alarm = FaultKind(alarm)
    if alarm not in ALARM_KINDS:
        raise ValueError(f"clear_fault takes alarm kinds 1..4, got {alarm!r}")
    if register._counts[alarm] > 0:
        register._counts[alarm] -= 1
        if alarm == FaultKind.NEIGHBOR_DOWN:
            register._down_cells.pop(0)
