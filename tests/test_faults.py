import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonsim.faults import (ALARM_KINDS, FEEDER_LOSS_DB, FaultKind, FaultRates,
                           FaultRegister, apply_fault, clear_fault, derive_cells,
                           paired_alarm, sample_event)
from sonsim.radio import ClusterConfig, build_cluster

BUILT_CELLS, _ = build_cluster(ClusterConfig(ues_per_cell=1), seed=0)
NUM_CELLS = len(BUILT_CELLS)
FAULT_ARRAYS = ("azimuth_offset", "tx_power_delta", "diversity", "is_up")


def snapshot(register):
    return register.counts, register.down_cells


def register_cells(register, azimuth_delta=30.0, healthy=BUILT_CELLS):
    # the cells derive_cells gives for the register as it stands: its one
    # row of (1, C) fault arrays, as a table of (C,) arrays
    cells = derive_cells(healthy, [snapshot(register)], azimuth_delta)
    for name in FAULT_ARRAYS:
        setattr(cells, name, getattr(cells, name)[0])
    return cells


def same_bits(a, b):
    # every array of the two tables the same dtype and bytes
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(vars(a).values(), vars(b).values()))


def cells_oracle(healthy, register, azimuth_delta=30.0):
    # the cells the register describes, written from the fault model's
    # description: the managed cell 0 rotates by the delta per pending
    # drift, loses 3 dB while a feeder fault is pending and its diversity
    # while a diversity loss is; the register's down cells are dark.  With
    # nothing pending a cell keeps its healthy values, +0.0 included.
    counts = dict(zip(ALARM_KINDS, register.counts))
    cells = copy.deepcopy(healthy)
    drifts = counts[FaultKind.AZIMUTH_DRIFT]
    cells.azimuth_offset[0] = drifts * azimuth_delta if drifts else 0.0
    cells.tx_power_delta[0] = -3.0 if counts[FaultKind.FEEDER_FAULT] else 0.0
    cells.diversity[0] = counts[FaultKind.DIVERSITY_LOST] == 0
    for cell in register.down_cells:
        cells.is_up[cell] = False
    return cells


class TestRates:
    def test_defaults(self):
        r = FaultRates()
        assert r.p[0] == pytest.approx(5 / 9)
        assert all(x == pytest.approx(1 / 9) for x in r.p[1:5])
        assert r.p[5:] == (0.0, 0.0, 0.0, 0.0)

    def test_five_values_padded(self):
        r = FaultRates((1.0, 0.0, 0.0, 0.0, 0.0))
        assert len(r.p) == 9

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            FaultRates((0.5, 0.1, 0.1, 0.1, 0.1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FaultRates((1.2, -0.05, -0.05, -0.05, -0.05))


class TestSampleEvent:
    def test_all_normal(self):
        rates = FaultRates((1.0, 0, 0, 0, 0))
        reg = FaultRegister()
        rng = np.random.default_rng(0)
        assert all(sample_event(rates, reg, rng) == FaultKind.NORMAL
                   for _ in range(100))

    def test_inadmissible_clear_degrades_to_normal(self):
        # all mass on the azimuth-restored clear event, empty register
        rates = FaultRates((0, 0, 0, 0, 0, 1.0, 0, 0, 0))
        reg = FaultRegister()
        rng = np.random.default_rng(0)
        assert all(sample_event(rates, reg, rng) == FaultKind.NORMAL
                   for _ in range(100))

    def test_admissible_clear_passes_through(self):
        rates = FaultRates((0, 0, 0, 0, 0, 1.0, 0, 0, 0))
        reg = FaultRegister()
        reg.increment(FaultKind.AZIMUTH_DRIFT)
        rng = np.random.default_rng(0)
        assert sample_event(rates, reg, rng) == FaultKind.AZIMUTH_RESTORED

    def test_default_frequencies(self):
        rates = FaultRates()
        reg = FaultRegister()
        rng = np.random.default_rng(123)
        n = 100_000
        draws = np.array([int(sample_event(rates, reg, rng)) for _ in range(n)])
        for kind in range(1, 5):
            assert (draws == kind).mean() == pytest.approx(1 / 9, abs=0.01)
        assert (draws == 0).mean() == pytest.approx(5 / 9, abs=0.01)


class TestApplyClear:
    def test_feeder_fault(self):
        reg = FaultRegister()
        apply_fault(FaultKind.FEEDER_FAULT, reg, np.random.default_rng(0), NUM_CELLS)
        assert register_cells(reg).tx_power_delta[0] == -3.0
        assert reg.counts == (0, 0, 0, 1)
        assert reg.active_count == 1

    def test_normal_is_noop(self):
        reg = FaultRegister()
        assert not apply_fault(FaultKind.NORMAL, reg, np.random.default_rng(0), NUM_CELLS)
        assert same_bits(register_cells(reg), BUILT_CELLS)
        assert reg.active_count == 0

    def test_clear_event_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_fault(FaultKind.AZIMUTH_RESTORED, FaultRegister(),
                        np.random.default_rng(0), NUM_CELLS)

    @pytest.mark.parametrize("kind", [FaultKind.NORMAL, FaultKind.AZIMUTH_RESTORED])
    def test_clear_of_a_non_alarm_kind_rejected(self, kind):
        reg = FaultRegister()
        apply_fault(FaultKind.AZIMUTH_DRIFT, reg, np.random.default_rng(0), NUM_CELLS)
        with pytest.raises(ValueError, match="alarm kinds 1..4"):
            clear_fault(kind, reg)
        assert reg.counts == (1, 0, 0, 0)

    def test_neighbor_down_twice_hits_two_cells(self):
        reg = FaultRegister()
        rng = np.random.default_rng(1)
        apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, NUM_CELLS)
        apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, NUM_CELLS)
        down = np.flatnonzero(~register_cells(reg).is_up).tolist()
        assert len(down) == 2
        assert 0 not in down  # managed cell never downed
        assert reg.counts[FaultKind.NEIGHBOR_DOWN - 1] == 2
        assert reg.active_count == 1  # one alarm type set

    def test_repeat_feeder_counts_without_compounding(self):
        reg = FaultRegister()
        rng = np.random.default_rng(1)
        apply_fault(FaultKind.FEEDER_FAULT, reg, rng, NUM_CELLS)
        apply_fault(FaultKind.FEEDER_FAULT, reg, rng, NUM_CELLS)
        assert register_cells(reg).tx_power_delta[0] == -3.0
        assert reg.counts[FaultKind.FEEDER_FAULT - 1] == 2

    def test_azimuth_drift_accumulates(self):
        reg = FaultRegister()
        rng = np.random.default_rng(1)
        apply_fault(FaultKind.AZIMUTH_DRIFT, reg, rng, NUM_CELLS)
        apply_fault(FaultKind.AZIMUTH_DRIFT, reg, rng, NUM_CELLS)
        assert register_cells(reg).azimuth_offset[0] == 60.0

    @pytest.mark.parametrize("kind", list(ALARM_KINDS))
    def test_roundtrip_restores_cells(self, kind):
        reg = FaultRegister()
        apply_fault(kind, reg, np.random.default_rng(3), NUM_CELLS)
        assert not same_bits(register_cells(reg), BUILT_CELLS)
        clear_fault(kind, reg)
        assert same_bits(register_cells(reg), BUILT_CELLS)
        assert reg.active_count == 0
        assert reg.counts == (0, 0, 0, 0)

    def test_partial_clear_keeps_bit(self):
        reg = FaultRegister()
        rng = np.random.default_rng(2)
        apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, NUM_CELLS)
        first_down = int(np.flatnonzero(~register_cells(reg).is_up)[0])
        apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, NUM_CELLS)
        clear_fault(FaultKind.NEIGHBOR_DOWN, reg)
        assert reg.counts[FaultKind.NEIGHBOR_DOWN - 1] == 1
        assert reg.is_active(FaultKind.NEIGHBOR_DOWN)
        # oldest outage restored first, the second stays dark
        cells = register_cells(reg)
        assert cells.is_up[first_down]
        assert (~cells.is_up).sum() == 1

    def test_one_clear_of_two_drifts_leaves_one_drift(self):
        reg = FaultRegister()
        rng = np.random.default_rng(1)
        apply_fault(FaultKind.AZIMUTH_DRIFT, reg, rng, NUM_CELLS)
        apply_fault(FaultKind.AZIMUTH_DRIFT, reg, rng, NUM_CELLS)
        clear_fault(FaultKind.AZIMUTH_DRIFT, reg)
        assert register_cells(reg).azimuth_offset[0] == 30.0

    def test_one_clear_of_two_feeder_faults_keeps_the_loss(self):
        reg = FaultRegister()
        rng = np.random.default_rng(1)
        apply_fault(FaultKind.FEEDER_FAULT, reg, rng, NUM_CELLS)
        apply_fault(FaultKind.FEEDER_FAULT, reg, rng, NUM_CELLS)
        clear_fault(FaultKind.FEEDER_FAULT, reg)
        assert register_cells(reg).tx_power_delta[0] == -FEEDER_LOSS_DB

    def test_one_clear_of_two_diversity_losses_keeps_diversity_off(self):
        reg = FaultRegister()
        rng = np.random.default_rng(1)
        apply_fault(FaultKind.DIVERSITY_LOST, reg, rng, NUM_CELLS)
        apply_fault(FaultKind.DIVERSITY_LOST, reg, rng, NUM_CELLS)
        clear_fault(FaultKind.DIVERSITY_LOST, reg)
        assert not register_cells(reg).diversity[0]

    def test_clear_on_empty_register_is_noop(self):
        reg = FaultRegister()
        clear_fault(FaultKind.FEEDER_FAULT, reg)
        assert same_bits(register_cells(reg), BUILT_CELLS)
        assert reg.active_count == 0

    def test_outage_with_every_neighbour_down_is_dropped(self):
        reg = FaultRegister()
        rng = np.random.default_rng(0)
        assert all(apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, NUM_CELLS)
                   for _ in range(NUM_CELLS - 1))
        assert sorted(reg.down_cells) == list(range(1, NUM_CELLS))
        state = rng.bit_generator.state
        assert not apply_fault(FaultKind.NEIGHBOR_DOWN, reg, rng, NUM_CELLS)
        assert rng.bit_generator.state == state  # no draw
        assert reg.counts[FaultKind.NEIGHBOR_DOWN - 1] == NUM_CELLS - 1
        assert register_cells(reg).is_up.tolist() == [True] + [False] * (NUM_CELLS - 1)


class TestPairing:
    def test_paired_alarm(self):
        assert paired_alarm(FaultKind.AZIMUTH_RESTORED) == FaultKind.AZIMUTH_DRIFT
        assert paired_alarm(FaultKind.FEEDER_RESTORED) == FaultKind.FEEDER_FAULT
        with pytest.raises(ValueError):
            paired_alarm(FaultKind.NORMAL)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(range(1, 5))),
                max_size=60),
       st.sampled_from([30.0, 7.5, -45.0, 1e-3]))
def test_register_invariants_under_random_ops(ops, delta):
    reg = FaultRegister()
    rng = np.random.default_rng(0)
    pending = dict.fromkeys(ALARM_KINDS, 0)
    history, want = [], []
    for is_apply, kind in ops:
        kind = FaultKind(kind)
        if is_apply:
            pending[kind] += apply_fault(kind, reg, rng, NUM_CELLS)
        else:
            clear_fault(kind, reg)
            pending[kind] = max(pending[kind] - 1, 0)
        assert reg.counts == tuple(pending.values())
        assert reg.active_count == sum(1 for c in reg.counts if c > 0)
        assert len(reg.down_cells) == reg.counts[FaultKind.NEIGHBOR_DOWN - 1]
        assert len(set(reg.down_cells)) == len(reg.down_cells)
        assert 0 not in reg.down_cells
        assert same_bits(register_cells(reg, delta), cells_oracle(BUILT_CELLS, reg, delta))
        history.append(snapshot(reg))
        want.append(cells_oracle(BUILT_CELLS, reg, delta))
    # one call over the whole history gives every snapshot's cells as a row
    if history:
        cells = derive_cells(BUILT_CELLS, history, delta)
        for name in FAULT_ARRAYS:
            got = getattr(cells, name)
            assert got.shape == (len(history), NUM_CELLS)
            assert got.tobytes() == np.stack([getattr(w, name) for w in want]).tobytes()
    # clearing every pending instance gives back the built cells exactly
    for kind in ALARM_KINDS:
        while reg.is_active(kind):
            clear_fault(kind, reg)
    assert same_bits(register_cells(reg, delta), BUILT_CELLS)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sampler_never_emits_inadmissible_clears(seed):
    rates = FaultRates((0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1))
    reg = FaultRegister()
    rng = np.random.default_rng(seed)
    for _ in range(200):
        ev = sample_event(rates, reg, rng)
        if ev >= FaultKind.AZIMUTH_RESTORED:
            assert reg.is_active(paired_alarm(ev))
            clear_fault(paired_alarm(ev), reg)
        elif ev != FaultKind.NORMAL:
            apply_fault(ev, reg, rng, NUM_CELLS)
