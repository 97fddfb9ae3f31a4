import math

import numpy as np
import pytest

from sonsim import radio
from sonsim.faults import FaultKind, FaultRegister, apply_fault
from sonsim.radio import (CellState, ClusterConfig, antenna_gain, build_cluster,
                          compute_sinr_all, compute_throughputs,
                          path_loss_cost231, reassign_serving, rx_power_matrix,
                          site_positions, step_mobility)


def cost231_oracle(d_km, f_mhz, h_b, h_m):
    # straight-line transcription, independent of the implementation
    a_hm = (1.1 * math.log10(f_mhz) - 0.7) * h_m - (1.56 * math.log10(f_mhz) - 0.8)
    return (46.3 + 33.9 * math.log10(f_mhz) - 13.82 * math.log10(h_b) - a_hm
            + (44.9 - 6.55 * math.log10(h_b)) * math.log10(d_km))


class TestPathLoss:
    def test_matches_scripted_oracle(self):
        got = path_loss_cost231(0.1, 2100.0, 25.0, 1.5)
        assert got == pytest.approx(cost231_oracle(0.1, 2100.0, 25.0, 1.5), abs=1e-12)
        assert got == pytest.approx(103.81121049190811, abs=1e-9)

    def test_monotone_in_distance(self):
        assert path_loss_cost231(0.2, 2100, 25, 1.5) > path_loss_cost231(0.1, 2100, 25, 1.5)

    def test_decade_slope_identity(self):
        slope = path_loss_cost231(1.0, 2100, 25, 1.5) - path_loss_cost231(0.1, 2100, 25, 1.5)
        assert slope == pytest.approx(44.9 - 6.55 * math.log10(25.0), abs=1e-12)

    def test_distance_clamped_at_one_metre(self):
        assert path_loss_cost231(1e-9, 2100, 25, 1.5) == path_loss_cost231(1e-3, 2100, 25, 1.5)

    def test_vectorized(self):
        d = np.array([0.1, 0.5, 1.0])
        got = path_loss_cost231(d, 2100, 25, 1.5)
        for i, dk in enumerate(d):
            assert got[i] == pytest.approx(cost231_oracle(dk, 2100, 25, 1.5), abs=1e-12)


class TestAntennaGain:
    def test_boresight(self):
        assert antenna_gain(0.0) == 0.0

    def test_at_beamwidth(self):
        assert antenna_gain(65.0) == pytest.approx(-12.0, abs=1e-12)

    def test_backlobe_floor(self):
        assert antenna_gain(180.0) == pytest.approx(-20.0, abs=1e-12)

    def test_wraps_bearing(self):
        assert antenna_gain(360.0 + 65.0) == pytest.approx(antenna_gain(65.0), abs=1e-12)
        assert antenna_gain(-65.0) == pytest.approx(antenna_gain(65.0), abs=1e-12)


class TestGeometry:
    def test_default_cluster_shape(self):
        cfg = ClusterConfig()
        cells, ues = build_cluster(cfg, seed=1)
        assert len(cells) == 21
        assert len(ues) == 210  # q * num_cells
        azimuths = {c.azimuth for c in cells}
        assert azimuths == {0.0, 120.0, 240.0}

    def test_outer_sites_at_inter_site_distance(self):
        cfg = ClusterConfig()
        sites = site_positions(cfg)
        assert sites[0] == (0.0, 0.0)
        for x, y in sites[1:]:
            assert math.hypot(x, y) == pytest.approx(cfg.inter_site_distance, abs=1e-9)

    def test_degenerate_single_cell(self):
        cfg = ClusterConfig(num_sites=1, sectors_per_site=1, ues_per_cell=1)
        cells, ues = build_cluster(cfg, seed=0)
        assert len(cells) == 1
        assert len(ues) == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(inter_site_distance=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(inter_site_distance=-5.0)
        with pytest.raises(ValueError):
            ClusterConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(ues_per_cell=0)

    def test_build_reproducible(self):
        cfg = ClusterConfig(ues_per_cell=3)
        cells_a, ues_a = build_cluster(cfg, seed=7)
        cells_b, ues_b = build_cluster(cfg, seed=7)
        assert cells_a == cells_b
        for a, b in zip(ues_a, ues_b):
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.shadow_map, b.shadow_map)
            assert a.serving_cell == b.serving_cell

    def test_drop_lands_in_dominance_area(self):
        cfg = ClusterConfig(ues_per_cell=2)
        cells, ues = build_cluster(cfg, seed=3)
        # with zeroed shadowing the serving cell is the geometric best server
        for ue in ues:
            ue.shadow_map = np.zeros(len(cells))
        rx = rx_power_matrix(ues, cells, cfg)
        dropped_in = np.repeat(np.arange(len(cells)), cfg.ues_per_cell)
        assert np.array_equal(rx.argmax(axis=1), dropped_in)


def oracle_point_rx(point, cells, cfg):
    # unshadowed link budget from every cell at one point
    sites = np.array([c.site_position for c in cells], dtype=float)
    boresight = np.array([c.boresight for c in cells], dtype=float)
    delta = np.array([c.tx_power_delta for c in cells], dtype=float)
    dx = point[0] - sites[:, 0]
    dy = point[1] - sites[:, 1]
    gain = antenna_gain(np.degrees(np.arctan2(dy, dx)) - boresight) - cfg.tilt_offset_db
    pl = path_loss_cost231(np.hypot(dx, dy) / 1000.0, cfg.carrier_freq,
                           cfg.bs_height, cfg.ue_height)
    return cfg.bs_tx_power + delta + gain - pl


def scalar_drop_oracle(cfg, rng):
    # one candidate at a time: two uniforms per attempt, accept when the
    # target cell is the strongest unshadowed server, then one heading draw;
    # shadowing follows and every UE attaches to its strongest shadowed cell
    step = 360.0 / cfg.sectors_per_site
    cells = [CellState(cell_id=s * cfg.sectors_per_site + j, site_position=pos,
                       azimuth=j * step)
             for s, pos in enumerate(site_positions(cfg))
             for j in range(cfg.sectors_per_site)]
    radius = cfg.bounding_radius
    positions, headings = [], []
    for cell in cells:
        for _ in range(cfg.ues_per_cell):
            for _attempt in range(100_000):
                r = radius * math.sqrt(rng.random())
                theta = 2.0 * math.pi * rng.random()
                point = np.array([r * math.cos(theta), r * math.sin(theta)])
                if int(oracle_point_rx(point, cells, cfg).argmax()) == cell.cell_id:
                    break
            else:
                raise RuntimeError(f"could not place a UE in cell {cell.cell_id}")
            positions.append(point)
            headings.append(2.0 * math.pi * rng.random())
    shadow = rng.normal(0.0, cfg.shadow_sigma, size=(len(positions), len(cells)))
    rx = np.array([oracle_point_rx(p, cells, cfg) for p in positions]) + shadow
    return np.array(positions), np.array(headings), shadow, rx.argmax(axis=1)


def assert_drop_matches_oracle(cfg, seed):
    _, ues = build_cluster(cfg, seed)
    positions, headings, shadow, serving = scalar_drop_oracle(cfg, np.random.default_rng(seed))
    assert np.array([ue.position for ue in ues]).tobytes() == positions.tobytes()
    assert np.array([ue.heading for ue in ues]).tobytes() == headings.tobytes()
    assert np.array([ue.shadow_map for ue in ues]).tobytes() == shadow.tobytes()
    assert [ue.serving_cell for ue in ues] == serving.tolist()


class TestBatchedDrop:
    def test_block_draw_equals_scalar_draws(self):
        block = np.random.default_rng(3).random(1000)
        rng = np.random.default_rng(3)
        scalar = np.array([rng.random() for _ in range(1000)])
        assert block.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed, q):
        assert_drop_matches_oracle(ClusterConfig(ues_per_cell=q), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_cell_matches_scalar_oracle(self, seed):
        assert_drop_matches_oracle(ClusterConfig(num_sites=1, sectors_per_site=1,
                                                 ues_per_cell=3), seed)

    def test_block_extension_matches_scalar_oracle(self, monkeypatch):
        # a block of one uniform per UE runs out many times per drop
        monkeypatch.setattr(radio, "DROP_DRAWS_PER_UE", 1)
        for seed in (0, 5):
            assert_drop_matches_oracle(ClusterConfig(ues_per_cell=1), seed)

    def test_leaves_generator_where_scalar_sampling_does(self):
        cfg = ClusterConfig(ues_per_cell=2)
        batched = np.random.default_rng(11)
        build_cluster(cfg, batched)
        scalar = np.random.default_rng(11)
        scalar_drop_oracle(cfg, scalar)
        assert batched.random() == scalar.random()

    def test_unplaceable_ue_raises(self, monkeypatch):
        monkeypatch.setattr(radio, "DROP_MAX_ATTEMPTS", 1)
        with pytest.raises(RuntimeError, match="could not place a UE"):
            build_cluster(ClusterConfig(ues_per_cell=1), seed=0)


def single_cell_config(**kw):
    defaults = dict(num_sites=1, sectors_per_site=1, ues_per_cell=1,
                    electrical_tilt=0.0, shadow_sigma=0.0,
                    sinr_cap=float("inf"))
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestSinr:
    def test_single_cell_link_budget_oracle(self):
        cfg = single_cell_config()
        cells, ues = build_cluster(cfg, seed=0)
        ue = ues[0]
        ue.position = np.array([100.0, 0.0])
        reassign_serving(ues, cells, cfg)
        d_km = 0.1
        rx = cfg.bs_tx_power + antenna_gain(0.0) - path_loss_cost231(d_km, cfg.carrier_freq,
                                                                     cfg.bs_height, cfg.ue_height)
        noise = cfg.noise_density + 10 * math.log10(cfg.bandwidth)
        assert compute_sinr_all([ue], cells, cfg)[0] == pytest.approx(rx - noise, abs=1e-9)

    def test_feeder_fault_drops_serving_ue_by_3db(self):
        cfg = ClusterConfig(sinr_cap=float("inf"))
        cells, ues = build_cluster(cfg, seed=2)
        before = compute_sinr_all(ues, cells, cfg)
        register = FaultRegister()
        apply_fault(FaultKind.FEEDER_FAULT, cells, register, np.random.default_rng(0))
        after = compute_sinr_all(ues, cells, cfg)
        serving0 = np.array([ue.serving_cell == 0 for ue in ues])
        assert serving0.any()
        np.testing.assert_allclose(after[serving0] - before[serving0], -3.0, atol=1e-9)
        # everyone else sees less interference, never less SINR
        assert np.all(after[~serving0] >= before[~serving0])

    def test_diversity_loss_penalty(self):
        cfg = single_cell_config()
        cells, ues = build_cluster(cfg, seed=0)
        before = compute_sinr_all([ues[0]], cells, cfg)[0]
        cells[0].diversity_enabled = False
        after = compute_sinr_all([ues[0]], cells, cfg)[0]
        assert after == pytest.approx(before - cfg.diversity_gain, abs=1e-12)

    def test_all_cells_down_is_outage(self):
        cfg = single_cell_config()
        cells, ues = build_cluster(cfg, seed=0)
        cells[0].is_up = False
        reassign_serving(ues, cells, cfg)
        assert ues[0].serving_cell == -1
        assert compute_sinr_all([ues[0]], cells, cfg)[0] == float("-inf")
        ue_mbps, cell_mbps = compute_throughputs(ues, cells, cfg,
                                                 compute_sinr_all(ues, cells, cfg))
        assert ue_mbps[0] == 0.0

    def test_cap_applies(self):
        cfg = single_cell_config(sinr_cap=10.0)
        cells, ues = build_cluster(cfg, seed=0)
        ues[0].position = np.array([1.0, 0.0])
        reassign_serving(ues, cells, cfg)
        assert compute_sinr_all([ues[0]], cells, cfg)[0] == 10.0


class TestMobility:
    def test_displacement_magnitude(self):
        cfg = ClusterConfig(ues_per_cell=1)
        cells, ues = build_cluster(cfg, seed=5)
        ue = ues[0]
        ue.position = np.array([10.0, 10.0])  # far from the boundary
        before = ue.position.copy()
        step_mobility([ue], cells, cfg, np.random.default_rng(0))
        moved = math.hypot(*(ue.position - before))
        assert moved == pytest.approx(3.0 / 3.6 * 1e-3, rel=1e-12)

    def test_zero_speed_keeps_positions(self):
        cfg = ClusterConfig(ues_per_cell=2, ue_speed=0.0)
        cells, ues = build_cluster(cfg, seed=5)
        before = [ue.position.copy() for ue in ues]
        step_mobility(ues, cells, cfg, np.random.default_rng(0))
        for ue, pos in zip(ues, before):
            assert np.array_equal(ue.position, pos)

    def test_reflection_keeps_ues_inside(self):
        cfg = ClusterConfig(ues_per_cell=2, ue_speed=5000.0)  # huge steps
        cells, ues = build_cluster(cfg, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(200):
            step_mobility(ues, cells, cfg, rng)
        for ue in ues:
            assert math.hypot(*ue.position) <= cfg.bounding_radius + 1e-6

    def test_handover_tracks_best_up_cell(self):
        cfg = ClusterConfig()
        cells, ues = build_cluster(cfg, seed=8)
        rng = np.random.default_rng(2)
        cells[4].is_up = False
        cells[11].is_up = False
        step_mobility(ues, cells, cfg, rng)
        rx = rx_power_matrix(ues, cells, cfg)
        up = np.array([c.is_up for c in cells])
        masked = np.where(up[None, :], rx, -np.inf)
        for i, ue in enumerate(ues):
            assert ue.serving_cell == masked[i].argmax()
            assert up[ue.serving_cell]

    def test_down_cell_ues_reassigned(self):
        cfg = ClusterConfig()
        cells, ues = build_cluster(cfg, seed=8)
        victims = [ue for ue in ues if ue.serving_cell == 5]
        assert victims
        cells[5].is_up = False
        reassign_serving(ues, cells, cfg)
        assert all(ue.serving_cell != 5 for ue in ues)


class TestThroughput:
    def test_closed_form_single_ue(self):
        cfg = single_cell_config()
        cells, ues = build_cluster(cfg, seed=0)
        sinr = np.array([0.0])  # 0 dB
        ue_mbps, cell_mbps = compute_throughputs(ues, cells, cfg, sinr)
        assert ue_mbps[0] == pytest.approx(10.0, rel=1e-12)
        assert cell_mbps[0] == pytest.approx(10.0, rel=1e-12)

    def test_outage_rate_zero(self):
        cfg = single_cell_config()
        cells, ues = build_cluster(cfg, seed=0)
        ue_mbps, _ = compute_throughputs(ues, cells, cfg, np.array([-np.inf]))
        assert ue_mbps[0] == 0.0

    def test_equal_share_halves_with_double_load(self):
        cfg = ClusterConfig(num_sites=1, sectors_per_site=1, ues_per_cell=2,
                            electrical_tilt=0.0, shadow_sigma=0.0)
        cells, ues = build_cluster(cfg, seed=1)
        sinr = np.array([3.0, 7.0])
        both_mbps, both_cell = compute_throughputs(ues, cells, cfg, sinr)
        solo_mbps, _ = compute_throughputs([ues[0]], cells, cfg, sinr[:1])
        assert both_mbps[0] == pytest.approx(solo_mbps[0] / 2.0, rel=1e-12)
        assert both_cell[0] == pytest.approx(both_mbps.sum(), rel=1e-12)

    def test_cell_sum_invariant(self):
        cfg = ClusterConfig()
        cells, ues = build_cluster(cfg, seed=4)
        sinr = compute_sinr_all(ues, cells, cfg)
        ue_mbps, cell_mbps = compute_throughputs(ues, cells, cfg, sinr)
        per_cell = np.zeros(len(cells))
        for ue, r in zip(ues, ue_mbps):
            per_cell[ue.serving_cell] += r
        np.testing.assert_allclose(cell_mbps, per_cell, atol=1e-9)
