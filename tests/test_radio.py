import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_faults import register_cells, same_bits

from sonsim import radio
from sonsim.faults import FaultKind, FaultRegister, apply_fault
from sonsim.radio import (CellTable, ClusterConfig, antenna_gain, build_cluster,
                          compute_sinr_all, compute_throughputs,
                          path_loss_cost231, reassign_serving, rx_power_matrix,
                          site_positions, step_mobility)


def cost231_oracle(d_km, f_mhz, h_b, h_m):
    # straight-line transcription, independent of the implementation
    a_hm = (1.1 * math.log10(f_mhz) - 0.7) * h_m - (1.56 * math.log10(f_mhz) - 0.8)
    return (46.3 + 33.9 * math.log10(f_mhz) - 13.82 * math.log10(h_b) - a_hm
            + (44.9 - 6.55 * math.log10(h_b)) * math.log10(d_km))


def default_path_loss(d_km):
    # one distance through the array function, at the default link budget
    return path_loss_cost231(np.array([d_km]), 2100.0, 25.0, 1.5)[0]


class TestPathLoss:
    def test_matches_scripted_oracle(self):
        got = default_path_loss(0.1)
        assert got == pytest.approx(cost231_oracle(0.1, 2100.0, 25.0, 1.5), abs=1e-12)
        assert got == pytest.approx(103.81121049190811, abs=1e-9)

    def test_monotone_in_distance(self):
        assert default_path_loss(0.2) > default_path_loss(0.1)

    def test_decade_slope_identity(self):
        slope = default_path_loss(1.0) - default_path_loss(0.1)
        assert slope == pytest.approx(44.9 - 6.55 * math.log10(25.0), abs=1e-12)

    def test_distance_clamped_at_one_metre(self):
        assert default_path_loss(1e-9) == default_path_loss(1e-3)

    def test_vectorized(self):
        d = np.array([0.1, 0.5, 1.0])
        got = path_loss_cost231(d, 2100, 25, 1.5)
        for i, dk in enumerate(d):
            assert got[i] == pytest.approx(cost231_oracle(dk, 2100, 25, 1.5), abs=1e-12)


def mod_wrap_gain(bearing_offset_deg):
    # the sector pattern with the bearing wrapped by numpy's float mod, on a
    # 1-d array; it squares with np.square, as the power operator on a numpy
    # scalar calls libm pow, which can be 1 ulp off
    off = (np.asarray(bearing_offset_deg, dtype=float) + 180.0) % 360.0 - 180.0
    return -np.minimum(12.0 * np.square(off / radio.HORIZ_BEAMWIDTH_DEG),
                       radio.PATTERN_FLOOR_DB)


def gain(bearing_offset_deg):
    # one bearing through the array function
    return antenna_gain(np.array([bearing_offset_deg]))[0]


# wrap edges: signed zeros, +-180, +-540, multiples of 360 and their neighbours
_EDGES = [0.0, 180.0, 540.0] + [360.0 * k for k in (1, 2, 3, 1000, 2_777_777)]
_EDGES = [e for v in _EDGES for e in (v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf))]
bearings = st.one_of(
    st.floats(-1e9, 1e9, allow_nan=False),
    st.floats(-1000.0, 1000.0),  # the link budget's range, drifts included
    st.sampled_from([s * e for e in _EDGES for s in (1.0, -1.0)]),
    st.integers(-2_777_777, 2_777_777).map(lambda k: 360.0 * k),
)


class TestAntennaGain:
    def test_boresight(self):
        assert gain(0.0) == 0.0

    def test_at_beamwidth(self):
        assert gain(65.0) == pytest.approx(-12.0, abs=1e-12)

    def test_backlobe_floor(self):
        assert gain(180.0) == pytest.approx(-20.0, abs=1e-12)

    def test_wraps_bearing(self):
        assert gain(360.0 + 65.0) == pytest.approx(gain(65.0), abs=1e-12)
        assert gain(-65.0) == pytest.approx(gain(65.0), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(bearings, max_size=40))
    def test_matches_mod_wrap_bit_for_bit(self, values):
        x = np.array(values, dtype=float)
        got = antenna_gain(x)
        assert got.tobytes() == mod_wrap_gain(x).tobytes()
        for v, g in zip(x, got):  # each value alone gives the same bits
            one = np.array([v])
            assert antenna_gain(one).tobytes() == g.tobytes() == mod_wrap_gain(one).tobytes()


class TestGeometry:
    def test_default_cluster_shape(self):
        cfg = ClusterConfig()
        cells, ues = build_cluster(cfg, seed=1)
        assert len(cells) == 21
        assert len(ues) == 210  # q * num_cells
        assert set(cells.azimuth.tolist()) == {0.0, 120.0, 240.0}
        assert cells.site.tolist() == [s for s in range(7) for _ in range(3)]

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

    @pytest.mark.parametrize("field", [f.name for f in fields(ClusterConfig)
                                       if f.type == "float"])
    def test_nan_rejected_naming_the_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must not be NaN"):
            ClusterConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field, value", [
        (f.name, sign * math.inf) for f in fields(ClusterConfig) if f.type == "float"
        for sign in (1, -1) if (f.name, sign) != ("sinr_cap", 1)])
    def test_infinity_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("carrier_freq", 0.0), ("carrier_freq", math.inf), ("bs_height", -1.0),
        ("bs_height", math.inf), ("ue_height", 0.0), ("ue_height", -math.inf),
        ("ue_speed", -3.0), ("ue_speed", math.inf),
    ])
    def test_link_budget_inputs_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})

    def test_build_reproducible(self):
        cfg = ClusterConfig(ues_per_cell=3)
        cells_a, ues_a = build_cluster(cfg, seed=7)
        cells_b, ues_b = build_cluster(cfg, seed=7)
        assert same_bits(cells_a, cells_b)
        assert ues_a.tobytes() == ues_b.tobytes()

    def test_drop_lands_in_dominance_area(self):
        cfg = ClusterConfig(ues_per_cell=2)
        cells, ues = build_cluster(cfg, seed=3)
        # with zeroed shadowing the serving cell is the geometric best server
        rx = rx_power_matrix(ues.position, np.zeros((len(ues), len(cells))), cells, cfg)
        dropped_in = np.repeat(np.arange(len(cells)), cfg.ues_per_cell)
        assert np.array_equal(rx.argmax(axis=1), dropped_in)

    def test_table_is_the_read_only_drop(self):
        cells, ues = build_cluster(ClusterConfig(ues_per_cell=2), seed=3)
        assert ues.dtype.names == ("position", "heading")
        with pytest.raises(ValueError, match="read-only"):
            ues.position[0] = 0.0, 0.0
        with pytest.raises(ValueError, match="read-only"):
            ues.heading[:] = 0.0


def drop_with_shadowing(cfg, seed):
    # the drop plus one episode's per-link shadowing, drawn as SonEnv.reset
    # draws it (from a stream of its own)
    cells, ues = build_cluster(cfg, seed)
    shadow = np.random.default_rng(seed).normal(0.0, cfg.shadow_sigma,
                                                size=(len(ues), len(cells)))
    return cells, ues, shadow


def per_cell_rx_oracle(points, cells, cfg):
    # unshadowed link budget from every cell at every point, with distance,
    # bearing and path loss evaluated per cell (its site repeated per
    # sector) and the bearing wrapped by mod
    sites = np.array([cells.sites[s] for s in cells.site], dtype=float)
    boresight = np.array([a + d for a, d in zip(cells.azimuth, cells.azimuth_offset)])
    delta = cells.tx_power_delta
    dx = points[:, None, 0] - sites[None, :, 0]
    dy = points[:, None, 1] - sites[None, :, 1]
    dist_km = np.hypot(dx, dy) / 1000.0
    bearing = np.degrees(np.arctan2(dy, dx))
    gain = mod_wrap_gain(bearing - boresight[None, :]) - cfg.tilt_offset_db
    pl = path_loss_cost231(dist_km, cfg.carrier_freq, cfg.bs_height, cfg.ue_height)
    return cfg.bs_tx_power + delta[None, :] + gain - pl


def disk_points(cfg, n, rng):
    r = cfg.bounding_radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def assert_rx_matches_per_cell(points, cells, cfg):
    got = radio._rx_dbm(points, cells, cfg)
    assert got.shape == (len(points), len(cells))
    assert got.tobytes() == per_cell_rx_oracle(points, cells, cfg).tobytes()


class TestPerSiteRx:
    @pytest.mark.parametrize("seed", range(6))
    def test_faulted_cluster(self, seed):
        cfg = ClusterConfig()
        rng = np.random.default_rng(seed)
        cells = radio._make_cells(cfg)
        for c in range(len(cells)):
            # drifts of up to 25 accumulated 30-degree steps, past 360 degrees
            cells.azimuth_offset[c] = 30.0 * rng.integers(0, 26) + rng.uniform(-1.0, 1.0)
            cells.tx_power_delta[c] = -3.0 if rng.random() < 0.3 else 0.0
        assert cells.azimuth_offset.max() > 360.0
        assert_rx_matches_per_cell(disk_points(cfg, 600, rng), cells, cfg)

    def test_single_cell(self):
        cfg = ClusterConfig(num_sites=1, sectors_per_site=1, ues_per_cell=1)
        cells = CellTable(sites=np.array([[0.0, 0.0]]), site=np.array([0]),
                          azimuth=np.array([0.0]))
        cells.azimuth_offset[0] = 400.0
        assert_rx_matches_per_cell(disk_points(cfg, 100, np.random.default_rng(1)),
                                   cells, cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_cells_with_repeating_sites(self, seed):
        cfg = ClusterConfig()
        rng = np.random.default_rng(seed)
        full = radio._make_cells(cfg)
        keep = rng.permutation(len(full))[:13]
        # the sites listed in a shuffled order too, the cells renumbered to it
        site_order = rng.permutation(len(full.sites))
        cells = CellTable(sites=full.sites[site_order],
                          site=np.argsort(site_order)[full.site[keep]],
                          azimuth=full.azimuth[keep])
        cells.tx_power_delta[:] = -3.0 * (rng.random(len(cells)) < 0.3)
        order = cells.site.tolist()
        assert any(a != b and a in order[i + 2:]
                   for i, (a, b) in enumerate(zip(order, order[1:])))
        assert_rx_matches_per_cell(disk_points(cfg, 300, rng), cells, cfg)

    def test_points_on_sites_use_the_distance_floor(self):
        cfg = ClusterConfig()
        cells = radio._make_cells(cfg)
        points = np.array(site_positions(cfg) + [(0.5, 0.0), (-0.0, 1e-9)])
        assert_rx_matches_per_cell(points, cells, cfg)
        rx = radio._rx_dbm(points[:1], cells, cfg)
        assert rx[0, 0] == cfg.bs_tx_power - cfg.tilt_offset_db - path_loss_cost231(
            1e-3, cfg.carrier_freq, cfg.bs_height, cfg.ue_height)


def scalar_drop_oracle(cfg, rng):
    # one candidate at a time: two uniforms per attempt, accept when the
    # target cell is the strongest unshadowed server, then one heading draw
    step = 360.0 / cfg.sectors_per_site
    sectors = [(s, j * step) for s in range(cfg.num_sites)
               for j in range(cfg.sectors_per_site)]
    cells = CellTable(sites=np.array(site_positions(cfg)),
                      site=np.array([s for s, _ in sectors]),
                      azimuth=np.array([a for _, a in sectors]))
    radius = cfg.bounding_radius
    positions, headings = [], []
    for cell_id in range(len(cells)):
        for _ in range(cfg.ues_per_cell):
            for _attempt in range(100_000):
                r = radius * math.sqrt(rng.random())
                theta = 2.0 * math.pi * rng.random()
                point = np.array([r * math.cos(theta), r * math.sin(theta)])
                if int(per_cell_rx_oracle(point[None], cells, cfg)[0].argmax()) == cell_id:
                    break
            else:
                raise RuntimeError(f"could not place a UE in cell {cell_id}")
            positions.append(point)
            headings.append(2.0 * math.pi * rng.random())
    return np.array(positions), np.array(headings)


def assert_drop_matches_oracle(cfg, seed):
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    _, ues = build_cluster(cfg, batched)
    positions, headings = scalar_drop_oracle(cfg, scalar)
    assert ues.position.tobytes() == positions.tobytes()
    assert ues.heading.tobytes() == headings.tobytes()
    # the drop leaves the stream where one-at-a-time sampling does
    assert batched.normal(size=8).tobytes() == scalar.normal(size=8).tobytes()


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
        cells, _ = build_cluster(cfg, seed=0)
        rx_dbm = rx_power_matrix(np.array([[100.0, 0.0]]), np.zeros((1, 1)), cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        d_km = 0.1
        rx = cfg.bs_tx_power + gain(0.0) - cost231_oracle(d_km, cfg.carrier_freq,
                                                          cfg.bs_height, cfg.ue_height)
        noise = cfg.noise_density + 10 * math.log10(cfg.bandwidth)
        assert compute_sinr_all(serving, rx_dbm, cells, cfg)[0] == pytest.approx(
            rx - noise, abs=1e-9)

    def test_feeder_fault_drops_serving_ue_by_3db(self):
        cfg = ClusterConfig(sinr_cap=float("inf"))
        cells, ues, shadow = drop_with_shadowing(cfg, seed=2)
        rx_dbm = rx_power_matrix(ues.position, shadow, cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        before = compute_sinr_all(serving, rx_dbm, cells, cfg)
        register = FaultRegister()
        apply_fault(FaultKind.FEEDER_FAULT, register, np.random.default_rng(0), len(cells))
        faulted = register_cells(register, healthy=cells)
        after = compute_sinr_all(serving, rx_power_matrix(ues.position, shadow, faulted, cfg),
                                 faulted, cfg)
        serving0 = serving == 0
        assert serving0.any()
        np.testing.assert_allclose(after[serving0] - before[serving0], -3.0, atol=1e-9)
        # everyone else sees less interference, never less SINR
        assert np.all(after[~serving0] >= before[~serving0])

    def test_diversity_loss_penalty(self):
        cfg = single_cell_config()
        cells, ues, shadow = drop_with_shadowing(cfg, seed=0)
        rx_dbm = rx_power_matrix(ues.position, shadow, cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        before = compute_sinr_all(serving, rx_dbm, cells, cfg)[0]
        cells.diversity[0] = False
        after = compute_sinr_all(serving, rx_dbm, cells, cfg)[0]
        assert after == pytest.approx(before - cfg.diversity_gain, abs=1e-12)

    def test_all_cells_down_is_outage(self):
        cfg = single_cell_config()
        cells, ues, shadow = drop_with_shadowing(cfg, seed=0)
        cells.is_up[0] = False
        rx_dbm = rx_power_matrix(ues.position, shadow, cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        assert not cells.is_up[serving[0]]  # served by a down cell
        sinr = compute_sinr_all(serving, rx_dbm, cells, cfg)
        assert sinr[0] == float("-inf")
        ue_mbps, cell_mbps = compute_throughputs(serving, sinr, len(cells), cfg)
        assert ue_mbps[0] == 0.0

    def test_cap_applies(self):
        cfg = single_cell_config(sinr_cap=10.0)
        cells, _ = build_cluster(cfg, seed=0)
        rx_dbm = rx_power_matrix(np.array([[1.0, 0.0]]), np.zeros((1, 1)), cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        assert compute_sinr_all(serving, rx_dbm, cells, cfg)[0] == 10.0


def masked_sinr_oracle(serving, cells, cfg, rx_dbm):
    # SINR as computed when outage was a -1 serving cell: a clip, an ok
    # mask (served, and by an up cell), and boolean gathers of its rows
    lin = np.divide(rx_dbm, 10.0)
    np.power(10.0, lin, out=lin)
    lin *= cells.is_up[..., None, :]
    noise_mw = 10.0 ** (cfg.noise_power_dbm / 10.0)
    sinr = np.full(serving.shape, -np.inf)
    cell = np.clip(serving, 0, len(cells) - 1)
    ok = (serving >= 0) & np.take_along_axis(cells.is_up, cell, axis=-1)
    if ok.any():
        diversity = np.take_along_axis(cells.diversity, cell, axis=-1)[ok]
        cell = cell[ok]
        sig = lin[ok, cell]
        interference = lin[ok].sum(axis=-1) - sig
        with np.errstate(divide="ignore"):
            vals = 10.0 * np.log10(sig / (interference + noise_mw))
        vals = np.where(diversity, vals, vals - cfg.diversity_gain)
        sinr[ok] = np.minimum(vals, cfg.sinr_cap)
    return sinr


def masked_throughput_oracle(serving, n_cells, cfg, sinr_db):
    # equal-share rates as computed when only UEs with serving >= 0 were
    # keyed, counted and rated
    lead = serving.shape[:-1]
    ok = serving >= 0
    ttis = np.arange(math.prod(lead)).reshape(lead + (1,))
    key = (serving + n_cells * ttis)[ok]
    attached = np.bincount(key, minlength=n_cells * ttis.size)
    rate_bps = np.zeros(serving.shape)
    if ok.any():
        share = cfg.bandwidth / attached[key]
        rate_bps[ok] = share * np.log2(1.0 + np.power(10.0, sinr_db[ok] / 10.0))
    cell_mbps = np.bincount(key, weights=rate_bps[ok],
                            minlength=n_cells * ttis.size).reshape(lead + (n_cells,)) / 1e6
    return rate_bps / 1e6, cell_mbps


class TestOutageAsDownServingCell:
    @settings(max_examples=200, deadline=None)
    @given(n_cells=st.integers(1, 21), n_ues=st.integers(1, 30),
           ttis=st.one_of(st.none(), st.integers(1, 4)),
           p_up=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
           offset=st.sampled_from([0.0, -4000.0]), sinr_cap=st.sampled_from([30.0, math.inf]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_masked_path_bit_for_bit(self, n_cells, n_ues, ttis, p_up, offset,
                                             sinr_cap, seed):
        # serving cells in [0, C) that may be down, every cell down included;
        # an offset of -4000 dB underflows every signal to zero
        rng = np.random.default_rng(seed)
        cfg = ClusterConfig(sinr_cap=sinr_cap)
        lead = () if ttis is None else (ttis,)
        cells = CellTable(np.zeros((n_cells, 2)), np.arange(n_cells), np.zeros(n_cells))
        cells.is_up = rng.random(lead + (n_cells,)) < p_up
        cells.diversity = rng.random(lead + (n_cells,)) < 0.7
        serving = rng.integers(0, n_cells, size=lead + (n_ues,))
        rx_dbm = rng.normal(-90.0, 25.0, size=lead + (n_ues, n_cells)) + offset

        sinr = compute_sinr_all(serving, rx_dbm.copy(), cells, cfg)
        want = masked_sinr_oracle(serving, cells, cfg, rx_dbm.copy())
        assert sinr.shape == want.shape and sinr.tobytes() == want.tobytes()
        got = compute_throughputs(serving, sinr, n_cells, cfg)
        for g, w in zip(got, masked_throughput_oracle(serving, n_cells, cfg, sinr)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestMobility:
    def test_displacement_magnitude(self):
        cfg = ClusterConfig(ues_per_cell=1)
        cells, ues = build_cluster(cfg, seed=5)
        position = np.array([[10.0, 10.0]])  # far from the boundary
        heading = ues.heading[:1]
        track = step_mobility(position, heading, cfg, np.random.default_rng(0))
        assert track.shape == (1, 1, 2)
        moved = math.hypot(*(track[0, 0] - position[0]))
        assert moved == pytest.approx(3.0 / 3.6 * 1e-3, rel=1e-12)
        assert position.tolist() == [[10.0, 10.0]]  # the inputs are not written

    def test_zero_speed_keeps_positions(self):
        cfg = ClusterConfig(ues_per_cell=2, ue_speed=0.0)
        cells, ues = build_cluster(cfg, seed=5)
        track = step_mobility(ues.position, ues.heading, cfg, np.random.default_rng(0), 5)
        assert np.array_equal(track, np.broadcast_to(ues.position, track.shape))

    def test_reflection_keeps_ues_inside(self):
        cfg = ClusterConfig(ues_per_cell=2, ue_speed=5000.0)  # huge steps
        cells, ues = build_cluster(cfg, seed=5)
        track = step_mobility(ues.position, ues.heading, cfg, np.random.default_rng(1), 200)
        assert np.all(np.hypot(track[..., 0], track[..., 1]) <= cfg.bounding_radius + 1e-6)

    def test_handover_tracks_best_up_cell(self):
        cfg = ClusterConfig()
        cells, ues, shadow = drop_with_shadowing(cfg, seed=8)
        rng = np.random.default_rng(2)
        cells.is_up[[4, 11]] = False
        position = step_mobility(ues.position, ues.heading, cfg, rng)[0]
        serving = reassign_serving(rx_power_matrix(position, shadow, cells, cfg), cells)
        rx = per_cell_rx_oracle(position, cells, cfg) + shadow
        up = cells.is_up
        masked = np.where(up[None, :], rx, -np.inf)
        assert np.array_equal(serving, masked.argmax(axis=1))
        assert up[serving].all()

    def test_down_cell_ues_reassigned(self):
        cfg = ClusterConfig()
        cells, ues, shadow = drop_with_shadowing(cfg, seed=8)
        rx_dbm = rx_power_matrix(ues.position, shadow, cells, cfg)
        assert np.any(reassign_serving(rx_dbm, cells) == 5)
        cells.is_up[5] = False
        assert np.all(reassign_serving(rx_dbm, cells) != 5)


def loop_walk_oracle(positions, headings, turns, cfg, duration_ms=1.0):
    # the reflected random walk one UE at a time with scalar math, as the
    # per-UE loop it replaced did; returns positions, headings, reflections.
    # The radius is the C library's hypot, as in the table version:
    # math.hypot differs from it in the last bit on about 0.6% of inputs,
    # which moves a reflected UE by one ulp.
    step_m = cfg.ue_speed / 3.6 * (duration_ms / 1000.0)
    radius = cfg.bounding_radius
    positions, headings, reflected = positions.copy(), headings.copy(), 0
    for i, turn in enumerate(turns):
        heading = (float(headings[i]) + turn) % (2.0 * math.pi)
        position = positions[i]
        position[0] += step_m * math.cos(heading)
        position[1] += step_m * math.sin(heading)
        rr = float(np.hypot(position[0], position[1]))
        if rr > radius:
            position *= (2.0 * radius - rr) / rr
            heading = (heading + math.pi) % (2.0 * math.pi)
            reflected += 1
        headings[i] = heading
    return positions, headings, reflected


class TestArrayWalk:
    @pytest.mark.parametrize("speed", [3.0, 3000.0])
    @pytest.mark.parametrize("q", [1, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_ue_loop(self, seed, q, speed):
        cfg = ClusterConfig(ues_per_cell=q, ue_speed=speed)
        cells, drop, shadow = drop_with_shadowing(cfg, seed)
        # every other UE 0.1 mm inside the boundary, heading outwards
        ues = drop.copy()
        edge = ues[::2]
        edge.heading[:] = np.arctan2(edge.position[:, 1], edge.position[:, 0]) % (2.0 * math.pi)
        edge.position[:] = (cfg.bounding_radius - 1e-4) * np.column_stack(
            [np.cos(edge.heading), np.sin(edge.heading)])
        start = ues.tobytes()
        # two episodes of 20 and 7 TTIs, each walked from the same start
        for episode, ttis in enumerate((20, 7)):
            key = seed + 100 * (episode + 1)
            walk, turns = np.random.default_rng(key), np.random.default_rng(key)
            track = step_mobility(ues.position, ues.heading, cfg, walk, ttis)
            assert track.shape == (ttis, len(ues), 2)
            assert ues.tobytes() == start  # the walk never writes its inputs
            positions, headings, reflected = ues.position.copy(), ues.heading.copy(), 0
            for now in track:
                positions, headings, n = loop_walk_oracle(
                    positions, headings, turns.normal(0.0, radio.TURN_SIGMA_RAD, len(ues)), cfg)
                reflected += n
                assert now.tobytes() == positions.tobytes()
            assert reflected >= len(edge)
            # handover over the whole track at once, its TTIs a leading axis
            serving = reassign_serving(rx_power_matrix(track, shadow, cells, cfg), cells)
            for now, cell in zip(track, serving):
                rx = per_cell_rx_oracle(now, cells, cfg) + shadow
                assert cell.tolist() == rx.argmax(axis=1).tolist()


class TestThroughput:
    def test_closed_form_single_ue(self):
        cfg = single_cell_config()
        sinr = np.array([0.0])  # 0 dB
        ue_mbps, cell_mbps = compute_throughputs(np.array([0]), sinr, 1, cfg)
        assert ue_mbps[0] == pytest.approx(10.0, rel=1e-12)
        assert cell_mbps[0] == pytest.approx(10.0, rel=1e-12)

    def test_outage_rate_zero(self):
        cfg = single_cell_config()
        ue_mbps, _ = compute_throughputs(np.array([0]), np.array([-np.inf]), 1, cfg)
        assert ue_mbps[0] == 0.0

    def test_equal_share_halves_with_double_load(self):
        cfg = ClusterConfig(num_sites=1, sectors_per_site=1, ues_per_cell=2,
                            electrical_tilt=0.0, shadow_sigma=0.0)
        serving = np.array([0, 0])
        sinr = np.array([3.0, 7.0])
        both_mbps, both_cell = compute_throughputs(serving, sinr, 1, cfg)
        solo_mbps, _ = compute_throughputs(serving[:1], sinr[:1], 1, cfg)
        assert both_mbps[0] == pytest.approx(solo_mbps[0] / 2.0, rel=1e-12)
        assert both_cell[0] == pytest.approx(both_mbps.sum(), rel=1e-12)

    def test_cell_sum_invariant(self):
        cfg = ClusterConfig()
        cells, ues, shadow = drop_with_shadowing(cfg, seed=4)
        rx_dbm = rx_power_matrix(ues.position, shadow, cells, cfg)
        serving = reassign_serving(rx_dbm, cells)
        sinr = compute_sinr_all(serving, rx_dbm, cells, cfg)
        ue_mbps, cell_mbps = compute_throughputs(serving, sinr, len(cells), cfg)
        per_cell = np.zeros(len(cells))
        for cell, r in zip(serving, ue_mbps):
            per_cell[cell] += r
        np.testing.assert_allclose(cell_mbps, per_cell, atol=1e-9)
