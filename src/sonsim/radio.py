"""Hexagonal cellular cluster: geometry, propagation, SINR and UE mobility.

The cluster is one centre site plus up to one ring of six sites at the
inter-site distance, three sectors each.  Links use a scalar budget:
COST231-Hata path loss, a 3GPP 36.942-style horizontal sector pattern,
log-normal shadowing and a flat transmit-diversity gain term.  Electrical
tilt is folded into a constant boresight offset (2-D simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Horizontal sector pattern (three-sector macro defaults).
HORIZ_BEAMWIDTH_DEG = 65.0
PATTERN_FLOOR_DB = 20.0
# Vertical beamwidth used only to fold electrical tilt into a fixed offset.
VERT_BEAMWIDTH_DEG = 10.0
# Heading perturbation per mobility step (random-walk turn).
TURN_SIGMA_RAD = 0.1
# Path-loss distance floor: 1 m, keeps co-located links finite.
MIN_DISTANCE_KM = 1e-3
# UE drop: attempts per UE, first-block uniforms per UE (~46 used), chunk rows.
DROP_MAX_ATTEMPTS = 100_000
DROP_DRAWS_PER_UE = 50
DROP_CHUNK_ROWS = 512  # 86 KB temporaries; 1,024 rows cost 0.7 MB more peak RSS

OUTAGE_SINR_DB = float("-inf")
NO_SERVING_CELL = -1


@dataclass
class ClusterConfig:
    """Radio and geometry parameterization of one cluster."""

    inter_site_distance: float = 200.0  # m
    num_sites: int = 7
    sectors_per_site: int = 3
    carrier_freq: float = 2100.0        # MHz
    bandwidth: float = 10e6             # Hz
    bs_tx_power: float = 46.0           # dBm
    bs_height: float = 25.0             # m
    ue_height: float = 1.5              # m
    electrical_tilt: float = 4.0        # degrees
    shadow_sigma: float = 8.0           # dB
    noise_density: float = -174.0       # dBm/Hz
    ues_per_cell: int = 10
    ue_speed: float = 3.0               # km/h
    sinr_cap: float = 30.0              # dB
    diversity_gain: float = 3.0         # dB

    def __post_init__(self):
        if self.inter_site_distance <= 0:
            raise ValueError("inter_site_distance must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.ues_per_cell < 1:
            raise ValueError("ues_per_cell must be at least 1")
        if not 1 <= self.num_sites <= 7:
            raise ValueError("num_sites must be in 1..7 (centre plus one ring)")
        if self.sectors_per_site < 1:
            raise ValueError("sectors_per_site must be at least 1")
        if self.shadow_sigma < 0:
            raise ValueError("shadow_sigma must be non-negative")

    @property
    def num_cells(self) -> int:
        return self.num_sites * self.sectors_per_site

    @property
    def noise_power_dbm(self) -> float:
        """Thermal noise over the full carrier bandwidth."""
        return self.noise_density + 10.0 * math.log10(self.bandwidth)

    @property
    def tilt_offset_db(self) -> float:
        """Fixed gain penalty standing in for the vertical tilt pattern."""
        loss = 12.0 * (self.electrical_tilt / VERT_BEAMWIDTH_DEG) ** 2
        return min(loss, PATTERN_FLOOR_DB)

    @property
    def bounding_radius(self) -> float:
        """Radius of the disk UEs live in (ring distance + one cell radius)."""
        ring = self.inter_site_distance if self.num_sites > 1 else 0.0
        return ring + self.inter_site_distance / math.sqrt(3.0)


@dataclass
class CellState:
    """One sector of one site, including any fault-induced distortions."""

    cell_id: int
    site_position: tuple[float, float]
    azimuth: float                      # boresight, degrees in [0, 360)
    azimuth_offset: float = 0.0         # fault-induced extra rotation
    tx_power_delta: float = 0.0         # dB, feeder fault sets -3
    diversity_enabled: bool = True
    is_up: bool = True

    @property
    def boresight(self) -> float:
        return self.azimuth + self.azimuth_offset


@dataclass(eq=False)
class UEState:
    """One user terminal: position, serving cell and per-cell shadowing."""

    ue_id: int
    position: np.ndarray                # (2,) metres
    serving_cell: int
    shadow_map: np.ndarray              # (num_cells,) dB
    heading: float                      # radians


def path_loss_cost231(distance_km, freq_mhz: float, bs_height_m: float,
                      ue_height_m: float):
    """COST231-Hata urban path loss in dB (urban correction C = 0).

    Accepts scalar or array distances; distances below 1 m are clamped.
    """
    d = np.maximum(np.asarray(distance_km, dtype=float), MIN_DISTANCE_KM)
    lf = math.log10(freq_mhz)
    lh = math.log10(bs_height_m)
    a_hm = (1.1 * lf - 0.7) * ue_height_m - (1.56 * lf - 0.8)
    pl = (46.3 + 33.9 * lf - 13.82 * lh - a_hm
          + (44.9 - 6.55 * lh) * np.log10(d))
    return pl if pl.ndim else float(pl)


def antenna_gain(bearing_offset_deg):
    """Horizontal sector gain in dB: -min(12*(theta/65)^2, 20)."""
    off = (np.asarray(bearing_offset_deg, dtype=float) + 180.0) % 360.0 - 180.0
    g = -np.minimum(12.0 * (off / HORIZ_BEAMWIDTH_DEG) ** 2, PATTERN_FLOOR_DB)
    return g if g.ndim else float(g)


def site_positions(config: ClusterConfig) -> list[tuple[float, float]]:
    """Centre site at the origin, ring sites at the inter-site distance."""
    out = [(0.0, 0.0)]
    for k in range(config.num_sites - 1):
        ang = math.radians(60.0 * k)
        out.append((config.inter_site_distance * math.cos(ang),
                    config.inter_site_distance * math.sin(ang)))
    return out


def _make_cells(config: ClusterConfig) -> list[CellState]:
    cells = []
    sector_step = 360.0 / config.sectors_per_site
    for s, pos in enumerate(site_positions(config)):
        for j in range(config.sectors_per_site):
            cells.append(CellState(cell_id=s * config.sectors_per_site + j,
                                   site_position=pos,
                                   azimuth=j * sector_step))
    return cells


def _rx_dbm(points: np.ndarray, cells: list[CellState], config: ClusterConfig) -> np.ndarray:
    """Unshadowed received power in dBm from every cell at every point of
    ``points`` (M, 2), shape (M, C)."""
    sites = np.array([c.site_position for c in cells], dtype=float)
    boresight = np.array([c.boresight for c in cells], dtype=float)
    delta = np.array([c.tx_power_delta for c in cells], dtype=float)

    dx = points[:, None, 0] - sites[None, :, 0]
    dy = points[:, None, 1] - sites[None, :, 1]
    dist_km = np.hypot(dx, dy) / 1000.0
    bearing = np.degrees(np.arctan2(dy, dx))

    gain = antenna_gain(bearing - boresight[None, :]) - config.tilt_offset_db
    pl = path_loss_cost231(dist_km, config.carrier_freq,
                           config.bs_height, config.ue_height)
    return config.bs_tx_power + delta[None, :] + gain - pl


def rx_power_matrix(ues: list[UEState], cells: list[CellState],
                    config: ClusterConfig) -> np.ndarray:
    """Received power in dBm from every cell at every UE, shape (N, C).

    Down cells are still evaluated; callers mask them via ``is_up``.
    """
    pos = np.array([ue.position for ue in ues], dtype=float)
    shadow = np.array([ue.shadow_map for ue in ues], dtype=float)
    return _rx_dbm(pos, cells, config) + shadow


def best_server(rx_dbm: np.ndarray, cells: list[CellState]) -> np.ndarray:
    """Index of the strongest up cell per UE (ties: lowest cell id)."""
    up = np.array([c.is_up for c in cells], dtype=bool)
    if not up.any():
        return np.full(rx_dbm.shape[0], NO_SERVING_CELL, dtype=int)
    masked = np.where(up[None, :], rx_dbm, -np.inf)
    return masked.argmax(axis=1)


def reassign_serving(ues: list[UEState], cells: list[CellState],
                     config: ClusterConfig,
                     rx_dbm: np.ndarray | None = None) -> np.ndarray:
    """Apply the handover rule: serve every UE from its strongest up cell."""
    if rx_dbm is None:
        rx_dbm = rx_power_matrix(ues, cells, config)
    serving = best_server(rx_dbm, cells)
    for ue, s in zip(ues, serving):
        ue.serving_cell = int(s)
    return rx_dbm


def _drop_owners(u, start, cells, config) -> np.ndarray:
    """Strongest unshadowed cell of the drop candidate at each offset k in
    ``start .. len(u) - 3``: radius ``R sqrt(u[k])``, angle ``2 pi u[k + 1]``."""
    out = []
    for a in range(start, len(u) - 2, DROP_CHUNK_ROWS):
        b = min(a + DROP_CHUNK_ROWS, len(u) - 2)
        r = config.bounding_radius * np.sqrt(u[a:b])
        theta = 2.0 * math.pi * u[a + 1:b + 1]
        points = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        out.append(_rx_dbm(points, cells, config).argmax(axis=1))
    return np.concatenate(out)


def build_cluster(config: ClusterConfig, seed) -> tuple[list[CellState], list[UEState]]:
    """Build cells and drop ``ues_per_cell`` UEs uniformly in each cell's
    dominance area (strongest unshadowed server wins), then draw per-link
    shadowing and attach each UE to its strongest shadowed up cell.

    ``seed`` is an int or a numpy Generator, consumed exactly as one-at-a-time
    rejection sampling would (two draws per attempt, one for the heading).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cells = _make_cells(config)

    start = rng.bit_generator.state
    u = rng.random(DROP_DRAWS_PER_UE * len(cells) * config.ues_per_cell + 2)
    owner = _drop_owners(u, 0, cells, config)
    pos = 0  # stream offset of the next attempt
    ues: list[UEState] = []
    for cell in cells:
        for _ in range(config.ues_per_cell):
            window = 64  # attempts scanned, at offsets pos, pos + 2, ...
            while not (hits := np.flatnonzero(owner[pos:pos + 2 * window:2]
                                              == cell.cell_id)).size:
                if len(owner) < pos + 2 * window:  # the block ends inside the window
                    u = np.concatenate([u, rng.random(len(u))])
                    owner = np.concatenate([owner, _drop_owners(u, len(owner), cells, config)])
                elif window == DROP_MAX_ATTEMPTS:
                    raise RuntimeError(f"could not place a UE in cell {cell.cell_id}")
                window = min(2 * window, DROP_MAX_ATTEMPTS)
            j = pos + 2 * int(hits[0])
            r = config.bounding_radius * math.sqrt(u[j])
            theta = 2.0 * math.pi * float(u[j + 1])
            ues.append(UEState(ue_id=len(ues),
                               position=np.array([r * math.cos(theta), r * math.sin(theta)]),
                               serving_cell=cell.cell_id,
                               shadow_map=np.zeros(len(cells)),
                               heading=2.0 * math.pi * float(u[j + 2])))
            pos = j + 3
    rng.bit_generator.state = start  # leave the stream where one-at-a-time
    rng.random(pos)                  # sampling would have left it

    shadow = rng.normal(0.0, config.shadow_sigma, size=(len(ues), len(cells)))
    for i, ue in enumerate(ues):
        ue.shadow_map = shadow[i]
    reassign_serving(ues, cells, config)
    return cells, ues


def compute_sinr_all(ues: list[UEState], cells: list[CellState],
                     config: ClusterConfig,
                     rx_dbm: np.ndarray | None = None) -> np.ndarray:
    """Downlink SINR in dB per UE.

    Serving power over the sum of the other up cells plus thermal noise, in
    the linear domain; a flat penalty applies when the serving cell lost
    transmit diversity; the result is capped at ``sinr_cap``.  UEs without
    a live serving cell get ``-inf``.
    """
    if rx_dbm is None:
        rx_dbm = rx_power_matrix(ues, cells, config)
    n = len(ues)
    serving = np.array([ue.serving_cell for ue in ues], dtype=int)
    up = np.array([c.is_up for c in cells], dtype=bool)

    lin = np.power(10.0, rx_dbm / 10.0) * up[None, :]
    noise_mw = 10.0 ** (config.noise_power_dbm / 10.0)

    sinr = np.full(n, OUTAGE_SINR_DB)
    ok = (serving >= 0) & up[np.clip(serving, 0, len(cells) - 1)]
    if ok.any():
        idx = np.nonzero(ok)[0]
        sig = lin[idx, serving[idx]]
        interference = lin[idx].sum(axis=1) - sig
        with np.errstate(divide="ignore"):
            vals = 10.0 * np.log10(sig / (interference + noise_mw))
        div_lost = np.array([not cells[s].diversity_enabled for s in serving[idx]])
        vals = np.where(div_lost, vals - config.diversity_gain, vals)
        sinr[idx] = np.minimum(vals, config.sinr_cap)
    return sinr


def step_mobility(ues: list[UEState], cells: list[CellState],
                  config: ClusterConfig, rng: np.random.Generator,
                  duration_ms: float = 1.0) -> np.ndarray:
    """Advance every UE one step of a perturbed random walk, reflect at the
    cluster boundary, and re-run the handover rule.

    Returns the fresh received-power matrix so callers can reuse it.
    """
    step_m = config.ue_speed / 3.6 * (duration_ms / 1000.0)
    turns = rng.normal(0.0, TURN_SIGMA_RAD, size=len(ues))
    radius = config.bounding_radius
    for ue, turn in zip(ues, turns):
        ue.heading = (ue.heading + turn) % (2.0 * math.pi)
        ue.position[0] += step_m * math.cos(ue.heading)
        ue.position[1] += step_m * math.sin(ue.heading)
        rr = math.hypot(ue.position[0], ue.position[1])
        if rr > radius:
            # fold the overshoot back inside and turn around
            ue.position *= (2.0 * radius - rr) / rr
            ue.heading = (ue.heading + math.pi) % (2.0 * math.pi)
    return reassign_serving(ues, cells, config)


def compute_throughputs(ues: list[UEState], cells: list[CellState],
                        config: ClusterConfig,
                        sinr_db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shannon-rate throughputs under an equal share of the cell bandwidth.

    Each UE gets bandwidth / (UEs currently attached to its cell); outage
    UEs rate 0.  Returns (per-UE Mbps, per-cell Mbps).
    """
    n_cells = len(cells)
    serving = np.array([ue.serving_cell for ue in ues], dtype=int)
    ok = serving >= 0
    attached = np.bincount(serving[ok], minlength=n_cells)

    rate_bps = np.zeros(len(ues))
    if ok.any():
        share = config.bandwidth / attached[serving[ok]]
        lin = np.power(10.0, sinr_db[ok] / 10.0)  # -inf maps to 0
        rate_bps[ok] = share * np.log2(1.0 + lin)

    ue_mbps = rate_bps / 1e6
    cell_mbps = np.bincount(serving[ok], weights=rate_bps[ok],
                            minlength=n_cells) / 1e6
    return ue_mbps, cell_mbps
