"""Hexagonal cellular cluster: geometry, propagation, SINR and UE mobility.

The cluster is one centre site plus up to one ring of six sites at the
inter-site distance, three sectors each.  Links use a scalar budget:
COST231-Hata path loss, a 3GPP 36.942-style horizontal sector pattern,
log-normal shadowing and a flat transmit-diversity gain term.  Electrical
tilt is folded into a constant boresight offset (2-D simulation).

The cells are one :class:`CellTable` of arrays indexed by cell id; the
healthy table comes from the drop, and ``faults.derive_cells`` derives the
faulted ones from the alarm register, which is the only fault state.  The
drop's UEs are one read-only ``np.recarray`` table whose row index is the
UE id, with the fields ``position`` (2,) metres and ``heading`` radians.
Every radio function takes the arrays it reads and returns what it
computes; none writes the table.

Outage is a down serving cell: it gives its UEs no signal, so ``-inf``
SINR and 0 Mbps.  Handover serves every UE from its strongest up cell and
faults never take the managed cell down, so a run never has one.

The link budget, handover, SINR and throughput functions also take a
leading TTI axis: positions (T, N, 2) and serving cells (T, N) of T TTIs,
with the :class:`CellTable` from ``derive_cells`` holding the fault
arrays of T TTIs as (T, C); the results then carry the same leading axis.
One TTI is the case without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
# The most UEs per cell: on the default 21 cells a drop of 210,000 UEs, which
# peaks near 250 MB while it is built (about 1.2 kB a UE, 24 B of it kept)
# and draws 35 MB of shadowing per episode.
MAX_UES_PER_CELL = 10_000
# The most sectors per site: 42 cells on seven sites, twice the default, so a
# q = MAX_UES_PER_CELL episode's shadowing is four times the default's.
MAX_SECTORS_PER_SITE = 6


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
        for f in fields(self):
            value = getattr(self, f.name)
            if value != value:  # NaN; math.isnan overflows on a huge int
                raise ValueError(f"{f.name} must not be NaN")
            if abs(value) == math.inf and not (f.name == "sinr_cap" and value > 0):
                raise ValueError(f"{f.name} must be finite")
        for name in ("inter_site_distance", "carrier_freq", "bandwidth",
                     "bs_height", "ue_height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be above 0")
        for name in ("shadow_sigma", "ue_speed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if not 1 <= self.ues_per_cell <= MAX_UES_PER_CELL:
            raise ValueError(f"ues_per_cell must be in 1..{MAX_UES_PER_CELL:,}")
        if not 1 <= self.num_sites <= 7:
            raise ValueError("num_sites must be in 1..7 (centre plus one ring)")
        if not 1 <= self.sectors_per_site <= MAX_SECTORS_PER_SITE:
            raise ValueError(f"sectors_per_site must be in 1..{MAX_SECTORS_PER_SITE}")

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


@dataclass(eq=False)
class CellTable:
    """Every cell of the cluster as arrays indexed by cell id.

    ``sites`` (S, 2) holds the site positions in metres, ``site`` (C,) each
    cell's site index and ``azimuth`` (C,) its boresight in degrees.  The
    fault arrays start healthy: ``azimuth_offset`` (degrees) and
    ``tx_power_delta`` (dB) at 0, ``diversity`` and ``is_up`` all true;
    ``faults.derive_cells`` gives faulted copies with (T, C) fault arrays.
    """

    sites: np.ndarray
    site: np.ndarray
    azimuth: np.ndarray
    azimuth_offset: np.ndarray = field(init=False)
    tx_power_delta: np.ndarray = field(init=False)
    diversity: np.ndarray = field(init=False)
    is_up: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.site)
        self.azimuth_offset = np.zeros(n)
        self.tx_power_delta = np.zeros(n)
        self.diversity = np.ones(n, dtype=bool)
        self.is_up = np.ones(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.site)


def path_loss_cost231(distance_km, freq_mhz: float, bs_height_m: float,
                      ue_height_m: float):
    """COST231-Hata urban path loss in dB (urban correction C = 0) at an
    array of distances; distances below 1 m are clamped."""
    d = np.maximum(np.asarray(distance_km, dtype=float), MIN_DISTANCE_KM)
    lf = math.log10(freq_mhz)
    lh = math.log10(bs_height_m)
    a_hm = (1.1 * lf - 0.7) * ue_height_m - (1.56 * lf - 0.8)
    return (46.3 + 33.9 * lf - 13.82 * lh - a_hm
            + (44.9 - 6.55 * lh) * np.log10(d))


def antenna_gain(bearing_offset_deg, out=None):
    """Horizontal sector gain in dB: -min(12*(theta/65)^2, 20).

    The passes run in one buffer: ``out`` when given (it may be the input
    array itself), else a new one.
    """
    x = np.asarray(bearing_offset_deg, dtype=float)
    g = np.add(x, 180.0, out=np.empty_like(x) if out is None else out)
    # the bits of numpy's float ``(x + 180) % 360``, faster: fmod, +360 if
    # negative; fmod is the identity below 360 in magnitude, so skipped then
    if not (g.size == 0 or -360.0 < g.min() and g.max() < 360.0):
        np.fmod(g, 360.0, out=g)
    g += 360.0 * (g < 0.0)
    g -= 180.0
    g /= HORIZ_BEAMWIDTH_DEG
    np.square(g, out=g)
    g *= 12.0
    np.minimum(g, PATTERN_FLOOR_DB, out=g)
    np.negative(g, out=g)
    return g


def site_positions(config: ClusterConfig) -> list[tuple[float, float]]:
    """Centre site at the origin, ring sites at the inter-site distance."""
    out = [(0.0, 0.0)]
    for k in range(config.num_sites - 1):
        ang = math.radians(60.0 * k)
        out.append((config.inter_site_distance * math.cos(ang),
                    config.inter_site_distance * math.sin(ang)))
    return out


def _make_cells(config: ClusterConfig) -> CellTable:
    k = config.sectors_per_site
    return CellTable(sites=np.array(site_positions(config)),
                     site=np.repeat(np.arange(config.num_sites), k),
                     azimuth=np.tile(np.arange(k) * (360.0 / k), config.num_sites))


def site_links(points: np.ndarray, sites: np.ndarray,
               config: ClusterConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bearing in degrees and path loss in dB from every site of ``sites``
    (S, 2) to every point of ``points`` (..., M, 2), each a new (..., M, S)
    array: the part of the link budget no fault touches, shared by the
    sectors of a site."""
    dx = points[..., None, 0] - sites[:, 0]
    dy = points[..., None, 1] - sites[:, 1]
    dist_km = np.hypot(dx, dy)
    dist_km /= 1000.0
    bearing = np.degrees(np.arctan2(dy, dx))
    return bearing, path_loss_cost231(dist_km, config.carrier_freq,
                                      config.bs_height, config.ue_height)


def rx_power_matrix(position: np.ndarray, shadow: np.ndarray, cells: CellTable,
                    config: ClusterConfig, links=None,
                    columns=slice(None)) -> np.ndarray:
    """Received power in dBm from every cell at every UE, a new C-ordered
    array of shape (..., N, C), at the UE positions ``position`` (..., N, 2)
    under the per-link shadowing ``shadow`` (N, C) dB; fault arrays (..., C)
    apply per leading index.

    ``links`` is ``site_links(position, cells.sites, config)`` when the
    caller already has it; ``columns`` (a slice or a list of cell ids)
    keeps only those cells, with the same bits as their columns of the
    full matrix.  Down cells are still evaluated; callers mask them via
    ``is_up``.
    """
    bearing, pl = links if links is not None else site_links(position, cells.sites, config)
    site = cells.site[columns]

    # (P + delta) + gain - pl + shadow, in place in one buffer, which take
    # (unlike a fancy gather) allocates C-ordered whatever the leading axes
    rx = bearing.take(site, axis=-1)
    rx -= (cells.azimuth + cells.azimuth_offset)[..., None, columns]
    antenna_gain(rx, out=rx)
    rx -= config.tilt_offset_db
    rx += (config.bs_tx_power + cells.tx_power_delta)[..., None, columns]
    rx -= pl.take(site, axis=-1)
    rx += shadow[..., columns]
    return rx


def reassign_serving(rx_dbm: np.ndarray, cells: CellTable) -> np.ndarray:
    """Apply the handover rule to the received powers ``rx_dbm`` (..., N,
    C): serve every UE from its strongest up cell (ties: lowest cell id).
    When every cell is down that is cell 0, which is down, so the UE is in
    outage.  Returns the serving cell ids, shape (..., N)."""
    return np.where(cells.is_up[..., None, :], rx_dbm, -np.inf).argmax(axis=-1)


def _drop_owners(u, start, cells, config) -> np.ndarray:
    """Strongest unshadowed cell of the drop candidate at each offset k in
    ``start .. len(u) - 3``: radius ``R sqrt(u[k])``, angle ``2 pi u[k + 1]``."""
    out = []
    for a in range(start, len(u) - 2, DROP_CHUNK_ROWS):
        b = min(a + DROP_CHUNK_ROWS, len(u) - 2)
        r = config.bounding_radius * np.sqrt(u[a:b])
        theta = 2.0 * math.pi * u[a + 1:b + 1]
        points = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        # a zero shadow adds +0.0, which moves no finite power
        out.append(rx_power_matrix(points, np.zeros(len(cells)), cells, config).argmax(axis=1))
    return np.concatenate(out)


def build_cluster(config: ClusterConfig, seed) -> tuple[CellTable, np.recarray]:
    """Build cells and the UE table: drop ``ues_per_cell`` UEs uniformly in
    each cell's dominance area (strongest unshadowed server wins), in cell
    order.  The table holds each UE's ``position`` (2,) metres and
    ``heading`` radians and is read-only: it is the drop every episode
    starts from.

    ``seed`` is an int or a numpy Generator.  The UEs are those one-at-a-time
    rejection sampling would place (two draws per attempt, one for the
    heading); the generator is left past the draws read ahead in blocks.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cells = _make_cells(config)

    u = rng.random(DROP_DRAWS_PER_UE * len(cells) * config.ues_per_cell + 2)
    owner = _drop_owners(u, 0, cells, config)
    ues = np.recarray(len(cells) * config.ues_per_cell,
                      dtype=[("position", float, (2,)), ("heading", float)])
    position, heading = ues.position, ues.heading
    pos = 0  # stream offset of the next attempt
    for i in range(len(ues)):
        cell_id = i // config.ues_per_cell
        window = 64  # attempts scanned, at offsets pos, pos + 2, ...
        while not (hits := np.flatnonzero(owner[pos:pos + 2 * window:2] == cell_id)).size:
            if len(owner) < pos + 2 * window:  # the block ends inside the window
                u = np.concatenate([u, rng.random(len(u))])
                owner = np.concatenate([owner, _drop_owners(u, len(owner), cells, config)])
            elif window == DROP_MAX_ATTEMPTS:
                raise RuntimeError(f"could not place a UE in cell {cell_id}")
            window = min(2 * window, DROP_MAX_ATTEMPTS)
        j = pos + 2 * int(hits[0])
        r = config.bounding_radius * math.sqrt(u[j])
        theta = 2.0 * math.pi * float(u[j + 1])
        position[i] = r * math.cos(theta), r * math.sin(theta)
        heading[i] = 2.0 * math.pi * float(u[j + 2])
        pos = j + 3
    ues.flags.writeable = False
    return cells, ues


def compute_sinr_all(serving: np.ndarray, rx_dbm: np.ndarray, cells: CellTable,
                     config: ClusterConfig) -> np.ndarray:
    """Downlink SINR in dB per UE, shape (..., N), from the serving cells
    ``serving`` (..., N) and the received powers ``rx_dbm`` (..., N, C).

    Serving power over the sum of the other up cells plus thermal noise, in
    the linear domain; a flat penalty applies when the serving cell lost
    transmit diversity; the result is capped at ``sinr_cap``.  A down
    serving cell gives no signal, so a UE on one (outage) gets ``-inf``.
    """
    lin = np.divide(rx_dbm, 10.0)  # C-ordered like rx_dbm: each row sums as alone
    np.power(10.0, lin, out=lin)
    lin *= cells.is_up[..., None, :]
    noise_mw = 10.0 ** (config.noise_power_dbm / 10.0)

    sig = np.take_along_axis(lin, serving[..., None], axis=-1)[..., 0]
    interference = lin.sum(axis=-1) - sig
    with np.errstate(divide="ignore"):
        sinr = 10.0 * np.log10(sig / (interference + noise_mw))
    diversity = np.take_along_axis(cells.diversity, serving, axis=-1)
    sinr = np.where(diversity, sinr, sinr - config.diversity_gain)
    return np.minimum(sinr, config.sinr_cap)


def step_mobility(position: np.ndarray, heading: np.ndarray, turns: np.ndarray,
                  config: ClusterConfig) -> np.ndarray:
    """Walk every UE one 1 ms TTI per row of ``turns`` (T, ..., N) of a
    perturbed random walk from ``position`` (N, 2) and ``heading`` (N,),
    reflecting at the cluster boundary; the inputs are not written.

    Each row turns the headings by its angles in radians.  Leading axes of
    ``turns`` after the first walk that many copies of the UEs side by
    side, say one per episode, each under its own turns.  Returns the
    positions after each TTI, shape (T, ..., N, 2).
    """
    step_m = config.ue_speed / 3.6 * (1.0 / 1000.0)
    radius = config.bounding_radius
    track = np.empty(turns.shape + (2,))
    position = np.broadcast_to(position, track.shape[1:]).copy()
    heading = np.broadcast_to(heading, turns.shape[1:]).copy()
    for turn, now in zip(turns, track):
        heading += turn
        np.remainder(heading, 2.0 * math.pi, out=heading)
        position[..., 0] += step_m * np.cos(heading)
        position[..., 1] += step_m * np.sin(heading)
        rr = np.hypot(position[..., 0], position[..., 1])
        out = rr > radius
        if out.any():  # fold the overshoot back inside and turn around
            position[out] *= ((2.0 * radius - rr[out]) / rr[out])[:, None]
            heading[out] = (heading[out] + math.pi) % (2.0 * math.pi)
        now[:] = position
    return track


def compute_throughputs(serving: np.ndarray, sinr_db: np.ndarray, n_cells: int,
                        config: ClusterConfig) -> tuple[np.ndarray, np.ndarray]:
    """Shannon-rate throughputs of the UEs on cells ``serving`` (..., N) at
    ``sinr_db`` (..., N), under an equal share of the cell bandwidth.

    Each UE gets bandwidth / (UEs attached to its cell at that TTI); a UE
    in outage (``-inf`` SINR) rates 0.  Returns (per-UE Mbps (..., N),
    per-cell Mbps (..., C)) over the ``n_cells`` cells.
    """
    lead = serving.shape[:-1]
    # one bincount key per (TTI, cell); each key sums its UEs in id order
    ttis = np.arange(math.prod(lead)).reshape(lead + (1,))
    key = (serving + n_cells * ttis).ravel()
    n_keys = n_cells * ttis.size
    share = config.bandwidth / np.bincount(key, minlength=n_keys)[key]
    rate_bps = share * np.log2(1.0 + np.power(10.0, sinr_db.ravel() / 10.0))
    cell_mbps = np.bincount(key, weights=rate_bps, minlength=n_keys) / 1e6
    return (rate_bps / 1e6).reshape(serving.shape), cell_mbps.reshape(lead + (n_cells,))
