"""Experiment configuration: defaults, the flat key-value file format, and
the effective-config dump (which round-trips through the parser).

Files hold ``section.key = value`` lines; ``#`` starts a comment.  Numeric
values accept plain literals and simple fractions such as ``5/9``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .faults import DEFAULT_AZIMUTH_DELTA_DEG, FaultRates
from .mdp import EpisodeConfig, RewardSchedule
from .radio import ClusterConfig

KNOWN_AGENTS = ("random", "fifo", "dqn")


class ConfigError(ValueError):
    """Malformed configuration file or value."""


@dataclass
class MlConfig:
    """Learning-side knobs for the value-network agent."""

    hidden_width: int = 24
    learning_rate: float = 1e-3
    batch_size: int = 1
    replay_capacity: int = 10_000
    epsilon: float = 1.0
    epsilon_decay: float = 0.91
    epsilon_min: float = 0.01

    def __post_init__(self):
        if self.hidden_width < 1:
            raise ConfigError("ml.hidden_width must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("ml.batch_size must be at least 1")
        if self.replay_capacity < 1:
            raise ConfigError("ml.replay_capacity must be at least 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("ml.epsilon must be in [0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("ml.learning_rate must be finite and above 0")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigError("ml.epsilon_decay must be in (0, 1]")
        if not 0.0 <= self.epsilon_min <= 1.0:
            raise ConfigError("ml.epsilon_min must be in [0, 1]")


@dataclass
class ExperimentConfig:
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    rates: FaultRates = field(default_factory=FaultRates)
    rewards: RewardSchedule = field(default_factory=RewardSchedule)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    ml: MlConfig = field(default_factory=MlConfig)
    azimuth_delta: float = DEFAULT_AZIMUTH_DELTA_DEG
    agents: tuple = KNOWN_AGENTS
    seeds: tuple = (0,)
    qs: tuple = ()          # empty means: use cluster.ues_per_cell
    output_dir: str = "results"

    def effective_qs(self) -> tuple:
        return tuple(self.qs) if self.qs else (self.cluster.ues_per_cell,)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _parse_int(text: str) -> int:
    value = _parse_number(text)
    if value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


_CLUSTER_FIELDS = {
    "inter_site_distance": float, "num_sites": int, "sectors_per_site": int,
    "carrier_freq": float, "bandwidth": float, "bs_tx_power": float,
    "bs_height": float, "ue_height": float, "electrical_tilt": float,
    "shadow_sigma": float, "noise_density": float, "ues_per_cell": int,
    "ue_speed": float, "sinr_cap": float, "diversity_gain": float,
}
_REWARD_FIELDS = {"worsened": float, "unchanged": float,
                  "improved": float, "cleared": float}
_EPISODE_FIELDS = {"ttis_per_episode": int, "num_episodes": int, "gamma": float}
_ML_FIELDS = {"hidden_width": int, "learning_rate": float, "batch_size": int,
              "replay_capacity": int, "epsilon": float,
              "epsilon_decay": float, "epsilon_min": float}


def load_config(path) -> ExperimentConfig:
    """Parse a config file, filling every absent key with its default."""
    with open(path) as fh:
        lines = fh.readlines()
    return parse_config(lines, source=str(path))


def parse_config(lines, source: str = "<config>") -> ExperimentConfig:
    cluster: dict = {}
    rewards: dict = {}
    episode: dict = {}
    ml: dict = {}
    top: dict = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            _assign(key, value, cluster, rewards, episode, ml, top)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc

    try:
        cfg = ExperimentConfig(
            cluster=ClusterConfig(**cluster),
            rates=FaultRates(top["faults.p"]) if "faults.p" in top else FaultRates(),
            rewards=RewardSchedule(**rewards),
            episode=EpisodeConfig(**episode),
            ml=MlConfig(**ml),
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    if "faults.azimuth_delta" in top:
        cfg = replace(cfg, azimuth_delta=top["faults.azimuth_delta"])
    if "run.agents" in top:
        cfg = replace(cfg, agents=top["run.agents"])
    if "run.seeds" in top:
        cfg = replace(cfg, seeds=top["run.seeds"])
    if "run.q" in top:
        cfg = replace(cfg, qs=top["run.q"])
    if "run.output_dir" in top:
        cfg = replace(cfg, output_dir=top["run.output_dir"])
    return cfg


def _assign(key: str, value: str, cluster, rewards, episode, ml, top) -> None:
    section, _, name = key.partition(".")
    if section == "cluster" and name in _CLUSTER_FIELDS:
        cast = _parse_int if _CLUSTER_FIELDS[name] is int else _parse_number
        cluster[name] = cast(value)
    elif section == "rewards" and name in _REWARD_FIELDS:
        rewards[name] = _parse_number(value)
    elif section == "episode" and name in _EPISODE_FIELDS:
        cast = _parse_int if _EPISODE_FIELDS[name] is int else _parse_number
        episode[name] = cast(value)
    elif section == "ml" and name in _ML_FIELDS:
        cast = _parse_int if _ML_FIELDS[name] is int else _parse_number
        ml[name] = cast(value)
    elif key == "faults.p":
        top[key] = tuple(_parse_number(v) for v in _split_list(value))
    elif key == "faults.azimuth_delta":
        top[key] = _parse_number(value)
    elif key == "run.agents":
        agents = tuple(_split_list(value))
        unknown = [a for a in agents if a not in KNOWN_AGENTS]
        if unknown:
            raise ValueError(f"unknown agent(s) {unknown}; know {KNOWN_AGENTS}")
        top[key] = agents
    elif key == "run.seeds":
        top[key] = tuple(_parse_int(v) for v in _split_list(value))
    elif key == "run.q":
        top[key] = tuple(_parse_int(v) for v in _split_list(value))
    elif key == "run.output_dir":
        top[key] = value
    else:
        raise ConfigError(f"unknown key {key!r}")


def dump_effective_config(cfg: ExperimentConfig) -> str:
    """Render every effective value in the file format; parsing the result
    reproduces the configuration exactly."""
    out = ["# effective configuration (all values explicit)"]

    out.append("# radio environment")
    for name in _CLUSTER_FIELDS:
        out.append(f"cluster.{name} = {getattr(cfg.cluster, name)!r}")

    out.append("# fault process")
    out.append("faults.p = " + ",".join(repr(x) for x in cfg.rates.p))
    out.append(f"faults.azimuth_delta = {cfg.azimuth_delta!r}")

    out.append("# rewards")
    for name in _REWARD_FIELDS:
        out.append(f"rewards.{name} = {getattr(cfg.rewards, name)!r}")

    out.append("# episodes")
    for name in _EPISODE_FIELDS:
        out.append(f"episode.{name} = {getattr(cfg.episode, name)!r}")

    out.append("# learning")
    for name in _ML_FIELDS:
        out.append(f"ml.{name} = {getattr(cfg.ml, name)!r}")

    out.append("# runs")
    out.append("run.agents = " + ",".join(cfg.agents))
    out.append("run.seeds = " + ",".join(str(s) for s in cfg.seeds))
    out.append("run.q = " + ",".join(str(q) for q in cfg.effective_qs()))
    out.append(f"run.output_dir = {cfg.output_dir}")
    return "\n".join(out) + "\n"
