"""Experiment configuration: defaults, the flat key-value file format, and
the effective-config dump (which round-trips through the parser).

Files hold ``section.key = value`` lines; ``#`` starts a comment.  Numeric
values accept plain literals and simple fractions such as ``5/9``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .faults import DEFAULT_AZIMUTH_DELTA_DEG, FaultRates
from .mdp import ConfigError, EpisodeConfig, RewardSchedule
from .radio import MAX_UES_PER_CELL, ClusterConfig

KNOWN_AGENTS = ("random", "fifo", "dqn")
# The widest hidden layer and the largest replay batch.  A learner's update
# holds its batch's per-row outer products, (batch, width + 1, width)
# floats: at most 33.8 MB a learner here (4.8 kB at the defaults), one per
# seed in a stack.
MAX_HIDDEN_WIDTH = 128
MAX_BATCH_SIZE = 256


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
        for name, ok, rule in (
                ("hidden_width", 1 <= self.hidden_width <= MAX_HIDDEN_WIDTH,
                 f"in 1..{MAX_HIDDEN_WIDTH}"),
                ("batch_size", 1 <= self.batch_size <= MAX_BATCH_SIZE, f"in 1..{MAX_BATCH_SIZE}"),
                ("replay_capacity", self.replay_capacity >= 1, "at least 1"),
                ("epsilon", 0.0 <= self.epsilon <= 1.0, "in [0, 1]"),
                ("learning_rate", 0.0 < self.learning_rate < math.inf, "finite and above 0"),
                ("epsilon_decay", 0.0 < self.epsilon_decay <= 1.0, "in (0, 1]"),
                ("epsilon_min", 0.0 <= self.epsilon_min <= 1.0, "in [0, 1]")):
            if not ok:
                raise ConfigError(f"ml.{name} must be {rule}")


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

    def __post_init__(self):
        # an empty register must leave the cells healthy, and 0 * inf is NaN
        if not math.isfinite(self.azimuth_delta):
            raise ConfigError("faults.azimuth_delta must be finite")
        # checked here, not in the parser, so the CLI's overrides are too
        for key, values in (("run.agents", self.agents), ("run.seeds", self.seeds),
                            ("run.q", self.qs)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} must not repeat a value, got {values}")
        if not self.agents:
            raise ConfigError("run.agents must name at least one agent")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("run.seeds must name at least one seed, each at least 0")
        if self.qs and not 1 <= min(self.qs) <= max(self.qs) <= MAX_UES_PER_CELL:
            raise ConfigError(f"run.q must be in 1..{MAX_UES_PER_CELL:,}")
        # the file format cuts a value at "#", a line end or edge blanks
        out = self.output_dir
        if not out or "#" in out or out.splitlines() != [out] or out != out.strip():
            raise ConfigError("run.output_dir must be non-empty, with no '#', line end "
                              f"or leading or trailing blank, got {out!r}")

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
    if text.strip().isdecimal():  # exact, also past a float's 53-bit mantissa
        return int(text)
    value = _parse_number(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def load_config(path) -> ExperimentConfig:
    """Parse a config file, filling every absent key with its default."""
    with open(path) as fh:
        lines = fh.readlines()
    return parse_config(lines, source=str(path))


def parse_config(lines, source: str = "<config>") -> ExperimentConfig:
    # section.key lines fill the dataclass of the ExperimentConfig field
    # named after the section
    sections = {"cluster": ClusterConfig, "rewards": RewardSchedule,
                "episode": EpisodeConfig, "ml": MlConfig}
    values: dict = {section: {} for section in sections}
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
            _assign(key, value, sections, values, top)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from exc

    run = {"run.agents": "agents", "run.seeds": "seeds", "run.q": "qs",
           "run.output_dir": "output_dir"}
    try:
        return ExperimentConfig(
            rates=FaultRates(top["faults.p"]) if "faults.p" in top else FaultRates(),
            azimuth_delta=top.get("faults.azimuth_delta", DEFAULT_AZIMUTH_DELTA_DEG),
            **{section: cls(**values[section]) for section, cls in sections.items()},
            **{name: top[key] for key, name in run.items() if key in top})
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _assign(key: str, value: str, sections, values, top) -> None:
    section, _, name = key.partition(".")
    defaults = ({f.name: f.default for f in fields(sections[section])}
                if section in sections else {})
    if name in defaults:
        # a field's type is its default's: int fields take integers only
        cast = _parse_int if isinstance(defaults[name], int) else _parse_number
        values[section][name] = cast(value)
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
    elif key in ("run.seeds", "run.q"):
        top[key] = tuple(_parse_int(v) for v in _split_list(value))
    elif key == "run.output_dir":
        top[key] = value
    else:
        raise ConfigError("unknown key")


def _dump_section(section: str, values) -> list[str]:
    return [f"{section}.{f.name} = {getattr(values, f.name)!r}" for f in fields(values)]


def dump_effective_config(cfg: ExperimentConfig) -> str:
    """Render every effective value in the file format; parsing the result
    reproduces the configuration exactly."""
    out = ["# effective configuration (all values explicit)",
           "# radio environment", *_dump_section("cluster", cfg.cluster),
           "# fault process", "faults.p = " + ",".join(repr(x) for x in cfg.rates.p),
           f"faults.azimuth_delta = {cfg.azimuth_delta!r}",
           "# rewards", *_dump_section("rewards", cfg.rewards),
           "# episodes", *_dump_section("episode", cfg.episode),
           "# learning", *_dump_section("ml", cfg.ml),
           "# runs", "run.agents = " + ",".join(cfg.agents),
           "run.seeds = " + ",".join(str(s) for s in cfg.seeds),
           "run.q = " + ",".join(str(q) for q in cfg.effective_qs()),
           f"run.output_dir = {cfg.output_dir}"]
    return "\n".join(out) + "\n"
