"""Desk-scale cellular cluster simulator with stochastic faults and self-healing agents."""

__version__ = "0.1.0"

from .radio import CellTable, ClusterConfig, build_cluster
from .faults import FaultKind, FaultRates, FaultRegister
from .mdp import MdpAction, MdpState, RewardSchedule, EpisodeConfig, SonEnv
from .config import ExperimentConfig, load_config, default_config
from .experiment import run_experiment

__all__ = [
    "CellTable",
    "ClusterConfig",
    "build_cluster",
    "FaultKind",
    "FaultRates",
    "FaultRegister",
    "MdpAction",
    "MdpState",
    "RewardSchedule",
    "EpisodeConfig",
    "SonEnv",
    "ExperimentConfig",
    "load_config",
    "default_config",
    "run_experiment",
]
