"""The benchmark's output checker must find no problem in a short run of
each workload; a problem there counts as a failed operation of the
benchmark."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from sonsim.config import load_config
from sonsim.experiment import run_experiment
from sonsim.metrics import write_cdf_csv
from sonsim.nn import load_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted(p.stem for p in (PERFBENCH / "workloads").glob("*.cfg"))


def load_checker():
    spec = importlib.util.spec_from_file_location("perfbench_check", PERFBENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_workload_run_passes_the_checker(workload, tmp_path):
    check = load_checker()
    cfg = load_config(PERFBENCH / "workloads" / f"{workload}.cfg")
    cfg = replace(cfg, seeds=(0, 1), episode=replace(cfg.episode, num_episodes=4))
    out = run_experiment(cfg, tmp_path / "out")
    assert check.check_outputs(out, cfg, load_params)["problems"] == {}


def test_cdf_writer_passes_the_checker(tmp_path):
    problems = load_checker().check_cdf_writer(write_cdf_csv, tmp_path / "cdf.csv")
    assert all(msg is None for msg in problems.values()), problems
