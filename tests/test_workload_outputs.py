"""Every output of the benchmark workloads, pinned by sha256.

Each ``perfbench/workloads/*.cfg`` runs through ``run_experiment`` on a
few seeds, and the sha256 of every file each run writes must equal the one
in ``workload_hashes.json``, recorded under the numpy version that keys it.
``manifest.txt`` (a timestamp) and ``effective_config.txt``'s
``run.output_dir`` line are left out.  To record the hashes under the
installed numpy, from the root of the checkout:

    PYTHONPATH=src python tests/test_workload_outputs.py

It adds an entry for a numpy version not yet recorded.  It never replaces
an entry that differs from the outputs: it prints the differing files and
exits with status 1.  To re-pin a version, delete its entry from
``workload_hashes.json`` by hand first.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sonsim.config import load_config
from sonsim.experiment import run_experiment

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
HASHES = Path(__file__).with_name("workload_hashes.json")
# (workload, seeds) of each run, by its key in workload_hashes.json;
# dqn-minibatch's three learners train as one stack, its replay ring grows
# past 64 rows, and they leave it at different ticks (checked below)
RUNS = {"paper-grid": ("paper-grid", (0,)), "paper-grid-seed1": ("paper-grid", (1,)),
        "fault-storm": ("fault-storm", (0,)), "fault-storm-seed1": ("fault-storm", (1,)),
        "dqn-minibatch": ("dqn-minibatch", (0, 1, 2))}


def output_hashes(name: str, out: Path) -> dict:
    """Run ``RUNS[name]`` into ``out``; the sha256 of each file written, by
    path relative to ``out``."""
    workload, seeds = RUNS[name]
    cfg = load_config(WORKLOADS / f"{workload}.cfg")
    run_experiment(replace(cfg, seeds=seeds), out)
    hashes = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.txt":
            lines = path.read_bytes().splitlines(keepends=True)
            data = b"".join(line for line in lines if not line.startswith(b"run.output_dir"))
            hashes[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return hashes


def test_every_workload_is_pinned():
    assert {workload for workload, _ in RUNS.values()} == {p.stem for p in WORKLOADS.glob("*.cfg")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_workload_outputs_keep_their_bytes(name, tmp_path):
    recorded = json.loads(HASHES.read_text())
    if np.__version__ not in recorded:
        pytest.skip(f"hashes recorded under numpy {', '.join(recorded)}, "
                    f"not {np.__version__}")
    assert output_hashes(name, tmp_path) == recorded[np.__version__][name]
    if name == "dqn-minibatch":
        rows = (tmp_path / "episodes_dqn.csv").read_text().splitlines()[1:]
        episodes = len(rows) // len(RUNS[name][1])
        ttis = [sum(int(row.split(",")[2]) for row in rows[i:i + episodes])
                for i in range(0, len(rows), episodes)]
        assert min(ttis) > 64 and len(set(ttis)) == len(ttis)


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: output_hashes(name, Path(tmp) / name) for name in sorted(RUNS)}
    recorded = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    old, new = ({f"{name}/{path}": sha for name, files in runs.items() for path, sha in files.items()}
                for runs in (recorded.setdefault(np.__version__, hashes), hashes))
    differ = sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))
    if differ:
        print(f"outputs differ from the hashes recorded under numpy {np.__version__}"
              " (delete that entry to re-pin):", *differ, sep="\n  ")
        sys.exit(1)
    HASHES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
