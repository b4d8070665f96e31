"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/tests

The traced-count test runs every workload twice and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# One count per workload that shows its layer was reached at all.
REACHED = {
    "partition-lp": "bounds.solve_lp.calls",
    "game-values": "games.win.calls",
    "xor-sandwich": "bounds.gamma2_star.calls",
    "readme-cli": "cli.main.calls",
    "qkd-bulk": "diqkd.rounds",
}


def _bench(*argv, cwd=BENCH.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _traced_counts(workload: str, seed: int) -> dict:
    out = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert set(result["metrics"]) == set(tracing.LAYER_UNITS)
    return {name: result["metrics"][name]["value"] for name in tracing.COUNT_METRICS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_at_one_seed(workload):
    first = _traced_counts(workload, 5)
    assert first[REACHED[workload]] > 0
    assert _traced_counts(workload, 5) == first


def test_stall_is_killed_and_counted_as_failed():
    argv = ["--workload", "xor-sandwich", "--seed", "0", "--seconds", "0", "--trace", "0", "--out", str(run.OUT)]
    run.OUT.mkdir(exist_ok=True)
    ev = run.run_worker(argv, time.monotonic() + 2.0)  # one pass takes well over 2 s
    assert ev["killed"] and "setup" in ev and "done" not in ev
    attempted, failed, failures, _ = run.account(ev)
    assert attempted == failed == len(ev["setup"]["ops"]) * (len(ev["passes"]) + 1)
    assert "time cap" in failures[0]["reason"]


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "qkd-bulk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
