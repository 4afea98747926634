"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def value(workload: str, name: str) -> float:
    return run(workload, 1)["metrics"][name]["value"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_finite_with_its_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in spec}
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


def test_traced_layers_match_the_file():
    sys.path.insert(0, str(HERE))
    import spans

    timed = {
        metric["name"] for metric in SPEC["per_layer"]
        if metric["unit"] == "s" and not metric["name"].startswith("trace.")
    }
    assert set(spans.LAYERS) == timed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_cover_the_traced_wall(workload):
    assert value(workload, "trace.layer_sum_ratio") >= 0.9


def test_bypassed_layers_do_no_work():
    for workload in ("detect-fastpath", "mc-paper"):
        assert value(workload, "net.sim.events") == 0
        assert value(workload, "crypto.hmac.calls_per_pkt") < 0.05
    for workload in ("stream-event", "mc-paper"):
        assert value(workload, "fastpath.rounds") == 0
    assert value("detect-fastpath", "fastpath.hit_ratio") == 1
    assert value("mc-paper", "parallel.tasks") > 1
    for workload in ("stream-event", "detect-fastpath"):
        assert value(workload, "parallel.tasks") <= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
