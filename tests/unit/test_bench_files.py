"""The committed ``BENCH_*.json`` telemetry files share one shape.

``benchmarks/conftest.py`` writes every file as ``{"cpu_count": ...,
"records": [...]}``, one record per benchmark keyed by its unique name.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_one_shape_with_unique_record_names(path):
    payload = json.loads(path.read_text())
    assert isinstance(payload, dict)
    assert sorted(payload) == ["cpu_count", "records"]
    assert isinstance(payload["cpu_count"], int) and payload["cpu_count"] >= 1
    records = payload["records"]
    assert isinstance(records, list) and records
    names = [record["name"] for record in records]
    assert all(isinstance(name, str) and name for name in names)
    assert len(names) == len(set(names))
    for record in records:
        assert "seconds" in record or record.get("status") == "skipped"


def test_no_serial_fallback_reported_as_a_speedup():
    # ``jobs`` is the effective worker count; a request the runner
    # resolved to a serial run on a small host is not a parallel speedup.
    payload = json.loads((ROOT / "BENCH_parallel.json").read_text())
    for record in payload["records"]:
        assert record["jobs"] <= payload["cpu_count"]
        if record["jobs"] == 1 and record["requested_jobs"] != 1:
            assert "speedup_vs_serial" not in record
