"""Shared fixtures for the benchmark suite.

Benchmarks time the engines, the crypto and observability primitives,
the parallel runner, the auditor and the topology suite. The paper's
numbers are not checked here: ``repro-aai report`` evaluates them as
claim rows (:mod:`repro.experiments.claims`), and its runtime breakdown
gives each experiment's seconds. Heavy workloads run once per benchmark
(``pedantic`` with a single round) so the suite stays in laptop budgets.

Every benchmark session also writes machine-readable telemetry to
``BENCH_*.json`` files at the repo root (each overwritten when the
session measured any of its benchmarks). Every file has one shape,
``{"cpu_count": ..., "records": [...]}``, and every record is the
benchmark's name, its measured seconds and its ``extra_info`` knobs
(benchmarks driven through ``once`` run under a fresh metrics registry
and report the engine events they processed). A record goes to the file
of the first routing key its ``extra_info`` carries (``BENCH_FILES``);
the rest land in ``BENCH_observability.json``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.obs.registry import MetricsRegistry, using_registry

#: Telemetry files live at the repository root, next to EXPERIMENTS.md.
ROOT = Path(__file__).resolve().parent.parent

#: ``extra_info`` routing key → telemetry file, checked in order:
#: parallel-engine runs (``jobs``), fastpath-vs-event timings
#: (``backend``), the cold auditor run (``audit_mode``) and the
#: netexp/mesh suite (``topology``).
BENCH_FILES = (
    ("jobs", "BENCH_parallel.json"),
    ("backend", "BENCH_fastpath.json"),
    ("audit_mode", "BENCH_audit.json"),
    ("topology", "BENCH_topology.json"),
)

#: File for every benchmark that carries no routing key.
DEFAULT_BENCH_FILE = "BENCH_observability.json"


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a heavy workload with exactly one timed execution.

    The execution happens under a fresh metrics registry so the telemetry
    file can report how many engine events the workload processed.
    """
    registry = MetricsRegistry()

    def instrumented(*call_args, **call_kwargs):
        with using_registry(registry):
            return func(*call_args, **call_kwargs)

    result = benchmark.pedantic(
        instrumented, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    benchmark.extra_info["events_processed"] = registry.counter_total(
        "sim.events"
    )
    return result


@pytest.fixture
def once():
    return run_once


def _bench_record(bench) -> dict:
    """One telemetry record: name, measured seconds and every non-null
    ``extra_info`` knob. Deselected/skipped benchmarks have no
    measurement and say so instead of emitting a junk all-null record."""
    stats = getattr(bench, "stats", None)
    seconds = getattr(stats, "mean", None) if stats else None
    if seconds is None:
        return {"name": bench.name, "status": "skipped"}
    extra = getattr(bench, "extra_info", {}) or {}
    record = {k: v for k, v in extra.items() if v is not None}
    record.update(name=bench.name, seconds=seconds)
    return record


def _add_speedups(records) -> None:
    """``speedup_vs_serial`` of each parallel-engine record against the
    serial run at the same scale. ``jobs`` is the effective worker count:
    a request the runner resolved to one worker is a serial fallback and
    gets no speedup."""
    serial = {
        record["scale"]: record["seconds"]
        for record in records
        if record.get("requested_jobs") == 1 and "seconds" in record
    }
    for record in records:
        baseline = serial.get(record.get("scale"))
        if not baseline or "seconds" not in record:
            continue
        if record["jobs"] > 1 or record["requested_jobs"] == 1:
            record["speedup_vs_serial"] = round(
                baseline / record["seconds"], 3
            )


def pytest_sessionfinish(session, exitstatus):
    """Write each telemetry file that has records, stable key order."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    files = {}
    for bench in bench_session.benchmarks:
        extra = getattr(bench, "extra_info", {}) or {}
        filename = next(
            (name for key, name in BENCH_FILES if key in extra),
            DEFAULT_BENCH_FILE,
        )
        files.setdefault(filename, []).append(_bench_record(bench))
    _add_speedups(files.get("BENCH_parallel.json", []))
    for filename, records in files.items():
        records.sort(key=lambda record: record["name"])
        payload = {"cpu_count": os.cpu_count(), "records": records}
        with open(ROOT / filename, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
