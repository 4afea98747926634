"""Shared fixtures for the benchmark suite.

Benchmarks regenerate each paper table/figure at reduced-but-meaningful
run counts (EXPERIMENTS.md records full-scale numbers). Heavy experiments
run once per benchmark (``pedantic`` with a single round) so the suite
stays in laptop budgets.

Every benchmark session also writes machine-readable telemetry to
``BENCH_observability.json`` at the repo root (overwritten per run): one
record per benchmark with its name, measured seconds, engine events
processed (benchmarks driven through ``once`` run under a fresh metrics
registry), and the scale/seed knobs it ran at.
"""

import json
import os
from pathlib import Path

import pytest

from repro.obs.registry import MetricsRegistry, using_registry

#: Telemetry output, at the repository root next to EXPERIMENTS.md.
BENCH_TELEMETRY_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_observability.json"
)

#: Parallel-engine telemetry: serial-vs-parallel wall clock + speedups.
BENCH_PARALLEL_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_parallel.json"
)

#: Fastpath-vs-event telemetry: per-workload wall clock for both wire
#: backends plus the measured speedup and the equivalence verdict.
BENCH_FASTPATH_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_fastpath.json"
)

#: Topology/mesh telemetry: netexp and mesh-wire wall clock per graph
#: family, with route/link counts and the fusion verdict quality.
BENCH_TOPOLOGY_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_topology.json"
)

#: Auditor telemetry: cold full-repo audit wall clock, with file and
#: finding counts.
BENCH_AUDIT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_audit.json"
)


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a heavy experiment with exactly one timed execution.

    The execution happens under a fresh metrics registry so the telemetry
    file can report how many engine events the experiment processed.
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
    # Only record the knobs the benchmark actually has — absent knobs
    # must not surface as null fields in the telemetry file.
    scale = (
        kwargs.get("runs") or kwargs.get("packets") or kwargs.get("count")
    )
    if scale is not None:
        benchmark.extra_info["scale"] = scale
    if kwargs.get("seed") is not None:
        benchmark.extra_info["seed"] = kwargs["seed"]
    return result


@pytest.fixture
def once():
    return run_once


def _write_parallel_telemetry(parallel_records):
    """``BENCH_parallel.json``: per-configuration wall clock plus the
    speedup of every parallel configuration over its serial (jobs=1)
    baseline at the same scale. ``cpu_count`` is recorded because the
    speedup is only meaningful relative to the cores available."""
    parallel_records.sort(
        key=lambda record: (record["scale"] or "", record["jobs"] or 0)
    )
    baselines = {
        record["scale"]: record["seconds"]
        for record in parallel_records
        if record["jobs"] == 1 and record["seconds"]
    }
    for record in parallel_records:
        baseline = baselines.get(record["scale"])
        record["speedup_vs_serial"] = (
            round(baseline / record["seconds"], 3)
            if baseline and record["seconds"] else None
        )
    payload = {
        "cpu_count": os.cpu_count(),
        "records": parallel_records,
    }
    with open(BENCH_PARALLEL_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pytest_sessionfinish(session, exitstatus):
    """Write one telemetry record per benchmark, stable key order.

    Benchmarks that declare a ``jobs`` worker count (the parallel-engine
    suite) split out into ``BENCH_parallel.json``; benchmarks that
    declare a ``backend`` (the fastpath equivalence suite) split out
    into ``BENCH_fastpath.json``; benchmarks that declare a
    ``topology`` (the mesh/netexp suite) split out into
    ``BENCH_topology.json``; benchmarks that declare an ``audit_mode``
    (the cold auditor run) split out into
    ``BENCH_audit.json``; everything else lands in
    ``BENCH_observability.json`` as before.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    records = []
    parallel_records = []
    fastpath_records = []
    topology_records = []
    audit_records = []
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        extra = getattr(bench, "extra_info", {}) or {}
        seconds = getattr(stats, "mean", None) if stats else None
        record = {
            "name": bench.name,
            "seconds": seconds,
            "scale": extra.get("scale"),
            "seed": extra.get("seed"),
        }
        if "jobs" in extra:
            record["jobs"] = extra["jobs"]
            record["experiments"] = extra.get("experiments")
            parallel_records.append(record)
        elif "backend" in extra:
            record.update(
                backend=extra["backend"],
                protocol=extra.get("protocol"),
                horizon=extra.get("horizon"),
                repeats=extra.get("repeats"),
                event_seconds=extra.get("event_seconds"),
                fastpath_seconds=extra.get("fastpath_seconds"),
                speedup=extra.get("speedup"),
                equivalent=extra.get("equivalent"),
                profiler_off_ratio=extra.get("profiler_off_ratio"),
            )
            fastpath_records.append(
                {k: v for k, v in record.items() if v is not None}
            )
        elif "audit_mode" in extra:
            record.update(
                mode=extra["audit_mode"],
                files=extra.get("files"),
                findings=extra.get("findings"),
            )
            audit_records.append(
                {k: v for k, v in record.items() if v is not None}
            )
        elif "topology" in extra:
            record.update(
                topology=extra["topology"],
                routes=extra.get("routes"),
                links=extra.get("links"),
                protocol=extra.get("protocol"),
                horizon=extra.get("horizon"),
                fusion_exact=extra.get("fusion_exact"),
                events_processed=extra.get("events_processed"),
            )
            topology_records.append(
                {k: v for k, v in record.items() if v is not None}
            )
        elif seconds is None:
            # Deselected/skipped benchmarks have no measurement: say so
            # explicitly instead of emitting a junk all-null record.
            records.append({"name": bench.name, "status": "skipped"})
        else:
            # Instrumented benchmarks (the ``once`` fixture) carry their
            # knobs in extra_info; plain analytic benchmarks carry none —
            # either way, only record fields that actually have values.
            record = {"name": bench.name, "seconds": seconds}
            for key in ("events_processed", "scale", "seed"):
                if extra.get(key) is not None:
                    record[key] = extra[key]
            records.append(record)
    if records:
        records.sort(key=lambda record: record["name"])
        with open(BENCH_TELEMETRY_PATH, "w") as handle:
            json.dump(records, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if parallel_records:
        _write_parallel_telemetry(parallel_records)
    if fastpath_records:
        fastpath_records.sort(key=lambda record: record["name"])
        payload = {"cpu_count": os.cpu_count(), "records": fastpath_records}
        with open(BENCH_FASTPATH_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if topology_records:
        topology_records.sort(key=lambda record: record["name"])
        payload = {"cpu_count": os.cpu_count(), "records": topology_records}
        with open(BENCH_TOPOLOGY_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if audit_records:
        audit_records.sort(key=lambda record: record["name"])
        payload = {"cpu_count": os.cpu_count(), "records": audit_records}
        with open(BENCH_AUDIT_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
