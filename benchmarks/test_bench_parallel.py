"""Benchmark E-P1: serial vs parallel full-report wall clock.

Runs ``run_all`` at the same scale and seed for several ``jobs`` values
and records the wall-clock seconds per configuration. The conftest
session hook splits these records into ``BENCH_parallel.json`` together
with the host's CPU count and the measured speedup of each parallel
configuration against its serial baseline (speedup is only meaningful on
a multi-core host; the JSON records ``cpu_count`` so readers can judge).
Each record's ``jobs`` is the effective worker count and
``requested_jobs`` the request: on a host with fewer cores than asked
for, the runner falls back to a serial run, which is recorded as such.

Scales default to ``quick``; set ``BENCH_PARALLEL_SCALES`` (comma-
separated, e.g. ``"smoke,quick"``) to benchmark others.
"""

import contextlib
import os

import pytest

from repro.experiments.runner import (
    SCALES,
    OversubscriptionWarning,
    build_specs,
    resolve_jobs,
    run_all,
)

JOBS = (1, 2, 4)
BENCH_SCALES = [
    scale.strip()
    for scale in os.environ.get("BENCH_PARALLEL_SCALES", "quick").split(",")
    if scale.strip()
]
SEED = 0


@pytest.mark.parametrize("scale", BENCH_SCALES)
@pytest.mark.parametrize("jobs", JOBS)
def test_bench_report_parallel(benchmark, scale, jobs):
    assert scale in SCALES, f"unknown scale {scale!r}"
    # A request above the core count warns and runs serially (the
    # runner's contract); the record then carries jobs=1, not a speedup.
    oversubscribed = jobs > (os.cpu_count() or 1)
    with (
        pytest.warns(OversubscriptionWarning)
        if oversubscribed else contextlib.nullcontext()
    ):
        report = benchmark.pedantic(
            run_all,
            kwargs={"scale": scale, "seed": SEED, "jobs": jobs},
            rounds=1,
            iterations=1,
        )
        effective = resolve_jobs(jobs)
    benchmark.extra_info["jobs"] = report.jobs
    benchmark.extra_info["requested_jobs"] = jobs
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["seed"] = SEED
    benchmark.extra_info["experiments"] = len(report.records)
    assert report.requested_jobs == jobs
    assert report.jobs == effective
    # The report itself must be jobs-independent (names in spec order).
    assert [r.name for r in report.records] == [
        spec.name for spec in build_specs(scale, SEED)
    ]
