"""Deterministic parallel execution for experiments and Monte-Carlo runs.

The experiment harness has two embarrassingly parallel axes:

* the independent experiments of a full report
  (:func:`repro.experiments.runner.run_all` — ``report --jobs N``), and
* the independent runs of a Monte-Carlo batch
  (:class:`repro.mc.detection.DetectionExperiment`), which shard into
  per-worker chunks by their backend's ``split`` rule.

This package provides the process-pool engine behind both, built so that
**parallel output is identical to serial output at the same seed**: work
is decomposed deterministically (never by worker count), each unit owns a
derived seed, and results are reassembled in decomposition order.
See ``docs/PARALLEL.md``.
"""

from repro.parallel.engine import (
    RetryPolicy,
    default_jobs,
    resolve_jobs,
    run_tasks,
    run_tasks_completed,
    shard_seed,
    shard_sizes,
)

__all__ = [
    "RetryPolicy",
    "default_jobs",
    "resolve_jobs",
    "run_tasks",
    "run_tasks_completed",
    "shard_seed",
    "shard_sizes",
]
