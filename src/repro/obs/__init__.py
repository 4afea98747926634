"""Unified observability layer.

Several pieces, built to the same rule — zero-cost when off, one JSON
file when on. The first four are active together as one
:class:`Session` (:mod:`repro.obs.session`).

* :mod:`repro.obs.registry` — the process-wide **metrics registry**:
  counters, gauges, and fixed-bucket histograms with labeled series,
  wired into the engine, links/nodes, the crypto substrate, and every
  protocol agent. Disabled by default (a shared no-op registry); activate
  a session with one before building a simulator.
* :mod:`repro.obs.tracing` — **round-level tracing spans** built on the
  public path/link hook API: every link and node event of a data packet's
  probe→ack→report lifecycle, grouped by packet identifier, exported as
  JSONL.
* :mod:`repro.obs.ledger` — the **evidence ledger**: an append-only
  record of every identification decision point (accusations,
  convictions, exonerations, bound evaluations, fault interference),
  byte-identical across execution engines at the same seed, and the
  substrate of ``repro-aai explain``.
* :mod:`repro.obs.profile` — the **phase profiler**: deterministic-safe
  monotonic phase timers (setup / wire-replay / scoring / conviction)
  exported through the registry snapshot. Off by default.
* :mod:`repro.obs.summary` / :mod:`repro.obs.capture` — loaders and
  renderers behind the CLI's ``--metrics-out`` / ``--trace-out`` flags
  and the ``repro obs summary`` subcommand.

See ``docs/OBSERVABILITY.md`` for the metric catalog and span schema.
"""

from repro.obs.ledger import (
    NULL_LEDGER,
    EvidenceLedger,
    NullLedger,
    get_ledger,
    read_ledger_jsonl,
    render_explanation,
    using_ledger,
)
from repro.obs.profile import (
    NULL_PROFILER,
    PIPELINE_PHASES,
    NullProfiler,
    PhaseProfiler,
    get_profiler,
    phase,
    using_profiler,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    SIM_LATENCY_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    metrics_enabled,
    using_registry,
)
from repro.obs.session import NULL_SESSION, Session, current, using_session
from repro.obs.tracing import (
    RoundSpan,
    RoundTraceCollector,
    get_collector,
    read_jsonl,
    using_collector,
)

__all__ = [
    "Session",
    "NULL_SESSION",
    "current",
    "using_session",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "TIME_BUCKETS",
    "SIM_LATENCY_BUCKETS",
    "get_registry",
    "using_registry",
    "metrics_enabled",
    "RoundSpan",
    "RoundTraceCollector",
    "get_collector",
    "using_collector",
    "read_jsonl",
    "EvidenceLedger",
    "NullLedger",
    "NULL_LEDGER",
    "get_ledger",
    "using_ledger",
    "read_ledger_jsonl",
    "render_explanation",
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "PIPELINE_PHASES",
    "get_profiler",
    "using_profiler",
    "phase",
]
