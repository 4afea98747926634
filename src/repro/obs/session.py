"""One observability session: registry, ledger, profiler, span collector.

The parts' ``get_*`` accessors read one process-wide holder
(:data:`repro.obs.registry.ACTIVE`). :func:`repro.parallel.run_tasks`
runs each task of a live session under :meth:`Session.fresh` and absorbs
its :meth:`Session.capture` in payload order, so the telemetry is the
same for every ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.ledger import NULL_LEDGER, EvidenceLedger
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.registry import ACTIVE, NULL_REGISTRY, MetricsRegistry, using_session
from repro.obs.tracing import RoundTraceCollector


@dataclass
class Session:
    """The four parts active together; each defaults to its disabled
    null object (for the collector, ``None``: no path attaches)."""

    registry: MetricsRegistry = NULL_REGISTRY
    ledger: EvidenceLedger = NULL_LEDGER
    profiler: PhaseProfiler = NULL_PROFILER
    collector: Optional[RoundTraceCollector] = None

    @property
    def live(self) -> bool:
        return (self.registry.enabled or self.ledger.enabled
                or self.profiler.enabled or self.collector is not None)

    def fresh(self) -> "Session":
        """An empty session with the same parts enabled (and the same
        ledger and collector capacities)."""
        if not self.live:
            return NULL_SESSION
        fresh = Session()
        if self.registry.enabled:
            fresh.registry = MetricsRegistry()
        if self.ledger.enabled:
            fresh.ledger = EvidenceLedger(self.ledger._capacity)
        if self.profiler.enabled:
            fresh.profiler = PhaseProfiler(fresh.registry)
        if self.collector is not None:
            fresh.collector = RoundTraceCollector(self.collector._capacity)
        return fresh

    def capture(self) -> Tuple:
        """What this session recorded, as plain picklable parts."""
        collector = self.collector
        return (
            self.registry.snapshot(),
            (self.ledger.entries(), self.ledger.dropped),
            (collector.spans(), collector.attached, collector.evicted)
            if collector is not None else None,
        )

    def absorb(self, captured: Tuple) -> None:
        """Fold in a same-shaped task session's :meth:`capture`: merge
        its registry snapshot, re-record its ledger entries, append its
        spans."""
        snapshot, ledger, spans = captured
        self.registry.merge(snapshot)
        self.ledger.absorb(*ledger)
        if spans is not None:
            self.collector.absorb(*spans)


#: The default session: every part disabled.
NULL_SESSION = Session()
ACTIVE.session = NULL_SESSION


def current() -> Session:
    return ACTIVE.session


def reset() -> None:
    """Make the null session active for good (a fresh pool worker)."""
    ACTIVE.session = NULL_SESSION


__all__ = ["Session", "NULL_SESSION", "current", "using_session", "reset"]
