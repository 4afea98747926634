"""Deterministic-safe phase profiler for the detection pipeline.

The fastpath work (PR 6) made *wall-clock* a first-class output of the
repo — ``BENCH_fastpath.json`` records whole-run timings — but nothing
says *where* a run spends its time: path setup, wire replay, score
accumulation, or the conviction sweep. The phase profiler closes that gap
with coarse phase timers that follow the registry's rules:

1. **Off by default, near-zero when off.** The active profiler defaults
   to a shared :class:`NullProfiler` whose :meth:`~PhaseProfiler.phase`
   returns one shared no-op context manager — entering a phase on the
   disabled path is two method calls and no allocation.
2. **Sim-scope safe.** Simulation modules (``repro.net``, ``repro.mc``)
   must never read clocks directly (audit rule ST002); they call
   :func:`phase`, and the monotonic ``time.perf_counter`` read happens
   here, inside the telemetry scope where the audit allows it.
3. **Deterministic export.** Durations land in a wall-clock histogram on
   :data:`~repro.obs.registry.TIME_BUCKETS`, so
   :func:`~repro.obs.registry.deterministic_view` reduces them to their
   (seed-deterministic) observation counts — profiled runs still compare
   byte-identical across engines and worker layouts.
4. **Coarse by construction.** Phases wrap checkpoint- and run-level
   sections, never per-packet or per-round work, so the enabled overhead
   stays far below the noise floor of the things being measured.

Exported series (through the registry snapshot):

``profile.phase_seconds{phase=...}``
    Wall-clock histogram of each phase's duration.
``profile.phase_calls{phase=...}``
    How many times each phase ran (deterministic at fixed seed).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional

from repro.obs.registry import ACTIVE, MetricsRegistry, get_registry, using_part

#: The canonical pipeline phases instrumented by the shipped code.
PIPELINE_PHASES = ("setup", "wire-replay", "scoring", "conviction")


class _NullPhase:
    """Shared no-op context manager for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_PHASE = _NullPhase()


class _TimedPhase:
    """Times one phase entry and publishes it to the bound registry."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_TimedPhase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self._profiler._observe(self._name, elapsed)
        return None


class PhaseProfiler:
    """Publishes phase timings into a metrics registry.

    Binds the registry active at construction time (the same rule as
    instrumented simulator objects), so a profiler built inside a
    ``using_registry`` block exports through that registry even if the
    phase runs later.
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()

    def phase(self, name: str):
        """Context manager timing one entry of phase ``name``."""
        return _TimedPhase(self, name)

    def _observe(self, name: str, elapsed: float) -> None:
        self._registry.histogram(
            "profile.phase_seconds", phase=name
        ).observe(elapsed)
        self._registry.counter("profile.phase_calls", phase=name).inc()


class NullProfiler(PhaseProfiler):
    """The default, disabled profiler: phases are shared no-ops."""

    enabled = False

    def __init__(self) -> None:
        pass

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def _observe(self, name: str, elapsed: float) -> None:
        pass


#: The process-wide disabled profiler (shared).
NULL_PROFILER = NullProfiler()


def get_profiler() -> PhaseProfiler:
    """The active session's profiler (the null profiler by default)."""
    return ACTIVE.session.profiler


#: ``with using_profiler(profiler):`` swaps the session's profiler.
using_profiler = partial(using_part, "profiler")


def phase(name: str):
    """Time one entry of phase ``name`` on the active profiler.

    The sim-scope entry point: modules banned from reading clocks call
    this; with the null profiler active it returns a shared no-op.
    """
    return ACTIVE.session.profiler.phase(name)


__all__ = [
    "PIPELINE_PHASES",
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "get_profiler",
    "using_profiler",
    "phase",
]
