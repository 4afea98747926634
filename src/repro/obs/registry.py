"""Process-wide metrics registry: counters, gauges, histograms.

The evaluation is entirely about *measuring* protocol behavior, so the
measurement plane is a first-class subsystem: every layer (engine, links,
nodes, crypto substrate, protocol agents) publishes metrics through one
registry with a uniform naming scheme and labeled series, exported as JSON
for the experiment/benchmark telemetry.

Design constraints, in order:

1. **Near-zero overhead when disabled.** The default registry is a shared
   :class:`NullRegistry` whose instruments are no-op singletons. Hot paths
   either hold one of those no-op instruments (a method call per event) or
   check ``registry.enabled`` (an attribute load per event) — there is no
   locking, no string formatting, and no dict lookup on the disabled path.
2. **Construction-time binding.** Instrumented objects fetch their
   instrument handles once, at construction, so the per-event cost with
   metrics enabled is a plain attribute increment. Install the registry
   (:func:`repro.obs.session.using_session` / :func:`using_registry`)
   *before* building simulators and protocols.
3. **Deterministic export.** Snapshots order series by (name, labels) so
   two runs of the same seed produce byte-identical JSON.

Metric names are dot-separated (``net.link.transmissions``); labels are
keyword arguments with string values (``link="0", kind="data"``).
See ``docs/OBSERVABILITY.md`` for the full metric catalog.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from types import SimpleNamespace
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError

#: Default histogram buckets for wall-clock timings (seconds): roughly
#: logarithmic from 1 microsecond to 1 second.
TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0,
)

#: Default buckets for simulated-time latencies (seconds): protocol rounds
#: resolve within a few worst-case round trips, i.e. well under a minute.
SIM_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0,
    10.0, 30.0, 60.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, store occupancy)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` are inclusive upper bounds in increasing order; an
    observation larger than the last bound lands in the overflow bucket.
    The histogram also tracks count/sum/min/max so exports can report a
    mean without retaining samples.
    """

    __slots__ = ("buckets", "counts", "overflow", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(buckets=(1.0,))

    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """A collection of named, labeled metric series.

    Requesting the same (name, labels) twice returns the same instrument
    — series *merge* rather than shadow, which is what lets many links or
    agents contribute to one aggregate series.
    """

    #: Fast-path flag: hot code checks this instead of isinstance().
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelItems, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelItems, Gauge]] = {}
        self._histograms: Dict[str, Dict[LabelItems, Histogram]] = {}
        self._histogram_buckets: Dict[str, Tuple[float, ...]] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        family = self._counters.setdefault(name, {})
        key = _label_key(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        family = self._gauges.setdefault(name, {})
        key = _label_key(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        family = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        instrument = family.get(key)
        if instrument is None:
            bounds = self._histogram_buckets.setdefault(
                name, tuple(float(b) for b in buckets)
            )
            instrument = family[key] = Histogram(bounds)
        return instrument

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every series (names, labels, and values)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._histogram_buckets.clear()

    def merge(self, other: Union["MetricsRegistry", dict]) -> None:
        """Fold another registry — or a :meth:`snapshot` dict — into this.

        Counters and histograms add; gauges take ``other``'s (newer)
        value. Used by the experiment runner to aggregate per-experiment
        registries into one run-level view, and by the parallel engine to
        fold worker snapshots (plain dicts shipped across the process
        boundary) back into the parent's registry. Merging is associative
        on the additive instruments, so merge order never changes counter
        or histogram totals.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for section in ("counters", "gauges", "histograms"):
            if section not in snapshot:
                raise ConfigurationError(
                    f"cannot merge: not a metrics snapshot (missing {section!r})"
                )
        for entry in snapshot["counters"]:
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snapshot["gauges"]:
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in snapshot["histograms"]:
            buckets = tuple(float(b) for b in entry["buckets"])
            mine = self.histogram(
                entry["name"], buckets=buckets, **entry["labels"]
            )
            if mine.buckets != buckets:
                raise ConfigurationError(
                    f"cannot merge histogram {entry['name']!r}: bucket mismatch"
                )
            for index, count in enumerate(entry["counts"]):
                mine.counts[index] += count
            mine.overflow += entry["overflow"]
            mine.count += entry["count"]
            mine.sum += entry["sum"]
            if entry["min"] is not None:
                mine.min = (
                    entry["min"] if mine.min is None
                    else min(mine.min, entry["min"])
                )
            if entry["max"] is not None:
                mine.max = (
                    entry["max"] if mine.max is None
                    else max(mine.max, entry["max"])
                )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Return a JSON-serializable view of every series.

        Series are sorted by (name, labels) so exports are deterministic.
        """
        counters = [
            {"name": name, "labels": dict(key), "value": counter.value}
            for name in sorted(self._counters)
            for key, counter in sorted(self._counters[name].items())
        ]
        gauges = [
            {"name": name, "labels": dict(key), "value": gauge.value}
            for name in sorted(self._gauges)
            for key, gauge in sorted(self._gauges[name].items())
        ]
        histograms = [
            {
                "name": name,
                "labels": dict(key),
                "buckets": list(histogram.buckets),
                "counts": list(histogram.counts),
                "overflow": histogram.overflow,
                "count": histogram.count,
                "sum": histogram.sum,
                "min": histogram.min,
                "max": histogram.max,
            }
            for name in sorted(self._histograms)
            for key, histogram in sorted(self._histograms[name].items())
        ]
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def snapshot_deterministic(self) -> dict:
        return deterministic_view(self.snapshot())

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    # -- convenience lookups (tests, summaries) ----------------------------

    def counter_value(self, name: str, **labels: str) -> int:
        """Value of one counter series, 0 when absent."""
        family = self._counters.get(name, {})
        instrument = family.get(_label_key(labels))
        return instrument.value if instrument is not None else 0

    def counter_total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        return sum(c.value for c in self._counters.get(name, {}).values())


class NullRegistry(MetricsRegistry):
    """The default, disabled registry: every instrument is a shared no-op.

    Instrumented code constructed while this registry is active pays one
    no-op method call per event — nothing is recorded, nothing allocates.
    """

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: str) -> Counter:
        return self._COUNTER

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._GAUGE

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._HISTOGRAM

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


def deterministic_view(snapshot: dict) -> dict:
    """The seed-reproducible projection of a metrics snapshot.

    Counters, gauges, and simulated-time histograms are pure functions of
    the experiment seed, but wall-clock histograms (the ones bucketed on
    :data:`TIME_BUCKETS`) observe real durations — their bucket spread,
    sum, and extrema vary run to run even at a fixed seed. This view
    keeps only each wall-clock histogram's observation ``count`` (which
    *is* deterministic), so two snapshots of the same seeded run — e.g. a
    serial and a parallel report — compare equal.
    """
    wall_clock = list(TIME_BUCKETS)
    histograms = []
    for entry in snapshot.get("histograms", []):
        if entry.get("buckets") == wall_clock:
            histograms.append(
                {
                    "name": entry["name"],
                    "labels": entry["labels"],
                    "count": entry["count"],
                }
            )
        else:
            histograms.append(entry)
    return {
        "counters": snapshot.get("counters", []),
        "gauges": snapshot.get("gauges", []),
        "histograms": histograms,
    }


#: The process-wide disabled registry (shared).
NULL_REGISTRY = NullRegistry()


#: Holder of the active :class:`repro.obs.session.Session` (that module
#: installs the null one); every ``get_*`` accessor of :mod:`repro.obs`
#: reads it per call.
ACTIVE = SimpleNamespace(session=None)


@contextmanager
def using_session(session) -> Iterator:
    """Make ``session`` the active session for a ``with`` block."""
    previous = ACTIVE.session
    ACTIVE.session = session
    try:
        yield session
    finally:
        ACTIVE.session = previous


@contextmanager
def using_part(name: str, part) -> Iterator:
    """The active session with part ``name`` swapped in for a ``with``
    block; yields that part."""
    with using_session(replace(ACTIVE.session, **{name: part})) as session:
        yield getattr(session, name)


def get_registry() -> MetricsRegistry:
    """The active session's registry (the null registry by default)."""
    return ACTIVE.session.registry


#: ``with using_registry(registry):`` swaps the session's registry.
using_registry = partial(using_part, "registry")


def metrics_enabled() -> bool:
    return ACTIVE.session.registry.enabled


class CounterBatch:
    """Accumulate labeled counter increments and flush them in one pass.

    Hot loops that would otherwise pay one ``Counter.inc()`` (plus a
    registry lookup for unbound instruments) per event can tally into a
    plain dict and publish each series with a single ``inc(n)``:

    >>> batch = CounterBatch()
    >>> for link in packets_per_link:            # doctest: +SKIP
    ...     batch.inc("net.link.transmissions", link=str(link))
    >>> batch.flush()                            # doctest: +SKIP

    Against a disabled registry every call is a cheap no-op, so the
    off-by-default observability path stays off the profile. The batch
    binds the registry active at construction time (mirroring how
    instruments are bound), so flushing inside a ``using_registry``
    block behaves the same as direct increments would.
    """

    __slots__ = ("_registry", "_pending")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._pending: Dict[Tuple[str, LabelItems], int] = {}

    @property
    def enabled(self) -> bool:
        """Whether increments are being recorded at all."""
        return self._registry.enabled

    def __len__(self) -> int:
        return len(self._pending)

    def inc(self, name: str, amount: int = 1, **labels: str) -> None:
        """Add ``amount`` to the pending total for ``(name, labels)``."""
        if not self._registry.enabled or amount == 0:
            return
        key = (name, _label_key(labels))
        self._pending[key] = self._pending.get(key, 0) + amount

    def flush(self) -> None:
        """Publish every pending series with one increment each."""
        if not self._pending:
            return
        for (name, items), amount in self._pending.items():
            self._registry.counter(name, **dict(items)).inc(amount)
        self._pending.clear()


__all__ = [
    "CounterBatch",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "TIME_BUCKETS",
    "SIM_LATENCY_BUCKETS",
    "deterministic_view",
    "get_registry",
    "using_registry",
    "metrics_enabled",
]
