"""Execution-backend seam for detection experiments.

Detection experiments select one of three engines by name through
:func:`get_backend`; each is a :class:`SimulationBackend` that turns a
:class:`DetectionRequest` into a :class:`BackendRunResult`:

``model``
    Closed-form Monte-Carlo outcome models
    (:class:`repro.mc.detection.ModelBackend`) — the default for
    figure2/table2, and the engine of the paper's 10,000-run study.
``event``
    The full discrete-event engine (:class:`EventBackend`): one
    :class:`~repro.net.simulator.Simulator` per run, real packets on real
    links. Slow (~30-50k events/sec) but handles every scenario,
    including fault schedules and bidirectional adversaries.
``fastpath``
    The vectorized round replay (:mod:`repro.net.fastpath`): same
    ``RngFactory`` streams, same per-stream draw order, byte-identical
    detection outcomes — 10-100x faster. Requests it cannot replay
    exactly (fault schedules, unported protocols, adversarial timing
    knobs) automatically fall back to :class:`EventBackend`; the engine
    actually used is recorded per run in
    :attr:`BackendRunResult.engines`.

Each backend also owns its shard rule, :meth:`SimulationBackend.split`:
the wire engines keep the root seed and partition the run-index space,
the model engine seeds each shard independently.

Both wire backends drive traffic with the same serialized-round schedule
(:func:`wire_send_interval`): rounds are spaced widely enough that every
round's packets, probes, reports, and timers fully resolve before the
next round starts, which is what makes the per-round fast replay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.ledger import get_ledger
from repro.obs.profile import phase as profile_phase
from repro.parallel.engine import shard_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.spec import FaultSpec
    from repro.workloads.scenarios import Scenario

#: Engine names :func:`get_backend` resolves.
BACKEND_NAMES = ("model", "fastpath", "event")

#: Label used to derive the per-run root seed from the experiment seed.
RUN_SEED_LABEL = "wire-run"


def wire_send_interval(params) -> float:
    """Send spacing that keeps wire rounds strictly serialized.

    A round's whole lifecycle — data transit, e2e ack, probe after the
    ``1.05 r0`` ack timer, report cascade, and all hold/report timers —
    resolves within ``< 5.5 r0`` of the send (plus the probe delay twice,
    for the delayed-sampling variants where the probe itself trails by
    ``probe_delay`` and arms its own ``1.05 r0`` timer). Spacing sends by
    ``6 r0 + 2 probe_delay`` therefore guarantees no two rounds ever
    share in-flight state, so per-link/per-adversary RNG streams are
    consumed in whole-round bursts — the invariant the fastpath replay
    depends on.
    """
    return 6.0 * params.r0 + 2.0 * params.probe_delay


def check_checkpoints(horizon: int, checkpoints: Sequence[int]) -> List[int]:
    """``checkpoints`` as a list of ints, or a configuration error when it
    is empty, non-ascending, non-positive or beyond ``horizon``."""
    resolved = [int(checkpoint) for checkpoint in checkpoints]
    if not resolved:
        raise ConfigurationError("checkpoints must not be empty")
    if sorted(resolved) != resolved:
        raise ConfigurationError("checkpoints must be ascending")
    if resolved[0] <= 0:
        raise ConfigurationError("checkpoints must be positive")
    if resolved[-1] > horizon:
        raise ConfigurationError("checkpoints exceed horizon")
    return resolved


def run_seed(experiment_seed: int, run_index: int) -> int:
    """Root seed for one wire run (shared by both wire backends)."""
    return shard_seed(experiment_seed, run_index, label=RUN_SEED_LABEL)


@dataclass
class DetectionRequest:
    """Everything a backend needs to produce detection outcomes."""

    protocol: str
    scenario: "Scenario"
    runs: int
    horizon: int
    checkpoints: Sequence[int]
    seed: int
    fl_sampling: float = 0.01
    fl_interval: int = 1000
    faults: Optional["FaultSpec"] = None
    #: Absolute index of the first run. Per-run seeds are derived from
    #: ``(seed, run_offset + i)``, so a sharded batch that splits runs
    #: into contiguous offset ranges reproduces the unsharded batch
    #: byte-for-byte.
    run_offset: int = 0

    def __post_init__(self) -> None:
        if self.runs <= 0:
            raise ConfigurationError(f"runs must be positive, got {self.runs}")
        if self.run_offset < 0:
            raise ConfigurationError(
                f"run_offset must be non-negative, got {self.run_offset}"
            )
        self.checkpoints = check_checkpoints(self.horizon, self.checkpoints)
        from repro.protocols.statfl import check_sketch_parameters

        check_sketch_parameters(self.fl_sampling, self.fl_interval)


@dataclass
class BackendRunResult:
    """Per-run detection outcomes produced by a backend.

    Attributes
    ----------
    convictions:
        ``(len(checkpoints), runs, path_length)`` boolean array: per
        checkpoint, per run, which links exceed the decision threshold.
    estimates_last:
        ``(runs, path_length)`` per-link loss estimates at the final
        checkpoint.
    engines:
        Engine actually used for each run (``"model"``, ``"fastpath"``
        or ``"event"``) — the audit trail proving fallback routing.
    reasons:
        Why runs fell back to the event engine (empty when none did).
    """

    convictions: np.ndarray
    estimates_last: np.ndarray
    engines: List[str]
    reasons: List[str] = field(default_factory=list)


class SimulationBackend:
    """A strategy that executes detection runs."""

    name = "abstract"

    def split(
        self, request: DetectionRequest, sizes: Sequence[int]
    ) -> List[DetectionRequest]:
        """One request per shard of ``sizes`` runs, in shard order.

        The wire rule: every shard keeps the root seed and ``run_offset``
        partitions the run-index space, so any decomposition reproduces
        the unsharded batch byte-for-byte.
        """
        offsets = accumulate(sizes[:-1], initial=request.run_offset)
        return [
            replace(request, runs=size, run_offset=offset)
            for size, offset in zip(sizes, offsets)
        ]

    def run(self, request: DetectionRequest) -> BackendRunResult:
        raise NotImplementedError


def _protocol_kwargs(request: DetectionRequest) -> dict:
    if request.protocol == "statfl":
        return {
            "fl_sampling": request.fl_sampling,
            "interval_length": request.fl_interval,
        }
    return {}


class RunLedgerScribe:
    """Emits one wire run's evidence chain into the active ledger.

    Shared by both wire engines so their ledgers compare byte-identical
    at the same seed: entries carry only seed-derived quantities (never
    engine identity or wall-clock), and the emission order is fixed —
    ``run_start``, then per checkpoint a ``checkpoint`` entry followed by
    ``accusation``/``exoneration`` diffs against the previous checkpoint,
    then the final ``verdict`` scored against the scenario ground truth.
    """

    __slots__ = ("_ledger", "enabled", "run", "_thresholds", "_previous",
                 "_malicious")

    def __init__(
        self, request: DetectionRequest, run_index: int, thresholds
    ) -> None:
        self._ledger = get_ledger()
        self.enabled = self._ledger.enabled
        if not self.enabled:
            return
        self.run = request.run_offset + run_index
        self._thresholds = [float(value) for value in thresholds]
        self._malicious = sorted(request.scenario.malicious_links)
        self._previous: List[int] = []
        self._ledger.record(
            "run_start",
            run=self.run,
            protocol=request.protocol,
            seed=run_seed(request.seed, self.run),
            path_length=request.scenario.params.path_length,
            horizon=request.horizon,
            thresholds=self._thresholds,
            malicious_links=self._malicious,
        )

    def checkpoint(self, checkpoint: int, estimates, convicted_mask) -> None:
        """Record one checkpoint evaluation plus its conviction diffs."""
        if not self.enabled:
            return
        values = [float(value) for value in estimates]
        convicted = [
            index for index, hit in enumerate(convicted_mask) if hit
        ]
        self._ledger.record(
            "checkpoint",
            run=self.run,
            checkpoint=checkpoint,
            estimates=values,
            convicted=convicted,
        )
        for link in convicted:
            if link not in self._previous:
                self._ledger.record(
                    "accusation",
                    run=self.run,
                    checkpoint=checkpoint,
                    link=link,
                    estimate=values[link],
                    threshold=self._thresholds[link],
                    margin=values[link] - self._thresholds[link],
                )
        for link in self._previous:
            if link not in convicted:
                self._ledger.record(
                    "exoneration",
                    run=self.run,
                    checkpoint=checkpoint,
                    link=link,
                    estimate=values[link],
                    threshold=self._thresholds[link],
                )
        self._previous = convicted

    def verdict(self, checkpoint: int) -> None:
        """Score the final conviction set against ground truth."""
        if not self.enabled:
            return
        convicted = set(self._previous)
        truth = set(self._malicious)
        self._ledger.record(
            "verdict",
            run=self.run,
            checkpoint=checkpoint,
            convicted=convicted,
            false_positives=convicted - truth,
            false_negatives=truth - convicted,
            exact=convicted == truth,
        )


def run_event_detection(
    request: DetectionRequest, run_index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One event-engine run: ``(convictions (C, d) bool, estimates (d,))``.

    Drives ``checkpoints[-1]`` serialized rounds and reads the source's
    estimates mid-gap (``0.5 r0`` before each checkpoint round starts),
    when every prior round has fully resolved.
    """
    from repro.net.simulator import Simulator

    params = request.scenario.params
    with profile_phase("setup"):
        simulator = Simulator(
            seed=run_seed(request.seed, request.run_offset + run_index)
        )
        protocol = request.scenario.build_protocol(
            request.protocol, simulator, **_protocol_kwargs(request)
        )
        if request.faults is not None:
            from repro.faults import install_faults

            install_faults(protocol.path, request.faults)
        interval = wire_send_interval(params)
        start = simulator.now
        source = protocol.source
        for index in range(request.checkpoints[-1]):
            simulator.schedule_at(start + index * interval, source.send_data)
        thresholds = np.asarray(protocol.decision_thresholds())
    scribe = RunLedgerScribe(request, run_index, thresholds)
    convictions = np.zeros(
        (len(request.checkpoints), params.path_length), dtype=bool
    )
    estimates = np.zeros(params.path_length)
    for slot, checkpoint in enumerate(request.checkpoints):
        with profile_phase("wire-replay"):
            simulator.run(
                until=start + checkpoint * interval - 0.5 * params.r0
            )
        with profile_phase("scoring"):
            estimates = np.asarray(source.estimates())
        with profile_phase("conviction"):
            convictions[slot] = estimates > thresholds
            scribe.checkpoint(checkpoint, estimates, convictions[slot])
    scribe.verdict(request.checkpoints[-1])
    return convictions, estimates


class EventBackend(SimulationBackend):
    """Reference engine: one full discrete-event simulation per run."""

    name = "event"

    def run(self, request: DetectionRequest) -> BackendRunResult:
        params = request.scenario.params
        convictions = np.zeros(
            (len(request.checkpoints), request.runs, params.path_length),
            dtype=bool,
        )
        estimates_last = np.zeros((request.runs, params.path_length))
        for run_index in range(request.runs):
            run_conv, run_est = run_event_detection(request, run_index)
            convictions[:, run_index, :] = run_conv
            estimates_last[run_index] = run_est
        return BackendRunResult(
            convictions=convictions,
            estimates_last=estimates_last,
            engines=["event"] * request.runs,
        )


def get_backend(name: str) -> SimulationBackend:
    """Resolve a backend by name (one of :data:`BACKEND_NAMES`)."""
    if name == "event":
        return EventBackend()
    if name == "fastpath":
        from repro.net.fastpath import FastpathBackend

        return FastpathBackend()
    if name == "model":
        from repro.mc.detection import ModelBackend

        return ModelBackend()
    raise ConfigurationError(
        f"unknown backend {name!r}; expected one of: "
        + ", ".join(BACKEND_NAMES)
    )
