"""The detection experiment: §8's 10,000-run FP/FN study, vectorized.

Running 10,000 independent event-driven simulations of up to 6x10^5
packets each is far beyond laptop-Python budgets. Instead we use the
exact per-round outcome distributions of :mod:`repro.protocols.models`
(cross-validated against the wire simulator): for each run and each
inter-checkpoint block we draw a multinomial over outcome categories and
apply the protocol's scoring semantics with numpy, reproducing the score
boards of thousands of wire runs in milliseconds.

The statistical FL baseline has no per-round category distribution; its
runs are simulated by binomial thinning of per-node arrival counts plus
binomial counter sampling — again exact with respect to the wire
semantics, up to report-collection staleness of at most one interval.

This engine is :class:`ModelBackend`, the ``model`` entry of the
backend seam (:mod:`repro.net.backend`); :class:`DetectionExperiment`
drives it and the two wire engines alike.

Run batches **shard**: the runs split into contiguous chunks of at most
:data:`DEFAULT_SHARD_RUNS`, the backend's :meth:`~ModelBackend.split`
gives each chunk its request (model chunks are seeded independently
from the root seed via :func:`repro.parallel.shard_seed`), and the chunk
results are concatenated in shard order. The decomposition depends only
on ``(runs, shards)`` — never on worker count — so ``run(jobs=N)``
produces byte-identical output for every ``N``, and a sharded batch can
fan out over a process pool for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.metrics.confusion import FpFnCurve, curve_from_convictions
from repro.metrics.convergence import first_exact_round
from repro.net.backend import (
    BackendRunResult,
    DetectionRequest,
    SimulationBackend,
    check_checkpoints,
    get_backend,
)
from repro.obs.ledger import get_ledger
from repro.obs.profile import phase as profile_phase
from repro.parallel.engine import run_tasks, shard_seed, shard_sizes
from repro.protocols import models
from repro.workloads.scenarios import Scenario

#: Target runs per shard: small enough that full-scale batches decompose
#: into many parallelizable chunks, large enough that batches at or below
#: this size take the single-shard path (identical to the historical
#: single-generator behavior).
DEFAULT_SHARD_RUNS = 256


def resolve_shards(runs: int, shards: Optional[int] = None) -> int:
    """Shard count for a batch: explicit, or ``ceil(runs / 256)`` by
    default. Deterministic in ``runs`` alone — worker count never enters."""
    if shards is None:
        return max(1, math.ceil(runs / DEFAULT_SHARD_RUNS))
    if shards <= 0:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    return min(shards, runs)


def default_checkpoints(horizon: int, points: int = 30) -> List[int]:
    """Log-spaced packet-count checkpoints (Figure 2 uses log axes)."""
    if horizon < 10:
        raise ConfigurationError("horizon too small")
    raw = np.unique(
        np.geomspace(10, horizon, num=points).astype(np.int64)
    )
    return [int(x) for x in raw]


def resolve_checkpoints(
    horizon: int, checkpoints: Optional[Sequence[int]] = None
) -> List[int]:
    """The checkpoint grid of a ``horizon``-packet run: ``checkpoints``
    as given, or :func:`default_checkpoints` when None. An empty,
    non-ascending, non-positive or beyond-horizon list is a
    configuration error, as it is for ``DetectionRequest``."""
    if checkpoints is None:
        return default_checkpoints(horizon)
    return check_checkpoints(horizon, checkpoints)


class ModelBackend(SimulationBackend):
    """Closed-form engine: the per-round outcome models, vectorized over
    all runs of a request with one numpy generator."""

    name = "model"

    def split(
        self, request: DetectionRequest, sizes: Sequence[int]
    ) -> List[DetectionRequest]:
        """One shard draws from the root seed; more draw from seeds
        derived per shard index (``label="mc-shard"``). A fault schedule
        is a configuration error: the models cannot express one."""
        if request.faults is not None:
            raise ConfigurationError(
                "fault schedules require a wire backend "
                "(backend='fastpath' or 'event')"
            )
        if len(sizes) == 1:
            return [request]
        return [
            replace(part, seed=shard_seed(request.seed, index, label="mc-shard"))
            for index, part in enumerate(super().split(request, sizes))
        ]

    def run(self, request: DetectionRequest) -> BackendRunResult:
        with profile_phase("scoring"):
            if request.protocol == "statfl":
                convictions, estimates = self._run_statfl(request)
            else:
                convictions, estimates = self._run_modelled(request)
        return BackendRunResult(
            convictions=convictions,
            estimates_last=estimates,
            engines=[self.name] * request.runs,
        )

    @staticmethod
    def trajectory(
        model: models.OutcomeModel,
        rng: np.random.Generator,
        checkpoints: Sequence[int],
        runs: int,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Score ``runs`` independent runs of ``model`` up to each checkpoint.

        Yields ``(estimates (runs, d), rounds (runs,))`` per checkpoint.
        Each inter-checkpoint block draws one multinomial over the outcome
        categories per run; sampled protocols first thin the block's packets
        to observation rounds with a binomial (a run that draws no rounds
        in a block consumes no multinomial draws).
        """
        d = model.path_length
        pvals = model.probabilities
        score_matrix = model.score_matrix()  # (d+1, d)
        scores = np.zeros((runs, d), dtype=np.int64)
        rounds = np.zeros(runs, dtype=np.int64)
        previous = 0
        for checkpoint in checkpoints:
            block = checkpoint - previous
            previous = checkpoint
            if block > 0:
                if model.rounds_per_packet >= 1.0:
                    # A scalar trial count is several times cheaper per call
                    # than an array of equal counts, with the same draws.
                    counts = rng.multinomial(block, pvals, size=runs)
                    rounds = rounds + block
                else:
                    block_rounds = rng.binomial(
                        block, model.rounds_per_packet, size=runs
                    )
                    counts = rng.multinomial(block_rounds, pvals)
                    rounds = rounds + block_rounds
                scores += (counts @ score_matrix).astype(np.int64)
            estimates = ModelBackend._estimates(scores, rounds, model.kind, d)
            yield estimates, rounds

    @staticmethod
    def _run_modelled(request: DetectionRequest):
        scenario = request.scenario
        params = scenario.params
        f, b_ack, b_report = scenario.model_rates()
        model = models.build_model(request.protocol, f, b_ack, b_report, params)
        thresholds = np.asarray(
            models.decision_thresholds(request.protocol, params)
        )
        convictions = np.zeros(
            (len(request.checkpoints), request.runs, params.path_length),
            dtype=bool,
        )
        trajectory = ModelBackend.trajectory(
            model,
            np.random.default_rng(request.seed),
            request.checkpoints,
            request.runs,
        )
        for index, (estimates, _) in enumerate(trajectory):
            convictions[index] = estimates > thresholds[None, :]
        return convictions, estimates

    @staticmethod
    def _estimates(scores, rounds, kind, d):
        safe_rounds = np.maximum(rounds, 1)[:, None].astype(float)
        if kind == models.KIND_BLAME:
            return scores / safe_rounds
        # Interval scoring: cumulative difference estimator, vectorized.
        padded = np.concatenate(
            [scores, np.zeros((scores.shape[0], 1), dtype=scores.dtype)], axis=1
        )
        cumulative = d * (padded[:, :-1] - padded[:, 1:]) / safe_rounds
        shifted = np.concatenate(
            [np.zeros((scores.shape[0], 1)), cumulative[:, :-1]], axis=1
        )
        return np.maximum(0.0, cumulative - shifted)

    # -- statistical FL -----------------------------------------------------------

    @staticmethod
    def _run_statfl(request: DetectionRequest):
        scenario = request.scenario
        params = scenario.params
        d = params.path_length
        runs = request.runs
        sampling = request.fl_sampling
        rng = np.random.default_rng(request.seed)
        forward = np.asarray(scenario.forward_link_rates())
        thresholds = np.asarray(models.decision_thresholds("statfl", params))
        # Cumulative arrivals per node 0..d and sampled-counter values.
        arrivals = np.zeros((runs, d + 1), dtype=np.int64)
        counters = np.zeros((runs, d), dtype=np.int64)  # nodes 1..d
        convictions = np.zeros((len(request.checkpoints), runs, d), dtype=bool)
        estimates = np.zeros((runs, d))

        previous = 0
        for index, checkpoint in enumerate(request.checkpoints):
            block = checkpoint - previous
            previous = checkpoint
            if block > 0:
                new_arrivals = np.full(runs, block, dtype=np.int64)
                arrivals[:, 0] += new_arrivals
                for link in range(d):
                    new_arrivals = rng.binomial(new_arrivals, 1.0 - forward[link])
                    arrivals[:, link + 1] += new_arrivals
                    counters[:, link] += rng.binomial(
                        new_arrivals, 0.0 + sampling
                    )
            # Survival fractions: node 0 exact, nodes 1..d from counters.
            sent = np.maximum(arrivals[:, 0], 1).astype(float)
            fractions = np.concatenate(
                [np.ones((runs, 1)), counters / (sampling * sent[:, None])],
                axis=1,
            )
            upstream = np.maximum(fractions[:, :-1], 1e-12)
            estimates = np.maximum(0.0, 1.0 - fractions[:, 1:] / upstream)
            convictions[index] = estimates > thresholds[None, :]
        return convictions, estimates


@dataclass
class DetectionResult:
    """Everything the Figure 2 / Table 2 experiments need.

    Attributes
    ----------
    curve:
        FP/FN rates over time.
    convictions:
        Boolean tensor ``(checkpoints, runs, links)``.
    estimates_last:
        Per-link estimates at the final checkpoint, shape
        ``(runs, links)`` — used for distributional sanity checks.
    """

    protocol: str
    checkpoints: List[int]
    curve: FpFnCurve
    convictions: np.ndarray
    estimates_last: np.ndarray
    malicious_links: List[int] = field(default_factory=list)
    #: Execution backend the experiment selected (model, fastpath or
    #: event).
    backend: str = ModelBackend.name
    #: Engine that actually produced each run. Wire backends may fall
    #: back per request (e.g. fastpath routes fault schedules to the
    #: event engine), so this is the audit trail.
    engines: List[str] = field(default_factory=list)
    #: Why runs fell back to the event engine (empty when none did).
    reasons: List[str] = field(default_factory=list)

    def convergence_packets(self, sigma: float) -> Optional[int]:
        return self.curve.convergence_packets(sigma)

    def engine_counts(self) -> Dict[str, int]:
        """Runs per engine that produced them, by engine name."""
        return {name: self.engines.count(name) for name in sorted(set(self.engines))}

    def average_detection_packets(self) -> float:
        """Mean per-run packets to a stable exact verdict (Table 2's
        'average'); runs that never converge count at the horizon."""
        first = first_exact_round(
            self.checkpoints, self.convictions, self.malicious_links
        )
        horizon = self.checkpoints[-1]
        resolved = np.where(first < 0, horizon, first)
        return float(resolved.mean())

    def per_link_error_rates(self) -> np.ndarray:
        """Per-link verdict error rate at each checkpoint.

        Shape ``(checkpoints, links)``: for an honest link, the fraction
        of runs convicting it (its false-positive rate); for a malicious
        link, the fraction of runs *not* convicting it (its
        false-negative rate). This is what Figure 2(c) plots per link:
        under PAAI-2's interval scoring, links farther from the source
        take visibly longer to settle.
        """
        malicious = np.zeros(self.convictions.shape[2], dtype=bool)
        for index in self.malicious_links:
            malicious[index] = True
        errors = self.convictions.mean(axis=1)  # conviction frequency
        errors = np.where(malicious[None, :], 1.0 - errors, errors)
        return errors


class DetectionExperiment:
    """Multi-run detection-rate experiment for one protocol.

    Parameters
    ----------
    protocol:
        Registry name.
    scenario:
        Evaluation scenario (parameters + adversary placement).
    runs:
        Number of independent simulated runs (the paper uses 10,000).
    horizon:
        Total data packets per run.
    checkpoints:
        Packet counts at which verdicts are evaluated; defaults to a
        log-spaced grid up to the horizon.
    seed:
        Seed for the numpy generator.
    fl_sampling / fl_interval:
        Statistical FL parameters (ignored for other protocols).
    shards:
        Number of run chunks; ``None`` (default) resolves via
        :func:`resolve_shards`. The backend's ``split`` decides how each
        chunk is seeded.
    backend:
        Execution engine, resolved by :func:`~repro.net.backend.get_backend`:
        ``model`` (closed-form outcome models, :class:`ModelBackend`,
        the default), ``fastpath`` (vectorized wire replay with
        automatic event fallback), or ``event`` (full discrete-event
        simulation).
    faults:
        Optional fault schedule, only supported by the wire backends
        (the closed-form models cannot express fault injection).
    """

    def __init__(
        self,
        protocol: str,
        scenario: Scenario,
        runs: int = 1000,
        horizon: int = 10_000,
        checkpoints: Optional[Sequence[int]] = None,
        seed: int = 0,
        fl_sampling: float = 0.01,
        shards: Optional[int] = None,
        fl_interval: int = 1000,
        backend: str = "model",
        faults=None,
    ) -> None:
        self.request = DetectionRequest(
            protocol=protocol,
            scenario=scenario,
            runs=runs,
            horizon=horizon,
            checkpoints=(
                default_checkpoints(horizon) if checkpoints is None
                else checkpoints
            ),
            seed=seed,
            fl_sampling=fl_sampling,
            fl_interval=fl_interval,
            faults=faults,
        )
        self.backend = backend
        self.shards = resolve_shards(runs, shards)
        self._parts = get_backend(backend).split(
            self.request, shard_sizes(runs, self.shards)
        )

    @property
    def checkpoints(self) -> List[int]:
        return self.request.checkpoints

    # -- public API ----------------------------------------------------------

    def run(self, jobs: int = 1) -> DetectionResult:
        """Execute the batch; ``jobs`` workers process shards concurrently.

        The result is identical for every ``jobs`` value: the backend's
        ``split`` fixes each shard's request, and shard results are
        concatenated in shard order, so parallelism only changes
        wall-clock time.
        """
        request = self.request
        if len(self._parts) == 1:
            parts = [get_backend(self.backend).run(self._parts[0])]
        else:
            parts = run_tasks(
                _run_detection_shard,
                [(self.backend, part) for part in self._parts],
                jobs=jobs,
            )
        convictions = np.concatenate([part.convictions for part in parts], axis=1)
        estimates = np.concatenate([part.estimates_last for part in parts], axis=0)
        engines = [engine for part in parts for engine in part.engines]
        reasons = sorted({reason for part in parts for reason in part.reasons})
        malicious_links = request.scenario.malicious_links
        with profile_phase("conviction"):
            curve = curve_from_convictions(
                request.checkpoints, convictions, malicious_links
            )
        ledger = get_ledger()
        if ledger.enabled:
            ledger.record(
                "experiment",
                protocol=request.protocol,
                runs=request.runs,
                horizon=request.horizon,
                seed=request.seed,
                shards=self.shards,
                backend=self.backend,
                malicious_links=malicious_links,
                final_false_positive=float(curve.fp_rates[-1]),
                final_false_negative=float(curve.fn_rates[-1]),
                engine_fallbacks=reasons,
            )
        return DetectionResult(
            protocol=request.protocol,
            checkpoints=request.checkpoints,
            curve=curve,
            convictions=convictions,
            estimates_last=estimates,
            malicious_links=malicious_links,
            backend=self.backend,
            engines=engines,
            reasons=reasons,
        )


def _run_detection_shard(payload) -> BackendRunResult:
    """Run one ``(backend name, request)`` shard, possibly in a worker.

    Module-level so payloads pickle by reference."""
    name, request = payload
    return get_backend(name).run(request)
