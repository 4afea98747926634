"""The benchmark's three workloads.

Each workload is a closed loop with one client: :meth:`request` is the
timed call, and everything else (summaries, digests, correctness
re-runs) happens outside the timed region. Request ``i`` of a run with
seed ``s`` uses seed :func:`request_seed` ``(s, i)`` and the ``i``-th
entry of the workload's cycle, so the same seed gives the same inputs.

``repro`` is imported inside :meth:`setup`, which is what ``setup_s``
times in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional


def request_seed(seed: int, index: int) -> int:
    """Seed of request ``index`` in a run seeded with ``seed``."""
    return seed * 1_000_003 + index


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class Outcome:
    """What one request produced, summarised outside the timed region.

    ``material`` is the canonical verdict record hashed into the run's
    verdict digest; ``links_ok``/``links`` count per-link verdicts that
    match ground truth, ``exact``/``runs`` whole conviction sets that do.
    """

    packets: int = 0
    material: bytes = b""
    links_ok: int = 0
    links: int = 0
    exact: int = 0
    runs: int = 0
    problem: Optional[str] = None


def _final_verdicts(convictions, malicious_links):
    """``(links_ok, links, exact, runs)`` of a ``(runs, links)`` array."""
    import numpy as np

    truth = np.zeros(convictions.shape[1], dtype=bool)
    truth[list(malicious_links)] = True
    match = convictions == truth[None, :]
    return (
        int(match.sum()),
        int(match.size),
        int(match.all(axis=1).sum()),
        int(match.shape[0]),
    )


def _finite(values) -> bool:
    return all(math.isfinite(float(value)) for value in values)


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    cycle: tuple = ()
    #: Requests whose verdicts make up ``verdict_accuracy`` and the
    #: verdict digest; fixed, so both are exact at a fixed seed.
    verdict_requests = 0
    #: Whether the traced run adds a ``jobs=1`` pass over one cycle.
    serial_pass = False

    def __init__(self, tiny: bool, out_dir: str) -> None:
        self.tiny = tiny
        self.out_dir = out_dir
        self.seed = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed calls that finish lazy imports and caches."""

    def request(self, index: int, jobs: Optional[int] = None):
        raise NotImplementedError

    def summarize(self, index: int, raw) -> Outcome:
        raise NotImplementedError

    def final_checks(self, done: int) -> List[str]:
        """Sampled re-runs; returns one message per failed check."""
        return []


class StreamEvent(Workload):
    """One fresh event-engine path session per request (Figure 3a)."""

    name = "stream-event"
    cycle = ("paai1", "paai2", "full-ack")

    def __init__(self, tiny: bool, out_dir: str) -> None:
        super().__init__(tiny, out_dir)
        self.packets = 60 if tiny else 2000
        self.verdict_requests = 3 if tiny else 36
        self._materials: dict = {}

    def setup(self, seed: int) -> None:
        from repro.net.simulator import Simulator
        from repro.protocols.registry import protocol_class
        from repro.workloads.scenarios import paper_scenario

        for protocol in self.cycle:
            protocol_class(protocol)
        self.seed = seed
        self._simulator = Simulator
        self.scenario = paper_scenario()

    def warm(self) -> None:
        for index, protocol in enumerate(self.cycle):
            self._session(protocol, request_seed(self.seed, -1 - index), 50)

    def _session(self, protocol: str, seed: int, packets: int):
        simulator = self._simulator(seed)
        wire = self.scenario.build_protocol(protocol, simulator)
        wire.run_traffic(packets, rate=1000.0)
        return wire, simulator, wire.identify()

    def request(self, index: int, jobs: Optional[int] = None):
        protocol = self.cycle[index % len(self.cycle)]
        return self._session(protocol, request_seed(self.seed, index), self.packets)

    def summarize(self, index: int, raw) -> Outcome:
        wire, simulator, result = raw
        protocol = self.cycle[index % len(self.cycle)]
        links = self.scenario.params.path_length
        truth = set(self.scenario.malicious_links)
        material = json.dumps(
            [
                protocol,
                request_seed(self.seed, index),
                sorted(result.convicted),
                [float(value).hex() for value in result.estimates],
                result.rounds,
            ]
        ).encode()
        if index < self.verdict_requests:
            self._materials.setdefault(index, material)
        problem = None
        if wire.path.stats.data_sent != self.packets:
            problem = f"sent {wire.path.stats.data_sent} of {self.packets} packets"
        elif simulator.events_processed <= 0:
            problem = "no events processed"
        elif len(result.estimates) != links or not _finite(result.estimates):
            problem = f"bad estimates {result.estimates!r}"
        return Outcome(
            packets=self.packets,
            material=material,
            links_ok=sum((link in result.convicted) == (link in truth) for link in range(links)),
            links=links,
            exact=int(result.convicted == truth),
            runs=1,
            problem=problem,
        )

    def final_checks(self, done: int) -> List[str]:
        # Seed purity: a session re-run at its seed must repeat its
        # verdict and estimates byte for byte.
        index = random.Random(self.seed).randrange(min(done, self.verdict_requests))
        first = self._materials[index]
        if self.summarize(index, self.request(index)).material != first:
            return [f"session {index} is not reproducible at its seed"]
        return []


class DetectFastpath(Workload):
    """Fastpath detection batches, ledger and metrics on and exported.

    A request is one batch of each protocol, back to back. The four
    batch sizes differ up to fourfold, so one-batch latencies would form
    four clusters with the median falling between two of them.
    """

    name = "detect-fastpath"
    cycle = ("four-batches",)
    #: (runs, horizon) per protocol: the fastpath benchmark's sizes.
    SIZES = {
        "full-ack": (2, 2_000),
        "paai1": (1, 8_000),
        "statfl": (1, 8_000),
        "sig-ack": (2, 2_000),
    }

    def __init__(self, tiny: bool, out_dir: str) -> None:
        super().__init__(tiny, out_dir)
        self.verdict_requests = 1 if tiny else 20
        self._kept: dict = {}

    def setup(self, seed: int) -> None:
        from repro.mc.detection import DetectionExperiment
        from repro.obs.ledger import EvidenceLedger, using_ledger
        from repro.obs.registry import MetricsRegistry, using_registry
        from repro.protocols.registry import protocol_class
        from repro.workloads.scenarios import paper_scenario

        for protocol in self.SIZES:
            protocol_class(protocol)
        self.seed = seed
        self._experiment = DetectionExperiment
        self._ledger = EvidenceLedger
        self._registry = MetricsRegistry
        self._using_ledger = using_ledger
        self._using_registry = using_registry
        self.scenario = paper_scenario()
        os.makedirs(self.out_dir, exist_ok=True)
        self.ledger_out = os.path.join(self.out_dir, "detect-fastpath.ledger.jsonl")
        self.metrics_out = os.path.join(self.out_dir, "detect-fastpath.metrics.json")

    def warm(self) -> None:
        for protocol, (runs, _) in self.SIZES.items():
            self._batch(protocol, request_seed(self.seed, -1), runs, 100)

    def _batch(self, protocol: str, seed: int, runs: int, horizon: int):
        ledger = self._ledger()
        registry = self._registry()
        with self._using_ledger(ledger), self._using_registry(registry):
            result = self._experiment(
                protocol,
                self.scenario,
                runs=runs,
                horizon=horizon,
                seed=seed,
                backend="fastpath",
            ).run()
        ledger.write_jsonl(self.ledger_out)
        registry.write_json(self.metrics_out)
        return result, ledger

    def request(self, index: int, jobs: Optional[int] = None):
        seed = request_seed(self.seed, index)
        return [
            self._batch(protocol, seed, runs, 200 if self.tiny else horizon)
            for protocol, (runs, horizon) in self.SIZES.items()
        ]

    def summarize(self, index: int, raw) -> Outcome:
        if index < self.verdict_requests:
            self._kept.setdefault(index, raw)
        total = Outcome()
        for result, ledger in raw:
            runs = result.convictions.shape[1]
            lines = "\n".join(ledger.to_jsonl_lines())
            total.material += (
                result.convictions.tobytes()
                + result.estimates_last.tobytes()
                + lines.encode()
            )
            if result.engines != ["fastpath"] * runs:
                total.problem = f"{result.protocol} left the fast path: {result.reasons}"
            elif not lines:
                total.problem = f"{result.protocol}: empty evidence ledger"
            elif not _finite(result.estimates_last.ravel()):
                total.problem = f"{result.protocol}: non-finite estimates"
            links_ok, links, exact, runs = _final_verdicts(
                result.convictions[-1], self.scenario.malicious_links
            )
            total.packets += runs * result.checkpoints[-1]
            total.links_ok += links_ok
            total.links += links
            total.exact += exact
            total.runs += runs
        return total

    def final_checks(self, done: int) -> List[str]:
        # The fastpath<->event gate on one sampled run: the event engine
        # must reproduce the batch's convictions, estimates and ledger.
        # sig-ack is left out of the draw: its event engine spends ~17 s
        # per run on hash-based signatures.
        from repro.net.backend import DetectionRequest, get_backend

        rng = random.Random(self.seed)
        index = rng.randrange(min(done, self.verdict_requests))
        batches = [b for b in self._kept[index] if b[0].protocol != "sig-ack"]
        result, ledger = rng.choice(batches)
        run = rng.randrange(result.convictions.shape[1])
        request = DetectionRequest(
            protocol=result.protocol,
            scenario=self.scenario,
            runs=1,
            horizon=result.checkpoints[-1],
            checkpoints=result.checkpoints,
            seed=request_seed(self.seed, index),
            run_offset=run,
        )
        event_ledger = self._ledger()
        with self._using_ledger(event_ledger):
            event = get_backend("event").run(request)
        where = f"request {index} {result.protocol} run {run}"
        failures = []
        if event.convictions[:, 0].tobytes() != result.convictions[:, run].tobytes():
            failures.append(f"{where}: convictions differ on event")
        if event.estimates_last[0].tobytes() != result.estimates_last[run].tobytes():
            failures.append(f"{where}: estimates differ on event")
        if _run_entries(ledger, run) != _run_entries(event_ledger, run):
            failures.append(f"{where}: ledgers differ on event")
        return failures


def _run_entries(ledger, run: int) -> List[str]:
    """One run's ledger lines, without the ledger-wide sequence number."""
    return [
        json.dumps({k: v for k, v in entry.items() if k != "seq"}, sort_keys=True)
        for entry in ledger.entries()
        if entry.get("run") == run
    ]


class MCPaper(Workload):
    """Paper-scale model-backend batches plus one fused netexp."""

    name = "mc-paper"
    cycle = ("full-ack", "paai1", "paai2", "statfl", "netexp")
    serial_pass = True
    #: Adversarial drop rate on the compromised shared link.
    ADVERSARY_RATE = 0.1

    def __init__(self, tiny: bool, out_dir: str) -> None:
        super().__init__(tiny, out_dir)
        self.runs = 600 if tiny else 10_000
        self.fat_tree_k = 4 if tiny else 8
        self.routes_count = 16 if tiny else 128
        self.verdict_requests = len(self.cycle)
        self.jobs = nproc()
        self._digests: dict = {}

    def setup(self, seed: int) -> None:
        from repro.experiments.figure2 import DEFAULT_HORIZONS
        from repro.mc.detection import DetectionExperiment
        from repro.mc.netexp import NetworkExperiment
        from repro.topology import build_topology, generate_routes, most_shared_links
        from repro.workloads.scenarios import paper_scenario

        self.seed = seed
        self._experiment = DetectionExperiment
        self._netexp = NetworkExperiment
        self.horizons = {
            protocol: (2_000 if self.tiny else DEFAULT_HORIZONS[protocol])
            for protocol in self.cycle[:-1]
        }
        self.scenario = paper_scenario()
        self.topology = build_topology("fat-tree", self.fat_tree_k, seed=seed)
        self.routes = generate_routes(self.topology, self.routes_count, seed=seed)
        for link_id in most_shared_links(self.routes, count=1):
            self.topology.compromise_link(link_id, self.ADVERSARY_RATE)

    def warm(self) -> None:
        seed = request_seed(self.seed, -1)
        for protocol in self.horizons:
            self._experiment(
                protocol, self.scenario, runs=512, horizon=600, seed=seed
            ).run(jobs=self.jobs)
        self._netexp(
            self.topology, self.routes, protocol="paai2", seed=seed, horizon=600
        ).run(jobs=self.jobs)

    def request(self, index: int, jobs: Optional[int] = None):
        jobs = self.jobs if jobs is None else jobs
        kind = self.cycle[index % len(self.cycle)]
        seed = request_seed(self.seed, index)
        if kind == "netexp":
            return self._netexp(
                self.topology, self.routes, protocol="paai2", seed=seed,
            ).run(jobs=jobs)
        return self._experiment(
            kind, self.scenario, runs=self.runs, horizon=self.horizons[kind],
            seed=seed,
        ).run(jobs=jobs)

    def summarize(self, index: int, raw) -> Outcome:
        if self.cycle[index % len(self.cycle)] == "netexp":
            outcome = self._summarize_netexp(raw)
        else:
            outcome = self._summarize_detection(raw)
        if index < self.verdict_requests:
            self._digests.setdefault(index, outcome.material)
        return outcome

    def _summarize_detection(self, result) -> Outcome:
        digest = hashlib.sha256(result.convictions.tobytes())
        digest.update(result.estimates_last.tobytes())
        links_ok, links, exact, runs = _final_verdicts(
            result.convictions[-1], self.scenario.malicious_links
        )
        problem = None
        if result.convictions.shape[1] != self.runs:
            problem = f"{result.convictions.shape[1]} of {self.runs} runs returned"
        elif not _finite(result.estimates_last.ravel()):
            problem = "non-finite estimates"
        return Outcome(
            packets=self.runs * result.checkpoints[-1],
            material=digest.digest(),
            links_ok=links_ok,
            links=links,
            exact=exact,
            runs=runs,
            problem=problem,
        )

    def _summarize_netexp(self, result) -> Outcome:
        from repro.topology.fusion import CONVICTED

        malicious = self.topology.malicious_links
        fusion = result.fusion
        digest = hashlib.sha256(
            json.dumps(
                [[p.link_id, p.verdict, float(p.pooled_margin).hex()]
                 for p in fusion.posteriors.values()]
            ).encode()
        )
        for outcome in result.outcomes:
            digest.update(outcome.estimates.tobytes())
        verdicts = [
            (posterior.verdict == CONVICTED) == (link_id in malicious)
            for link_id, posterior in fusion.posteriors.items()
        ]
        problem = None
        if fusion.convicted != malicious:
            problem = f"fusion convicted {fusion.convicted}, truth {malicious}"
        return Outcome(
            packets=len(self.routes) * result.checkpoints[-1],
            material=digest.digest(),
            links_ok=sum(verdicts),
            links=len(verdicts),
            exact=int(fusion.convicted == malicious),
            runs=1,
            problem=problem,
        )

    def final_checks(self, done: int) -> List[str]:
        # jobs=1 must reproduce a jobs=nproc batch byte for byte.
        index = random.Random(self.seed).randrange(len(self.cycle) - 1)
        pooled = self._digests[index]
        if self.summarize(index, self.request(index, jobs=1)).material != pooled:
            return [f"batch {index}: jobs=1 differs from jobs={self.jobs}"]
        return []


WORKLOADS = {
    workload.name: workload for workload in (StreamEvent, DetectFastpath, MCPaper)
}
