"""Network-scale detection: many routes, shared links, fused verdicts.

The per-path Monte-Carlo layer (:mod:`repro.mc.detection`) answers "how
fast does ONE source convict a link on ITS path". A mesh deployment asks
a different question: N sources each monitor their own route, the routes
physically share topology links, and the operator wants *per-link*
verdicts for the whole network. This module runs that experiment with
the closed-form outcome models:

1. Each route gets an independent seeded score trajectory: a one-run
   :meth:`repro.mc.detection.ModelBackend.trajectory`, the same loop that
   drives the single-path model backend, over the route's
   :mod:`repro.protocols.models` outcome model with **heterogeneous
   per-hop rates**: hop ``i`` of a route crossing topology link ``L``
   composes the network's natural loss with ``L``'s adversarial rate
   exactly like :meth:`repro.workloads.scenarios.Scenario.model_rates`
   does (forward data/probes and reverse acks adversarial, report acks
   natural — the paper's tactic (b) adversary).
2. At every checkpoint the per-route (estimate − threshold) margins are
   pooled per topology link by :func:`repro.topology.fusion.fuse_route_evidence`,
   giving per-link posteriors and CONVICTED/EXONERATED/UNDECIDED
   verdicts for the whole mesh.

Sharding is **by route**: routes split into contiguous chunks
(:func:`repro.parallel.shard_sizes`), each route's trajectory seed
derives from ``(seed, route_index)`` alone — never from the shard
decomposition — and the parent performs all fusion, ledger emission, and
metric publication in route order. Output is therefore byte-identical
for every ``jobs`` and ``shards`` value at the same seed.

Why fusion converges faster than any single path: the pooled Hoeffding
evidence for a link crossed by ``k`` routes accumulates ``k`` rounds of
observation per packet interval, so the per-route round count at which
the pooled posterior clears ``1 - sigma`` shrinks roughly like ``1/k``
relative to a lone path with the same margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.hoeffding import hoeffding_confidence
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.mc.detection import ModelBackend, resolve_checkpoints
from repro.metrics.confusion import FpFnCurve, curve_from_convictions
from repro.obs.ledger import get_ledger
from repro.obs.profile import phase as profile_phase
from repro.obs.registry import get_registry
from repro.parallel.engine import run_tasks, shard_seed, shard_sizes
from repro.protocols import models
from repro.topology.fusion import (
    FusionResult,
    RouteEvidence,
    fuse_route_evidence,
)
from repro.topology.graph import Route, Topology

#: Protocols with closed-form outcome models usable by netexp (statfl's
#: counter estimator has no per-round blame distribution).
NETEXP_PROTOCOLS = (
    "full-ack",
    "sig-ack",
    "paai1",
    "paai2",
    "combo1",
    "combo2",
)


@dataclass
class RouteOutcome:
    """One route's trajectory: estimates/rounds at every checkpoint."""

    route: Route
    seed: int
    thresholds: List[float]
    #: Shape ``(checkpoints, hops)``.
    estimates: np.ndarray
    #: Shape ``(checkpoints,)`` — observation rounds accumulated.
    rounds: np.ndarray
    #: Hops whose underlying topology link is adversarial (ground truth).
    malicious_hops: List[int] = field(default_factory=list)

    def convicted_hops(self, checkpoint_index: int) -> List[int]:
        row = self.estimates[checkpoint_index]
        return [
            hop
            for hop in range(len(self.thresholds))
            if row[hop] > self.thresholds[hop]
        ]

    def first_solo_conviction(
        self, hop: int, sigma: float
    ) -> Optional[int]:
        """First checkpoint index at which THIS route alone convicts
        ``hop`` under the fusion layer's Hoeffding rule — the single-path
        baseline the fused verdict is judged against."""
        threshold = self.thresholds[hop]
        for index in range(self.estimates.shape[0]):
            margin = float(self.estimates[index, hop]) - threshold
            rounds = int(self.rounds[index])
            if margin > 0.0 and hoeffding_confidence(
                rounds, margin
            ) >= 1.0 - sigma:
                return index
        return None


@dataclass
class NetexpResult:
    """Everything the network experiment produces."""

    protocol: str
    topology: Topology
    routes: List[Route]
    checkpoints: List[int]
    #: Per-checkpoint fusion results (same order as ``checkpoints``).
    fusions: List[FusionResult]
    #: FP/FN curve scored per topology link against ground truth.
    curve: FpFnCurve
    outcomes: List[RouteOutcome]
    sigma: float
    #: link id -> first checkpoint index where fusion convicted it.
    first_convicted: Dict[int, int] = field(default_factory=dict)
    #: link id -> best (earliest) solo-conviction checkpoint index over
    #: the routes crossing it, or absent when no route convicts alone.
    best_single: Dict[int, int] = field(default_factory=dict)

    @property
    def fusion(self) -> FusionResult:
        """The final-checkpoint fusion."""
        return self.fusions[-1]

    def confusion(self) -> Dict[str, object]:
        return self.fusion.score(self.topology.malicious_links)

    def speedup_checkpoints(self, link_id: int) -> Optional[Tuple[int, int]]:
        """``(fused, solo)`` conviction checkpoints (packet counts) for
        ``link_id``, or None when either side never convicts."""
        fused = self.first_convicted.get(link_id)
        solo = self.best_single.get(link_id)
        if fused is None or solo is None:
            return None
        return self.checkpoints[fused], self.checkpoints[solo]

    def render(self) -> str:
        lines = [
            f"netexp: {self.protocol} over {self.topology.name} "
            f"({self.topology.nodes} routers, "
            f"{len(self.topology.links)} links, {len(self.routes)} routes)",
            f"  ground truth: malicious links "
            + (
                ", ".join(f"L{i}" for i in self.topology.malicious_links)
                or "(none)"
            ),
        ]
        final = self.fusion
        score = self.confusion()
        lines.append(
            f"  final verdicts at {self.checkpoints[-1]} packets/route: "
            f"convicted {final.convicted or '[]'}, exonerated "
            f"{len(final.exonerated)} links, undecided "
            f"{len(final.undecided)}"
        )
        lines.append(
            f"  confusion: false positives {score['false_positives']}, "
            f"false negatives {score['false_negatives']}"
            + (" — exact" if score["exact"] else "")
        )
        for link_id in self.topology.malicious_links:
            pair = self.speedup_checkpoints(link_id)
            if pair is None:
                fused = self.first_convicted.get(link_id)
                lines.append(
                    f"  L{link_id}: fused conviction at "
                    + (
                        f"{self.checkpoints[fused]} packets/route"
                        if fused is not None
                        else "(never)"
                    )
                    + "; no single route convicts alone"
                )
                continue
            fused_at, solo_at = pair
            lines.append(
                f"  L{link_id}: fused conviction at {fused_at} "
                f"packets/route vs best single path at {solo_at} "
                f"({solo_at / max(fused_at, 1):.1f}x fewer per-path rounds)"
            )
        return "\n".join(lines)


class NetworkExperiment:
    """Fused multi-route detection over a topology.

    Parameters
    ----------
    topology:
        The mesh, with adversarial links/routers already marked
        (:meth:`~repro.topology.graph.Topology.compromise_link`).
    routes:
        The monitored routes (walks over topology links).
    protocol:
        Registry name; must have a closed-form outcome model
        (:data:`NETEXP_PROTOCOLS`).
    rho:
        Per-link natural loss rate.
    horizon:
        Data packets per route.
    checkpoints:
        Packet-count checkpoints; defaults to the log-spaced grid.
    seed:
        Root seed; route ``i``'s trajectory seed derives from
        ``(seed, i)`` independent of sharding.
    shards:
        Route chunks for parallel execution; defaults to one shard per
        8 routes.
    sigma:
        Fusion error budget (posterior must clear ``1 - sigma``);
        defaults to the protocol parameters' sigma.
    """

    def __init__(
        self,
        topology: Topology,
        routes: Sequence[Route],
        protocol: str = "paai2",
        rho: float = 0.01,
        horizon: int = 10_000,
        checkpoints: Optional[Sequence[int]] = None,
        seed: int = 0,
        shards: Optional[int] = None,
        sigma: Optional[float] = None,
    ) -> None:
        if protocol not in NETEXP_PROTOCOLS:
            raise ConfigurationError(
                f"netexp requires a modelled protocol, got {protocol!r}; "
                f"available: {', '.join(NETEXP_PROTOCOLS)}"
            )
        if not routes:
            raise ConfigurationError("netexp needs at least one route")
        if not 0.0 <= rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {rho}")
        self.topology = topology
        self.routes = list(routes)
        self.protocol = protocol
        self.rho = rho
        self.horizon = horizon
        self.checkpoints = resolve_checkpoints(horizon, checkpoints)
        self.seed = seed
        if shards is None:
            shards = max(1, (len(self.routes) + 7) // 8)
        if shards <= 0:
            raise ConfigurationError(f"shards must be positive, got {shards}")
        self.shards = min(shards, len(self.routes))
        if sigma is None:
            sigma = ProtocolParams(path_length=2, natural_loss=rho).sigma
        if not 0.0 < sigma < 1.0:
            raise ConfigurationError(f"sigma must be in (0, 1), got {sigma}")
        self.sigma = sigma

    # -- execution ---------------------------------------------------------

    def run(self, jobs: int = 1) -> NetexpResult:
        """Execute the experiment; byte-identical for every ``jobs``.

        Workers only compute per-route trajectories; every cross-route
        step (fusion, ledger, metrics) happens here in deterministic
        route / sorted-link order.
        """
        route_specs = [
            (
                index,
                tuple(route.links),
                tuple(
                    self.topology.adversarial_rate(link_id)
                    for link_id in route.links
                ),
                shard_seed(self.seed, index, label="netexp-route"),
            )
            for index, route in enumerate(self.routes)
        ]
        sizes = shard_sizes(len(route_specs), self.shards)
        payloads = []
        offset = 0
        for size in sizes:
            payloads.append(
                (
                    self.protocol,
                    self.rho,
                    self.checkpoints,
                    route_specs[offset : offset + size],
                )
            )
            offset += size
        with profile_phase("netexp-routes"):
            parts = run_tasks(_run_netexp_shard, payloads, jobs=jobs)
        outcomes: List[RouteOutcome] = []
        for part in parts:
            for index, thresholds, estimates, rounds in part:
                route = self.routes[index]
                outcomes.append(
                    RouteOutcome(
                        route=route,
                        seed=route_specs[index][3],
                        thresholds=list(thresholds),
                        estimates=estimates,
                        rounds=rounds,
                        malicious_hops=[
                            hop
                            for hop, rate in enumerate(route_specs[index][2])
                            if rate > 0.0
                        ],
                    )
                )

        with profile_phase("netexp-fusion"):
            fusions, first_convicted = self._fuse_all(outcomes)
        best_single = self._best_single(outcomes)
        curve = self._curve(fusions)
        self._emit_ledger(outcomes, fusions)
        self._emit_metrics(fusions[-1])
        return NetexpResult(
            protocol=self.protocol,
            topology=self.topology,
            routes=self.routes,
            checkpoints=self.checkpoints,
            fusions=fusions,
            curve=curve,
            outcomes=outcomes,
            sigma=self.sigma,
            first_convicted=first_convicted,
            best_single=best_single,
        )

    # -- fusion ------------------------------------------------------------

    def _evidence_at(
        self, outcomes: Sequence[RouteOutcome], index: int
    ) -> List[RouteEvidence]:
        return [
            RouteEvidence(
                route_id=outcome.route.route_id,
                links=tuple(outcome.route.links),
                estimates=tuple(float(x) for x in outcome.estimates[index]),
                thresholds=tuple(outcome.thresholds),
                rounds=int(outcome.rounds[index]),
            )
            for outcome in outcomes
        ]

    def _fuse_all(self, outcomes):
        fusions: List[FusionResult] = []
        first_convicted: Dict[int, int] = {}
        last = len(self.checkpoints) - 1
        for index, checkpoint in enumerate(self.checkpoints):
            fusion = fuse_route_evidence(
                self._evidence_at(outcomes, index),
                sigma=self.sigma,
                # Only the final checkpoint lands in the ledger: the
                # per-checkpoint trail is reconstructable from seeds, and
                # C x L fusion lines would drown the verdict chain.
                record=(index == last),
                checkpoint=checkpoint,
            )
            fusions.append(fusion)
            for link_id in fusion.convicted:
                first_convicted.setdefault(link_id, index)
        return fusions, first_convicted

    def _best_single(self, outcomes) -> Dict[int, int]:
        best: Dict[int, int] = {}
        for outcome in outcomes:
            for hop in outcome.malicious_hops:
                link_id = outcome.route.links[hop]
                solo = outcome.first_solo_conviction(hop, self.sigma)
                if solo is None:
                    continue
                if link_id not in best or solo < best[link_id]:
                    best[link_id] = solo
        return best

    def _curve(self, fusions: Sequence[FusionResult]) -> FpFnCurve:
        link_ids = [link.link_id for link in self.topology.links]
        position = {link_id: i for i, link_id in enumerate(link_ids)}
        convictions = np.zeros(
            (len(self.checkpoints), 1, len(link_ids)), dtype=bool
        )
        for index, fusion in enumerate(fusions):
            for link_id in fusion.convicted:
                convictions[index, 0, position[link_id]] = True
        malicious = [position[i] for i in self.topology.malicious_links]
        return curve_from_convictions(self.checkpoints, convictions, malicious)

    # -- observability -----------------------------------------------------

    def _emit_ledger(self, outcomes, fusions) -> None:
        ledger = get_ledger()
        if not ledger.enabled:
            return
        final = len(self.checkpoints) - 1
        for outcome in outcomes:
            route = outcome.route
            ledger.record(
                "run_start",
                run=route.route_id,
                protocol=self.protocol,
                seed=outcome.seed,
                path_length=route.length,
                horizon=self.horizon,
                malicious_links=outcome.malicious_hops,
                topology_links=list(route.links),
            )
            convicted = outcome.convicted_hops(final)
            truth = set(outcome.malicious_hops)
            ledger.record(
                "verdict",
                run=route.route_id,
                checkpoint=self.checkpoints[final],
                convicted=convicted,
                false_positives=sorted(set(convicted) - truth),
                false_negatives=sorted(truth - set(convicted)),
                exact=set(convicted) == truth,
            )
        # Fusion entries were recorded by _fuse_all at the final
        # checkpoint (between per-route trails and this summary).
        fusion = fusions[-1]
        score = fusion.score(self.topology.malicious_links)
        ledger.record(
            "experiment",
            protocol=self.protocol,
            runs=len(outcomes),
            horizon=self.horizon,
            seed=self.seed,
            # Deliberately no shard/jobs fields: the ledger must be
            # byte-identical however the route work was decomposed.
            backend="netexp",
            malicious_links=self.topology.malicious_links,
            final_false_positive=float(self.curve_rate(fusions, "fp")),
            final_false_negative=float(self.curve_rate(fusions, "fn")),
            convicted_links=fusion.convicted,
            fusion_exact=score["exact"],
        )

    def curve_rate(self, fusions: Sequence[FusionResult], which: str) -> float:
        fusion = fusions[-1]
        malicious = set(self.topology.malicious_links)
        honest = [
            link.link_id
            for link in self.topology.links
            if link.link_id not in malicious
        ]
        convicted = set(fusion.convicted)
        if which == "fp":
            return (
                len(convicted - malicious) / len(honest) if honest else 0.0
            )
        return (
            len(malicious - convicted) / len(malicious) if malicious else 0.0
        )

    def _emit_metrics(self, fusion: FusionResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("netexp.routes", protocol=self.protocol).inc(
            len(self.routes)
        )
        for verdict, links in (
            ("convicted", fusion.convicted),
            ("exonerated", fusion.exonerated),
            ("undecided", fusion.undecided),
        ):
            registry.counter(
                "netexp.links", protocol=self.protocol, verdict=verdict
            ).inc(len(links))


def _run_netexp_shard(payload):
    """Worker: trajectories for one contiguous chunk of routes.

    Module-level so payloads pickle by reference. Each route's seed came
    pre-derived from the root seed and absolute route index, so the
    result is independent of how routes were chunked. A route is a
    one-run :meth:`~repro.mc.detection.ModelBackend.trajectory` whose
    per-hop rates compose ``rho`` with each topology link's adversarial
    rate; returns ``(index, thresholds, estimates (C, d), rounds (C,))``
    per route.
    """
    protocol, rho, checkpoints, specs = payload
    results = []
    for index, links, betas, seed in specs:
        d = len(links)
        params = ProtocolParams(path_length=d, natural_loss=rho)
        f = [1.0 - (1.0 - rho) * (1.0 - beta) for beta in betas]
        model = models.build_model(protocol, f, f, [rho] * d, params)
        trajectory = list(
            ModelBackend.trajectory(
                model, np.random.default_rng(seed), checkpoints, runs=1
            )
        )
        results.append(
            (
                index,
                models.decision_thresholds(protocol, params),
                np.stack([estimates[0] for estimates, _ in trajectory]),
                np.array([rounds[0] for _, rounds in trajectory]),
            )
        )
    return results


__all__ = [
    "NETEXP_PROTOCOLS",
    "NetworkExperiment",
    "NetexpResult",
    "RouteOutcome",
]
