"""The network-level identifier: per-path evidence → per-link posteriors.

Each protocol instance produces, for its own route, per-hop drop-rate
estimates and the calibrated thresholds it would convict against
(§7's identify phase). On a mesh those hops are *views* of shared
physical links, so the evidence compounds: a link traversed by eight
routes accumulates eight routes' worth of observation rounds, and a
link that looks suspicious from one noisy path can be exonerated by the
seven clean paths crossing it.

Fusion math (grounded in the paper's §7 Hoeffding argument): for each
physical link, pool the per-hop conviction *margins* ``m = estimate -
threshold`` of every route crossing it, weighted by that route's
observation rounds::

    N      = sum_r rounds_r
    margin = sum_r rounds_r * m_r / N

Each margin is a mean of bounded per-round blame observations, so the
pooled margin concentrates per Hoeffding: the probability that an
honest link shows a pooled margin above 0 (or a guilty link below 0)
decays as ``exp(-2 N margin^2)``. The posterior-style confidence::

    posterior_bad  = 1 - exp(-2 N margin^2)   when margin > 0
    posterior_good = 1 - exp(-2 N margin^2)   when margin <= 0

is compared against the deployment's ``1 - sigma``: a link is
**convicted** when ``posterior_bad >= 1 - sigma``, **exonerated** when
``posterior_good >= 1 - sigma``, and **undecided** while the evidence
is still inside the noise band. Because ``N`` pools across routes, a
link shared by ``k`` routes reaches either verdict roughly ``k`` times
fewer rounds *per route* than any single path needs alone.

Every fusion decision is recorded through the evidence ledger as a
``fusion`` entry (one per physical link, sorted by link id), so
``repro-aai explain`` can walk path-verdict → link-posterior chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.hoeffding import hoeffding_confidence
from repro.exceptions import ConfigurationError
from repro.obs.ledger import get_ledger

#: Verdict labels carried by :class:`LinkPosterior` and ledger entries.
CONVICTED = "convicted"
EXONERATED = "exonerated"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class RouteEvidence:
    """One route's identify-phase evidence, hop-aligned to physical links.

    Attributes
    ----------
    route_id:
        The route (== ledger ``run``) this evidence came from.
    links:
        Physical link id per hop, in walk order.
    estimates:
        Per-hop drop-rate estimates from the route's protocol instance.
    thresholds:
        Per-hop calibrated conviction thresholds (same estimator).
    rounds:
        Observation rounds backing the estimates.
    """

    route_id: int
    links: Tuple[int, ...]
    estimates: Tuple[float, ...]
    thresholds: Tuple[float, ...]
    rounds: int

    def __post_init__(self) -> None:
        if not (
            len(self.links) == len(self.estimates) == len(self.thresholds)
        ):
            raise ConfigurationError(
                f"route {self.route_id}: links/estimates/thresholds "
                "must be hop-aligned"
            )
        if self.rounds < 0:
            raise ConfigurationError("rounds cannot be negative")


@dataclass
class LinkPosterior:
    """Fused evidence for one physical link."""

    link_id: int
    routes: List[int]
    rounds: int
    pooled_margin: float
    posterior_bad: float
    posterior_good: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "link": self.link_id,
            "routes": list(self.routes),
            "rounds": self.rounds,
            "pooled_margin": self.pooled_margin,
            "posterior_bad": self.posterior_bad,
            "posterior_good": self.posterior_good,
            "verdict": self.verdict,
        }


@dataclass
class FusionResult:
    """Per-link posteriors plus the resulting verdict partition."""

    sigma: float
    posteriors: Dict[int, LinkPosterior]

    @property
    def convicted(self) -> List[int]:
        return sorted(
            link_id
            for link_id, posterior in self.posteriors.items()
            if posterior.verdict == CONVICTED
        )

    @property
    def exonerated(self) -> List[int]:
        return sorted(
            link_id
            for link_id, posterior in self.posteriors.items()
            if posterior.verdict == EXONERATED
        )

    @property
    def undecided(self) -> List[int]:
        return sorted(
            link_id
            for link_id, posterior in self.posteriors.items()
            if posterior.verdict == UNDECIDED
        )

    def score(self, malicious_links: Sequence[int]) -> dict:
        """Confusion vs ground truth (per physical link)."""
        truth = set(malicious_links)
        convicted = set(self.convicted)
        return {
            "false_positives": sorted(convicted - truth),
            "false_negatives": sorted(truth - convicted),
            "exact": convicted == truth,
        }


def fuse_route_evidence(
    evidence: Sequence[RouteEvidence],
    sigma: float,
    record: bool = True,
    checkpoint: Optional[int] = None,
) -> FusionResult:
    """Fuse per-route evidence into per-link posteriors.

    Links are processed in sorted physical-id order, so the resulting
    ledger entries (``record=True``) are byte-deterministic for a given
    evidence set. ``checkpoint`` annotates the ledger entries with the
    per-route round count the evidence was evaluated at.
    """
    if not 0.0 < sigma < 1.0:
        raise ConfigurationError(f"sigma must be in (0, 1), got {sigma}")
    pooled: Dict[int, List[Tuple[int, int, float]]] = {}
    for route in evidence:
        for hop, link_id in enumerate(route.links):
            margin = route.estimates[hop] - route.thresholds[hop]
            pooled.setdefault(link_id, []).append(
                (route.route_id, route.rounds, margin)
            )
    posteriors: Dict[int, LinkPosterior] = {}
    confidence_floor = 1.0 - sigma
    ledger = get_ledger()
    for link_id in sorted(pooled):
        samples = pooled[link_id]
        rounds = sum(sample[1] for sample in samples)
        if rounds > 0:
            margin = (
                sum(sample[1] * sample[2] for sample in samples) / rounds
            )
        else:
            margin = 0.0
        confidence = hoeffding_confidence(rounds, margin)
        if margin > 0:
            posterior_bad, posterior_good = confidence, 0.0
            verdict = (
                CONVICTED if confidence >= confidence_floor else UNDECIDED
            )
        else:
            posterior_bad, posterior_good = 0.0, confidence
            verdict = (
                EXONERATED if confidence >= confidence_floor else UNDECIDED
            )
        posterior = LinkPosterior(
            link_id=link_id,
            routes=sorted({sample[0] for sample in samples}),
            rounds=rounds,
            pooled_margin=margin,
            posterior_bad=posterior_bad,
            posterior_good=posterior_good,
            verdict=verdict,
        )
        posteriors[link_id] = posterior
        if record and ledger.enabled:
            fields = posterior.to_dict()
            if checkpoint is not None:
                fields["checkpoint"] = checkpoint
            fields["sigma"] = sigma
            ledger.record("fusion", **fields)
    return FusionResult(sigma=sigma, posteriors=posteriors)


__all__ = [
    "CONVICTED",
    "EXONERATED",
    "UNDECIDED",
    "RouteEvidence",
    "LinkPosterior",
    "FusionResult",
    "fuse_route_evidence",
]
