"""Confidence-aware identification.

The paper's identify phase compares point estimates against thresholds,
which produces false verdicts while estimates are still noisy (the early
transient visible in Figure 2). §7 defines the *converged condition* as
the estimates being within an accuracy interval with probability 1-σ; this
module operationalizes that at the source: Hoeffding confidence intervals
around each per-link estimate, and a verdict that only speaks when the
interval clears the threshold.

This is the mechanism a deployment would actually act on — rerouting
around a link is expensive, so the source should wait until the evidence
is conclusive rather than react to a point estimate. The extension bench
measures how much later the *confident* verdict arrives than the point
verdict, and that it (empirically) never convicts an honest link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Set

from repro.analysis.hoeffding import hoeffding_deviation
from repro.exceptions import ConfigurationError
from repro.obs.ledger import get_ledger


@dataclass
class ConfidentVerdict:
    """Outcome of a confidence-aware identify pass.

    Attributes
    ----------
    convicted:
        Links whose lower confidence bound exceeds the threshold —
        malicious beyond reasonable (1-σ) doubt.
    cleared:
        Links whose upper confidence bound is below the threshold —
        exonerated at the same confidence.
    undecided:
        Links whose interval still straddles the threshold.
    half_widths:
        Per-link Hoeffding interval half-widths, each sized by the
        samples behind that link's estimate.
    samples:
        Per-link observation counts the half-widths were sized by.
    """

    convicted: Set[int]
    cleared: Set[int]
    undecided: Set[int]
    estimates: List[float]
    half_widths: List[float]
    samples: List[int]

    @property
    def decided(self) -> bool:
        """True once every link is either convicted or cleared."""
        return not self.undecided


def hoeffding_half_width(rounds: int, sigma: float, links: int = 1) -> float:
    """Two-sided Hoeffding interval half-width for a mean of ``rounds``
    bounded observations at family-wise confidence ``1 - sigma`` across
    ``links`` simultaneous estimates (Bonferroni union bound)."""
    if not 0.0 < sigma < 1.0:
        raise ConfigurationError("sigma must be in (0, 1)")
    if links <= 0:
        raise ConfigurationError("links must be positive")
    if rounds <= 0:
        return float("inf")
    return hoeffding_deviation(rounds, sigma / links)


def confident_identify(
    estimates: Sequence[float],
    thresholds,
    samples: Sequence[int],
    sigma: float,
    variance_scale: float = 1.0,
) -> ConfidentVerdict:
    """Convict/clear links only when the confidence interval is clear of
    the threshold.

    Parameters
    ----------
    estimates:
        Per-link point estimates.
    thresholds:
        Scalar or per-link thresholds.
    samples:
        Per-link observation counts behind the estimates. A link's
        interval is only as narrow as its own evidence allows.
    sigma:
        Allowed family-wise error probability.
    variance_scale:
        Correction factor for estimators whose per-round observations are
        not 1-bounded Bernoulli (PAAI-2's difference estimator combines
        ``2d`` counts; callers pass ``~2d`` to widen the interval).
    """
    if variance_scale <= 0:
        raise ConfigurationError("variance_scale must be positive")
    links = len(estimates)
    if isinstance(thresholds, (int, float)):
        thresholds = [float(thresholds)] * links
    else:
        thresholds = [float(value) for value in thresholds]
        if len(thresholds) != links:
            raise ConfigurationError("threshold/estimate length mismatch")
    samples = [int(count) for count in samples]
    if len(samples) != links:
        raise ConfigurationError("samples/estimate length mismatch")
    scale = math.sqrt(variance_scale)
    half_widths = [
        hoeffding_half_width(count, sigma, links) * scale for count in samples
    ]
    convicted, cleared, undecided = set(), set(), set()
    for link, (estimate, threshold, half_width) in enumerate(
        zip(estimates, thresholds, half_widths)
    ):
        if estimate - half_width > threshold:
            convicted.add(link)
        elif estimate + half_width < threshold:
            cleared.add(link)
        else:
            undecided.add(link)
    ledger = get_ledger()
    if ledger.enabled:
        ledger.record(
            "bound",
            samples=samples,
            sigma=float(sigma),
            half_widths=[float(value) for value in half_widths],
            estimates=[float(value) for value in estimates],
            thresholds=thresholds,
            convicted=convicted,
            cleared=cleared,
            undecided=undecided,
        )
    return ConfidentVerdict(
        convicted=convicted,
        cleared=cleared,
        undecided=undecided,
        estimates=list(estimates),
        half_widths=half_widths,
        samples=samples,
    )
