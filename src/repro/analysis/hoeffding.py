"""Hoeffding-inequality utilities: the one home of the bound.

Theorem 2's detection rates come from requiring an
``(epsilon_theta, sigma)``-accurate estimate of each link's drop rate:

    Pr(|theta_hat - theta*| > eps_theta) < sigma

For a mean of ``n`` i.i.d. observations in [0, 1], Hoeffding gives the
one-sided tail ``Pr(theta_hat - theta* > t) <= exp(-2 n t**2)`` and the
two-sided ``2 exp(-2 n t**2)``, so ``n >= ln(2/sigma) / (2 t**2)``
suffices. Testing against the midpoint between the natural rate and the
threshold uses ``t = eps/2``, producing the ``8 eps**2`` denominator seen
in Theorem 2's ``tau_1``.

Every Hoeffding figure in the package comes from here: the §7 interval
half-widths (:mod:`repro.core.confidence`), the chaos harness's
false-accusation bound (:mod:`repro.experiments.chaos`) and the fusion
layer's per-link confidence (:mod:`repro.topology.fusion`).
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError


def hoeffding_tail(samples: float, accuracy: float) -> float:
    """One-sided tail ``exp(-2 n t^2)``: the probability bound that a
    mean of ``samples`` observations exceeds its expectation by
    ``accuracy``.

    The product is evaluated left to right as ``-2 n t t``; the fusion
    verdicts (and the netexp ledger) are pinned to that float order.
    """
    return math.exp(-2.0 * samples * accuracy * accuracy)


def hoeffding_sample_size(accuracy: float, sigma: float) -> float:
    """Samples needed so the empirical mean is within ``accuracy`` of the
    true mean with probability at least ``1 - sigma``.

    >>> n = hoeffding_sample_size(accuracy=0.01, sigma=0.03)
    >>> 20_000 < n < 22_000
    True
    """
    if accuracy <= 0.0:
        raise ConfigurationError("accuracy must be positive")
    if not 0.0 < sigma < 1.0:
        raise ConfigurationError("sigma must be in (0, 1)")
    return math.log(2.0 / sigma) / (2.0 * accuracy ** 2)


def hoeffding_deviation(samples: float, sigma: float) -> float:
    """Inverse view: the accuracy achievable with ``samples`` observations
    at confidence ``1 - sigma`` (the two-sided interval half-width)."""
    if samples <= 0:
        raise ConfigurationError("samples must be positive")
    if not 0.0 < sigma < 1.0:
        raise ConfigurationError("sigma must be in (0, 1)")
    return math.sqrt(math.log(2.0 / sigma) / (2.0 * samples))


def hoeffding_failure_probability(samples: float, accuracy: float) -> float:
    """Two-sided tail bound ``2 exp(-2 n t^2)`` (may exceed 1 for tiny n)."""
    if samples <= 0 or accuracy <= 0:
        raise ConfigurationError("samples and accuracy must be positive")
    return 2.0 * hoeffding_tail(samples, accuracy)


def hoeffding_confidence(samples: float, margin: float) -> float:
    """One-sided confidence ``1 - exp(-2 n margin^2)`` that the true mean
    lies on ``margin``'s side of the threshold; 0.0 without samples."""
    if samples <= 0:
        return 0.0
    return max(0.0, 1.0 - hoeffding_tail(samples, margin))
