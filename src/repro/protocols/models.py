"""Exact per-round outcome distributions for every protocol.

For each protocol we derive, in closed form, the probability distribution
of what one observation round contributes to the score board, as a
function of the per-crossing drop probabilities of each link:

* ``f[i]`` — probability a *forward* crossing of link ``l_i`` drops the
  packet (natural loss combined with the egress node ``F_i``'s malicious
  rate); applies to data packets and probes alike;
* ``b_ack[i]`` — probability a *reverse* crossing of ``l_i`` loses an
  end-to-end ack. A malicious ``F_i`` swallowing acks at ingress (§8.1
  tactic (b)) is observationally identical to extra loss here;
* ``b_report[i]`` — probability a reverse crossing loses a *report* ack.
  The paper's evaluation adversary answers ack requests honestly, so this
  stays at the natural rate even on its links.

The distributions replicate the wire agents' semantics event by event
(probe stopping at the first node without state, report regeneration on
the return path, footnote 8's blame-``l_0`` fallback, PAAI-2's oblivious
match condition) and are cross-validated against the wire simulator in
``tests/integration/test_wire_vs_model.py``. They power three things:

1. the vectorized Monte-Carlo engine for the 10,000-run experiments of §8
   (drawing multinomial score counts per checkpoint instead of simulating
   every packet);
2. per-link *calibrated decision thresholds*: the source knows ρ and its
   own protocol, so it can compute each link's natural blame rate and
   convict at ``natural + epsilon/2`` — the Hoeffding midpoint of
   Theorem 2 generalized to each protocol's observation process;
3. analytical expected estimates for validation and the Table 2 harness.

Outcome encoding (onion protocols: full-ack, PAAI-1, Combination 1):
categories ``0..d-1`` mean "blame link l_i", category ``d`` means "no
blame". For PAAI-2/Combination 2: categories ``0..d-1`` mean "mismatch
with selected node e=i+1" (increment links ``l_0..l_i``), category ``d``
means "no score".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError

#: Outcome-kind tags.
KIND_BLAME = "blame"  # direct per-link blame (onion protocols)
KIND_INTERVAL = "interval"  # PAAI-2 upstream-interval increments


@dataclass
class OutcomeModel:
    """Per-round outcome distribution plus its scoring semantics.

    Attributes
    ----------
    kind:
        :data:`KIND_BLAME` or :data:`KIND_INTERVAL`.
    probabilities:
        Length ``d+1`` vector; see module docstring for the encoding.
    rounds_per_packet:
        Expected observation rounds per data packet sent (1 for full-ack
        and PAAI-2; the probe frequency ``p`` for sampled protocols).
    """

    kind: str
    probabilities: np.ndarray
    rounds_per_packet: float

    @property
    def path_length(self) -> int:
        return len(self.probabilities) - 1

    def expected_estimates(self) -> List[float]:
        """Expected value of the protocol's per-link estimator."""
        d = self.path_length
        p = self.probabilities
        if self.kind == KIND_BLAME:
            return [float(p[i]) for i in range(d)]
        # Interval scoring: E[estimate_j] = d * (P(e=j+1) - P(e=j)) where
        # P(e=x) is the mismatch probability with selected node x
        # (cumulative-difference estimator; see core.estimators).
        estimates = []
        previous = 0.0
        for j in range(d):
            cumulative = d * float(p[j])
            estimates.append(max(0.0, cumulative - previous))
            previous = cumulative
        return estimates

    def score_matrix(self) -> np.ndarray:
        """Matrix mapping outcome categories to per-link score increments.

        Shape ``(d+1, d)``: row ``c`` is the score vector added to the
        board when category ``c`` occurs.
        """
        d = self.path_length
        matrix = np.zeros((d + 1, d))
        for category in range(d):
            if self.kind == KIND_BLAME:
                matrix[category, category] = 1.0
            else:
                matrix[category, : category + 1] = 1.0
        return matrix


def _first_failure(probs: Sequence[float]) -> Iterable[Tuple[Optional[int], float]]:
    """Yield ``(index, probability)`` of the first failing trial, plus
    ``(None, survival)`` for the all-pass case, over independent Bernoulli
    trials with the given failure probabilities (in trial order)."""
    survive = 1.0
    for index, prob in enumerate(probs):
        yield index, survive * prob
        survive *= 1.0 - prob
    yield None, survive


def _final_report_depth(m: int, b: Sequence[float]) -> Iterable[Tuple[int, float]]:
    """Distribution of the depth the source finally sees for a report that
    originated at node ``F_m``.

    The report crosses reverse links ``l_{m-1} .. l_0``; a drop at ``l_i``
    triggers regeneration at ``F_i`` (depth ``i``), so the final depth is
    the lowest-index dropped crossing, or ``m`` when none drops. Depth 0
    covers both a regenerated report from ``F_0``'s neighbor failing and
    footnote 8's no-report case — the source blames ``l_0`` either way.
    """
    for index, prob in _first_failure(b[:m]):
        yield (m if index is None else index), prob


def _validate_rates(*rate_arrays: Sequence[float]) -> List[List[float]]:
    lengths = {len(rates) for rates in rate_arrays}
    if len(lengths) != 1 or 0 in lengths:
        raise ConfigurationError("need matching non-empty rate arrays")
    for rates in rate_arrays:
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"drop rate {rate} outside [0, 1]")
    return [list(rates) for rates in rate_arrays]


# ---------------------------------------------------------------------------
# Onion family
# ---------------------------------------------------------------------------


def fullack_model(
    f: Sequence[float],
    b_ack: Sequence[float],
    b_report: Sequence[float],
) -> OutcomeModel:
    """Full-ack: every data packet is one observation round."""
    f, b_ack, b_report = _validate_rates(f, b_ack, b_report)
    d = len(f)
    out = np.zeros(d + 1)

    for k, pk in _first_failure(f):  # data crossing
        if k is None:
            # Data delivered; e2e ack crosses links d-1 .. 0.
            for a_rev, pa in _first_failure(b_ack[::-1]):
                if a_rev is None:
                    out[d] += pk * pa  # delivered, no probe
                    continue
                a = d - 1 - a_rev  # link index where the ack was lost
                # Forwarders that relayed the ack popped their state; D
                # kept its. The probe can reach D only when the ack died
                # on its very first crossing (a == d-1).
                if a == d - 1:
                    for j, pj in _first_failure(f):
                        m = d if j is None else j
                        for depth, pr in _final_report_depth(m, b_report):
                            target = d if depth == d else depth
                            out[target] += pk * pa * pj * pr
                else:
                    for j, pj in _first_failure(f[:a]):
                        m = a if j is None else j
                        for depth, pr in _final_report_depth(m, b_report):
                            out[depth] += pk * pa * pj * pr
        else:
            # Data dropped at l_k: probe stops at F_{k+1} (no state).
            for j, pj in _first_failure(f[:k]):
                m = k if j is None else j
                for depth, pr in _final_report_depth(m, b_report):
                    out[depth] += pk * pj * pr

    return OutcomeModel(KIND_BLAME, out, rounds_per_packet=1.0)


def paai1_model(
    f: Sequence[float],
    b_ack: Sequence[float],
    b_report: Sequence[float],
    probe_frequency: float,
) -> OutcomeModel:
    """PAAI-1: one observation round per *sampled* packet; the probe is
    sent unconditionally for sampled packets. There are no per-packet e2e
    acks, so ``b_ack`` is unused (kept in the signature for uniformity)."""
    f, b_ack, b_report = _validate_rates(f, b_ack, b_report)
    d = len(f)
    out = np.zeros(d + 1)

    for k, pk in _first_failure(f):  # data crossing
        limit = d if k is None else k
        for j, pj in _first_failure(f[:limit]):
            m = limit if j is None else j
            for depth, pr in _final_report_depth(m, b_report):
                target = d if depth == d else depth
                out[target] += pk * pj * pr

    return OutcomeModel(KIND_BLAME, out, rounds_per_packet=probe_frequency)


def combo1_model(
    f: Sequence[float],
    b_ack: Sequence[float],
    b_report: Sequence[float],
    probe_frequency: float,
) -> OutcomeModel:
    """Combination 1: like PAAI-1, but D acks sampled packets and the
    source probes only when that ack is missing; forwarders keep state
    (no pop-on-relay), so a probe after an ack loss can reach D."""
    f, b_ack, b_report = _validate_rates(f, b_ack, b_report)
    d = len(f)
    out = np.zeros(d + 1)

    for k, pk in _first_failure(f):
        if k is None:
            for a_rev, pa in _first_failure(b_ack[::-1]):
                if a_rev is None:
                    out[d] += pk * pa  # ack arrived: observed, no blame
                    continue
                # Probe; every node still has state, so D is reachable.
                for j, pj in _first_failure(f):
                    m = d if j is None else j
                    for depth, pr in _final_report_depth(m, b_report):
                        target = d if depth == d else depth
                        out[target] += pk * pa * pj * pr
        else:
            for j, pj in _first_failure(f[:k]):
                m = k if j is None else j
                for depth, pr in _final_report_depth(m, b_report):
                    out[depth] += pk * pj * pr

    return OutcomeModel(KIND_BLAME, out, rounds_per_packet=probe_frequency)


# ---------------------------------------------------------------------------
# PAAI-2 family
# ---------------------------------------------------------------------------


def _paai2_mismatch_terms(
    f: Sequence[float],
    b_report: Sequence[float],
    k: Optional[int],
    out: np.ndarray,
    weight: float,
) -> None:
    """Distribute one probed round's probability over (e, match) outcomes.

    ``k`` is the link where the data dropped (None when delivered). The
    selected node ``e`` is uniform on ``1..d``. A round *matches* iff the
    data reached ``F_e`` (``k`` is None or ``e <= k``), the probe reached
    ``F_e`` (no forward drop on crossings ``l_0..l_{e-1}``), and ``F_e``'s
    report survived the reverse crossings ``l_{e-1}..l_0`` without
    regeneration by another node.
    """
    d = len(f)
    for e in range(1, d + 1):
        p_e = weight / d
        if k is not None and e > k:
            out[e - 1] += p_e  # F_e never saw the packet: mismatch
            continue
        survive = 1.0
        for j in range(e):
            survive *= (1.0 - f[j]) * (1.0 - b_report[j])
        out[e - 1] += p_e * (1.0 - survive)
        out[d] += p_e * survive


def paai2_model(
    f: Sequence[float],
    b_ack: Sequence[float],
    b_report: Sequence[float],
) -> OutcomeModel:
    """PAAI-2: every data packet is one observation round."""
    f, b_ack, b_report = _validate_rates(f, b_ack, b_report)
    d = len(f)
    out = np.zeros(d + 1)

    for k, pk in _first_failure(f):
        if k is None:
            for a_rev, pa in _first_failure(b_ack[::-1]):
                if a_rev is None:
                    out[d] += pk * pa  # delivered: no probe, no score
                else:
                    _paai2_mismatch_terms(f, b_report, None, out, pk * pa)
        else:
            _paai2_mismatch_terms(f, b_report, k, out, pk)

    return OutcomeModel(KIND_INTERVAL, out, rounds_per_packet=1.0)


def combo2_model(
    f: Sequence[float],
    b_ack: Sequence[float],
    b_report: Sequence[float],
    probe_frequency: float,
) -> OutcomeModel:
    """Combination 2: PAAI-2 semantics on the sampled fraction only."""
    model = paai2_model(f, b_ack, b_report)
    return OutcomeModel(
        model.kind, model.probabilities, rounds_per_packet=probe_frequency
    )


# ---------------------------------------------------------------------------
# Dispatch helpers
# ---------------------------------------------------------------------------


def combine_rates(natural: float, malicious: float) -> float:
    """Combined per-crossing drop probability of independent causes."""
    return 1.0 - (1.0 - natural) * (1.0 - malicious)


def build_model(
    name: str,
    f: Sequence[float],
    b_ack: Sequence[float],
    b_report: Sequence[float],
    params: ProtocolParams,
) -> OutcomeModel:
    """Build the outcome model for a registry-named protocol.

    The statistical FL baseline has no per-round blame distribution (its
    estimator reads counters) and is handled separately by the analysis
    and Monte-Carlo layers.
    """
    if name in ("full-ack", "sig-ack"):
        # Sig-ack replaces MACs with signatures; its per-round blame
        # semantics are identical to full-ack's.
        return fullack_model(f, b_ack, b_report)
    if name == "paai1":
        return paai1_model(f, b_ack, b_report, params.probe_frequency)
    if name == "paai2":
        return paai2_model(f, b_ack, b_report)
    if name == "combo1":
        return combo1_model(f, b_ack, b_report, params.probe_frequency)
    if name == "combo2":
        return combo2_model(f, b_ack, b_report, params.probe_frequency)
    raise ConfigurationError(f"no outcome model for protocol {name!r}")


def natural_estimates(name: str, params: ProtocolParams) -> List[float]:
    """Expected per-link estimates with every link at the natural rate.

    For the statistical FL baseline the estimator reads survival ratios,
    whose natural expectation is exactly ``rho`` per link.
    """
    if name == "statfl":
        return [params.natural_loss] * params.path_length
    rho = [params.natural_loss] * params.path_length
    return build_model(name, rho, rho, rho, params).expected_estimates()


def malicious_estimates(name: str, params: ProtocolParams, link: int) -> List[float]:
    """Expected estimates with the §8.1 adversary at node ``link``
    dropping at the threshold margin ``epsilon`` (so the link's total
    forward rate is ``alpha``)."""
    if not 0 <= link < params.path_length:
        raise ConfigurationError(f"link {link} off path")
    rho = params.natural_loss
    eps = params.epsilon
    if name == "statfl":
        estimates = [rho] * params.path_length
        estimates[link] = combine_rates(rho, eps)
        return estimates
    f = [rho] * params.path_length
    b_ack = [rho] * params.path_length
    b_report = [rho] * params.path_length
    f[link] = combine_rates(rho, eps)
    b_ack[link] = combine_rates(rho, eps)
    return build_model(name, f, b_ack, b_report, params).expected_estimates()


def calibrated_thresholds(name: str, params: ProtocolParams) -> List[float]:
    """Per-link conviction thresholds at the Hoeffding midpoint.

    For each link the threshold sits halfway between the expected estimate
    under the honest hypothesis (all links natural) and under the §8.1
    malicious hypothesis (that link's node dropping at ``epsilon``) —
    the per-protocol generalization of Theorem 2's midpoint test.
    """
    natural = natural_estimates(name, params)
    thresholds = []
    for link in range(params.path_length):
        malicious = malicious_estimates(name, params, link)[link]
        thresholds.append((natural[link] + malicious) / 2.0)
    return thresholds


def decision_thresholds(name: str, params: ProtocolParams) -> List[float]:
    """Per-link conviction thresholds: the one policy every engine uses.

    An explicit ``params.decision_threshold`` wins (applied to every
    link); otherwise each link gets its :func:`calibrated_thresholds`
    value.
    """
    if params.decision_threshold is not None:
        return [params.decision_threshold] * params.path_length
    return calibrated_thresholds(name, params)
