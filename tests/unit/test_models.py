"""Tests for the closed-form outcome models (analytic properties; wire
agreement is covered in the integration suite)."""

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.protocols import models

D = 6
RHO = [0.01] * D
PARAMS = ProtocolParams()
ALL_MODELED = ["full-ack", "paai1", "paai2", "combo1", "combo2"]


def build(name, f=None, b_ack=None, b_report=None, params=PARAMS):
    return models.build_model(
        name, f or RHO, b_ack or RHO, b_report or RHO, params
    )


def paper_rates(beta=0.02, link=4):
    """Rate triple for the §8.1 adversary at one node."""
    f = list(RHO)
    b_ack = list(RHO)
    b_report = list(RHO)
    f[link] = models.combine_rates(0.01, beta)
    b_ack[link] = models.combine_rates(0.01, beta)
    return f, b_ack, b_report


class TestDistributionBasics:
    @pytest.mark.parametrize("name", ALL_MODELED)
    def test_sums_to_one(self, name):
        model = build(name)
        assert model.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_MODELED)
    def test_lossless_path_never_blames(self, name):
        zero = [0.0] * D
        model = models.build_model(name, zero, zero, zero, PARAMS)
        assert model.probabilities[D] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["full-ack", "paai1", "combo1"])
    def test_dead_link_always_blamed(self, name):
        f = [0.0] * D
        f[3] = 1.0
        zero = [0.0] * D
        model = models.build_model(name, f, zero, zero, PARAMS)
        assert model.probabilities[3] == pytest.approx(1.0)

    def test_paai2_dead_link_mismatch_profile(self):
        f = [0.0] * D
        f[3] = 1.0
        zero = [0.0] * D
        model = models.build_model("paai2", f, zero, zero, PARAMS)
        # Mismatch iff e > 3 (uniform 1/6 each); match (no score) otherwise.
        for e in (4, 5, 6):
            assert model.probabilities[e - 1] == pytest.approx(1 / 6)
        assert model.probabilities[D] == pytest.approx(3 / 6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            models.fullack_model([0.1], [0.1, 0.2], [0.1])
        with pytest.raises(ConfigurationError):
            models.fullack_model([1.5], [0.1], [0.1])
        with pytest.raises(ConfigurationError):
            models.build_model("bogus", RHO, RHO, RHO, PARAMS)


class TestExpectedEstimates:
    @pytest.mark.parametrize("name", ALL_MODELED)
    def test_natural_estimates_flat_for_inner_links(self, name):
        natural = models.natural_estimates(name, PARAMS)
        inner = natural[1:-1]
        assert max(inner) - min(inner) < 0.004, natural

    def test_fullack_natural_estimates_near_two_rho(self):
        natural = models.natural_estimates("full-ack", PARAMS)
        for value in natural[:-1]:
            assert 0.012 < value < 0.025, natural

    def test_paai1_natural_estimates_near_three_rho(self):
        """PAAI-1 probes every sampled round: three crossings per link per
        round (data, probe, report) -> natural blame ~ 3*rho."""
        natural = models.natural_estimates("paai1", PARAMS)
        for value in natural[:-1]:
            assert 0.022 < value < 0.035, natural

    def test_paai2_natural_estimates_near_rho(self):
        natural = models.natural_estimates("paai2", PARAMS)
        for value in natural:
            assert abs(value - 0.01) < 0.005, natural

    def test_statfl_natural_estimates_exact(self):
        assert models.natural_estimates("statfl", PARAMS) == [0.01] * D

    @pytest.mark.parametrize("name", ALL_MODELED)
    def test_paper_adversary_raises_estimate(self, name):
        model = models.build_model(name, *paper_rates(), PARAMS)
        natural = models.natural_estimates(name, PARAMS)
        estimates = model.expected_estimates()
        # The malicious link must rise clearly above its natural level...
        assert estimates[4] > natural[4] + 0.015, (estimates, natural)
        # ...while honest inner links stay close to natural.
        for link in (1, 2, 3):
            assert abs(estimates[link] - natural[link]) < 0.006, (
                link, estimates, natural,
            )

    def test_fullack_malicious_bump_is_two_beta(self):
        """Data (forward) and e2e-ack (reverse ingress) drops both land on
        the malicious link: total bump ~ 2*beta over natural."""
        model = models.build_model("full-ack", *paper_rates(beta=0.02), PARAMS)
        natural = models.natural_estimates("full-ack", PARAMS)
        bump = model.expected_estimates()[4] - natural[4]
        assert 0.030 < bump < 0.045, bump

    def test_paai1_malicious_bump_is_two_beta(self):
        """Data and probe (both forward) drops land on the malicious link."""
        model = models.build_model("paai1", *paper_rates(beta=0.02), PARAMS)
        natural = models.natural_estimates("paai1", PARAMS)
        bump = model.expected_estimates()[4] - natural[4]
        assert 0.030 < bump < 0.045, bump

    def test_paai2_malicious_bump_is_one_beta(self):
        """Only forward data drops move PAAI-2's estimator; ack swallowing
        is unscored (the protocol's weaker Theorem 1(b) guarantee)."""
        model = models.build_model("paai2", *paper_rates(beta=0.02), PARAMS)
        natural = models.natural_estimates("paai2", PARAMS)
        bump = model.expected_estimates()[4] - natural[4]
        assert 0.012 < bump < 0.028, bump


class TestCalibratedThresholds:
    @pytest.mark.parametrize("name", ALL_MODELED + ["statfl"])
    def test_thresholds_between_hypotheses(self, name):
        natural = models.natural_estimates(name, PARAMS)
        thresholds = models.calibrated_thresholds(name, PARAMS)
        for link in range(D):
            malicious = models.malicious_estimates(name, PARAMS, link)[link]
            assert natural[link] < thresholds[link] < malicious, (
                name, link, natural[link], thresholds[link], malicious,
            )
            assert thresholds[link] == pytest.approx(
                (natural[link] + malicious) / 2
            )

    def test_statfl_threshold_is_forward_midpoint(self):
        thresholds = models.calibrated_thresholds("statfl", PARAMS)
        expected = (0.01 + models.combine_rates(0.01, 0.02)) / 2
        for value in thresholds:
            assert value == pytest.approx(expected)

    def test_malicious_estimates_validation(self):
        with pytest.raises(ConfigurationError):
            models.malicious_estimates("paai1", PARAMS, link=-1)
        with pytest.raises(ConfigurationError):
            models.malicious_estimates("paai1", PARAMS, link=D)


def _midpoints(name, params):
    """Thresholds recomputed from the two hypotheses, bypassing the memo."""
    natural = models.natural_estimates(name, params)
    return [
        (natural[link] + models.malicious_estimates(name, params, link)[link]) / 2
        for link in range(params.path_length)
    ]


MEMO_PARAMS = [
    ProtocolParams(),
    ProtocolParams(path_length=3, natural_loss=0.02, alpha=0.05),
    ProtocolParams(path_length=9, probe_frequency=0.25),
    ProtocolParams(natural_loss=0.0, alpha=0.1, max_link_latency=0.01),
]


class TestThresholdMemo:
    @pytest.mark.parametrize("name", ALL_MODELED + ["sig-ack", "statfl"])
    @pytest.mark.parametrize("params", MEMO_PARAMS)
    def test_cached_equals_uncached(self, name, params):
        models._calibrated.cache_clear()
        cold = models.calibrated_thresholds(name, params)
        warm = models.calibrated_thresholds(name, params)
        assert cold == warm == _midpoints(name, params)

    @pytest.mark.parametrize("name", ALL_MODELED + ["statfl"])
    @pytest.mark.parametrize("field, value", [
        ("natural_loss", 0.015),
        ("path_length", 4),
    ])
    def test_mutated_params_never_read_a_stale_entry(self, name, field, value):
        params = ProtocolParams()
        before = models.calibrated_thresholds(name, params)
        setattr(params, field, value)
        after = models.calibrated_thresholds(name, params)
        assert after != before
        assert after == _midpoints(name, params)

    def test_probe_frequency_is_part_of_the_key(self):
        # Expected estimates are per observation round, so no model's
        # thresholds move with p; the key must still tell them apart.
        params = ProtocolParams()
        models.calibrated_thresholds("paai1", params)
        misses = models._calibrated.cache_info().misses
        params.probe_frequency = 0.5
        after = models.calibrated_thresholds("paai1", params)
        assert models._calibrated.cache_info().misses == misses + 1
        assert after == _midpoints("paai1", params)

    def test_returned_list_is_a_private_copy(self):
        first = models.calibrated_thresholds("paai2", PARAMS)
        expected = list(first)
        first[0] = 99.0
        first.append(1.0)
        assert models.calibrated_thresholds("paai2", PARAMS) == expected
        assert models.decision_thresholds("paai2", PARAMS) == expected

    def test_explicit_decision_threshold_still_wins(self):
        models.calibrated_thresholds("full-ack", PARAMS)
        params = ProtocolParams(decision_threshold=0.3)
        assert models.decision_thresholds("full-ack", params) == [0.3] * D
        params.decision_threshold = None
        assert models.decision_thresholds("full-ack", params) == (
            models.calibrated_thresholds("full-ack", PARAMS)
        )


class TestScoreMatrix:
    def test_blame_matrix_is_identity_plus_zero_row(self):
        model = build("full-ack")
        matrix = model.score_matrix()
        assert matrix.shape == (D + 1, D)
        assert (matrix[:D] == np.eye(D)).all()
        assert (matrix[D] == 0).all()

    def test_interval_matrix_is_lower_triangular(self):
        model = build("paai2")
        matrix = model.score_matrix()
        for e in range(D):
            assert (matrix[e, : e + 1] == 1).all()
            assert (matrix[e, e + 1 :] == 0).all()
        assert (matrix[D] == 0).all()


class TestRoundsPerPacket:
    def test_values(self):
        assert build("full-ack").rounds_per_packet == 1.0
        assert build("paai2").rounds_per_packet == 1.0
        assert build("paai1").rounds_per_packet == pytest.approx(1 / 36)
        assert build("combo1").rounds_per_packet == pytest.approx(1 / 36)
        assert build("combo2").rounds_per_packet == pytest.approx(1 / 36)

    def test_combine_rates(self):
        assert models.combine_rates(0.0, 0.5) == 0.5
        assert models.combine_rates(0.01, 0.02) == pytest.approx(0.0298)
