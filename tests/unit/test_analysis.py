"""Tests for the §7 analysis module, anchored to the paper's own numbers:
tau1 ~= 1500, tau2 ~= 5e4, tau3 ~= 6e5, statFL ~= 2e7 (§7.2), and the
Table 2 bound column (0.25 / 9 / 100 / 3333 minutes at 100 pkt/s; 12 /
3.2 / 12 / <1 packets of storage)."""

import math

import pytest

from repro.analysis.bounds import (
    equivalent_uniform_rate,
    malicious_drop_bound,
    optimal_strategy_drop_rates,
    psi_threshold,
    zeta_vs_natural_loss,
)
from repro.analysis.comparison import ROW_ORDER, table1_rows
from repro.analysis.detection import (
    detection_packets,
    detection_time_minutes,
    statfl_detection_packets,
    tau1_fullack,
    tau2_paai1,
    tau3_paai2,
)
from repro.analysis.hoeffding import (
    hoeffding_confidence,
    hoeffding_deviation,
    hoeffding_failure_probability,
    hoeffding_sample_size,
    hoeffding_tail,
)
from repro.analysis.overhead import (
    communication_overhead,
    practicality_summary,
    storage_bound_packets,
)
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError

PAPER = ProtocolParams()  # d=6, rho=0.01, alpha=0.03, sigma=0.03, p=1/36


class TestHoeffding:
    def test_sample_size_roundtrip(self):
        n = hoeffding_sample_size(accuracy=0.01, sigma=0.03)
        assert hoeffding_deviation(n, sigma=0.03) == pytest.approx(0.01)

    def test_failure_probability_decreases(self):
        early = hoeffding_failure_probability(100, 0.01)
        late = hoeffding_failure_probability(100_000, 0.01)
        assert late < early

    def test_tail_keeps_left_to_right_float_order(self):
        # (-2 n t) t and (-2 n) t**2 round differently here; the fusion
        # verdicts and the netexp ledger are pinned to the former.
        samples, accuracy = 233, 0.17866340851152704
        assert hoeffding_tail(samples, accuracy) == math.exp(
            -2.0 * samples * accuracy * accuracy
        )
        assert hoeffding_tail(samples, accuracy) != math.exp(
            -2.0 * samples * accuracy ** 2
        )

    def test_failure_probability_is_twice_the_tail(self):
        assert hoeffding_failure_probability(500, 0.05) == (
            2.0 * hoeffding_tail(500, 0.05)
        )

    def test_confidence_is_symmetric_in_the_margin(self):
        assert hoeffding_confidence(0, 0.3) == 0.0
        assert hoeffding_confidence(50, 0.2) == hoeffding_confidence(50, -0.2)
        assert hoeffding_confidence(50, 0.2) == pytest.approx(
            1.0 - math.exp(-2.0 * 50 * 0.2 ** 2)
        )
        assert hoeffding_confidence(50, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hoeffding_sample_size(0.0, 0.03)
        with pytest.raises(ConfigurationError):
            hoeffding_sample_size(0.01, 1.5)
        with pytest.raises(ConfigurationError):
            hoeffding_deviation(0, 0.03)


class TestDetectionRates:
    """§7.2: 'we have tau1 ~= 1500, tau2 ~= 5e4 and tau3 ~= 6e5; whereas
    the detection rate in statistical FL is 2e7'."""

    def test_tau1_matches_paper_example(self):
        assert tau1_fullack(PAPER) == pytest.approx(1500, rel=0.06)

    def test_tau2_matches_paper_example(self):
        assert tau2_paai1(PAPER) == pytest.approx(5e4, rel=0.1)

    def test_tau3_matches_paper_example(self):
        assert tau3_paai2(PAPER) == pytest.approx(6e5, rel=0.1)

    def test_statfl_matches_paper_example(self):
        assert statfl_detection_packets(PAPER) == pytest.approx(2e7, rel=0.2)

    def test_table2_bound_minutes(self):
        """Table 2's bound column at 100 packets/second."""
        assert detection_time_minutes("full-ack", PAPER, 100.0) == pytest.approx(
            0.25, rel=0.06
        )
        assert detection_time_minutes("paai1", PAPER, 100.0) == pytest.approx(
            9.0, rel=0.1
        )
        assert detection_time_minutes("paai2", PAPER, 100.0) == pytest.approx(
            100.0, rel=0.1
        )
        assert detection_time_minutes("statfl", PAPER, 100.0) == pytest.approx(
            3333.0, rel=0.2
        )

    def test_corollary3_sigma_dominates_fullack(self):
        """Corollary 3: sigma drives the detection rate; rho and d barely
        matter for full-ack and PAAI-1."""
        base = tau1_fullack(PAPER)
        tighter_sigma = tau1_fullack(PAPER.replace(sigma=0.003))
        assert tighter_sigma / base > 1.5
        longer_path = tau1_fullack(PAPER.replace(path_length=12))
        assert longer_path / base < 1.1
        # Vary rho with the margin epsilon held fixed (alpha = rho + eps),
        # as the corollary intends.
        lossier = tau1_fullack(PAPER.replace(natural_loss=0.02, alpha=0.04))
        assert lossier / base < 1.1

    def test_corollary3_paai2_depends_on_path_length(self):
        short = tau3_paai2(PAPER.replace(path_length=4))
        long = tau3_paai2(PAPER.replace(path_length=8))
        assert long / short > 10  # 2^d factor bites

    def test_paai1_scales_inversely_with_p(self):
        high_p = tau2_paai1(PAPER.replace(probe_frequency=0.5))
        low_p = tau2_paai1(PAPER.replace(probe_frequency=0.05))
        assert low_p / high_p == pytest.approx(10.0)

    def test_section9_p_over_5d2_bound(self):
        """§9: with p = 1/(5 d^2) the PAAI-1 bound becomes ~45 minutes."""
        params = PAPER.replace(probe_frequency=1.0 / (5 * 36))
        assert detection_time_minutes("paai1", params, 100.0) == pytest.approx(
            45.0, rel=0.1
        )

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            detection_packets("bogus", PAPER)
        with pytest.raises(ConfigurationError):
            detection_time_minutes("full-ack", PAPER, 0.0)


class TestTheorem1Bounds:
    def test_psi_threshold(self):
        assert psi_threshold(PAPER) == pytest.approx(1 - 0.97 ** 12)

    def test_fullack_linear_in_z(self):
        assert malicious_drop_bound("full-ack", PAPER, z=1) == pytest.approx(0.03)
        assert malicious_drop_bound("paai1", PAPER, z=3) == pytest.approx(0.09)

    def test_paai2_formula(self):
        expected = 1 - (0.97 ** 12) / (0.99 ** 10)
        assert malicious_drop_bound("paai2", PAPER, z=1) == pytest.approx(expected)

    def test_paai2_weaker_than_paai1(self):
        """PAAI-2's bound permits more undetected damage — the security
        cost of interval scoring."""
        assert malicious_drop_bound("paai2", PAPER, z=1) > malicious_drop_bound(
            "paai1", PAPER, z=1
        )

    def test_z_validation(self):
        with pytest.raises(ConfigurationError):
            malicious_drop_bound("paai1", PAPER, z=-1)
        with pytest.raises(ConfigurationError):
            malicious_drop_bound("paai1", PAPER, z=7)

    def test_corollary1_uniform_equivalent(self):
        uniform = equivalent_uniform_rate(0.03, 0.03, 0.03)
        assert uniform == pytest.approx(0.03)
        mixed = equivalent_uniform_rate(0.09, 0.0, 0.0)
        # Same total budget spread evenly is slightly above 0.03 (products).
        assert 0.025 < mixed < 0.035

    def test_corollary2_spread_beats_concentration(self):
        result = optimal_strategy_drop_rates(PAPER, z=3, paths=3)
        assert result["spread_one_per_path"] >= result["concentrated_single_path"]

    def test_corollary2_zeta_linear_in_rho(self):
        pairs = zeta_vs_natural_loss(PAPER, z=1, rhos=[0.005, 0.01, 0.02])
        zetas = [zeta for _, zeta in pairs]
        assert zetas == sorted(zetas)
        # Approximate linearity: second difference small.
        d1 = zetas[1] - zetas[0]
        d2 = zetas[2] - zetas[1]
        assert abs(d2 - 2 * d1) < 0.3 * abs(d2)


class TestOverheadFormulas:
    def test_fullack_communication(self):
        psi = 1 - 0.99 ** 6
        value = communication_overhead("full-ack", PAPER, psi=psi)
        assert value == pytest.approx(1 + psi * 7, rel=1e-6)

    def test_paai1_communication_small(self):
        value = communication_overhead("paai1", PAPER)
        assert value == pytest.approx((1 / 36) * 7)

    def test_section9_three_percent_overhead(self):
        """§9: p = 1/(5 d^2) gives ~3% overhead at d=6 (O(pd) units against
        one data packet)."""
        params = PAPER.replace(probe_frequency=1.0 / (5 * 36))
        units = communication_overhead("paai1", params)
        assert units * 1 == pytest.approx(0.039, rel=0.1)

    def test_paai2_constant(self):
        assert communication_overhead("paai2", PAPER, psi=0.0) == 1.0

    def test_authenticated_probes_cost_d(self):
        params = PAPER.replace(authenticated_probes=True)
        plain = communication_overhead("paai1", PAPER)
        auth = communication_overhead("paai1", params)
        assert auth > plain

    def test_storage_table2_values(self):
        """Table 2: full-ack bound 12 packets, PAAI-1 bound 3.2 packets at
        nu = 100 pkt/s with r0 = 60 ms."""
        assert storage_bound_packets("full-ack", PAPER, 100.0, "worst") == (
            pytest.approx(12.0)
        )
        assert storage_bound_packets("paai1", PAPER, 100.0, "worst") == (
            pytest.approx(3.17, rel=0.02)
        )
        assert storage_bound_packets("paai2", PAPER, 100.0, "worst") == (
            pytest.approx(12.0)
        )
        assert storage_bound_packets("statfl", PAPER, 100.0, "worst") < 1.0

    def test_storage_ideal_leq_worst(self):
        for name in ROW_ORDER:
            worst = storage_bound_packets(name, PAPER, 1000.0, "worst")
            ideal = storage_bound_packets(name, PAPER, 1000.0, "ideal")
            assert ideal <= worst, name

    def test_storage_scales_with_rate(self):
        slow = storage_bound_packets("full-ack", PAPER, 100.0)
        fast = storage_bound_packets("full-ack", PAPER, 1000.0)
        assert fast == pytest.approx(10 * slow)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            communication_overhead("full-ack", PAPER, psi=1.5)
        with pytest.raises(ConfigurationError):
            storage_bound_packets("full-ack", PAPER, 0.0)
        with pytest.raises(ConfigurationError):
            storage_bound_packets("full-ack", PAPER, 100.0, "typical")
        with pytest.raises(ConfigurationError):
            communication_overhead("bogus", PAPER)


class TestTable1:
    def test_rows_cover_all_protocols(self):
        rows = table1_rows(PAPER)
        assert [row.protocol for row in rows] == ROW_ORDER

    def test_detection_ordering_matches_paper(self):
        """Full-ack < PAAI-1 < PAAI-2 < statistical FL in detection rate."""
        rows = {row.protocol: row for row in table1_rows(PAPER)}
        assert (
            rows["full-ack"].detection_packets
            < rows["paai1"].detection_packets
            < rows["paai2"].detection_packets
            < rows["statfl"].detection_packets
        )

    def test_communication_ordering(self):
        rows = {row.protocol: row for row in table1_rows(PAPER)}
        assert rows["paai1"].communication_units < rows["full-ack"].communication_units
        assert rows["combo1"].communication_units < rows["paai1"].communication_units
        assert rows["combo2"].communication_units < rows["paai2"].communication_units

    def test_symbolic_formulas_present(self):
        for row in table1_rows(PAPER):
            assert row.detection_formula
            assert row.communication_formula
            assert row.storage_worst_formula

    def test_practicality_summary(self):
        summary = practicality_summary(PAPER, 100.0)
        assert set(summary) == set(ROW_ORDER)
        assert summary["paai1"]["detection_minutes"] == pytest.approx(9.0, rel=0.1)
