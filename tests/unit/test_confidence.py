"""Tests for confidence-aware identification."""

import pytest

from repro.core.confidence import (
    ConfidentVerdict,
    confident_identify,
    hoeffding_half_width,
)
from repro.exceptions import ConfigurationError


class TestHalfWidth:
    def test_shrinks_with_rounds(self):
        early = hoeffding_half_width(100, 0.03)
        late = hoeffding_half_width(10_000, 0.03)
        assert late < early / 5

    def test_infinite_before_any_round(self):
        assert hoeffding_half_width(0, 0.03) == float("inf")

    def test_union_bound_widens(self):
        single = hoeffding_half_width(1000, 0.03, links=1)
        family = hoeffding_half_width(1000, 0.03, links=6)
        assert family > single

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hoeffding_half_width(100, 0.0)
        with pytest.raises(ConfigurationError):
            hoeffding_half_width(100, 0.03, links=0)

    def test_validation_precedes_the_no_rounds_shortcut(self):
        with pytest.raises(ConfigurationError):
            hoeffding_half_width(0, 5.0)
        with pytest.raises(ConfigurationError):
            hoeffding_half_width(0, 0.03, links=0)


class TestConfidentIdentify:
    def test_everything_undecided_early(self):
        verdict = confident_identify(
            [0.01, 0.05], thresholds=0.03, samples=[10, 10], sigma=0.03
        )
        assert verdict.undecided == {0, 1}
        assert not verdict.decided

    def test_clear_separation_decides(self):
        verdict = confident_identify(
            [0.01, 0.30], thresholds=0.1, samples=[5000, 5000], sigma=0.03
        )
        assert verdict.convicted == {1}
        assert verdict.cleared == {0}
        assert verdict.decided

    def test_per_link_thresholds(self):
        verdict = confident_identify(
            [0.20, 0.20], thresholds=[0.5, 0.05], samples=[5000, 5000],
            sigma=0.03,
        )
        assert verdict.cleared == {0}
        assert verdict.convicted == {1}

    def test_variance_scale_widens(self):
        narrow = confident_identify(
            [0.1], thresholds=0.05, samples=[5000], sigma=0.03, variance_scale=1.0
        )
        wide = confident_identify(
            [0.1], thresholds=0.05, samples=[5000], sigma=0.03, variance_scale=12.0
        )
        assert wide.half_widths[0] > 3 * narrow.half_widths[0]
        assert narrow.convicted == {0}
        assert wide.undecided == {0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            confident_identify([0.1], thresholds=[0.1, 0.2], samples=[10], sigma=0.03)
        with pytest.raises(ConfigurationError):
            confident_identify([0.1], thresholds=0.1, samples=[10], sigma=0.03,
                               variance_scale=0.0)
        with pytest.raises(ConfigurationError):
            confident_identify([0.1, 0.2], thresholds=0.1, samples=[10],
                               sigma=0.03)

    def test_sigma_checked_before_any_sample(self):
        # With samples [10, 10] this call raises; without samples it
        # must not quietly return every link undecided instead.
        with pytest.raises(ConfigurationError):
            confident_identify([0.5, 0.0], [0.1, 0.1], [10, 10], sigma=5.0)
        with pytest.raises(ConfigurationError):
            confident_identify([0.5, 0.0], [0.1, 0.1], [0, 0], sigma=5.0)

    def test_each_interval_sized_by_its_own_samples(self):
        # Same estimate, different evidence: only the well-sampled link
        # is convicted; the 2-sample one stays undecided.
        verdict = confident_identify(
            [1.0, 1.0], thresholds=0.02, samples=[200, 2], sigma=0.03
        )
        assert verdict.convicted == {0}
        assert verdict.undecided == {1}
        assert verdict.half_widths[1] > verdict.half_widths[0]

    def test_verdict_dataclass(self):
        verdict = ConfidentVerdict(
            convicted={1}, cleared={0}, undecided=set(),
            estimates=[0.0, 0.5], half_widths=[0.01, 0.01], samples=[100, 100],
        )
        assert verdict.decided


class TestWireIntegration:
    def test_confident_verdict_on_wire_protocol(self):
        from repro.core.params import ProtocolParams
        from repro.net.simulator import Simulator
        from repro.workloads.scenarios import paper_scenario

        # A clearly-malicious node (5% drops vs the eps=2% threshold
        # margin) so the confident verdict resolves in a short run.
        scenario = paper_scenario(
            params=ProtocolParams(probe_frequency=0.5), node_drop_rate=0.05
        )
        simulator = Simulator(seed=5)
        protocol = scenario.build_protocol("paai1", simulator)
        protocol.run_traffic(count=1000, rate=2000.0)
        early = protocol.confident_identify()
        # Too few rounds: no honest link is ever confidently convicted.
        assert not early.convicted - {4}
        protocol.run_traffic(count=19_000, rate=2000.0)
        late = protocol.confident_identify()
        assert 4 in late.convicted
        assert not late.convicted - {4}
        assert max(late.half_widths) < min(early.half_widths)

    def test_paai2_uses_wider_intervals(self):
        from repro.core.params import ProtocolParams
        from repro.net.simulator import Simulator
        from repro.workloads.scenarios import paper_scenario

        scenario = paper_scenario()
        sim1, sim2 = Simulator(seed=6), Simulator(seed=6)
        paai2 = scenario.build_protocol("paai2", sim1)
        fullack = scenario.build_protocol("full-ack", sim2)
        paai2.run_traffic(count=500, rate=1000.0)
        fullack.run_traffic(count=500, rate=1000.0)
        assert (
            paai2.confident_identify().half_widths[0]
            > fullack.confident_identify().half_widths[0]
        )
