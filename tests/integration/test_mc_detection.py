"""Tests of the Monte-Carlo detection engine: FP/FN curves behave like
Figure 2, convergence scales match Table 2's ordering, and the engine's
verdicts line up with wire-simulation ground truth."""

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mc.detection import (
    DetectionExperiment,
    default_checkpoints,
    resolve_checkpoints,
)
from repro.mc.netexp import NetworkExperiment
from repro.protocols import models
from repro.topology.graph import line_topology
from repro.workloads.scenarios import Scenario, paper_scenario

SCENARIO = paper_scenario()


class TestDefaultCheckpoints:
    def test_log_spaced_and_capped(self):
        points = default_checkpoints(100_000, points=20)
        assert points[0] >= 10
        assert points[-1] == 100_000
        assert points == sorted(points)
        assert len(set(points)) == len(points)

    def test_small_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            default_checkpoints(5)


class TestFullAckDetection:
    def test_converges_near_table2(self):
        """Full-ack: theory bound 1500 packets; the simulated average is
        'nearly twice better' (Table 2: ~1000 packets). Accept the band
        [200, 1500] for the population convergence point."""
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=2000, horizon=4000, seed=1
        )
        result = experiment.run()
        converged = result.convergence_packets(SCENARIO.params.sigma)
        assert converged is not None
        assert 200 <= converged <= 1500, converged

    def test_fp_fn_decay_monotonically_in_trend(self):
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=1000, horizon=4000, seed=2
        )
        curve = experiment.run().curve
        # Late rates must be far below early rates.
        assert curve.fn_rates[0] > 0.5
        assert curve.fn_rates[-1] < 0.01
        assert curve.fp_rates[-1] < 0.01

    def test_final_estimates_concentrate_correctly(self):
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=500, horizon=4000, seed=3
        )
        result = experiment.run()
        means = result.estimates_last.mean(axis=0)
        # Malicious link ~ 2*rho + 2*beta ~ 0.058; honest ~ 2*rho ~ 0.02.
        assert 0.045 < means[4] < 0.07
        for link in (0, 1, 2, 3):
            assert 0.012 < means[link] < 0.027, (link, means)


class TestPaai1Detection:
    def test_converges_near_table2(self):
        """PAAI-1 at p=1/36: bound 5.4e4, simulated average ~2.5e4."""
        experiment = DetectionExperiment(
            "paai1", SCENARIO, runs=800, horizon=80_000, seed=4
        )
        result = experiment.run()
        converged = result.convergence_packets(SCENARIO.params.sigma)
        assert converged is not None
        assert 8_000 <= converged <= 60_000, converged

    def test_average_detection_faster_than_bound(self):
        experiment = DetectionExperiment(
            "paai1", SCENARIO, runs=400, horizon=80_000, seed=5
        )
        result = experiment.run()
        average = result.average_detection_packets()
        assert average < 5.4e4  # beats the theory bound on average


class TestPaai2Detection:
    def test_slower_than_paai1(self):
        paai1 = DetectionExperiment(
            "paai1", SCENARIO, runs=300, horizon=120_000, seed=6
        ).run()
        paai2 = DetectionExperiment(
            "paai2", SCENARIO, runs=300, horizon=120_000, seed=6
        ).run()
        c1 = paai1.convergence_packets(0.05)
        c2 = paai2.convergence_packets(0.05)
        assert c1 is not None
        # PAAI-2 either converges later or not at all within this horizon.
        assert c2 is None or c2 > c1

    def test_distant_links_converge_slower(self):
        """Figure 2(c)'s observation: estimates for links farther from the
        source carry more variance under interval scoring."""
        experiment = DetectionExperiment(
            "paai2", SCENARIO, runs=600, horizon=30_000, seed=7
        )
        result = experiment.run()
        variances = result.estimates_last.var(axis=0)
        assert variances[4] > variances[0], variances


class TestStatFLDetection:
    def test_far_slower_than_paai1(self):
        statfl = DetectionExperiment(
            "statfl", SCENARIO, runs=300, horizon=200_000, seed=8,
            fl_sampling=0.01,
        ).run()
        converged = statfl.convergence_packets(SCENARIO.params.sigma)
        # At 2e5 packets statFL (detection rate ~2e7) must NOT be converged.
        assert converged is None or converged > 100_000

    def test_estimates_unbiased(self):
        statfl = DetectionExperiment(
            "statfl", SCENARIO, runs=400, horizon=100_000, seed=9,
            fl_sampling=0.05,
        ).run()
        means = statfl.estimates_last.mean(axis=0)
        # Forward rates: rho everywhere except the combined rate at l4.
        assert abs(means[0] - 0.01) < 0.01
        assert abs(means[4] - 0.0296) < 0.012


class TestCombinationProtocols:
    def test_combo1_matches_paai1_scale(self):
        combo1 = DetectionExperiment(
            "combo1", SCENARIO, runs=300, horizon=80_000, seed=10
        ).run()
        converged = combo1.convergence_packets(0.05)
        assert converged is not None
        assert converged <= 80_000

    def test_combo2_slowest(self):
        combo2 = DetectionExperiment(
            "combo2", SCENARIO, runs=200, horizon=100_000, seed=11
        ).run()
        # Combination 2 (PAAI-2 / p) cannot converge at 1e5 packets.
        assert combo2.convergence_packets(SCENARIO.params.sigma) is None


class TestValidation:
    def test_bad_runs(self):
        with pytest.raises(ConfigurationError):
            DetectionExperiment("full-ack", SCENARIO, runs=0)

    def test_bad_checkpoints(self):
        with pytest.raises(ConfigurationError):
            DetectionExperiment(
                "full-ack", SCENARIO, checkpoints=[100, 10], horizon=1000
            )
        with pytest.raises(ConfigurationError):
            DetectionExperiment(
                "full-ack", SCENARIO, checkpoints=[100, 2000], horizon=1000
            )


def detection_experiment(horizon, checkpoints):
    return DetectionExperiment(
        "full-ack", SCENARIO, runs=2, horizon=horizon, checkpoints=checkpoints
    )


def network_experiment(horizon, checkpoints):
    topology = line_topology(3)
    routes = [topology.shortest_route(0, 3, route_id=0)]
    return NetworkExperiment(
        topology, routes, protocol="paai1", horizon=horizon,
        checkpoints=checkpoints,
    )


class TestCheckpointValidation:
    """Both experiments share one checkpoint policy: an explicit list
    must be non-empty, ascending, and within the horizon."""

    @pytest.mark.parametrize(
        "build", [detection_experiment, network_experiment],
        ids=["detection", "netexp"],
    )
    @pytest.mark.parametrize(
        "checkpoints",
        [[], [20, 10], [10, 500], [0, 100]],
        ids=["empty", "descending", "beyond-horizon", "zero"],
    )
    def test_rejected(self, build, checkpoints):
        with pytest.raises(ConfigurationError):
            build(100, checkpoints)

    @pytest.mark.parametrize(
        "build", [detection_experiment, network_experiment],
        ids=["detection", "netexp"],
    )
    def test_accepted_and_defaulted(self, build):
        assert build(100, [10, 10, 100]).checkpoints == [10, 10, 100]
        assert build(100, None).checkpoints == default_checkpoints(100)
        assert resolve_checkpoints(100) == default_checkpoints(100)


class TestExplicitDecisionThreshold:
    """``ProtocolParams.decision_threshold`` overrides the calibrated
    thresholds on the model backend, as it does on the wire engines."""

    @pytest.mark.parametrize("protocol", ["full-ack", "paai2", "statfl"])
    def test_model_backend_convicts_against_explicit_threshold(
        self, protocol
    ):
        threshold = 0.06
        scenario = Scenario(
            params=replace(SCENARIO.params, decision_threshold=threshold),
            malicious_nodes=SCENARIO.malicious_nodes,
        )
        result = DetectionExperiment(
            protocol, scenario, runs=200, horizon=2000, seed=4
        ).run()
        explicit = result.estimates_last > threshold
        calibrated = result.estimates_last > np.asarray(
            models.calibrated_thresholds(protocol, SCENARIO.params)
        )
        # The two policies disagree on this batch, so the check below
        # tells them apart.
        assert not np.array_equal(explicit, calibrated)
        assert np.array_equal(result.convictions[-1], explicit)
