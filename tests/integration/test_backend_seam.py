"""Integration: the experiment layer drives the backend seam — shard
invariance on wire backends, cross-backend agreement through
DetectionExperiment, figure2 on the fast path, and the runner's jobs
oversubscription guard."""

import os
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.figure2 import run_figure2
from repro.experiments.runner import (
    OversubscriptionWarning,
    ReproductionReport,
    resolve_jobs,
)
from repro.faults.spec import preset
from repro.mc.detection import DetectionExperiment
from repro.obs.profile import PhaseProfiler
from repro.obs.registry import MetricsRegistry, using_session
from repro.obs.session import Session
from repro.workloads.scenarios import paper_scenario


WIRE_KWARGS = dict(
    runs=10, horizon=240, checkpoints=[120, 240], seed=11
)


class TestDetectionExperimentBackends:
    def test_wire_shards_are_invariant(self):
        scenario = paper_scenario()
        single = DetectionExperiment(
            "full-ack", scenario, backend="fastpath", shards=1, **WIRE_KWARGS
        ).run()
        sharded = DetectionExperiment(
            "full-ack", scenario, backend="fastpath", shards=4, **WIRE_KWARGS
        ).run(jobs=2)
        assert np.array_equal(single.convictions, sharded.convictions)
        assert np.array_equal(single.estimates_last, sharded.estimates_last)
        assert single.engines == sharded.engines == ["fastpath"] * 10

    def test_fastpath_agrees_with_event_through_mc_layer(self):
        scenario = paper_scenario()
        fast = DetectionExperiment(
            "full-ack", scenario, backend="fastpath", shards=1, **WIRE_KWARGS
        ).run()
        event = DetectionExperiment(
            "full-ack", scenario, backend="event", shards=1, **WIRE_KWARGS
        ).run()
        assert np.array_equal(fast.convictions, event.convictions)
        assert np.array_equal(fast.estimates_last, event.estimates_last)
        assert fast.backend == "fastpath" and event.backend == "event"

    def test_model_backend_unchanged_and_default(self):
        scenario = paper_scenario()
        result = DetectionExperiment(
            "full-ack", scenario, runs=40, horizon=400, seed=2
        ).run()
        assert result.backend == "model"
        assert result.engines == ["model"] * 40

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sharded_model_batch_profiles_scoring_per_shard(self, jobs):
        """600 runs take three model shards; each shard's work runs in
        the ``scoring`` phase, in-process or in a pool worker."""
        registry = MetricsRegistry()
        session = Session(registry=registry, profiler=PhaseProfiler(registry))
        with using_session(session):
            DetectionExperiment(
                "full-ack", paper_scenario(), runs=600, horizon=300
            ).run(jobs=jobs)
        calls = {
            phase: registry.counter_value("profile.phase_calls", phase=phase)
            for phase in ("scoring", "conviction")
        }
        assert calls == {"scoring": 3, "conviction": 1}

    def test_backend_validation(self):
        scenario = paper_scenario()
        with pytest.raises(ConfigurationError):
            DetectionExperiment("full-ack", scenario, backend="warp")
        with pytest.raises(ConfigurationError):
            DetectionExperiment(
                "full-ack", scenario, backend="model",
                faults=preset("benign-jitter"),
            )

    def test_faults_route_to_event_engine(self):
        scenario = paper_scenario()
        result = DetectionExperiment(
            "full-ack", scenario, runs=2, horizon=60, checkpoints=[60],
            seed=1, backend="fastpath", faults=preset("benign-jitter"),
            shards=1,
        ).run()
        assert result.engines == ["event", "event"]


class TestFigure2Backend:
    def test_fastpath_panel_matches_event_panel(self):
        fast = run_figure2(
            "full-ack", runs=4, horizon=120, seed=5, backend="fastpath"
        )
        event = run_figure2(
            "full-ack", runs=4, horizon=120, seed=5, backend="event"
        )
        assert np.array_equal(
            fast.detection.convictions, event.detection.convictions
        )
        assert fast.detection.engines == ["fastpath"] * 4
        assert event.detection.engines == ["event"] * 4


class TestJobsOversubscriptionGuard:
    def test_oversubscribed_jobs_fall_back_to_serial(self):
        cpus = os.cpu_count() or 1
        with pytest.warns(OversubscriptionWarning):
            assert resolve_jobs(cpus + 1) == 1

    def test_sane_jobs_pass_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(1) == 1
            assert resolve_jobs(0) == 0  # "all cores" resolves downstream

    def test_report_telemetry_records_both_counts(self):
        report = ReproductionReport(
            scale="smoke", seed=0, jobs=1, requested_jobs=64
        )
        payload = report.to_json()
        assert payload["jobs"] == 1
        assert payload["requested_jobs"] == 64
        # Default: requested == effective.
        assert ReproductionReport(scale="smoke", jobs=2).to_json()[
            "requested_jobs"
        ] == 2
