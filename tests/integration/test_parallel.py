"""Determinism suite for the parallel experiment engine.

Parallel output must be *identical* to serial output at the same seed:
``run_all`` reports across ``jobs`` values, sharded Monte-Carlo batches
across ``jobs`` values, and a resumed report after a mid-run failure
must all reproduce the uninterrupted serial run.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import runner
from repro.experiments.ablations import run_burst_loss
from repro.experiments.runner import (
    build_specs,
    load_checkpoint,
    run_all,
    write_checkpoint,
)
from repro.mc.detection import (
    DEFAULT_SHARD_RUNS,
    DetectionExperiment,
    resolve_shards,
)
from repro.obs.registry import (
    MetricsRegistry,
    deterministic_view,
    using_registry,
)
from repro.workloads.scenarios import paper_scenario

SCENARIO = paper_scenario()

#: A miniature preset so full-report determinism checks stay fast. The
#: specs carry fully resolved kwargs, so pool workers never read SCALES
#: and the monkeypatch is safe across the process boundary.
TINY = {"runs": 24, "fig2_runs": 30, "packets": 120, "abl_packets": 200}


@pytest.fixture()
def tiny_scale(monkeypatch):
    monkeypatch.setitem(runner.SCALES, "tiny", TINY)
    return "tiny"


def report_key(report):
    """Everything that must match across jobs values: names, rendered
    text, and the deterministic part of each metrics snapshot (wall-clock
    histograms keep their counts but not their timing spreads)."""
    return [
        (
            record.name,
            record.text,
            deterministic_view(record.metrics)
            if record.metrics is not None else None,
        )
        for record in report.records
    ]


def metered_run_all(scale, jobs):
    """``run_all`` under a session with a registry: every record carries
    its experiment's metrics snapshot."""
    with using_registry(MetricsRegistry()):
        return run_all(scale=scale, seed=0, jobs=jobs)


class TestRunAllParallelDeterminism:
    def test_identical_reports_across_jobs(self, tiny_scale):
        serial = metered_run_all(tiny_scale, jobs=1)
        baseline = report_key(serial)
        for jobs in (2, 4):
            parallel = metered_run_all(tiny_scale, jobs=jobs)
            assert report_key(parallel) == baseline, f"jobs={jobs} diverged"

    def test_merged_metrics_match_serial(self, tiny_scale):
        serial = metered_run_all(tiny_scale, jobs=1)
        parallel = metered_run_all(tiny_scale, jobs=2)
        merged_serial = deterministic_view(serial.merged_metrics())
        merged_parallel = deterministic_view(parallel.merged_metrics())
        assert merged_serial == merged_parallel
        # Counters are additive: the merged total must equal the sum of
        # the per-experiment values, however the work was distributed.
        for entry in merged_serial["counters"]:
            total = sum(
                e["value"]
                for record in parallel.records if record.metrics
                for e in record.metrics["counters"]
                if e["name"] == entry["name"]
                and e["labels"] == entry["labels"]
            )
            assert total == entry["value"]

    def test_progress_fires_once_per_experiment(self, tiny_scale):
        seen = []
        report = run_all(scale=tiny_scale, seed=0, jobs=2,
                         progress=seen.append)
        assert sorted(seen) == sorted(r.name for r in report.records)


class TestDetectionShardDeterminism:
    def test_identical_arrays_across_jobs(self):
        results = {}
        for jobs in (1, 2, 4):
            experiment = DetectionExperiment(
                "full-ack", SCENARIO, runs=64, horizon=400, seed=5, shards=4
            )
            results[jobs] = experiment.run(jobs=jobs)
        for jobs in (2, 4):
            np.testing.assert_array_equal(
                results[jobs].convictions, results[1].convictions
            )
            np.testing.assert_array_equal(
                results[jobs].estimates_last, results[1].estimates_last
            )

    def test_statfl_shards_deterministically_too(self):
        runs_a = DetectionExperiment(
            "statfl", SCENARIO, runs=48, horizon=400, seed=9, shards=3
        ).run(jobs=1)
        runs_b = DetectionExperiment(
            "statfl", SCENARIO, runs=48, horizon=400, seed=9, shards=3
        ).run(jobs=3)
        np.testing.assert_array_equal(runs_a.convictions, runs_b.convictions)
        np.testing.assert_array_equal(
            runs_a.estimates_last, runs_b.estimates_last
        )

    def test_small_batches_take_single_shard_path(self):
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=DEFAULT_SHARD_RUNS, horizon=400
        )
        assert experiment.shards == 1

    def test_resolve_shards(self):
        assert resolve_shards(DEFAULT_SHARD_RUNS) == 1
        assert resolve_shards(DEFAULT_SHARD_RUNS + 1) == 2
        assert resolve_shards(10, shards=4) == 4
        assert resolve_shards(3, shards=8) == 3  # capped at runs
        with pytest.raises(ConfigurationError):
            resolve_shards(10, shards=0)


class TestCheckpointResume:
    def test_resume_after_failure_reproduces_serial_report(
        self, tiny_scale, tmp_path, monkeypatch
    ):
        baseline = run_all(scale=tiny_scale, seed=0, jobs=1)
        checkpoint = tmp_path / "report.ckpt.json"

        def boom(**kwargs):
            raise RuntimeError("scripted mid-report crash")

        monkeypatch.setattr(
            "repro.experiments.runner.run_corollary1", boom
        )
        with pytest.raises(RuntimeError, match="scripted mid-report crash"):
            run_all(scale=tiny_scale, seed=0, jobs=1,
                    resume_path=str(checkpoint))
        monkeypatch.undo()
        monkeypatch.setitem(runner.SCALES, "tiny", TINY)

        # The crash left the completed prefix behind...
        partial = load_checkpoint(str(checkpoint), scale=tiny_scale, seed=0)
        assert partial
        assert "Ablation: Corollary 1" not in partial
        assert "Table 1" in partial

        # ...and the resumed run completes without redoing it, landing on
        # a report identical to the uninterrupted one.
        redone = []
        resumed = run_all(scale=tiny_scale, seed=0, jobs=1,
                          resume_path=str(checkpoint),
                          progress=redone.append)
        assert "Table 1" not in redone
        assert "Ablation: Corollary 1" in redone
        assert [r.name for r in resumed.records] == (
            [r.name for r in baseline.records]
        )
        assert [r.text for r in resumed.records] == (
            [r.text for r in baseline.records]
        )

    def test_checkpoint_roundtrip_preserves_order(self, tiny_scale, tmp_path):
        specs = build_specs(tiny_scale, seed=0)
        report = run_all(scale=tiny_scale, seed=0, jobs=2)
        completed = {r.name: r for r in report.records}
        path = tmp_path / "ckpt.json"
        write_checkpoint(str(path), tiny_scale, 0, specs, completed)
        loaded = load_checkpoint(str(path), scale=tiny_scale, seed=0)
        assert list(loaded) == [spec.name for spec in specs]
        assert {n: r.text for n, r in loaded.items()} == (
            {n: r.text for n, r in completed.items()}
        )

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert load_checkpoint(
            str(tmp_path / "absent.json"), scale="quick", seed=0
        ) == {}

    def test_scale_or_seed_mismatch_rejected(self, tiny_scale, tmp_path):
        specs = build_specs(tiny_scale, seed=0)
        path = tmp_path / "ckpt.json"
        write_checkpoint(str(path), tiny_scale, 0, specs, {})
        with pytest.raises(ConfigurationError):
            load_checkpoint(str(path), scale="quick", seed=0)
        with pytest.raises(ConfigurationError):
            load_checkpoint(str(path), scale=tiny_scale, seed=1)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ConfigurationError):
            load_checkpoint(str(path), scale="quick", seed=0)


class TestScalePresetThreading:
    """Regression: ``run_all`` ignored the scale preset for the
    burst-loss ablation (it always simulated 5000 packets)."""

    def test_every_packet_ablation_gets_the_preset(self):
        for scale, settings in runner.SCALES.items():
            by_name = {spec.name: spec for spec in build_specs(scale, seed=7)}
            for name in (
                "Ablation: Corollary 1",
                "Ablation: Corollary 2",
                "Ablation: incrimination (footnote 6)",
                "Ablation: burst loss",
            ):
                spec = by_name[name]
                assert spec.kwargs["packets"] == settings["abl_packets"], (
                    f"{scale}: {name} ignores the scale preset"
                )
                assert spec.kwargs["seed"] == 7

    def test_burst_loss_spec_runs_at_requested_size(self, tiny_scale):
        spec = {
            s.name: s for s in build_specs(tiny_scale, seed=0)
        }["Ablation: burst loss"]
        assert spec.task is run_burst_loss
        assert spec.kwargs == {"packets": TINY["abl_packets"], "seed": 0}
        # The kwarg must actually reach the simulation: the spec's output
        # matches a direct call at the preset size and differs from a run
        # at another packet budget (the old code always simulated 5000).
        via_spec = spec.task(**spec.kwargs).render()
        assert via_spec == run_burst_loss(
            packets=TINY["abl_packets"], seed=0
        ).render()
        assert via_spec != run_burst_loss(
            packets=2 * TINY["abl_packets"], seed=0
        ).render()
