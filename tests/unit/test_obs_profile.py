"""Unit coverage for the phase profiler (repro.obs.profile)."""

from repro.obs.profile import (
    NULL_PROFILER,
    PIPELINE_PHASES,
    NullProfiler,
    PhaseProfiler,
    get_profiler,
    phase,
    using_profiler,
)
from repro.obs.registry import MetricsRegistry, deterministic_view, using_registry


def _series(registry, name):
    return {
        tuple(sorted(entry["labels"].items())): entry
        for entry in registry.snapshot()["histograms"]
        if entry["name"] == name
    } or {
        tuple(sorted(entry["labels"].items())): entry
        for entry in registry.snapshot()["counters"]
        if entry["name"] == name
    }


class TestNullProfiler:
    def test_default_profiler_is_null_and_disabled(self):
        assert get_profiler() is NULL_PROFILER
        assert not NULL_PROFILER.enabled

    def test_null_phase_is_shared_noop(self):
        first = NULL_PROFILER.phase("setup")
        second = NULL_PROFILER.phase("scoring")
        assert first is second
        with first:
            pass  # no registry interaction, no error

    def test_module_level_phase_uses_active_profiler(self):
        with phase("wire-replay"):
            pass  # null profiler: nothing recorded anywhere
        registry = MetricsRegistry()
        with using_registry(registry):
            with using_profiler(PhaseProfiler()):
                with phase("wire-replay"):
                    pass
        calls = _series(registry, "profile.phase_calls")
        assert calls[(("phase", "wire-replay"),)]["value"] == 1


class TestPhaseProfiler:
    def test_phases_publish_histogram_and_counter(self):
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry)
        for name in PIPELINE_PHASES:
            with profiler.phase(name):
                pass
            with profiler.phase(name):
                pass
        snapshot = registry.snapshot()
        seconds = [
            entry for entry in snapshot["histograms"]
            if entry["name"] == "profile.phase_seconds"
        ]
        calls = [
            entry for entry in snapshot["counters"]
            if entry["name"] == "profile.phase_calls"
        ]
        assert {e["labels"]["phase"] for e in seconds} == set(PIPELINE_PHASES)
        assert all(entry["count"] == 2 for entry in seconds)
        assert all(entry["sum"] >= 0.0 for entry in seconds)
        assert all(entry["value"] == 2 for entry in calls)

    def test_binds_registry_active_at_construction(self):
        bound = MetricsRegistry()
        other = MetricsRegistry()
        with using_registry(bound):
            profiler = PhaseProfiler()
        with using_registry(other):
            with profiler.phase("setup"):
                pass
        assert _series(bound, "profile.phase_calls")
        assert not _series(other, "profile.phase_calls")

    def test_exceptions_still_record_the_phase(self):
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry)
        try:
            with profiler.phase("scoring"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert _series(registry, "profile.phase_calls")

    def test_deterministic_view_keeps_counts_drops_timings(self):
        """Phase durations are wall clock; the deterministic projection
        must reduce them to observation counts so profiled runs still
        compare byte-identical."""
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry)
        with profiler.phase("conviction"):
            pass
        view = deterministic_view(registry.snapshot())
        histograms = [
            entry for entry in view["histograms"]
            if entry["name"] == "profile.phase_seconds"
        ]
        assert histograms and all(
            entry["count"] == 1 for entry in histograms
        )
        assert all("sum" not in entry for entry in histograms)


class TestActiveState:
    def test_using_profiler_installs_and_restores(self):
        profiler = PhaseProfiler(MetricsRegistry())
        with using_profiler(profiler) as active:
            assert active is profiler
            assert get_profiler() is profiler
        assert get_profiler() is NULL_PROFILER

    def test_null_profiler_subclass_contract(self):
        profiler = NullProfiler()
        assert not profiler.enabled
        profiler._observe("setup", 1.0)  # no-op, no registry bound
