"""Tests for the deterministic process-pool engine (repro.parallel)."""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import ConfigurationError, TaskRetryError
from repro.obs.ledger import EvidenceLedger, get_ledger, using_ledger
from repro.obs.registry import MetricsRegistry, get_registry, using_registry
from repro.obs.session import current
from repro.parallel import (
    RetryPolicy,
    default_jobs,
    engine,
    resolve_jobs,
    run_tasks,
    run_tasks_completed,
    shard_seed,
    shard_sizes,
)


def _square(value):
    """Module-level so it pickles across the pool boundary."""
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("scripted shard failure")
    return value


def _flaky_square(arg):
    """Fails once (tracked by a marker file), then computes the square."""
    value, marker = arg
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("failed-once")
        raise RuntimeError("scripted transient failure")
    return value * value


def _always_fails(value):
    raise RuntimeError(f"permanent failure for {value}")


def _worker_pid(seconds):
    """Hold the worker briefly so every pool member takes a task."""
    time.sleep(seconds)
    return os.getpid()


def _crash_always(value):
    os._exit(17)


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _nested_squares(values):
    """Fans out again from inside a worker."""
    return run_tasks(_square, values, jobs=2)


def _observability_state(_):
    """What the task's session looks like, then leave a trace in it: a
    session reused across tasks would show the earlier tasks' marks."""
    ledger, registry = get_ledger(), get_registry()
    state = (current().live, len(ledger), registry.counter_value("marks"))
    ledger.record("mark")
    registry.counter("marks").inc()
    return state


def _gauge_after(arg):
    """Set gauge ``g`` to ``value`` after ``delay`` seconds."""
    value, delay = arg
    time.sleep(delay)
    get_registry().gauge("g").set(value)
    return value


def _records_then_flakes(arg):
    """Records one entry per attempt; the first attempt then fails."""
    value, marker = arg
    first = not os.path.exists(marker)
    get_ledger().record("attempt", value=value, first=first)
    get_registry().counter("attempts").inc()
    if first:
        with open(marker, "w") as handle:
            handle.write("failed-once")
        raise RuntimeError("scripted transient failure")
    return value


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) == default_jobs()
        assert resolve_jobs(0) == default_jobs()
        assert default_jobs() >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestShardSizes:
    def test_sizes_sum_to_total(self):
        for total in (1, 7, 256, 1000, 2001):
            for shards in (1, 2, 3, 8):
                sizes = shard_sizes(total, shards)
                assert sum(sizes) == total

    def test_sizes_are_near_equal(self):
        sizes = shard_sizes(10, 4)
        assert sizes == [3, 3, 2, 2]
        assert max(sizes) - min(sizes) <= 1

    def test_shards_never_outnumber_items(self):
        assert shard_sizes(3, 8) == [1, 1, 1]

    def test_zero_total_gives_single_empty_shard(self):
        assert shard_sizes(0, 4) == [0]

    def test_decomposition_is_deterministic(self):
        assert shard_sizes(1000, 7) == shard_sizes(1000, 7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            shard_sizes(-1, 2)
        with pytest.raises(ConfigurationError):
            shard_sizes(10, 0)


class TestShardSeed:
    def test_deterministic(self):
        assert shard_seed(42, 0) == shard_seed(42, 0)
        assert shard_seed(42, 3) == shard_seed(42, 3)

    def test_distinct_per_index_and_root(self):
        seeds = {shard_seed(42, index) for index in range(32)}
        assert len(seeds) == 32
        assert shard_seed(42, 0) != shard_seed(43, 0)

    def test_labels_separate_streams(self):
        assert shard_seed(42, 0, label="mc-shard") != shard_seed(42, 0)


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 4, 1, 5], jobs=1) == [9, 1, 16, 1, 25]

    def test_parallel_matches_serial(self):
        payloads = list(range(9))
        assert run_tasks(_square, payloads, jobs=4) == (
            run_tasks(_square, payloads, jobs=1)
        )

    def test_single_payload_short_circuits(self):
        assert run_tasks(_square, [6], jobs=8) == [36]

    def test_empty_payloads(self):
        assert run_tasks(_square, [], jobs=4) == []


class TestRunTasksCompleted:
    def test_serial_yields_in_payload_order(self):
        pairs = list(run_tasks_completed(_square, [2, 3, 4], jobs=1))
        assert pairs == [(0, 4), (1, 9), (2, 16)]

    def test_parallel_yields_every_result_once(self):
        pairs = list(run_tasks_completed(_square, list(range(8)), jobs=4))
        assert sorted(pairs) == [(i, i * i) for i in range(8)]

    def test_serial_failure_propagates(self):
        with pytest.raises(ValueError, match="scripted shard failure"):
            list(run_tasks_completed(_fail_on_three, [1, 2, 3, 4], jobs=1))

    def test_parallel_failure_propagates(self):
        with pytest.raises(ValueError, match="scripted shard failure"):
            list(run_tasks_completed(_fail_on_three, [3] * 4, jobs=2))


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout is None

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="timeout"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError, match="backoff"):
            RetryPolicy(backoff=-1.0)

    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(backoff=0.1)
        assert policy.delay_before(1) == 0.0  # first attempt is free
        assert policy.delay_before(2) == pytest.approx(0.1)
        assert policy.delay_before(3) == pytest.approx(0.2)
        assert policy.delay_before(4) == pytest.approx(0.4)

    def test_zero_backoff_retries_immediately(self):
        assert RetryPolicy(backoff=0.0).delay_before(3) == 0.0


class TestSerialRetry:
    def test_transient_failure_is_retried_to_success(self, tmp_path):
        marker = str(tmp_path / "marker")
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        assert run_tasks(_flaky_square, [(7, marker)], jobs=1,
                         retry=policy) == [49]

    def test_exhausted_budget_raises_with_cause(self):
        policy = RetryPolicy(max_attempts=2, backoff=0.0)
        with pytest.raises(TaskRetryError, match="after 2 attempts") as info:
            run_tasks(_always_fails, [1], jobs=1, retry=policy)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_no_policy_fails_fast(self):
        with pytest.raises(RuntimeError, match="permanent failure"):
            run_tasks(_always_fails, [1], jobs=1)

    def test_streaming_serial_retries_in_payload_order(self, tmp_path):
        marker = str(tmp_path / "marker")
        policy = RetryPolicy(max_attempts=2, backoff=0.0)
        pairs = list(run_tasks_completed(
            _flaky_square, [(2, marker), (3, str(tmp_path / "marker"))],
            jobs=1, retry=policy,
        ))
        assert pairs == [(0, 4), (1, 9)]

    def test_retry_and_failure_counters_recorded(self, tmp_path):
        marker = str(tmp_path / "marker")
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        with using_registry(MetricsRegistry()) as registry:
            run_tasks(_flaky_square, [(5, marker)], jobs=1, retry=policy)
            snapshot = registry.snapshot()
        counters = {e["name"]: e["value"] for e in snapshot["counters"]}
        assert counters["parallel.task_retries"] == 1
        assert counters["parallel.task_failures"] == 1


def _pool_identity():
    return None if engine._POOL is None else engine._POOL[2]


class TestSharedPool:
    def test_back_to_back_calls_reuse_the_workers(self):
        first = run_tasks(_worker_pid, [0.05] * 6, jobs=2)
        pool = _pool_identity()
        second = run_tasks(_worker_pid, [0.05] * 6, jobs=2)
        assert _pool_identity() is pool
        assert len(set(first) | set(second)) == 2
        assert os.getpid() not in first + second

    def test_changing_jobs_replaces_the_pool(self):
        run_tasks(_square, range(4), jobs=2)
        two = _pool_identity()
        assert run_tasks(_square, range(4), jobs=3) == [0, 1, 4, 9]
        three = _pool_identity()
        assert three is not two
        assert engine._POOL[1] == 3
        run_tasks(_square, range(4), jobs=2)
        assert _pool_identity() is not three

    def test_crash_without_retry_leaves_a_working_pool(self):
        run_tasks(_square, range(2), jobs=2)
        pool = _pool_identity()
        with pytest.raises(BrokenProcessPool):
            run_tasks(_crash_always, [1, 2, 3], jobs=2)
        assert run_tasks(_square, range(5), jobs=2) == [0, 1, 4, 9, 16]
        assert _pool_identity() is not pool

    def test_worker_death_while_idle_is_survived(self):
        run_tasks(_square, range(4), jobs=2)
        pool = _pool_identity()
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        assert run_tasks(_square, range(5), jobs=2) == [0, 1, 4, 9, 16]
        assert _pool_identity() is not pool

    def test_round_timeout_leaves_a_working_pool(self):
        policy = RetryPolicy(max_attempts=1, timeout=0.2, backoff=0.0)
        run_tasks(_square, range(2), jobs=2)
        pool = _pool_identity()
        with pytest.raises(TaskRetryError, match="timed out"):
            run_tasks(_sleep_for, [1.0, 1.0], jobs=2, retry=policy)
        assert run_tasks(_square, range(5), jobs=2) == [0, 1, 4, 9, 16]
        assert _pool_identity() is not pool

    def test_task_fanning_out_inside_a_worker(self):
        # Without the owner-PID guard the worker would submit to its
        # parent's executor and hang; the round timeout turns a hang
        # into a failure.
        run_tasks(_square, range(2), jobs=2)  # workers inherit this pool
        policy = RetryPolicy(max_attempts=1, timeout=30.0)
        nested = run_tasks(_nested_squares, [[1, 2, 3], [4, 5]], jobs=2,
                           retry=policy)
        assert nested == [[1, 4, 9], [16, 25]]

    def test_interpreter_exits_promptly_with_live_pools(self):
        # The nested batch leaves each worker owning a pool of its own.
        here = os.path.dirname(os.path.abspath(__file__))
        script = (
            "import sys\n"
            f"sys.path.insert(0, {here!r})\n"
            "from test_parallel_engine import _nested_squares\n"
            "from repro.parallel import run_tasks\n"
            "print(run_tasks(abs, [-1, -2, -3], jobs=2))\n"
            "print(run_tasks(_nested_squares, [[1, 2], [3, 4]], jobs=2))\n"
        )
        env = dict(os.environ)
        src = os.path.join(here, "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["[1, 2, 3]", "[[1, 4], [9, 16]]"]
        assert time.monotonic() - started < 10

    def test_workers_start_with_null_observability(self):
        if engine._POOL is not None:  # the first pool must fork in here
            engine._discard_pool(engine._POOL[2])
        with using_registry(MetricsRegistry()) as registry, \
                using_ledger(EvidenceLedger()) as ledger:
            inside = run_tasks(_observability_state, range(4), jobs=2)
        outside = run_tasks(_observability_state, range(4), jobs=2)
        # A live parent: each task gets a fresh, empty, live session.
        assert inside == [(True, 0, 0)] * 4
        assert len(ledger) == 4 and registry.counter_value("marks") == 4
        # A null parent: workers forked inside the live session still
        # run bare.
        assert outside == [(False, 0, 0)] * 4


class TestSessionCapture:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_null_session_runs_bare(self, jobs):
        assert run_tasks(_observability_state, range(3), jobs=jobs) == [
            (False, 0, 0)
        ] * 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parts_are_absorbed_in_payload_order(self, jobs):
        with using_registry(MetricsRegistry()) as registry, \
                using_ledger(EvidenceLedger()) as ledger:
            states = run_tasks(_observability_state, range(3), jobs=jobs)
        assert states == [(True, 0, 0)] * 3
        assert [entry["seq"] for entry in ledger.entries()] == [0, 1, 2]
        assert registry.counter_value("marks") == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_gauges_end_at_the_later_tasks_value(self, jobs):
        # The first payload finishes last when it runs in a pool.
        with using_registry(MetricsRegistry()) as registry:
            run_tasks(_gauge_after, [(1.0, 0.3), (2.0, 0.0)], jobs=jobs)
        assert registry.gauge("g").value == 2.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_task_contributes_only_its_successful_attempt(
        self, jobs, tmp_path
    ):
        payloads = [(value, str(tmp_path / f"marker-{value}"))
                    for value in (7, 8)]
        policy = RetryPolicy(max_attempts=2, backoff=0.0)
        with using_registry(MetricsRegistry()) as registry, \
                using_ledger(EvidenceLedger()) as ledger:
            assert run_tasks(_records_then_flakes, payloads, jobs=jobs,
                             retry=policy) == [7, 8]
        assert ledger.entries() == [
            {"seq": 0, "kind": "attempt", "value": 7, "first": False},
            {"seq": 1, "kind": "attempt", "value": 8, "first": False},
        ]
        assert registry.counter_value("attempts") == 2
        assert registry.counter_value("parallel.task_retries") == 2

    def test_capture_scope_ends_with_the_call(self):
        with using_registry(MetricsRegistry()) as registry:
            run_tasks(_observability_state, range(2), jobs=1)
            assert current().registry is registry
        assert not current().live
