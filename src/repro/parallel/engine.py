"""Process-pool execution engine with deterministic decomposition.

Design constraints, in order:

1. **Determinism.** Work decomposition (:func:`shard_sizes`) and seed
   derivation (:func:`shard_seed`) depend only on the workload and the
   root seed — never on the worker count — so results can be reassembled
   in decomposition order and compared byte-for-byte against a serial
   run.
2. **Serial is the degenerate case.** ``jobs=1`` runs every task
   in-process through the same code path a worker would take (no pool,
   no pickling), so the serial and parallel pipelines cannot drift.
3. **Picklable task units.** Task functions must be module-level
   callables and payloads plain data; workers are separate processes.

Warm workers: every parallel call shares one process pool
(:func:`_shared_pool`), created on first use and reused until ``jobs``
changes or the pool breaks. Workers are forked once, so they see module
state as it was at that moment; a task must depend only on its payload.

Session capture: under a live observability session every task runs in
a fresh session of the same shape and the parent absorbs its ledger,
metrics and spans in payload order (:mod:`repro.obs.session`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import ConfigurationError, TaskRetryError
from repro.net.rng import RngFactory
from repro.obs.registry import get_registry
from repro.obs.session import Session, current, reset, using_session

P = TypeVar("P")
R = TypeVar("R")


def default_jobs() -> int:
    """Number of workers when the caller asks for "all cores"."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean all cores."""
    if jobs is None or jobs == 0:
        return default_jobs()
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return int(jobs)


# -- deterministic decomposition -------------------------------------------


def shard_sizes(total: int, shards: int) -> List[int]:
    """Split ``total`` items into ``shards`` contiguous chunk sizes.

    Sizes are as equal as possible (the remainder spreads over the first
    shards) and depend only on ``(total, shards)`` — concatenating shard
    results in shard order therefore reproduces the unsharded ordering.
    Shards never outnumber items; with ``total == 0`` a single empty
    shard is returned.
    """
    if total < 0:
        raise ConfigurationError(f"total must be non-negative, got {total}")
    if shards <= 0:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def shard_seed(root_seed: int, index: int, label: str = "shard") -> int:
    """Derive shard ``index``'s seed from the experiment's root seed.

    Reuses the :class:`~repro.net.rng.RngFactory` stream-derivation
    idiom (``spawn("shard-<i>")``): seeds are stable across processes and
    machines, independent per shard, and never collide with the root
    seed's own streams.
    """
    return RngFactory(root_seed).spawn(f"{label}-{index}").seed


# -- the shared pool --------------------------------------------------------

#: ``(owner_pid, jobs, executor)`` of the warm pool, or ``None`` before
#: first use and after a discard. Rebound, never mutated in place.
_POOL: Optional[Tuple[int, int, ProcessPoolExecutor]] = None


def _init_worker() -> None:
    """Pool initializer: start each worker with the null session.

    A worker forked inside ``using_session(...)`` would otherwise keep
    recording into its private copy of that session. A task that fans
    out again leaves the worker owning a pool of its own; the exit hook
    shuts that down before the worker joins its children, which would
    otherwise wait forever for work.
    """
    from multiprocessing.util import Finalize

    reset()
    Finalize(None, _release_pool, exitpriority=100)


def _release_pool() -> None:
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[2].shutdown(wait=True, cancel_futures=True)


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The warm pool of ``jobs`` workers, created on first use.

    A ``jobs`` change replaces the pool. The owner PID guards forked
    children (a task that itself fans out): an inherited executor's
    queues feed the parent's workers, so the child builds its own. The
    engine is driven from one thread; concurrent callers would replace
    each other's pool.
    """
    global _POOL
    pid = os.getpid()
    if _POOL is not None and _POOL[0] == pid:
        if _POOL[1] == jobs:
            return _POOL[2]
        _POOL[2].shutdown(wait=True, cancel_futures=True)
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker)
    _POOL = (pid, jobs, pool)
    return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a broken or wedged pool without waiting for its workers."""
    global _POOL
    if _POOL is not None and _POOL[2] is pool:
        _POOL = None
    pool.shutdown(wait=False, cancel_futures=True)


def _submit(
    func: Callable[[P], R],
    payloads: Sequence[P],
    indices: Sequence[int],
    jobs: int,
) -> Tuple[ProcessPoolExecutor, Dict[Future, int]]:
    """Submit ``payloads[i]`` for each index; futures map to indices.

    A pool broken by a dead worker (a crash in an earlier call or round,
    or a worker killed while the pool sat idle) refuses submissions; it
    is discarded here and replaced once.
    """
    pool = _shared_pool(jobs)
    try:
        return pool, {pool.submit(func, payloads[i]): i for i in indices}
    except BrokenProcessPool:
        _discard_pool(pool)
    pool = _shared_pool(jobs)
    return pool, {pool.submit(func, payloads[i]): i for i in indices}


# -- retry policy -----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Resilience policy for task execution.

    Attributes
    ----------
    max_attempts:
        Total attempts per task (first run included). A task still
        failing after this many attempts raises
        :class:`~repro.exceptions.TaskRetryError` with the last failure
        chained.
    timeout:
        Seconds a retry *round* may take before its unfinished tasks are
        treated as failed and rescheduled. Measured from round start, so
        it covers queueing as well as execution; size it for the slowest
        expected task times the round's queue depth. ``None`` disables
        timeouts. Only enforced under a process pool — in-process (serial)
        execution cannot interrupt a running task.
    backoff:
        Base delay in seconds before the second attempt; doubles each
        further attempt (exponential backoff). ``0`` retries immediately.

    Retries are determinism-safe *for pure tasks*: a task function that
    depends only on its payload (the engine's contract) returns the same
    value on any attempt, and results are reassembled by payload index,
    so retried runs remain byte-identical to serial runs at the same
    seed.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {self.timeout}")
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be non-negative, got {self.backoff}")

    def delay_before(self, attempt: int) -> float:
        """Backoff delay before ``attempt`` (1-based; first attempt is free)."""
        if attempt <= 1 or self.backoff == 0:
            return 0.0
        return self.backoff * (2.0 ** (attempt - 2))


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    if isinstance(exc, TimeoutError):
        return "timeout"
    return "error"


def _record_failure(exc: BaseException) -> None:
    get_registry().counter("parallel.task_failures", kind=_failure_kind(exc)).inc()


def _record_retry() -> None:
    get_registry().counter("parallel.task_retries").inc()


def _serial_attempts(func: Callable[[P], R], payload: P, index: int,
                     retry: RetryPolicy) -> R:
    """Run one task in-process under the retry policy (no timeout)."""
    last: Optional[BaseException] = None
    for attempt in range(1, retry.max_attempts + 1):
        if attempt > 1:
            _record_retry()
            delay = retry.delay_before(attempt)
            if delay:
                time.sleep(delay)
        try:
            return func(payload)
        except Exception as exc:
            last = exc
            _record_failure(exc)
    raise TaskRetryError(
        f"task {index} failed after {retry.max_attempts} attempts: {last!r}"
    ) from last


def _stream_round(
    func: Callable[[P], R],
    payloads: Sequence[P],
    indices: Sequence[int],
    jobs: int,
    timeout: Optional[float],
) -> Iterator[Tuple[str, int, object]]:
    """One pool attempt over ``indices``; yields ``(event, index, value)``.

    ``event`` is ``"ok"`` (value is the result) or ``"fail"`` (value is
    the exception). The round runs on the shared pool. After a crashed
    worker (``BrokenProcessPool``) the next round's submit replaces the
    broken pool. On a round timeout the unfinished futures are cancelled
    and the pool is discarded without waiting, so a genuinely wedged
    worker process can outlive the round (and is the reason ``timeout``
    should be generous).
    """
    pool, futures = _submit(func, payloads, indices, jobs)
    pending = set(futures)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while pending:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            done, pending = wait(pending, timeout=remaining,
                                 return_when=FIRST_COMPLETED)
            if not done:
                # Round deadline expired with tasks still outstanding.
                _discard_pool(pool)
                for future in pending:
                    yield ("fail", futures[future],
                           TimeoutError(f"task {futures[future]} timed out"))
                return
            for future in done:
                index = futures[future]
                try:
                    yield ("ok", index, future.result())
                except Exception as exc:
                    yield ("fail", index, exc)
    finally:
        for future in pending:
            future.cancel()


def _pooled_with_retry(
    func: Callable[[P], R],
    payloads: Sequence[P],
    jobs: int,
    retry: RetryPolicy,
) -> Iterator[Tuple[int, R]]:
    """Pool execution with retry rounds; yields results in completion order."""
    attempts = dict.fromkeys(range(len(payloads)), 0)
    pending = sorted(attempts)
    round_index = 0
    while pending:
        if round_index > 0:
            delay = retry.delay_before(round_index + 1)
            if delay:
                time.sleep(delay)
        for index in pending:
            attempts[index] += 1
            if attempts[index] > 1:
                _record_retry()
        still_failing: List[int] = []
        for event, index, value in _stream_round(
            func, payloads, pending, jobs, retry.timeout
        ):
            if event == "ok":
                yield index, value  # type: ignore[misc]
                continue
            exc = value  # type: BaseException
            _record_failure(exc)
            if attempts[index] >= retry.max_attempts:
                raise TaskRetryError(
                    f"task {index} failed after {attempts[index]} attempts: {exc!r}"
                ) from exc
            still_failing.append(index)
        pending = sorted(still_failing)
        round_index += 1


# -- task execution --------------------------------------------------------


def run_tasks(
    func: Callable[[P], R],
    payloads: Sequence[P],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
) -> List[R]:
    """Run ``func`` over ``payloads``; results in payload order.

    ``jobs == 1`` executes in-process. With more jobs, payloads fan out
    over the shared pool of ``jobs`` workers.

    With a :class:`RetryPolicy`, failed tasks (exceptions, crashed
    workers, round timeouts) are retried up to ``max_attempts`` times,
    on a fresh pool when the old one crashed or timed out; ``retry=None``
    preserves fail-fast behavior.
    Results are keyed by payload index either way, so retries never
    perturb output ordering.
    """
    payloads = list(payloads)
    results = dict(run_tasks_completed(func, payloads, jobs, retry))
    return [results[index] for index in range(len(payloads))]


def run_tasks_completed(
    func: Callable[[P], R],
    payloads: Sequence[P],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
) -> Iterator[Tuple[int, R]]:
    """Yield ``(payload_index, result)`` pairs in completion order.

    The streaming variant of :func:`run_tasks`, for callers that
    checkpoint or report progress as results land. Serial execution
    completes in payload order by construction. Without a retry policy,
    a failing task cancels queued tasks and the exception propagates at
    once (tasks already running finish in the background on the warm
    pool); with one, failed tasks are retried and only a task exhausting
    ``max_attempts`` raises (:class:`~repro.exceptions.TaskRetryError`).
    A task's session capture is absorbed once all earlier payloads'
    are, so absorption follows payload order.
    """
    payloads = list(payloads)
    jobs = resolve_jobs(jobs)
    session = current()
    if not session.live:
        yield from _completed(func, payloads, jobs, retry)
        return
    captured: Dict[int, tuple] = {}
    absorbed = 0
    task = partial(_captured, func, session.fresh())
    for index, (result, capture) in _completed(task, payloads, jobs, retry):
        captured[index] = capture
        while absorbed in captured:
            session.absorb(captured.pop(absorbed))
            absorbed += 1
        yield index, result


def _captured(func: Callable[[P], R], template: Session, payload: P):
    """``func(payload)`` under a fresh session shaped like ``template``,
    returned as ``(result, capture)``."""
    with using_session(template.fresh()) as session:
        result = func(payload)
    return result, session.capture()


def _completed(func: Callable[[P], R], payloads: List[P], jobs: int,
               retry: Optional[RetryPolicy]) -> Iterator[Tuple[int, R]]:
    """Bare execution behind :func:`run_tasks_completed`."""
    if jobs == 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            if retry is not None:
                yield index, _serial_attempts(func, payload, index, retry)
            else:
                yield index, func(payload)
        return
    if retry is not None:
        yield from _pooled_with_retry(func, payloads, jobs, retry)
        return
    _, futures = _submit(func, payloads, range(len(payloads)), jobs)
    pending = set(futures)
    try:
        while pending:
            done, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in done:
                yield futures[future], future.result()
    finally:
        for future in pending:
            future.cancel()
