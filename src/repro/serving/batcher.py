"""Micro-batching: one worker pool draining per-deployment queues.

The RGCN forward pass amortises extremely well over a batch (one big
block-diagonal matmul instead of many small ones), so the async front-end
of a prediction service does not run requests one by one.  Each serving
front-end owns one :class:`PooledBatcher` queue; the worker threads of a
:class:`BatcherWorkerPool` dispatch a queue once it holds
``max_batch_size`` requests or its oldest request has waited
``max_wait_s``, and run the whole group through a single runner call —
the classic latency/throughput micro-batching trade-off of online
inference servers.  A :class:`~repro.serving.hub.ModelHub` drains every
deployment's queue with one shared pool, so twenty mostly-idle models
pay for one thread set, not twenty; a standalone front-end builds a
private pool of one worker.

Requests submitted before :meth:`PooledBatcher.start` simply queue up;
this makes batch formation deterministic in tests (enqueue N, start,
observe one batch of N).

Queues are ensemble-aware: ``fanout`` declares how many fold models each
batch fans out to (the runner builds one
:class:`~repro.engine.ExecutionPlan` per batch and evaluates every fold
against it, so a batch of B items costs one plan + one fold-stacked sweep,
not ``B x fanout`` forwards), and because the engine's inference path is
stateless/reentrant, a pool with several workers runs batches whose
forward passes genuinely overlap — there is no forward lock left to
serialise them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..concurrency import TrackedCondition
from .trace import publish_queue_waits, reset_queue_waits

#: Predicts the latency of running one batch of the given items, or
#: ``None`` to abstain (e.g. no cost model calibrated yet).
CostEstimator = Callable[[List[Any]], Optional[float]]


@dataclass(frozen=True)
class BatchingConfig:
    """Micro-batching knobs of one deployment (a spec's ``batching`` block).

    A queue is dispatched once it holds ``max_batch_size`` requests or its
    oldest request has waited ``max_delay_s``.  How many threads drain the
    queues is the pool's business (``ModelHub(pool_workers=...)``), not a
    per-deployment knob.
    """

    max_batch_size: int = 32
    max_delay_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")


def _deadline_limit(
    queue: Sequence[Tuple[Any, Future, float]],
    max_batch_size: int,
    cost_estimator: Optional[CostEstimator],
    latency_target_s: Optional[float],
) -> int:
    """Largest head-of-queue batch predicted under the latency target.

    Returns ``max_batch_size`` (no deadline cap) when no estimator/target
    is bound, when the estimator abstains, or when everything currently
    queued fits — the window may still grow in that case.  Called with the
    owning condition held; the estimator must be pure computation.
    """
    if cost_estimator is None or latency_target_s is None:
        return max_batch_size
    window = [entry[0] for entry in queue[:max_batch_size]]
    if len(window) <= 1:
        return max_batch_size
    limit = 1
    while limit < len(window):
        predicted = cost_estimator(window[: limit + 1])
        if predicted is None:
            return max_batch_size
        if predicted > latency_target_s:
            return limit
        limit += 1
    return max_batch_size


def _run_batch(
    runner: Callable[[List[Any]], Sequence[Any]],
    batch: Sequence[Tuple[Any, Future, float]],
) -> None:
    """Run one dispatched batch and resolve its futures."""
    # Drop futures cancelled while queued; a cancelled future would
    # raise InvalidStateError on set_result and kill the worker thread.
    live = [
        (item, future, enqueued)
        for item, future, enqueued in batch
        if future.set_running_or_notify_cancel()
    ]
    if not live:
        return
    items = [item for item, _, _ in live]
    # Publish each item's time-in-queue for the runner (predict_many) to
    # fold into its per-request traces — same thread, no signature change.
    dispatched = time.monotonic()
    token = publish_queue_waits([dispatched - enqueued for _, _, enqueued in live])
    try:
        results = runner(items)
        if len(results) != len(items):
            raise RuntimeError(
                f"runner returned {len(results)} results for {len(items)} items"
            )
    except Exception as exc:  # propagate to every waiter in the batch
        for _, future, _ in live:
            future.set_exception(exc)
        return
    finally:
        reset_queue_waits(token)
    for (_, future, _), result in zip(live, results):
        future.set_result(result)


class BatcherWorkerPool:
    """One shared set of worker threads draining many micro-batch queues.

    A :class:`~repro.serving.hub.ModelHub` serves many named deployments
    from one process; giving each its own thread set would scale threads
    with model count even though most models are idle most of the time.
    The pool inverts that: deployments register lightweight
    :class:`PooledBatcher` queues (created via :meth:`batcher_factory`),
    and ``workers`` shared threads apply one batching policy — dispatch a
    queue when it holds ``max_batch_size`` items or its oldest item has
    waited ``max_wait_s`` — across all of them, oldest-work-first.

    The pool never runs two batches of one queue's items out of order
    (items are popped FIFO under the shared lock), but batches of
    *different* queues run concurrently, which is safe because every
    runner is the stateless engine path.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        # One lock for the pool *and* every member queue: scheduling looks
        # at all queues at once, so finer locking would buy contention, not
        # parallelism (the expensive part — the runner — runs unlocked).
        self._condition = TrackedCondition(name="hub-pool.condition")
        self._members: List["PooledBatcher"] = []
        self._threads: List[threading.Thread] = []
        self._closed = False
        self._batches_dispatched = 0
        self._items_dispatched = 0

    # ------------------------------------------------------------- factory
    def batcher_factory(
        self,
        runner: Callable[[List[Any]], Sequence[Any]],
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        fanout: int = 1,
        cost_estimator: Optional[CostEstimator] = None,
        latency_target_s: Optional[float] = None,
    ) -> "PooledBatcher":
        """A new queue whose batches this pool's workers run."""
        return PooledBatcher(
            self,
            runner,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            fanout=fanout,
            cost_estimator=cost_estimator,
            latency_target_s=latency_target_s,
        )

    # ------------------------------------------------------------ lifecycle
    def register(self, member: "PooledBatcher") -> None:
        with self._condition:
            if self._closed:
                # A fully-closed pool reopens on the next registration, so
                # a stopped hub can start again (and post-stop submits keep
                # the restart-on-demand contract of ServingFrontend.submit).
                # Mid-close — old workers still draining — is a genuine
                # lifecycle error and stays one.
                if any(thread.is_alive() for thread in self._threads):
                    raise RuntimeError(
                        "cannot register while the BatcherWorkerPool is closing"
                    )
                self._closed = False
                self._threads = []
            if member not in self._members:
                self._members.append(member)
            while len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=self._loop,
                    name=f"repro-hub-batcher-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
            self._condition.notify_all()

    def unregister(self, member: "PooledBatcher") -> None:
        with self._condition:
            if member in self._members:
                self._members.remove(member)
            self._condition.notify_all()

    def close(self) -> None:
        """Close every member queue (draining it), then stop the threads."""
        with self._condition:
            members = list(self._members)
        for member in members:
            member.close()
        with self._condition:
            self._closed = True
            self._condition.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "BatcherWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- telemetry
    def telemetry(self) -> dict:
        with self._condition:
            return {
                "workers": self.workers,
                "members": len(self._members),
                "batches_dispatched": self._batches_dispatched,
                "items_dispatched": self._items_dispatched,
            }

    # ------------------------------------------------------------- internals
    def _take(self) -> Optional[Tuple["PooledBatcher", List[Tuple[Any, Future]]]]:
        """Pick the next dispatchable (member, batch); block until one exists.

        Returns ``None`` when the pool is closed and every queue is empty.
        """
        with self._condition:
            while True:
                now = time.monotonic()
                best: Optional[Tuple[float, "PooledBatcher"]] = None
                next_deadline: Optional[float] = None
                draining = False
                for member in self._members:
                    enqueued = member._oldest_enqueue_time()
                    if enqueued is None:
                        continue
                    draining = True
                    ready = member._dispatchable(now)
                    if ready:
                        # Oldest head item first: global FIFO across models.
                        if best is None or enqueued < best[0]:
                            best = (enqueued, member)
                    else:
                        deadline = enqueued + member.max_wait_s
                        if next_deadline is None or deadline < next_deadline:
                            next_deadline = deadline
                if best is not None:
                    member = best[1]
                    batch = member._pop_batch_locked()
                    self._batches_dispatched += 1
                    self._items_dispatched += len(batch)
                    return member, batch
                if self._closed and not draining:
                    return None
                timeout = (
                    None if next_deadline is None else max(0.0, next_deadline - now)
                )
                self._condition.wait(timeout=timeout)

    def _loop(self) -> None:
        while True:
            task = self._take()
            if task is None:
                return
            member, batch = task
            try:
                _run_batch(member._runner, batch)
            finally:
                with self._condition:
                    member._in_flight -= 1
                    self._condition.notify_all()


class PooledBatcher:
    """One deployment's micro-batch queue, drained by a shared pool.

    ``start``/``submit``/``close``/``pending``/``telemetry`` are what a
    :class:`~repro.serving.service.ServingFrontend` drives; the worker
    threads belong to the pool.  Items submitted before :meth:`start`
    queue up and are only dispatched once started, so enqueue-then-start
    forms deterministic batches.
    """

    def __init__(
        self,
        pool: BatcherWorkerPool,
        runner: Callable[[List[Any]], Sequence[Any]],
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        fanout: int = 1,
        cost_estimator: Optional[CostEstimator] = None,
        latency_target_s: Optional[float] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if latency_target_s is not None and latency_target_s <= 0:
            raise ValueError("latency_target_s must be > 0")
        self._pool = pool
        self._runner = runner
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.fanout = fanout
        self._cost_estimator = cost_estimator
        self._latency_target_s = latency_target_s
        self._deadline_sealed = 0
        self._queue: List[Tuple[Any, Future, float]] = []
        self._started = False
        self._closed = False
        self._in_flight = 0
        self._batches_dispatched = 0
        self._items_dispatched = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "PooledBatcher":
        with self._pool._condition:
            if self._closed:
                raise RuntimeError("cannot start a closed PooledBatcher")
            self._started = True
        self._pool.register(self)
        return self

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work; drain what is already queued, then detach.

        A started queue is drained by the pool's workers (closing makes it
        immediately dispatchable, skipping the batching window); a queue
        that was never started fails its pending futures, because nothing
        will ever serve them.
        """
        condition = self._pool._condition
        with condition:
            self._closed = True
            if not self._started:
                pending, self._queue = self._queue, []
                for _, future, _ in pending:
                    if future.set_running_or_notify_cancel():
                        future.set_exception(
                            RuntimeError("PooledBatcher closed before start")
                        )
            else:
                condition.notify_all()
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._queue or self._in_flight:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        break
                    condition.wait(timeout=remaining)
            drained = not self._queue and not self._in_flight
        if drained:
            self._pool.unregister(self)
        # A timed-out close leaves the member registered: the pool keeps
        # draining a closed queue, so the leftover futures still resolve
        # instead of hanging unreachable forever.

    def __enter__(self) -> "PooledBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- frontend
    def submit(self, item: Any) -> Future:
        future: Future = Future()
        with self._pool._condition:
            if self._closed:
                raise RuntimeError("PooledBatcher is closed")
            self._queue.append((item, future, time.monotonic()))
            self._pool._condition.notify_all()
        return future

    @property
    def pending(self) -> int:
        with self._pool._condition:
            return len(self._queue)

    def telemetry(self) -> dict:
        with self._pool._condition:
            return {
                "workers": self._pool.workers,
                "fanout": self.fanout,
                "batches_dispatched": self._batches_dispatched,
                "items_dispatched": self._items_dispatched,
                "deadline_sealed": self._deadline_sealed,
            }

    # ------------------------------------------------------------- internals
    # All helpers below are called by the pool with its condition held.
    def _oldest_enqueue_time(self) -> Optional[float]:
        return self._queue[0][2] if self._queue else None

    def _deadline_limit_locked(self) -> int:
        return _deadline_limit(
            self._queue,
            self.max_batch_size,
            self._cost_estimator,
            self._latency_target_s,
        )

    def _dispatchable(self, now: float) -> bool:
        if not self._queue:
            return False
        if self._closed:
            return True  # draining: skip the batching window
        if not self._started:
            return False  # pre-start submits wait for start()
        if len(self._queue) >= self.max_batch_size:
            return True
        limit = self._deadline_limit_locked()
        if limit < self.max_batch_size and len(self._queue) >= limit:
            return True  # deadline-sealed: one more add would blow the SLO
        return now >= self._queue[0][2] + self.max_wait_s

    def _pop_batch_locked(self) -> List[Tuple[Any, Future, float]]:
        limit = self._deadline_limit_locked()
        batch = list(self._queue[:limit])
        del self._queue[:limit]
        if limit < self.max_batch_size and len(batch) == limit:
            self._deadline_sealed += 1
        self._batches_dispatched += 1
        self._items_dispatched += len(batch)
        self._in_flight += 1
        return batch
