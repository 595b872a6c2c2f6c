"""Recovery: bounded retry policy and the morsel fault-recovery planner.

A :class:`RetryPolicy` bounds how many times one :class:`WorkRange` may
be attempted (across retries-in-place *and* re-dispatches to other
workers) and spaces the attempts with capped exponential backoff.  The
default ``base_delay=0.0`` keeps tests and simulations instant — the
delay *schedule* is still computed and recorded, it just isn't slept.

:func:`plan_assignment` is the one fault-recovery implementation every
``repro.exec`` backend executes.  Morsel fault draws are keyed by
``(worker, range, attempt)`` plus per-worker receipt ordinals and fire
*before* a range runs, so once ranges are assigned statically the whole
recovery outcome is a pure function of (plan, ranges, workers): the
planner decides it up front and the executors only run the result —
the plan-then-execute split of co-processing hash joins on coupled
CPU-GPU architectures.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan, TransientKernelFault, WorkerCrashFault
from repro.faults.resilience import ResilienceLog
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    # A runtime import would load the repro.core package, whose
    # operators import repro.exec, which imports this module back.
    from repro.core.scheduler.morsel import WorkRange


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff.

    Args:
        max_attempts: total attempts allowed per work range (the first
            attempt counts); at least 1.  Exhausting the budget raises
            :class:`MorselFailedError`.
        base_delay: backoff before the first retry, in seconds.  0.0
            (the default) computes the schedule without sleeping.
        factor: multiplicative backoff growth per retry.
        max_delay: backoff cap in seconds.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    factor: float = 2.0
    max_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1: {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be non-negative: {self.base_delay}")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1: {self.factor}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be non-negative: {self.max_delay}")

    def delay(self, attempt: int) -> float:
        """Backoff (seconds) before attempt number ``attempt`` (1-based retry)."""
        if attempt < 1:
            raise ValueError(f"attempt must be at least 1: {attempt}")
        if self.base_delay == 0.0:
            return 0.0
        return min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))

    def sleep(self, attempt: int) -> float:
        """Sleep the backoff for ``attempt`` and return the delay used."""
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)
        return delay


#: policy used when an executor is built without an explicit one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class MorselFailedError(RuntimeError):
    """A work range exhausted its retry budget.

    Attributes:
        work: the failed :class:`WorkRange`.
        worker: the worker holding the range on the final attempt.
        attempts: attempts consumed (including the first).
    """

    def __init__(
        self, work: WorkRange, worker: str, attempts: int, cause: BaseException
    ) -> None:
        super().__init__(
            f"morsel [{work.start}, {work.end}) failed on {worker} after "
            f"{attempts} attempt(s): {cause}"
        )
        self.work = work
        self.worker = worker
        self.attempts = attempts
        self.__cause__ = cause


#: one queued receipt: (range, attempt number, was re-dispatched).
_Receipt = Tuple["WorkRange", int, bool]


def plan_assignment(
    ranges: Sequence[WorkRange],
    workers: Sequence[str],
    fault_plan: Optional[FaultPlan],
    retry: RetryPolicy,
    log: ResilienceLog,
    metrics: MetricsRegistry,
    fallback: str,
) -> Dict[str, List[WorkRange]]:
    """Assign ``ranges`` to ``workers`` and decide every fault recovery.

    Ranges are dealt round-robin; each worker then receives its queue
    in order, every receipt checked against ``fault_plan``:

    * a transient fault retries the range in place;
    * a crash kills the worker: the range it held is re-dispatched
      (``redispatch``) and its queued ranges are dealt round-robin to
      the survivors;
    * when every worker has died, the leftover ranges go to the
      ``fallback`` worker, where crashes count as in-place retries;
    * a range that exhausts ``retry.max_attempts`` raises
      :class:`MorselFailedError`.

    Recovery actions land in ``log`` and ``metrics``.  Returns the
    surviving assignment: ``{worker: ranges in start order}`` for every
    worker with work, pool workers first, then ``fallback`` if the pool
    died.  Every range appears exactly once.
    """
    queues: Dict[str, Deque[_Receipt]] = {w: deque() for w in workers}
    for i, work in enumerate(ranges):
        queues[workers[i % len(workers)]].append((work, 0, False))
    if fault_plan is None:
        return {
            w: [work for work, _, _ in queue]
            for w, queue in queues.items()
            if queue
        }
    kept: Dict[str, List[WorkRange]] = {w: [] for w in workers}
    alive = {w: True for w in workers}
    backlog: List[_Receipt] = []
    progressed = True
    while progressed:
        progressed = False
        for w in workers:
            queue = queues[w]
            while alive[w] and queue:
                progressed = True
                work, attempt, redispatched = queue.popleft()
                if redispatched:
                    _record_redispatch(log, metrics, w, work, attempt)
                survived, attempt = _take_receipt(
                    fault_plan, retry, log, metrics, w, work, attempt, True
                )
                if survived:
                    kept[w].append(work)
                    continue
                # Crash: the held range moves on as a redispatch; the
                # still-queued ranges were never received, so survivors
                # pick them up as ordinary dispatches.
                alive[w] = False
                leftovers = [(work, attempt, True), *queue]
                queue.clear()
                survivors = [n for n in workers if alive[n]]
                if not survivors:
                    backlog.extend(leftovers)
                    continue
                for j, item in enumerate(leftovers):
                    queues[survivors[j % len(survivors)]].append(item)
    assignment = {
        w: sorted(works, key=lambda work: work.start)
        for w, works in kept.items()
        if works
    }
    if backlog:
        assignment[fallback] = _plan_fallback(
            backlog, fault_plan, retry, log, metrics, fallback
        )
    return assignment


def _plan_fallback(
    backlog: List[_Receipt],
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    log: ResilienceLog,
    metrics: MetricsRegistry,
    fallback: str,
) -> List[WorkRange]:
    """The whole pool died: ``fallback`` receives the backlog in order."""
    backlog = sorted(backlog, key=lambda item: item[0].start)
    log.record(
        "serial_fallback",
        worker=fallback,
        pending_ranges=sum(1 for item in backlog if item[2]),
        # Kept for a stable manifest ``resilience`` schema: the ordered
        # (sequenced) execution mode no longer exists.
        ordered=False,
    )
    metrics.counter("serial_fallbacks_total").inc()
    for work, attempt, redispatched in backlog:
        if redispatched:
            _record_redispatch(log, metrics, fallback, work, attempt)
        _take_receipt(fault_plan, retry, log, metrics, fallback, work, attempt, False)
    return [work for work, _, _ in backlog]


def _take_receipt(
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    log: ResilienceLog,
    metrics: MetricsRegistry,
    worker: str,
    work: WorkRange,
    attempt: int,
    in_pool: bool,
) -> Tuple[bool, int]:
    """One receipt of ``work`` by ``worker``, retried within the budget.

    Returns ``(survived, attempt)``; ``survived=False`` means a pool
    worker crashed holding the range.  The fallback worker has no peers
    to hand the range to, so it retries crashes in place.
    """
    while True:
        try:
            fault_plan.check_morsel(
                worker=worker, start=work.start, end=work.end, attempt=attempt
            )
        except TransientKernelFault as fault:
            kind, crashed, cause = "transient", False, fault
        except WorkerCrashFault as fault:
            kind, crashed, cause = "crash", True, fault
        else:
            return True, attempt
        metrics.counter("faults_injected_total", kind=kind, worker=worker).inc()
        attempt += 1
        if attempt >= retry.max_attempts:
            raise MorselFailedError(work, worker, attempt, cause) from cause
        if crashed and in_pool:
            return False, attempt
        log.record(
            "retry",
            worker=worker,
            start=work.start,
            end=work.end,
            attempt=attempt,
            backoff_seconds=retry.delay(attempt),
        )
        metrics.counter("retries_total", worker=worker).inc()
        retry.sleep(attempt)


def _record_redispatch(
    log: ResilienceLog,
    metrics: MetricsRegistry,
    worker: str,
    work: WorkRange,
    attempt: int,
) -> None:
    log.record(
        "redispatch", worker=worker, start=work.start, end=work.end, attempt=attempt
    )
    metrics.counter("redispatches_total", worker=worker).inc()
