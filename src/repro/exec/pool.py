"""Thread-pool morsel-parallel executor (Section 6.1, for real).

The functional layer used to drive its numpy kernels from exactly one
thread; this module runs them across N worker threads.  Both parallel
backends share one execution contract, defined here:

* the input ``[0, total_tuples)`` is cut into fixed morsels
  (:meth:`MorselExecutor.plan_ranges`);
* :func:`repro.faults.recovery.plan_assignment` deals the morsels
  round-robin to the workers and decides every fault recovery up front;
* ``body(worker, ranges)`` then runs once per worker over its ranges
  (in start order) and returns a summary; :meth:`MorselExecutor.run`
  returns ``{worker: summary}``.

This executor runs each worker's body on its own thread and the
fallback worker's body (if the whole pool died) on the calling thread;
:class:`~repro.exec.process.ProcessExecutor` forks one child per worker
instead.  Each executor also owns where a run's outputs and mutable
table storage live (:meth:`~MorselExecutor.output_arrays`,
:meth:`~MorselExecutor.table_storage`): plain numpy arrays here, shared
memory for processes.

Determinism guarantee: ranges partition ``[0, total_tuples)`` and each
executes exactly once, into a range-disjoint output slice or a private
stats view whose summary merges in worker-name order — so parallel
output is bit-identical to a serial execution regardless of worker
count or interleaving.

Resilience (``repro.faults``): fault draws fire at morsel receipt,
before a range runs, and are pure functions of ``(worker, range,
attempt)`` plus per-worker receipt ordinals, so the planner's recovery
decisions (retry in place, re-dispatch a crashed worker's ranges, fall
back to the calling thread, or raise :class:`MorselFailedError`) are
the same on every backend and land in the shared
:class:`~repro.faults.ResilienceLog`.  Genuine (non-injected) body
exceptions propagate unchanged, with the failing worker attached as
``failed_worker``.

The executor keeps its *own* metrics registry and span timeline.  The
observability bundle attached to an operator records the *priced*
(modeled) execution; wall-clock worker scheduling is a property of the
host machine and must not leak into run manifests, which are diffed
bit-for-bit across backends and PRs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.scheduler.morsel import WorkRange
from repro.faults.recovery import (  # MorselFailedError: re-exported
    MorselFailedError,
    RetryPolicy,
    plan_assignment,
)
from repro.faults.resilience import ResilienceLog
from repro.faults.runtime import active_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Timeline

#: valid execution backends for the functional layer.
EXEC_BACKENDS = ("serial", "threads", "processes")

#: default morsel size (executed tuples) for the parallel backends —
#: small enough that reduced-scale workloads still decompose into many
#: morsels, large enough that numpy kernels dominate dispatch overhead.
DEFAULT_EXEC_MORSEL_TUPLES = 1 << 15

#: default worker count of the parallel backends.
DEFAULT_WORKERS = 4

#: a per-worker body: (worker name, its ranges in start order) -> summary.
WorkerBody = Callable[[str, List[WorkRange]], Any]


def check_backend(backend: str) -> str:
    """Validate a ``backend`` knob: serial | threads | processes."""
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"valid: {', '.join(EXEC_BACKENDS)}"
        )
    return backend


class MorselExecutor:
    """Runs a per-worker body across N threads over ``[0, total_tuples)``.

    Args:
        workers: number of pool threads (a single list runs in-line on
            the calling thread).
        morsel_tuples: morsel size in executed tuples.
        name: label prefix for worker names, spans, and metrics.
        retry: bounded retry/backoff policy for injected faults.
        resilience: recovery audit log (a fresh one is created when not
            injected; operators share one per run so it lands in the
            manifest's ``resilience`` section).
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
        name: str = "exec",
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilienceLog] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        if morsel_tuples <= 0:
            raise ValueError(f"morsel size must be positive: {morsel_tuples}")
        self.workers = workers
        self.morsel_tuples = morsel_tuples
        self.name = name
        self.retry = retry if retry is not None else RetryPolicy()
        self.resilience = resilience if resilience is not None else ResilienceLog()
        #: executor-local observability (never merged into run manifests).
        self.metrics = MetricsRegistry()
        self.timeline = Timeline()

    # ------------------------------------------------------------------
    def worker_names(self) -> List[str]:
        """Stable worker labels (``<name>-w0`` ... ``<name>-wN-1``)."""
        return [f"{self.name}-w{i}" for i in range(self.workers)]

    def plan_ranges(
        self, total_tuples: int, morsel_tuples: Optional[int] = None
    ) -> List[WorkRange]:
        """The static morsel decomposition of ``[0, total_tuples)``."""
        step = morsel_tuples if morsel_tuples is not None else self.morsel_tuples
        if step <= 0:
            raise ValueError(f"morsel size must be positive: {step}")
        return [
            WorkRange(start, min(start + step, total_tuples))
            for start in range(0, total_tuples, step)
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        total_tuples: int,
        body: WorkerBody,
        morsel_tuples: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Plan ``[0, total_tuples)`` and run ``body`` once per worker.

        ``morsel_tuples`` overrides the configured morsel size for this
        run only — sharded builds assign shard *indices* (morsel size 1)
        through the same machinery.  Returns ``{worker: summary}`` for
        every worker that received ranges, including the
        ``<name>-fallback`` worker when the whole pool died.
        """
        ranges = self.plan_ranges(total_tuples, morsel_tuples)
        fallback = f"{self.name}-fallback"
        assignment = plan_assignment(
            ranges,
            self.worker_names(),
            active_plan(),
            self.retry,
            self.resilience,
            self.metrics,
            fallback,
        )
        _check_coverage(assignment, total_tuples)
        for worker, works in assignment.items():
            self.metrics.counter(
                "morsels_dispatched_total", worker=worker
            ).inc(len(works))
        backlog = assignment.pop(fallback, None)
        summaries = self._run_workers(body, assignment)
        if backlog is not None:
            summaries[fallback] = body(fallback, backlog)
            assignment[fallback] = backlog
        for worker, works in assignment.items():
            for work in works:
                self.timeline.record(
                    worker, f"{self.name}:morsel", 0.0, 0.0, units=work.tuples
                )
        return summaries

    def _run_workers(
        self, body: WorkerBody, assignment: Dict[str, List[WorkRange]]
    ) -> Dict[str, Any]:
        """One thread per worker list (in-line when there is just one)."""
        replies: Dict[str, Tuple[bool, Any]] = {}

        def call(worker: str, works: List[WorkRange]) -> None:
            try:
                replies[worker] = (True, body(worker, works))
            except BaseException as exc:  # noqa: B036 - re-raised by collect
                replies[worker] = (False, exc)

        if len(assignment) == 1:
            call(*next(iter(assignment.items())))
        else:
            threads = [
                threading.Thread(
                    target=call, args=(worker, works), name=worker, daemon=True
                )
                for worker, works in assignment.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return collect_summaries(self.name, list(assignment), replies)

    # -- where a run's data lives ---------------------------------------
    @contextmanager
    def output_arrays(
        self, length: int, dtypes: Sequence[Any]
    ) -> Iterator[List[np.ndarray]]:
        """Output buffers that bodies fill range-disjoint slices of.

        The yielded list holds the final arrays once the block exits.
        """
        yield [np.empty(length, dtype=dtype) for dtype in dtypes]

    def table_storage(self, table: Any) -> ContextManager[None]:
        """Context in which bodies may mutate ``table``'s storage."""
        return nullcontext()


def collect_summaries(
    name: str,
    workers: Sequence[str],
    replies: Dict[str, Tuple[bool, Any]],
) -> Dict[str, Any]:
    """``{worker: summary}``; raise the first failure in worker order.

    ``replies`` maps every worker to ``(ok, summary)`` or to
    ``(False, exception-or-message)``.
    """
    summaries: Dict[str, Any] = {}
    for worker in workers:
        ok, payload = replies[worker]
        if ok:
            summaries[worker] = payload
            continue
        if not isinstance(payload, BaseException):
            payload = RuntimeError(f"{name}: worker {worker} failed: {payload}")
        payload.failed_worker = worker  # type: ignore[attr-defined]
        raise payload
    return summaries


def _check_coverage(
    assignment: Dict[str, List[WorkRange]], total_tuples: int
) -> None:
    """The assignment must partition ``[0, total_tuples)`` exactly."""
    merged = sorted(
        (work for works in assignment.values() for work in works),
        key=lambda work: work.start,
    )
    cursor = 0
    for work in merged:
        if work.start != cursor:
            raise RuntimeError(
                f"morsel assignment lost coverage at tuple {cursor}: "
                f"next range starts at {work.start}"
            )
        cursor = work.end
    if cursor != total_tuples:
        raise RuntimeError(
            f"morsel assignment covers {cursor} of {total_tuples} tuples"
        )


def make_executor(
    backend: str,
    workers: int = DEFAULT_WORKERS,
    morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
    name: str = "exec",
    retry: Optional[RetryPolicy] = None,
    resilience: Optional[ResilienceLog] = None,
):
    """Executor for ``backend`` — ``None`` selects the serial fast path.

    ``threads`` returns a :class:`MorselExecutor`; ``processes`` a
    :class:`~repro.exec.process.ProcessExecutor` (imported lazily — it
    is only needed when requested, and keeping it out of this module's
    imports keeps the fork requirement a runtime property).
    """
    check_backend(backend)
    if backend == "serial":
        return None
    cls = MorselExecutor
    if backend == "processes":
        from repro.exec.process import ProcessExecutor

        cls = ProcessExecutor
    return cls(
        workers=workers,
        morsel_tuples=morsel_tuples,
        name=name,
        retry=retry,
        resilience=resilience,
    )
