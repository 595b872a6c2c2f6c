"""Process-parallel morsel executor (past the GIL).

The threads backend parallelizes dispatch but numpy kernels still share
one interpreter; this backend forks real worker processes, echoing the
coupled-architecture co-processing split: the parent plans a static,
deterministic decomposition — fault recovery included, via the shared
:func:`~repro.faults.recovery.plan_assignment` — then forked children
execute their ranges against ``multiprocessing.shared_memory`` buffers
(see :mod:`repro.exec.shm`), and the parent merges per-worker summaries
in worker-name order.

It runs the execution contract of :class:`~repro.exec.pool.MorselExecutor`
unchanged — ``run(total, body(worker, ranges)) -> {worker: summary}``,
one child per worker list, the fallback list on the calling thread —
and only swaps where the data lives: output buffers and mutable table
storage go to shared memory so the parent sees the children's writes,
and summaries must pickle.

**Fork is required.**  The functional layer's bodies close over numpy
arrays and lambdas — unpicklable under ``spawn`` — and fork's
copy-on-write pages give children free read access to every input.
Constructing the executor on a platform without fork raises.

Children never see fault hooks: the planner decided every recovery
before forking, so a simulated "crash" means the worker's process is
simply never forked with that range.
"""

from __future__ import annotations

import multiprocessing as mp
from contextlib import contextmanager
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler.morsel import WorkRange
from repro.exec.pool import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    MorselExecutor,
    WorkerBody,
    collect_summaries,
)
from repro.exec.shm import ShmArena, table_storage_in_shm
from repro.faults.recovery import RetryPolicy
from repro.faults.resilience import ResilienceLog


def fork_available() -> bool:
    """True when the platform supports the fork start method (POSIX)."""
    return "fork" in mp.get_all_start_methods()


class ProcessExecutor(MorselExecutor):
    """Runs a per-worker body across N forked processes."""

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
        name: str = "exec",
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilienceLog] = None,
    ) -> None:
        super().__init__(workers, morsel_tuples, name, retry, resilience)
        if not fork_available():
            raise RuntimeError(
                "backend='processes' requires the fork start method "
                "(POSIX); this platform offers: "
                f"{', '.join(mp.get_all_start_methods())}"
            )
        self._ctx = mp.get_context("fork")

    def _run_workers(
        self, body: WorkerBody, assignment: Dict[str, List[WorkRange]]
    ) -> Dict[str, Any]:
        """Fork one child per worker list; gather the pickled summaries."""
        children = []
        for worker, works in assignment.items():
            receiver, sender = self._ctx.Pipe(duplex=False)
            child = self._ctx.Process(
                target=_child_main, args=(sender, worker, body, works), name=worker
            )
            child.start()
            # Only the child may hold the send end, so a child that dies
            # without replying shows up as EOF instead of a hang.
            sender.close()
            children.append((worker, child, receiver))
        replies: Dict[str, Tuple[bool, Any]] = {}
        for worker, child, receiver in children:
            # Read before joining: a child blocks on a reply larger than
            # the pipe buffer until the parent drains it.
            with receiver:
                try:
                    replies[worker] = receiver.recv()
                except EOFError:
                    child.join()
                    replies[worker] = (
                        False,
                        RuntimeError(
                            f"{self.name}: worker process {worker} died "
                            f"without a result (exit code {child.exitcode})"
                        ),
                    )
            child.join()
        return collect_summaries(self.name, list(assignment), replies)

    # -- where a run's data lives ---------------------------------------
    @contextmanager
    def output_arrays(
        self, length: int, dtypes: Sequence[Any]
    ) -> Iterator[List[np.ndarray]]:
        """Shared output buffers, copied into private arrays on exit."""
        arena = ShmArena()
        try:
            outputs = [arena.array(length, dtype) for dtype in dtypes]
            yield outputs
            outputs[:] = [np.array(out) for out in outputs]
        finally:
            arena.close()

    def table_storage(self, table: Any) -> ContextManager[None]:
        """Table storage in shared memory, so children's writes land."""
        return table_storage_in_shm(table)


def _child_main(
    sender, worker: str, body: WorkerBody, ranges: List[WorkRange]
) -> None:
    """Forked-child entry: run the body, ship the summary (or the error)."""
    try:
        reply = (True, body(worker, ranges))
    except BaseException as exc:  # noqa: B036 - shipped to the parent
        reply = (False, exc)
    try:
        sender.send(reply)
    except Exception as exc:  # the summary or the exception does not pickle
        ok, payload = reply
        what = "summary" if ok else f"error {type(payload).__name__}: {payload}"
        sender.send((False, f"unpicklable {what} ({exc})"))
    finally:
        sender.close()
