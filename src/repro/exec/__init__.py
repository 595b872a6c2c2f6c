"""Morsel-parallel execution backend (``repro.exec``).

Runs the functional layer — hash-table builds, probes, predicate
cascades — across a pool of worker threads
(:class:`~repro.exec.pool.MorselExecutor`) or forked worker processes
(:class:`~repro.exec.process.ProcessExecutor`) writing into
``multiprocessing.shared_memory`` buffers.  Both execute one static,
fault-planned morsel assignment
(:func:`repro.faults.recovery.plan_assignment`) under one contract,
``run(total, body(worker, ranges)) -> {worker: summary}``, with results
merged deterministically so parallel output is bit-identical to serial
and the measured TableStats (hence every priced manifest) are the same
at any worker count.

Operators expose it through a
``backend="serial" | "threads" | "processes"`` knob.
"""

from repro.exec.functional import (
    execute_build,
    execute_masks,
    execute_probe,
)
from repro.exec.pool import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    EXEC_BACKENDS,
    MorselExecutor,
    MorselFailedError,
    check_backend,
    make_executor,
)
from repro.exec.process import ProcessExecutor, fork_available
from repro.exec.shm import ShmArena, table_storage_in_shm

__all__ = [
    "DEFAULT_EXEC_MORSEL_TUPLES",
    "DEFAULT_WORKERS",
    "EXEC_BACKENDS",
    "MorselExecutor",
    "MorselFailedError",
    "ProcessExecutor",
    "ShmArena",
    "check_backend",
    "execute_build",
    "execute_masks",
    "execute_probe",
    "fork_available",
    "make_executor",
    "table_storage_in_shm",
]
