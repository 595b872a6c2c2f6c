"""The central morsel dispatcher (Section 6.1).

"Cores balance load by requesting fixed-sized chunks of data (i.e.,
morsels) from a central dispatcher, that is implemented as a read
cursor."  The dispatcher hands out ranges of the probe (or build)
relation; GPUs request *batches* of morsels to amortize kernel-launch
latency over more data.

The dispatcher is thread-safe: the cursor advance, the dispatch log,
and the metric emission happen under one lock, so N concurrent workers
hammering :meth:`next_batch` receive disjoint ranges that exactly cover
``[0, total_tuples)``.  (The functional ``repro.exec`` backends assign
morsels statically instead, so fault recovery can be planned up front;
see :func:`repro.faults.recovery.plan_assignment`.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class WorkRange:
    """A half-open tuple range [start, end)."""

    start: int
    end: int

    @property
    def tuples(self) -> int:
        return self.end - self.start


class MorselDispatcher:
    """A read cursor over ``total_tuples`` handing out fixed morsels."""

    def __init__(
        self,
        total_tuples: int,
        morsel_tuples: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if total_tuples < 0:
            raise ValueError(f"total tuples must be non-negative: {total_tuples}")
        if morsel_tuples <= 0:
            raise ValueError(f"morsel size must be positive: {morsel_tuples}")
        self.total_tuples = total_tuples
        self.morsel_tuples = morsel_tuples
        self.metrics = metrics
        self._cursor = 0
        self._lock = threading.Lock()
        self.dispatched: List[Tuple[str, WorkRange]] = []

    @property
    def remaining(self) -> int:
        with self._lock:
            return self.total_tuples - self._cursor

    @property
    def exhausted(self) -> bool:
        with self._lock:
            return self._cursor >= self.total_tuples

    def next_batch(self, morsels: int = 1, worker: str = "") -> Optional[WorkRange]:
        """Hand out up to ``morsels`` consecutive morsels (one range).

        Returns None once the input is exhausted.  The final range may be
        shorter than requested — the source of end-of-input skew the
        batching trade-off has to balance.  Safe to call from concurrent
        workers: ranges never overlap and never leave gaps.
        """
        if morsels < 1:
            raise ValueError(f"must request at least one morsel: {morsels}")
        if not isinstance(worker, str):
            # A non-string worker would silently corrupt the dispatch
            # log and metric labels (e.g. worker=0 vs worker="0").
            raise ValueError(
                f"worker must be a string label, got {type(worker).__name__}: "
                f"{worker!r}"
            )
        with self._lock:
            if self._cursor >= self.total_tuples:
                return None
            start = self._cursor
            end = min(self.total_tuples, start + morsels * self.morsel_tuples)
            self._cursor = end
            work = WorkRange(start=start, end=end)
            self.dispatched.append((worker, work))
        if self.metrics is not None:
            granted = -(-work.tuples // self.morsel_tuples)
            self.metrics.counter(
                "morsels_dispatched_total", worker=worker
            ).inc(granted)
            self.metrics.histogram(
                "dispatch_batch_tuples", worker=worker
            ).observe(work.tuples)
        return work

    def dispatched_tuples(self, worker: str) -> int:
        """Total tuples handed to one worker so far."""
        with self._lock:
            return sum(w.tuples for name, w in self.dispatched if name == worker)
