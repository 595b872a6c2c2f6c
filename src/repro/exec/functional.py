"""Morsel-parallel drivers for the functional layer's kernels.

These helpers run a hash-table build, a probe, or a predicate cascade
either serially (``executor is None`` — the exact code path the
operators always had) or through an executor's
``run(total, body(worker, ranges))`` contract (see
:mod:`repro.exec.pool`).  Each kernel has one parallel implementation
for both backends: a body writes range-disjoint slices of the
executor's :meth:`~repro.exec.pool.MorselExecutor.output_arrays` or
mutates the table inside its
:meth:`~repro.exec.pool.MorselExecutor.table_storage`, and returns a
picklable stats summary that merges in worker-name order.  Threads keep
plain numpy arrays; forked processes get shared memory and read inputs
through copy-on-write pages.  The contract, enforced by the equivalence
tests, is that every path produces **bit-identical outputs and
identical TableStats**, so the ``backend`` knob changes wall-clock
behaviour only — never a result, a priced manifest, or a metric
snapshot.

Build decomposition is scheme-aware, because not every table build is
morsel-divisible:

* **perfect** — ``slot = key`` with unique keys means writes are
  slot-disjoint; workers build fully in parallel through private
  :meth:`~repro.core.hashtable.base.HashTableBase.stats_view`\\ s.  A
  post-build occupancy audit catches the one race the per-batch
  duplicate check cannot see (the same key arriving in two concurrent
  morsels).
* **chaining** — head-pointer prepends commute per bucket but the chain
  *layout* depends on application order, so the build runs serially.
* **open addressing** — the numpy CAS emulation resolves within-round
  races per *batch*; splitting the batch changes which keys race and
  therefore the final slot layout (and downstream probe counts).  The
  build stays one whole batch regardless of backend.
* **sharded** — the contention-free case: shard routing is a pure
  function of the key, so the batch decomposes into per-shard
  sub-batches *before* execution and each worker builds whole shards it
  exclusively owns.  Any application order (serial loop, thread pool,
  forked processes) yields bit-identical storage; works for every inner
  scheme, including the two that are not morsel-divisible unsharded.

Probes and predicate masks are read-only and element-independent, so
they decompose for every scheme: each range produces a private output
slice, so the merged output is independent of completion order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler.morsel import WorkRange
from repro.exec.pool import MorselExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hashtable.base import HashTableBase

# The concrete hash-table classes are imported inside execute_build():
# importing them at module scope triggers the repro.core package
# __init__, whose operators import repro.exec right back — a cycle that
# breaks whichever side is imported first.

#: a predicate-mask evaluator over a half-open row range.
MaskEvaluator = Callable[[int, int], np.ndarray]


def _view_summary(view: HashTableBase) -> Tuple[str, Any]:
    """A picklable stats/size delta of a (possibly sharded) view."""
    shards = getattr(view, "shards", None)
    if shards is not None:
        return (
            "sharded",
            [(shard.stats.as_tuple(), shard.size) for shard in shards],
        )
    return ("flat", (view.stats.as_tuple(), view.size))


def _absorb_summaries(table: HashTableBase, summaries: Dict[str, Any]) -> None:
    """Fold worker summaries back, in worker-name order (shard-granular
    for sharded tables).

    The merge is a commutative integer sum, so any order yields the
    serial counts; sorting just makes the absorption itself
    deterministic."""
    from repro.core.hashtable.base import TableStats

    for worker in sorted(summaries):
        kind, data = summaries[worker]
        if kind == "sharded":
            for shard, (stats_tuple, size) in zip(table.shards, data):
                shard.stats.merge(TableStats(*stats_tuple))
                shard.size += size
        else:
            stats_tuple, size = data
            table.stats.merge(TableStats(*stats_tuple))
            table.size += size


def _audit_perfect_occupancy(table: HashTableBase) -> None:
    """Catch same-key races a per-batch duplicate check cannot see.

    Two concurrent morsels carrying the same key can both observe the
    slot EMPTY and both count a successful insert; audit the actual
    occupancy against the claimed size.
    """
    occupied = int(np.count_nonzero(table.keys != table.EMPTY))
    if occupied != table.size:
        raise ValueError(
            "perfect hashing requires unique keys; concurrent build "
            f"claimed {table.size} inserts but occupies {occupied} slots"
        )


def _build_sharded(
    table: HashTableBase,
    keys: np.ndarray,
    values: np.ndarray,
    executor: MorselExecutor,
) -> None:
    """Contention-free sharded build: workers own whole shards.

    The work unit assigned through the executor is a *shard index*
    (morsel size 1), so crash recovery re-dispatches whole shards —
    safe in any order because shards share no storage.  The partition
    is computed up front (a pure function of the keys), making the
    per-shard sub-batches identical to the serial
    ``ShardedHashTable.insert_batch`` decomposition.
    """
    from repro.core.hashtable.base import TableStats

    parts = table.partition_batch(keys)

    def body(worker: str, ranges: List[WorkRange]) -> List[Tuple[int, tuple, int]]:
        out = []
        for work in ranges:
            for sid in range(work.start, work.end):
                index = parts[sid]
                table.insert_shard(sid, keys[index], values[index])
                shard = table.shards[sid]
                out.append((sid, shard.stats.as_tuple(), shard.size))
        return out

    with executor.table_storage(table):
        summaries = executor.run(table.n_shards, body, morsel_tuples=1)
    # Each shard is built by exactly one worker; its summary carries
    # the shard's absolute post-build counters.
    for worker in sorted(summaries):
        for sid, stats_tuple, size in summaries[worker]:
            table.shards[sid].stats = TableStats(*stats_tuple)
            table.shards[sid].size = size


def execute_build(
    table: HashTableBase,
    keys: np.ndarray,
    values: np.ndarray,
    executor: Optional[MorselExecutor] = None,
) -> None:
    """Populate ``table`` with (keys, values); scheme-aware decomposition."""
    from repro.core.hashtable.perfect import PerfectHashTable
    from repro.core.hashtable.sharded import ShardedHashTable

    if executor is None or len(keys) == 0:
        table.insert_batch(keys, values)
        return
    if isinstance(table, ShardedHashTable):
        _build_sharded(table, keys, values, executor)
        if table.scheme == "perfect":
            for shard in table.shards:
                _audit_perfect_occupancy(shard)
        return
    if not isinstance(table, PerfectHashTable):
        # Unsharded chaining (order-dependent chain layout) and open
        # addressing (batch-scoped race resolution) are not
        # morsel-divisible; build serially.  Shard the table to
        # parallelize these schemes.
        table.insert_batch(keys, values)
        return

    def body(worker: str, ranges: List[WorkRange]) -> Tuple[str, Any]:
        view = table.stats_view()
        for work in ranges:
            view.insert_batch(
                keys[work.start : work.end], values[work.start : work.end]
            )
        return _view_summary(view)

    with executor.table_storage(table):
        summaries = executor.run(len(keys), body)
    _absorb_summaries(table, summaries)
    _audit_perfect_occupancy(table)


def execute_probe(
    table: HashTableBase,
    keys: np.ndarray,
    executor: Optional[MorselExecutor] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Look up ``keys``; returns (found, values) bit-identical to serial.

    Linear probing, chain walks, and perfect lookups are pure functions
    of the (frozen) table and the key slice, and all counters are
    per-tuple sums — so a morsel-split probe returns the same outputs
    and records the same TableStats as one whole-batch lookup.  The
    table is frozen, so bodies only read it; only the two outputs are
    written, each range into its own slice.
    """
    if executor is None or len(keys) == 0:
        return table.lookup_batch(keys)
    dtypes = (np.bool_, table.values.dtype)
    with executor.output_arrays(len(keys), dtypes) as outputs:
        found, values = outputs

        def body(worker: str, ranges: List[WorkRange]) -> Tuple[str, Any]:
            view = table.stats_view()
            for work in ranges:
                part_found, part_values = view.lookup_batch(
                    keys[work.start : work.end]
                )
                found[work.start : work.end] = part_found
                values[work.start : work.end] = part_values
            return _view_summary(view)

        summaries = executor.run(len(keys), body)
    _absorb_summaries(table, summaries)
    found, values = outputs
    return found, values


def execute_masks(
    n_rows: int,
    evaluators: Sequence[MaskEvaluator],
    executor: Optional[MorselExecutor] = None,
) -> List[np.ndarray]:
    """Evaluate row-range predicates over ``[0, n_rows)``.

    Each evaluator maps a half-open row range to a boolean (or
    element-wise) mask for those rows; each range writes its own slice
    of the output.  Element-wise predicates make sliced evaluation
    bit-identical to whole-array evaluation.
    """
    if executor is None or n_rows == 0:
        return [evaluator(0, n_rows) for evaluator in evaluators]
    # Probe each evaluator's output dtype with an empty range so the
    # buffers match (Q6's last mask is a float revenue term, not a bool).
    dtypes = [evaluator(0, 0).dtype for evaluator in evaluators]
    with executor.output_arrays(n_rows, dtypes) as outputs:

        def body(worker: str, ranges: List[WorkRange]) -> None:
            for work in ranges:
                for out, evaluator in zip(outputs, evaluators):
                    out[work.start : work.end] = evaluator(work.start, work.end)

        executor.run(n_rows, body)
    return outputs
