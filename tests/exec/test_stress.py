"""Concurrency stress: dispatcher partitioning, metric atomicity.

These tests hammer the shared-state primitives from many raw threads
(no executor in between) to catch lost updates and range overlaps that
only concurrency can produce.
"""

import threading

import numpy as np

from repro.core.scheduler.morsel import MorselDispatcher
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Timeline, Tracer

N_THREADS = 8


def _hammer(n_threads, target):
    """Run ``target(thread_index)`` on N threads, joined; re-raise errors."""
    errors = []

    def wrap(index):
        try:
            target(index)
        except BaseException as exc:  # noqa: B036 - surface in main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=wrap, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestDispatcherStress:
    def test_ranges_partition_input_exactly(self):
        total = 1_000_003  # prime: ragged tail, no convenient alignment
        dispatcher = MorselDispatcher(total, morsel_tuples=1013)
        grabbed = [[] for _ in range(N_THREADS)]

        def pull(index):
            while True:
                work = dispatcher.next_batch(worker=f"w{index}")
                if work is None:
                    return
                grabbed[index].append(work)

        _hammer(N_THREADS, pull)

        ranges = sorted(
            (w for per_thread in grabbed for w in per_thread),
            key=lambda w: w.start,
        )
        assert ranges[0].start == 0
        assert ranges[-1].end == total
        for prev, cur in zip(ranges, ranges[1:]):
            assert prev.end == cur.start  # no overlap, no gap
        assert sum(w.tuples for w in ranges) == total
        assert dispatcher.remaining == 0
        assert dispatcher.exhausted

    def test_batched_requests_also_partition(self):
        total = 64 * 1000 + 7
        dispatcher = MorselDispatcher(total, morsel_tuples=64)
        seen = []
        lock = threading.Lock()

        def pull(index):
            while True:
                work = dispatcher.next_batch(morsels=4, worker=f"w{index}")
                if work is None:
                    return
                with lock:
                    seen.append(work)

        _hammer(N_THREADS, pull)
        covered = np.zeros(total, dtype=bool)
        for work in seen:
            assert not covered[work.start : work.end].any()
            covered[work.start : work.end] = True
        assert covered.all()

    def test_dispatch_log_accounts_every_worker(self):
        total = 50_000
        dispatcher = MorselDispatcher(total, morsel_tuples=100)

        def pull(index):
            while dispatcher.next_batch(worker=f"w{index}") is not None:
                pass

        _hammer(N_THREADS, pull)
        per_worker = [
            dispatcher.dispatched_tuples(f"w{i}") for i in range(N_THREADS)
        ]
        assert sum(per_worker) == total


class TestMetricsStress:
    def test_counter_loses_no_increments(self):
        registry = MetricsRegistry()
        per_thread = 10_000

        def bump(index):
            counter = registry.counter("hits", worker=f"w{index % 2}")
            for _ in range(per_thread):
                counter.inc()

        _hammer(N_THREADS, bump)
        total = sum(
            cell.value for cell in registry if cell.name == "hits"
        )
        assert total == N_THREADS * per_thread

    def test_get_or_create_never_duplicates_cells(self):
        registry = MetricsRegistry()

        def create(index):
            for _ in range(1000):
                registry.counter("shared").inc()

        _hammer(N_THREADS, create)
        assert len(registry) == 1
        assert registry.value("counter", "shared") == N_THREADS * 1000

    def test_histogram_loses_no_observations(self):
        registry = MetricsRegistry()
        per_thread = 5_000

        def observe(index):
            hist = registry.histogram("sizes")
            for i in range(per_thread):
                hist.observe(float(i % 97))

        _hammer(N_THREADS, observe)
        (hist,) = list(registry)
        assert hist.count == N_THREADS * per_thread


class TestTraceStress:
    def test_timeline_loses_no_spans(self):
        timeline = Timeline()
        per_thread = 5_000

        def record(index):
            for i in range(per_thread):
                timeline.record(f"w{index}", "morsel", float(i), float(i + 1))

        _hammer(N_THREADS, record)
        assert len(timeline.spans) == N_THREADS * per_thread

    def test_tracer_nesting_is_thread_local(self):
        tracer = Tracer()
        bad = []

        def nest(index):
            for _ in range(500):
                with tracer.span(f"outer-{index}", worker=f"w{index}"):
                    with tracer.span(f"inner-{index}", worker=f"w{index}"):
                        pass
            # each thread's stack must be empty once its spans close
            if tracer._stack:
                bad.append(index)

        _hammer(N_THREADS, nest)
        assert not bad
        inner = [s for s in tracer.timeline.spans if s.label.startswith("inner")]
        assert len(inner) == N_THREADS * 500
        # every inner span's parent is its own thread's outer span — a
        # shared stack would cross-wire parents between threads
        for span in inner:
            index = span.label.split("-")[1]
            assert span.parent == f"outer-{index}"


class TestExecutorStress:
    def test_many_threads_fill_disjoint_slices_exactly(self):
        import sys

        from repro.core.hashtable import create_hash_table
        from repro.exec import MorselExecutor, execute_build, execute_probe

        rng = np.random.default_rng(11)
        keys = rng.permutation(40_000)[:10_000].astype(np.int64)
        probe = rng.integers(0, 40_000, size=30_000).astype(np.int64)

        def run(executor):
            table = create_hash_table("perfect", 40_000, keys.dtype, keys.dtype)
            execute_build(table, keys, keys * 3, executor)
            found, values = execute_probe(table, probe, executor)
            return found, values, table.stats.as_tuple(), table.size

        serial = run(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent thread switches
        try:
            box = {}
            worker = threading.Thread(
                target=lambda: box.update(
                    result=run(MorselExecutor(workers=N_THREADS, morsel_tuples=97))
                ),
                daemon=True,
            )
            worker.start()
            worker.join(60.0)
            assert not worker.is_alive(), "executor failed to drain"
        finally:
            sys.setswitchinterval(interval)
        parallel = box["result"]
        assert np.array_equal(parallel[0], serial[0])
        assert np.array_equal(parallel[1], serial[1])
        assert parallel[2:] == serial[2:]
