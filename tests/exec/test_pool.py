"""The morsel-parallel executor: assignment, the body contract, errors."""

import numpy as np
import pytest

from repro.exec import MorselExecutor, check_backend, execute_masks, make_executor


class TestValidation:
    def test_backend_names(self):
        assert check_backend("serial") == "serial"
        assert check_backend("threads") == "threads"
        with pytest.raises(ValueError, match="unknown execution backend"):
            check_backend("gpu")

    def test_make_executor_serial_is_none(self):
        assert make_executor("serial") is None
        assert make_executor("threads", workers=2).workers == 2

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            MorselExecutor(workers=0)
        with pytest.raises(ValueError):
            MorselExecutor(morsel_tuples=0)


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestMergeOrder:
    def test_outcomes_sorted_and_cover_input(self, workers):
        executor = MorselExecutor(workers=workers, morsel_tuples=64)
        total = 64 * 37 + 13  # ragged tail morsel
        summaries = executor.run(total, lambda worker, ranges: list(ranges))
        assert set(summaries) <= set(executor.worker_names())
        for ranges in summaries.values():
            starts = [work.start for work in ranges]
            assert starts == sorted(starts)
        merged = sorted(
            (work for ranges in summaries.values() for work in ranges),
            key=lambda work: work.start,
        )
        assert merged[0].start == 0
        assert merged[-1].end == total
        for prev, cur in zip(merged, merged[1:]):
            assert prev.end == cur.start

    def test_outputs_concatenate_in_morsel_order(self, workers):
        executor = MorselExecutor(workers=workers, morsel_tuples=100)
        data = np.arange(1234, dtype=np.int64)
        (doubled,) = execute_masks(
            len(data), [lambda s, e: data[s:e] * 2], executor
        )
        assert doubled.dtype == data.dtype
        assert np.array_equal(doubled, data * 2)

    def test_summary_per_worker_is_deterministic(self, workers):
        executor = MorselExecutor(workers=workers, morsel_tuples=16)
        first = executor.run(16 * 20, lambda worker, ranges: len(ranges))
        second = executor.run(16 * 20, lambda worker, ranges: len(ranges))
        assert first == second
        assert sum(first.values()) == 20


class TestErrorHandling:
    def test_worker_exception_propagates(self):
        executor = MorselExecutor(workers=4, morsel_tuples=10)

        def boom(worker, ranges):
            if any(work.start >= 200 for work in ranges):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom") as info:
            executor.run(1000, boom)
        assert info.value.failed_worker == "exec-w0"  # first in worker order

    def test_zero_tuples(self):
        executor = MorselExecutor(workers=2, morsel_tuples=10)
        assert executor.run(0, lambda worker, ranges: 1) == {}


class TestExecutorLocalObservability:
    def test_dispatch_metrics_accumulate(self):
        executor = MorselExecutor(workers=2, morsel_tuples=32, name="probe")
        executor.run(32 * 10, lambda worker, ranges: None)
        total = sum(
            cell.value
            for cell in executor.metrics
            if cell.name == "morsels_dispatched_total"
        )
        assert total == 10

    def test_timeline_records_one_span_per_morsel(self):
        executor = MorselExecutor(workers=2, morsel_tuples=32)
        executor.run(32 * 10, lambda worker, ranges: None)
        assert len(executor.timeline.spans) == 10
        assert sum(s.units for s in executor.timeline.spans) == 320
