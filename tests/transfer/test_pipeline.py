"""Copy-pipeline arithmetic."""

import pytest

from repro.plan.overlap import chunk_sizes, iter_chunks, pipeline_makespan


class TestChunkSizes:
    def test_even_split(self):
        assert chunk_sizes(12, 3) == [4, 4, 4]

    def test_remainder_spread_over_leading_chunks(self):
        assert chunk_sizes(10, 3) == [4, 3, 3]

    def test_total_preserved(self):
        for total in (0, 1, 7, 1023):
            assert sum(chunk_sizes(total, 8)) == total

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)
        with pytest.raises(ValueError):
            chunk_sizes(-1, 2)


class TestMakespan:
    def test_single_stage_is_its_time(self):
        assert pipeline_makespan([2.0], chunks=4) == pytest.approx(2.0)

    def test_two_stage_overlap(self):
        # Dominant stage 4s, secondary 2s, 4 chunks: 4 + 2/4 = 4.5.
        assert pipeline_makespan([2.0, 4.0], chunks=4) == pytest.approx(4.5)

    def test_more_chunks_reduce_fill_cost(self):
        few = pipeline_makespan([1.0, 4.0], chunks=2)
        many = pipeline_makespan([1.0, 4.0], chunks=32)
        assert many < few

    def test_per_chunk_overhead_grows_with_chunks(self):
        cheap = pipeline_makespan([4.0], chunks=2, per_chunk_overhead=0.1)
        costly = pipeline_makespan([4.0], chunks=16, per_chunk_overhead=0.1)
        assert costly > cheap

    def test_tied_stages_fill(self):
        # Two equal stages: one contributes fill time.
        assert pipeline_makespan([4.0, 4.0], chunks=4) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_makespan([], chunks=2)
        with pytest.raises(ValueError):
            pipeline_makespan([1.0], chunks=0)
        with pytest.raises(ValueError):
            pipeline_makespan([-1.0], chunks=2)


class TestIterChunks:
    def test_covers_range_without_overlap(self):
        slices = list(iter_chunks(10, 3))
        covered = []
        for sl in slices:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(10))

    def test_exact_division(self):
        assert len(list(iter_chunks(8, 4))) == 2

    def test_invalid_chunk_length(self):
        with pytest.raises(ValueError):
            list(iter_chunks(10, 0))

    def test_empty_input(self):
        assert list(iter_chunks(0, 4)) == []
