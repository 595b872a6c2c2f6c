"""Chunked-pipeline overlap arithmetic (Section 4.1).

Push-based transfer methods split the input into chunks and overlap the
transfer with computation.  With ``n`` chunks in flight, the makespan of
a two-stage pipeline whose slowest stage takes ``T`` seconds in total is
``T * (1 + 1/n)`` plus fixed per-chunk costs: the first chunk cannot be
overlapped, and each chunk pays a dispatch latency.

This is the canonical home of the arithmetic; the executor applies it
to every phase carrying a ``chunked=`` attribute.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence


def chunk_sizes(total_bytes: int, chunks: int) -> List[int]:
    """Split ``total_bytes`` into ``chunks`` near-equal chunk sizes.

    >>> chunk_sizes(10, 3)
    [4, 3, 3]
    """
    if chunks <= 0:
        raise ValueError(f"need at least one chunk, got {chunks}")
    if total_bytes < 0:
        raise ValueError(f"byte count must be non-negative: {total_bytes}")
    base, remainder = divmod(total_bytes, chunks)
    return [base + (1 if i < remainder else 0) for i in range(chunks)]


def pipeline_makespan(
    stage_times: Sequence[float],
    chunks: int,
    per_chunk_overhead: float = 0.0,
) -> float:
    """Makespan of a multi-stage software pipeline over equal chunks.

    Args:
        stage_times: total time of each stage if run alone (e.g. [stage
            into pinned buffer, DMA over the link, GPU compute]).
        chunks: number of chunks the input is split into.
        per_chunk_overhead: fixed cost per chunk (API calls, kernel
            launches), paid serially by the slowest stage's driver.

    The dominant stage runs continuously; each other stage adds one chunk
    worth of fill/drain time.
    """
    if chunks <= 0:
        raise ValueError(f"need at least one chunk, got {chunks}")
    if not stage_times:
        raise ValueError("pipeline needs at least one stage")
    if any(t < 0 for t in stage_times):
        raise ValueError(f"negative stage time in {stage_times}")
    dominant = max(stage_times)
    fill_drain = sum(t / chunks for t in stage_times if t != dominant)
    # When several stages tie, all but one still contribute fill time.
    ties = [t for t in stage_times if t == dominant]
    fill_drain += (len(ties) - 1) * dominant / chunks
    return dominant + fill_drain + chunks * per_chunk_overhead


def iter_chunks(length: int, chunk_length: int) -> Iterator[slice]:
    """Yield slices covering ``range(length)`` in ``chunk_length`` steps.

    The functional layer streams relations through this — the same
    chunking the push pipelines use.
    """
    if chunk_length <= 0:
        raise ValueError(f"chunk length must be positive: {chunk_length}")
    for start in range(0, length, chunk_length):
        yield slice(start, min(start + chunk_length, length))
