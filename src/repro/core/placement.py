"""Hash-table placement and execution-strategy decision tree (Figure 11).

The paper's decision process::

    hash table fits the CPU cache?
      yes -> GPU+Het strategy (build once, copy to all, probe everywhere)
      no  -> large hash table (exceeds GPU memory)?
               yes -> fast CPU? -> Het strategy (shared table in CPU mem)
                      slow CPU? -> GPU with hybrid hash table
               no  -> GPU with in-GPU hash table
                      (probe relation large? keep it streaming anyway)

This module encodes the tree and explains its choice, so the library
can auto-pick a strategy from workload statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.processor import Gpu, Processor
from repro.hardware.topology import Machine
from repro.memory.allocator import OutOfMemoryError
from repro.utils.units import MIB

#: GPU bytes a hash-table placement keeps free (staging buffers and the
#: like) unless its caller passes its own ``gpu_reserve``.
DEFAULT_GPU_RESERVE = 512 * MIB


def require_replica_fits(
    gpu: Processor,
    table_bytes: float,
    what: str,
    gpu_reserve: int = DEFAULT_GPU_RESERVE,
) -> None:
    """Raise :class:`OutOfMemoryError` unless a private copy of a
    ``table_bytes`` table fits ``gpu`` beside the reserve.

    ``what`` names the replicating operator and how to avoid the error;
    it leads the message.
    """
    available = gpu.local_memory.capacity - gpu_reserve
    if table_bytes > available:
        raise OutOfMemoryError(
            f"{what}: {table_bytes:.0f} bytes exceed the {available} bytes "
            f"{gpu.name} holds beside its {gpu_reserve}-byte reserve"
        )


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of the Figure 11 decision tree."""

    strategy: str  # "gpu+het" | "het" | "gpu-hybrid" | "gpu"
    hash_table_placement: str  # "gpu" | "cpu" | "hybrid"
    reason: str

    def __str__(self) -> str:
        return f"{self.strategy} (table: {self.hash_table_placement}) — {self.reason}"


def decide_placement(
    machine: Machine,
    hash_table_bytes: int,
    gpu_name: str = "gpu0",
    fast_cpu: bool = True,
    gpu_reserve: int = DEFAULT_GPU_RESERVE,
) -> PlacementDecision:
    """Walk the Figure 11 tree for one join.

    Args:
        hash_table_bytes: modeled table size.
        fast_cpu: whether the CPU is worth co-processing with (the
            paper's "Fast CPU?" node; POWER9 yes, a weak host no).
    """
    if hash_table_bytes < 0:
        raise ValueError("hash table size must be non-negative")
    gpu = machine.processor(gpu_name)
    if not isinstance(gpu, Gpu):
        raise ValueError(f"{gpu_name} is not a GPU")
    cpus = machine.cpus()
    if not cpus:
        raise ValueError("machine has no CPU")
    llc_capacity = min(cpu.llc.capacity for cpu in cpus)
    gpu_capacity = gpu.local_memory.capacity - gpu_reserve

    if hash_table_bytes <= llc_capacity and machine.coherent_gpu_access:
        return PlacementDecision(
            strategy="gpu+het",
            hash_table_placement="gpu",
            reason=(
                "table fits the CPU cache: build once, copy to every "
                "processor, probe cooperatively (small dimension table)"
            ),
        )
    if hash_table_bytes > gpu_capacity:
        if fast_cpu and machine.coherent_gpu_access:
            return PlacementDecision(
                strategy="het",
                hash_table_placement="cpu",
                reason=(
                    "table exceeds GPU memory and the CPU is fast: share "
                    "one table in CPU memory and process cooperatively"
                ),
            )
        return PlacementDecision(
            strategy="gpu",
            hash_table_placement="hybrid",
            reason=(
                "table exceeds GPU memory: hybrid hash table spills the "
                "overflow to CPU memory with graceful degradation"
            ),
        )
    return PlacementDecision(
        strategy="gpu",
        hash_table_placement="gpu",
        reason="table fits GPU memory: keep it local and stream the probe side",
    )
