"""Physical placement of a hash table on the simulated machine.

A placement maps the table's (modeled) bytes onto memory regions:

* single-region: the whole table in GPU or CPU memory;
* hybrid: GPU-first with CPU spill (Figure 8 / Section 5.3), carrying
  the GPU fraction ``A_GPU`` used by the paper's throughput model
  ``J = A_GPU * G_tput + (1 - A_GPU) * C_tput``.

Placements are computed against *modeled* sizes — the paper-scale table
must not fit in the 16 GiB GPU for the out-of-core experiments even
though the executed table is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.placement import DEFAULT_GPU_RESERVE
from repro.faults.runtime import active_plan
from repro.hardware.memory import MemoryKind
from repro.hardware.topology import Machine
from repro.memory.allocator import Allocator, OutOfMemoryError
from repro.memory.hybrid import HybridAllocation, allocate_hybrid


@dataclass
class HashTablePlacement:
    """Where a hash table's bytes live, as region -> byte fractions."""

    total_bytes: float
    fractions: Dict[str, float]
    hybrid: Optional[HybridAllocation] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError("placement size must be non-negative")
        if self.total_bytes > 0 and not self.fractions:
            raise ValueError(
                f"placement of {self.total_bytes} bytes has no fractions; "
                "an empty placement would silently drop all table traffic"
            )
        bad = {
            name: frac
            for name, frac in self.fractions.items()
            if not math.isfinite(frac) or frac < 0
        }
        if bad:
            raise ValueError(
                f"placement fractions must be finite and non-negative, got {bad}"
            )
        total = sum(self.fractions.values())
        if self.fractions and abs(total - 1.0) > 1e-9:
            raise ValueError(f"placement fractions sum to {total}, expected 1.0")

    @property
    def regions(self) -> List[str]:
        return [name for name, frac in self.fractions.items() if frac > 0]

    @property
    def is_hybrid(self) -> bool:
        return len(self.regions) > 1

    def fraction(self, region_name: str) -> float:
        """Byte fraction of the table in one region (0 if absent)."""
        return self.fractions.get(region_name, 0.0)

    def gpu_fraction(self, machine: Machine) -> float:
        """Fraction of bytes in any GPU memory (A_GPU of Section 5.3)."""
        gpu_regions = {gpu.local_memory.name for gpu in machine.gpus()}
        return sum(f for name, f in self.fractions.items() if name in gpu_regions)

    def split_accesses(self, accesses: float) -> Dict[str, float]:
        """Uniform-key access split across regions (Section 5.3's model)."""
        return {
            name: accesses * frac
            for name, frac in self.fractions.items()
            if frac > 0
        }


def place_hash_table(
    machine: Machine,
    table_bytes: int,
    strategy: str,
    gpu_name: str = "gpu0",
    cpu_memory: Optional[str] = None,
    allocator: Optional[Allocator] = None,
    gpu_reserve: int = DEFAULT_GPU_RESERVE,
    spill_kind: MemoryKind = MemoryKind.PAGEABLE,
) -> HashTablePlacement:
    """Compute a placement for ``table_bytes`` (modeled scale).

    Strategies:
        ``gpu``     — entirely in the GPU's memory; raises if it cannot fit
                      (this is the paper's pre-NVLink scalability cliff).
        ``cpu``     — entirely in CPU memory (build-side scalable join).
        ``hybrid``  — GPU-first with CPU spill (the hybrid hash table).
        a region name — entirely in that region (locality experiments).
    """
    if table_bytes < 0:
        raise ValueError("table size must be non-negative")
    gpu = machine.processor(gpu_name)
    gpu_region = gpu.local_memory

    if strategy == "gpu":
        plan = active_plan()
        if plan is not None:
            # Fault-injection site: the capacity check *is* the placement
            # decision, so an OomAt rule targeting label "ht gpu placement"
            # simulates a full GPU even when the table would fit.
            plan.check_alloc(
                region=gpu_region.name,
                nbytes=table_bytes,
                label="ht gpu placement",
            )
        available = gpu_region.capacity - gpu_region.allocated - gpu_reserve
        if table_bytes > available:
            raise OutOfMemoryError(
                f"hash table of {table_bytes} bytes exceeds GPU memory "
                f"({available} bytes available); use 'cpu' or 'hybrid'"
            )
        return HashTablePlacement(
            total_bytes=table_bytes,
            fractions={gpu_region.name: 1.0},
            label="gpu",
        )

    if strategy == "cpu":
        region = (
            machine.memory(cpu_memory)
            if cpu_memory
            else machine.nearest_cpu_memory(gpu_name)
        )
        return HashTablePlacement(
            total_bytes=table_bytes,
            fractions={region.name: 1.0},
            label="cpu",
        )

    if strategy == "hybrid":
        own_allocator = allocator is None
        allocator = allocator or Allocator(machine)
        allocation = allocate_hybrid(
            allocator,
            gpu_name,
            table_bytes,
            spill_kind=spill_kind,
            gpu_reserve=gpu_reserve,
            label="hybrid-ht",
        )
        fractions = {
            name: nbytes / table_bytes if table_bytes else 0.0
            for name, nbytes in allocation.bytes_per_region().items()
        }
        placement = HashTablePlacement(
            total_bytes=table_bytes,
            fractions=fractions or {gpu_region.name: 1.0},
            hybrid=allocation,
            label="hybrid",
        )
        if own_allocator:
            # The caller only wanted the fractions; release the capacity.
            allocation.free(allocator)
        return placement

    # Fall through: explicit region name (Figure 14's locality sweeps).
    region = machine.memory(strategy)
    return HashTablePlacement(
        total_bytes=table_bytes,
        fractions={region.name: 1.0},
        label=strategy,
    )
