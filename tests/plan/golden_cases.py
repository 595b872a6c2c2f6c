"""Deterministic operator cases shared by the golden recorder and tests.

Each case builds its operator from scratch (fresh Observability, fresh
machine), runs it on a seeded workload, and reduces the result to a
JSON-ready summary: functional integers exactly, phase seconds and
occupancy vectors as floats.  The recorder ran these against the
pre-refactor seed code and committed ``golden_reference.json``; the
equivalence test re-runs them against the plan-compiled operators and
asserts the summaries match.  The two multi-copy broadcast cases
(``coop_gpu_het_three_workers``, ``multigpu_replicated_four``) were
appended later, recorded from the code before the hash-join cost terms
were merged into one build/probe/broadcast lowering.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.join.coop import CoopJoin
from repro.core.join.multigpu import MultiGpuJoin
from repro.core.join.multiway import Dimension, StarJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.core.ops.q6 import TpchQ6
from repro.data.relation import Relation
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_a, workload_b
from repro.workloads.tpch import lineitem_q6

#: executed fraction of the modeled cardinalities (matches tests).
SCALE = 2.0**-14


def _cost(cost) -> Dict[str, Any]:
    return {
        "seconds": cost.seconds,
        "bottleneck": cost.bottleneck,
        "occupancy": {k: v for k, v in sorted(cost.occupancy.items())},
    }


def _nopa(
    machine,
    workload,
    processor: str,
    placement: str = "gpu",
    transfer_method: str = "coherence",
) -> Dict[str, Any]:
    join = NoPartitioningJoin(
        machine,
        hash_table_placement=placement,
        transfer_method=transfer_method,
    )
    result = join.run(workload.r, workload.s, processor=processor)
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "modeled_tuples": result.modeled_tuples,
        "build": _cost(result.build_cost),
        "probe": _cost(result.probe_cost),
        "runtime": result.runtime,
    }


def nopa_gpu_coherence() -> Dict[str, Any]:
    return _nopa(ibm_ac922(), workload_a(scale=SCALE), "gpu0")


def nopa_cpu() -> Dict[str, Any]:
    return _nopa(ibm_ac922(), workload_a(scale=SCALE), "cpu0")


def nopa_hybrid() -> Dict[str, Any]:
    return _nopa(
        ibm_ac922(), workload_b(scale=SCALE), "gpu0", placement="hybrid"
    )


def nopa_push_pinned() -> Dict[str, Any]:
    """Push method: exercises the chunked pipeline-overlap arithmetic."""
    wl = workload_a(scale=SCALE).placed_for("pinned_copy")
    return _nopa(
        ibm_ac922(), wl, "gpu0", placement="gpu", transfer_method="pinned_copy"
    )


def nopa_intel_zero_copy() -> Dict[str, Any]:
    wl = workload_a(scale=SCALE).placed_for("zero_copy")
    return _nopa(
        intel_xeon_v100(), wl, "gpu0", placement="gpu",
        transfer_method="zero_copy",
    )


def _coop(
    strategy: str,
    machine=None,
    workers: Tuple[str, ...] = ("cpu0", "gpu0"),
) -> Dict[str, Any]:
    join = CoopJoin(machine or ibm_ac922(), strategy=strategy)
    wl = workload_a(scale=SCALE)
    result = join.run(wl.r, wl.s, workers=workers)
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "build_seconds": result.build_seconds,
        "probe_seconds": result.probe_seconds,
        "build": _cost(result.build_cost),
        "probe": _cost(result.probe_cost),
        "worker_rates": {k: v for k, v in sorted(result.worker_rates.items())},
        "worker_shares": {
            k: v for k, v in sorted(result.worker_shares.items())
        },
    }


def coop_het() -> Dict[str, Any]:
    return _coop("het")


def coop_gpu_het() -> Dict[str, Any]:
    return _coop("gpu+het")


def coop_gpu_het_three_workers() -> Dict[str, Any]:
    """gpu+het on the 4-GPU mesh: the builder broadcasts two copies."""
    return _coop(
        "gpu+het",
        machine=ibm_ac922(gpus=4, gpu_mesh=True),
        workers=("cpu0", "gpu0", "gpu1"),
    )


def radix_cpu() -> Dict[str, Any]:
    join = RadixJoin(ibm_ac922())
    wl = workload_a(scale=SCALE)
    result = join.run(wl.r, wl.s, processor="cpu0")
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "partition": _cost(result.partition_cost),
        "join": _cost(result.join_cost),
        "runtime": result.runtime,
    }


def _star_inputs():
    rng = np.random.default_rng(1234)
    dims = []
    fact: Dict[str, np.ndarray] = {}
    fact_rows = 4096
    for i, dim_rows in enumerate((512, 256)):
        keys = rng.permutation(dim_rows).astype(np.int64)
        payload = (keys * 3 + 1).astype(np.int64)
        rel = Relation(
            name=f"D{i}",
            key=keys,
            payload=payload,
            modeled_tuples=dim_rows * 64,
        )
        fact_key = f"d{i}_key"
        # ~90% of fact keys hit the dimension; misses draw from a
        # disjoint domain so survival fractions are non-trivial.
        hit = rng.random(fact_rows) < 0.9
        col = rng.integers(0, dim_rows, size=fact_rows)
        col[~hit] += dim_rows
        fact[fact_key] = col.astype(np.int64)
        dims.append(Dimension(relation=rel, fact_key=fact_key))
    measure = rng.integers(0, 1000, size=fact_rows).astype(np.int64)
    return fact, dims, measure, fact_rows * 64


def star_join() -> Dict[str, Any]:
    fact, dims, measure, modeled_fact = _star_inputs()
    join = StarJoin(ibm_ac922())
    result = join.run(
        fact,
        dims,
        measure=measure,
        workers=("cpu0", "gpu0"),
        modeled_fact=modeled_fact,
    )
    return {
        "survivors": result.survivors,
        "aggregate": result.aggregate,
        "build_seconds": result.build_seconds,
        "broadcast_seconds": result.broadcast_seconds,
        "probe_seconds": result.probe_seconds,
        "builder_of": dict(sorted(result.builder_of.items())),
        "modeled_tuples": result.modeled_tuples,
    }


def _multigpu(placement: str, machine=None) -> Dict[str, Any]:
    join = MultiGpuJoin(machine or ibm_ac922(), placement=placement)
    wl = workload_a(scale=SCALE)
    result = join.run(wl.r, wl.s)
    return {
        "matches": result.matches,
        "aggregate": result.aggregate,
        "build_seconds": result.build_seconds,
        "probe_seconds": result.probe_seconds,
        "gpu_rates": {k: v for k, v in sorted(result.gpu_rates.items())},
        "table_bytes_per_gpu": dict(
            sorted(result.table_bytes_per_gpu.items())
        ),
    }


def multigpu_replicated() -> Dict[str, Any]:
    return _multigpu("replicated")


def multigpu_interleaved() -> Dict[str, Any]:
    return _multigpu("interleaved")


def multigpu_replicated_four() -> Dict[str, Any]:
    """Replicated on gpu0..gpu3 of the mesh: three broadcast copies."""
    return _multigpu("replicated", machine=ibm_ac922(gpus=4, gpu_mesh=True))


def _q6(variant: str, processor: str) -> Dict[str, Any]:
    wl = lineitem_q6(scale_factor=1.0, scale=2.0**-9)
    op = TpchQ6(ibm_ac922(), variant=variant)
    result = op.run(wl, processor=processor)
    return {
        "revenue": result.revenue,
        "qualifying_rows": result.qualifying_rows,
        "cost": _cost(result.cost),
        "column_line_fractions": list(result.column_line_fractions),
    }


def q6_branching_gpu() -> Dict[str, Any]:
    return _q6("branching", "gpu0")


def q6_predicated_gpu() -> Dict[str, Any]:
    return _q6("predicated", "gpu0")


def q6_predicated_cpu() -> Dict[str, Any]:
    return _q6("predicated", "cpu0")


#: name -> builder; iteration order is the recording order.
CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "nopa_gpu_coherence": nopa_gpu_coherence,
    "nopa_cpu": nopa_cpu,
    "nopa_hybrid": nopa_hybrid,
    "nopa_push_pinned": nopa_push_pinned,
    "nopa_intel_zero_copy": nopa_intel_zero_copy,
    "coop_het": coop_het,
    "coop_gpu_het": coop_gpu_het,
    "radix_cpu": radix_cpu,
    "star_join": star_join,
    "multigpu_replicated": multigpu_replicated,
    "multigpu_interleaved": multigpu_interleaved,
    "q6_branching_gpu": q6_branching_gpu,
    "q6_predicated_gpu": q6_predicated_gpu,
    "q6_predicated_cpu": q6_predicated_cpu,
    "coop_gpu_het_three_workers": coop_gpu_het_three_workers,
    "multigpu_replicated_four": multigpu_replicated_four,
}


def build_all() -> Dict[str, Dict[str, Any]]:
    """Run every case and return {case name: summary}."""
    return {name: case() for name, case in CASES.items()}


def flatten(summary: Any, prefix: str = "") -> List:
    """(path, value) pairs for leaf-by-leaf comparison with tolerances."""
    if isinstance(summary, dict):
        out: List = []
        for key, value in summary.items():
            out.extend(flatten(value, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(summary, list):
        out = []
        for i, value in enumerate(summary):
            out.extend(flatten(value, f"{prefix}[{i}]"))
        return out
    return [(prefix, summary)]
