"""The lowering compiler: logical plan + physical choices -> ``Plan``.

This module owns the phase-assembly arithmetic that used to live
inside the operator classes (``NoPartitioningJoin``, ``CoopJoin``,
``StarJoin``, ``TpchQ6``, ``MultiGpuJoin``).  The operators are now
facades: they build a logical plan, gather runtime statistics from
their functional execution, and call :func:`compile_query` (the
multi-GPU facade, which is outside the optimizer's search space, calls
:func:`multigpu_plan` directly); the optimizer calls the same compiler
with *estimated* statistics to price candidates it never executes.
Either way, every read of relation/column bytes goes through the
shared :func:`repro.plan.ingest` glue, and every plan is priced by the
one :class:`repro.plan.PlanExecutor`.

Every join lowering prices its hash table with the same three terms,
each stated once: :func:`insert_streams` (one insert per build tuple),
:func:`table_streams` (accesses split over the regions holding the
table), and :func:`broadcast` (the synchronous copy of a finished
table).  The stream construction order and float expressions are those
of the pre-refactor operator methods, which is what keeps the
golden-equivalence harness passing bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.access import (
    AccessProfile,
    Stream,
    atomic_stream,
    random_stream,
    seq_stream,
)
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.hashtable.placement import HashTablePlacement
from repro.core.placement import require_replica_fits
from repro.data.relation import Relation
from repro.hardware.cache import HotSetProfile
from repro.hardware.memory import MemoryKind
from repro.hardware.processor import Gpu, Processor
from repro.hardware.topology import Machine
from repro.logical.algebra import (
    Aggregate,
    Filter,
    HashJoin,
    LogicalError,
    LogicalNode,
    Predicate,
    Project,
    Query,
    Scan,
)
from repro.logical.stats import JoinStats, ScanStats, StarStats, TableProfile
from repro.plan import (
    MorselWorker,
    PhaseSpec,
    Plan,
    Surcharge,
    WorkerLoad,
    concurrent_phase,
    fixed_phase,
    ingest,
    morsel_phase,
    priced_phase,
)

#: calibrated accounting: a GPU insert is one 16-byte CAS; a CPU
#: insert is a compare-exchange plus a store (two accesses).
GPU_BUILD_ACCESSES = 1.0
CPU_BUILD_ACCESSES = 2.0

#: execution strategies the physical layer understands.
STRATEGIES = ("single", "het", "gpu+het")


# ----------------------------------------------------------------------
# Physical configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhysicalConfig:
    """One point in the physical search space.

    The optimizer enumerates these; the facades construct the single
    point matching their constructor knobs.  Fields that do not apply
    to a shape (e.g. ``variant`` for joins) are ignored by lowering.
    """

    #: "single" (one processor), "het" (shared table, cooperative
    #: morsel probe), or "gpu+het" (build once, broadcast, probe
    #: everywhere) — the Section 6 strategies.
    strategy: str = "single"
    #: executing processor for the single strategy.
    processor: str = "gpu0"
    #: cooperating processors for het / gpu+het / star shapes.
    workers: Tuple[str, ...] = ()
    #: Table-1 transfer method for GPU reads of CPU-memory inputs.
    transfer_method: str = "coherence"
    #: resolved hash-table placement (single strategy only).
    placement: Optional[HashTablePlacement] = None
    #: hash-table layout: "soa" | "aos" (Figure 20).
    layout: str = "soa"
    #: probe output: "aggregate" | "materialize" (Section 5.1).
    output: str = "aggregate"
    #: scan kernel variant: "predicated" | "branching" (Section 7.2.4).
    variant: str = "predicated"
    #: dimension probe order for star shapes: indices into the query's
    #: as-written dimension list; empty keeps the written order.  The
    #: matching ``StarStats.survival_per_dim`` must be given in this
    #: *execution* order.
    join_order: Tuple[int, ...] = ()
    #: modeled morsel size of the simulated Het dispatcher.
    morsel_tuples: int = 1 << 22
    #: morsels per GPU batch (None auto-tunes).
    gpu_batch_morsels: Optional[int] = None
    #: host-execution tier: functional backend + worker/shard counts.
    #: Results and modeled costs are backend-invariant (the bit-identical
    #: equivalence suite pins that), so these do not affect pricing —
    #: the optimizer picks them with a deterministic host heuristic.
    backend: str = "serial"
    exec_workers: int = 0
    shards: int = 1
    hash_scheme: str = "perfect"
    #: base label for plan/phase names ("nopa", "q6", ...).
    label: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise LogicalError(
                f"unknown strategy {self.strategy!r}; valid: "
                f"{', '.join(STRATEGIES)}"
            )
        if self.layout not in ("soa", "aos"):
            raise LogicalError(
                f"layout must be 'soa' or 'aos', got {self.layout!r}"
            )
        if self.output not in ("aggregate", "materialize"):
            raise LogicalError(
                f"output must be 'aggregate' or 'materialize', "
                f"got {self.output!r}"
            )
        if self.strategy != "single" and not self.workers:
            raise LogicalError(
                f"strategy {self.strategy!r} needs a workers tuple"
            )

    def describe(self) -> str:
        """Compact one-line rendering (used by explain and manifests)."""
        if self.strategy == "single":
            where = self.processor
        else:
            where = "+".join(self.workers)
        parts = [f"{self.strategy}@{where}", self.transfer_method]
        if self.placement is not None:
            parts.append(f"table={self.placement.label}")
        if self.join_order:
            parts.append("order=" + ">".join(str(i) for i in self.join_order))
        parts.append(f"backend={self.backend}x{max(1, self.exec_workers)}")
        if self.shards > 1:
            parts.append(f"shards={self.shards}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Shape classification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScanShape:
    """Aggregate over (projected, filtered) single-table scan — Q6."""

    scan: Scan
    predicates: Tuple[Predicate, ...]
    aggregate: Aggregate


@dataclass(frozen=True)
class JoinShape:
    """Aggregate over one hash join of two base tables — NOPA/Coop."""

    join: HashJoin
    build: Scan
    probe: Scan
    aggregate: Aggregate


@dataclass(frozen=True)
class StarShape:
    """Aggregate over a chain of joins sharing one fact table."""

    fact: Scan
    #: (dimension scan, fact key column, selectivity hint) in probe
    #: order — innermost join first.
    dimensions: Tuple[Tuple[Scan, str, Optional[float]], ...]
    aggregate: Aggregate


def classify(node: LogicalNode):
    """Map a logical tree onto one of the lowerable shapes."""
    if isinstance(node, Query):
        node = node.node
    if not isinstance(node, Aggregate):
        raise LogicalError(
            "lowerable plans end in an Aggregate (the paper's operators "
            f"all reduce); got {type(node).__name__}"
        )
    aggregate = node
    core = aggregate.child
    predicates: List[Predicate] = []
    while isinstance(core, (Filter, Project)):
        if isinstance(core, Filter):
            predicates.append(core.predicate)
        core = core.child
    predicates.reverse()  # application order: innermost filter first
    if isinstance(core, Scan):
        return ScanShape(core, tuple(predicates), aggregate)
    if not isinstance(core, HashJoin):
        raise LogicalError(
            f"cannot lower a {type(core).__name__} pipeline; supported "
            "shapes: scan/filter/aggregate, single hash join, star joins"
        )
    if predicates:
        raise LogicalError(
            "filters above a join are not lowerable yet; push them into "
            "selectivity hints"
        )
    # Walk the probe chain: HashJoin(build=dim, probe=HashJoin(...)).
    dimensions: List[Tuple[Scan, str, Optional[float]]] = []
    probe: LogicalNode = core
    while isinstance(probe, HashJoin):
        if not isinstance(probe.build, Scan):
            raise LogicalError(
                "join build sides must be base-table scans "
                f"(got {type(probe.build).__name__})"
            )
        dimensions.append((probe.build, probe.probe_key, probe.selectivity))
        probe = probe.probe
    if not isinstance(probe, Scan):
        raise LogicalError(
            f"join probe chain must end in a scan, got {type(probe).__name__}"
        )
    dimensions.reverse()  # innermost join probes the fact first
    if len(dimensions) == 1:
        return JoinShape(core, dimensions[0][0], probe, aggregate)
    return StarShape(probe, tuple(dimensions), aggregate)


# ----------------------------------------------------------------------
# Hash-join cost terms (shared by every join lowering)
# ----------------------------------------------------------------------
def is_gpu(machine: Machine, worker: str) -> bool:
    return isinstance(machine.processor(worker), Gpu)


def join_per_tuple(
    cost_model: CostModel, processor: str
) -> Tuple[float, float]:
    """(hash-table accesses per insert, join work per tuple) of a processor."""
    if is_gpu(cost_model.machine, processor):
        kind, per_insert = "gpu", GPU_BUILD_ACCESSES
    else:
        kind, per_insert = "cpu", CPU_BUILD_ACCESSES
    return per_insert, cost_model.calibration.join_work_per_tuple[kind]


def _launch_overhead(proc: Processor) -> float:
    return proc.kernel_launch_latency if isinstance(proc, Gpu) else 0.0


def _local_table(
    machine: Machine, worker: str, table_bytes: float
) -> HashTablePlacement:
    """A whole table (or a private copy) in the worker's local memory."""
    region = machine.processor(worker).local_memory.name
    return HashTablePlacement(total_bytes=table_bytes, fractions={region: 1.0})


def _ingest_relation(
    cost_model: CostModel,
    transfer_method: str,
    processor: str,
    relation: Relation,
    nbytes: float,
    label: str,
):
    """Shared ingest glue: streams + chunked overlap for one input."""
    return ingest(
        cost_model,
        transfer_method,
        processor,
        relation.location,
        nbytes,
        label,
        kind=relation.kind,
    )


def table_streams(
    processor: str,
    placement: HashTablePlacement,
    accesses: float,
    access_bytes: float,
    atomic: bool,
    hot_set: Optional[HotSetProfile],
    label: str,
    contended: bool = False,
) -> List[Stream]:
    """Hash-table traffic split across the placement's regions.

    One stream per region holding part of the table, zero accesses
    included.  ``contended`` marks inserts several processors make into
    one shared table (the Het build).
    """
    streams: List[Stream] = []
    for region, share in placement.split_accesses(accesses).items():
        working_set = placement.total_bytes * placement.fraction(region)
        if atomic:
            streams.append(
                atomic_stream(
                    processor,
                    region,
                    share,
                    access_bytes,
                    working_set_bytes=working_set,
                    contended=contended,
                    label=label,
                )
            )
        else:
            streams.append(
                random_stream(
                    processor,
                    region,
                    share,
                    access_bytes,
                    working_set_bytes=working_set,
                    hot_set=hot_set,
                    label=label,
                )
            )
    return streams


def insert_streams(
    cost_model: CostModel,
    builder: str,
    tuples: float,
    placement: HashTablePlacement,
    entry_bytes: float,
    insert_factor: float = 1.0,
    contended: bool = False,
) -> Tuple[List[Stream], float]:
    """The build term: (insert streams, compute tuples) for ``tuples``
    inserts by ``builder`` into ``placement``."""
    per_insert, work = join_per_tuple(cost_model, builder)
    streams = table_streams(
        builder,
        placement,
        tuples * (per_insert * insert_factor),
        entry_bytes,
        atomic=True,
        hot_set=None,
        label="ht insert",
        contended=contended,
    )
    return streams, tuples * work


def broadcast(
    cost_model: CostModel, builder: str, copies: int, table_bytes: float
) -> Tuple[float, str]:
    """(seconds, resource) of copying a finished table ``copies`` times.

    A GPU builder copies over its link, a CPU builder through its local
    memory (Figure 9b, step 2).
    """
    machine = cost_model.machine
    if is_gpu(machine, builder):
        link = machine.gpu_link(builder)
        bandwidth, resource = link.spec.seq_bw, f"link:{link.name}"
    else:
        memory = machine.processor(builder).local_memory
        bandwidth, resource = memory.spec.seq_bw, f"mem:{memory.name}"
    seconds = copies * table_bytes / (
        bandwidth * cost_model.calibration.ht_copy_bandwidth_factor
    )
    return seconds, resource


def _broadcast_surcharges(
    cost_model: CostModel, builder: str, copies: int, table_bytes: float
) -> Tuple[Surcharge, ...]:
    """The synchronous table copy as a build-phase surcharge."""
    if not copies:
        return ()
    seconds, resource = broadcast(cost_model, builder, copies, table_bytes)
    return (Surcharge(seconds, resource, "ht broadcast"),)


def _probe_profile(
    cost_model: CostModel,
    worker: str,
    s: Relation,
    read_bytes: float,
    table: HashTablePlacement,
    accesses_per_tuple: float,
    key_bytes: float,
    hot_set: Optional[HotSetProfile],
    processor: Optional[str] = None,
) -> AccessProfile:
    """One worker's probe of S against the table it reads.

    ``processor`` is the profile's compute owner; when unset the cost
    model charges compute to the streams' processor, the same worker.
    """
    streams = [seq_stream(worker, s.location, read_bytes, "read S")]
    streams += table_streams(
        worker,
        table,
        s.modeled_tuples * accesses_per_tuple,
        key_bytes,
        atomic=False,
        hot_set=hot_set,
        label="ht probe",
    )
    return AccessProfile(
        streams=streams,
        compute_tuples=s.modeled_tuples * join_per_tuple(cost_model, worker)[1],
        label=f"probe[{worker}]",
        processor=processor,
    )


# ----------------------------------------------------------------------
# Single-processor join (NOPA) lowering
# ----------------------------------------------------------------------
def join_build_phase(
    cost_model: CostModel,
    transfer_method: str,
    r: Relation,
    processor: str,
    table: TableProfile,
    placement: HashTablePlacement,
) -> PhaseSpec:
    """The build phase at modeled scale, as a plan node."""
    proc = cost_model.machine.processor(processor)
    spec = _ingest_relation(
        cost_model, transfer_method, processor, r, r.modeled_bytes, "read R"
    )
    inserts, compute = insert_streams(
        cost_model,
        processor,
        r.modeled_tuples,
        placement,
        table.entry_bytes,
        insert_factor=table.insert_factor,
    )
    profile = AccessProfile(
        streams=list(spec.streams) + inserts,
        fixed_overhead=_launch_overhead(proc),
        compute_tuples=compute,
        label="build",
        processor=processor,
    )
    return priced_phase(
        "build",
        profile,
        chunked=spec.chunked,
        claims=(processor,),
        span_worker=processor,
        span_units=float(r.modeled_tuples),
    )


def join_probe_phase(
    cost_model: CostModel,
    transfer_method: str,
    s: Relation,
    processor: str,
    table: TableProfile,
    placement: HashTablePlacement,
    lines_loaded: float,
    hot_set: Optional[HotSetProfile],
    layout: str = "soa",
    output: str = "aggregate",
    matches: int = 0,
    model_factor: Optional[float] = None,
) -> PhaseSpec:
    """The probe phase at modeled scale, as a plan node."""
    proc = cost_model.machine.processor(processor)
    # The probe always streams S's key column; the payload column is
    # loaded at line granularity only where matches occur.
    key_bytes = s.modeled_tuples * s.key_bytes
    value_bytes = s.modeled_tuples * s.payload_bytes * lines_loaded
    spec = _ingest_relation(
        cost_model,
        transfer_method,
        processor,
        s,
        key_bytes + value_bytes,
        "read S",
    )
    streams = list(spec.streams)
    if model_factor is None:
        model_factor = s.model_factor
    key_lookups = table.lookup_probes * model_factor
    value_reads = table.value_reads * model_factor
    if layout == "aos":
        # Interleaved entries: the value rides in the same access as
        # the key, so matches add no extra table traffic — but every
        # probe moves the full entry.
        accesses = key_lookups
        access_bytes = float(table.entry_bytes)
    else:
        accesses = key_lookups + value_reads
        access_bytes = float(table.key_itemsize)
    streams += table_streams(
        processor,
        placement,
        accesses,
        access_bytes,
        atomic=False,
        hot_set=hot_set,
        label="ht probe",
    )
    if output == "materialize":
        # Result tuples (<key, s payload, r payload>) are written
        # sequentially to the processor's local memory.
        result_bytes = value_reads * (
            s.key_bytes + s.payload_bytes + table.value_itemsize
        )
        streams.append(
            seq_stream(
                processor,
                proc.local_memory.name,
                result_bytes,
                label="materialize result",
            )
        )
    profile = AccessProfile(
        streams=streams,
        fixed_overhead=_launch_overhead(proc),
        compute_tuples=s.modeled_tuples * join_per_tuple(cost_model, processor)[1],
        label="probe",
        processor=processor,
    )
    return priced_phase(
        "probe",
        profile,
        deps=("build",),
        chunked=spec.chunked,
        claims=(processor,),
        span_worker=processor,
        span_units=float(s.modeled_tuples),
        annotations={"matches": matches},
    )


def join_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    r: Relation,
    s: Relation,
    stats: JoinStats,
    label: str = "nopa",
) -> Plan:
    """Compile the two-phase NOPA DAG (build -> probe)."""
    if config.placement is None:
        raise LogicalError(
            "single-strategy join lowering needs a resolved placement"
        )
    return Plan(
        phases=[
            join_build_phase(
                cost_model,
                config.transfer_method,
                r,
                config.processor,
                stats.table,
                config.placement,
            ),
            join_probe_phase(
                cost_model,
                config.transfer_method,
                s,
                config.processor,
                stats.table,
                config.placement,
                stats.lines_loaded,
                stats.hot_set,
                layout=config.layout,
                output=config.output,
                matches=stats.matches,
                model_factor=stats.model_factor,
            ),
        ],
        label=label,
    )


# ----------------------------------------------------------------------
# Cooperative (Het / GPU+Het) join lowering
# ----------------------------------------------------------------------
def _shared_table_region(machine: Machine, workers: Tuple[str, ...]) -> str:
    """Het: the shared table lives in the CPU memory nearest the GPU.

    "We avoid our hybrid hash table optimization and store the hash
    table in CPU memory ... we avoid slowing down CPU processing
    through remote GPU memory accesses" (Section 6.2).
    """
    gpus = [w for w in workers if is_gpu(machine, w)]
    anchor = gpus[0] if gpus else workers[0]
    return machine.nearest_cpu_memory(anchor).name


def _coop_build_profile(
    cost_model: CostModel,
    worker: str,
    r: Relation,
    table: HashTablePlacement,
    entry_bytes: float,
    contended: bool,
) -> AccessProfile:
    inserts, compute = insert_streams(
        cost_model,
        worker,
        r.modeled_tuples,
        table,
        entry_bytes,
        contended=contended,
    )
    return AccessProfile(
        streams=[seq_stream(worker, r.location, r.modeled_bytes, "read R")]
        + inserts,
        compute_tuples=compute,
        label=f"build[{worker}]",
    )


def coop_build_phase(
    cost_model: CostModel,
    strategy: str,
    r: Relation,
    workers: Tuple[str, ...],
    table_bytes: float,
    entry_bytes: float,
) -> Tuple[PhaseSpec, Dict[str, HashTablePlacement]]:
    """Compile the build phase; returns (spec, worker -> probed table)."""
    machine = cost_model.machine
    span_attrs = {"strategy": strategy}
    if strategy == "het":
        shared = HashTablePlacement(
            total_bytes=table_bytes,
            fractions={_shared_table_region(machine, workers): 1.0},
        )
        contended = len(workers) > 1
        loads = {
            worker: WorkerLoad(
                _coop_build_profile(
                    cost_model, worker, r, shared, entry_bytes, contended
                ),
                float(r.modeled_tuples),
            )
            for worker in workers
        }
        spec = concurrent_phase(
            "build",
            loads,
            shared_units=float(r.modeled_tuples),
            claims=tuple(workers),
            span_worker=",".join(workers),
            span_units=float(r.modeled_tuples),
            span_attrs=span_attrs,
        )
        return spec, {worker: shared for worker in workers}

    # gpu+het: the GPU builds locally, then broadcasts the table.
    # Every worker holds a private copy, so the table must fit the
    # smallest GPU memory beside the reserve (this is the "small
    # build-side relations" special case of Section 6.2).
    gpus = [w for w in workers if is_gpu(machine, w)]
    if not gpus:
        raise LogicalError("gpu+het requires at least one GPU worker")
    for worker in gpus:
        require_replica_fits(
            machine.processor(worker),
            table_bytes,
            "gpu+het replicates the hash table to every processor "
            "(use the Het strategy for large build sides)",
        )
    builder = gpus[0]
    tables = {w: _local_table(machine, w, table_bytes) for w in workers}
    profile = _coop_build_profile(
        cost_model, builder, r, tables[builder], entry_bytes, contended=False
    )
    # One copy of the finished table per other local memory.
    copies = len(
        {machine.processor(w).local_memory.name for w in workers if w != builder}
    )
    spec = priced_phase(
        "build",
        profile,
        surcharges=_broadcast_surcharges(
            cost_model, builder, copies, table_bytes
        ),
        claims=tuple(workers),
        span_worker=",".join(workers),
        span_units=float(r.modeled_tuples),
        span_attrs=span_attrs,
    )
    return spec, tables


def coop_probe_phase(
    cost_model: CostModel,
    strategy: str,
    s: Relation,
    workers: Tuple[str, ...],
    tables: Dict[str, HashTablePlacement],
    key_bytes: float,
    accesses_per_tuple: float,
    lines_loaded: float,
    hot_set: Optional[HotSetProfile],
    morsel_tuples: int,
    gpu_batch_morsels: Optional[int],
    matches: int = 0,
) -> PhaseSpec:
    """Compile the morsel-dispatched cooperative probe phase."""
    machine = cost_model.machine
    calibration = cost_model.calibration
    read_bytes = s.modeled_tuples * (
        s.key_bytes + s.payload_bytes * lines_loaded
    )
    loads = {}
    morsel_workers = {}
    for worker in workers:
        profile = _probe_profile(
            cost_model,
            worker,
            s,
            read_bytes,
            tables[worker],
            accesses_per_tuple,
            key_bytes,
            hot_set,
        )
        loads[worker] = WorkerLoad(profile, float(s.modeled_tuples))
        if is_gpu(machine, worker):
            morsel_workers[worker] = MorselWorker(
                dispatch_latency=calibration.gpu_batch_dispatch_latency,
                batch_morsels=gpu_batch_morsels,
            )
        else:
            morsel_workers[worker] = MorselWorker(
                dispatch_latency=calibration.cpu_morsel_dispatch_latency,
                batch_morsels=1,
            )
    return morsel_phase(
        "probe",
        loads,
        shared_units=float(s.modeled_tuples),
        morsel_tuples=morsel_tuples,
        morsel_workers=morsel_workers,
        deps=("build",),
        claims=tuple(workers),
        span_worker=",".join(workers),
        span_units=float(s.modeled_tuples),
        span_attrs={"strategy": strategy},
        annotations={"matches": matches},
    )


def coop_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    r: Relation,
    s: Relation,
    stats: JoinStats,
) -> Plan:
    """Compile the cooperative build -> morsel-probe DAG."""
    build_spec, tables = coop_build_phase(
        cost_model,
        config.strategy,
        r,
        config.workers,
        stats.table.modeled_bytes,
        stats.table.entry_bytes,
    )
    probe_spec = coop_probe_phase(
        cost_model,
        config.strategy,
        s,
        config.workers,
        tables,
        stats.table.key_itemsize,
        stats.table.accesses_per_lookup,
        stats.lines_loaded,
        stats.hot_set,
        config.morsel_tuples,
        config.gpu_batch_morsels,
        matches=stats.matches,
    )
    return Plan([build_spec, probe_spec], label=f"coop[{config.strategy}]")


# ----------------------------------------------------------------------
# Multi-GPU join lowering (Section 6.3)
# ----------------------------------------------------------------------
def multigpu_plan(
    cost_model: CostModel,
    placement: str,
    workers: Tuple[str, ...],
    r: Relation,
    s: Relation,
    table: TableProfile,
    tables: Dict[str, HashTablePlacement],
) -> Plan:
    """Compile the multi-GPU build -> pool-probe DAG.

    ``placement`` is ``replicated`` (the first GPU builds and
    broadcasts; ``tables`` maps every GPU to its local copy) or
    ``interleaved`` (every GPU builds into and probes the one table
    whose pages are dealt over all GPU memories).
    """
    if placement == "replicated":
        builder = workers[0]
        inserts, compute = insert_streams(
            cost_model,
            builder,
            r.modeled_tuples,
            tables[builder],
            table.entry_bytes,
        )
        profile = AccessProfile(
            streams=[seq_stream(builder, r.location, r.modeled_bytes, "read R")]
            + inserts,
            compute_tuples=compute,
            label="build[replicated]",
            processor=builder,
        )
        # One copy per other GPU, charged to the builder's link.
        build_spec = priced_phase(
            "build",
            profile,
            surcharges=_broadcast_surcharges(
                cost_model, builder, len(workers) - 1, table.modeled_bytes
            ),
            claims=workers,
            span_worker=",".join(workers),
            span_units=float(r.modeled_tuples),
        )
    else:
        # All GPUs build concurrently; each GPU's inserts scatter over
        # every GPU's memory by the byte fractions.
        loads: Dict[str, WorkerLoad] = {}
        share = 1.0 / len(workers)
        for gpu in workers:
            inserts, compute = insert_streams(
                cost_model,
                gpu,
                r.modeled_tuples * share,
                tables[gpu],
                table.entry_bytes,
            )
            profile = AccessProfile(
                streams=[
                    seq_stream(gpu, r.location, r.modeled_bytes * share, "read R")
                ]
                + inserts,
                compute_tuples=compute,
                label=f"build[{gpu}]",
                processor=gpu,
            )
            loads[gpu] = WorkerLoad(profile, float(r.modeled_tuples) * share)
        build_spec = concurrent_phase(
            "build",
            loads,
            shared_units=float(r.modeled_tuples),
            claims=workers,
            span_units=float(r.modeled_tuples),
        )
    probe_loads = {
        gpu: WorkerLoad(
            _probe_profile(
                cost_model,
                gpu,
                s,
                s.modeled_bytes,
                tables[gpu],
                table.accesses_per_lookup,
                table.key_itemsize,
                hot_set=None,
                processor=gpu,
            ),
            float(s.modeled_tuples),
        )
        for gpu in workers
    }
    probe_spec = concurrent_phase(
        "probe",
        probe_loads,
        shared_units=float(s.modeled_tuples),
        deps=("build",),
        claims=workers,
        span_units=float(s.modeled_tuples),
    )
    return Plan([build_spec, probe_spec], label=f"multigpu[{placement}]")


# ----------------------------------------------------------------------
# Star (multi-way) join lowering
# ----------------------------------------------------------------------
def star_build_phase(
    cost_model: CostModel,
    dimensions: Sequence[Tuple[Relation, str]],
    workers: Sequence[str],
) -> Tuple[PhaseSpec, Dict[str, str]]:
    """Parallel builds (round-robin over the workers).

    Each dimension's build is one load in a barrier-mode concurrent
    phase (the phase ends when the slowest builder finishes).
    ``dimensions`` is ``(relation, fact_key)`` pairs in probe order;
    returns (spec, fact_key -> builder).
    """
    machine = cost_model.machine
    builder_of: Dict[str, str] = {}
    loads: Dict[str, WorkerLoad] = {}
    for i, (rel, fact_key) in enumerate(dimensions):
        builder = workers[i % len(workers)]
        builder_of[fact_key] = builder
        table = _local_table(
            machine, builder, rel.modeled_tuples * rel.tuple_bytes
        )
        inserts, compute = insert_streams(
            cost_model, builder, rel.modeled_tuples, table, rel.tuple_bytes
        )
        profile = AccessProfile(
            streams=[
                seq_stream(builder, rel.location, rel.modeled_bytes, "read dim")
            ]
            + inserts,
            compute_tuples=compute,
            label=f"build[{fact_key}]",
            processor=builder,
        )
        key = f"{builder}#{fact_key}"
        loads[key] = WorkerLoad(profile, float(rel.modeled_tuples))
    spec = concurrent_phase(
        "build",
        loads,
        claims=tuple(workers),
        span_worker=",".join(workers),
    )
    return spec, builder_of


def star_broadcast_phase(
    cost_model: CostModel,
    dimensions: Sequence[Tuple[Relation, str]],
    workers: Sequence[str],
    builder_of: Dict[str, str],
) -> PhaseSpec:
    """Broadcast every finished table to every *other* worker (a fixed,
    sequential copy cost per table)."""
    total = 0.0
    occupancy: Dict[str, float] = {}
    copies = len(workers) - 1
    if copies:
        for rel, fact_key in dimensions:
            seconds, resource = broadcast(
                cost_model,
                builder_of[fact_key],
                copies,
                rel.modeled_tuples * rel.tuple_bytes,
            )
            total += seconds
            occupancy[resource] = occupancy.get(resource, 0.0) + seconds
    cost = PhaseCost(
        seconds=total,
        bottleneck=(
            max(occupancy, key=lambda res: occupancy[res])
            if occupancy
            else "(none)"
        ),
        occupancy=occupancy,
        label="broadcast",
    )
    return fixed_phase(
        "broadcast",
        cost,
        deps=("build",),
        claims=tuple(workers),
        span_worker=",".join(workers),
    )


def star_probe_phase(
    cost_model: CostModel,
    fact_column_bytes: float,
    fact_location: str,
    modeled_fact: int,
    dimensions: Sequence[Tuple[Relation, str]],
    workers: Sequence[str],
    survival_per_dim: Sequence[float],
) -> PhaseSpec:
    """Compile the all-workers conjunctive probe (pool mode)."""
    machine = cost_model.machine
    loads: Dict[str, WorkerLoad] = {}
    for worker in workers:
        streams = [
            seq_stream(
                worker,
                fact_location,
                modeled_fact * fact_column_bytes,
                "read fact",
            )
        ]
        alive = 1.0
        for (rel, _fact_key), survival in zip(dimensions, survival_per_dim):
            table = _local_table(
                machine, worker, rel.modeled_tuples * rel.tuple_bytes
            )
            # Short-circuit: only tuples still alive probe the next
            # dimension; each probe is key + (on match) value.
            streams += table_streams(
                worker,
                table,
                modeled_fact * alive * (1.0 + survival),
                rel.key_bytes,
                atomic=False,
                hot_set=None,
                label="dim probe",
            )
            alive *= survival
        work = join_per_tuple(cost_model, worker)[1]
        profile = AccessProfile(
            streams=streams,
            compute_tuples=modeled_fact * work * len(dimensions),
            label=f"probe[{worker}]",
            processor=worker,
        )
        loads[worker] = WorkerLoad(profile, float(modeled_fact))
    return concurrent_phase(
        "probe",
        loads,
        shared_units=float(modeled_fact),
        deps=("broadcast",),
        claims=tuple(workers),
        span_worker=",".join(workers),
        span_units=float(modeled_fact),
    )


def star_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    fact_column_bytes: float,
    fact_location: str,
    modeled_fact: int,
    dimensions: Sequence[Tuple[Relation, str]],
    stats: StarStats,
    label: str = "star",
) -> Plan:
    """Compile the star build -> broadcast -> probe DAG."""
    build_spec, builder_of = star_build_phase(
        cost_model, dimensions, config.workers
    )
    broadcast_spec = star_broadcast_phase(
        cost_model, dimensions, config.workers, builder_of
    )
    probe_spec = star_probe_phase(
        cost_model,
        fact_column_bytes,
        fact_location,
        modeled_fact,
        dimensions,
        config.workers,
        stats.survival_per_dim,
    )
    return Plan([build_spec, broadcast_spec, probe_spec], label=label)


# ----------------------------------------------------------------------
# Scan (Q6 / selection) lowering
# ----------------------------------------------------------------------
def scan_phase(
    cost_model: CostModel,
    transfer_method: str,
    variant: str,
    processor: str,
    modeled_rows: int,
    col_bytes: Sequence[int],
    fractions: Sequence[float],
    location: str,
    kind: Optional[MemoryKind],
    read_label: str,
    profile_label: str,
) -> PhaseSpec:
    """Compile a fused scan/filter/aggregate into one priced phase."""
    proc = cost_model.machine.processor(processor)
    is_gpu = isinstance(proc, Gpu)
    total_bytes = modeled_rows * sum(
        width * frac for width, frac in zip(col_bytes, fractions)
    )
    spec = ingest(
        cost_model,
        transfer_method,
        processor,
        location,
        total_bytes,
        read_label,
        kind=kind,
    )
    work = cost_model.calibration.scan_work_per_tuple[
        "gpu" if is_gpu else "cpu"
    ]
    if variant == "branching" and not is_gpu:
        # Branchy scalar code cannot use SIMD predication; the CPU
        # pays more per-row work but the same skipping benefit.
        work *= 2.0
    profile = AccessProfile(
        streams=spec.streams,
        compute_tuples=modeled_rows * work,
        fixed_overhead=_launch_overhead(proc),
        label=profile_label,
        processor=processor,
    )
    return priced_phase(
        "scan",
        profile,
        chunked=spec.chunked,
        claims=(processor,),
        span_worker=processor,
        span_units=float(modeled_rows),
        span_attrs={"variant": variant},
    )


def scan_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    table: Scan,
    stats: ScanStats,
    label: str,
) -> Plan:
    """One-phase plan: the fused scan/filter/aggregate kernel."""
    return Plan(
        [
            scan_phase(
                cost_model,
                config.transfer_method,
                config.variant,
                config.processor,
                table.modeled_rows,
                table.column_bytes(),
                stats.column_line_fractions,
                table.location,
                table.kind,
                read_label=f"scan {table.name}",
                profile_label=f"{label}-{config.variant}",
            )
        ],
        label=f"{label}[{config.variant}]",
    )


# ----------------------------------------------------------------------
# Compiler entry point
# ----------------------------------------------------------------------
def compile_query(
    query,
    config: PhysicalConfig,
    cost_model: CostModel,
    stats,
) -> Plan:
    """Lower a logical plan to a priced :class:`repro.plan.Plan` DAG.

    ``stats`` must match the shape: :class:`ScanStats` for
    scan/filter/aggregate pipelines, :class:`JoinStats` for one hash
    join, :class:`StarStats` for multi-join star shapes.
    """
    shape = classify(query)
    if isinstance(shape, ScanShape):
        if not isinstance(stats, ScanStats):
            raise LogicalError(
                f"scan shapes need ScanStats, got {type(stats).__name__}"
            )
        label = config.label or shape.scan.name
        return scan_plan(cost_model, config, shape.scan, stats, label)
    if isinstance(shape, JoinShape):
        if isinstance(stats, StarStats):
            # A one-dimension star query: price the parallel-build /
            # broadcast / pool-probe pipeline (Section 6.2's multi-way
            # extension) instead of the Section-6 morsel-dispatch probe.
            if config.strategy == "single":
                raise LogicalError(
                    "star statistics lower to the cooperative "
                    "build/broadcast/probe pipeline; use strategy "
                    "'gpu+het' with a workers tuple"
                )
            if shape.build.relation is None:
                raise LogicalError(
                    "star lowering needs Relation-backed dimension scans"
                )
            return star_plan(
                cost_model,
                config,
                float(sum(shape.probe.column_bytes())),
                shape.probe.location,
                shape.probe.modeled_rows,
                [(shape.build.relation, shape.join.probe_key)],
                stats,
                label=config.label or "star",
            )
        if not isinstance(stats, JoinStats):
            raise LogicalError(
                f"join shapes need JoinStats, got {type(stats).__name__}"
            )
        r = shape.build.relation
        s = shape.probe.relation
        if r is None or s is None:
            raise LogicalError(
                "join lowering needs Relation-backed scans on both sides"
            )
        if config.strategy == "single":
            return join_plan(
                cost_model, config, r, s, stats, label=config.label or "nopa"
            )
        return coop_plan(cost_model, config, r, s, stats)
    assert isinstance(shape, StarShape)
    if not isinstance(stats, StarStats):
        raise LogicalError(
            f"star shapes need StarStats, got {type(stats).__name__}"
        )
    if config.strategy == "single":
        raise LogicalError(
            "star shapes lower to the cooperative build/broadcast/probe "
            "pipeline; use strategy 'gpu+het' with a workers tuple"
        )
    dimensions = shape.dimensions
    if config.join_order:
        if sorted(config.join_order) != list(range(len(dimensions))):
            raise LogicalError(
                f"join_order {config.join_order} is not a permutation of "
                f"the {len(dimensions)} dimensions"
            )
        dimensions = tuple(dimensions[i] for i in config.join_order)
    dims: List[Tuple[Relation, str]] = []
    for dim_scan, fact_key, _selectivity in dimensions:
        if dim_scan.relation is None:
            raise LogicalError(
                "star lowering needs Relation-backed dimension scans"
            )
        dims.append((dim_scan.relation, fact_key))
    fact_column_bytes = float(sum(shape.fact.column_bytes()))
    return star_plan(
        cost_model,
        config,
        fact_column_bytes,
        shape.fact.location,
        shape.fact.modeled_rows,
        dims,
        stats,
        label=config.label or "star",
    )
