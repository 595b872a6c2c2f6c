"""The hash-join cost terms every join lowering shares.

NOPA, Het / GPU+Het, star and multi-GPU lowerings all price their hash
table through the same helpers in :mod:`repro.logical.lower`; these
tests pin each term on its own so a change to one formula shows up
here, not only as a drift in the golden cases.
"""

import numpy as np
import pytest

from repro.core.hashtable.placement import HashTablePlacement
from repro.costmodel.access import atomic_stream
from repro.costmodel.calibration import DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel
from repro.data.relation import Relation
from repro.hardware.topology import ibm_ac922
from repro.logical.lower import (
    CPU_BUILD_ACCESSES,
    GPU_BUILD_ACCESSES,
    broadcast,
    insert_streams,
    join_per_tuple,
    multigpu_plan,
    table_streams,
)
from repro.logical.stats import TableProfile
from repro.plan.spec import PhaseKind


@pytest.fixture
def cost_model():
    return CostModel(ibm_ac922(gpus=4, gpu_mesh=True))


def _relation(name, rows, modeled):
    keys = np.arange(rows, dtype=np.int64)
    return Relation(name=name, key=keys, payload=keys, modeled_tuples=modeled)


def test_per_tuple_constants_follow_the_processor(cost_model):
    work = DEFAULT_CALIBRATION.join_work_per_tuple
    assert join_per_tuple(cost_model, "gpu0") == (GPU_BUILD_ACCESSES, work["gpu"])
    assert join_per_tuple(cost_model, "cpu1") == (CPU_BUILD_ACCESSES, work["cpu"])


def test_table_streams_split_accesses_and_working_set():
    placement = HashTablePlacement(
        total_bytes=1000, fractions={"gpu0-mem": 0.75, "cpu0-mem": 0.25}
    )
    streams = table_streams(
        "gpu0", placement, 400.0, 8, atomic=False, hot_set=None, label="ht probe"
    )
    assert [(s.memory, s.accesses, s.working_set_bytes) for s in streams] == [
        ("gpu0-mem", 300.0, 750.0),
        ("cpu0-mem", 100.0, 250.0),
    ]


def test_single_region_table_keeps_the_access_count_exact():
    placement = HashTablePlacement(total_bytes=64, fractions={"cpu0-mem": 1.0})
    accesses = 12345 * 0.1
    (stream,) = table_streams(
        "cpu0", placement, accesses, 8, atomic=True, hot_set=None, label="x"
    )
    assert stream.accesses == accesses
    assert stream.working_set_bytes == 64


def test_a_region_with_no_accesses_still_gets_its_stream():
    placement = HashTablePlacement(total_bytes=64, fractions={"cpu0-mem": 1.0})
    (stream,) = table_streams(
        "cpu0", placement, 0.0, 8, atomic=False, hot_set=None, label="x"
    )
    assert stream.accesses == 0.0


def test_contended_suffix_comes_from_the_access_layer(cost_model):
    placement = HashTablePlacement(total_bytes=64, fractions={"cpu0-mem": 1.0})
    (contended,), _ = insert_streams(
        cost_model, "gpu0", 10, placement, 16, contended=True
    )
    (plain,), _ = insert_streams(cost_model, "gpu0", 10, placement, 16)
    expected = atomic_stream(
        "gpu0", "cpu0-mem", 10, 16, contended=True, label="ht insert"
    )
    assert contended.label == expected.label == "ht insert [contended]"
    assert plain.label == "ht insert"
    # The cost model prices the suffix: contended inserts are slower.
    slow = cost_model.stream_occupancy(contended)["mem:cpu0-mem"]
    fast = cost_model.stream_occupancy(plain)["mem:cpu0-mem"]
    assert slow > fast


def test_insert_streams_count_one_insert_per_tuple(cost_model):
    placement = HashTablePlacement(total_bytes=64, fractions={"gpu0-mem": 1.0})
    (gpu,), gpu_work = insert_streams(cost_model, "gpu0", 100, placement, 16)
    (cpu,), cpu_work = insert_streams(
        cost_model, "cpu0", 100, placement, 16, insert_factor=1.5
    )
    assert gpu.accesses == 100 * GPU_BUILD_ACCESSES
    assert cpu.accesses == 100 * CPU_BUILD_ACCESSES * 1.5
    assert gpu_work == 100 * DEFAULT_CALIBRATION.join_work_per_tuple["gpu"]
    assert cpu_work == 100 * DEFAULT_CALIBRATION.join_work_per_tuple["cpu"]


def test_broadcast_uses_the_builders_link_or_memory(cost_model):
    machine = cost_model.machine
    factor = DEFAULT_CALIBRATION.ht_copy_bandwidth_factor
    link = machine.gpu_link("gpu0")
    seconds, resource = broadcast(cost_model, "gpu0", 3, 1e9)
    assert resource == f"link:{link.name}"
    assert seconds == 3 * 1e9 / (link.spec.seq_bw * factor)
    memory = machine.processor("cpu0").local_memory
    seconds, resource = broadcast(cost_model, "cpu0", 2, 1e9)
    assert resource == f"mem:{memory.name}"
    assert seconds == 2 * 1e9 / (memory.spec.seq_bw * factor)


def _multigpu_inputs(cost_model, workers, interleaved):
    r = _relation("R", 64, 1 << 20)
    s = _relation("S", 256, 1 << 22)
    table = TableProfile(
        entry_bytes=16,
        key_itemsize=8,
        value_itemsize=8,
        insert_factor=1.0,
        lookups=256.0,
        lookup_probes=256.0,
        value_reads=256.0,
        modeled_bytes=float(16 << 20),
    )
    machine = cost_model.machine
    if interleaved:
        shared = HashTablePlacement(
            total_bytes=table.modeled_bytes,
            fractions={
                machine.processor(w).local_memory.name: 1.0 / len(workers)
                for w in workers
            },
        )
        tables = {w: shared for w in workers}
    else:
        tables = {
            w: HashTablePlacement(
                total_bytes=table.modeled_bytes,
                fractions={machine.processor(w).local_memory.name: 1.0},
            )
            for w in workers
        }
    return r, s, table, tables


def test_multigpu_replicated_builds_once_and_broadcasts(cost_model):
    workers = ("gpu0", "gpu1", "gpu2", "gpu3")
    r, s, table, tables = _multigpu_inputs(cost_model, workers, False)
    plan = multigpu_plan(cost_model, "replicated", workers, r, s, table, tables)
    build, probe = plan.phases
    assert plan.label == "multigpu[replicated]"
    assert build.kind is PhaseKind.PRICED
    (surcharge,) = build.surcharges
    assert (surcharge.seconds, surcharge.resource) == broadcast(
        cost_model, "gpu0", 3, table.modeled_bytes
    )
    assert set(probe.loads) == set(workers)
    for gpu, load in probe.loads.items():
        (lookups,) = [x for x in load.profile.streams if x.label == "ht probe"]
        assert lookups.memory == f"{gpu}-mem"


def test_multigpu_interleaved_builds_everywhere(cost_model):
    workers = ("gpu0", "gpu1")
    r, s, table, tables = _multigpu_inputs(cost_model, workers, True)
    plan = multigpu_plan(cost_model, "interleaved", workers, r, s, table, tables)
    build, probe = plan.phases
    assert build.kind is PhaseKind.CONCURRENT and not build.surcharges
    for load in build.loads.values():
        inserts = [x for x in load.profile.streams if x.label == "ht insert"]
        assert sorted(x.memory for x in inserts) == ["gpu0-mem", "gpu1-mem"]
        assert sum(x.accesses for x in inserts) == r.modeled_tuples / 2
    assert probe.deps == ("build",)
