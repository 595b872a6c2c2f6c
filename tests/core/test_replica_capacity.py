"""Every "replicated table must fit" check keeps the same GPU reserve.

Star joins, the gpu+het lowering and replicated multi-GPU placement
each give every GPU a private copy of a hash table.  All three reject a
table that fits the GPU's raw capacity but not the capacity left beside
the default 512 MiB reserve.
"""

import numpy as np
import pytest

from repro.core.join.coop import CoopJoin
from repro.core.join.multigpu import MultiGpuJoin
from repro.core.join.multiway import Dimension, StarJoin
from repro.core.placement import DEFAULT_GPU_RESERVE
from repro.data.relation import Relation
from repro.hardware.topology import ibm_ac922
from repro.memory.allocator import OutOfMemoryError
from repro.utils.units import GIB, MIB

#: int64 key + int64 payload: one perfect-hash entry per build tuple.
ENTRY_BYTES = 16


def _relation(name, modeled_bytes):
    keys = np.arange(64, dtype=np.int64)
    return Relation(
        name=name,
        key=keys,
        payload=keys * 3,
        modeled_tuples=modeled_bytes // ENTRY_BYTES,
    )


def _gpu_capacity():
    return ibm_ac922().processor("gpu0").local_memory.capacity


def _star(r, _s, gpu_reserve=DEFAULT_GPU_RESERVE):
    fact = {"k": np.arange(64, dtype=np.int64)}
    StarJoin(ibm_ac922(), gpu_reserve=gpu_reserve).run(
        fact, [Dimension(relation=r, fact_key="k")]
    )


def _gpu_het(r, s):
    CoopJoin(ibm_ac922(), strategy="gpu+het").run(r, s)


def _replicated(r, s):
    MultiGpuJoin(ibm_ac922(gpus=2), placement="replicated").run(
        r, s, workers=("gpu0", "gpu1")
    )


JOINS = {"star": _star, "gpu+het": _gpu_het, "replicated": _replicated}


class TestReplicaCapacity:
    @pytest.mark.parametrize("join", sorted(JOINS))
    def test_table_inside_the_reserve_is_rejected(self, join):
        r = _relation("r", _gpu_capacity() - 256 * MIB)
        with pytest.raises(OutOfMemoryError):
            JOINS[join](r, _relation("s", GIB))

    @pytest.mark.parametrize("join", sorted(JOINS))
    def test_table_beside_the_reserve_is_accepted(self, join):
        JOINS[join](_relation("r", _gpu_capacity() - GIB), _relation("s", GIB))

    def test_star_join_keeps_its_reserve_argument(self):
        _star(_relation("r", _gpu_capacity() - 256 * MIB), None, gpu_reserve=0)
