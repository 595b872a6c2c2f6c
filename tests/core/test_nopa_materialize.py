"""Join-result materialization (Section 5.1's 'aggregate or
materialization')."""

import numpy as np
import pytest

from repro.core.join.nopa import NoPartitioningJoin
from repro.workloads.builders import workload_selectivity

SCALE = 2.0**-14


class TestFunctional:
    def test_materialized_output_columns(self, ibm, wl_a):
        join = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", output="materialize"
        )
        res = join.run(wl_a.r, wl_a.s)
        out = res.materialized
        assert out is not None
        assert set(out) == {"key", "s_payload", "r_payload"}
        assert len(out["key"]) == res.matches
        # r payload = key * 3 + 1 by construction.
        assert np.array_equal(
            out["r_payload"], out["key"].astype(np.int64) * 3 + 1
        )
        # s payload = key * 7 + 5 by construction.
        assert np.array_equal(
            out["s_payload"], out["key"].astype(np.int64) * 7 + 5
        )

    def test_aggregate_mode_has_no_materialization(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert res.materialized is None

    def test_materialize_respects_selectivity(self, ibm):
        wl = workload_selectivity(0.3, scale=SCALE)
        res = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", output="materialize"
        ).run(wl.r, wl.s)
        assert len(res.materialized["key"]) == res.matches
        assert res.matches < wl.s.executed_tuples

    def test_invalid_output_rejected(self, ibm):
        with pytest.raises(ValueError):
            NoPartitioningJoin(ibm, output="csv")


class TestModel:
    def test_materialization_costs_write_bandwidth(self, ibm, wl_a):
        aggregate = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        materialize = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", output="materialize"
        ).run(wl_a.r, wl_a.s)
        assert materialize.runtime > aggregate.runtime
        # The result write lands in the processor's local memory.
        assert (
            materialize.probe_cost.occupancy["mem:gpu0-mem"]
            > aggregate.probe_cost.occupancy["mem:gpu0-mem"]
        )

    def test_materialization_cost_scales_with_matches(self, ibm):
        low = workload_selectivity(0.1, scale=SCALE)
        high = workload_selectivity(0.9, scale=SCALE)
        join = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", output="materialize"
        )
        t_low = join.run(low.r, low.s)
        t_high = join.run(high.r, high.s)
        write_low = t_low.probe_cost.occupancy["mem:gpu0-mem"]
        write_high = t_high.probe_cost.occupancy["mem:gpu0-mem"]
        assert write_high > write_low
