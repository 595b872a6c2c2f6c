"""The radix-partitioned CPU baseline (PRA)."""

import pytest

from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.workloads.builders import workload_selectivity

SCALE = 2.0**-14


class TestFunctional:
    def test_matches_agree_with_nopa(self, ibm, wl_a):
        radix = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        nopa = NoPartitioningJoin(ibm, hash_table_placement="cpu").run(
            wl_a.r, wl_a.s, processor="cpu0"
        )
        assert radix.matches == nopa.matches
        assert radix.aggregate == nopa.aggregate

    def test_partial_selectivity(self, ibm):
        wl = workload_selectivity(0.3, scale=SCALE)
        res = RadixJoin(ibm).run(wl.r, wl.s)
        assert res.matches / wl.s.executed_tuples == pytest.approx(0.3, abs=0.03)

    def test_partition_count_from_radix_bits(self, ibm, wl_a):
        res = RadixJoin(ibm, radix_bits=12).run(wl_a.r, wl_a.s)
        assert res.partitions == 4096

    def test_partitions_balanced_for_uniform_keys(self, ibm, wl_a):
        res = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        assert res.max_partition_skew < 2.0


class TestModel:
    def test_runs_on_cpu_only(self, ibm, wl_a):
        with pytest.raises(ValueError):
            RadixJoin(ibm).run(wl_a.r, wl_a.s, processor="gpu0")

    def test_partition_pass_dominates(self, ibm, wl_a):
        res = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        assert res.partition_cost.seconds > res.join_cost.seconds

    def test_throughput_near_half_gtps(self, ibm, wl_a):
        # Figures 16/17: the tuned PRA baseline sits around 0.4-0.5.
        res = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        assert 0.35 < res.throughput_gtuples < 0.6

    def test_throughput_flat_across_sizes(self, ibm):
        from repro.workloads.builders import workload_ratio

        small = workload_ratio(1, scale=2.0**-12, modeled_r=256 * 10**6)
        large = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        t_small = RadixJoin(ibm).run(small.r, small.s).throughput_gtuples
        t_large = RadixJoin(ibm).run(large.r, large.s).throughput_gtuples
        assert t_small == pytest.approx(t_large, rel=0.1)

    def test_radix_bits_validation(self, ibm):
        with pytest.raises(ValueError):
            RadixJoin(ibm, radix_bits=0)

    def test_xeon_slower_than_power9(self, ibm, intel, wl_a):
        p9 = RadixJoin(ibm).run(wl_a.r, wl_a.s).throughput_gtuples
        xeon = RadixJoin(intel).run(wl_a.r, wl_a.s).throughput_gtuples
        assert p9 > xeon
