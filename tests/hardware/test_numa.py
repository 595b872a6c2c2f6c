"""NUMA distance queries."""

from repro.hardware.numa import distance_matrix, memories_by_distance, render_matrix
from repro.utils.units import GIB


class TestDistanceMatrix:
    def test_covers_all_pairs(self, ibm):
        matrix = distance_matrix(ibm)
        assert len(matrix) == len(ibm.processors) * len(ibm.memories)

    def test_gpu0_distances_match_figure4(self, ibm):
        matrix = distance_matrix(ibm)
        assert matrix[("gpu0", "gpu0-mem")].hops == 0
        assert matrix[("gpu0", "cpu0-mem")].hops == 1
        assert matrix[("gpu0", "cpu1-mem")].hops == 2
        assert matrix[("gpu0", "gpu1-mem")].hops == 3

    def test_bandwidth_decreases_with_hops(self, ibm):
        matrix = distance_matrix(ibm)
        local = matrix[("gpu0", "gpu0-mem")].bandwidth
        one = matrix[("gpu0", "cpu0-mem")].bandwidth
        two = matrix[("gpu0", "cpu1-mem")].bandwidth
        assert local > one > two

    def test_latency_increases_with_hops(self, ibm):
        matrix = distance_matrix(ibm)
        assert (
            matrix[("cpu0", "cpu0-mem")].latency
            < matrix[("cpu0", "cpu1-mem")].latency
            < matrix[("cpu0", "gpu1-mem")].latency
        )

    def test_one_hop_nvlink_bandwidth(self, ibm):
        matrix = distance_matrix(ibm)
        assert matrix[("gpu0", "cpu0-mem")].bandwidth == 63 * GIB


class TestOrdering:
    def test_memories_by_distance_order(self, ibm):
        ordered = [d.memory for d in memories_by_distance(ibm, "gpu0")]
        assert ordered == ["gpu0-mem", "cpu0-mem", "cpu1-mem", "gpu1-mem"]

    def test_cpu_prefers_local_memory(self, ibm):
        ordered = [d.memory for d in memories_by_distance(ibm, "cpu1")]
        assert ordered[0] == "cpu1-mem"

    def test_matches_topology_helper(self, ibm):
        from_numa = [
            d.memory
            for d in memories_by_distance(ibm, "gpu0")
            if d.memory.startswith("cpu")
        ]
        from_topology = [m.name for m in ibm.cpu_memories_by_distance("gpu0")]
        assert from_numa == from_topology


def test_render_matrix(ibm):
    text = render_matrix(ibm)
    assert "gpu0" in text
    assert "cpu1-mem" in text
    assert "3" in text  # the 3-hop cell
