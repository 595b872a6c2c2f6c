"""Hardware data sheets: the paper's Figure 1-3 numbers."""

import pytest

from repro.hardware.specs import (
    DDR4_POWER9,
    DDR4_XEON,
    HBM2_V100,
    NVLINK2,
    PCIE3,
    POWER9,
    UPI,
    V100_SXM2,
    XBUS,
    XEON_6126,
    theoretical_vs_measured,
)
from repro.utils.units import GIB


class TestFigure3Numbers:
    """The spec values are the paper's measured primitives."""

    def test_nvlink_is_5x_pcie_sequential(self):
        assert NVLINK2.seq_bw / PCIE3.seq_bw == pytest.approx(5.25, rel=0.05)

    def test_nvlink_is_14x_pcie_random(self):
        assert NVLINK2.random_bw_4b / PCIE3.random_bw_4b == pytest.approx(
            14.0, rel=0.05
        )

    def test_nvlink_latency_45pct_below_pcie(self):
        assert 1 - NVLINK2.latency / PCIE3.latency == pytest.approx(0.45, abs=0.02)

    def test_nvlink_latency_3_6x_upi(self):
        assert NVLINK2.latency / UPI.latency == pytest.approx(3.6, rel=0.02)

    def test_nvlink_twice_xbus_sequential(self):
        assert NVLINK2.seq_bw / XBUS.seq_bw == pytest.approx(2.0, rel=0.05)

    def test_power9_memory_65pct_above_nvlink(self):
        assert DDR4_POWER9.seq_bw / NVLINK2.seq_bw == pytest.approx(1.86, rel=0.05)

    def test_xeon_memory_28pct_above_nvlink(self):
        assert DDR4_XEON.seq_bw / NVLINK2.seq_bw == pytest.approx(1.29, rel=0.05)

    def test_nvlink_latency_6x_cpu_memory(self):
        assert NVLINK2.latency / DDR4_POWER9.latency == pytest.approx(6.4, rel=0.05)

    def test_gpu_memory_order_of_magnitude_faster(self):
        assert HBM2_V100.seq_bw / NVLINK2.seq_bw > 10
        assert HBM2_V100.random_bw_4b / NVLINK2.random_bw_4b > 7

    def test_nvlink_latency_54pct_above_gpu_memory(self):
        assert NVLINK2.latency / HBM2_V100.latency == pytest.approx(1.54, rel=0.02)


class TestPacketModel:
    def test_nvlink_header_smaller_than_pcie(self):
        assert NVLINK2.header_bytes < PCIE3.header_bytes

    def test_packet_efficiency_improves_with_payload(self):
        assert PCIE3.packet_efficiency(512) > PCIE3.packet_efficiency(32)

    def test_packet_efficiency_bounded(self):
        for size in (1, 64, 4096):
            eff = NVLINK2.packet_efficiency(size)
            assert 0 < eff < 1

    def test_invalid_access_size_raises(self):
        with pytest.raises(ValueError):
            NVLINK2.packet_efficiency(0)

    def test_random_access_rate_is_4byte_rate(self):
        assert NVLINK2.random_access_rate == NVLINK2.random_bw_4b / 4


class TestCoherence:
    def test_nvlink_coherent_pcie_not(self):
        assert NVLINK2.cache_coherent
        assert not PCIE3.cache_coherent

    def test_nvlink_reaches_pageable_memory(self):
        assert NVLINK2.pageable_access
        assert not PCIE3.pageable_access


class TestProcessors:
    def test_power9_socket(self):
        assert POWER9.cores == 16
        assert POWER9.smt == 4
        assert POWER9.threads == 64

    def test_xeon_socket(self):
        assert XEON_6126.cores == 12
        assert XEON_6126.threads == 24

    def test_v100_memory_capacity(self):
        assert V100_SXM2.memory.capacity == 16 * GIB

    def test_v100_l2_is_memory_side(self):
        assert V100_SXM2.l2.memory_side
        assert not V100_SXM2.l2.caches_remote

    def test_v100_l1_caches_remote(self):
        assert V100_SXM2.l1_per_sm.caches_remote

    def test_l1_total_capacity(self):
        assert V100_SXM2.l1_total_capacity == 80 * V100_SXM2.l1_per_sm.capacity


class TestFigure1:
    def test_reports_three_components(self):
        data = theoretical_vs_measured()
        assert set(data) == {"memory", "nvlink2", "pcie3"}

    def test_measured_below_theoretical(self):
        for theoretical, measured in theoretical_vs_measured().values():
            assert measured < theoretical

    def test_nvlink_close_to_memory_pcie_far(self):
        data = theoretical_vs_measured()
        assert data["nvlink2"][1] / data["memory"][1] > 0.5
        assert data["pcie3"][1] / data["memory"][1] < 0.15
