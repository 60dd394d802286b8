"""Vbox issue ports, rename allocator, lane structure."""

import pytest

from repro.errors import ConfigError
from repro.isa.instructions import TimingClass
from repro.vbox.issue import VboxIssue
from repro.vbox.lanes import LaneConfig, N_LANES, TOTAL_UNITS, lane_of_element
from repro.vbox.rename import RenameAllocator


class TestIssuePorts:
    def test_full_vector_occupies_port_8_cycles(self):
        """Section 3.2: port busy ceil(vl/16) cycles, 'typically 8'."""
        issue = VboxIssue()
        assert issue.occupancy(128, TimingClass.FP) == 8.0
        assert issue.occupancy(16, TimingClass.FP) == 1.0
        assert issue.occupancy(17, TimingClass.FP) == 2.0

    def test_two_ports_give_two_instructions_in_flight(self):
        issue = VboxIssue()
        s1, _ = issue.issue_arithmetic(0.0, 128, TimingClass.FP)
        s2, _ = issue.issue_arithmetic(0.0, 128, TimingClass.FP)
        s3, _ = issue.issue_arithmetic(0.0, 128, TimingClass.FP)
        assert s1 == 0.0 and s2 == 0.0
        assert s3 == 8.0  # third instruction waits for a port

    def test_dual_issue_window_drives_32_units(self):
        """'A simple dual-issue window is able to fully utilize 32
        functional units': 2 ports x 16 lanes."""
        assert TOTAL_UNITS == 32
        issue = VboxIssue()
        for _ in range(10):
            issue.issue_arithmetic(0.0, 128, TimingClass.FP)
        total = issue.north.busy_cycles + issue.south.busy_cycles
        assert total == 10 * 8.0

    def test_ports_balance_under_ties(self):
        issue = VboxIssue()
        for i in range(8):
            issue.issue_arithmetic(i * 100.0, 128, TimingClass.FP)
        assert issue.north.busy_cycles == issue.south.busy_cycles

    def test_divide_is_partially_pipelined(self):
        issue = VboxIssue()
        assert issue.occupancy(128, TimingClass.FP_DIV) > \
            issue.occupancy(128, TimingClass.FP)

    def test_latency_classes(self):
        issue = VboxIssue()
        assert issue.latency(TimingClass.INT) < issue.latency(TimingClass.FP)
        assert issue.latency(TimingClass.FP) < \
            issue.latency(TimingClass.FP_DIV)
        with pytest.raises(ConfigError):
            issue.latency(TimingClass.MEM)

    def test_zero_vl_minimal_occupancy(self):
        assert VboxIssue().occupancy(0, TimingClass.FP) == 1.0


class TestRenameAllocator:
    def test_allocates_freely_within_pool(self):
        r = RenameAllocator(physical=48, architectural=32)
        for i in range(16):
            assert r.allocate(0.0, 100.0) == 0.0

    def test_stalls_when_pool_exhausted(self):
        r = RenameAllocator(physical=34, architectural=32)
        r.allocate(0.0, 50.0)
        r.allocate(0.0, 60.0)
        start = r.allocate(0.0, 70.0)
        assert start == 50.0   # waits for the oldest release
        assert r.counters["rename_stalls"] == 1
        assert r.stall_cycles == 50.0

    def test_releases_refill_pool(self):
        r = RenameAllocator(physical=33, architectural=32)
        r.allocate(0.0, 10.0)
        assert r.available_at(11.0) == 1

    def test_rejects_degenerate_pool(self):
        with pytest.raises(ConfigError):
            RenameAllocator(physical=32, architectural=32)


class TestLaneStructure:
    def test_sixteen_identical_lanes(self):
        assert N_LANES == 16
        assert lane_of_element(0) == 0
        assert lane_of_element(17) == 1
        assert lane_of_element(127) == 15

    def test_register_file_slice_geometry(self):
        cfg = LaneConfig()
        assert cfg.elements_per_register == 8   # 128 / 16 lanes

    def test_operand_bandwidth_figure(self):
        """Section 3.2: '64+32 operands per cycle' between file and FUs."""
        assert LaneConfig().operand_bandwidth_per_cycle == 96

    def test_smt_forces_a_large_file(self):
        """Section 3.3: multithreading 'forced using a much larger
        register file'."""
        cfg = LaneConfig()
        single_thread = cfg.physical_registers_per_thread * \
            cfg.elements_per_register
        assert cfg.regfile_elements_per_lane == 4 * single_thread

    def test_mask_file_is_tiny(self):
        cfg = LaneConfig()
        assert cfg.mask_bits == 256
        assert (cfg.mask_read_ports, cfg.mask_write_ports) == (3, 2)
