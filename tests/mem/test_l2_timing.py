"""Timing behavior of the banked L2: hits, misses, MAF, PUMP, Zbox."""

import pytest

from repro.mem.l1cache import L1DataCache
from repro.mem.l2cache import BankedL2, L2Config
from repro.mem.maf import MissAddressFile
from repro.mem.pump import PumpUnit
from repro.mem.rambus import RambusConfig
from repro.mem.zbox import Zbox


def _lines(n, start=0):
    return [start + i * 64 for i in range(n)]


def make_l2(**kw):
    cfg = L2Config(**kw)
    return BankedL2(cfg, Zbox(RambusConfig()))


class TestHitsAndMisses:
    def test_hit_faster_than_miss(self):
        l2 = make_l2()
        t_miss = l2.access_slice(_lines(16), 16, False, 0.0)
        l2_warm = make_l2()
        l2_warm.warm(_lines(16))
        t_hit = l2_warm.access_slice(_lines(16), 16, False, 0.0)
        assert t_hit < t_miss

    def test_hit_latency_matches_config(self):
        l2 = make_l2(hit_latency=20.0)
        l2.warm(_lines(16))
        t = l2.access_slice(_lines(16), 16, False, 0.0)
        assert t == pytest.approx(20.0)  # lookup starts at 0, data at +20

    def test_second_access_hits(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 16, False, 0.0)
        assert l2.counters["line_misses"] == 16
        l2.access_slice(_lines(16), 16, False, 100000.0)
        assert l2.counters["line_hits"] == 16

    def test_slice_too_wide_rejected(self):
        l2 = make_l2()
        with pytest.raises(Exception):
            l2.access_slice(_lines(17), 17, False, 0.0)

    def test_empty_slice_is_cheap(self):
        l2 = make_l2()
        t = l2.access_slice([], 0, False, 0.0)
        assert t == pytest.approx(l2.config.hit_latency)


class TestSliceAtomicity:
    def test_partial_miss_delays_whole_slice(self):
        """One missing address makes the whole slice sleep (section 3.4)."""
        l2 = make_l2()
        l2.warm(_lines(15))  # 15 of 16 lines resident
        t_partial = l2.access_slice(_lines(16), 16, False, 0.0)
        l2_warm = make_l2()
        l2_warm.warm(_lines(16))
        t_full = l2_warm.access_slice(_lines(16), 16, False, 0.0)
        assert t_partial > t_full + l2.zbox.config.access_latency / 2

    def test_maf_allocated_per_miss_slice(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 16, False, 0.0)
        assert l2.maf.counters["allocations"] == 1
        assert l2.maf.counters["missing_lines"] == 16


class TestMafPressure:
    def test_maf_full_stalls(self):
        l2 = make_l2(maf_entries=1)
        l2.access_slice(_lines(16, 0), 16, False, 0.0)
        l2.access_slice(_lines(16, 0x10000), 16, False, 0.0)
        assert l2.counters["maf_stalls"] >= 1

    def test_peak_occupancy_tracked(self):
        l2 = make_l2(maf_entries=8)
        for i in range(4):
            l2.access_slice(_lines(16, i * 0x10000), 16, False, 0.0)
        assert 1 <= l2.maf.peak_occupancy <= 8


class TestWritePaths:
    def test_full_line_pump_store_uses_directory_path(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 128, True, 0.0, pump_bit=True,
                        full_line_write=True)
        stats = l2.zbox.stats()
        assert stats["dirty_transitions"] == 16
        assert stats["fills"] == 0

    def test_partial_store_fills_lines(self):
        l2 = make_l2()
        l2.access_slice(_lines(16), 16, True, 0.0)
        stats = l2.zbox.stats()
        assert stats["fills"] == 16
        assert stats["dirty_transitions"] == 0

    def test_dirty_eviction_writes_back(self):
        # 2-way tiny L2: fill a set three times with dirty lines
        l2 = make_l2(capacity_bytes=2 * 64 * 4, ways=2)
        set_stride = 4 * 64  # 4 sets
        for i in range(3):
            l2.access_slice([i * set_stride], 1, True, float(i * 1000))
        assert l2.zbox.stats()["writebacks"] >= 1


class TestPump:
    def test_pump_stream_occupies_4_cycles_per_128qw(self):
        pump = PumpUnit()
        t0 = pump.stream(128, False, 0.0)
        assert t0 == pytest.approx(4.0)
        t1 = pump.stream(128, False, 0.0)
        assert t1 == pytest.approx(8.0)  # bus serializes

    def test_read_and_write_paths_independent(self):
        pump = PumpUnit()
        tr = pump.stream(128, False, 0.0)
        tw = pump.stream(128, True, 0.0)
        assert tr == pytest.approx(4.0)
        assert tw == pytest.approx(4.0)

    def test_disabled_pump_refuses(self):
        pump = PumpUnit(enabled=False)
        with pytest.raises(Exception):
            pump.stream(128, False, 0.0)


class TestCoherencyHooks:
    def test_vector_touch_of_pbit_line_invalidates_l1(self):
        l1 = L1DataCache()
        l2 = BankedL2(L2Config(), Zbox(), l1=l1)
        l1.store(0x1000)
        l1.drain()
        l2.set_pbits([0x1000])
        t_with = l2.access_slice([0x1000], 1, False, 0.0)
        assert l2.counters["pbit_hits"] == 1
        assert l1.counters["coherency_invalidates"] == 1
        # second touch: P-bit cleared, no penalty
        l2.access_slice([0x1000], 1, False, 1000.0)
        assert l2.counters["pbit_hits"] == 1

    def test_scalar_access_sets_pbit(self):
        l2 = make_l2()
        l2.scalar_access(0x2000, False, 0.0)
        assert l2.tags.lookup(0x2000).pbit


class TestMafUnit:
    def test_entry_accounting(self):
        maf = MissAddressFile(entries=2)
        e1 = maf.allocate(0.0, {0})
        maf.release(e1, 10.0)
        assert maf.earliest_entry(0.0) == 0.0
        e2 = maf.allocate(0.0, {64})
        e3 = maf.allocate(0.0, {128})
        maf.release(e2, 20.0)
        maf.release(e3, 30.0)
        assert maf.earliest_entry(15.0) == 20.0

    def test_panic_mode_trips_and_clears(self):
        maf = MissAddressFile(entries=4, replay_threshold=2)
        entry = maf.allocate(0.0, {0})
        assert not maf.record_replay(entry)
        assert not maf.record_replay(entry)
        assert maf.record_replay(entry)  # third replay > threshold
        assert maf.panic_mode
        maf.release(entry, 50.0)
        assert not maf.panic_mode
        assert maf.counters["panic_exits"] == 1


class TestWarmRange:
    def test_partial_final_line_is_warmed(self):
        l2 = BankedL2()
        line = l2.config.line_bytes
        # 65 bytes from an aligned base crosses into a second line
        l2.warm_range(8 * line, line + 1)
        assert l2.tags.lookup(8 * line) is not None
        assert l2.tags.lookup(9 * line) is not None
        assert l2.tags.lookup(10 * line) is None

    def test_unaligned_base_and_end(self):
        l2 = BankedL2()
        line = l2.config.line_bytes
        l2.warm_range(4 * line + 16, line)   # spans two lines, both partial
        assert l2.tags.lookup(4 * line) is not None
        assert l2.tags.lookup(5 * line) is not None
        assert l2.tags.lookup(6 * line) is None

    def test_empty_range_warms_nothing(self):
        l2 = BankedL2()
        l2.warm_range(0x1000, 0)
        assert l2.tags.lookup(0x1000) is None


class TestInstructionLane:
    """The all-hit lane applies a whole instruction at once; it must
    leave exactly the state a slice-by-slice walk leaves."""

    @staticmethod
    def _layout(pump: bool, base: int):
        import numpy as np

        from repro.isa.instructions import Instruction
        from repro.isa.registers import ArchState
        from repro.vbox.address_gen import AddressGenerators

        state = ArchState()
        state.sregs.write(1, base)
        state.ctrl.set_vl(128)
        state.ctrl.set_vs(8)
        gens = AddressGenerators(pump_enabled=pump)
        gens.plan(Instruction("vstoreq", va=1, rb=1), state)   # cold TLB
        plan = gens.plan(Instruction("vstoreq", va=1, rb=1), state)
        plan.layout.make_lane()
        assert len(np.unique(np.concatenate(plan.layout.lines))) \
            < sum(map(len, plan.layout.lines)) or pump
        return plan.layout

    @pytest.mark.parametrize("pump", [True, False])
    @pytest.mark.parametrize("pbit_line", [None, 3])
    def test_lane_equals_slice_walk(self, pump, pbit_line):
        base = 0x200008                      # misaligned: 17 lines
        layout = self._layout(pump, base)
        lane_l2, walk_l2 = (BankedL2(L2Config(), Zbox(RambusConfig()),
                                     PumpUnit(enabled=pump),
                                     L1DataCache()) for _ in range(2))
        for l2 in (lane_l2, walk_l2):
            l2.warm(_lines(40, start=base - 8 - 64 * 8))
            l2.slice_port.reserve(30.0, 5.0)   # a busy stretch to skip
            if pbit_line is not None:    # a line the core touched
                l2.tags.lookup(base - 8 + 64 * pbit_line).pbit = True
        done, lane = lane_l2.access_slices(layout, 0, True, 25.0, 1.0)
        assert lane
        lane_l2.count_lanes(((layout, True, 1),))
        walk = max(walk_l2.access_slice(
            lines, layout.quadwords[i], True, 25.0 + (i + 1) * 1.0,
            pump_bit=layout.pump[i], full_line_write=layout.full[i],
            canonical=True) for i, lines in enumerate(layout.lines))
        assert done == walk
        assert lane_l2.tags._clock == walk_l2.tags._clock
        assert (lane_l2.tags._stamp == walk_l2.tags._stamp).all()
        assert (lane_l2.tags._dirty == walk_l2.tags._dirty).all()
        assert lane_l2.tags._pbit_set == walk_l2.tags._pbit_set
        assert lane_l2.slice_port._busy == walk_l2.slice_port._busy
        for lane_bag, walk_bag in ((lane_l2.counters, walk_l2.counters),
                                   (lane_l2.tags.counters,
                                    walk_l2.tags.counters),
                                   (lane_l2.pump.counters,
                                    walk_l2.pump.counters)):
            assert lane_bag.as_dict() == walk_bag.as_dict()
