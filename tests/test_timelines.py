"""Resource timeline primitives: in-order, calendar (backfill), ports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.timeline import (
    CalendarTimeline,
    MultiPortTimeline,
    ResourceTimeline,
)


class TestResourceTimeline:
    def test_serializes(self):
        r = ResourceTimeline()
        assert r.reserve(0.0, 4.0) == 0.0
        assert r.reserve(0.0, 4.0) == 4.0
        assert r.reserve(10.0, 1.0) == 10.0

    def test_peek_does_not_reserve(self):
        r = ResourceTimeline()
        r.reserve(0.0, 5.0)
        assert r.peek(0.0) == 5.0
        assert r.peek(0.0) == 5.0

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline().reserve(0.0, -1.0)

    def test_utilization(self):
        r = ResourceTimeline()
        r.reserve(0.0, 5.0)
        assert r.utilization(10.0) == pytest.approx(0.5)


class TestCalendarTimeline:
    def test_backfills_earlier_gap(self):
        c = CalendarTimeline()
        assert c.reserve(100.0, 1.0) == 100.0
        # a later-arriving request for an earlier slot gets it
        assert c.reserve(5.0, 1.0) == 5.0

    def test_no_overlap(self):
        c = CalendarTimeline()
        c.reserve(0.0, 10.0)
        assert c.reserve(3.0, 2.0) == 10.0

    def test_fills_exact_gap(self):
        c = CalendarTimeline()
        c.reserve(0.0, 2.0)
        c.reserve(6.0, 2.0)
        assert c.reserve(0.0, 4.0) == 2.0   # exactly fits [2,6)
        assert c.reserve(0.0, 1.0) == 8.0   # nothing earlier left

    def test_skips_too_small_gaps(self):
        c = CalendarTimeline()
        c.reserve(0.0, 2.0)
        c.reserve(3.0, 2.0)   # gap [2,3) is 1 cycle wide
        assert c.reserve(0.0, 2.0) == 5.0

    def test_dense_sequence_is_contiguous(self):
        c = CalendarTimeline()
        starts = [c.reserve(0.0, 1.0) for _ in range(50)]
        assert starts == [float(i) for i in range(50)]
        # coalescing keeps the interval list tiny
        assert len(c._busy) == 1

    def test_peek_matches_reserve(self):
        c = CalendarTimeline()
        c.reserve(0.0, 4.0)
        assert c.peek(1.0) == 4.0
        assert c.reserve(1.0, 1.0) == 4.0

    def test_pruning_keeps_memory_bounded(self):
        c = CalendarTimeline()
        step = 2.0
        for i in range(20000):
            c.reserve(i * step, 1.0)  # half-utilized, never coalesces
            if i % 64 == 0:
                c.drop_before(i * step)
        assert len(c._busy) <= 64
        assert c.floor == 19968 * step

    def test_drop_keeps_intervals_ending_at_the_bound(self):
        c = CalendarTimeline()
        c.reserve(0.0, 2.0)
        c.reserve(4.0, 2.0)
        c.drop_before(6.0)
        # [4, 6) ends exactly at the bound: a request at 6 still merges
        # with it, so it must stay
        assert c._busy == [(4.0, 6.0)]
        assert c.reserve(6.0, 1.0) == 6.0
        assert c._busy == [(4.0, 7.0)]

    def test_randomized_never_overlaps(self, rng):
        c = CalendarTimeline()
        intervals = []
        for _ in range(500):
            earliest = float(rng.integers(0, 1000))
            occ = float(rng.integers(1, 7))
            start = c.reserve(earliest, occ)
            assert start >= earliest
            intervals.append((start, start + occ))
        intervals.sort()
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1 + 1e-9


#: one step of a reservation sequence: (bound advance, how far past the
#: bound the request asks, occupancy, drop the window after it?) — half
#: cycles, so requests often touch and exactly fill gaps
_STEP = st.tuples(st.integers(0, 6), st.integers(0, 40), st.integers(0, 8),
                  st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEP, max_size=300))
def test_window_drop_preserves_every_start(steps):
    """Requests that never ask before a moving bound get the same start
    whether or not intervals ending before the bound were dropped."""
    plain, windowed = CalendarTimeline(), CalendarTimeline()
    bound = 0.0
    for advance, ahead, occupancy, drop in steps:
        bound += advance / 2
        earliest = bound + ahead / 2
        assert windowed.reserve(earliest, occupancy / 2) \
            == plain.reserve(earliest, occupancy / 2)
        if drop:
            windowed.drop_before(bound)
    assert windowed.busy_cycles == plain.busy_cycles
    kept = [iv for iv in plain._busy if iv[1] >= windowed.floor]
    assert windowed._busy == kept


@pytest.mark.parametrize("config", ["T", "T-nopump"])
def test_no_reservation_before_the_window_floor(monkeypatch, config):
    """The processor's window bound holds on every shipped workload: no
    calendar reservation asks for a time before the last dropped bound."""
    from repro import jit
    from repro.harness.runner import run_tarantula
    from repro.workloads.registry import REGISTRY, get

    monkeypatch.setattr(jit, "_FORCED", True)
    reserve = CalendarTimeline.reserve
    early: list = []
    floors: list = []

    def checked(self, earliest, occupancy):
        if earliest < self.floor:
            early.append((self.name, earliest, self.floor))
        floors.append(self.floor)
        return reserve(self, earliest, occupancy)

    monkeypatch.setattr(CalendarTimeline, "reserve", checked)
    for kernel in sorted(REGISTRY):
        run_tarantula(get(kernel), config, instance=get(kernel).build_small())
    assert early == []
    # the check is not vacuous: windows were dropped along the way
    assert max(floors) > 0.0


class TestMultiPortTimeline:
    def test_parallel_ports(self):
        m = MultiPortTimeline(2)
        assert m.reserve(0.0, 4.0) == 0.0
        assert m.reserve(0.0, 4.0) == 0.0
        assert m.reserve(0.0, 4.0) == 4.0

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            MultiPortTimeline(0)

    def test_utilization_accounts_all_ports(self):
        m = MultiPortTimeline(4)
        m.reserve(0.0, 8.0)
        assert m.utilization(8.0) == pytest.approx(0.25)
