"""Vbox issue logic: two ports drive 32 functional units (section 3.2).

"To them, the 32 functional units appear only as just two resources:
the north and south issue ports.  When an instruction is launched onto
one of the two ports, the sixteen associated functional units work
fully synchronously on the instruction.  Thus, the port is marked busy
for ceil(vl/16) cycles (typically, 8 cycles)."

The memory side has its own pipes: one load stream and one store stream
(peak 32+32 ld/st element slots per cycle, Table 3), fed by the address
generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.isa.instructions import TimingClass
from repro.utils.bitops import ceil_div
from repro.utils.stats import Counter
from repro.utils.timeline import CalendarTimeline, ResourceTimeline
from repro.vbox.lanes import N_LANES


@dataclass
class FunctionalUnitLatencies:
    """Pipeline latencies (cycles) by timing class, EV8-era values."""

    int_alu: float = 2.0
    fp: float = 6.0
    #: partially-pipelined divide: latency, and per-lane result interval
    fp_div_latency: float = 16.0
    fp_div_interval: float = 4.0
    fp_sqrt_latency: float = 30.0
    fp_sqrt_interval: float = 8.0
    ctrl: float = 1.0
    #: scalar operand / result transfers cross the core-Vbox interface
    scalar_roundtrip: float = 20.0


class VboxIssue:
    """North/south issue ports + load/store memory pipes."""

    def __init__(self, latencies: FunctionalUnitLatencies | None = None) -> None:
        self.latencies = latencies or FunctionalUnitLatencies()
        self.north = ResourceTimeline("north-port")
        self.south = ResourceTimeline("south-port")
        self.load_pipe = ResourceTimeline("load-pipe")
        self.store_pipe = ResourceTimeline("store-pipe")
        # a gather stalled on its index register must not block younger
        # independent accesses from using the (out-of-order) generators
        self.addr_gen = CalendarTimeline("address-generators")
        self.counters = Counter()

    def occupancy(self, vl: int, timing: TimingClass) -> float:
        """Port-busy cycles for an arithmetic instruction of length vl."""
        if vl <= 0:
            return 1.0
        base = ceil_div(vl, N_LANES)
        if timing is TimingClass.FP_DIV:
            return base * self.latencies.fp_div_interval
        if timing is TimingClass.FP_SQRT:
            return base * self.latencies.fp_sqrt_interval
        return float(base)

    def latency(self, timing: TimingClass) -> float:
        """Pipe latency from issue to first result."""
        if timing is TimingClass.INT:
            return self.latencies.int_alu
        if timing is TimingClass.FP:
            return self.latencies.fp
        if timing is TimingClass.FP_DIV:
            return self.latencies.fp_div_latency
        if timing is TimingClass.FP_SQRT:
            return self.latencies.fp_sqrt_latency
        if timing is TimingClass.CTRL:
            return self.latencies.ctrl
        raise ConfigError(f"no arithmetic latency for {timing}")

    def issue_arithmetic(self, earliest: float, vl: int,
                         timing: TimingClass) -> tuple[float, float]:
        """Launch onto the earlier-free of the two ports.

        Returns ``(start, complete)`` where ``complete`` is when the
        last element's result is written (port busy + pipe latency).
        """
        start, done, port = self.launch(earliest, self.occupancy(vl, timing),
                                        self.latency(timing))
        self.counters.add(f"issue_{port.name}")
        return start, done

    def launch(self, earliest: float, busy: float, latency: float):
        """:meth:`issue_arithmetic` with the occupancy and latency given
        and without its counter; returns ``(start, complete, port)``."""
        north, south = self.north, self.south
        # ResourceTimeline.peek, inlined (this runs once per vector op)
        t_north = max(earliest, north.next_free)
        t_south = max(earliest, south.next_free)
        if t_north == t_south:
            # break ties by accumulated load so both ports share work
            port = north if north.busy_cycles <= south.busy_cycles \
                else south
        else:
            port = north if t_north < t_south else south
        start = port.reserve(earliest, busy)
        return start, start + busy + latency, port
