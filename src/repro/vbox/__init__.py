"""Vbox: the 16-lane vector execution engine and its memory front end."""

from repro.vbox.address_gen import AccessPlan, AddressGenerators
from repro.vbox.crbox import ConflictResolutionBox
from repro.vbox.issue import FunctionalUnitLatencies, VboxIssue
from repro.vbox.lanes import LaneConfig, N_LANES, lane_of_element
from repro.vbox.rename import RenameAllocator
from repro.vbox.reorder import (
    bank_pattern,
    conflict_free_schedule,
    is_reorderable,
    schedule_cache_info,
)
from repro.vbox.slices import SLICE_SIZE, Slice
from repro.vbox.vtlb import LaneTLB, RefillStrategy, VectorTLB

__all__ = [
    "AccessPlan",
    "AddressGenerators",
    "ConflictResolutionBox",
    "FunctionalUnitLatencies",
    "LaneConfig",
    "LaneTLB",
    "N_LANES",
    "RefillStrategy",
    "RenameAllocator",
    "SLICE_SIZE",
    "Slice",
    "VboxIssue",
    "VectorTLB",
    "bank_pattern",
    "conflict_free_schedule",
    "is_reorderable",
    "lane_of_element",
    "schedule_cache_info",
]
