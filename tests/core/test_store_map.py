"""The line-granular store map against the per-quadword reference.

``QuadwordStoreMap`` is the memory-dependence map the processor kept
before :class:`repro.core.storemap.StoreMap`: one dict entry per
quadword address, a 128-address intersection per aliased access, and
quadword-counted amortized pruning.  It stays here as the oracle: over
random store and load footprints the line map must give the same
bounds, the same stalls, the same prune counts and the same map size.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storemap import PRUNE_AGE, StoreMap
from repro.utils.stats import Counter
from repro.vbox.address_gen import footprint


class QuadwordStoreMap:
    """Reference model: quadword address -> last store completion."""

    def __init__(self, threshold: int = 1 << 17) -> None:
        self.last: dict[int, float] = {}
        self.watermark = 0.0
        self.threshold = threshold
        self.stalls = 0
        self.pruned = 0

    def order(self, touched, earliest: float) -> float:
        last = self.last
        if not last or earliest >= self.watermark:
            return earliest
        bound = earliest
        for addr in last.keys() & set(touched):
            if last[addr] > bound:
                bound = last[addr]
        if bound > earliest:
            self.stalls += 1
        return bound

    def record(self, touched, completion: float) -> None:
        self.last.update(dict.fromkeys(touched, completion))
        if completion > self.watermark:
            self.watermark = completion
        if len(self.last) > self.threshold:
            before = len(self.last)
            cutoff = self.watermark - PRUNE_AGE
            self.last = {a: t for a, t in self.last.items() if t > cutoff}
            self.pruned += before - len(self.last)
            if len(self.last) > self.threshold >> 1:
                self.threshold <<= 1


_BASE = 0x40000


@st.composite
def _addresses(draw):
    """One access's quadword addresses: strided (either sign, stride 0
    with duplicates, misaligned spans) or a gather set."""
    if draw(st.booleans()):
        offset = draw(st.integers(0, 64 * 24)) * 8 + draw(
            st.sampled_from([0, 0, 0, 3]))          # sometimes misaligned
        stride = draw(st.sampled_from(
            [8, -8, 16, -24, 0, 64, -72, 1032, 8 * 17]))
        vl = draw(st.integers(1, 128))
        base = _BASE + 128 * 1032 + offset
        return [base + i * stride for i in range(vl)]
    return [_BASE + 8 * q for q in draw(
        st.lists(st.integers(0, 64 * 8), min_size=1, max_size=128))]


#: (store?, addresses, time advance, service time, rebase by lines)
_OP = st.tuples(st.booleans(), _addresses(),
                st.sampled_from([0.0, 1.0, 7.5, 40.0, PRUNE_AGE + 1]),
                st.sampled_from([1.0, 20.0, 300.0]),
                st.integers(-4, 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(_OP, max_size=60), st.sampled_from([16, 200, 1 << 17]))
def test_line_map_matches_quadword_reference(ops, threshold):
    counters = Counter()
    lines = StoreMap(counters)
    lines.threshold = threshold
    ref = QuadwordStoreMap(threshold)
    stalls = 0
    clock = 0.0
    for is_store, addrs, advance, service, shift in ops:
        clock += advance
        # plans are cached at one base and replayed at another: hand
        # the line map a footprint built 1024*shift bytes away
        delta = 1024 * shift
        keys, masks = footprint([a - delta for a in addrs])
        bound = lines.order(keys, masks, delta, clock)
        assert bound == ref.order(addrs, clock)
        stalls += bound > clock
        # the footprint-free prefilter never misses an alias
        line_lists = [sorted({(a - delta) & ~63 for a in addrs})]
        assert lines.may_alias(line_lists, delta) or bound == clock
        if is_store:
            lines.record(keys, masks, delta, bound + service)
            ref.record(addrs, bound + service)
        assert lines.quadwords == len(ref.last)
        assert lines.threshold == ref.threshold
        assert lines.watermark == ref.watermark
    assert stalls == ref.stalls
    assert counters["store_map_pruned"] == ref.pruned


def test_pruning_is_reached_and_counted_in_quadwords():
    counters = Counter()
    lines = StoreMap(counters)
    lines.threshold = 8
    ref = QuadwordStoreMap(8)
    for k, t in enumerate((1.0, 2.0, 3.0 + PRUNE_AGE)):
        addrs = [_BASE + 64 * k + 8 * q for q in range(6)]
        keys, masks = footprint(addrs)
        lines.record(keys, masks, 0, t)
        ref.record(addrs, t)
    assert ref.pruned == 12
    assert counters["store_map_pruned"] == 12
    assert lines.quadwords == len(ref.last) == 6


def test_footprint_keys_lines_and_keeps_misaligned_addresses_apart():
    keys, masks = footprint([0x1000, 0x1008, 0x1038, 0x1040, 0x1003])
    assert dict(zip(keys, masks)) == {0x1000: 0b10000011, 0x1040: 1,
                                      0x1003: 1}
