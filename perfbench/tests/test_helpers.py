"""Tests for the benchmark's own helpers (no simulation involved).

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import itertools

import pytest

from common import (
    REF_PROBE_S,
    check_cycles,
    cycles_pin_key,
    payload_digest,
    quantile,
    scaled_span,
    summarize,
    tail_percentile,
)
from tracer import Tracer, serve_split
from workloads import OPS_PER_MISS, SERVE_HITS, SERVE_MISSES, client_ops, \
    miss_order


# -- percentile rule ------------------------------------------------------------


def test_p99_kept_when_ten_samples_lie_beyond_it():
    values = list(range(1, 1001))
    pct, value = tail_percentile(values, 99)
    assert pct == 99
    assert value == pytest.approx(quantile(values, 0.99))
    assert sum(v > value for v in values) >= 10


def test_percentile_falls_back_to_highest_with_ten_beyond():
    values = list(range(500))
    pct, value = tail_percentile(values, 99)
    assert pct == pytest.approx(98.0)
    assert sum(v > value for v in values) >= 10


def test_percentile_never_below_median():
    pct, value = tail_percentile([3.0, 1.0, 2.0], 90)
    assert pct == 50.0
    assert value == 2.0


def test_quantile_interpolates_and_spread_is_quartile_distance():
    assert quantile([0.0, 10.0], 0.25) == 2.5
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    # statistics.quantiles(n=4) exclusive method: q1=1.5, q3=4.5
    assert summarize(values)["spread"] == pytest.approx((4.5 - 1.5) / 3.0)


def test_scaled_span_scales_each_part_by_its_own_probes():
    ref = REF_PROBE_S
    assert scaled_span(0.0, 4.0, []) == 4.0
    steady = [(t, ref) for t in (0.5, 1.0, 1.5)]
    assert scaled_span(0.0, 4.0, steady) == pytest.approx(4.0)
    # the host ran twice as slow (probes twice as long) from t=2 on
    marks = [(0.0, ref), (2.0, 2 * ref)]
    assert scaled_span(0.0, 4.0, marks, window=1) == pytest.approx(3.0)


# -- self time over nested and recursive spans ---------------------------------


def _tracer(ticks):
    clock = iter(ticks)
    return Tracer(clock=lambda: next(clock))


def test_self_time_subtracts_nested_children():
    t = _tracer([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t.enter("harness.execute")         # 0
    t.enter("core.timing")             # 1
    t.exit()                           # 3  -> timing 2
    t.enter("harness.verify")          # 4
    t.exit()                           # 6  -> verify 2
    t.exit()                           # 10 -> execute 10, self 6
    assert t.incl("harness.execute") == 10.0
    assert t.self_s("harness.execute") == 6.0
    assert t.self_s("core.timing") == 2.0
    assert t.total_self() == 10.0
    (verify,) = [s for s in t.spans if s[2] == "harness.verify"]
    (execute,) = [s for s in t.spans if s[2] == "harness.execute"]
    assert verify[1] == execute[0]      # parent id is the enclosing span


def test_recursive_span_counted_once_inclusive():
    t = _tracer([0.0, 2.0, 5.0, 9.0])
    t.enter("utils.reserve")           # 0
    t.enter("utils.reserve")           # 2
    t.exit()                           # 5 inner: 3
    t.exit()                           # 9 outer: 9, self 6
    assert t.calls("utils.reserve") == 2
    assert t.incl("utils.reserve") == 9.0
    assert t.self_s("utils.reserve") == 9.0
    assert t.total_self() == 9.0


def test_aggregated_frames_have_no_span_but_still_subtract():
    t = _tracer([0.0, 1.0, 2.0, 4.0])
    t.enter("harness.execute")
    t.enter("core.step")               # hot function: aggregated only
    t.exit()
    t.exit()
    assert [s[2] for s in t.spans] == ["harness.execute"]
    assert t.self_s("harness.execute") == 3.0


def test_counter_hook_counts_calls():
    t = Tracer()
    bump = t.count("utils.counter_add")
    for _ in range(5):
        bump()
    assert t.counted("utils.counter_add") == 5


def test_serve_split_attributes_engine_spans_to_requests():
    t = _tracer([1.0, 1.5, 5.0, 6.0])
    t.enter("serve.probe")
    t.exit()                           # request 1: 0.5 s engine
    t.enter("harness.execute_many")
    t.exit()                           # request 2: 1.0 s engine
    split = serve_split(t, [(0.9, 2.0), (4.9, 7.0)])
    assert split["serve.engine_p50_ms"] == pytest.approx(750.0)
    assert split["serve.overhead_p50_ms"] == pytest.approx(850.0)


# -- pins --------------------------------------------------------------------------


def test_cycles_pin_compares_float_hex_exactly():
    pins = {cycles_pin_key("dgemm", "T", 0.07): (1234.5).hex()}
    assert check_cycles(pins, "dgemm", "T", 0.07, 1234.5)
    assert not check_cycles(pins, "dgemm", "T", 0.07, 1234.5000000000002)
    assert not check_cycles(pins, "dgemm", "EV8", 0.07, 1234.5)


def test_payload_digest_ignores_key_order_but_not_values():
    a = {"cycles": 1.0, "kernel": "swim"}
    assert payload_digest(a) == payload_digest({"kernel": "swim",
                                                "cycles": 1.0})
    assert payload_digest(a) != payload_digest({"cycles": 1.0000000001,
                                                "kernel": "swim"})


# -- seeded serve mix -----------------------------------------------------------------


def _mix(seed, client, n=2000):
    return list(itertools.islice(client_ops(seed, client), n))


def test_seed_gives_the_same_serve_mix_every_time():
    assert _mix(7, 0) == _mix(7, 0)
    assert miss_order(7) == miss_order(7)
    assert _mix(7, 0) != _mix(8, 0)
    assert _mix(7, 0) != _mix(7, 1)
    assert miss_order(7) != miss_order(8)


def test_serve_mix_share_and_pools():
    ops = _mix(3, 0, 100 * OPS_PER_MISS)
    for i in range(0, len(ops), OPS_PER_MISS):
        block = ops[i:i + OPS_PER_MISS]
        assert [kind for kind, _ in block].count("miss") == 1
    hits = [idx for kind, idx in ops if kind == "hit"]
    # every hit spec is resubmitted equally often, give or take one
    counts = [hits.count(i) for i in range(len(SERVE_HITS))]
    assert max(counts) - min(counts) <= 1
    order = miss_order(3)
    assert sorted(order) == list(range(len(SERVE_MISSES)))
    # every block of misses holds each miss kernel once
    kernels = {s["kernel"] for s in SERVE_MISSES}
    for i in range(0, len(order), len(kernels)):
        block = {SERVE_MISSES[j]["kernel"] for j in order[i:i + len(kernels)]}
        assert block == kernels
    keys = {repr(sorted(s.items())) for s in SERVE_MISSES}
    assert len(keys) == len(SERVE_MISSES)       # every miss is fresh


# -- per-layer metrics ------------------------------------------------------------


def test_traced_run_produces_exactly_the_declared_per_layer_metrics():
    from common import load_benchmark
    from tracer import finish_layers, layer_values

    values = finish_layers(layer_values(Tracer(), {}, {}, 1.0), 1.0)
    declared = [m["name"] for m in load_benchmark()["per_layer"]]
    assert sorted(values) == sorted(declared)
