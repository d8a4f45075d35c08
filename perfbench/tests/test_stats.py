"""The benchmark's statistics: percentiles and due-time latency.

Run with ``python3 -m pytest perfbench/tests`` from the repository
root.
"""

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    beyond,
    bucket_rate,
    chunked_tail,
    due_latencies,
    lateness,
    min_samples,
    nearest_rank,
    sliced_median,
)


def test_nearest_rank_picks_a_sample_not_an_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 40) == 2.0
    assert nearest_rank(values, 41) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank([7.0], 1) == 7.0


def test_p99_of_a_thousand_samples_leaves_ten_beyond():
    values = list(range(1, 1001))
    assert nearest_rank(values, 99) == 990
    assert beyond(1000, 99) == MIN_BEYOND
    assert chunked_tail(values, 99) == 990


@pytest.mark.parametrize("pct, count", [(99, 1000), (90, 100), (75, 40),
                                        (50, 20)])
def test_min_samples_is_the_smallest_size_with_ten_beyond(pct, count):
    assert min_samples(pct) == count
    assert beyond(count, pct) >= MIN_BEYOND
    assert beyond(count - 1, pct) < MIN_BEYOND


def test_tail_refuses_a_percentile_with_fewer_than_ten_beyond():
    with pytest.raises(ValueError):
        chunked_tail(list(range(999)), 99)
    with pytest.raises(ValueError):
        chunked_tail(list(range(99)), 90)
    assert chunked_tail(list(range(100)), 90) == 89


def test_chunked_tail_is_the_median_over_chunks_so_one_stall_is_not_it():
    steady = [float(v) for v in range(100)]
    stalled = [float(v) for v in range(90)] + [1e6] * 10
    assert chunked_tail(steady + stalled + steady, 90) == 89.0
    # A trailing partial chunk is left out.
    assert chunked_tail(steady + [1e9] * 99, 90) == 89.0


def test_sliced_median_ignores_a_stall_in_a_minority_of_slices():
    times = [0.1, 0.5, 1.2, 1.6, 2.3, 2.4, 2.5, 3.7]
    values = [1.0, 3.0, 2.0, 2.0, 90.0, 95.0, 99.0, 5.0]
    # Slice medians 2, 2, 95; the sample at 3.7 is past the last whole
    # slice of [0, 3.9).
    assert sliced_median(times, values, 0.0, 3.9) == 2.0
    with pytest.raises(ValueError):
        sliced_median([5.0], [1.0], 0.0, 3.0)


def test_bucket_rate_is_the_median_count_over_whole_slices():
    times = [0.1, 0.2, 0.3, 1.5, 2.1, 2.2, 2.9, 3.5]
    # Slices [0,1), [1,2), [2,3): counts 3, 1, 3; 3.5 is past the end.
    assert bucket_rate(times, 0.0, 3.2) == 3.0
    with pytest.raises(ValueError):
        bucket_rate(times, 0.0, 0.5)


def test_nearest_rank_rejects_empty_samples_and_bad_percentiles():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_latency_is_timed_from_the_due_time_not_the_send_time():
    start = 100.0
    due = [0.0, 0.010, 0.020, 0.030]
    # The generator stalled: requests 1 and 2 left 5 ms late, and
    # request 3 never got an answer.
    sent = [100.0, 100.015, 100.025, 100.030]
    arrivals = {0: 100.001, 1: 100.016, 2: 100.026}
    latencies = due_latencies(start, due, arrivals)
    assert latencies == pytest.approx([0.001, 0.006, 0.006])
    assert lateness(start, due, sent) == pytest.approx(
        [0.0, 0.005, 0.005, 0.0])


def test_lateness_skips_requests_never_sent():
    assert lateness(0.0, [0.0, 1.0], [0.5, None]) == [0.5]


def test_lib_figures_keep_routing_and_setup_apart():
    from perfbench.lib_workloads import WIDE_BATCH, _transit_and_setup

    def units(route, setup):
        return [{"batch.self_route": route, "batch.in_class_f": route,
                 "setup.batch_setup_states": setup,
                 "batch.route_with_states": setup}] * 3

    wide = _transit_and_setup("lib-wide", units(0.01, 0.02))
    assert wide["throughput_per_s"] == pytest.approx(
        2 * WIDE_BATCH / 0.02)
    assert wide["p50_us"] == pytest.approx(0.04 * 1e6)
    # Slower setup leaves the routing figure alone, and the reverse.
    assert _transit_and_setup("lib-wide", units(0.01, 0.5))[
        "throughput_per_s"] == wide["throughput_per_s"]
    assert _transit_and_setup("lib-wide", units(0.5, 0.02))[
        "p50_us"] == wide["p50_us"]

    large = _transit_and_setup("lib-large", units(0.1, 0.3))
    assert large["throughput_per_s"] == pytest.approx(1 / 0.4)
    assert large["p50_us"] == pytest.approx(0.3 * 1e6)
    assert large["large_route_s"] == pytest.approx(0.3)
