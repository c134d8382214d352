"""Tests of the benchmark's own metric logic (no alskd import, no timing)."""

import math

import pytest

from measure import OpLedger, busy_time, epoch_durations, percentile, self_times
from tracing import reuse_ratio


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_percentile_leaves_at_least_ten_samples_beyond_p90_at_100_epochs():
    values = [float(i) for i in range(100)]
    p90 = percentile(values, 90)
    assert sum(v > p90 for v in values) == 10


def test_self_time_subtracts_nested_and_sibling_children_once():
    # 0: root [0, 10]; 1, 2: siblings under 0; 3: grandchild under 1
    start = [0.0, 1.0, 5.0, 1.5]
    end = [10.0, 4.0, 8.0, 2.5]
    parent = [-1, 0, 0, 1]
    own = self_times(start, end, parent)
    assert own.tolist() == [10.0 - 3.0 - 3.0, 3.0 - 1.0, 3.0, 1.0]
    assert math.isclose(own.sum(), 10.0)


def test_self_time_of_separate_roots():
    own = self_times([0.0, 2.0], [1.0, 5.0], [-1, -1])
    assert own.tolist() == [1.0, 3.0]


def test_epoch_boundaries_from_train_entry_and_store_returns():
    events = [("train", 0.0), ("store", 1.0), ("store", 3.0), ("train_end", 3.5),
              ("train", 10.0), ("store", 10.5), ("train_end", 11.0)]
    assert epoch_durations(events) == [1.0, 2.0, 0.5]
    with pytest.raises(ValueError):
        epoch_durations([("store", 1.0)])


def test_busy_time_sums_entry_to_exit_intervals():
    events = [("train", 0.0), ("store", 1.0), ("train_end", 2.0),
              ("train", 5.0), ("train_end", 6.5)]
    assert busy_time(events, "train", "train_end") == 3.5
    with pytest.raises(ValueError):
        busy_time([("train_end", 1.0)], "train", "train_end")


def test_error_rate_counts_each_command_once_over_all_attempted():
    ledger = OpLedger()
    ledger.record("ok", 0, [])
    ledger.record("two checks failed", 0, ["a", "b"])
    ledger.record("crashed", 3, [])
    ledger.record("ok again", 0, [])
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.error_rate == 0.5
    assert ledger.failures[1].startswith("crashed: exit code 3")
    with pytest.raises(ValueError):
        OpLedger().error_rate


def test_teacher_reuse_ratio_counts_repeats_within_a_run():
    # run 1 selects 1, 1, 2; run 2 selects 2 (not a repeat: new run), 2
    selections = [(1, 1), (1, 1), (1, 2), (2, 2), (2, 2)]
    assert reuse_ratio(selections) == 2 / 5
    assert reuse_ratio([]) == 0.0
