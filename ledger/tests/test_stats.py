"""Percentile, slice-median, spread and span self-time helpers."""

import json

import pytest

from ledger import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 51
    assert stats.percentile(values, 0.99) == 100
    assert stats.percentile([5.0], 0.99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_slice_rate_median_drops_the_partial_slice_and_ignores_strays():
    stamps = [10.1] * 4 + [11.5] * 6 + [12.2] * 5 + [13.4] * 99 + [9.0]
    assert stats.slice_rate_median(stamps, 10.0, 13.5) == 5
    # a window shorter than one slice (smoke runs) is one slice
    assert stats.slice_rate_median([0.1, 0.2, 0.3], 0.0, 0.5) == 6


def test_spread_is_interquartile_distance_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert stats.spread(values) == pytest.approx(5.5 / 14.5)
    assert stats.spread([3.0, 3.0, 3.0]) == 0.0


def test_self_time_is_duration_minus_children():
    #        name     start end  parent op
    spans = [["request", 0.0, 10.0, -1, 1],
             ["parse", 1.0, 3.0, 0, 1],
             ["ask", 4.0, 9.0, 0, 1],
             ["query", 5.0, 8.0, 2, 1]]
    self_us = stats.self_times_us(spans)
    assert self_us["request"] == [pytest.approx(3.0e6)]
    assert self_us["ask"] == [pytest.approx(2.0e6)]
    assert self_us["parse"] == [pytest.approx(2.0e6)]
    assert self_us["query"] == [pytest.approx(3.0e6)]


def test_span_log_records_parents_and_a_disabled_log_records_nothing(tmp_path):
    log = stats.SpanLog()
    root = log.begin("request", 1)
    child = log.begin("parse", 1, root)
    log.end(child)
    log.end(root)
    assert [(s[0], s[3], s[4]) for s in log.spans] == [("request", -1, 1), ("parse", 0, 1)]
    assert all(s[2] >= s[1] for s in log.spans)
    path = tmp_path / "trace.json"
    log.write(str(path), "w")
    doc = json.loads(path.read_text())
    assert doc["spans_recorded"] == 2 and doc["names"] == ["parse", "request"]
    assert doc["spans"][1][3] == 0            # the child points at its parent

    off = stats.SpanLog(enabled=False)
    off.end(off.begin("request", 1))
    assert off.spans == []
