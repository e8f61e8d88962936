"""The seed, and nothing else, decides the inputs."""

import itertools

import pytest

from ledger import traffic


def _bytes(workload, seed, count=2000):
    return b"".join(r.raw for r in itertools.islice(traffic.serve_requests(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(traffic.SERVE))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)
    assert traffic.arrivals(workload, 7, 300.0, 5.0) == traffic.arrivals(workload, 7, 300.0, 5.0)
    assert traffic.arrivals(workload, 7, 300.0, 5.0) != traffic.arrivals(workload, 8, 300.0, 5.0)


def test_arrivals_are_a_poisson_schedule_inside_the_window():
    offsets = traffic.arrivals("serve_hot_read", 1, 300.0, 20.0)
    assert offsets == sorted(offsets) and 0 < offsets[0] and offsets[-1] < 20.0
    assert 5400 < len(offsets) < 6600          # 6000 expected, sd 77


def test_mix_follows_the_workload_table():
    for workload, spec in traffic.SERVE.items():
        requests = list(itertools.islice(traffic.serve_requests(workload, 3), 4000))
        reads = sum(r.method == "GET" for r in requests) / len(requests)
        assert abs(reads - spec.read_share) < 0.03
        assert all(0 <= r.case < spec.cases for r in requests)
        tokens = [r.token for r in requests if r.method == "POST"]
        assert len(tokens) == len(set(tokens)) and all(tokens)
        closes = sum(b"Connection: close" in r.raw for r in requests)
        assert closes == (0 if spec.keep_alive else len(requests))


def test_preload_creates_every_case_once():
    requests = traffic.preload_requests("serve_hot_read")
    assert [r.case for r in requests] == list(range(64))
    assert all(r.method == "PUT" for r in requests)
