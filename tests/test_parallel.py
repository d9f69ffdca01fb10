import pytest

from cdiffkit import parallel


def test_worker_count_caps(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert parallel.worker_count(1, 100) == 1
    assert parallel.worker_count(3, 100) == 3
    assert parallel.worker_count(8, 100) == 4          # cpu count
    assert parallel.worker_count(10 ** 6, 100) == 4
    assert parallel.worker_count(8, 2) == 2            # items
    assert parallel.worker_count(8, 0) == 1
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.worker_count(8, 100) == 1


def test_worker_count_asks_for_the_cpu_count_only_for_two_workers(monkeypatch):
    def cpu_count():
        raise AssertionError("the cpu count was asked for")

    monkeypatch.setattr(parallel.os, "cpu_count", cpu_count)
    assert parallel.worker_count(1, 100) == 1
    assert parallel.worker_count(8, 1) == 1
    assert parallel.worker_count(8, 0) == 1


@pytest.mark.parametrize("threads", [0, -1])
def test_worker_count_rejects_below_one(threads):
    with pytest.raises(ValueError):
        parallel.worker_count(threads, 10)


def _scaled(state, item):
    return state * item


def test_parallel_map_order_and_state():
    items = list(range(20))
    expect = [3 * i for i in items]
    assert parallel.parallel_map(_scaled, 3, items, threads=1) == expect
    assert parallel.parallel_map(_scaled, 3, items, threads=2) == expect
    assert parallel.parallel_map(_scaled, 3, [], threads=2) == []
