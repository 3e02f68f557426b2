import threading
import time

import pytest

from dopplerveil import _shares


def _record(cpus, items, monkeypatch):
    """(thread, share) of each call _in_shares makes on cpus CPUs."""
    monkeypatch.setattr(_shares, "_cpus", lambda: cpus)
    calls, lock = [], threading.Lock()

    def work(share):
        with lock:
            calls.append((threading.get_ident(), share))

    _shares._in_shares(work, items)
    return calls


def test_shares_interleave_and_the_caller_runs_the_first(monkeypatch):
    calls = _record(3, range(7), monkeypatch)
    assert sorted(share for _, share in calls) == [[0, 3, 6], [1, 4], [2, 5]]
    me = threading.get_ident()
    assert [share for thread, share in calls if thread == me] == [[0, 3, 6]]


@pytest.mark.parametrize("cpus, items", [(1, range(5)), (4, [7])],
                         ids=["one-cpu", "one-item"])
def test_one_cpu_or_one_item_runs_inline(cpus, items, monkeypatch):
    assert _record(cpus, items, monkeypatch) == [(threading.get_ident(),
                                                  list(items))]


def test_a_share_error_reaches_the_caller_after_every_share(monkeypatch):
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)
    done = []

    def work(share):
        if share[0] == 1:
            raise ValueError("share 1")
        done.append(share)

    with pytest.raises(ValueError, match="share 1"):
        _shares._in_shares(work, range(4))
    assert done == [[0, 2]]


def test_work_that_splits_again_on_the_pool_runs_inline(monkeypatch):
    # A pool worker waiting on the pool it occupies would never return.
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)
    inner = {}

    def work(share):
        if share == [1]:
            inner["calls"] = _record(2, range(4), monkeypatch)
            inner["thread"] = threading.get_ident()

    _shares._in_shares(work, range(2))
    assert inner["calls"] == [(inner["thread"], [0, 1, 2, 3])]


def test_a_split_inside_the_callers_own_share_runs_inline(monkeypatch):
    # Shares never nest: while another share runs, the caller's share
    # splits no further either.
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)
    inner, split = {}, threading.Event()

    def work(share):
        if share == [0]:
            inner["calls"] = _record(2, range(4), monkeypatch)
            split.set()
        else:
            assert split.wait(30)

    _shares._in_shares(work, range(2))
    assert inner["calls"] == [(threading.get_ident(), [0, 1, 2, 3])]


def test_the_callers_share_splits_again_once_the_others_are_done(
        monkeypatch):
    # The caller's share then has the CPUs to itself.
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)
    inner = {}

    def work(share):
        if share == [0]:
            for _ in range(30000):
                if not _shares._inline():
                    break
                time.sleep(0.001)
            inner["calls"] = _record(2, range(4), monkeypatch)

    _shares._in_shares(work, range(2))
    assert sorted(share for _, share in inner["calls"]) == [[0, 2], [1, 3]]
    assert len({thread for thread, _ in inner["calls"]}) == 2


@pytest.mark.parametrize("most, shares", [
    (1, [[0, 1, 2, 3, 4]]), (2, [[0, 2, 4], [1, 3]]),
    (9, [[0, 4], [1], [2], [3]])])
def test_most_caps_the_share_count(monkeypatch, most, shares):
    monkeypatch.setattr(_shares, "_cpus", lambda: 4)
    calls, lock = [], threading.Lock()

    def work(share):
        with lock:
            calls.append(share)

    _shares._in_shares(work, range(5), most=most)
    assert sorted(calls) == shares


def test_the_callers_mark_is_cleared_after_its_share_raises(monkeypatch):
    monkeypatch.setattr(_shares, "_cpus", lambda: 2)

    def work(share):
        if share == [0]:
            raise ValueError("share 0")

    with pytest.raises(ValueError, match="share 0"):
        _shares._in_shares(work, range(2))
    calls = _record(2, range(4), monkeypatch)
    assert sorted(share for _, share in calls) == [[0, 2], [1, 3]]
    assert len({thread for thread, _ in calls}) == 2
