"""Tests for the package memo: one computation per key, no stored failures."""

import sys
import threading
import time
from collections import Counter

import pytest

from jhl._memo import clear, memo


def _join_all(threads):
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_callers_compute_once():
    key = ("test", "concurrent", object())
    started, release = threading.Event(), threading.Event()
    calls = []

    def compute():
        calls.append(threading.get_ident())
        started.set()
        assert release.wait(10)
        return "value"

    results = []
    first = threading.Thread(target=lambda: results.append(memo(key, compute)))
    first.start()
    assert started.wait(10)
    second = threading.Thread(target=lambda: results.append(memo(key, compute)))
    second.start()
    time.sleep(0.05)  # let the second caller reach the in-flight key
    release.set()
    _join_all([first, second])
    assert results == ["value", "value"]
    assert len(calls) == 1


def test_many_threads_share_one_value_per_key():
    keys = [("test", "stress", object()) for _ in range(40)]
    counts = Counter()
    count_lock = threading.Lock()

    def compute(key):
        with count_lock:
            counts[key] += 1
        time.sleep(0)
        return object()

    seen = [[] for _ in range(8)]

    def worker(i):
        for key in keys[i % 2::2] + keys:
            seen[i].append((key, memo(key, lambda: compute(key))))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        _join_all(threads)
    finally:
        sys.setswitchinterval(old)
    assert all(counts[key] == 1 for key in keys)
    values = {}
    for pairs in seen:
        for key, value in pairs:
            assert values.setdefault(key, value) is value


def test_raising_compute_is_not_cached():
    key = ("test", "raises", object())

    def boom():
        raise RuntimeError("compute failed")

    with pytest.raises(RuntimeError, match="compute failed"):
        memo(key, boom)
    assert memo(key, lambda: 7) == 7
    assert memo(key, boom) == 7


def test_nested_computes_do_not_deadlock():
    outer, inner = ("test", "outer", object()), ("test", "inner", object())
    assert memo(outer, lambda: memo(inner, lambda: 2) + 1) == 3


def test_clear_forgets_values():
    key = ("test", "clear", object())
    assert memo(key, lambda: 1) == 1
    clear()
    assert memo(key, lambda: 2) == 2
