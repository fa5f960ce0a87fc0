"""Tests for the package memo: one computation per key, no stored failures."""

import pytest

from jhl._memo import clear, memo


def test_compute_runs_once_per_key():
    keys = [("test", "once", object()) for _ in range(3)]
    calls = []

    def compute(i):
        calls.append(i)
        return object()

    first = [memo(key, lambda i=i: compute(i)) for i, key in enumerate(keys)]
    again = [memo(key, lambda i=i: compute(i)) for i, key in enumerate(keys)]
    assert calls == [0, 1, 2]
    assert all(a is b for a, b in zip(first, again))
    assert len({id(v) for v in first}) == 3


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
