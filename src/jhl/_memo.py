"""The package's one cache: derived values keyed by kind-tagged tuples, per process."""

from __future__ import annotations

import threading
from concurrent.futures import Future

_lock = threading.Lock()
_cache: dict = {}


def memo(key, compute):
    """compute() for key, run once until clear(); callers must not mutate the result.

    A thread asking for a key that another thread is computing waits for that
    result. The lock is never held while compute runs, because computes nest
    (tensor, then order, then rule). A compute that raises stores nothing, and
    the threads waiting on it see the same exception.
    """
    with _lock:
        slot = _cache.get(key)
        owner = slot is None
        if owner:
            slot = _cache[key] = Future()
    if owner:
        try:
            slot.set_result(compute())
        except BaseException as exc:
            with _lock:
                if _cache.get(key) is slot:
                    del _cache[key]
            slot.set_exception(exc)
            raise
    return slot.result()


def clear() -> None:
    """Forget every memoised value."""
    with _lock:
        _cache.clear()
