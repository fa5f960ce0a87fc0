"""The package's one cache: derived values keyed by kind-tagged tuples, per process.

It holds the quadrature kernels' shared inputs, never the kernels: "rows"
(the Gauss-Jacobi eigen-rows), "laguerre_order" and "laguerre" keys. The
package runs no threads; a forked `--workers` process has its own copy.
"""

from __future__ import annotations

_cache: dict = {}


def memo(key, compute):
    """compute() for key, run once until clear(); callers must not mutate the result.

    Computes may nest (a Laguerre order, then Laguerre rules). A compute that raises
    stores nothing.
    """
    if key not in _cache:
        _cache[key] = compute()
    return _cache[key]


def clear() -> None:
    """Forget every memoised value."""
    _cache.clear()
