"""Discrete Muckenhoupt constants, weighted norms, and empirical operator norms.

Weights are strictly positive finite sequences on an initial segment of the
nonnegative integers; every quantity here is a finite max over intervals or
probes, so results are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightSpec",
    "ap_constant",
    "weak_quasinorm",
    "probe_matrix",
    "norm_ratio_max",
]


def _check_weight(w: np.ndarray) -> np.ndarray:
    wv = np.asarray(w, dtype=float)
    if wv.ndim != 1 or wv.size == 0:
        raise ValueError("weight must be a nonempty 1-D array")
    if not np.all(np.isfinite(wv)) or np.any(wv <= 0.0):
        raise ValueError("weight entries must be finite and strictly positive")
    return wv


def _check_weights(w) -> tuple:
    """One weight (size,) or a stack (C, size) of weights, checked in one
    `_check_weight` call, as a stack, and whether w was a single weight."""
    wv = np.asarray(w, dtype=float)
    if wv.ndim == 2:
        _check_weight(wv.reshape(-1))
        return wv, False
    return _check_weight(wv)[None], True


@dataclass(frozen=True)
class WeightSpec:
    """Recipe for a weight: constant 1, a power (n+1)^exponent, or explicit values.

    An explicit or file weight resolves to its values; a run configuration
    reads a file weight's path into them when it loads, and keeps the path
    only as the weight's recorded source.
    """

    kind: str
    exponent: float = 0.0
    values: tuple = ()
    path: str = ""

    # the keys each kind reads besides `kind`
    READS = {"constant": (), "power": ("exponent",), "explicit": ("values",), "file": ("path",)}

    def __post_init__(self) -> None:
        if self.kind not in self.READS:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def resolve(self, size: int) -> np.ndarray:
        if size < 1:
            raise ValueError("size must be positive")
        if self.kind == "constant":
            return np.ones(size)
        if self.kind == "power":
            # an exponent too large for the size overflows or underflows;
            # _check_weight rejects the result instead of warning
            with np.errstate(over="ignore"):
                return _check_weight((np.arange(size) + 1.0) ** self.exponent)
        vals = np.asarray(self.values, dtype=float)
        if vals.size < size:
            raise ValueError(f"explicit weight covers {vals.size} < {size} indices")
        return _check_weight(vals[:size])

    def label(self) -> str:
        if self.kind == "constant":
            return "const"
        if self.kind == "power":
            return f"pow{self.exponent:g}"
        return self.kind


def ap_constant(w: np.ndarray, p: float) -> float:
    """Muckenhoupt A_p constant over subintervals of the weight's range.

    sup over 0 <= n <= m of (m-n+1)^(-p) (sum w) (sum w^(-1/(p-1)))^(p-1);
    always at least 1 by Jensen.
    """
    if p <= 1.0:
        raise ValueError("ap_constant needs p > 1")
    wv = _check_weight(w)
    dual = wv ** (-1.0 / (p - 1.0))
    cw = np.concatenate(([0.0], np.cumsum(wv)))
    cd = np.concatenate(([0.0], np.cumsum(dual)))
    best = 0.0
    size = wv.size
    for n in range(size):
        m = np.arange(n, size)
        length = m - n + 1.0
        cand = (cw[m + 1] - cw[n]) * (cd[m + 1] - cd[n]) ** (p - 1.0) / length ** p
        best = max(best, float(cand.max()))
    return best


def weak_quasinorm(f: np.ndarray, w: np.ndarray) -> float | np.ndarray:
    """Weak-l^1 quasinorm sup_lam lam * w({|f| > lam}) of one signal (size,),
    or of each signal f[:, j, ...] of an array (size, ...), such as the columns
    of a matrix (size, P) or a stack (size, F, P) of F image families.

    The sup over lam > 0 is attained just below a value of |f|, so it equals
    the max over levels v of v * w({|f| >= v}). With |f| sorted in descending
    order that is the max of v times the running sum of w; inside a run of
    equal levels the last member has the largest sum, which is w({|f| >= v}).

    w is one weight (size,), or a stack (C, size) of weights, which adds a
    leading axis of C to the result: |f| and its sort are taken once and
    reduced under each weight in turn.
    """
    fv = np.abs(np.asarray(f, dtype=float))
    weights, single = _check_weights(w)
    if fv.shape[0] > weights.shape[1]:
        raise ValueError("weight must cover the signal support")
    cols = fv[:, None] if fv.ndim == 1 else fv
    order = np.argsort(-cols, axis=0, kind="stable")
    levels = np.take_along_axis(cols, order, axis=0)
    best = np.empty((len(weights),) + cols.shape[1:])
    for c, wv in enumerate(weights):
        mass = np.cumsum(wv[order], axis=0)
        best[c] = (levels * mass).max(axis=0, initial=0.0)
    best = best.reshape((len(weights),) + fv.shape[1:])
    if not single:
        return best
    return float(best[0]) if fv.ndim == 1 else best[0]


def probe_matrix(size: int, n_random: int, seed: int) -> np.ndarray:
    """Columns are probes on the first `size` indices: every delta, then
    `n_random` sign probes, then `n_random` Gaussian probes, seeded by `seed`."""
    if size < 1:
        raise ValueError("probe range must be positive")
    rng = np.random.default_rng(seed)
    deltas = np.eye(size)
    signs = rng.choice([-1.0, 1.0], size=(size, n_random))
    gauss = rng.standard_normal((size, n_random))
    return np.concatenate([deltas, signs, gauss], axis=1)


def norm_ratio_max(images: np.ndarray, probes: np.ndarray, p: float,
                   w: np.ndarray) -> float | np.ndarray:
    """max_j ||images[..., :, j]||_{p,w} / ||probes[:, j]||_{p,w}, skipping zero
    probes: images is (k, P), or a stack (F, k, P) of F image families of the
    same probes, maxed over the families too.

    w is one weight (size,), giving a float, or a stack (C, size) of weights,
    giving one max per weight: |images|^p and |probes|^p are taken once and
    summed under each weight in turn."""
    weights, single = _check_weights(w)
    k = images.shape[-2]
    powered = np.abs(images) ** p
    probe_powered = np.abs(probes) ** p
    best = np.zeros(len(weights))
    for c, wv in enumerate(weights):
        num = (powered * wv[:k, None]).sum(axis=-2) ** (1.0 / p)
        den = (probe_powered * wv[: probes.shape[0], None]).sum(axis=0) ** (1.0 / p)
        keep = den > 0.0
        if keep.any():
            best[c] = (num[..., keep] / den[keep]).max()
    return float(best[0]) if single else best
