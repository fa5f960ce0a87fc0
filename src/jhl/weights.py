"""Discrete Muckenhoupt constants, weighted norms, and empirical operator norms.

Weights are strictly positive finite sequences on an initial segment of the
nonnegative integers; every quantity here is a finite max over intervals or
probes, so results are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "WeightSpec",
    "ProbePolicy",
    "ap_constant",
    "a1_constant",
    "weighted_norm",
    "weak_quasinorm",
    "probe_matrix",
    "operator_norm_estimate",
    "norm_ratio_max",
]


def _check_weight(w: np.ndarray) -> np.ndarray:
    wv = np.asarray(w, dtype=float)
    if wv.ndim != 1 or wv.size == 0:
        raise ValueError("weight must be a nonempty 1-D array")
    if not np.all(np.isfinite(wv)) or np.any(wv <= 0.0):
        raise ValueError("weight entries must be finite and strictly positive")
    return wv


@dataclass(frozen=True)
class WeightSpec:
    """Recipe for a weight: constant 1, a power (n+1)^exponent, or explicit values.

    A file weight reads its path on resolve unless it already carries the
    values, as it does when it comes from a run configuration.
    """

    kind: str
    exponent: float = 0.0
    values: tuple = ()
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "power", "explicit", "file"):
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def resolve(self, size: int) -> np.ndarray:
        if size < 1:
            raise ValueError("size must be positive")
        if self.kind == "constant":
            return np.ones(size)
        if self.kind == "power":
            return (np.arange(size) + 1.0) ** self.exponent
        if self.values:
            vals = np.asarray(self.values, dtype=float)
        else:
            vals = np.loadtxt(Path(self.path), dtype=float, ndmin=1)
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
        raise ValueError("ap_constant needs p > 1; use a1_constant at p = 1")
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


def a1_constant(w: np.ndarray) -> float:
    """A_1 constant: sup over intervals of (average of w) * max(1/w) on the interval."""
    wv = _check_weight(w)
    cw = np.concatenate(([0.0], np.cumsum(wv)))
    inv = 1.0 / wv
    best = 0.0
    size = wv.size
    for n in range(size):
        running = np.maximum.accumulate(inv[n:])
        m = np.arange(n, size)
        cand = (cw[m + 1] - cw[n]) / (m - n + 1.0) * running
        best = max(best, float(cand.max()))
    return best


def weighted_norm(f: np.ndarray, p: float, w: np.ndarray) -> float:
    """(sum |f|^p w)^(1/p) with f and w aligned from index 0."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    fv = np.asarray(f, dtype=float)
    wv = _check_weight(w)
    if fv.size > wv.size:
        raise ValueError("weight must cover the signal support")
    return float((np.abs(fv) ** p @ wv[: fv.size]) ** (1.0 / p))


def weak_quasinorm(f: np.ndarray, w: np.ndarray) -> float | np.ndarray:
    """Weak-l^1 quasinorm sup_lam lam * w({|f| > lam}) of one signal (size,),
    or of each column of a matrix (size, P).

    The sup over lam > 0 is attained just below a value of |f|, so it equals
    the max over levels v of v * w({|f| >= v}). With |f| sorted in descending
    order that is the max of v times the running sum of w; inside a run of
    equal levels the last member has the largest sum, which is w({|f| >= v}).
    """
    fv = np.abs(np.asarray(f, dtype=float))
    wv = _check_weight(w)
    if fv.shape[0] > wv.size:
        raise ValueError("weight must cover the signal support")
    cols = fv[:, None] if fv.ndim == 1 else fv
    order = np.argsort(-cols, axis=0, kind="stable")
    levels = np.take_along_axis(cols, order, axis=0)
    mass = np.cumsum(wv[order], axis=0)
    best = (levels * mass).max(axis=0, initial=0.0)
    return float(best[0]) if fv.ndim == 1 else best


@dataclass(frozen=True)
class ProbePolicy:
    """Probe family: every delta on the range plus seeded random signals."""

    size: int
    n_random: int = 8
    seed: int = 0


def probe_matrix(policy: ProbePolicy) -> np.ndarray:
    """Columns are probes: identity block, then sign probes, then Gaussian probes."""
    if policy.size < 1:
        raise ValueError("probe range must be positive")
    rng = np.random.default_rng(policy.seed)
    deltas = np.eye(policy.size)
    signs = rng.choice([-1.0, 1.0], size=(policy.size, policy.n_random))
    gauss = rng.standard_normal((policy.size, policy.n_random))
    return np.concatenate([deltas, signs, gauss], axis=1)


def norm_ratio_max(images: np.ndarray, probes: np.ndarray, p: float,
                   w: np.ndarray) -> float:
    """max_j ||images[:, j]||_{p,w} / ||probes[:, j]||_{p,w}, skipping zero probes."""
    wv = _check_weight(w)
    num = (np.abs(images) ** p * wv[: images.shape[0], None]).sum(axis=0) ** (1.0 / p)
    den = (np.abs(probes) ** p * wv[: probes.shape[0], None]).sum(axis=0) ** (1.0 / p)
    keep = den > 0.0
    if not keep.any():
        return 0.0
    return float((num[keep] / den[keep]).max())


def operator_norm_estimate(op, p: float, w: np.ndarray, policy: ProbePolicy) -> float:
    """Lower estimate of the l^p(w) operator norm of `op` over the probe family."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    probes = probe_matrix(policy)
    images = np.stack([np.asarray(op(probes[:, j]), dtype=float)
                       for j in range(probes.shape[1])], axis=1)
    return norm_ratio_max(images, probes, p, w)
