"""Path functionals along heat flows and the discrete operators built from them.

A path is t -> W_t f(n) sampled on a time grid and stored along the last
axis of an array; the batch routes take any number of paths at once.
Variation, oscillation and jump counts are computed exactly on the grid, so
they are lower bounds for the continuous-parameter functionals that only
improve under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "BandSequence",
    "LacunarySequence",
    "default_bands",
    "variation_batch",
    "oscillation_batch",
    "jump_count_batch",
    "hl_maximal_all",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive times."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("time grid must be a nonempty 1-D array")
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be positive and strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def geometric(cls, t_min: float, t_max: float, count: int) -> "TimeGrid":
        if count < 2 or t_min <= 0.0 or t_max <= t_min:
            raise ValueError("need count >= 2 and 0 < t_min < t_max")
        return cls(np.geomspace(t_min, t_max, count))


@dataclass(frozen=True)
class BandSequence:
    """Decreasing positive band edges t_1 > t_2 > ...; band j is [t_{j+1}, t_j]."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("band sequence needs at least two edges")
        if e[-1] <= 0.0 or np.any(np.diff(e) >= 0.0):
            raise ValueError("band edges must be positive and strictly decreasing")
        object.__setattr__(self, "edges", e)


def default_bands(grid: TimeGrid) -> BandSequence:
    """Dyadic band edges t_max, t_max/2, ... staying inside the grid span."""
    t_min, t_max = float(grid.times[0]), float(grid.times[-1])
    edges = [t_max]
    while edges[-1] / 2.0 >= t_min:
        edges.append(edges[-1] / 2.0)
    return BandSequence(np.array(edges))


@dataclass(frozen=True)
class LacunarySequence:
    """Increasing positive times a_j, j = j_min..j_max, with ratio control.

    Consecutive ratios must lie between `ratio` (> 1) and ratio^2.
    """

    j_min: int
    values: np.ndarray
    ratio: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("lacunary sequence needs at least two values")
        if v[0] <= 0.0:
            raise ValueError("lacunary values must be positive")
        if self.ratio <= 1.0:
            raise ValueError("lacunary ratio must exceed 1")
        r = v[1:] / v[:-1]
        if np.any(r < self.ratio * (1.0 - 1e-12)):
            raise ValueError("consecutive ratios fall below the declared lower bound")
        if np.any(r > self.ratio ** 2 * (1.0 + 1e-12)):
            raise ValueError("consecutive ratios rise above ratio^2")
        object.__setattr__(self, "values", v)

    @property
    def j_max(self) -> int:
        return self.j_min + self.values.size - 1

    def value(self, j: int) -> float:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"index {j} outside lacunary window [{self.j_min}, {self.j_max}]")
        return float(self.values[j - self.j_min])

    @classmethod
    def geometric(cls, ratio: float, j_min: int, j_max: int) -> "LacunarySequence":
        if j_max <= j_min:
            raise ValueError("need j_max > j_min")
        j = np.arange(j_min, j_max + 1, dtype=float)
        return cls(j_min=j_min, values=ratio ** j, ratio=ratio)


def _turning_mask(flat: np.ndarray) -> np.ndarray:
    """Endpoints, plus each point whose incoming step is nonzero and whose
    outgoing step does not continue in the same direction: every reversal and
    every plateau start.

    For rho > 1 increments along a monotone run are superadditive, so the
    rho-variation is attained on endpoints and turning points (Butkus &
    Norvaisa, "Computation of p-variation", Lithuanian Math. J. 58, 2018). A
    turning plateau is kept by its first point; plateaus inside a monotone run
    are kept too, which only widens the program.
    """
    sign = np.sign(np.diff(flat, axis=1))
    keep = np.ones(flat.shape, dtype=bool)
    keep[:, 1:-1] = (sign[:, :-1] != 0.0) & (sign[:, 1:] != sign[:, :-1])
    return keep


def variation_batch(values: np.ndarray, rho: float) -> np.ndarray:
    """Vectorized rho-variation along the last axis.

    Dynamic program best[i] = max_{j<i} best[j] + |a_i - a_j|^rho over the
    points `_turning_mask` keeps. Paths are grouped by their count of kept
    points and padded to the group's largest count with their last value;
    padding adds zero increments, so the maximum is unchanged. The result is
    the program over every point, bit for bit once rho is away from 1; near
    rho = 1 superadditivity fades below rounding, and a sum along a monotone
    run that rounds up can make the full program one ulp larger.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    v = np.asarray(values, dtype=float)
    lead = v.shape[:-1]
    length = v.shape[-1]
    flat = v.reshape(-1, length)
    keep = _turning_mask(flat)
    rank = np.cumsum(keep, axis=1)
    counts = rank[:, -1]
    # kept[r, k] is the k-th kept position of path r; padding repeats the last
    kept = np.full((flat.shape[0], counts.max(initial=1)), length - 1)
    row, col = np.nonzero(keep)
    kept[row, rank[row, col] - 1] = col
    by_count = np.argsort(counts)
    sorted_counts = counts[by_count]
    total = np.zeros(flat.shape[0])
    start = 0
    while start < by_count.size:
        # one group spans counts up to 5/4 of its smallest
        low = int(sorted_counts[start])
        stop = int(np.searchsorted(sorted_counts, low + low // 4, side="right"))
        rows = by_count[start:stop]
        width = int(sorted_counts[stop - 1])
        points = flat[rows[:, None], kept[rows, :width]]
        best = np.zeros_like(points)
        for i in range(1, width):
            cand = best[:, :i] + np.abs(points[:, i, None] - points[:, :i]) ** rho
            best[:, i] = cand.max(axis=1)
        total[rows] = best.max(axis=1)
        start = stop
    return (total ** (1.0 / rho)).reshape(lead)


def _band_slices(times: np.ndarray, bands: BandSequence) -> list[np.ndarray]:
    t_min, t_max = float(times[0]), float(times[-1])
    if bands.edges[0] > t_max * (1.0 + 1e-12) or bands.edges[-1] < t_min * (1.0 - 1e-12):
        raise ValueError("band edges leave the closed span of the time grid")
    out = []
    for j in range(bands.edges.size - 1):
        hi, lo = bands.edges[j], bands.edges[j + 1]
        out.append(np.nonzero((times >= lo) & (times <= hi))[0])
    return out


def oscillation_batch(times: np.ndarray, values: np.ndarray, bands: BandSequence) -> np.ndarray:
    """Vectorized oscillation along the last axis."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1] != np.size(times):
        raise ValueError("path values must align with the time grid")
    total = np.zeros(v.shape[:-1])
    for idx in _band_slices(np.asarray(times, dtype=float), bands):
        if idx.size < 2:
            continue
        segment = v[..., idx]
        spread = segment.max(axis=-1) - segment.min(axis=-1)
        total += spread * spread
    return np.sqrt(total)


def jump_count_batch(values: np.ndarray, lam) -> np.ndarray:
    """Greedy count of moves larger than lam along the last axis, scanning in
    increasing time, for one lam or a 1-D array of them; the result has shape
    np.shape(lam) + values.shape[:-1].

    Keeps the running min and max since the last counted jump; a point farther
    than lam from either extreme closes a jump and resets both extremes there.
    Between jumps the spread max - min never exceeds lam, and rounding is
    monotone, so the spread taken with the new point exceeds lam exactly when
    the point lies farther than lam from an extreme. For the same reason a
    path whose whole spread is at most lam never jumps, so one pass over the
    times scans only the other (lam, path) pairs.
    """
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a number or a 1-D array")
    if not np.all(np.isfinite(lams) & (lams > 0.0)):
        raise ValueError("lam must be finite and positive")
    v = np.asarray(values, dtype=float)
    lead = v.shape[:-1]
    flat = v.reshape(-1, v.shape[-1])
    spans = flat.max(axis=1) - flat.min(axis=1)
    # a NaN spread keeps its path: jumps counted before the NaN stand
    which, rows = np.nonzero(~(spans <= lams.reshape(-1, 1)))
    cut = lams.reshape(-1)[which]
    run_min = flat[rows, 0]
    run_max = run_min.copy()
    cur = np.empty_like(run_min)
    spread = np.empty_like(run_min)
    jumped = np.empty(rows.size, dtype=bool)
    count = np.zeros(rows.size, dtype=int)
    for i in range(1, flat.shape[1]):
        np.take(flat[:, i], rows, out=cur)
        np.minimum(run_min, cur, out=run_min)
        np.maximum(run_max, cur, out=run_max)
        np.subtract(run_max, run_min, out=spread)
        np.greater(spread, cut, out=jumped)
        count += jumped
        np.copyto(run_min, cur, where=jumped)
        np.copyto(run_max, cur, where=jumped)
    counts = np.zeros((lams.size, flat.shape[0]), dtype=int)
    counts[which, rows] = count
    return counts.reshape(lams.shape + lead)


def _resolve_bcoef(bcoef, lac: LacunarySequence) -> np.ndarray:
    """Coefficients b_j aligned with lac indices j_min..j_max-1."""
    arr = np.asarray(bcoef, dtype=float)
    if arr.ndim != 1 or arr.size < lac.values.size - 1:
        raise ValueError("bcoef must cover every step of the lacunary window")
    return arr[: lac.values.size - 1]


def _local_mask(size: int) -> np.ndarray:
    """Row n marks the local region n/2 <= m <= 3n/2 of index n."""
    n = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    return (2 * m >= n) & (2 * m <= 3 * n)


def hl_maximal_all(f: np.ndarray) -> np.ndarray:
    """Centered Hardy-Littlewood maximal average of |f| over balls
    {m >= 0 : |m-n| < r}, at every index n of f, vectorized over radii.

    Balls live in the nonnegative integers but their counting measure includes
    every lattice point of the ball, support or not; only integer radii change
    the ball, so finitely many averages realize the sup.
    """
    fv = np.abs(np.asarray(f, dtype=float))
    length = fv.size
    cs = np.concatenate(([0.0], np.cumsum(fv)))
    n = np.arange(length)[:, None]
    d = np.arange(length)[None, :]
    lo = np.clip(n - d, 0, length)
    hi = np.minimum(n + d, length - 1)
    sums = cs[hi + 1] - cs[lo]
    counts = (n + d) - np.maximum(n - d, 0) + 1
    return (sums / counts).max(axis=1)
