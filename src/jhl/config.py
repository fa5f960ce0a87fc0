"""Run configuration: strict JSON schema, resolved defaults, round-trip."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import JacobiParams
from .errors import ConfigError
from .paths import LacunarySequence, TimeGrid
from .weights import WeightSpec

__all__ = [
    "RunConfig",
    "TimeGridSpec",
    "LacunarySpec",
    "BcoefSpec",
    "SignalSpec",
    "load_config",
]

ESTIMATE_NAMES = (
    "kernel_decay",
    "kernel_smoothness",
    "dt_sup",
    "qn_bounds",
    "lacunary_tail",
    "cotlar",
    "poly_bound",
)
OPERATOR_NAMES = ("variation", "oscillation", "jump", "s_star")
LACUNARY_PAD = 1  # lacunary indices built past the window [-M, M] on each side


def _require_keys(raw, allowed, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _number(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{where} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {raw!r}")
    return value


def _integer(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    return raw


def _boolean(raw, where: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{where} must be true or false, got {raw!r}")
    return raw


def _sequence(raw, where: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {raw!r}")
    return list(raw)


def _names(raw, allowed: tuple, where: str) -> tuple:
    names = tuple(_sequence(raw, where))
    bad = [name for name in names if name not in allowed]
    if bad or not names:
        raise ConfigError(f"{where} must be a nonempty subset of {allowed}, bad: {bad}")
    return names


@dataclass(frozen=True)
class TimeGridSpec:
    t_min: float = 1e-3
    t_max: float = 1e2
    count: int = 96
    geometric: bool = True

    @classmethod
    def from_dict(cls, raw: dict, where: str = "t_grid") -> "TimeGridSpec":
        _require_keys(raw, ("t_min", "t_max", "count", "geometric"), where)
        spec = cls(
            t_min=_number(raw.get("t_min", cls.t_min), f"{where}.t_min"),
            t_max=_number(raw.get("t_max", cls.t_max), f"{where}.t_max"),
            count=_integer(raw.get("count", cls.count), f"{where}.count"),
            geometric=_boolean(raw.get("geometric", cls.geometric),
                               f"{where}.geometric"),
        )
        if not (0.0 < spec.t_min < spec.t_max):
            raise ConfigError(f"{where} needs 0 < t_min < t_max")
        if spec.count < 2:
            raise ConfigError(f"{where}.count must be at least 2")
        return spec

    def to_dict(self) -> dict:
        return {"t_min": self.t_min, "t_max": self.t_max,
                "count": self.count, "geometric": self.geometric}

    def build(self) -> TimeGrid:
        if self.geometric:
            return TimeGrid.geometric(self.t_min, self.t_max, self.count)
        return TimeGrid(times=np.linspace(self.t_min, self.t_max, self.count))


@dataclass(frozen=True)
class LacunarySpec:
    ratio: float = 2.0
    window: int = 6

    @classmethod
    def from_dict(cls, raw: dict) -> "LacunarySpec":
        _require_keys(raw, ("ratio", "window"), "lacunary")
        spec = cls(ratio=_number(raw.get("ratio", cls.ratio), "lacunary.ratio"),
                   window=_integer(raw.get("window", cls.window), "lacunary.window"))
        if spec.ratio <= 1.0:
            raise ConfigError("lacunary.ratio must exceed 1")
        if spec.window < 1:
            raise ConfigError("lacunary.window must be at least 1")
        try:
            with np.errstate(over="ignore"):
                spec.build()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"lacunary ratio {spec.ratio:g} and window {spec.window} "
                              f"give no valid sequence: {exc}") from exc
        return spec

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "window": self.window}

    def build(self) -> LacunarySequence:
        return LacunarySequence.geometric(self.ratio, -self.window - LACUNARY_PAD,
                                          self.window + LACUNARY_PAD)


@dataclass(frozen=True)
class BcoefSpec:
    kind: str = "alternating"
    values: tuple = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "BcoefSpec":
        _require_keys(raw, ("kind", "values"), "bcoef")
        kind = raw.get("kind", cls.kind)
        if kind not in ("ones", "alternating", "explicit"):
            raise ConfigError(f"bcoef.kind must be ones, alternating, or explicit, got {kind!r}")
        values = tuple(_number(v, "bcoef.values")
                       for v in _sequence(raw.get("values", ()), "bcoef.values"))
        if kind == "explicit" and not values:
            raise ConfigError("bcoef.kind explicit requires values")
        if kind != "explicit" and values:
            raise ConfigError("bcoef.values only valid with kind explicit")
        return cls(kind=kind, values=values)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "explicit":
            out["values"] = list(self.values)
        return out

    def resolve(self, lac: LacunarySequence) -> np.ndarray:
        n_steps = lac.values.size - 1
        if self.kind == "ones":
            return np.ones(n_steps)
        if self.kind == "alternating":
            return np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_min + n_steps)])
        values = np.asarray(self.values, dtype=float)
        if values.size != n_steps:
            raise ConfigError(
                f"bcoef.values has {values.size} entries, lacunary window needs {n_steps}")
        return values


@dataclass(frozen=True)
class SignalSpec:
    kind: str = "delta"
    index: int = 0
    values: tuple = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "SignalSpec":
        _require_keys(raw, ("kind", "index", "values"), "signal")
        kind = raw.get("kind", cls.kind)
        if kind not in ("delta", "explicit"):
            raise ConfigError(f"signal.kind must be delta or explicit, got {kind!r}")
        index = _integer(raw.get("index", cls.index), "signal.index")
        if kind == "delta" and index < 0:
            raise ConfigError("signal.index must be nonnegative")
        values = tuple(_number(v, "signal.values")
                       for v in _sequence(raw.get("values", ()), "signal.values"))
        if kind == "delta" and values:
            raise ConfigError("signal.values only valid with kind explicit")
        return cls(kind=kind, index=index, values=values)

    def to_dict(self) -> dict:
        if self.kind == "delta":
            return {"kind": "delta", "index": self.index}
        return {"kind": "explicit", "values": list(self.values)}

    def resolve(self, size: int) -> np.ndarray:
        if self.kind == "delta":
            if self.index >= size:
                raise ConfigError(
                    f"signal.index {self.index} outside truncation size {size}")
            out = np.zeros(size)
            out[self.index] = 1.0
            return out
        return np.asarray(self.values, dtype=float)


def _parse_weight(raw: dict, where: str) -> WeightSpec:
    _require_keys(raw, ("kind", "exponent", "values", "path"), where)
    kind = raw.get("kind")
    if kind not in ("constant", "power", "explicit", "file"):
        raise ConfigError(
            f"{where}.kind must be constant, power, explicit, or file, got {kind!r}")
    path = raw.get("path", "")
    if not isinstance(path, str):
        raise ConfigError(f"{where}.path must be a string, got {path!r}")
    values = tuple(_number(v, f"{where}.values")
                   for v in _sequence(raw.get("values", ()), f"{where}.values"))
    if kind == "explicit" and not values:
        raise ConfigError(f"{where} explicit weight requires values")
    if kind == "file":
        if not path:
            raise ConfigError(f"{where} file weight requires path")
        try:
            loaded = np.loadtxt(Path(path), dtype=float, ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where} cannot read weight file {path}: {exc}") from exc
        values = tuple(_number(v, f"{where} file {path}") for v in loaded.tolist())
    if kind in ("explicit", "file") and any(v <= 0.0 for v in values):
        raise ConfigError(f"{where} weight values must be positive")
    return WeightSpec(kind=kind,
                      exponent=_number(raw.get("exponent", 0.0), f"{where}.exponent"),
                      values=values, path=path)


def _weight_dict(spec: WeightSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.kind == "power":
        out["exponent"] = spec.exponent
    elif spec.kind == "explicit":
        out["values"] = list(spec.values)
    elif spec.kind == "file":
        out["path"] = spec.path
    return out


_TOP_KEYS = (
    "params", "sizes", "t_grid", "norms_t_grid", "rho", "lambdas", "p_values",
    "weights", "lacunary", "bcoef", "signal", "kernel_times", "estimates",
    "operators", "quad_tol", "seed", "workers", "out_dir",
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; every field has a working default."""

    params: tuple = (JacobiParams(-0.5, -0.5), JacobiParams(0.0, 0.0),
                     JacobiParams(2.5, 0.5))
    sizes: tuple = (32, 64, 128)
    t_grid: TimeGridSpec = TimeGridSpec()
    norms_t_grid: TimeGridSpec = TimeGridSpec(t_max=1e5)
    rho: float = 2.5
    lambdas: tuple = tuple(2.0 ** k for k in range(-5, 3))
    p_values: tuple = (2.0, 1.5, 3.0)
    weights: tuple = (WeightSpec("constant"), WeightSpec("power", exponent=0.3),
                      WeightSpec("power", exponent=1.5))
    lacunary: LacunarySpec = LacunarySpec()
    bcoef: BcoefSpec = BcoefSpec()
    signal: SignalSpec = SignalSpec()
    kernel_times: tuple = (1e-12, 0.1, 1.0, 10.0)
    estimates: tuple = ESTIMATE_NAMES
    operators: tuple = OPERATOR_NAMES
    quad_tol: float = 1e-12
    seed: int = 0
    workers: int | None = None
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require_keys(raw, _TOP_KEYS, "config")
        kwargs: dict = {}
        if "params" in raw:
            pairs = raw["params"]
            if not isinstance(pairs, list) or not pairs:
                raise ConfigError("params must be a nonempty list of [alpha, beta] pairs")
            parsed = []
            for pair in pairs:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"params entry {pair!r} is not an [alpha, beta] pair")
                try:
                    parsed.append(JacobiParams(_number(pair[0], "alpha"),
                                               _number(pair[1], "beta")))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
            kwargs["params"] = tuple(parsed)
        if "sizes" in raw:
            sizes = tuple(_integer(s, "sizes") for s in _sequence(raw["sizes"], "sizes"))
            if not sizes or any(s < 2 for s in sizes):
                raise ConfigError("sizes must be integers of at least 2")
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise ConfigError("sizes must be strictly increasing")
            kwargs["sizes"] = sizes
        if "t_grid" in raw:
            kwargs["t_grid"] = TimeGridSpec.from_dict(raw["t_grid"], "t_grid")
        if "norms_t_grid" in raw:
            kwargs["norms_t_grid"] = TimeGridSpec.from_dict(raw["norms_t_grid"],
                                                            "norms_t_grid")
        if "rho" in raw:
            rho = _number(raw["rho"], "rho")
            if rho <= 1.0:
                raise ConfigError("rho must exceed 1")
            kwargs["rho"] = rho
        if "lambdas" in raw:
            lams = tuple(_number(v, "lambdas")
                         for v in _sequence(raw["lambdas"], "lambdas"))
            if not lams or any(v <= 0.0 for v in lams):
                raise ConfigError("lambdas must be positive and nonempty")
            kwargs["lambdas"] = lams
        if "p_values" in raw:
            ps = tuple(_number(v, "p_values")
                       for v in _sequence(raw["p_values"], "p_values"))
            if not ps or any(v < 1.0 for v in ps):
                raise ConfigError("p_values must be at least 1 and nonempty")
            kwargs["p_values"] = ps
        if "weights" in raw:
            items = raw["weights"]
            if isinstance(items, dict):
                items = [items]
            if not isinstance(items, list) or not items:
                raise ConfigError("weights must be a weight spec or nonempty list of them")
            kwargs["weights"] = tuple(
                _parse_weight(item, f"weights[{i}]") for i, item in enumerate(items))
            need = max(kwargs.get("sizes", cls.sizes))
            for i, spec in enumerate(kwargs["weights"]):
                if spec.kind in ("explicit", "file") and len(spec.values) < need:
                    raise ConfigError(f"weights[{i}] covers {len(spec.values)} indices, "
                                      f"sizes need {need}")
        if "lacunary" in raw:
            kwargs["lacunary"] = LacunarySpec.from_dict(raw["lacunary"])
        if "bcoef" in raw:
            kwargs["bcoef"] = BcoefSpec.from_dict(raw["bcoef"])
        if "signal" in raw:
            kwargs["signal"] = SignalSpec.from_dict(raw["signal"])
        if "kernel_times" in raw:
            times = tuple(_number(v, "kernel_times")
                          for v in _sequence(raw["kernel_times"], "kernel_times"))
            if not times or any(v <= 0.0 for v in times):
                raise ConfigError("kernel_times must be positive and nonempty")
            kwargs["kernel_times"] = times
        if "estimates" in raw:
            kwargs["estimates"] = _names(raw["estimates"], ESTIMATE_NAMES, "estimates")
        if "operators" in raw:
            kwargs["operators"] = _names(raw["operators"], OPERATOR_NAMES, "operators")
        if "quad_tol" in raw:
            tol = _number(raw["quad_tol"], "quad_tol")
            if tol <= 0.0:
                raise ConfigError("quad_tol must be positive")
            kwargs["quad_tol"] = tol
        if "seed" in raw:
            seed = _integer(raw["seed"], "seed")
            if not (0 <= seed < 2 ** 64):
                raise ConfigError("seed must fit in an unsigned 64-bit integer")
            kwargs["seed"] = seed
        if "workers" in raw and raw["workers"] is not None:
            workers = _integer(raw["workers"], "workers")
            if workers < 1:
                raise ConfigError("workers must be at least 1")
            kwargs["workers"] = workers
        if "out_dir" in raw:
            out_dir = raw["out_dir"]
            if not isinstance(out_dir, str) or not out_dir:
                raise ConfigError(f"out_dir must be a nonempty string, got {out_dir!r}")
            kwargs["out_dir"] = out_dir
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "params": [[p.alpha, p.beta] for p in self.params],
            "sizes": list(self.sizes),
            "t_grid": self.t_grid.to_dict(),
            "norms_t_grid": self.norms_t_grid.to_dict(),
            "rho": self.rho,
            "lambdas": list(self.lambdas),
            "p_values": list(self.p_values),
            "weights": [_weight_dict(w) for w in self.weights],
            "lacunary": self.lacunary.to_dict(),
            "bcoef": self.bcoef.to_dict(),
            "signal": self.signal.to_dict(),
            "kernel_times": list(self.kernel_times),
            "estimates": list(self.estimates),
            "operators": list(self.operators),
            "quad_tol": self.quad_tol,
            "seed": self.seed,
            "workers": self.workers,
            "out_dir": self.out_dir,
        }


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)
