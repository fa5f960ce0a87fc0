"""Run configuration: strict JSON schema, resolved defaults, round-trip.

Each section of a config is a frozen dataclass whose fields are its JSON keys
and whose defaults fill the keys a config leaves out. One reader, `_read`,
reads a key by the type of its field's default: a float, int or bool by
`_number`, `_integer` or `_boolean`, a str as a nonempty string, a tuple as
numbers, and a section by that section's `from_dict`; `RunConfig.READERS`
names the readers of its irregular keys. One writer, `_json`, writes the
fields back. A kinded section (`BcoefSpec`, `SignalSpec`, `WeightSpec`) has a
`READS` table, {kind: the keys it reads besides `kind`}: it accepts exactly
those keys and writes exactly those. What a section checks beyond the types
of its keys is in its `_check`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .basis import JacobiParams
from .errors import ConfigError
from .paths import LacunarySequence, TimeGrid
from .semigroup import DEFAULT_QUAD_TOL
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


def _string(raw, where: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"{where} must be a nonempty string, got {raw!r}")
    return raw


def _sequence(raw, where: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {raw!r}")
    return list(raw)


def _numbers(raw, where: str) -> tuple:
    return tuple(_number(v, where) for v in _sequence(raw, where))


def _names(raw, allowed: tuple, where: str) -> tuple:
    names = tuple(_sequence(raw, where))
    bad = [name for name in names if name not in allowed]
    if bad or not names:
        raise ConfigError(f"{where} must be a nonempty subset of {allowed}, bad: {bad}")
    return names


_READ_BY_TYPE = {float: _number, int: _integer, bool: _boolean, str: _string,
                 tuple: _numbers}


def _read(cls, raw, where: str) -> dict:
    """The keyword arguments of cls for the keys raw sets. Each key is a field
    of cls, read by cls.READERS[key] if it has one, else by the type of the
    field's default; a kinded cls reads `kind` and the keys READS[kind]."""
    prefix = f"{where}." if where else ""
    keys = [field.name for field in fields(cls)]
    _require_keys(raw, keys, where or "config")
    kwargs = {}
    reads = getattr(cls, "READS", None)
    if reads is not None:
        kind = raw.get("kind", getattr(cls, "kind", None))
        if not isinstance(kind, str) or kind not in reads:
            raise ConfigError(f"{prefix}kind must be one of {', '.join(reads)}, got {kind!r}")
        for key in raw:
            if key != "kind" and key not in reads[kind]:
                owners = " or ".join(k for k, read in reads.items() if key in read)
                raise ConfigError(f"{prefix}{key} only valid with kind {owners}")
        kwargs["kind"] = kind
        keys = reads[kind]
    readers = getattr(cls, "READERS", {})
    for key in keys:
        if key in raw:
            default_type = type(getattr(cls, key))
            read = (readers.get(key) or _READ_BY_TYPE.get(default_type)
                    or default_type.from_dict)
            kwargs[key] = read(raw[key], prefix + key)
    return kwargs


def _json(value):
    """The JSON form of a config value: a section's fields, or for a kinded
    one `kind` and the keys its kind reads, and a list for a tuple."""
    if isinstance(value, JacobiParams):
        return [value.alpha, value.beta]
    if is_dataclass(value):
        reads = getattr(value, "READS", None)
        keys = ("kind", *reads[value.kind]) if reads else [f.name for f in fields(value)]
        return {key: _json(getattr(value, key)) for key in keys}
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return value


class _Section:
    """A config section: a frozen dataclass read by `_read`, written by
    `_json`, and checked by its own `_check(where)`."""

    @classmethod
    def from_dict(cls, raw, where: str = ""):
        section = cls(**_read(cls, raw, where))
        section._check(where)
        return section

    def to_dict(self) -> dict:
        return _json(self)


@dataclass(frozen=True)
class TimeGridSpec(_Section):
    t_min: float = 1e-3
    t_max: float = 1e2
    count: int = 96
    geometric: bool = True

    def _check(self, where: str) -> None:
        if not (0.0 < self.t_min < self.t_max):
            raise ConfigError(f"{where} needs 0 < t_min < t_max")
        if self.count < 2:
            raise ConfigError(f"{where}.count must be at least 2")

    def build(self) -> TimeGrid:
        if self.geometric:
            return TimeGrid.geometric(self.t_min, self.t_max, self.count)
        return TimeGrid(times=np.linspace(self.t_min, self.t_max, self.count))


@dataclass(frozen=True)
class LacunarySpec(_Section):
    ratio: float = 2.0
    window: int = 6

    def _check(self, where: str) -> None:
        if self.ratio <= 1.0:
            raise ConfigError(f"{where}.ratio must exceed 1")
        if self.window < 1:
            raise ConfigError(f"{where}.window must be at least 1")
        try:
            with np.errstate(over="ignore"):
                self.build()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where} ratio {self.ratio:g} and window {self.window} "
                              f"give no valid sequence: {exc}") from exc

    def build(self) -> LacunarySequence:
        return LacunarySequence.geometric(self.ratio, -self.window - LACUNARY_PAD,
                                          self.window + LACUNARY_PAD)


@dataclass(frozen=True)
class BcoefSpec(_Section):
    kind: str = "alternating"
    values: tuple = ()

    READS = {"ones": (), "alternating": (), "explicit": ("values",)}

    def _check(self, where: str) -> None:
        if self.kind == "explicit" and not self.values:
            raise ConfigError(f"{where}.kind explicit requires values")

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
class SignalSpec(_Section):
    kind: str = "delta"
    index: int = 0
    values: tuple = ()

    READS = {"delta": ("index",), "explicit": ("values",)}

    def _check(self, where: str) -> None:
        if self.index < 0:
            raise ConfigError(f"{where}.index must be nonnegative")
        if self.kind == "explicit" and not self.values:
            raise ConfigError(f"{where}.values must be nonempty for kind explicit")

    def resolve(self, size: int) -> np.ndarray:
        if self.kind == "delta":
            if self.index >= size:
                raise ConfigError(
                    f"signal.index {self.index} outside truncation size {size}")
            out = np.zeros(size)
            out[self.index] = 1.0
            return out
        return np.asarray(self.values, dtype=float)


def _weight(raw, where: str) -> WeightSpec:
    """A weight, with a file weight's values read from its path."""
    spec = WeightSpec(**_read(WeightSpec, raw, where))
    if spec.kind == "file":
        if not spec.path:
            raise ConfigError(f"{where} file weight requires path")
        try:
            loaded = np.loadtxt(spec.path, dtype=float, ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where} cannot read weight file {spec.path}: {exc}") from exc
        spec = replace(spec, values=tuple(_number(v, f"{where} file {spec.path}")
                                          for v in loaded.tolist()))
    if any(v <= 0.0 for v in spec.values):
        raise ConfigError(f"{where} weight values must be positive")
    return spec


def _weights(raw, where: str) -> tuple:
    items = [raw] if isinstance(raw, dict) else raw
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{where} must be a weight spec or nonempty list of them")
    return tuple(_weight(item, f"{where}[{i}]") for i, item in enumerate(items))


def _params(raw, where: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where} must be a nonempty list of [alpha, beta] pairs")
    parsed = []
    for i, pair in enumerate(raw):
        entry = f"{where}[{i}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{entry} must be an [alpha, beta] pair, got {pair!r}")
        alpha, beta = _number(pair[0], f"{entry} alpha"), _number(pair[1], f"{entry} beta")
        try:
            parsed.append(JacobiParams(alpha, beta))
        except ValueError as exc:
            raise ConfigError(f"{entry}: {exc}") from exc
    return tuple(parsed)


@dataclass(frozen=True)
class RunConfig(_Section):
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
    quad_tol: float = DEFAULT_QUAD_TOL
    seed: int = 0
    workers: int | None = None
    out_dir: str = "out"

    READERS = {
        "params": _params,
        "sizes": lambda raw, where: tuple(_integer(s, where) for s in _sequence(raw, where)),
        "weights": _weights,
        "estimates": lambda raw, where: _names(raw, ESTIMATE_NAMES, where),
        "operators": lambda raw, where: _names(raw, OPERATOR_NAMES, where),
        "workers": lambda raw, where: None if raw is None else _integer(raw, where),
    }

    def _check(self, where: str) -> None:
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ConfigError("sizes must be integers of at least 2")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigError("sizes must be strictly increasing")
        if self.rho <= 1.0:
            raise ConfigError("rho must exceed 1")
        if not self.lambdas or min(self.lambdas) <= 0.0:
            raise ConfigError("lambdas must be positive and nonempty")
        if not self.p_values or min(self.p_values) < 1.0:
            raise ConfigError("p_values must be at least 1 and nonempty")
        for i, spec in enumerate(self.weights):
            if spec.kind in ("explicit", "file") and len(spec.values) < max(self.sizes):
                raise ConfigError(f"weights[{i}] covers {len(spec.values)} indices, "
                                  f"sizes need {max(self.sizes)}")
        if not self.kernel_times or min(self.kernel_times) <= 0.0:
            raise ConfigError("kernel_times must be positive and nonempty")
        if self.quad_tol <= 0.0:
            raise ConfigError("quad_tol must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be at least 1")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)
