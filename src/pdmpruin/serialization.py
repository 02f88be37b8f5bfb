"""JSON configuration parsing and result writers.

All run inputs live in one structured document with a ``schema_version``
field, and this module alone knows its schema: every block is read by one
reader from the table of its fields (:data:`_READERS`) and written back
from its dataclass fields.  Unknown fields are rejected with the offending
path so archived runs stay reproducible.  Numeric CSV output uses 17
significant digits, '.' decimal separators, and LF line endings for
bit-faithful cross-checks between runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .passage_model import (
    ConstantDrift,
    DriftSpec,
    ModelSpec,
    PassageProblem,
    SegerdahlDrift,
    TabulatedDrift,
    _check_sim_fields,
    require_finite,
)
from .phase_type import PhaseType

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config_file",
    "config_to_dict",
    "dump_json",
    "format_float",
    "csv_line",
    "write_csv",
]

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Configuration rejected; ``path`` points at the offending field."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True, eq=False)
class GridSpec:
    start: float
    stop: float
    points: int

    def __post_init__(self):
        require_finite("grid", start=self.start, stop=self.stop)
        if not self.start < self.stop:
            raise ValueError("grid start must be below stop")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")

    def array(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parsed run request: model plus optional problem/grid/simulation blocks."""

    model: ModelSpec
    problem: PassageProblem | None = None
    grid: GridSpec | None = None
    sim: dict | None = None
    output: dict | None = None

    def sim_config(self, **overrides):
        """The :class:`mc_sim.SimConfig` of the fields set here, with its own
        defaults; imported here, so that loading a config loads no engine."""
        from .mc_sim import SimConfig

        if self.problem is None:
            raise ConfigError("a 'problem' block is required for simulation", "$.problem")
        sim = dict(self.sim or {})
        sim.update({k: v for k, v in overrides.items() if v is not None})
        missing = [k for k in ("x0", "n_paths", "seed") if k not in sim]
        if missing:
            raise ConfigError(f"missing simulation fields: {missing}", "$.sim")
        try:
            return SimConfig(model=self.model, problem=self.problem, **sim)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), "$.sim") from exc


# ---------------------------------------------------------------------------
# Field readers: each takes a JSON value and its path, and returns the value
# its constructor takes or raises ConfigError at that path.
# ---------------------------------------------------------------------------

def _integer(value, path: str) -> int:
    """An integral number as an int: 7 and 1e5 pass; True, 1.9 and "7" do not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"must be an integer, got {value!r}", path)
    return int(value)


def _real(value, path: str) -> float:
    """A JSON number as a float: 7 and 0.5 pass; True, "0.5" and null do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"must be a number, got {value!r}", path)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError("must be a finite number", path) from None


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"must be a string, got {value!r}", path)
    return value


def _list_of(read):
    """The reader of a list whose elements ``read`` reads, at ``path[i]``."""

    def read_list(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"must be a list, got {type(value).__name__}", path)
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read_list


_reals = _list_of(_real)


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"must be an object, got {type(value).__name__}", path)
    return value


def _fields(value, path: str, readers: dict, required=()) -> dict:
    """The fields a block sets, each through its reader.

    The block is an object of known fields; null leaves a field unset, and
    a field whose reader is None is accepted and dropped.  Missing fields
    are named with the block's key: "missing drift fields" at ``$.model.drift``.
    """
    block = _object(value, path)
    unknown = set(block) - set(readers)
    if unknown:
        raise ConfigError(f"unknown fields: {sorted(unknown)}", path)
    fields = {
        k: readers[k](v, f"{path}.{k}")
        for k, v in block.items()
        if v is not None and readers[k] is not None
    }
    missing = [k for k in required if k not in fields]
    if missing:
        raise ConfigError(f"missing {path.rsplit('.', 1)[-1]} fields: {missing}", path)
    return fields


# What a block's constructor raises on a bad value inside an object.
_FIELD_ERRORS = (ValueError, LookupError, TypeError, ArithmeticError)


def _build(cls, value, path: str):
    """A ``cls`` from its block: the fields without defaults are required,
    and the constructor's refusal is reported at the block's path."""
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    fields = _fields(value, path, _READERS[cls], required)
    try:
        return cls(**fields)
    except _FIELD_ERRORS as exc:
        raise ConfigError(str(exc), path) from exc


_DRIFTS = {cls.kind: cls for cls in (ConstantDrift, SegerdahlDrift, TabulatedDrift)}


def _drift(value, path: str) -> DriftSpec:
    block = dict(_object(value, path))
    kind = block.pop("kind", None)
    if kind is None:
        raise ConfigError("missing drift fields: ['kind']", path)
    if _string(kind, f"{path}.kind") not in _DRIFTS:
        raise ConfigError(f"unknown drift kind {kind!r}", f"{path}.kind")
    return _build(_DRIFTS[kind], block, path)


def _sim(value, path: str) -> dict:
    """The sim block's fields, each checked as :class:`mc_sim.SimConfig`
    checks it; x0 against the problem's levels is left to SimConfig."""
    sim = _fields(value, path, _SIM_FIELDS)
    try:
        _check_sim_fields(**sim)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    return sim


# The fields of each block that builds a dataclass, and their readers.
_READERS = {
    ConstantDrift: {"c": _real},
    SegerdahlDrift: {"K": _real, "lam": _real, "q": _real, "mu": _real},
    TabulatedDrift: {
        "x": _reals, "values": _reals, "interpolation": _string, "sign_domain": _reals,
    },
    # b, if present, is ignored: it is derived, never read.
    PhaseType: {"beta": _reals, "B": _list_of(_reals), "b": None},
    ModelSpec: {
        "drift": _drift,
        "jump_rate": _real,
        "kill_rate": _real,
        "jumps": partial(_build, PhaseType),
        "jump_direction": _string,
    },
    PassageProblem: {"lower": _real, "upper": _real, "estimand": _string, "overshoot_xi": _real},
    GridSpec: {"start": _real, "stop": _real, "points": _integer},
}
# The sim block builds mc_sim.SimConfig, which loading a config does not load.
_SIM_FIELDS = {
    "x0": _real, "n_paths": _integer, "seed": _integer, "max_time": _real, "kill_mode": _string,
}
_TOP_LEVEL = {
    "schema_version": None,
    "model": partial(_build, ModelSpec),
    "problem": partial(_build, PassageProblem),
    "grid": partial(_build, GridSpec),
    "sim": _sim,
    "output": partial(_fields, readers={"directory": _string}),
}


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level document must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION!r})",
            "$.schema_version",
        )
    if data.get("model") is None:
        raise ConfigError("a 'model' block is required", "$.model")
    rc = RunConfig(**_fields(data, "$", _TOP_LEVEL))
    if rc.problem is not None and rc.grid is not None:
        lo, hi = rc.problem.lower, rc.problem.upper_value
        if not (lo <= rc.grid.start and rc.grid.stop <= hi):
            raise ConfigError(
                f"grid [{rc.grid.start:g}, {rc.grid.stop:g}] must lie inside the problem's "
                f"[lower, upper] = [{lo:g}, {hi:g}]",
                "$.grid",
            )
    return rc


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return parse_config(data)


def _plain(value):
    """``value`` as JSON data: a dataclass as the dict of its fields (a drift
    with its kind), tuples and arrays as lists."""
    if dataclasses.is_dataclass(value):
        d = {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, DriftSpec):
            d["kind"] = value.kind
        return d
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(rc: RunConfig) -> dict:
    blocks = {name: block for name, block in _plain(rc).items() if block is not None}
    return {"schema_version": SCHEMA_VERSION, **blocks}


def dump_json(obj: dict, path: str) -> None:
    """Canonical JSON: sorted keys, LF endings, no trailing spaces."""
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def format_float(v: float) -> str:
    return f"{v:.17g}"


def csv_line(row) -> str:
    """One CSV line: floats with 17 significant digits, everything else as ``str``."""
    return ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)


def write_csv(path, header, rows) -> None:
    """The one CSV writer: a header line, then one line per row, LF endings."""
    with open(path, "w", newline="\n") as f:
        f.writelines(csv_line(row) + "\n" for row in [header, *rows])
