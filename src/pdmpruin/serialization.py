"""JSON configuration parsing and result writers.

All run inputs live in one structured document with a ``schema_version``
field; unknown fields are rejected with the offending path so archived
runs stay reproducible.  Numeric CSV output uses 17 significant digits,
'.' decimal separators, and LF line endings for bit-faithful cross-checks
between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mc_sim import SimConfig
from .passage_model import ModelSpec, PassageProblem, require_finite

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

    def to_dict(self) -> dict:
        return {"start": self.start, "stop": self.stop, "points": self.points}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parsed run request: model plus optional problem/grid/simulation blocks."""

    model: ModelSpec
    problem: PassageProblem | None = None
    grid: GridSpec | None = None
    sim: dict | None = None
    output: dict | None = None

    def sim_config(self, **overrides) -> SimConfig:
        if self.problem is None:
            raise ConfigError("a 'problem' block is required for simulation", "$.problem")
        sim = dict(self.sim or {})
        sim.update({k: v for k, v in overrides.items() if v is not None})
        missing = [k for k in ("x0", "n_paths", "seed") if sim.get(k) is None]
        if missing:
            raise ConfigError(f"missing simulation fields: {missing}", "$.sim")
        n_paths = _integer(sim["n_paths"], "$.sim.n_paths")
        seed = _integer(sim["seed"], "$.sim.seed")
        try:
            return SimConfig(
                model=self.model,
                problem=self.problem,
                x0=float(sim["x0"]),
                n_paths=n_paths,
                seed=seed,
                max_time=None if sim.get("max_time") is None else float(sim["max_time"]),
                flow_tolerance=float(sim.get("flow_tolerance", 1e-10)),
                kill_mode=sim.get("kill_mode", "weight"),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), "$.sim") from exc


def _integer(value, path: str) -> int:
    """An integral number as an int: 7 and 1e5 pass; True, 1.9 and "7" do not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"must be an integer, got {value!r}", path)
    return int(value)


_TOP_LEVEL = {"schema_version", "model", "problem", "grid", "sim", "output"}
# What a block's constructor raises on a bad value inside an object.
_FIELD_ERRORS = (ValueError, LookupError, TypeError, ArithmeticError)
_SIM_FIELDS = {"x0", "n_paths", "seed", "max_time", "flow_tolerance", "kill_mode"}
_GRID_FIELDS = {"start", "stop", "points"}
_OUTPUT_FIELDS = {"directory", "format"}


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"must be an object, got {type(value).__name__}", path)
    return value


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level document must be an object")
    unknown = set(data) - _TOP_LEVEL
    if unknown:
        raise ConfigError(f"unknown fields: {sorted(unknown)}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION!r})",
            "$.schema_version",
        )
    if "model" not in data:
        raise ConfigError("a 'model' block is required", "$.model")
    m = _object(data["model"], "$.model")
    for key in ("drift", "jumps"):
        if key in m:
            _object(m[key], f"$.model.{key}")
    try:
        model = ModelSpec.from_dict(m)
    except _FIELD_ERRORS as exc:
        raise ConfigError(str(exc), "$.model") from exc

    problem = None
    if data.get("problem") is not None:
        pr = _object(data["problem"], "$.problem")
        try:
            problem = PassageProblem.from_dict(pr)
        except _FIELD_ERRORS as exc:
            raise ConfigError(str(exc), "$.problem") from exc

    grid = None
    if data.get("grid") is not None:
        g = _object(data["grid"], "$.grid")
        unknown = set(g) - _GRID_FIELDS
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}", "$.grid")
        try:
            grid = GridSpec(float(g["start"]), float(g["stop"]), int(g["points"]))
        except _FIELD_ERRORS as exc:
            raise ConfigError(str(exc), "$.grid") from exc

    sim = None
    if data.get("sim") is not None:
        s = _object(data["sim"], "$.sim")
        unknown = set(s) - _SIM_FIELDS
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}", "$.sim")
        sim = dict(s)

    output = None
    if data.get("output") is not None:
        o = _object(data["output"], "$.output")
        unknown = set(o) - _OUTPUT_FIELDS
        if unknown:
            raise ConfigError(f"unknown fields: {sorted(unknown)}", "$.output")
        if not isinstance(o.get("directory", ""), str):
            raise ConfigError("must be a string", "$.output.directory")
        fmt = o.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {fmt!r}", "$.output.format")
        output = dict(o)

    return RunConfig(model=model, problem=problem, grid=grid, sim=sim, output=output)


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return parse_config(data)


def config_to_dict(rc: RunConfig) -> dict:
    d: dict = {"schema_version": SCHEMA_VERSION, "model": rc.model.to_dict()}
    if rc.problem is not None:
        d["problem"] = rc.problem.to_dict()
    if rc.grid is not None:
        d["grid"] = rc.grid.to_dict()
    if rc.sim is not None:
        d["sim"] = rc.sim
    if rc.output is not None:
        d["output"] = rc.output
    return d


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
