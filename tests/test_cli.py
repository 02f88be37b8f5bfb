import argparse
import ast
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import pdmpruin.cli as cli
from pdmpruin.cli import (
    EXIT_COMPARISON,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    closed_form_gates,
    count_mc_violations,
    main,
)
from pdmpruin.mc_sim import SimConfig
from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    PassageProblem,
    SegerdahlDrift,
    SolutionCurve,
    TabulatedDrift,
)
from pdmpruin.phase_type import PhaseType
from pdmpruin.serialization import (
    _READERS,
    _SIM_FIELDS,
    ConfigError,
    GridSpec,
    RunConfig,
    config_to_dict,
    load_config_file,
    parse_config,
)

FIG1_CONFIG = {
    "schema_version": "1",
    "model": {
        "drift": {"kind": "segerdahl", "K": 0.75, "lam": 0.5, "q": 0.5, "mu": 1.5},
        "jump_rate": 0.5,
        "kill_rate": 0.5,
        "jumps": {"beta": [1.0], "B": [[-1.5]]},
        "jump_direction": "downward",
    },
    "problem": {"lower": 0.0, "upper": None, "estimand": "ruin_below", "overshoot_xi": 0.0},
    "grid": {"start": 0.0, "stop": 5.0, "points": 41},
    "sim": {"x0": 1.0, "n_paths": 5000, "seed": 7},
}

CONST_CONFIG = {
    "schema_version": "1",
    "model": {
        "drift": {"kind": "constant", "c": 1.0},
        "jump_rate": 1.0,
        "kill_rate": 0.0,
        "jumps": {"beta": [1.0], "B": [[-2.0]]},
    },
    "problem": {"lower": 0.0},
    "grid": {"start": 0.0, "stop": 5.0, "points": 21},
    "sim": {"x0": 1.0, "n_paths": 4000, "seed": 3, "max_time": 60.0},
}


ERLANG3_JUMPS = {
    "beta": [1.0, 0.0, 0.0],
    "B": [[-3.0, 3.0, 0.0], [0.0, -3.0, 3.0], [0.0, 0.0, -3.0]],
}


# Constant drift with Erlang-3 jumps and killing: solved by the ladder-height law.
ERLANG3_CONST_CONFIG = {
    **CONST_CONFIG,
    "model": {**CONST_CONFIG["model"], "kill_rate": 0.5, "jumps": ERLANG3_JUMPS},
}


# CONST_CONFIG with an overshoot penalty, which only Monte Carlo estimates.
OVERSHOOT_CONFIG = {**CONST_CONFIG, "problem": {"lower": 0.0, "overshoot_xi": 3.0}}

ONE_SIDED_REASON = "closed forms: need a one-sided ruin_below problem without an overshoot penalty"


def _readme_command_lines():
    """The ``pdmpruin ...`` lines of the README's subcommand block, comments cut."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Subcommands:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("pdmpruin ")]
    return [ln.split("#", 1)[0].strip() for ln in lines]


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run_cli(args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "pdmpruin.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def with_value(base, path, value):
    """Deep copy of a config with the field at ``path`` (keys and list
    indices) set to ``value``."""
    cfg = json.loads(json.dumps(base))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


def without(base, path):
    """Deep copy of a config with the field at ``path`` deleted."""
    cfg = with_value(base, path, None)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return cfg


def dotted(path):
    """The ConfigError path of a field: ``$.model.jumps.B[0][0]``."""
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


# FIG1_CONFIG with its relaxing drift read from a 41-knot cubic table.
_TABLE_X = np.linspace(-1.0, 8.0, 41)
CUBIC_TABLE_CONFIG = with_value(
    FIG1_CONFIG,
    ("model", "drift"),
    {"kind": "tabulated", "x": _TABLE_X.tolist(),
     "values": (-(1.0 / 1.5) * (1.0 - 0.75 * np.exp(-3.0 * _TABLE_X))).tolist(),
     "interpolation": "cubic", "sign_domain": [0.0, 8.0]},
)

# FIG1_CONFIG with a 400-knot table of the relaxing drift plus 0.01 sin x,
# which the scaling-transformation gate rejects.
_PERTURBED_X = np.linspace(-1.0, 8.0, 400)
PERTURBED_TABLE_CONFIG = with_value(
    FIG1_CONFIG,
    ("model", "drift"),
    {"kind": "tabulated", "x": _PERTURBED_X.tolist(),
     "values": ((1.0 / 1.5) * (0.75 * np.exp(-3.0 * _PERTURBED_X) - 1.0)
                + 0.01 * np.sin(_PERTURBED_X)).tolist(),
     "sign_domain": [0.0, 8.0]},
)

NAN, INF = math.nan, math.inf

# Config blocks that must be JSON objects.
BLOCKS = [("model",), ("problem",), ("grid",), ("sim",), ("output",),
          ("model", "drift"), ("model", "jumps")]

# Fuzz base: every block present, a tabulated drift so its fields are reached.
FUZZ_BASE = with_value(
    dict(FIG1_CONFIG, output={"directory": "out"}),
    ("model", "drift"),
    {"kind": "tabulated", "x": [0.0, 1.0, 2.0], "values": [-1.0, -1.5, -2.0],
     "interpolation": "linear", "sign_domain": [0.0, 2.0]},
)


def _field_paths(block, prefix=()):
    out = [prefix] if prefix else []
    if isinstance(block, dict):
        for key, value in block.items():
            out += _field_paths(value, prefix + (key,))
    return out


def _number_paths(config):
    """The path of every number of a config; a list is named by its first element."""
    out = []
    for path in _field_paths(config):
        value = config
        for key in path:
            value = value[key]
        while isinstance(value, list):
            path, value = path + (0,), value[0]
        if type(value) in (int, float):
            out.append(path)
    return out


FUZZ_PATHS = [p for p in _field_paths(FUZZ_BASE) if p != ("schema_version",)]

# (config, path) of every numeric field of every block: the fuzz base's, the
# relaxing and constant drift fields, and the upper level and horizon, unset
# in the fuzz base.
NUMBER_FIELDS = (
    [(FUZZ_BASE, p) for p in _number_paths(FUZZ_BASE)]
    + [(FIG1_CONFIG, ("model", "drift", k)) for k in ("K", "lam", "q", "mu")]
    + [(CONST_CONFIG, ("model", "drift", "c")), (FIG1_CONFIG, ("problem", "upper")),
       (CONST_CONFIG, ("sim", "max_time"))]
)
INTEGER_FIELDS = {("grid", "points"), ("sim", "n_paths"), ("sim", "seed")}

# (config, path) of every field that a block needs.
REQUIRED_FIELDS = (
    [(FIG1_CONFIG, ("model", "drift", k)) for k in ("kind", "K", "lam", "q", "mu")]
    + [(CONST_CONFIG, ("model", "drift", "c"))]
    + [(FUZZ_BASE, ("model", "drift", k)) for k in ("x", "values")]
    + [(FIG1_CONFIG, ("model", "jumps", k)) for k in ("beta", "B")]
    + [(FIG1_CONFIG, ("model", k)) for k in ("drift", "jump_rate", "kill_rate", "jumps")]
    + [(FIG1_CONFIG, ("problem", "lower"))]
    + [(FIG1_CONFIG, ("grid", k)) for k in ("start", "stop", "points")]
)
FIELD_NAMES = sorted({p[-1] for p in FUZZ_PATHS} | {"kind", "c", "K", "lam", "q", "mu", "b"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["constant", "segerdahl", "tabulated", "cubic", "json", "upward"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)

# (base config, field path, non-finite value, subcommand); the kill rate has
# its own out-of-process test below.
NON_FINITE_CASES = {
    "jump_rate": (FIG1_CONFIG, ("model", "jump_rate"), INF, "solve"),
    "relaxing-K": (FIG1_CONFIG, ("model", "drift", "K"), NAN, "solve"),
    "relaxing-mu": (FIG1_CONFIG, ("model", "drift", "mu"), INF, "simulate"),
    "constant-c": (CONST_CONFIG, ("model", "drift", "c"), INF, "solve"),
    "table-x": (
        CONST_CONFIG, ("model", "drift"),
        {"kind": "tabulated", "x": [0.0, NAN, 2.0], "values": [1.0, 1.0, 1.0]}, "solve",
    ),
    "table-values": (
        CONST_CONFIG, ("model", "drift"),
        {"kind": "tabulated", "x": [0.0, 1.0, 2.0], "values": [1.0, NAN, 1.0]}, "solve",
    ),
    "jumps-B": (FIG1_CONFIG, ("model", "jumps", "B"), [[NAN]], "solve"),
    "jumps-beta": (FIG1_CONFIG, ("model", "jumps", "beta"), [NAN], "simulate"),
    "problem-lower": (FIG1_CONFIG, ("problem", "lower"), NAN, "solve"),
    "problem-upper": (FIG1_CONFIG, ("problem", "upper"), INF, "solve"),
    "problem-overshoot_xi": (FIG1_CONFIG, ("problem", "overshoot_xi"), NAN, "simulate"),
    "grid-start": (FIG1_CONFIG, ("grid", "start"), NAN, "solve"),
    "grid-stop": (FIG1_CONFIG, ("grid", "stop"), INF, "solve"),
    "sim-x0": (FIG1_CONFIG, ("sim", "x0"), NAN, "simulate"),
    "sim-max_time": (CONST_CONFIG, ("sim", "max_time"), INF, "simulate"),
}


class TestConfigParsing:
    def test_round_trip(self):
        rc = parse_config(FIG1_CONFIG)
        again = parse_config(config_to_dict(rc))
        assert config_to_dict(again) == config_to_dict(rc)

    def test_unknown_top_level_field(self):
        bad = dict(FIG1_CONFIG, extra=1)
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(bad)

    def test_bad_schema_version(self):
        bad = dict(FIG1_CONFIG, schema_version="99")
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(bad)

    def test_unknown_model_field_carries_path(self):
        bad = json.loads(json.dumps(FIG1_CONFIG))
        bad["model"]["bogus"] = 1
        with pytest.raises(ConfigError) as e:
            parse_config(bad)
        assert e.value.path == "$.model"

    def test_sim_fields_are_the_simulation_config_fields(self):
        # A constructor field cannot outlive its config field, nor the reverse.
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert _SIM_FIELDS.keys() == names(SimConfig) - {"model", "problem"}
        for cls in (ConstantDrift, SegerdahlDrift, TabulatedDrift, ModelSpec, PassageProblem,
                    GridSpec):
            assert _READERS[cls].keys() == names(cls)
        assert _READERS[PhaseType].keys() == names(PhaseType) | {"b"}

    @pytest.mark.parametrize("path, default", [
        (("model", "jump_direction"), "downward"),
        (("problem", "estimand"), "ruin_below"),
        (("problem", "overshoot_xi"), 0.0),
        (("model", "drift", "interpolation"), "cubic"),
    ], ids=lambda v: v[-1] if isinstance(v, tuple) else None)
    def test_null_leaves_an_optional_field_at_its_default(self, path, default):
        rc = parse_config(with_value(CUBIC_TABLE_CONFIG, path, None))
        block = rc.model if path[0] == "model" else rc.problem
        for key in path[1:]:
            block = getattr(block, key)
        assert block == default

    def test_missing_model(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config({"schema_version": "1"})

    def test_grid_validation(self):
        bad = json.loads(json.dumps(FIG1_CONFIG))
        bad["grid"] = {"start": 2.0, "stop": 1.0, "points": 5}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="line"):
            load_config_file(str(p))

    @pytest.mark.parametrize("path", BLOCKS, ids=[".".join(p) for p in BLOCKS])
    def test_non_object_block_carries_path(self, path, tmp_path):
        for value in (5, "csv", [1.0, 2.0], True):
            cfg = with_value(FIG1_CONFIG, path, value)
            with pytest.raises(ConfigError, match="must be an object") as e:
                parse_config(cfg)
            assert e.value.path == "$." + ".".join(path)
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--quiet"]) == EXIT_CONFIG

    @settings(max_examples=300, deadline=None, database=None)
    @given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
    def test_fuzzed_block_is_parsed_or_rejected(self, path, value):
        try:
            rc = parse_config(with_value(FUZZ_BASE, path, value))
        except ConfigError:
            return
        assert isinstance(rc, RunConfig)
        assert config_to_dict(parse_config(config_to_dict(rc))) == config_to_dict(rc)


class TestDispatchGates:
    def test_constant_drift_closed_form(self):
        rc = parse_config(CONST_CONFIG)
        grid = rc.grid.array()
        curve, reasons = closed_form_gates(rc.model, rc.problem, grid)
        assert curve is not None and curve.method == "closed_form"
        assert curve.psi[0] == pytest.approx(0.5)

    def test_relaxing_drift_closed_form(self):
        rc = parse_config(FIG1_CONFIG)
        curve, _ = closed_form_gates(rc.model, rc.problem, rc.grid.array())
        assert curve is not None and curve.method == "closed_form"
        assert curve.psi[0] == 1.0

    def test_mismatched_family_rates_fall_through(self):
        cfg = json.loads(json.dumps(FIG1_CONFIG))
        cfg["model"]["drift"]["q"] = 0.25  # drift family != model kill rate
        rc = parse_config(cfg)
        curve, reasons = closed_form_gates(rc.model, rc.problem, rc.grid.array())
        assert curve is None
        assert any("rates matching" in r for r in reasons)

    def test_erlang_constant_drift_gives_one_reason_per_form(self):
        cfg = with_value(CONST_CONFIG, ("model", "jumps"), ERLANG3_JUMPS)
        cfg["model"]["kill_rate"] = 0.5
        rc = parse_config(cfg)
        curve, reasons = closed_form_gates(rc.model, rc.problem, rc.grid.array())
        assert curve is None
        assert len(reasons) == len(cli.CLOSED_FORMS)
        lacks = ["one-phase exponential jumps", "the relaxing drift family", "kill rate 0"]
        for (name, _), reason, lack in zip(cli.CLOSED_FORMS, reasons, lacks):
            assert reason == f"{name}: needs {lack}"
            assert "form" not in reason[len(name):]

    def test_overshoot_penalty_gives_the_one_sided_reason(self):
        rc = parse_config(OVERSHOOT_CONFIG)
        curve, reasons = closed_form_gates(rc.model, rc.problem, rc.grid.array())
        assert curve is None
        assert reasons == [ONE_SIDED_REASON]

    @pytest.mark.parametrize("estimand", ["ruin_below", "exit_above"])
    def test_two_sided_problem_gives_the_one_sided_reason(self, estimand):
        cfg = with_value(CONST_CONFIG, ("problem",),
                         {"lower": 0.0, "upper": 5.0, "estimand": estimand})
        rc = parse_config(cfg)
        curve, reasons = closed_form_gates(rc.model, rc.problem, rc.grid.array())
        assert curve is None
        assert reasons == [ONE_SIDED_REASON]

    @seed(28)
    @settings(max_examples=30, deadline=None, database=None)
    @given(c=st.floats(0.1, 10.0), mu=st.floats(0.6, 2.5), share=st.floats(0.01, 1.0))
    @example(c=1.0, mu=2.0, share=2.0 / 3.0)  # lam = 1: psi(30) came out -4.68e-14
    def test_flat_table_zero_kill_form_keeps_its_tail(self, c, mu, share):
        # A flat linear table is constant drift given as a table, so the
        # zero-kill quadrature form answers, with the decay rate
        # mu - lam/c >= 0.5 keeping its far point inside the table.
        lam = c * share * (mu - 0.5)
        drift = TabulatedDrift((0.0, 400.0), (c, c), "linear")
        model = ModelSpec(drift, lam, 0.0, PhaseType((1.0,), ((-mu,),)))
        grid = np.linspace(0.0, 30.0, 7)
        curve, reasons = closed_form_gates(model, PassageProblem(0.0), grid)
        assert curve is not None and curve.method == "closed_form", reasons
        assert len(reasons) == len(cli.CLOSED_FORMS) - 1  # the zero-kill form answered
        exact = lam / (c * mu) * np.exp(-(mu - lam / c) * grid)
        assert np.all(curve.psi >= 0)
        np.testing.assert_allclose(curve.psi, exact, rtol=1e-9, atol=0)

    def test_perturbed_tabulated_drift_falls_to_bvp(self, tmp_path):
        rc = parse_config(PERTURBED_TABLE_CONFIG)
        curve, reasons = closed_form_gates(rc.model, rc.problem, rc.grid.array())
        assert curve is None
        path = write_config(tmp_path, PERTURBED_TABLE_CONFIG)
        out = str(tmp_path / "sol")
        assert main(["solve", "--config", path, "--output", out, "--quiet"]) == EXIT_OK
        text = (tmp_path / "sol.csv").read_text()
        assert "ode_bvp" in text


# Command lines with a bad option value, run from a directory holding only
# cfg.json (CONST_CONFIG); each must exit 1 and write nothing.
USAGE_ERRORS = [
    ["figure1", *opts]
    for opts in (["--points", "0"], ["--points", "1"], ["--mu", "-1"], ["--lam", "0"],
                 ["--q", "-1"], ["--K", "1.5"], ["--x-max", "-1"])
] + [
    ["compare", "--config", "cfg.json", "--output", "cmp", *opts]
    for opts in (["--mc-points", "0"], ["--mc-points", "-3"], ["--paths", "0"])
] + [
    ["check-integrability", "--config", "cfg.json", "--output", "gate", "--grid-points", "1"],
    ["simulate", "--config", "cfg.json", "--output", "est", "--seed", "-1"],
] + [
    # Options that no subcommand has: the output's extension picks its
    # format, figure1 names its own files, and only solve and figure1 write
    # into a directory.
    ["solve", "--config", "cfg.json", "--format", "json"],
    ["figure1", "--output", "f"],
] + [
    [subcommand, "--config", "cfg.json", "--output-dir", "d"]
    for subcommand in ("check-solvability", "check-integrability", "simulate", "compare")
]

# Grids outside the problem's levels, each with its refusal at $.grid.
GRID_OUTSIDE_LEVELS = {
    "below-lower": (with_value(CONST_CONFIG, ("grid",), {"start": -1.0, "stop": 5.0, "points": 7}),
                    "grid [-1, 5] must lie inside the problem's [lower, upper] = [0, inf]"),
    "above-upper": (with_value(CONST_CONFIG, ("problem",), {"lower": 0.0, "upper": 3.0}),
                    "grid [0, 5] must lie inside the problem's [lower, upper] = [0, 3]"),
}

# Sim fields that no problem admits, each with its refusal at $.sim.
BAD_SIM_FIELDS = {
    "x0-nan": ("x0", NAN, "simulation x0 must be finite"),
    "max_time-inf": ("max_time", INF, "simulation max_time must be finite"),
    "n_paths-negative": ("n_paths", -5, "n_paths must be >= 1"),
    "n_paths-zero": ("n_paths", 0, "n_paths must be >= 1"),
    "seed-negative": ("seed", -3, "seed must be nonnegative"),
    "max_time-negative": ("max_time", -1.0, "max_time must be positive"),
    "max_time-zero": ("max_time", 0.0, "max_time must be positive"),
    "kill_mode": ("kill_mode", "foo", "kill_mode must be 'weight' or 'horizon'"),
}


class TestExitCodes:
    def test_solve_ok(self, tmp_path):
        path = write_config(tmp_path, FIG1_CONFIG)
        out = str(tmp_path / "s")
        assert main(["solve", "--config", path, "--output", out, "--quiet"]) == EXIT_OK

    def test_solve_with_huge_constant_drift(self, tmp_path, capsys):
        # c = 1e16 once exited 2 with "float division by zero"; ruin from 0
        # is lam/(c mu).
        path = write_config(tmp_path, with_value(CONST_CONFIG, ("model", "drift", "c"), 1e16))
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out)]) == EXIT_OK
        assert "psi(0) = 5e-17," in capsys.readouterr().out
        assert float(out.read_text().splitlines()[1].split(",")[1]) == 5e-17

    def test_missing_config_is_usage_error(self):
        assert main(["solve", "--config", "/no/such/file.json"]) == EXIT_CONFIG

    def test_unknown_field_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, dict(FIG1_CONFIG, junk=1))
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_flow_tolerance_is_an_unknown_sim_field(self, tmp_path, capsys):
        # The tabulated flow stops its Newton steps at passage_model.FLOW_TOL.
        config = write_config(tmp_path, with_value(FIG1_CONFIG, ("sim", "flow_tolerance"), 1e-10))
        assert main(["simulate", "--config", config, "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: $.sim: unknown fields: ['flow_tolerance']\n"

    @pytest.mark.parametrize("subcommand", [
        "solve", "check-solvability", "check-integrability", "simulate", "compare"])
    @pytest.mark.parametrize("config, message", GRID_OUTSIDE_LEVELS.values(),
                             ids=GRID_OUTSIDE_LEVELS)
    def test_grid_outside_the_levels_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, subcommand, config, message
    ):
        # solve used to write psi(-1) = 1.359 > 1 with exit 0 below lower,
        # and to exit 2 with a "numerical failure" past upper.
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, config)
        assert main([subcommand, "--config", "cfg.json", "--output", "out", "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: $.grid: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("points", [100.5, "101", True])
    def test_grid_points_must_be_an_integer(self, tmp_path, capsys, points):
        path = write_config(tmp_path, with_value(FIG1_CONFIG, ("grid", "points"), points))
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: $.grid.points: must be an integer, got {points!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, config, message", [
        ("simulate", {k: v for k, v in FIG1_CONFIG.items() if k != "problem"},
         "$.problem: a 'problem' block is required for simulation"),
        ("simulate", with_value(FIG1_CONFIG, ("sim",), {"n_paths": 100, "seed": 1}),
         "$.sim: missing simulation fields: ['x0']"),
        ("solve", [FIG1_CONFIG], "$: top-level document must be an object"),
        ("solve", with_value(FIG1_CONFIG, ("grid", "step"), 0.1),
         "$.grid: unknown fields: ['step']"),
        ("solve", {k: v for k, v in FIG1_CONFIG.items() if k != "grid"},
         "$.grid: a 'grid' block is required for this subcommand"),
        ("solve", with_value(FUZZ_BASE, ("model", "drift", "x"), [0.0, 2.0, 1.0]),
         "$.model.drift: drift table x must be strictly increasing"),
        ("solve", with_value(FUZZ_BASE, ("model", "drift", "sign_domain"), [0.0, 3.0]),
         "$.model.drift: sign_domain must be an interval inside the table"),
        # used to print "'int' object is not subscriptable"
        ("solve", with_value(FUZZ_BASE, ("model", "drift", "sign_domain"), 3),
         "$.model.drift.sign_domain: must be a list, got int"),
        ("solve", with_value(FUZZ_BASE, ("model", "drift", "sign_domain"), [0.0, 1.0, 2.0]),
         "$.model.drift: sign_domain must be a pair [lo, hi]"),
        ("solve", with_value(CONST_CONFIG, ("model", "drift", "c"), 10**400),
         "$.model.drift.c: must be a finite number"),
        ("solve", with_value(CONST_CONFIG, ("model", "drift", "kind"), "cubic"),
         "$.model.drift.kind: unknown drift kind 'cubic'"),
        # the extension of --output picks the format
        ("solve", dict(CONST_CONFIG, output={"directory": "d", "format": "json"}),
         "$.output: unknown fields: ['format']"),
    ], ids=["no-problem", "no-x0", "array", "grid-step", "no-grid", "table-order",
            "sign-domain", "sign-domain-number", "sign-domain-triple", "huge-integer",
            "drift-kind", "output-format"])
    def test_config_refusal_names_the_field(self, tmp_path, capsys, subcommand, config, message):
        path = write_config(tmp_path, config)
        assert main([subcommand, "--config", path, "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("value", ["1", True])
    @pytest.mark.parametrize("config, path", NUMBER_FIELDS,
                             ids=[dotted(p) for _, p in NUMBER_FIELDS])
    def test_number_field_refuses_a_string_or_bool(self, tmp_path, capsys, config, path, value):
        # "c": "1.0", "jump_rate": true, "sim": {"x0": "1"} and "B": [["-2"]]
        # all used to run with exit 0
        kind = "an integer" if path in INTEGER_FIELDS else "a number"
        cfg = write_config(tmp_path, with_value(config, path, value))
        assert main(["solve", "--config", cfg, "--quiet", "--output", str(tmp_path / "s")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {dotted(path)}: must be {kind}, got {value!r}\n"
        )

    @pytest.mark.parametrize("null", [False, True], ids=["deleted", "null"])
    @pytest.mark.parametrize("config, path", REQUIRED_FIELDS,
                             ids=[dotted(p) for _, p in REQUIRED_FIELDS])
    def test_missing_required_field_is_named(self, tmp_path, capsys, config, path, null):
        # a missing model.drift.c used to print "config error: $.model: 'c'"
        cfg = with_value(config, path, None) if null else without(config, path)
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {dotted(path[:-1])}: missing {path[-2]} fields: ['{path[-1]}']\n"
        )

    @pytest.mark.parametrize("field", ["start", "stop", "points"])
    def test_missing_grid_field_is_named(self, tmp_path, capsys, field):
        grid = {k: v for k, v in CONST_CONFIG["grid"].items() if k != field}
        path = write_config(tmp_path, dict(CONST_CONFIG, grid=grid))
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: $.grid: missing grid fields: ['{field}']\n"

    def test_nan_step_size_is_numerical_error(self, tmp_path):
        # lam / phi overflows on this drift, so the first right-hand side of
        # the linear system is NaN; the integration used to loop forever.
        table = {"kind": "tabulated", "x": [0.0, 5.0], "values": [-1e-310, -1e-310],
                 "interpolation": "linear"}
        cfg = with_value(with_value(CONST_CONFIG, ("model", "drift"), table),
                         ("model", "kill_rate"), 0.5)
        path = write_config(tmp_path, dict(cfg, grid={"start": 0.0, "stop": 5.0, "points": 11}))
        out = tmp_path / "s.csv"
        proc = run_cli(["solve", "--config", path, "--output", str(out), "--quiet"], timeout=60)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines()[-1] == (
            "numerical failure: linear-system integration failed: "
            "Required step size is less than spacing between numbers."
        )
        assert not out.exists()

    def test_argparse_usage_error(self, capsys):
        assert main(["no-such-subcommand"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_impossible_problem_answers_zero(self, tmp_path, capsys):
        # Negative drift with downward jumps never moves up, so exit above is
        # impossible: Psi = M = 0.  solve used to exit 2 here.
        cfg = json.loads(json.dumps(FIG1_CONFIG))
        cfg["problem"]["upper"] = 2.0
        cfg["problem"]["estimand"] = "exit_above"
        cfg["grid"] = {"start": 0.0, "stop": 2.0, "points": 11}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "s.json"
        argv = ["solve", "--config", path, "--output", str(out), "--quiet"]
        assert main(argv) == EXIT_OK
        curve = json.loads(out.read_text())
        assert curve["psi"] == [0.0] * 11 and curve["m"] == [[0.0]] * 11
        assert curve["error_estimate"] == [0.0] * 11 and curve["boundary_residual"] == 0.0
        assert main(["simulate", "--config", path, "--paths", "2000"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "estimate 0 +- 0 (ruined 2000, escaped 0, censored 0, killed 0; "
            "target two_sided_exit_above)\n"
        )

    @pytest.mark.parametrize("jumps", [{"beta": [1.0], "B": [[-1.0]]}, ERLANG3_JUMPS],
                             ids=["exp", "erlang3"])
    def test_negative_drift_with_upward_jumps_is_numerical_error(self, tmp_path, capsys, jumps):
        model = {"drift": {"kind": "constant", "c": -1.0}, "jump_rate": 0.5, "kill_rate": 0.5,
                 "jumps": jumps, "jump_direction": "upward"}
        path = write_config(tmp_path, dict(CONST_CONFIG, model=model))
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out), "--quiet"]) == EXIT_NUMERICAL
        assert "upward jumps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", [1.0, 0.8], ids=["critical", "below"])
    def test_zero_kill_without_net_profit_solves_to_certain_ruin(self, tmp_path, capsys, c):
        # Erlang-3 jumps with mean 1 and jump rate 1: c <= lam E[C].
        cfg = with_value(CONST_CONFIG, ("model", "jumps"), ERLANG3_JUMPS)
        path = write_config(tmp_path, with_value(cfg, ("model", "drift", "c"), c))
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out), "--quiet"]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {tuple(r[1:]) for r in rows} == {("1", "1", "1", "1", "ode_bvp")}

    def test_near_critical_net_profit_solves(self, tmp_path):
        # Erlang-3 jumps with mean 1 and jump rate 1 at c = 1.0001: solve used
        # to exit 2 ("truncation certificate failure at X_max").
        cfg = with_value(CONST_CONFIG, ("model", "jumps"), ERLANG3_JUMPS)
        path = write_config(tmp_path, with_value(cfg, ("model", "drift", "c"), 1.0001))
        out = tmp_path / "s.csv"
        proc = run_cli(["solve", "--config", path, "--output", str(out), "--quiet"], timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        first = out.read_text().splitlines()[1].split(",")
        assert first[0] == "0" and abs(float(first[1]) - 1.0 / 1.0001) <= 1e-13

    def test_positive_drift_with_upward_jumps_is_never_ruined(self, tmp_path, capsys):
        # solve used to exit 2 ("decaying eigenspace has dimension 0,
        # expected 3"), and simulate to censor every path with a warning
        # that max_time was too small.
        model = {"drift": {"kind": "constant", "c": 1.0}, "jump_rate": 0.5, "kill_rate": 0.5,
                 "jumps": ERLANG3_JUMPS, "jump_direction": "upward"}
        path = write_config(tmp_path, dict(CONST_CONFIG, model=model))
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out), "--quiet"]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 21
        assert {tuple(r[1:]) for r in rows} == {("0", "0", "0", "0", "ode_bvp")}
        proc = run_cli(["simulate", "--config", path, "--paths", "2000"])
        assert proc.returncode == EXIT_OK
        assert proc.stdout == (
            "estimate 0 +- 0 (ruined 0, escaped 2000, censored 0, killed 0; target psi_q)\n"
        )
        assert proc.stderr == ""

    @pytest.mark.parametrize("jumps", [{"beta": [1.0], "B": [[-1.0]]}, ERLANG3_JUMPS],
                             ids=["exp", "erlang3"])
    def test_upward_exit_above_agrees_with_simulate(self, tmp_path, capsys, jumps):
        # solve used to print psi(0.5) = 0.0206 and M = -0.0099 with Exp(1)
        # jumps, and psi(0.5) ~ 0 with Erlang-3, where Monte Carlo gives 0.41.
        model = {"drift": {"kind": "constant", "c": 1.0}, "jump_rate": 0.5, "kill_rate": 0.5,
                 "jumps": jumps, "jump_direction": "upward"}
        cfg = dict(CONST_CONFIG, model=model,
                   problem={"lower": 0.0, "upper": 3.0, "estimand": "exit_above"},
                   grid={"start": 0.0, "stop": 3.0, "points": 7})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out), "--quiet"]) == EXIT_OK
        rows = [[float(v) for v in line.split(",")[:-1]] for line in out.read_text().splitlines()[1:]]
        assert rows[1][0] == 0.5
        assert all(0.0 <= v <= 1.0 for row in rows for v in row[1:])
        argv = ["simulate", "--config", path, "--x0", "0.5", "--paths", "40000", "--seed", "1"]
        assert main(argv) == EXIT_OK
        words = capsys.readouterr().out.split()
        mean, std_error = float(words[1]), float(words[3])
        assert abs(rows[1][1] - mean) <= 3.0 * std_error

    @pytest.mark.parametrize("drift, stop", [
        ({"kind": "tabulated", "x": [0.0, 5.5], "values": [1.0, 1.0], "interpolation": "linear"}, 5.0),
        ({"kind": "segerdahl", "K": math.exp(3.0), "lam": 0.5, "q": 0.5, "mu": 1.5}, 0.5),
    ], ids=["table", "relaxing"])
    def test_truncation_past_the_sign_domain_is_numerical_error(self, tmp_path, capsys, drift, stop):
        # The decay certificate used to be probed at grid end + 1, past the
        # sign domain's end (5.5, and the relaxing drift's root at 1), which
        # raised a generic "outside the sign-constant domain".
        model = {"drift": drift, "jump_rate": 1.0, "kill_rate": 0.5,
                 "jumps": {"beta": [1.0], "B": [[-2.0]]}}
        path = write_config(tmp_path, dict(CONST_CONFIG, model=model,
                                           grid={"start": 0.0, "stop": stop, "points": 11}))
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_NUMERICAL
        assert "X_max" in capsys.readouterr().err

    def test_two_sided_positive_drift_with_upward_jumps_is_never_ruined(self, tmp_path):
        # solve used to print Psi = 0.687, 0.879, 0.948 at x = 0, 1, 2 with
        # exit 0: collocation imposed M(0) = 1, a condition of downward jumps.
        model = {"drift": {"kind": "constant", "c": 1.0}, "jump_rate": 0.5, "kill_rate": 0.5,
                 "jumps": {"beta": [1.0], "B": [[-1.0]]}, "jump_direction": "upward"}
        cfg = dict(CONST_CONFIG, model=model, problem={"lower": 0.0, "upper": 3.0},
                   grid={"start": 0.0, "stop": 3.0, "points": 4})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", path, "--output", str(out), "--quiet"]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1:] for r in rows] == [["0", "0", "ode_bvp"]] * 4
        proc = run_cli(["simulate", "--config", path, "--paths", "2000"])
        assert proc.returncode == EXIT_OK
        assert proc.stdout == (
            "estimate 0 +- 0 (ruined 0, escaped 2000, censored 0, killed 0; target two_sided_ruin_below)\n"
        )
        assert proc.stderr == ""

    def test_overshoot_penalty_solve_is_refused(self, tmp_path, capsys):
        # solve used to write the unpenalised Psi(1) = 0.184 with exit 0
        out = tmp_path / "s.csv"
        argv = ["solve", "--config", write_config(tmp_path, OVERSHOOT_CONFIG), "--output", str(out)]
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == f"gate failed: {ONE_SIDED_REASON}\n"
        assert captured.err == (
            "numerical failure: needs overshoot_xi = 0: the overshoot penalty is Monte Carlo only\n"
        )
        assert not out.exists()

    def test_overshoot_penalty_compare_has_nothing_to_compare(self, tmp_path, capsys):
        # compare used to exit 3, holding the unpenalised curves against the
        # penalised Monte Carlo band
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--config", write_config(tmp_path, OVERSHOOT_CONFIG),
                "--output", str(out), "--paths", "100", "--mc-points", "2"]
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"note: {ONE_SIDED_REASON}",
            "note: ode_bvp unavailable: needs overshoot_xi = 0: "
            "the overshoot penalty is Monte Carlo only",
        ]
        assert "nothing to compare" in captured.err
        assert not out.exists()

    def test_overshoot_penalty_simulate_estimates_it(self, tmp_path, capsys):
        # Exp(mu) jumps: the overshoot is Exp(mu) whatever the ruin time, so the
        # penalised target is Psi(x0) mu/(mu + xi) with Psi(x) = 0.5 e^{-x}
        out = tmp_path / "est.json"
        argv = ["simulate", "--config", write_config(tmp_path, OVERSHOOT_CONFIG),
                "--paths", "20000", "--output", str(out), "--quiet"]
        assert main(argv) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["target"] == "psi_q_overshoot"
        exact = 0.5 * math.exp(-1.0) * 2.0 / (2.0 + 3.0)
        assert abs(data["mean"] - exact) < 5 * data["std_error"]

    @pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, case):
        base, path, value, subcommand = NON_FINITE_CASES[case]
        config = write_config(tmp_path, with_value(base, path, value))
        out = str(tmp_path / "out")
        assert main([subcommand, "--config", config, "--quiet", "--output", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        block = path[:2] if path[1:2] in (("drift",), ("jumps",)) else path[:1]
        assert err.startswith(f"config error: {dotted(block)}: ")
        assert "must be finite" in err

    @pytest.mark.parametrize("case", sorted(BAD_SIM_FIELDS))
    def test_bad_sim_field_is_refused_when_the_config_is_read(
        self, tmp_path, monkeypatch, capsys, case
    ):
        # solve builds no simulation, and used to emit these fields as given
        field, value, message = BAD_SIM_FIELDS[case]
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, with_value(CONST_CONFIG, ("sim", field), value))
        argv = ["solve", "--config", "cfg.json", "--output", "s.csv", "--emit-config", "e.json"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: $.sim: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["check-solvability"], ["check-integrability"], ["compare", "--paths", "10"],
        ["simulate", "--paths", "10", "--x0", "1"],
    ], ids=lambda argv: argv[0])
    def test_bad_sim_field_stops_every_subcommand(self, tmp_path, monkeypatch, capsys, argv):
        # an --x0 or --paths override does not mend the config
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, with_value(CONST_CONFIG, ("sim", "n_paths"), -5))
        assert main([*argv, "--config", "cfg.json", "--output", "r",
                     "--emit-config", "e.json"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: $.sim: n_paths must be >= 1\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("subcommand", ["solve", "simulate"])
    def test_nan_kill_rate_exits_without_hanging(self, tmp_path, subcommand):
        # A NaN kill rate used to make solve loop forever and simulate
        # print "estimate nan +- nan" with exit 0.
        config = write_config(tmp_path, with_value(FIG1_CONFIG, ("model", "kill_rate"), NAN))
        proc = run_cli([subcommand, "--config", config, "--quiet"], timeout=60)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: $.model: model kill_rate must be finite")

    def test_positive_drift_leaving_the_table_is_numerical_error(self, tmp_path):
        cfg = with_value(
            CONST_CONFIG,
            ("model", "drift"),
            {"kind": "tabulated", "x": list(np.linspace(0.0, 5.0, 11)), "values": [1.0] * 11},
        )
        cfg["sim"] = {"x0": 1.0, "n_paths": 50, "seed": 1}
        proc = run_cli(["simulate", "--config", write_config(tmp_path, cfg), "--quiet"])
        assert proc.returncode == EXIT_NUMERICAL
        assert "numerical failure: flow left the drift table" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncation_point_past_the_table_is_numerical_error(self, tmp_path, capsys):
        # Drift 1 against Erlang-3 jumps of mean 1 at zero kill: the slowest
        # decay rate is ~3e-8, so X_max lands far past the end of the table.
        cfg = with_value(
            CONST_CONFIG,
            ("model", "drift"),
            {"kind": "tabulated", "x": [0.0, 300.0], "values": [1.0, 1.0], "interpolation": "linear"},
        )
        cfg["model"]["jumps"] = ERLANG3_JUMPS
        out = tmp_path / "s.csv"
        argv = ["solve", "--config", write_config(tmp_path, cfg), "--output", str(out), "--quiet"]
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: truncation point X_max = 8.129")
        assert "past the end 300 of the drift's sign domain" in err
        assert "slowest decay rate 2.8" in err
        assert not out.exists()

    def test_truncation_without_net_profit_is_numerical_error(self, tmp_path, capsys):
        # Drift 0.8 against Erlang-3 jumps of mean 1 at zero kill: without net
        # profit one mode of the system matrix does not decay.
        cfg = with_value(
            CONST_CONFIG,
            ("model", "drift"),
            {"kind": "tabulated", "x": [0.0, 300.0], "values": [0.8, 0.8], "interpolation": "linear"},
        )
        cfg["model"]["jumps"] = ERLANG3_JUMPS
        out = tmp_path / "s.csv"
        argv = ["solve", "--config", write_config(tmp_path, cfg), "--output", str(out), "--quiet"]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: truncation certificate failure: decaying eigenspace has "
            "dimension 2, expected 3\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) for a in USAGE_ERRORS])
    def test_bad_option_value_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, CONST_CONFIG)
        assert main(argv) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("subcommand", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "field, value", [("seed", "abc"), ("seed", 1.9), ("seed", True), ("n_paths", 2.5)]
    )
    def test_non_integer_seed_or_path_count_is_config_error(
        self, tmp_path, monkeypatch, capsys, subcommand, field, value
    ):
        # compare used to run every solver first and exit 2 on "abc", and a
        # seed of 1.9 silently ran as 1
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, with_value(CONST_CONFIG, ("sim", field), value))
        assert main([subcommand, "--config", "cfg.json", "--output", "out"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: $.sim.{field}: must be an integer")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_round_budget_exhaustion_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        # a relaxing drift with K > 1 holds paths near its root
        # ln(K)/(2 mu) ~ 4.6, where no Lundberg level applies and a jump
        # rarely ruins: most paths are still alive after the round budget
        monkeypatch.setattr("pdmpruin.mc_sim.ROUND_BUDGET", 1000)
        cfg = with_value(FIG1_CONFIG, ("model", "drift", "K"), 1e6)
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--paths", "100",
                "--max-time", "1e5"]
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: batch engine exceeded its round budget\n"

    def test_integral_float_path_count_is_accepted(self):
        rc = parse_config(with_value(CONST_CONFIG, ("sim", "n_paths"), 1e5))
        assert rc.sim_config().n_paths == 100000

    def test_exit_above_compare_skips_the_ratio_oracle(self, tmp_path):
        cfg = json.loads(json.dumps(CONST_CONFIG))
        cfg["problem"] = {"lower": 0.0, "upper": 2.0, "estimand": "exit_above"}
        cfg["grid"] = {"start": 0.0, "stop": 2.0, "points": 11}
        proc = run_cli(["compare", "--config", write_config(tmp_path, cfg), "--paths", "10"])
        assert proc.returncode == EXIT_NUMERICAL
        assert "nothing to compare" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Psi/M is undefined at the lower level" in proc.stdout

    def test_single_method_compare_fails(self, tmp_path, capsys):
        # upward jumps: no closed form and no ratio oracle, one method only
        cfg = json.loads(json.dumps(CONST_CONFIG))
        cfg["model"]["jump_direction"] = "upward"
        cfg["problem"] = {"lower": 0.0, "upper": 3.0, "estimand": "ruin_below"}
        cfg["grid"] = {"start": 0.0, "stop": 3.0, "points": 11}
        path = write_config(tmp_path, cfg)
        rcode = main(["compare", "--config", path, "--quiet", "--paths", "10"])
        assert rcode == EXIT_NUMERICAL
        assert "nothing to compare" in capsys.readouterr().err


class TestCompare:
    def test_violation_counter(self):
        vals = np.array([0.5, 0.6, 0.7])
        means = np.array([0.5, 0.59, 0.9])
        errs = np.array([0.01, 0.01, 0.01])
        assert count_mc_violations(vals, means, errs, 10000) == 1

    def test_violation_counter_bounds_a_point_no_path_reached(self):
        # No path ruined: mean and standard error are 0.  The band is
        # [0, ln(1/0.00135)/n], 3.3e-5 at n = 200 000.
        vals = np.array([1.5e-7, 1.0e-9, 3.2e-5, 3.4e-5])
        zeros = np.zeros(4)
        assert count_mc_violations(vals, zeros, zeros, 200_000) == 1
        assert count_mc_violations(vals, zeros, zeros, 5_000) == 0

    def test_comparison_failure_exit_code(self, tmp_path, monkeypatch):
        # corrupt the closed form: compare must detect the MC mismatch
        def corrupted(model, problem, grid):
            psi = 0.5 * np.exp(-np.asarray(grid))
            return SolutionCurve(grid, psi + 0.2, psi[:, None] * 2, "closed_form"), []

        monkeypatch.setattr(cli, "closed_form_gates", corrupted)
        path = write_config(tmp_path, CONST_CONFIG)
        rcode = main(
            ["compare", "--config", path, "--quiet", "--paths", "4000", "--mc-points", "4"]
        )
        assert rcode == EXIT_COMPARISON

    def test_constant_drift_compare_ok(self, tmp_path):
        path = write_config(tmp_path, CONST_CONFIG)
        out = str(tmp_path / "cmp")
        rcode = main(
            ["compare", "--config", path, "--output", out, "--quiet",
             "--paths", "4000", "--mc-points", "4"]
        )
        assert rcode == EXIT_OK
        header = (tmp_path / "cmp.csv").read_text().splitlines()[0]
        assert header.startswith("x,psi_")
        assert "mc_mean" in header

    def test_csv_equals_stdout_table(self, tmp_path, capsys):
        path = write_config(tmp_path, CONST_CONFIG)
        out = tmp_path / "cmp.csv"
        rcode = main(
            ["compare", "--config", path, "--output", str(out), "--paths", "2000",
             "--mc-points", "3"]
        )
        assert rcode == EXIT_OK
        text = out.read_bytes().decode()
        assert text.endswith("\n") and "\r" not in text
        table = text.splitlines()
        assert len(table) == 4
        stdout = capsys.readouterr().out.splitlines()
        start = stdout.index(table[0])
        assert stdout[start : start + len(table)] == table

    def test_relaxing_drift_compare_within_mc_band(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        rcode = main(["compare", "--config", path, "--paths", "5000", "--mc-points", "5"])
        assert rcode == EXIT_OK
        out = capsys.readouterr().out
        assert "0 MC violations" in out
        assert "psi_closed_form" in out and "psi_ode_bvp" in out

    def test_pinned_case_is_checked_down_its_tail(self, tmp_path):
        # psi(x) = 0.5 e^{-x} on 0..20: under the Lundberg tilt every path is
        # ruined, so each point, psi(20) = 1e-9 included, gets a nonzero band
        cfg = dict(CONST_CONFIG, grid={"start": 0.0, "stop": 20.0, "points": 101},
                   sim={"x0": 1.0, "n_paths": 20000, "seed": 11})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", path, "--output", str(out), "--quiet",
                     "--mc-points", "5", "--paths", "20000"]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(float(row.split(",")[-1]) > 0.0 for row in rows)
        est = tmp_path / "est.json"
        assert main(["simulate", "--config", path, "--x0", "15", "--output", str(est),
                     "--quiet"]) == EXIT_OK
        data = json.loads(est.read_text())
        assert data["mean"] > 0.0
        assert abs(data["mean"] - 0.5 * math.exp(-15.0)) < 3.0 * data["std_error"]

    def test_riccati_blow_up_leaves_the_other_oracles(self, tmp_path, capsys):
        # With killing, the true eta is the repelling root of the ratio
        # equation; integrated forward from l it is driven to a pole.
        cfg = with_value(CONST_CONFIG, ("model", "kill_rate"), 2.0)
        cfg = dict(cfg, grid={"start": 0.0, "stop": 20.0, "points": 101}, sim={"seed": 11})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--config", path, "--output", str(out), "--mc-points", "3",
                "--paths", "2000"]
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "comparison ok" in stdout
        note = re.search(r"^note: riccati_numeric unavailable: "
                         r"Riccati blow-up detected near x = (\S+)$", stdout, re.M)
        assert note and 10.4 < float(note.group(1)) < 10.5
        assert out.read_text().splitlines()[0] == "x,psi_closed_form,psi_ode_bvp,mc_mean,mc_3sigma"

    @pytest.mark.parametrize("config, reason", [
        (ERLANG3_CONST_CONFIG,
         "needs one-phase jumps (matrix Riccati equations are not supported)"),
        (with_value(dict(CONST_CONFIG, problem={"lower": 0.0, "upper": 3.0},
                         grid={"start": 0.0, "stop": 3.0, "points": 11}),
                    ("model", "jump_direction"), "upward"),
         "needs downward jumps (the ratio reduction is derived for them)"),
    ], ids=["erlang3", "upward"])
    def test_missing_riccati_column_is_noted(self, tmp_path, capsys, config, reason):
        # one method each: the note comes before "nothing to compare"
        path = write_config(tmp_path, config)
        assert main(["compare", "--config", path, "--paths", "10"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert f"note: riccati_numeric unavailable: {reason}\n" in captured.out
        assert "nothing to compare" in captured.err


class TestSubcommands:
    def test_check_solvability_output(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        out = str(tmp_path / "closure.json")
        assert main(["check-solvability", "--config", path, "--output", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "dimension 4, non-solvable" in text
        assert "gl(2,R)" in text
        data = json.loads((tmp_path / "closure.json").read_text())
        assert data["dimension"] == 4
        assert data["derived_series_dims"] == [4, 3, 3]

    def test_check_solvability_zero_kill_erlang7_output(self, tmp_path, capsys):
        # At q = 0 the algebra lies in {X : X 1 = 0}, of dimension 7 * 8 = 56.
        B = (np.diag(np.full(7, -7.0)) + np.diag(np.full(6, 7.0), 1)).tolist()
        cfg = json.loads(json.dumps(FIG1_CONFIG))
        cfg["model"]["kill_rate"] = 0.0
        cfg["model"]["drift"]["q"] = 0.0
        cfg["model"]["jumps"] = {"beta": [1.0] + [0.0] * 6, "B": B}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "closure.json")
        assert main(["check-solvability", "--config", path, "--output", out]) == EXIT_OK
        assert "dimension 56, non-solvable" in capsys.readouterr().out
        data = json.loads((tmp_path / "closure.json").read_text())
        assert data["derived_series_dims"] == [56, 55, 55]
        assert data["generations"] == 9

    def test_check_solvability_zero_kill(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(FIG1_CONFIG))
        cfg["model"]["kill_rate"] = 0.0
        cfg["model"]["drift"]["q"] = 0.0
        path = write_config(tmp_path, cfg)
        assert main(["check-solvability", "--config", path]) == EXIT_OK
        text = capsys.readouterr().out
        assert "dimension 2, solvable" in text
        assert "two-dimensional family" in text

    def test_check_solvability_erlang(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CONST_CONFIG))
        cfg["model"]["drift"] = {"kind": "segerdahl", "K": -1.0, "lam": 1.0, "q": 0.0, "mu": 1.0}
        cfg["model"]["jumps"] = {"beta": [1.0, 0.0], "B": [[-1.0, 1.0], [0.0, -1.0]]}
        path = write_config(tmp_path, cfg)
        assert main(["check-solvability", "--config", path]) == EXIT_OK
        assert "dimension" in capsys.readouterr().out

    @pytest.mark.parametrize("jumps", [CONST_CONFIG["model"]["jumps"], ERLANG3_JUMPS],
                             ids=["exp", "erlang3"])
    def test_check_solvability_constant_drift(self, tmp_path, capsys, jumps):
        # one constant system matrix: a one-dimensional abelian closure
        path = write_config(tmp_path, with_value(CONST_CONFIG, ("model", "jumps"), jumps))
        assert main(["check-solvability", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out == (
            "dimension 1, solvable\nderived series dimensions: (1, 0)\n"
        )

    def test_check_solvability_zero_drift(self, tmp_path, capsys):
        path = write_config(tmp_path, with_value(CONST_CONFIG, ("model", "drift", "c"), 0.0))
        assert main(["check-solvability", "--config", path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "drift is identically zero" in captured.err

    def test_check_integrability(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        out = str(tmp_path / "gate.json")
        assert main(["check-integrability", "--config", path, "--output", out]) == EXIT_OK
        assert "integrable" in capsys.readouterr().out
        data = json.loads((tmp_path / "gate.json").read_text())
        assert data["integrable"] is True
        assert abs(data["params"]["c1"]) < 1e-8

    def test_check_integrability_reports_a_rejected_drift(self, tmp_path, capsys):
        path = write_config(tmp_path, PERTURBED_TABLE_CONFIG)
        out = tmp_path / "gate.json"
        assert main(["check-integrability", "--config", path, "--output", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["integrable"] is False
        assert 0.0 <= data["witness_x"] <= 5.0  # on the config's grid [0, 5]
        witness = re.escape(f"{data['witness_x']:g}")
        line = (r"^not integrable by a scaling transformation: test function varies by "
                rf"\d\.\d{{3}}e[+-]\d+ \(worst point x={witness}\)$")
        assert re.search(line, stdout, re.M)

    @pytest.mark.parametrize("kill_mode", ["horizon", "weight"])
    def test_simulate_reads_the_kill_mode(self, tmp_path, capsys, kill_mode):
        path = write_config(tmp_path, with_value(FIG1_CONFIG, ("sim", "kill_mode"), kill_mode))
        out, emitted = tmp_path / "x.csv", tmp_path / "emitted.json"
        assert main(["simulate", "--config", path, "--paths", "1000", "--output", str(out),
                     "--emit-config", str(emitted), "--quiet"]) == EXIT_OK
        header, row = (line.split(",") for line in out.read_text().splitlines())
        n_killed = int(row[header.index("n_killed")])
        assert (n_killed > 0) == (kill_mode == "horizon")
        assert json.loads(emitted.read_text())["sim"]["kill_mode"] == kill_mode

    def test_simulate(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        out = str(tmp_path / "est")
        code = main(["simulate", "--config", path, "--paths", "2000", "--output", out])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "est.json").read_text())
        assert 0.0 <= data["mean"] <= 1.0
        assert data["n_paths"] == 2000
        capsys.readouterr()

    def test_simulate_csv_row(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        out = str(tmp_path / "est.csv")
        assert main(["simulate", "--config", path, "--paths", "1000",
                     "--output", out, "--quiet"]) == EXIT_OK
        lines = (tmp_path / "est.csv").read_text().splitlines()
        assert lines[0].startswith("x0,mean,std_error")
        assert len(lines) == 2
        assert lines[1].endswith("psi_q")
        capsys.readouterr()

    def test_simulate_prints_true_censoring_bias_bound(self, tmp_path, capsys):
        # weight mode, q > 0, sampled under the Lundberg tilt: a censored path
        # could have added at most e^{-R_q x0}, with kappa(-R_q) =
        # R_q / (2 - R_q) - R_q = q for c = 1, lam = 1 and Exp(2) jumps
        q, x0 = 0.1, 1.0
        cfg = with_value(CONST_CONFIG, ("model", "kill_rate"), q)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "est.json")
        assert main(["simulate", "--config", path, "--max-time", "10",
                     "--output", out]) == EXIT_OK
        data = json.loads((tmp_path / "est.json").read_text())
        assert data["n_censored"] > 0
        R = (1.0 - q + math.sqrt((1.0 - q) ** 2 + 8.0 * q)) / 2.0
        bound = data["censored_fraction"] * math.exp(-R * x0)
        assert f"censoring bias bound: {bound:.3g}\n" in capsys.readouterr().out

    def test_estimate_json_carries_the_printed_bias_bound(self, tmp_path, capsys):
        # The killed ladder route under a short horizon censors some paths.
        cfg = with_value(with_value(CONST_CONFIG, ("model", "kill_rate"), 0.1),
                         ("sim", "max_time"), 10.0)
        out = tmp_path / "est.json"
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--output", str(out)]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()[1]
        data = json.loads(out.read_text())
        assert data["n_censored"] > 0 and data["censored_weight_bound"] > 0.0
        assert printed == f"censoring bias bound: {data['censoring_bias_bound']:.3g}"
        assert data["censoring_bias_bound"] == data["censored_fraction"] * data["censored_weight_bound"]

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        main(["check-integrability", "--config", path, "--quiet"])
        assert capsys.readouterr().out == ""


class TestOutputDirectory:
    def test_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "from_env")
        configured = write_config(
            tmp_path, dict(CONST_CONFIG, output={"directory": "from_config"}), "configured.json"
        )
        plain = write_config(tmp_path, CONST_CONFIG, "plain.json")
        runs = [
            (["--config", configured, "--output-dir", "from_flag"], "from_flag"),
            (["--config", configured], "from_config"),
            (["--config", plain], "from_env"),
        ]
        for argv, directory in runs:
            assert main(["solve", "--quiet", *argv]) == EXIT_OK
            assert (tmp_path / directory / "solution.csv").is_file()
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV)
        assert main(["solve", "--quiet", "--config", plain]) == EXIT_OK
        assert (tmp_path / "solution.csv").is_file()

    def test_directory_must_be_a_string(self, tmp_path):
        with pytest.raises(ConfigError, match="must be a string") as e:
            parse_config(dict(CONST_CONFIG, output={"directory": 5}))
        assert e.value.path == "$.output.directory"


# A small compare: its solvers, on few Monte Carlo paths.
COMPARE_STEP = ["compare", "--paths", "2000", "--mc-points", "3"]


class TestOutputNames:
    """A result goes to ``--output`` if that ends in one of the subcommand's
    formats, else to it with the first one's extension appended; the
    extension picks the format."""

    @pytest.mark.parametrize("argv, written", [
        (["solve", "--output", "r.json"], "r.json"),
        (["solve", "--output", "r"], "r.csv"),
        (["solve", "--output", "r.txt"], "r.txt.csv"),
        (["simulate", "--paths", "1000", "--output", "r"], "r.json"),
        (["simulate", "--paths", "1000", "--output", "r.csv"], "r.csv"),
        ([*COMPARE_STEP, "--output", "r"], "r.csv"),
        ([*COMPARE_STEP, "--output", "r.json"], "r.json.csv"),
        (["check-solvability", "--output", "r"], "r.json"),
        (["check-integrability", "--output", "r"], "r.json"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_written_to(self, tmp_path, monkeypatch, capsys, argv, written):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, CONST_CONFIG)
        assert main([*argv, "--config", "cfg.json"]) == EXIT_OK
        assert f"wrote {written}\n" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", written])
        text = (tmp_path / written).read_text()
        if written.endswith(".json"):
            assert isinstance(json.loads(text), dict)
        else:
            assert text.split(",", 1)[0] in ("x", "x0")


# Every option of every subcommand: a new one is a deliberate edit here.
SUBCOMMAND_OPTIONS = {
    "check-solvability": {"--config", "--output", "--quiet", "--emit-config"},
    "check-integrability": {"--config", "--output", "--quiet", "--emit-config", "--grid-points"},
    "solve": {"--config", "--output", "--output-dir", "--quiet", "--emit-config"},
    "simulate": {"--config", "--output", "--quiet", "--emit-config", "--paths", "--seed",
                 "--max-time", "--x0"},
    "compare": {"--config", "--output", "--quiet", "--emit-config", "--paths", "--mc-points"},
    "figure1": {"--output-dir", "--quiet", "--emit-config", "--mu", "--lam", "--q", "--K",
                "--x-max", "--points"},
}


def test_each_subcommand_has_its_option_set():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def loaded_modules(code, package):
    """The ``package`` modules a fresh interpreter holds after running ``code``."""
    probe = (f"{code}\nimport sys\n"
             f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def scipy_imports(path):
    """``module.function`` of every scipy import in a source file (the
    innermost enclosing function, or ``<module>``)."""
    tree = ast.parse(path.read_text())
    owner = {}
    for fn in ast.walk(tree):  # breadth first: inner functions come later and win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            hits.append(f"{path.stem}.{owner.get(node, '<module>')}")
    return hits


def test_scipy_is_never_imported():
    src = Path(cli.__file__).resolve().parent
    hits = [hit for path in sorted(src.glob("*.py")) for hit in scipy_imports(path)]
    assert hits == []


def test_solve_bvp_reads_the_jump_direction_once():
    # Upward jumps are reflected onto the downward solver in one place.
    src = Path(cli.__file__).resolve().parent / "passage_model.py"
    solver = next(node for node in ast.walk(ast.parse(src.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "solve_bvp")
    reads = [node for node in ast.walk(solver)
             if isinstance(node, ast.Attribute) and node.attr == "jump_direction"]
    assert len(reads) == 1


class TestLazyPackage:
    """``pdmpruin`` imports the module of each public name on first use."""

    def test_submodule_import_loads_that_module_alone(self):
        got = loaded_modules("from pdmpruin import phase_type", "pdmpruin")
        assert got == str(["pdmpruin", "pdmpruin.phase_type"])

    def test_serialization_loads_no_monte_carlo_engine(self):
        # RunConfig.sim_config imports mc_sim when it builds a SimConfig.
        got = loaded_modules("import pdmpruin.serialization", "pdmpruin")
        assert got == str(["pdmpruin", "pdmpruin.passage_model", "pdmpruin.phase_type",
                           "pdmpruin.serialization"])

    def test_every_public_name_resolves(self):
        import pdmpruin

        assert pdmpruin.__all__ == [
            "PhaseType", "matrix_exp", "ConstantDrift", "SegerdahlDrift", "TabulatedDrift",
            "ModelSpec", "PassageProblem", "SolutionCurve", "ClosureReport", "closure",
            "commutator", "is_solvable", "asymptotic_rate", "phi_k_closed_form", "phi_k_drift",
            "SimConfig", "PassageEstimate", "estimate", "__version__",
        ]
        code = ("import pdmpruin\n"
                "for name in pdmpruin.__all__:\n"
                "    getattr(pdmpruin, name)\n"
                "from pdmpruin import *\n"
                "assert estimate is pdmpruin.mc_sim.estimate and __version__ == '0.1.0'\n"
                "assert not hasattr(pdmpruin, 'no_such_name')")
        loaded_modules(code, "pdmpruin")

    def test_import_cli_loads_every_module(self):
        # cli binds the names it calls at import; the tracer wraps them there
        modules = ["cli", "lie_algebra", "mc_sim", "passage_model", "phase_type", "riccati",
                   "serialization"]
        got = loaded_modules("import pdmpruin.cli", "pdmpruin")
        assert got == str(["pdmpruin", *(f"pdmpruin.{m}" for m in modules)])


# CONST_CONFIG with its drift read from a positive 121-knot cubic table.
_POSITIVE_TABLE_X = np.linspace(0.0, 60.0, 121)
POSITIVE_TABLE_CONFIG = with_value(
    CONST_CONFIG,
    ("model", "drift"),
    {"kind": "tabulated", "x": _POSITIVE_TABLE_X.tolist(),
     "values": (1.2 + 0.5 * np.sin(_POSITIVE_TABLE_X)).tolist(), "interpolation": "cubic"},
)


class TestScipyStaysUnloaded:
    """Every step runs on numpy alone."""

    def test_import_cli(self):
        assert loaded_modules("import pdmpruin.cli", "scipy") == "[]"

    @pytest.mark.parametrize("rule", ["linear", "cubic"])
    def test_tabulated_drift(self, rule):
        # Three collinear knots: both rules interpolate the line.
        code = ("from pdmpruin.passage_model import TabulatedDrift\n"
                f"d = TabulatedDrift((0.0, 1.0, 2.0), (-1.0, -1.5, -2.0), {rule!r})\n"
                "assert d.phi(0.5) == -1.25 and d.dphi(1.5) == -0.5")
        assert loaded_modules(code, "scipy") == "[]"

    def test_phase_type_tail_and_density(self):
        code = ("from pdmpruin.phase_type import erlang, tail, density\n"
                "pt = erlang(3, 3.0)\n"
                "assert 0 < tail(pt, 1.0) < 1 and density(pt, 1.0) > 0")
        assert loaded_modules(code, "scipy") == "[]"

    @pytest.mark.parametrize(
        "config, steps",
        [
            (FIG1_CONFIG, [["check-solvability"], ["solve"], ["simulate", "--paths", "2000"],
                           COMPARE_STEP]),
            (with_value(FIG1_CONFIG, ("model", "kill_rate"), 0.0), [["solve"]]),
            (CONST_CONFIG, [["solve"], ["simulate", "--paths", "2000"], COMPARE_STEP]),
            (ERLANG3_CONST_CONFIG, [["solve"]]),
            (CUBIC_TABLE_CONFIG, [["check-solvability"], ["check-integrability"], ["solve"],
                                  ["simulate", "--paths", "2000"], COMPARE_STEP]),
            (with_value(CONST_CONFIG, ("problem", "upper"), 5.0), [["solve"]]),
            (POSITIVE_TABLE_CONFIG, [["solve"]]),
        ],
        ids=["relaxing", "relaxing-zero-kill", "constant", "constant-erlang3", "cubic-table",
             "constant-two-sided", "positive-cubic-table"],
    )
    def test_numpy_only_steps(self, tmp_path, config, steps):
        path = write_config(tmp_path, config)
        calls = [[*step, "--config", path, "--output", str(tmp_path / step[0]), "--quiet"]
                 for step in steps]
        code = f"from pdmpruin.cli import main\nassert [main(a) for a in {calls!r}] == {[0] * len(calls)!r}"
        assert loaded_modules(code, "scipy") == "[]"


class TestNumpyPolynomialStaysUnloaded:
    """The Gauss-Legendre rule of tabulated clocks is written out."""

    @pytest.mark.parametrize(
        "config, step",
        [(CONST_CONFIG, ["solve"]), (CUBIC_TABLE_CONFIG, ["simulate", "--paths", "50"])],
        ids=["constant-solve", "cubic-table-simulate"],
    )
    def test_step(self, tmp_path, config, step):
        # a table's simulate runs its flows on the clock, the rule's one user
        path = write_config(tmp_path, config)
        argv = [*step, "--config", path, "--output", str(tmp_path / step[0]), "--quiet"]
        code = f"from pdmpruin.cli import main\nassert main({argv!r}) == 0"
        assert loaded_modules(code, "numpy.polynomial") == "[]"


def test_benchmark_tracer_labels_the_initial_value_solve():
    # The benchmark's tracer wraps layer functions by name and labels the
    # initial-value integration by its arguments; the relaxing drift's solve
    # reaches it twice (the solve and its looser error-estimate rerun).
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        f"import json, sys\nsys.path.insert(0, {str(bench)!r})\n"
        "import traced\nfrom spans import Tracer\n"
        "from pdmpruin import cli\nfrom pdmpruin.serialization import parse_config\n"
        "tracer = Tracer()\ntraced.install(tracer)\n"
        f"rc = parse_config({FIG1_CONFIG!r})\n"
        "cli.solve_bvp(rc.model, rc.problem, rc.grid.array())\n"
        "print(json.dumps(tracer.counters))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(proc.stdout.splitlines()[-1])
    assert counters["passage_model.solve_bvp.calls"] == 1
    assert counters["passage_model.ivp.calls"] == 2
    assert not any(name.endswith(".errors") for name in counters)


@pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_parses(line):
    # Square brackets mark optional arguments in the README.
    argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
    cli.build_parser().parse_args(argv)


class TestFigure1:
    def test_outputs_and_boundary_values(self, tmp_path, capsys):
        assert main(["figure1", "--output-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        ruin = (tmp_path / "figure1_ruin.csv").read_text()
        lines = ruin.splitlines()
        assert lines[0] == "x,psi,m_1,method"
        assert lines[1] == "0,1,1,closed_form"
        drift = (tmp_path / "figure1_drift.csv").read_text().splitlines()
        assert drift[1] == "0,-0.16666666666666666"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        main(["figure1", "--output-dir", str(tmp_path / "a"), "--quiet"])
        main(["figure1", "--output-dir", str(tmp_path / "b"), "--quiet"])
        capsys.readouterr()
        for name in ("figure1_ruin.csv", "figure1_drift.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_emitted_config_reproduces_curve(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "emitted.json")
        main(["figure1", "--output-dir", str(tmp_path), "--quiet",
              "--emit-config", cfg_path])
        out = str(tmp_path / "resolved")
        assert main(["solve", "--config", cfg_path, "--output", out, "--quiet"]) == EXIT_OK
        capsys.readouterr()
        a = (tmp_path / "figure1_ruin.csv").read_text().splitlines()
        b = (tmp_path / "resolved.csv").read_text().splitlines()
        assert a == b

    def test_far_field_log_slope(self, tmp_path, capsys):
        # the tail of the emitted curve decays at the known exponential rate
        assert main(["figure1", "--output-dir", str(tmp_path), "--quiet",
                     "--x-max", "30", "--points", "601"]) == EXIT_OK
        capsys.readouterr()
        rows = (tmp_path / "figure1_ruin.csv").read_text().splitlines()[1:]
        x1, p1 = map(float, rows[-21].split(",")[:2])
        x2, p2 = map(float, rows[-1].split(",")[:2])
        slope = (np.log(p2) - np.log(p1)) / (x2 - x1)
        assert abs(slope - (-0.4393398282201786)) / 0.4393398282201786 < 0.01

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pdmpruin.cli", "figure1", "--quiet",
             "--output-dir", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "figure1_ruin.csv").exists()
