"""Workload definitions: the configs each workload writes and the calls of one pass.

A workload is a fixed list of steps run in passes.  Most steps are calls of
the ``pdmpruin`` command line; the ``jumplaw`` step calls the phase-type
library directly (see ``steps.py``).  Every step names the check that judges
its outputs (see ``checks.py``).

The workload seed only chooses the Monte Carlo seeds of the ``simulate`` calls
whose checks allow for it (a 5-sigma band around an exact answer).  Calls
whose checks are 3-sigma statistical events -- every ``compare`` call and the
multi-phase ``simulate`` calls that bracket the collocation solutions -- keep
fixed seeds, so that a check that fails is a real failure and not a 0.3% draw.

Everything here is pure standard library, so the harness measures its
children without importing numpy, scipy or pdmpruin itself.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("reference", "multiphase", "tabulated")

# README reference case: relaxing drift, one-phase exponential jumps.
MU, LAM, Q, K = 1.5, 0.5, 0.5, 0.75
GRID = {"start": 0.0, "stop": 5.0, "points": 101}
X0 = 1.0  # a grid node (step 0.05), so solve CSVs hold Psi(x0) exactly

# Fixed seeds of the statistically judged calls (see module docstring).
COMPARE_SEED = 11
MULTIPHASE_SIM_SEED = 5
KS_SEED = 20240601

# Sizes.  "tiny" keeps every step and check but cuts the Monte Carlo work; it
# exists for the benchmark's own smoke tests.
SIZES = {
    "full": {
        "ref_paths": 100_000,
        "ref_compare": (10, 20_000),
        "pin_compare": (3, 5_000),
        "mp_paths": 20_000,
        "tab_paths": 1_000,
        "tab_compare": (5, 200),
        "ks_draws": 2_000,
    },
    "tiny": {
        "ref_paths": 5_000,
        "ref_compare": (3, 5_000),
        "pin_compare": (3, 5_000),
        "mp_paths": 20_000,
        "tab_paths": 100,
        "tab_compare": (2, 100),
        "ks_draws": 300,
    },
}


def exponential_law(rate: float) -> dict:
    return {"beta": [1.0], "B": [[-rate]]}


def erlang_law(k: int, rate: float) -> dict:
    B = [[0.0] * k for _ in range(k)]
    for i in range(k):
        B[i][i] = -rate
        if i + 1 < k:
            B[i][i + 1] = rate
    return {"beta": [1.0] + [0.0] * (k - 1), "B": B}


def coxian_law(rates, continue_probs) -> dict:
    k = len(rates)
    B = [[0.0] * k for _ in range(k)]
    for i, r in enumerate(rates):
        B[i][i] = -r
        if i + 1 < k:
            B[i][i + 1] = r * continue_probs[i]
    return {"beta": [1.0] + [0.0] * (k - 1), "B": B}


def reference_drift_value(x: float) -> float:
    """The relaxing drift ((lam+q)/mu)(K e^{-2 mu x} - 1) of the reference case."""
    return (LAM + Q) / MU * (K * math.exp(-2.0 * MU * x) - 1.0)


def _config(drift: dict, jump_rate: float, kill_rate: float, jumps: dict, seed: int) -> dict:
    return {
        "schema_version": "1",
        "model": {
            "drift": drift,
            "jump_rate": jump_rate,
            "kill_rate": kill_rate,
            "jumps": jumps,
            "jump_direction": "downward",
        },
        "problem": {"lower": 0.0, "estimand": "ruin_below"},
        "grid": dict(GRID),
        "sim": {"x0": X0, "n_paths": 20_000, "seed": seed},
    }


SEGERDAHL = {"kind": "segerdahl", "K": K, "lam": LAM, "q": Q, "mu": MU}
CONSTANT = {"kind": "constant", "c": 1.0}
ERLANG3 = erlang_law(3, 3.0)
COXIAN3 = coxian_law([3.0, 2.0, 1.0], [0.7, 0.5])


def tabulated_drift(knots: int = 400) -> dict:
    xs = [-1.0 + 9.0 * i / (knots - 1) for i in range(knots)]
    return {
        "kind": "tabulated",
        "x": xs,
        "values": [reference_drift_value(x) for x in xs],
        "interpolation": "cubic",
        "sign_domain": [0.0, 8.0],
    }


def _cli(step_id, argv, check, outputs=(), paths=0):
    return {
        "id": step_id,
        "kind": "cli",
        "subcommand": argv[0],
        "argv": list(argv),
        "outputs": list(outputs),
        "paths": paths,
        "check": check,
    }


def _jumplaw(laws: dict, draws: int) -> dict:
    return {
        "id": "jumplaw",
        "kind": "jumplaw",
        "subcommand": "jumplaw",
        "laws": laws,
        "grid": dict(GRID),
        "draws": draws,
        "seed": KS_SEED,
        "outputs": ["{out}/jumplaw.json"],
        "paths": 0,
        "check": {"type": "jumplaw"},
    }


def build(workload: str, seed: int, size: str = "full") -> dict:
    """Configs (name -> JSON document) and the steps of one pass.

    Paths in step arguments use ``{cfg}`` for the run's config directory and
    ``{out}`` for the pass's output directory.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    sz = SIZES[size]
    rng = random.Random(f"pdmpruin-bench:{workload}:{seed}")

    def mc_seed() -> str:
        return str(rng.randrange(1, 2**31))

    closed_form = {"K": K, "lam": LAM, "q": Q, "mu": MU}
    if workload == "reference":
        pinned = _config(CONSTANT, 1.0, 0.0, exponential_law(2.0), COMPARE_SEED)
        configs = {
            "reference": _config(SEGERDAHL, LAM, Q, exponential_law(MU), COMPARE_SEED),
            "pinned": pinned,
        }
        cpts, cpaths = sz["ref_compare"]
        ppts, ppaths = sz["pin_compare"]
        steps = [
            _cli("ref.check-solvability",
                 ["check-solvability", "--config", "{cfg}/reference.json", "--output", "{out}/ref_solvability.json"],
                 {"type": "solvability", "dimension": 4, "solvable": False},
                 ["{out}/ref_solvability.json"]),
            _cli("ref.check-integrability",
                 ["check-integrability", "--config", "{cfg}/reference.json", "--output", "{out}/ref_integrability.json"],
                 {"type": "integrability", "integrable": True},
                 ["{out}/ref_integrability.json"]),
            _cli("ref.solve",
                 ["solve", "--config", "{cfg}/reference.json", "--output", "{out}/ref_solve.csv"],
                 {"type": "closed_form_csv", "params": closed_form, "tol": 1e-12, "method": "closed_form"},
                 ["{out}/ref_solve.csv"]),
            _cli("ref.simulate",
                 ["simulate", "--config", "{cfg}/reference.json", "--paths", str(sz["ref_paths"]),
                  "--seed", mc_seed(), "--output", "{out}/ref_simulate.json"],
                 {"type": "mc_exact", "exact": {"closed_form": closed_form}, "x0": X0, "sigmas": 5.0},
                 ["{out}/ref_simulate.json"], paths=sz["ref_paths"]),
            _cli("ref.compare",
                 ["compare", "--config", "{cfg}/reference.json", "--mc-points", str(cpts),
                  "--paths", str(cpaths), "--output", "{out}/ref_compare.csv"],
                 {"type": "compare"}, ["{out}/ref_compare.csv"]),
            _cli("ref.figure1",
                 ["figure1", "--output-dir", "{out}/figure1"],
                 {"type": "figure1", "params": closed_form, "tol": 1e-12},
                 ["{out}/figure1/figure1_ruin.csv", "{out}/figure1/figure1_drift.csv"]),
            _cli("pin.solve",
                 ["solve", "--config", "{cfg}/pinned.json", "--output", "{out}/pin_solve.csv"],
                 {"type": "exp_csv", "a": 0.5, "rate": 1.0, "tol": 1e-12},
                 ["{out}/pin_solve.csv"]),
            _cli("pin.simulate",
                 ["simulate", "--config", "{cfg}/pinned.json", "--paths", str(sz["ref_paths"]),
                  "--seed", mc_seed(), "--output", "{out}/pin_simulate.json"],
                 {"type": "mc_exact", "exact": {"a": 0.5, "rate": 1.0}, "x0": X0, "sigmas": 5.0},
                 ["{out}/pin_simulate.json"], paths=sz["ref_paths"]),
            _cli("pin.compare",
                 ["compare", "--config", "{cfg}/pinned.json", "--mc-points", str(ppts),
                  "--paths", str(ppaths), "--output", "{out}/pin_compare.csv"],
                 {"type": "compare"}, ["{out}/pin_compare.csv"]),
            _jumplaw({"exp1.5": exponential_law(MU), "exp2": exponential_law(2.0)}, sz["ks_draws"]),
        ]
    elif workload == "multiphase":
        configs = {
            "lie_erlang3": _config(SEGERDAHL, LAM, Q, ERLANG3, COMPARE_SEED),
            "lie_erlang6": _config(SEGERDAHL, LAM, Q, erlang_law(6, 6.0), COMPARE_SEED),
            "erlang3": _config(CONSTANT, LAM, Q, ERLANG3, COMPARE_SEED),
            "coxian3": _config(CONSTANT, LAM, Q, COXIAN3, COMPARE_SEED),
        }
        steps = [
            _cli("lie3.check-solvability",
                 ["check-solvability", "--config", "{cfg}/lie_erlang3.json", "--output", "{out}/lie3.json"],
                 {"type": "solvability", "dimension": 16, "solvable": False}, ["{out}/lie3.json"]),
            _cli("lie6.check-solvability",
                 ["check-solvability", "--config", "{cfg}/lie_erlang6.json", "--output", "{out}/lie6.json"],
                 {"type": "solvability", "dimension": 49, "solvable": False}, ["{out}/lie6.json"]),
        ]
        for name in ("erlang3", "coxian3"):
            steps.append(_cli(
                f"{name}.solve",
                ["solve", "--config", f"{{cfg}}/{name}.json", "--output", f"{{out}}/{name}_solve.csv"],
                {"type": "solve_csv", "method": "ode_bvp"}, [f"{{out}}/{name}_solve.csv"]))
        for name in ("erlang3", "coxian3"):
            steps.append(_cli(
                f"{name}.simulate",
                ["simulate", "--config", f"{{cfg}}/{name}.json", "--paths", str(sz["mp_paths"]),
                 "--seed", str(MULTIPHASE_SIM_SEED), "--output", f"{{out}}/{name}_simulate.json"],
                {"type": "mc_band", "solve": f"{{out}}/{name}_solve.csv", "x0": X0, "sigmas": 3.0},
                [f"{{out}}/{name}_simulate.json"], paths=sz["mp_paths"]))
        steps.append(_jumplaw({"erlang3": ERLANG3, "coxian3": COXIAN3}, sz["ks_draws"]))
    else:
        tab = _config(tabulated_drift(), LAM, Q, exponential_law(MU), COMPARE_SEED)
        configs = {"tabulated": tab}
        cpts, cpaths = sz["tab_compare"]
        steps = [
            _cli("tab.check-solvability",
                 ["check-solvability", "--config", "{cfg}/tabulated.json", "--output", "{out}/tab_solvability.json"],
                 {"type": "solvability", "dimension": 4, "solvable": False}, ["{out}/tab_solvability.json"]),
            _cli("tab.check-integrability",
                 ["check-integrability", "--config", "{cfg}/tabulated.json", "--output", "{out}/tab_integrability.json"],
                 {"type": "integrability", "integrable": False}, ["{out}/tab_integrability.json"]),
            _cli("tab.solve",
                 ["solve", "--config", "{cfg}/tabulated.json", "--output", "{out}/tab_solve.csv"],
                 {"type": "closed_form_csv", "params": closed_form, "tol": 1e-6, "method": "ode_bvp"},
                 ["{out}/tab_solve.csv"]),
            _cli("tab.simulate",
                 ["simulate", "--config", "{cfg}/tabulated.json", "--paths", str(sz["tab_paths"]),
                  "--seed", mc_seed(), "--output", "{out}/tab_simulate.json"],
                 {"type": "mc_exact", "exact": {"closed_form": closed_form}, "x0": X0, "sigmas": 5.0},
                 ["{out}/tab_simulate.json"], paths=sz["tab_paths"]),
            _cli("tab.compare",
                 ["compare", "--config", "{cfg}/tabulated.json", "--mc-points", str(cpts),
                  "--paths", str(cpaths), "--output", "{out}/tab_compare.csv"],
                 {"type": "compare"}, ["{out}/tab_compare.csv"]),
            _jumplaw({"exp1.5": exponential_law(MU)}, sz["ks_draws"]),
        ]
    return {"workload": workload, "seed": seed, "size": size, "configs": configs, "steps": steps}


def substitute(value, cfg_dir: str, out_dir: str):
    """Fill ``{cfg}``/``{out}`` placeholders in a string or list of strings."""
    if isinstance(value, list):
        return [substitute(v, cfg_dir, out_dir) for v in value]
    return value.replace("{cfg}", cfg_dir).replace("{out}", out_dir)
