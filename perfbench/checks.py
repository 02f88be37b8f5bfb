"""Correctness checks on the outputs of each step.

Every step is judged by its exit code (0 expected), by the presence of its
output files, and by the check its workload names.  A check returns a list of
failure messages; an empty list means the step passed.  Checks run after the
timed passes, so the harness imports numpy and pdmpruin only then.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


def read_solution_csv(path: str) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    cols = {name: [r[i] for r in body] for i, name in enumerate(header)}
    out = {name: np.array([float(v) for v in vals]) for name, vals in cols.items() if name != "method"}
    out["method"] = sorted(set(cols.get("method", [])))
    return out


def _max_dev(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)))


def _closed_form(params: dict, x):
    from pdmpruin.riccati import phi_k_closed_form

    return phi_k_closed_form(params["K"], params["lam"], params["q"], params["mu"], np.asarray(x, float))


def _exact_psi(exact: dict, x: float) -> float:
    if "closed_form" in exact:
        psi, _ = _closed_form(exact["closed_form"], np.array([x]))
        return float(psi[0])
    return exact["a"] * math.exp(-exact["rate"] * x)


def _psi_at(solve_csv: str, x0: float) -> float:
    sol = read_solution_csv(solve_csv)
    i = int(np.argmin(np.abs(sol["x"] - x0)))
    if abs(sol["x"][i] - x0) > 1e-12:
        raise ValueError(f"x0={x0} is not a node of {os.path.basename(solve_csv)}")
    return float(sol["psi"][i])


def _check_closed_form_csv(check, outputs):
    sol = read_solution_csv(outputs[0])
    psi, m = _closed_form(check["params"], sol["x"])
    fails = []
    if sol["method"] != [check["method"]]:
        fails.append(f"method {sol['method']} != {check['method']!r}")
    for name, got, want in (("psi", sol["psi"], psi), ("m_1", sol.get("m_1"), m)):
        dev = _max_dev(got, want)
        if not dev <= check["tol"]:
            fails.append(f"{name} deviates from phi_k_closed_form by {dev:.3e} > {check['tol']:.0e}")
    return fails


def _check_exp_csv(check, outputs):
    sol = read_solution_csv(outputs[0])
    dev = _max_dev(sol["psi"], check["a"] * np.exp(-check["rate"] * sol["x"]))
    if not dev <= check["tol"]:
        return [f"psi deviates from {check['a']} e^(-{check['rate']} x) by {dev:.3e}"]
    return []


def _check_solve_csv(check, outputs):
    sol = read_solution_csv(outputs[0])
    psi = sol["psi"]
    fails = []
    if sol["method"] != [check["method"]]:
        fails.append(f"method {sol['method']} != {check['method']!r}")
    if not (np.all(np.isfinite(psi)) and np.all((psi >= 0.0) & (psi <= 1.0))):
        fails.append("psi is not a probability on the whole grid")
    elif np.any(np.diff(psi) > 1e-12):
        fails.append("psi increases somewhere on the grid")
    return fails


def _read_estimate(path):
    with open(path) as f:
        est = json.load(f)
    mean, se = est["mean"], est["std_error"]
    if not (math.isfinite(mean) and math.isfinite(se) and se > 0.0):
        raise ValueError(f"estimate {mean} +- {se} is not usable")
    return mean, se


def _check_mc_exact(check, outputs):
    mean, se = _read_estimate(outputs[0])
    want = _exact_psi(check["exact"], check["x0"])
    if abs(mean - want) > check["sigmas"] * se:
        return [f"estimate {mean:.6g} +- {se:.2g} is {abs(mean - want) / se:.1f} sigma from exact {want:.6g}"]
    return []


def _check_mc_band(check, outputs):
    mean, se = _read_estimate(outputs[0])
    psi = _psi_at(check["solve"], check["x0"])
    if abs(psi - mean) > check["sigmas"] * se:
        return [f"solve psi({check['x0']}) = {psi:.6g} is outside the Monte Carlo band "
                f"{mean:.6g} +- {check['sigmas']:g} x {se:.2g}"]
    return []


def _check_solvability(check, outputs):
    with open(outputs[0]) as f:
        rep = json.load(f)
    fails = []
    if rep["dimension"] != check["dimension"]:
        fails.append(f"Lie closure dimension {rep['dimension']} != {check['dimension']}")
    if rep["solvable"] != check["solvable"] or not rep["closed"]:
        fails.append(f"closure verdict solvable={rep['solvable']} closed={rep['closed']}")
    return fails


def _check_integrability(check, outputs):
    with open(outputs[0]) as f:
        rep = json.load(f)
    if rep["integrable"] != check["integrable"]:
        return [f"integrable={rep['integrable']}, expected {check['integrable']}"]
    if not rep["integrable"] and "witness_x" not in rep:
        return ["a failed gate must report its witness point"]
    return []


def _check_compare(check, outputs):
    with open(outputs[0], newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2 or rows[0][0] != "x" or rows[0][-2:] != ["mc_mean", "mc_3sigma"]:
        return ["comparison table is malformed"]
    if not all(math.isfinite(float(v)) for r in rows[1:] for v in r):
        return ["comparison table holds non-finite values"]
    return []


def _check_figure1(check, outputs):
    ruin = read_solution_csv(outputs[0])
    psi, m = _closed_form(check["params"], ruin["x"])
    fails = []
    dev = max(_max_dev(ruin["psi"], psi), _max_dev(ruin.get("m_1"), m))
    if not dev <= check["tol"]:
        fails.append(f"figure1 ruin curve deviates from phi_k_closed_form by {dev:.3e}")
    with open(outputs[1], newline="") as f:
        rows = list(csv.reader(f))[1:]
    p = check["params"]
    x = np.array([float(r[0]) for r in rows])
    want = (p["lam"] + p["q"]) / p["mu"] * (p["K"] * np.exp(-2.0 * p["mu"] * x) - 1.0)
    dev = _max_dev([float(r[1]) for r in rows], want)
    if not dev <= check["tol"]:
        fails.append(f"figure1 drift curve deviates from the relaxing drift by {dev:.3e}")
    return fails


# Kolmogorov-Smirnov critical value factor at the 0.1% level.  The draws use
# a fixed seed, so this only sets how far from the analytic tail a sampler may
# drift before the check fires.
KS_CRITICAL = 1.95


def _check_jumplaw(check, outputs, step):
    from scipy.linalg import expm

    with open(outputs[0]) as f:
        res = json.load(f)
    fails = []
    grid = np.asarray(res["grid"])
    for name, law in step["laws"].items():
        got = res["laws"][name]
        beta, B = np.asarray(law["beta"]), np.asarray(law["B"])
        b = -B @ np.ones(len(beta))
        mats = [expm(B * x) for x in grid]
        tail = np.array([beta @ E @ np.ones(len(beta)) for E in mats])
        dens = np.array([beta @ E @ b for E in mats])
        dev = max(_max_dev(got["tail"], tail), _max_dev(got["density"], dens))
        if not dev <= 1e-10:
            fails.append(f"{name}: tail/density deviate from expm by {dev:.3e}")
        crit = KS_CRITICAL / math.sqrt(got["draws"])
        if not got["ks_statistic"] <= crit:
            fails.append(f"{name}: KS statistic {got['ks_statistic']:.4f} > {crit:.4f}")
    return fails


_CHECKS = {
    "closed_form_csv": _check_closed_form_csv,
    "exp_csv": _check_exp_csv,
    "solve_csv": _check_solve_csv,
    "mc_exact": _check_mc_exact,
    "mc_band": _check_mc_band,
    "solvability": _check_solvability,
    "integrability": _check_integrability,
    "compare": _check_compare,
    "figure1": _check_figure1,
}


def check_step(step: dict, rc: int, outputs: list[str]) -> list[str]:
    """Failure messages for one executed step (empty when it passed).

    ``outputs`` are the step's output paths with placeholders filled in; a
    check that refers to another step's output (``mc_band``) carries that
    path, already filled in, in ``step["check"]``.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [p for p in outputs if not os.path.isfile(p)]
    if missing:
        return [f"missing output {os.path.basename(p)}" for p in missing]
    check = step["check"]
    try:
        if check["type"] == "jumplaw":
            return _check_jumplaw(check, outputs, step)
        return _CHECKS[check["type"]](check, outputs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
