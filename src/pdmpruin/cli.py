"""Command-line front end: parse configs, dispatch solvers, emit plot data.

Exit codes are a stable contract for CI: 0 success, 1 usage/config error,
2 numerical failure, 3 comparison failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .lie_algebra import build_generators, closure
from .mc_sim import estimate
from .passage_model import (
    ConstantDrift,
    ModelSpec,
    NumericalError,
    PassageProblem,
    SegerdahlDrift,
    SolutionCurve,
    assemble_system,
    constant_drift_solution,
    phi_checked,
    segerdahl_q0_solution,
    solve_bvp,
)
from .phase_type import exponential
from .riccati import (
    RiccatiBlowUpError,
    allen_stein_test,
    asymptotic_rate,
    chebyshev_grid,
    phi_k_closed_form,
    reconstruct_solution,
    riccati_numeric,
    to_riccati,
)
from .serialization import (
    ConfigError,
    GridSpec,
    RunConfig,
    config_to_dict,
    csv_line,
    dump_json,
    load_config_file,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_COMPARISON = 3

OUTPUT_DIR_ENV = "PDMPRUIN_OUTPUT_DIR"


def _output_dir(args, rc: RunConfig | None = None) -> str:
    """``--output-dir``, else the config's ``output.directory``, else $PDMPRUIN_OUTPUT_DIR or ."""
    configured = (rc.output or {}).get("directory") if rc is not None else None
    d = getattr(args, "output_dir", None) or configured or os.environ.get(OUTPUT_DIR_ENV, ".")
    os.makedirs(d, exist_ok=True)
    return d


def _say(args, *parts) -> None:
    if not getattr(args, "quiet", False):
        print(*parts)


def _emit_config(args, rc: RunConfig) -> None:
    path = getattr(args, "emit_config", None)
    if path:
        dump_json(config_to_dict(rc), path)


# ---------------------------------------------------------------------------
# Closed-form dispatch gates
# ---------------------------------------------------------------------------

def _constant_form(model: ModelSpec, lower: float, grid: np.ndarray):
    return constant_drift_solution(model, grid - lower)


def _relaxing_form(model: ModelSpec, lower: float, grid: np.ndarray):
    drift = model.drift
    if not isinstance(drift, SegerdahlDrift):
        raise ValueError("needs the relaxing drift family")
    if lower != 0.0:
        raise ValueError("needs lower level 0")
    coeffs = to_riccati(model)
    mu = model.exponential_rate()
    gaps = (drift.lam - model.jump_rate, drift.q - model.kill_rate, drift.mu - mu)
    if max(map(abs, gaps)) >= 1e-12:
        raise ValueError("needs drift family rates matching the model rates")
    psi, m = phi_k_closed_form(drift.K, model.jump_rate, model.kill_rate, mu, grid)
    gate = allen_stein_test(coeffs, chebyshev_grid(float(grid[0]), float(grid[-1])))
    if not (gate.integrable and abs(gate.params.c1) <= 1e-8):
        raise ValueError("needs the scaling-transformation gate to pass")
    return psi, m


def _zero_kill_form(model: ModelSpec, lower: float, grid: np.ndarray):
    if lower != 0.0:
        raise ValueError("needs lower level 0")
    probe = np.linspace(max(0.0, grid[0]), grid[-1], 65)
    try:
        positive = bool(np.all(np.asarray(phi_checked(model.drift, probe)) > 0))
    except ValueError:
        positive = False
    if not positive:
        raise ValueError(
            "needs positive drift for the decay normalization to be the ruin probability"
        )
    return segerdahl_q0_solution(model, grid)


# Tried in this order.  Each form maps (model, lower level, grid) to
# (psi, m), or raises ValueError/NumericalError whose message ("needs ...")
# names the precondition it lacks.
CLOSED_FORMS = (
    ("constant-drift closed form", _constant_form),
    ("relaxing-drift closed form", _relaxing_form),
    ("zero-kill quadrature form", _zero_kill_form),
)


def closed_form_gates(model: ModelSpec, problem: PassageProblem, grid: np.ndarray):
    """Try each closed form in order; returns (curve | None, failure reasons)."""
    if problem.estimand != "ruin_below" or problem.upper is not None:
        return None, ["closed forms: need a one-sided ruin_below problem"]
    reasons: list[str] = []
    for name, form in CLOSED_FORMS:
        try:
            psi, m = form(model, problem.lower, grid)
        except (ValueError, NumericalError) as exc:
            reasons.append(f"{name}: {exc}")
        else:
            return SolutionCurve(grid, psi, m, "closed_form"), reasons
    return None, reasons


def _require(rc: RunConfig, what: str):
    val = getattr(rc, what)
    if val is None:
        raise ConfigError(f"a '{what}' block is required for this subcommand", f"$.{what}")
    return val


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check_solvability(args) -> int:
    rc = load_config_file(args.config)
    model = rc.model
    if isinstance(model.drift, ConstantDrift):
        # Constant drift: the whole family is one matrix; a single generator.
        A = assemble_system(model)
        dom = model.drift.sign_domain
        x_ref = 0.0 if dom and dom[0] < 0.0 < dom[1] else 1.0
        generators = [A(x_ref)]
    else:
        generators = list(build_generators(model))
    report = closure(generators)
    verdict = "solvable" if report.solvable else "non-solvable"
    _say(args, f"dimension {report.dimension}, {verdict}")
    _say(args, f"derived series dimensions: {report.derived_series_dims}")
    if model.n == 1 and not isinstance(model.drift, ConstantDrift):
        if model.kill_rate == 0.0 and report.dimension == 2 and report.solvable:
            _say(args, "classification: the solvable two-dimensional family (zero kill rate)")
        elif report.dimension == 4 and not report.solvable:
            _say(args, "classification: all of gl(2,R), non-solvable (positive kill rate)")
    for note in report.notes:
        _say(args, f"note: {note}")
    if args.output:
        dump_json(report.to_dict(), args.output)
        _say(args, f"wrote {args.output}")
    _emit_config(args, rc)
    return EXIT_OK


def cmd_check_integrability(args) -> int:
    rc = load_config_file(args.config)
    model = rc.model
    coeffs = to_riccati(model)
    if rc.grid is not None:
        lo, hi = rc.grid.start, rc.grid.stop
    else:
        lo, hi = 0.0, 5.0
    gate_grid = chebyshev_grid(lo, hi, args.grid_points)
    result = allen_stein_test(coeffs, gate_grid)
    if result.integrable:
        p = result.params
        _say(
            args,
            "integrable by a scaling transformation: "
            f"c0={p.c0:g}, c1={p.c1:.3e}, c2={p.c2:g}, kappa={p.kappa:g}",
        )
    else:
        _say(
            args,
            "not integrable by a scaling transformation: test function varies by "
            f"{result.t_spread:.3e} (worst point x={result.witness_x:g})",
        )
    if args.output:
        dump_json(result.to_dict(), args.output)
        _say(args, f"wrote {args.output}")
    _emit_config(args, rc)
    return EXIT_OK


def cmd_solve(args) -> int:
    rc = load_config_file(args.config)
    problem = _require(rc, "problem")
    grid_spec = _require(rc, "grid")
    grid = grid_spec.array()
    curve, reasons = closed_form_gates(rc.model, problem, grid)
    if curve is None:
        for r in reasons:
            _say(args, f"gate failed: {r}")
        curve = solve_bvp(rc.model, problem, grid)
    base = args.output or os.path.join(_output_dir(args, rc), "solution")
    fmt = args.format or (rc.output or {}).get("format", "csv")
    if fmt == "csv":
        path = base if base.endswith(".csv") else base + ".csv"
        curve.to_csv(path)
    else:
        path = base if base.endswith(".json") else base + ".json"
        dump_json(curve.to_dict(), path)
    _say(args, f"method: {curve.method}")
    _say(
        args,
        f"psi({grid[0]:g}) = {curve.psi[0]:.12g}, psi({grid[-1]:g}) = {curve.psi[-1]:.12g}",
    )
    _say(args, f"wrote {path}")
    _emit_config(args, rc)
    return EXIT_OK


def cmd_simulate(args) -> int:
    rc = load_config_file(args.config)
    cfg = rc.sim_config(
        x0=args.x0, n_paths=args.paths, seed=args.seed, max_time=args.max_time
    )
    est = estimate(cfg)
    _say(
        args,
        f"estimate {est.mean:.6g} +- {est.std_error:.2g} "
        f"(ruined {est.n_ruined}, escaped {est.n_escaped}, censored {est.n_censored}, "
        f"killed {est.n_killed}; target {est.target})",
    )
    if est.n_censored:
        _say(args, f"censoring bias bound: {est.censoring_bias_bound:.3g}")
    if args.output:
        if args.output.endswith(".csv"):
            cols = [
                "x0", "mean", "std_error", "n_paths", "n_ruined", "n_escaped",
                "n_censored", "n_killed", "target",
            ]
            row = [
                cfg.x0, est.mean, est.std_error, est.n_paths, est.n_ruined,
                est.n_escaped, est.n_censored, est.n_killed, est.target,
            ]
            path = args.output
            write_csv(path, cols, [row])
        else:
            path = args.output if args.output.endswith(".json") else args.output + ".json"
            dump_json(est.to_dict(), path)
        _say(args, f"wrote {path}")
    _emit_config(args, rc)
    return EXIT_OK


def count_mc_violations(values: np.ndarray, mc_means: np.ndarray, mc_stderr: np.ndarray) -> int:
    """Points where a value falls outside the Monte Carlo 3-sigma band."""
    lo = mc_means - 3.0 * mc_stderr
    hi = mc_means + 3.0 * mc_stderr
    return int(np.sum((values < lo) | (values > hi)))


def cmd_compare(args) -> int:
    rc = load_config_file(args.config)
    problem = _require(rc, "problem")
    grid = _require(rc, "grid").array()
    model = rc.model
    k = min(args.mc_points, grid.size)
    idx = np.unique(np.linspace(0, grid.size - 1, k).astype(int))
    # The Monte Carlo request is checked before any solver runs.
    sim = rc.sim or {}
    first = rc.sim_config(
        x0=float(grid[idx[0]]),
        n_paths=args.paths if args.paths is not None else sim.get("n_paths", 20000),
        seed=sim.get("seed", 0),
    )

    curves: dict[str, SolutionCurve] = {}
    notes: list[str] = []
    cf, reasons = closed_form_gates(model, problem, grid)
    if cf is not None:
        curves["closed_form"] = cf
    else:
        notes.extend(reasons)
    try:
        curves["ode_bvp"] = solve_bvp(model, problem, grid)
    except (ValueError, NumericalError) as exc:
        notes.append(f"ode_bvp unavailable: {exc}")

    if problem.estimand == "exit_above":
        notes.append("riccati_numeric unavailable: Psi/M is undefined at the lower level, "
                     "where exit above poses M(l) = 0")
    elif model.n == 1 and model.jump_direction == "downward" and curves:
        ref = curves.get("closed_form") or curves.get("ode_bvp")
        eta0 = ref.psi[0] / ref.m[0, 0]
        try:
            coeffs = to_riccati(model)
            rsol = riccati_numeric(coeffs, eta0, (float(grid[0]), float(grid[-1])))
            mu = model.exponential_rate()
            psi_r, m_r = reconstruct_solution(rsol, mu, grid, m0=float(ref.m[0, 0]))
            curves["riccati_numeric"] = SolutionCurve(grid, psi_r, m_r, "riccati_numeric")
        except (ValueError, NumericalError) as exc:
            notes.append(f"riccati_numeric unavailable: {exc}")

    for n in notes:
        _say(args, f"note: {n}")
    if len(curves) < 2:
        raise NumericalError("nothing to compare: fewer than two methods are applicable")

    names = sorted(curves)
    max_disc = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            d = float(np.max(np.abs(curves[a].psi - curves[b].psi)))
            _say(args, f"max |psi_{a} - psi_{b}| = {d:.3e}")
            max_disc = max(max_disc, d)

    mc_means, mc_errs = [], []
    for j, i in enumerate(idx):
        cfg = rc.sim_config(x0=float(grid[i]), n_paths=first.n_paths, seed=first.seed + j)
        est = estimate(cfg)
        mc_means.append(est.mean)
        mc_errs.append(est.std_error)
    mc_means = np.asarray(mc_means)
    mc_errs = np.asarray(mc_errs)

    reference = "closed_form" if "closed_form" in curves else names[0]
    ref_vals = curves[reference].psi[idx]
    violations = count_mc_violations(ref_vals, mc_means, mc_errs)

    header = ["x"] + [f"psi_{n}" for n in names] + ["mc_mean", "mc_3sigma"]
    rows = [
        [grid[i], *(curves[n].psi[i] for n in names), mc_means[j], 3.0 * mc_errs[j]]
        for j, i in enumerate(idx)
    ]
    for row in [header, *rows]:
        _say(args, csv_line(row))

    if args.output:
        path = args.output if args.output.endswith(".csv") else args.output + ".csv"
        write_csv(path, header, rows)
        _say(args, f"wrote {path}")
    _emit_config(args, rc)

    frac = violations / idx.size
    if frac > 0.01:
        _say(
            args,
            f"comparison FAILED: {reference} outside the MC 3-sigma band at "
            f"{violations}/{idx.size} points",
        )
        return EXIT_COMPARISON
    _say(args, f"comparison ok: max discrepancy {max_disc:.3e}, {violations} MC violations")
    return EXIT_OK


def cmd_figure1(args) -> int:
    mu, lam, q, K = args.mu, args.lam, args.q, args.K
    try:
        drift = SegerdahlDrift(K=K, lam=lam, q=q, mu=mu)
        model = ModelSpec(drift=drift, jump_rate=lam, kill_rate=q, jumps=exponential(mu))
        grid_spec = GridSpec(0.0, args.x_max, args.points)
    except ValueError as exc:
        raise ConfigError(str(exc), "figure1") from exc
    if not K < 1.0:
        raise ConfigError(f"the closed form covers K < 1 only, got K={K:g}", "figure1")
    grid = grid_spec.array()
    problem = PassageProblem(lower=0.0)
    psi, m = phi_k_closed_form(K, lam, q, mu, grid)
    if psi[0] != 1.0 or m[0] != 1.0:
        raise NumericalError("boundary normalization failed: psi(0), M(0) must be 1")
    out_dir = _output_dir(args)
    ruin_path = os.path.join(out_dir, "figure1_ruin.csv")
    SolutionCurve(grid, psi, m, "closed_form").to_csv(ruin_path)
    drift_path = os.path.join(out_dir, "figure1_drift.csv")
    write_csv(drift_path, ["x", "phi"], [[x, drift.phi(x)] for x in grid])
    _say(args, f"psi(0) = {psi[0]:g}, M(0) = {m[0]:g}")
    _say(args, f"phi(0) = {drift.phi(0.0):.12g}")
    _say(args, f"asymptotic decay rate: {asymptotic_rate(lam, q, mu):.6g}")
    _say(args, f"wrote {ruin_path}")
    _say(args, f"wrote {drift_path}")
    rc = RunConfig(
        model=model,
        problem=problem,
        grid=grid_spec,
        sim={"x0": args.x_max / 2.0, "n_paths": 100000, "seed": 0},
    )
    _emit_config(args, rc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _at_least(minimum: int):
    """argparse ``type`` for an integer count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmpruin",
        description="First-passage solvers for piecewise deterministic processes "
        "with phase-type downward jumps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output", help="output file (extension added if missing)")
        p.add_argument("--output-dir", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
        p.add_argument("--emit-config", help="write the resolved config to this path")

    p = sub.add_parser("check-solvability", help="Lie-closure dimension and solvability")
    common(p)
    p.set_defaults(func=cmd_check_solvability)

    p = sub.add_parser("check-integrability", help="scaling-transformation gate")
    common(p)
    p.add_argument("--grid-points", type=_at_least(2), default=256)
    p.set_defaults(func=cmd_check_integrability)

    p = sub.add_parser("solve", help="closed form if available, else the ODE oracle")
    common(p)
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo estimate")
    common(p)
    p.add_argument("--paths", type=_at_least(1), help="number of paths")
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument("--max-time", type=float, help="censoring horizon")
    p.add_argument("--x0", type=float, help="initial level")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="cross-check all applicable methods")
    common(p)
    p.add_argument("--paths", type=_at_least(1), help="MC paths per comparison point")
    p.add_argument("--mc-points", type=_at_least(1), default=10)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure1", help="emit the reference ruin/drift curves")
    common(p, config=False)
    p.add_argument("--mu", type=float, default=1.5)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--K", type=float, default=0.75)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=_at_least(2), default=201)
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RiccatiBlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (NumericalError, ValueError, OverflowError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
