"""Traced pass: run one pass of a workload in-process with the layers wrapped.

    python traced.py PLAN OUT

PLAN is a pass plan written by ``run.py`` (its steps, with paths filled in).
Every command-line step goes through ``pdmpruin.cli.main(argv)``; the
``jumplaw`` step calls ``steps.jumplaw``.  Spans, counters and each step's
exit code are written to OUT when the pass ends.

The wrappers sit where the calling module binds each function, so that is
what a layer boundary means here: ``cli.solve_bvp`` is the command line
calling into ``passage_model``, ``mc_sim.ph_sample`` is the Monte Carlo engine
calling into ``phase_type``, and so on.
"""

from __future__ import annotations

import json
import sys
import time

from spans import Tracer, duration

import steps as bench_steps


def _sample_draws(tracer, span, args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    tracer.count("phase_type.sample.draws", 1 if size is None else int(size))


def _closure_counts(tracer, span, args, kwargs, report):
    tracer.count("lie_algebra.closure.dimension", report.dimension)
    tracer.count("lie_algebra.closure.generations", report.generations)


def _counted_system(tracer, span, args, kwargs, A):
    def counted(x):
        tracer.count("passage_model.system_evals")
        return A(x)

    return counted


def _bvp_guards(tracer, span, args, kwargs, curve):
    if curve.error_estimate is not None:
        tracer.maximum("passage_model.solve_bvp.error_estimate_max", float(max(curve.error_estimate)))
    if curve.boundary_residual is not None:
        tracer.maximum("passage_model.solve_bvp.boundary_residual", float(curve.boundary_residual))


def _mc_counts(tracer, span, args, kwargs, est):
    kind = args[0].model.drift.kind
    tracer.count("mc_sim.paths", est.n_paths)
    tracer.count("mc_sim.uncensored_paths", est.n_paths - est.n_censored)
    tracer.count(f"mc_sim.paths.{kind}", est.n_paths)
    tracer.count(f"mc_sim.estimate_s.{kind}", duration(span))


def _column_integration_kind(args, kwargs):
    # solve_bvp's initial-value branch integrates one all-ones row forward
    # from the lower level; every other use is a shooting integration.
    x0, x1, Y0 = args[1], args[2], args[3]
    ivp = x1 > x0 and len(Y0) == 1 and all(v == 1.0 for v in Y0[0])
    return "passage_model.ivp" if ivp else "passage_model.shooting"


def install(tracer: Tracer) -> None:
    from pdmpruin import cli, lie_algebra, mc_sim, passage_model, phase_type

    w = tracer.wrap
    w(cli, "load_config_file", "serialization.load_config_file")
    w(cli, "build_generators", "lie_algebra.build_generators")
    w(cli, "closure", "lie_algebra.closure", _closure_counts)
    w(lie_algebra, "is_solvable", "lie_algebra.is_solvable")
    w(cli, "allen_stein_test", "riccati.allen_stein_test")
    w(cli, "phi_k_closed_form", "riccati.phi_k_closed_form")
    w(cli, "riccati_numeric", "riccati.riccati_numeric")
    w(cli, "constant_drift_solution", "passage_model.closed_form")
    w(cli, "segerdahl_q0_solution", "passage_model.closed_form")
    w(cli, "assemble_system", "passage_model.assemble_system", _counted_system)
    w(passage_model, "assemble_system", "passage_model.assemble_system", _counted_system)
    w(cli, "solve_bvp", "passage_model.solve_bvp", _bvp_guards)
    w(passage_model, "_collocation", "passage_model.collocation")
    w(passage_model, "_integrate_columns", _column_integration_kind)
    w(cli, "estimate", "mc_sim.estimate", _mc_counts)
    w(mc_sim, "simulate_path", "mc_sim.simulate_path")
    for attr in ("flow", "_vector_flow", "_flow_segment_numeric"):
        w(mc_sim, attr, "mc_sim.flow")
    for attr in ("crossing_time", "_vector_crossing_times"):
        w(mc_sim, attr, "mc_sim.crossing_time")
    w(mc_sim, "ph_sample", "phase_type.sample", _sample_draws)
    w(phase_type, "sample", "phase_type.sample", _sample_draws)
    w(phase_type, "tail", "phase_type.tail")
    w(phase_type, "density", "phase_type.density")
    w(phase_type, "matrix_exp", "phase_type.matrix_exp")


def run(plan: dict) -> dict:
    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.op = "import"
    sid = tracer.begin("cli.import")
    from pdmpruin import cli

    tracer.end(sid)
    install(tracer)

    results = []
    for step in plan["steps"]:
        tracer.op = step["id"]
        if step["kind"] == "cli":
            sid = tracer.begin("cli.main")
            rc = cli.main(step["argv"])
            tracer.end(sid)
        else:
            sid = tracer.begin("bench.jumplaw")
            result, _ = bench_steps.jumplaw(step)
            with open(step["outputs"][0], "w") as f:
                json.dump(result, f, indent=1, sort_keys=True)
            tracer.end(sid)
            rc = 0
        results.append({"id": step["id"], "rc": rc})
    return {
        "wall_s": time.perf_counter() - t0,
        "steps": results,
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "maxima": tracer.maxima,
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        plan = json.load(f)
    trace = run(plan)
    with open(argv[1], "w") as f:
        json.dump(trace, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
