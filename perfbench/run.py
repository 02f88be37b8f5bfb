"""pdmpruin benchmark: time the command line end to end, and layer by layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and README.md): ``reference``, ``multiphase``
and ``tabulated``.  Calls are issued one at a time, each as a fresh
``python -m pdmpruin.cli`` process on configs generated from ``--seed``, in
passes over the workload's fixed list of steps, until ``--seconds`` of passes
are spent.  Every step's outputs are checked after the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and then one traced pass in-process (``traced.py``), and reports the
per-layer metrics computed from its spans.  The last line of standard output
is the result as one JSON object; details (every call, output hashes, spans)
go to ``.perfbench_runs/<run>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_REPS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CALL_TIMEOUT_S = 150.0
# One call at a time on small matrices: BLAS threads buy nothing and add noise.
CHILD_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better -- the end-to-end metrics of the final JSON line.  Only
# these are gated; they are the steadiest on a shared 2-core machine (see
# README.md).  The other end-to-end metrics are printed and kept in
# result.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("session_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
REPORTED_UNITS = {"mc_paths_per_s": "1/s", "failed_ops": "share"}
# Subcommands that only some workloads call.
PER_WORKLOAD_SUBCOMMANDS = ("check-integrability", "compare", "figure1")

LAYERS = ("cli", "serialization", "lie_algebra", "riccati", "passage_model", "mc_sim", "phase_type")
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("serialization.load_config_file_s", "s", "lower"),
    ("lie_algebra.closure_s", "s", "lower"),
    ("lie_algebra.is_solvable_s", "s", "lower"),
    ("passage_model.solve_bvp_s", "s", "lower"),
    ("mc_sim.estimate_s", "s", "lower"),
    ("phase_type.sample_s", "s", "lower"),
    ("phase_type.tail_s", "s", "lower"),
    ("phase_type.density_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("mc_sim.paths_per_s", "1/s", "higher"),
    ("mc_sim.uncensored_ratio", "ratio", "higher"),
    ("lie_algebra.closure.dimension", "count", "lower"),
    ("lie_algebra.closure.generations", "count", "lower"),
    ("passage_model.system_evals", "count", "lower"),
    ("mc_sim.simulate_path.calls", "count", "lower"),
    ("mc_sim.flow.calls", "count", "lower"),
    ("mc_sim.crossing_time.calls", "count", "lower"),
    ("phase_type.sample.calls", "count", "lower"),
    ("phase_type.sample.draws", "count", "lower"),
    ("phase_type.tail.points", "count", "lower"),
    ("phase_type.matrix_exp.calls", "count", "lower"),
    ("passage_model.solve_bvp.error_estimate_max", "abs", "lower"),
    ("passage_model.solve_bvp.boundary_residual", "abs", "lower"),
) + tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS)

# Per-layer metric -> the end-to-end metric and workload it should move.
TARGETS = {
    "cli.import_s": "setup_s and every short *_s, reference",
    "cli.self_s": "compare_s, reference",
    "serialization.load_config_file_s": "setup_s, tabulated",
    "lie_algebra.closure_s": "check_solvability_s, multiphase",
    "lie_algebra.is_solvable_s": "check_solvability_s, multiphase",
    "lie_algebra.closure.dimension": "check_solvability_s, multiphase",
    "lie_algebra.closure.generations": "check_solvability_s, multiphase",
    "riccati.allen_stein_test_s": "check_integrability_s/solve_s/figure1_s, reference",
    "riccati.phi_k_closed_form_s": "check_integrability_s/solve_s/figure1_s, reference",
    "riccati.riccati_numeric_s": "compare_s, reference and tabulated",
    "passage_model.solve_bvp_s": "solve_s, multiphase and tabulated; compare_s, reference",
    "passage_model.solve_bvp.collocation_s": "solve_s, multiphase",
    "passage_model.system_evals": "solve_s, multiphase",
    "passage_model.solve_bvp.ivp_s": "solve_s/compare_s, tabulated and reference",
    "passage_model.solve_bvp.shooting_s": "compare_s, reference (pinned case)",
    "passage_model.closed_form_s": "solve_s, reference",
    "passage_model.solve_bvp.error_estimate_max": "accuracy guard: must not move",
    "passage_model.solve_bvp.boundary_residual": "accuracy guard: must not move",
    "mc_sim.estimate_s": "simulate_s/compare_s/mc_paths_per_s, every workload",
    "mc_sim.paths_per_s": "mc_paths_per_s, every workload",
    "mc_sim.uncensored_ratio": "mc_paths_per_s, reference",
    "mc_sim.simulate_path.calls": "simulate_s, tabulated",
    "mc_sim.flow.calls": "simulate_s, tabulated",
    "mc_sim.crossing_time.calls": "simulate_s, tabulated",
    "phase_type.sample_s": "simulate_s, multiphase (vector) and tabulated (scalar)",
    "phase_type.sample.calls": "simulate_s, multiphase and tabulated",
    "phase_type.sample.draws": "simulate_s, multiphase and tabulated",
    "phase_type.tail_s": "jumplaw_s, multiphase",
    "phase_type.tail.points": "jumplaw_s, multiphase",
    "phase_type.density_s": "jumplaw_s, multiphase",
    "phase_type.matrix_exp.calls": "jumplaw_s, multiphase",
    "trace.overhead_s": "none: traced pass minus untraced session_s",
}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def tail_percentile(values):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ranked = sorted(values)
            return p, ranked[min(n - 1, int(p / 100.0 * n))]
    return None


# ---------------------------------------------------------------------------
# Running steps
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = CHILD_THREADS
    return env


def run_child(argv, env, cwd, log_stem, timeout):
    """Run one child process to completion; returns (exit code, wall seconds).

    The wait blocks and a timer kills the child on timeout: waiting with a
    timeout would poll, which rounds every wall time up by up to 50 ms.
    """
    with open(f"{log_stem}.stdout", "w") as out, open(f"{log_stem}.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        return (rc if wall < timeout else "timeout"), wall


def fill(step: dict, cfg_dir: str, out_dir: str) -> dict:
    """The step with every ``{cfg}``/``{out}`` placeholder filled in."""
    step = json.loads(json.dumps(step))
    step["outputs"] = workloads.substitute(step["outputs"], cfg_dir, out_dir)
    if step["kind"] == "cli":
        step["argv"] = workloads.substitute(step["argv"], cfg_dir, out_dir)
    if "solve" in step["check"]:
        step["check"]["solve"] = workloads.substitute(step["check"]["solve"], cfg_dir, out_dir)
    return step


def run_pass(plan, cfg_dir, out_dir, env, deadline) -> dict:
    os.makedirs(out_dir)
    records = []
    t0 = time.perf_counter()
    for raw in plan["steps"]:
        step = fill(raw, cfg_dir, out_dir)
        rec = {"id": step["id"], "subcommand": step["subcommand"], "paths": step["paths"]}
        records.append(rec)
        log = os.path.join(out_dir, step["id"])
        if step["kind"] == "cli":
            argv = [sys.executable, "-m", "pdmpruin.cli", *step["argv"]]
        else:
            with open(f"{log}.spec.json", "w") as f:
                json.dump(step, f)
            argv = [sys.executable, str(HERE / "steps.py"), "jumplaw", f"{log}.spec.json", step["outputs"][0]]
        timeout = min(CALL_TIMEOUT_S, deadline - time.monotonic())
        if timeout <= 1.0:
            rec.update(rc="not run: run budget spent", wall_s=None)
            continue
        rec["rc"], rec["wall_s"] = run_child(argv, env, out_dir, log, timeout)
        if step["kind"] == "jumplaw" and rec["rc"] == 0:
            with open(f"{log}.stdout") as f:
                rec["library_s"] = json.loads(f.read().strip().splitlines()[-1])
    return {"dir": out_dir, "wall_s": time.perf_counter() - t0, "steps": records}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_pass(plan, pass_rec, cfg_dir, reference_pass=None) -> None:
    """Judge every step of a pass; adds ``failures`` and ``sha256`` to each record.

    With ``reference_pass`` (an untraced pass of the same run), outputs must
    also be byte-identical to it: tracing may not change what is computed.
    """
    import checks

    for i, (raw, rec) in enumerate(zip(plan["steps"], pass_rec["steps"])):
        step = fill(raw, cfg_dir, pass_rec["dir"])
        fails = checks.check_step(step, rec["rc"], step["outputs"])
        rec["sha256"] = {
            os.path.relpath(p, pass_rec["dir"]): sha256(p) for p in step["outputs"] if os.path.isfile(p)
        }
        if reference_pass is not None:
            want = reference_pass["steps"][i].get("sha256")
            if not fails and want != rec["sha256"]:
                fails.append("traced outputs differ from the untraced pass")
        rec["failures"] = fails


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def timing_metrics(passes, pick) -> dict:
    """End-to-end timings of a run; ``pick`` reduces each step's samples over passes.

    The gated values use ``pick=min``, each step's best pass.  On a shared
    machine the CPU can run at about half speed for tens of seconds at a time
    (seen on a 2-core x86-64 VM); the minimum tracks the code, where a median
    of two or three passes tracks that state.  The report also gives the
    median.
    """
    info = {r["id"]: r for r in passes[0]["steps"]}
    walls, library = defaultdict(list), defaultdict(list)
    for p in passes:
        for r in p["steps"]:
            if r["wall_s"] is None:
                continue
            walls[r["id"]].append(r["wall_s"])
            for piece, secs in r.get("library_s", {}).items():
                library[piece].append(secs)
    by_sub = defaultdict(float)
    paths = sim_wall = 0.0
    for sid, samples in walls.items():
        wall = pick(samples)
        by_sub[info[sid]["subcommand"]] += wall
        if info[sid]["subcommand"] == "simulate":
            paths += info[sid]["paths"]
            sim_wall += wall
    out = {
        "session_s": pick([p["wall_s"] for p in passes]),
        "check_solvability_s": by_sub["check-solvability"],
        "solve_s": by_sub["solve"],
        "simulate_s": by_sub["simulate"],
        "jumplaw_s": sum(pick(v) for v in library.values()),
        "mc_paths_per_s": paths / sim_wall if sim_wall > 0 else 0.0,
    }
    for sub in PER_WORKLOAD_SUBCOMMANDS:
        if sub in by_sub:
            out[sub.replace("-", "_") + "_s"] = by_sub[sub]
    return out


def _descendant_names(span_id, children):
    names, stack = set(), list(children[span_id])
    while stack:
        s = stack.pop()
        names.add(s["name"])
        stack.extend(children[s["id"]])
    return names


def layer_metrics(trace: dict, untraced_session_s: float) -> dict:
    """Per-layer metrics of one traced pass (see README.md for definitions)."""
    spans = trace["spans"]
    counters = defaultdict(float, trace["counters"])
    total = defaultdict(float, spanlib.totals_by_name(spans))
    self_t = spanlib.self_times(spans)
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    branch = defaultdict(float)
    for s in spans:
        if s["name"] == "passage_model.solve_bvp":
            below = _descendant_names(s["id"], children)
            kind = ("collocation" if "passage_model.collocation" in below
                    else "ivp" if "passage_model.ivp" in below else "shooting")
            branch[kind] += spanlib.duration(s)

    m = {
        "cli.import_s": total["cli.import"],
        "cli.self_s": sum(self_t[s["id"]] for s in spans if s["name"] == "cli.main"),
        "trace.overhead_s": trace["wall_s"] - untraced_session_s,
        "mc_sim.paths_per_s": counters["mc_sim.paths"] / total["mc_sim.estimate"] if total["mc_sim.estimate"] else 0.0,
        "mc_sim.uncensored_ratio": counters["mc_sim.uncensored_paths"] / counters["mc_sim.paths"] if counters["mc_sim.paths"] else 0.0,
        "phase_type.tail.points": counters["phase_type.tail.calls"],
    }
    for name in ("serialization.load_config_file", "lie_algebra.closure", "lie_algebra.is_solvable",
                 "passage_model.solve_bvp", "mc_sim.estimate", "phase_type.sample", "phase_type.tail",
                 "phase_type.density", "riccati.allen_stein_test", "riccati.phi_k_closed_form",
                 "riccati.riccati_numeric", "passage_model.closed_form"):
        m[f"{name}_s"] = total[name]
    for kind in ("collocation", "ivp", "shooting"):
        m[f"passage_model.solve_bvp.{kind}_s"] = branch[kind]
    for kind in ("constant", "segerdahl", "tabulated"):
        secs = counters[f"mc_sim.estimate_s.{kind}"]
        m[f"mc_sim.paths_per_s.{kind}"] = counters[f"mc_sim.paths.{kind}"] / secs if secs else 0.0
    for name in ("lie_algebra.closure.dimension", "lie_algebra.closure.generations",
                 "passage_model.system_evals", "mc_sim.simulate_path.calls", "mc_sim.flow.calls",
                 "mc_sim.crossing_time.calls", "phase_type.sample.calls", "phase_type.sample.draws",
                 "phase_type.matrix_exp.calls"):
        m[name] = counters[name]
    for layer in LAYERS:
        m[f"{layer}.errors"] = counters[f"{layer}.errors"]
    for name in ("passage_model.solve_bvp.error_estimate_max", "passage_model.solve_bvp.boundary_residual"):
        m[name] = trace["maxima"].get(name, 0.0)
    for layer, secs in spanlib.self_by_layer(spans).items():
        m[f"{layer}.self_s"] = secs
    return m


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pdmpruin").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(env) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        cp = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = cp.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "child_threads": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time to spend on passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'tiny' cuts Monte Carlo work, for the benchmark's own tests")
    return p.parse_args(argv)


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    args = parse_args(argv)
    if not (SRC / "pdmpruin" / "cli.py").is_file():
        print(f"perfbench: no pdmpruin sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 1

    plan = workloads.build(args.workload, args.seed, args.size)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    cfg_dir = run_dir / "configs"
    os.makedirs(cfg_dir)
    for name, doc in plan["configs"].items():
        with open(cfg_dir / f"{name}.json", "w") as f:
            json.dump(doc, f)
    cfg_paths = [str(cfg_dir / f"{name}.json") for name in plan["configs"]]
    env = child_env()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
              "environment": environment(env)}

    # Set-up: a fresh interpreter imports the command line and parses the
    # configs.  The first, untimed, one compiles bytecode and fills caches.
    setup_argv = [sys.executable, str(HERE / "steps.py"), "setup", *cfg_paths]
    setup_times = []
    for i in range(1 + (SETUP_REPS if args.trace == 0 else 0)):
        rc, wall = run_child(setup_argv, env, str(run_dir), str(run_dir / f"setup{i}"), 60.0)
        if rc != 0:
            print(f"perfbench: set-up failed (exit {rc}); see {run_dir}/setup{i}.stderr", file=sys.stderr)
            return 1
        if i:
            setup_times.append(wall)

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(plan, str(cfg_dir), str(run_dir / f"pass{len(passes)}"), env, deadline))
        if args.trace:
            break
        elapsed = time.perf_counter() - t0
        if elapsed + median([p["wall_s"] for p in passes]) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    trace = None
    if args.trace:
        trace_dir = run_dir / "traced"
        os.makedirs(trace_dir)
        traced_plan = {"steps": [fill(s, str(cfg_dir), str(trace_dir)) for s in plan["steps"]]}
        with open(trace_dir / "plan.json", "w") as f:
            json.dump(traced_plan, f)
        rc, wall = run_child([sys.executable, str(HERE / "traced.py"), str(trace_dir / "plan.json"),
                              str(trace_dir / "trace.json")], env, str(trace_dir), str(trace_dir / "traced"),
                             max(1.0, deadline - time.monotonic()))
        if rc == 0:
            with open(trace_dir / "trace.json") as f:
                trace = json.load(f)
        traced_pass = {"dir": str(trace_dir), "wall_s": wall, "steps": [
            {"id": s["id"], "subcommand": s["subcommand"], "paths": s["paths"],
             "rc": trace["steps"][i]["rc"] if trace else f"traced run failed ({rc})", "wall_s": None}
            for i, s in enumerate(plan["steps"])]}

    checks_started = time.monotonic()
    sys.path.insert(0, str(SRC))
    for p in passes:
        check_pass(plan, p, str(cfg_dir))
    all_passes = list(passes)
    if args.trace:
        check_pass(plan, traced_pass, str(cfg_dir), reference_pass=passes[0])
        all_passes.append(traced_pass)
    result["phase_s"] = {"until_checks": checks_started - started, "checks": time.monotonic() - checks_started}
    records = [r for p in all_passes for r in p["steps"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])

    per_pass = [timing_metrics([p], min) for p in passes]
    e2e = timing_metrics(passes, min)
    e2e_median = timing_metrics(passes, median)
    e2e["setup_s"] = e2e_median["setup_s"] = median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["failed_ops"] = failed / attempted

    result.update(passes=all_passes, per_pass=per_pass, setup_times=setup_times,
                  end_to_end=e2e, end_to_end_median=e2e_median)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(passes)} untraced pass(es); details in {run_dir.relative_to(ROOT)}")
    for r in records:
        if r["failures"]:
            print(f"  FAILED {r['id']}: {'; '.join(r['failures'])}")
    units = dict(REPORTED_UNITS, **{name: unit for name, unit, _ in END_TO_END})
    gated = {name for name, _, _ in END_TO_END}
    for name, value in e2e.items():
        if value is None:
            continue
        unit = units.get(name, "s")
        if name == "setup_s":
            samples, how = setup_times, "median"
        elif name in per_pass[0]:
            samples, how = [pm[name] for pm in per_pass], f"best pass, median {fmt(e2e_median[name])}"
        else:
            samples, how = [value], "whole run"
        tail = tail_percentile(samples)
        tail_txt = f"p{tail[0]:g} {fmt(tail[1])}" if tail else "no percentile with 10 samples beyond it"
        kind = "gated" if name in gated else "reported"
        print(f"  {name:<22} {fmt(value):>10} {unit:<5} {kind:<8} n={len(samples)} ({how}); {tail_txt}")

    if args.trace:
        layers = layer_metrics(trace, median([p["wall_s"] for p in passes])) if trace else {}
        result["per_layer"] = layers
        result["trace_file"] = str((run_dir / "traced" / "trace.json").relative_to(ROOT))
        for name in sorted(layers):
            print(f"  {name:<44} {fmt(layers[name]):>12}   -> {TARGETS.get(name, '')}")
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    with open(run_dir / "result.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    correct = failed == 0 and (trace is not None or not args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
