"""Tests of the benchmark itself: span arithmetic, the checks, and smoke runs.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from conftest import BENCH, ROOT


def span(i, start, end, parent=None, name="x.f"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": "op"}


class TestSpans:
    def test_self_time_is_duration_minus_child_coverage(self):
        s = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 3.0, parent=0),
            span(2, 2.0, 5.0, parent=0),  # overlaps span 1
            span(3, 7.0, 8.0, parent=0),
            span(4, 1.5, 2.0, parent=1),  # grandchild: covered by span 1 already
            span(5, 9.5, 11.0, parent=0),  # runs past its parent's end
        ]
        st = spans.self_times(s)
        assert st[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
        assert st[1] == pytest.approx(2.0 - 0.5)
        assert st[2] == pytest.approx(3.0)
        assert st[4] == pytest.approx(0.5)

    def test_self_times_of_a_nested_tree_add_up_to_the_root(self):
        s = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, parent=0), span(2, 2.0, 3.0, parent=1),
             span(3, 5.0, 9.0, parent=0), span(4, 6.0, 6.5, parent=3)]
        assert sum(spans.self_times(s).values()) == pytest.approx(10.0)

    def test_covered_merges_overlaps(self):
        assert spans.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
        assert spans.covered([]) == 0.0

    def test_totals_count_nested_same_name_once(self):
        s = [span(0, 0.0, 4.0, name="a.f"), span(1, 1.0, 2.0, parent=0, name="a.f"),
             span(2, 2.0, 3.0, parent=0, name="b.g")]
        assert spans.totals_by_name(s) == {"a.f": 4.0, "b.g": 1.0}
        assert spans.self_by_layer(s) == pytest.approx({"a": 3.0, "b": 1.0})

    def test_wrap_records_nesting_counts_and_errors(self):
        mod = types.SimpleNamespace()
        mod.inner = lambda x: x + 1

        def outer(x):
            if x < 0:
                raise ValueError("negative")
            return mod.inner(x) * 2

        mod.outer = outer
        tracer = spans.Tracer()
        tracer.wrap(mod, "inner", "lay.inner")
        tracer.wrap(mod, "outer", "lay.outer")
        tracer.op = "call-1"
        assert mod.outer(1) == 4
        with pytest.raises(ValueError):
            mod.outer(-1)
        assert tracer.counters["lay.outer.calls"] == 2
        assert tracer.counters["lay.inner.calls"] == 1
        assert tracer.counters["lay.errors"] == 1
        first, second = tracer.spans[0], tracer.spans[1]
        assert second["parent"] == first["id"] and second["op"] == "call-1"
        assert all(s["end"] >= s["start"] for s in tracer.spans)


def write_csv(path, x, psi, method="closed_form"):
    with open(path, "w") as f:
        f.write("x,psi,m_1,method\n")
        for xv, pv in zip(x, psi):
            f.write(f"{xv:.17g},{pv:.17g},{pv:.17g},{method}\n")


class TestChecksFire:
    def test_pinned_solution_check_fires_on_perturbation(self, tmp_path):
        x = np.linspace(0.0, 5.0, 101)
        step = {"check": {"type": "exp_csv", "a": 0.5, "rate": 1.0, "tol": 1e-12}}
        good = tmp_path / "good.csv"
        write_csv(good, x, 0.5 * np.exp(-x))
        assert checks.check_step(step, 0, [str(good)]) == []
        psi = 0.5 * np.exp(-x)
        psi[40] *= 1.0 + 1e-9
        bad = tmp_path / "bad.csv"
        write_csv(bad, x, psi)
        assert checks.check_step(step, 0, [str(bad)])

    def test_closed_form_check_fires_on_perturbation(self, tmp_path):
        from pdmpruin.riccati import phi_k_closed_form

        params = {"K": 0.75, "lam": 0.5, "q": 0.5, "mu": 1.5}
        x = np.linspace(0.0, 5.0, 101)
        psi, m = phi_k_closed_form(0.75, 0.5, 0.5, 1.5, x)
        step = {"check": {"type": "closed_form_csv", "params": params, "tol": 1e-6, "method": "ode_bvp"}}
        path = tmp_path / "sol.csv"
        with open(path, "w") as f:
            f.write("x,psi,m_1,method\n")
            for i in range(x.size):
                f.write(f"{x[i]:.17g},{psi[i]:.17g},{m[i]:.17g},ode_bvp\n")
        assert checks.check_step(step, 0, [str(path)]) == []
        text = path.read_text().splitlines()
        cols = text[50].split(",")
        cols[1] = repr(float(cols[1]) + 1e-5)
        text[50] = ",".join(cols)
        path.write_text("\n".join(text) + "\n")
        assert checks.check_step(step, 0, [str(path)])

    def test_mc_band_check_fires_outside_the_band(self, tmp_path):
        x = np.linspace(0.0, 5.0, 101)
        solve = tmp_path / "solve.csv"
        write_csv(solve, x, 0.4 * np.exp(-x), method="ode_bvp")
        sim = tmp_path / "sim.json"
        step = {"check": {"type": "mc_band", "solve": str(solve), "x0": 1.0, "sigmas": 3.0}}
        sim.write_text(json.dumps({"mean": 0.4 * math.exp(-1.0) + 0.002, "std_error": 0.001}))
        assert checks.check_step(step, 0, [str(sim)]) == []
        sim.write_text(json.dumps({"mean": 0.4 * math.exp(-1.0) + 0.004, "std_error": 0.001}))
        assert checks.check_step(step, 0, [str(sim)])

    def test_exit_code_and_missing_output_fire(self, tmp_path):
        step = {"check": {"type": "compare"}}
        assert checks.check_step(step, 3, [str(tmp_path / "cmp.csv")]) == ["exit code 3"]
        assert checks.check_step(step, 0, [str(tmp_path / "cmp.csv")])

    def test_traced_output_must_match_untraced_bytes(self, tmp_path):
        step = {"id": "pin.solve", "kind": "cli", "subcommand": "solve", "argv": [], "paths": 0,
                "outputs": ["{out}/s.csv"], "check": {"type": "exp_csv", "a": 0.5, "rate": 1.0, "tol": 1e-12}}
        plan = {"steps": [step]}
        x = np.linspace(0.0, 5.0, 11)
        passes = []
        for name, method in (("a", "closed_form"), ("b", "closed_form ")):
            d = tmp_path / name
            d.mkdir()
            write_csv(d / "s.csv", x, 0.5 * np.exp(-x), method=method)
            passes.append({"dir": str(d), "steps": [{"id": step["id"], "rc": 0}]})
        run.check_pass(plan, passes[0], str(tmp_path))
        assert passes[0]["steps"][0]["failures"] == []
        run.check_pass(plan, passes[1], str(tmp_path), reference_pass=passes[0])
        assert passes[1]["steps"][0]["failures"] == ["traced outputs differ from the untraced pass"]


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.build(w, 7) == workloads.build(w, 7)
    # Every Monte Carlo call of multiphase is judged by a 3-sigma band, so
    # its seeds are fixed; the other workloads draw simulate seeds.
    for w in ("reference", "tabulated"):
        assert workloads.build(w, 7) != workloads.build(w, 8)


def bench_run(*args, cwd=ROOT):
    cp = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                        capture_output=True, text=True, timeout=180)
    return cp


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_each_workload(workload):
    cp = bench_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert cp.returncode == 0, cp.stderr
    result = json.loads(cp.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, cp.stdout
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    cp = bench_run("--workload", "tabulated", "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert cp.returncode == 0, cp.stderr
    result = json.loads(cp.stdout.strip().splitlines()[-1])
    assert result["correct"], cp.stdout
    assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    assert result["metrics"]["mc_sim.simulate_path.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cp = bench_run("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert cp.returncode != 0
    assert '"correct"' not in cp.stdout
