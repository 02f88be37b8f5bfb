import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from pdmpruin.mc_sim import (
    PassageEstimate,
    SimConfig,
    crossing_time,
    default_max_time,
    estimate,
    flow,
    simulate_path,
)
from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    NumericalError,
    PassageProblem,
    SegerdahlDrift,
    TabulatedDrift,
    constant_drift_solution,
    solve_bvp,
)
from pdmpruin.phase_type import exponential, tail
from pdmpruin.riccati import phi_k_closed_form

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)


def fig1_model():
    return ModelSpec(
        SegerdahlDrift(**FIG1), FIG1["lam"], FIG1["q"], exponential(FIG1["mu"])
    )


def const_model(c=1.0, lam=1.0, q=0.0, mu=2.0):
    return ModelSpec(ConstantDrift(c), lam, q, exponential(mu))


def tabulated_fig1_drift():
    """400-knot cubic table of the relaxing drift on [-1, 8], sign domain [0, 8]."""
    xs = np.linspace(-1.0, 8.0, 400)
    return TabulatedDrift(tuple(xs), tuple(SegerdahlDrift(**FIG1).phi(xs)), "cubic", (0.0, 8.0))


def ruin_cfg(model, x0, n, seed, **kw):
    return SimConfig(
        model=model, problem=PassageProblem(lower=0.0), x0=x0, n_paths=n, seed=seed, **kw
    )


class TestFlow:
    def test_constant_exact(self):
        assert flow(ConstantDrift(-2.0), 1.0, 0.25) == 1.0 - 0.5

    def test_relaxing_taylor_consistency(self):
        # flow(x0, dt) = x0 + phi(x0) dt + O(dt^2) with a bounded constant
        d = SegerdahlDrift(**FIG1)
        x0 = 1.0
        bound = abs(d.dphi(x0) * d.phi(x0))  # second time-derivative scale
        for dt in (1e-2, 1e-3, 1e-4):
            err = abs(flow(d, x0, dt) - (x0 + d.phi(x0) * dt))
            assert err <= 0.6 * bound * dt**2 + 1e-14

    def test_relaxing_matches_reference_integrator(self):
        from scipy.integrate import solve_ivp

        d = SegerdahlDrift(**FIG1)
        sol = solve_ivp(
            lambda t, x: [d.phi(x[0])], (0, 2.0), [1.5], rtol=1e-12, atol=1e-13
        )
        assert abs(flow(d, 1.5, 2.0) - sol.y[0, -1]) < 1e-9

    def test_tabulated_matches_reference_integrator(self):
        from scipy.integrate import solve_ivp

        d = tabulated_fig1_drift()
        for x0, dt in ((1.5, 2.0), (7.9, 3.0), (0.5, 0.2)):
            sol = solve_ivp(
                lambda t, x: d.phi(x), (0, dt), [x0], method="Radau", rtol=1e-13, atol=1e-14
            )
            assert abs(flow(d, x0, dt) - sol.y[0, -1]) < 1e-12

    def test_tabulated_flow_leaving_its_domain_raises(self):
        d = tabulated_fig1_drift()  # negative drift: the flow runs down to 0
        t_edge = crossing_time(d, 1.0, 0.0, "below")
        assert flow(d, 1.0, 0.999 * t_edge) > 0.0
        with pytest.raises(NumericalError, match="^flow left the drift table"):
            flow(d, 1.0, 1.001 * t_edge)
        with pytest.raises(NumericalError, match="^flow left the drift table"):
            flow(TabulatedDrift((0.0, 5.0), (1.0, 1.0)), 1.0, 4.5)

    def test_fixed_point(self):
        mu = 1.5
        d = SegerdahlDrift(math.exp(2 * mu), 0.5, 0.5, mu)  # equilibrium at x = 1
        assert abs(d.phi(1.0)) < 1e-12
        assert abs(flow(d, 1.0, 7.0) - 1.0) < 1e-12

    def test_tabulated_flow(self):
        xs = np.linspace(-1.0, 3.0, 100)
        d = TabulatedDrift(tuple(xs), tuple(np.full(xs.shape, -0.5)))
        assert abs(flow(d, 1.0, 1.0) - 0.5) < 1e-8

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            flow(ConstantDrift(1.0), 0.0, -1.0)


class TestCrossingTime:
    def test_constant_cases(self):
        assert crossing_time(ConstantDrift(-2.0), 1.0, 0.0, "below") == 0.5
        assert crossing_time(ConstantDrift(2.0), 1.0, 0.0, "below") == math.inf
        assert crossing_time(ConstantDrift(2.0), 1.0, 3.0, "above") == 1.0
        assert crossing_time(ConstantDrift(0.0), 1.0, 0.0, "below") == math.inf

    def test_on_the_level_direction_matters(self):
        assert crossing_time(ConstantDrift(-1.0), 0.0, 0.0, "below") == 0.0
        assert crossing_time(ConstantDrift(1.0), 0.0, 0.0, "below") == math.inf

    def test_relaxing_against_flow_bisection(self):
        x0, level = 2.0, 0.3
        for d in (SegerdahlDrift(**FIG1), tabulated_fig1_drift()):
            t = crossing_time(d, x0, level, "below")
            assert 0 < t < math.inf
            assert abs(flow(d, x0, t) - level) < 1e-10
        # unreachable level beyond the equilibrium
        d_pos = SegerdahlDrift(math.exp(3.0), 0.5, 0.5, 1.5)  # equilibrium x=1
        assert crossing_time(d_pos, 0.5, 1.5, "above") == math.inf
        t_up = crossing_time(d_pos, 0.5, 0.9, "above")
        assert abs(flow(d_pos, 0.5, t_up) - 0.9) < 1e-10


class TestSimulatePath:
    def test_no_jump_limit_deterministic_ruin(self):
        m = ModelSpec(ConstantDrift(-1.0), 1e-9, 0.0, exponential(2.0))
        cfg = ruin_cfg(m, x0=1.0, n=1, seed=0, max_time=100.0)
        out = simulate_path(cfg, np.random.default_rng(0))
        assert out.kind == "ruined"
        assert_allclose(out.tau, 1.0, rtol=1e-12)
        assert out.overshoot == 0.0
        assert out.n_jumps == 0

    def test_zero_drift_first_jump_ruin_probability(self):
        # with no drift the path only moves at jumps; the chance that the
        # very first jump already ruins is the jump-size tail at x0 - l
        m = ModelSpec(ConstantDrift(0.0), 1.0, 0.0, exponential(2.0))
        cfg = ruin_cfg(m, x0=1.0, n=1, seed=0, max_time=1000.0)
        rng = np.random.default_rng(77)
        n = 4000
        hits = sum(
            1
            for _ in range(n)
            if (o := simulate_path(cfg, rng)).kind == "ruined" and o.n_jumps == 1
        )
        p = tail(m.jumps, 1.0)  # e^{-2}
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * se

    def test_seed_determinism(self):
        cfg = ruin_cfg(fig1_model(), x0=1.0, n=1, seed=0)
        a = [simulate_path(cfg, np.random.default_rng(42)) for _ in range(1)]
        b = [simulate_path(cfg, np.random.default_rng(42)) for _ in range(1)]
        assert a == b

    def test_tabulated_drift_events(self):
        xs = np.linspace(-2.0, 4.0, 200)
        d = TabulatedDrift(tuple(xs), tuple(np.full(xs.shape, -1.0)))
        m = ModelSpec(d, 1e-9, 0.0, exponential(2.0))
        cfg = ruin_cfg(m, x0=1.0, n=1, seed=0, max_time=100.0)
        out = simulate_path(cfg, np.random.default_rng(1))
        assert out.kind == "ruined"
        assert abs(out.tau - 1.0) < 1e-8


class TestEstimate:
    def test_constant_drift_reference_point(self):
        m = const_model()
        cfg = ruin_cfg(m, x0=0.0, n=100000, seed=123, max_time=50.0)
        est = estimate(cfg)
        assert abs(est.mean - 0.5) < 3 * est.std_error
        assert est.n_ruined + est.n_escaped + est.n_censored + est.n_killed == est.n_paths

    def test_fig1_cross_oracle(self):
        m = fig1_model()
        for x0, seed in ((0.5, 1), (2.0, 2)):
            cfg = ruin_cfg(m, x0=x0, n=30000, seed=seed)
            est = estimate(cfg)
            cf, _ = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], x0)
            assert abs(est.mean - cf) < 3 * est.std_error, (x0, est.mean, cf)

    def test_monotone_in_kill_rate_common_random_numbers(self):
        vals = []
        for q in (0.0, 0.25, 1.0, 4.0):
            m = ModelSpec(SegerdahlDrift(0.75, 0.5, q, 1.5), 0.5, q, exponential(1.5))
            est = estimate(ruin_cfg(m, x0=1.0, n=4000, seed=9))
            vals.append(est.mean)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0)  # certain ruin, no killing

    def test_monotone_in_start_level_common_random_numbers(self):
        m = fig1_model()
        vals = [estimate(ruin_cfg(m, x0=x0, n=20000, seed=5)).mean for x0 in (0.5, 1.0, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_weight_vs_horizon_equivalence(self):
        m = fig1_model()
        w = estimate(ruin_cfg(m, x0=1.0, n=30000, seed=3, kill_mode="weight"))
        h = estimate(ruin_cfg(m, x0=1.0, n=30000, seed=4, kill_mode="horizon"))
        joint = math.hypot(w.std_error, h.std_error)
        assert abs(w.mean - h.mean) < 3 * joint
        assert h.n_killed > 0

    def test_no_censoring_below_deterministic_bound(self):
        m = fig1_model()
        x0 = 2.0
        t_flow = crossing_time(m.drift, x0, 0.0, "below")
        cfg = ruin_cfg(m, x0=x0, n=10000, seed=8, max_time=t_flow + 0.1)
        est = estimate(cfg)
        assert est.n_censored == 0
        assert est.n_ruined == est.n_paths

    def test_overshoot_distribution_is_exponential(self):
        # memorylessness: the ruin overshoot of exponential jumps is again
        # exponential with the same rate
        m = fig1_model()
        est = estimate(ruin_cfg(m, x0=2.0, n=30000, seed=6), collect_jump_overshoots=True)
        osh = est.overshoots
        assert osh.size > 1000
        res = stats.kstest(osh, stats.expon(scale=1.0 / FIG1["mu"]).cdf)
        assert res.pvalue > 0.01

    def test_all_censored_flagged(self):
        m = const_model()
        cfg = ruin_cfg(m, x0=3.0, n=50, seed=0, max_time=1e-9)
        with pytest.warns(UserWarning, match="censored"):
            est = estimate(cfg)
        assert est.all_censored
        assert est.mean == 0.0

    def test_determinism_and_worker_independence(self):
        m = fig1_model()
        a = estimate(ruin_cfg(m, x0=1.0, n=5000, seed=11))
        b = estimate(ruin_cfg(m, x0=1.0, n=5000, seed=11))
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_censoring_bias_bound_is_the_largest_lost_weight(self):
        # upward drift, q > 0: paths that outlive the horizon T are censored,
        # and each could have added at most e^{-qT} to the estimate
        q, T = 0.1, 10.0
        m = const_model(c=1.0, q=q)
        est = estimate(ruin_cfg(m, x0=1.0, n=20000, seed=2, max_time=T))
        assert est.n_censored > 0
        assert est.censored_weight_bound == pytest.approx(math.exp(-q * T), rel=1e-12)
        assert est.censoring_bias_bound == pytest.approx(
            est.censored_fraction * math.exp(-q * T), rel=1e-12
        )
        exact = float(constant_drift_solution(m, np.array([1.0]))[0][0])
        assert exact - 3 * est.std_error - est.censoring_bias_bound < est.mean < exact + 3 * est.std_error
        # under an explicit kill horizon a censored path could have added 1
        h = estimate(ruin_cfg(m, x0=1.0, n=2000, seed=2, max_time=T, kill_mode="horizon"))
        assert h.censoring_bias_bound == h.censored_fraction

    def test_exit_above_cross_oracle(self):
        mu = 1.5
        d = SegerdahlDrift(math.exp(2.0 * mu), 0.5, 0.5, mu)  # positive below x=1
        m = ModelSpec(d, 0.5, 0.5, exponential(mu))
        problem = PassageProblem(0.0, 0.8, "exit_above")
        x0 = 0.4
        cfg = SimConfig(model=m, problem=problem, x0=x0, n_paths=30000, seed=13)
        est = estimate(cfg)
        grid = np.linspace(0.0, 0.8, 33)
        curve = solve_bvp(m, problem, grid)
        idx = np.argmin(np.abs(grid - x0))
        assert abs(est.mean - curve.psi[idx]) < 3.5 * est.std_error

    def test_exit_above_negative_drift_is_zero(self):
        m = fig1_model()
        problem = PassageProblem(0.0, 3.0, "exit_above")
        cfg = SimConfig(model=m, problem=problem, x0=1.0, n_paths=2000, seed=1)
        est = estimate(cfg)
        assert est.mean == 0.0
        assert est.n_escaped == 0

    def test_two_sided_ruin_below_cross_oracle(self):
        m = const_model()
        problem = PassageProblem(0.0, 2.0, "ruin_below")
        cfg = SimConfig(model=m, problem=problem, x0=1.0, n_paths=30000, seed=21)
        est = estimate(cfg)
        grid = np.linspace(0.0, 2.0, 41)
        curve = solve_bvp(m, problem, grid)
        idx = np.argmin(np.abs(grid - 1.0))
        assert abs(est.mean - curve.psi[idx]) < 3.5 * est.std_error

    def test_overshoot_penalty_weight(self):
        # For exponential jumps the overshoot is exp(mu) independent of tau,
        # so the penalized target factorizes: E e^{-xi*overshoot} on jump
        # ruins = mu/(mu+xi).  At zero drift every ruin is a jump ruin.
        m = ModelSpec(ConstantDrift(0.0), 1.0, 0.0, exponential(2.0))
        xi = 1.0
        plain = estimate(
            SimConfig(model=m, problem=PassageProblem(lower=0.0), x0=1.0,
                      n_paths=20000, seed=31, max_time=2000.0)
        )
        pen = estimate(
            SimConfig(model=m, problem=PassageProblem(lower=0.0, overshoot_xi=xi),
                      x0=1.0, n_paths=20000, seed=31, max_time=2000.0)
        )
        assert plain.mean == pytest.approx(1.0)  # ruin certain
        factor = 2.0 / (2.0 + xi)
        assert abs(pen.mean - factor) < 4 * pen.std_error + 1e-3

    def test_scalar_engine_agrees_with_vector_engine(self):
        # tabulated copy of the relaxing drift forces the per-path engine;
        # the table extends below the boundary, the sign-constant part not
        base = SegerdahlDrift(**FIG1)
        xs = np.linspace(-3.0, 8.0, 400)
        d = TabulatedDrift(tuple(xs), tuple(base.phi(xs)), sign_domain=(0.0, 8.0))
        m_tab = ModelSpec(d, FIG1["lam"], FIG1["q"], exponential(FIG1["mu"]))
        est_tab = estimate(ruin_cfg(m_tab, x0=1.0, n=2000, seed=17))
        cf, _ = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], 1.0)
        assert abs(est_tab.mean - cf) < 4 * est_tab.std_error
        # the same settlement under an explicit Exp(q) kill horizon
        killed = estimate(ruin_cfg(m_tab, x0=1.0, n=2000, seed=17, kill_mode="horizon"))
        assert killed.n_killed > 0
        assert abs(killed.mean - cf) < 4 * killed.std_error

    def test_overshoot_penalty_is_ruin_only(self):
        # exit above with upward jumps: an overshoot past the upper level is
        # not penalized, on the vector engine and on the per-path one alike
        linear = TabulatedDrift((0.0, 1.5, 3.0), (-1.0, -1.2, -1.4), "linear")
        for drift in (ConstantDrift(-1.0), linear):
            m = ModelSpec(drift, 1.0, 0.3, exponential(2.0), "upward")
            means = [
                estimate(SimConfig(model=m, problem=PassageProblem(0.0, 3.0, "exit_above", xi),
                                   x0=1.0, n_paths=2000, seed=4)).mean
                for xi in (0.0, 1.0)
            ]
            assert means[0] == means[1] > 0

    def test_config_validation(self):
        m = const_model()
        with pytest.raises(ValueError):
            ruin_cfg(m, x0=1.0, n=0, seed=0)
        with pytest.raises(ValueError):
            ruin_cfg(m, x0=-1.0, n=10, seed=0)
        with pytest.raises(ValueError):
            ruin_cfg(m, x0=1.0, n=10, seed=0, kill_mode="nope")
        with pytest.raises(ValueError):
            ruin_cfg(m, x0=1.0, n=10, seed=0, max_time=-1.0)
        with pytest.raises(ValueError, match="seed"):
            ruin_cfg(m, x0=1.0, n=10, seed=-1)

    def test_default_max_time_scales(self):
        m = fig1_model()
        t = default_max_time(m, PassageProblem(lower=0.0), 2.0)
        t_flow = crossing_time(m.drift, 2.0, 0.0, "below")
        assert t >= 50.0 * t_flow
        m2 = const_model()
        assert default_max_time(m2, PassageProblem(lower=0.0), 0.0) > 0


class TestPassageEstimateType:
    def test_counts_and_dict(self):
        est = PassageEstimate(0.5, 0.01, 100, 60, 0, 40, 0, "psi_q")
        assert est.censored_fraction == 0.4
        assert est.censoring_bias_bound == 0.4
        assert est.overshoots is None
        d = est.to_dict()
        assert d["mean"] == 0.5
        assert d["target"] == "psi_q"
