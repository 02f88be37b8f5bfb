import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from pdmpruin.mc_sim import (
    EPS,
    PassageEstimate,
    SimConfig,
    _ladder_rate,
    _lundberg_level,
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
    _decay_certificate,
    assemble_system,
    constant_drift_solution,
    solve_bvp,
)
from pdmpruin.phase_type import PhaseType, exponential, tail
from pdmpruin.riccati import phi_k_closed_form

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)
ERLANG3 = PhaseType([1.0, 0.0, 0.0], [[-3.0, 3.0, 0.0], [0.0, -3.0, 3.0], [0.0, 0.0, -3.0]])
COXIAN3 = PhaseType([1.0, 0.0, 0.0], [[-3.0, 2.1, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -1.0]])


def fig1_model():
    return ModelSpec(
        SegerdahlDrift(**FIG1), FIG1["lam"], FIG1["q"], exponential(FIG1["mu"])
    )


def const_model(c=1.0, lam=1.0, q=0.0, mu=2.0):
    return ModelSpec(ConstantDrift(c), lam, q, exponential(mu))


_SIN_X = np.linspace(0.0, 10.0, 41)


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
        # relaxing drift positive at l, q > 0, no tilt: paths that outlive
        # the horizon T are censored, and each could have added at most e^{-qT}
        q, T = 0.1, 10.0
        relaxing = ModelSpec(SegerdahlDrift(4.0, 0.5, q, 1.5), 0.5, q, exponential(1.5))
        est = estimate(SimConfig(relaxing, PassageProblem(-2.0), -1.8, 20000, 2, max_time=T))
        assert est.n_censored > 0
        assert est.censored_weight_bound == pytest.approx(math.exp(-q * T), rel=1e-12)
        assert est.censoring_bias_bound == pytest.approx(
            est.censored_fraction * math.exp(-q * T), rel=1e-12
        )
        # constant drift, sampled under the tilt: a censored path could have
        # added at most e^{-R_q (x0 - l)}
        m = const_model(c=1.0, q=q)
        est = estimate(ruin_cfg(m, x0=1.0, n=20000, seed=2, max_time=T))
        assert est.n_censored > 0
        R = _ladder_rate(m, PassageProblem(0.0))
        assert est.censored_weight_bound == pytest.approx(math.exp(-R), rel=1e-12)
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

    @pytest.mark.parametrize("estimand", ["exit_above", "ruin_below"])
    @pytest.mark.parametrize(
        "drift",
        [
            TabulatedDrift((0.0, 5.0), (1.0, 1.0), "linear"),
            TabulatedDrift(tuple(_SIN_X[:21]), tuple(0.8 + 0.1 * np.sin(_SIN_X[:21]))),
        ],
        ids=["linear-table", "sin-table"],
    )
    def test_tabulated_flow_exits_above_cross_oracle(self, drift, estimand):
        # Positive tabulated drift carries paths to the upper level between
        # jumps: the per-path engine's exit by the flow.
        m = ModelSpec(drift, 1.0, 0.3, exponential(2.0))
        problem = PassageProblem(0.0, 2.0, estimand)
        est = estimate(SimConfig(model=m, problem=problem, x0=1.0, n_paths=1000, seed=11))
        psi = solve_bvp(m, problem, np.linspace(0.0, 2.0, 41)).psi[20]
        assert est.n_escaped > 0
        assert abs(est.mean - psi) < 4 * est.std_error

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

    @pytest.mark.parametrize(
        "n, seed", [(2.5, 0), (10.0, 0), (True, 0), (10, 1.9), (10, False), (10, "3")]
    )
    def test_path_count_and_seed_must_be_integers(self, n, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            ruin_cfg(const_model(), x0=1.0, n=n, seed=seed)

    def test_numpy_integers_are_accepted(self):
        est = estimate(ruin_cfg(const_model(), x0=1.0, n=np.int64(50), seed=np.uint32(3)))
        assert est.n_paths == 50

    def test_default_max_time_scales(self):
        m = fig1_model()
        t_flow = crossing_time(m.drift, 2.0, 0.0, "below")
        unkilled = ModelSpec(m.drift, m.jump_rate, 0.0, m.jumps)
        assert default_max_time(unkilled, PassageProblem(lower=0.0), 2.0) >= 50.0 * t_flow
        m2 = const_model()
        assert default_max_time(m2, PassageProblem(lower=0.0), 0.0) > 0
        # with killing the default stops where e^{-qT} reaches EPS
        for model in (m, const_model(q=0.5)):
            t = default_max_time(model, PassageProblem(lower=0.0), 2.0)
            assert 0 < t <= math.log(1e16) / model.kill_rate

    def test_killed_paths_stop_where_their_weight_is_below_eps(self):
        # relaxing drift positive at l, q > 0, no tilt: censored paths are
        # those that outlived e^{-qT} = EPS
        q = 0.5
        relaxing = ModelSpec(SegerdahlDrift(4.0, 0.5, q, 1.5), 0.5, q, exponential(1.5))
        est = estimate(SimConfig(relaxing, PassageProblem(-2.0), -1.8, 2000, 2))
        assert est.n_censored > 0
        assert est.censored_weight_bound <= 1e-16


class TestLundbergLevel:
    @pytest.mark.parametrize(
        "lam, jumps", [(1.0, exponential(2.0)), (0.5, ERLANG3), (0.5, COXIAN3)],
        ids=["exponential", "erlang3", "coxian3"],
    )
    def test_decay_rate_is_the_adjustment_coefficient(self, lam, jumps):
        # lam (E e^{R C} - 1) = c R, with E e^{s C} = beta (-B - s)^{-1} b
        c = 1.0
        m = ModelSpec(ConstantDrift(c), lam, 0.0, jumps)
        R = -_decay_certificate(assemble_system(m)(0.0))[1]
        mgf = jumps.beta @ np.linalg.solve(-jumps.B - R * np.eye(jumps.n), jumps.b)
        assert R > 0
        assert abs(lam * (mgf - 1.0) - c * R) <= 1e-12

    @pytest.mark.parametrize(
        "lam, jumps", [(1.0, exponential(2.0)), (0.5, ERLANG3), (0.5, COXIAN3)],
        ids=["exponential", "erlang3", "coxian3"],
    )
    def test_killed_level_rate_solves_kappa_minus_r_equals_q(self, lam, jumps):
        # kappa(-R_q) = lam (E e^{R C} - 1) - c R = q makes
        # e^{-q t - R_q (X_t - l)} a martingale: the likelihood ratio of the
        # weight-mode tilt, and the bound psi_q(x) <= e^{-R_q (x - l)} that
        # puts the horizon-mode level at l + ln(1/EPS)/R_q
        c, q = 1.0, 0.5
        m = ModelSpec(ConstantDrift(c), lam, q, jumps)
        R = _ladder_rate(m, PassageProblem(0.0))
        mgf = jumps.beta @ np.linalg.solve(-jumps.B - R * np.eye(jumps.n), jumps.b)
        assert abs(lam * (mgf - 1.0) - c * R - q) <= 1e-12
        assert _lundberg_level(m, PassageProblem(0.0)) == math.log(1.0 / EPS) / R
        # no tilt and no level where the martingale argument does not apply
        assert _ladder_rate(m, PassageProblem(0.0, 5.0)) == 0.0
        assert math.isinf(_lundberg_level(m, PassageProblem(0.0, 5.0)))
        for other in (ModelSpec(ConstantDrift(-c), lam, q, jumps),
                      ModelSpec(ConstantDrift(c), lam, q, jumps, "upward")):
            assert _ladder_rate(other, PassageProblem(0.0)) == 0.0
            assert math.isinf(_lundberg_level(other, PassageProblem(0.0)))

    def test_killed_start_past_the_level_is_censored_at_once(self):
        m = const_model(q=0.5)
        level = _lundberg_level(m, PassageProblem(0.0))
        est = estimate(ruin_cfg(m, x0=level + 1.0, n=100, seed=0, kill_mode="horizon"))
        assert (est.n_censored, est.mean, est.censoring_bias_bound) == (100, 0.0, EPS)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_start_past_the_level_scores_under_the_tilt(self, q):
        # Weight mode has no level: a path started where psi_q < EPS is
        # ruined under the tilt and scores its likelihood ratio
        m = const_model(q=q)
        x0 = _lundberg_level(m, PassageProblem(0.0)) + 1.0
        est = estimate(ruin_cfg(m, x0=x0, n=1000, seed=0))
        exact = _oracle_psi(m, x0)
        assert (est.n_ruined, est.n_censored, est.censoring_bias_bound) == (1000, 0, 0.0)
        assert 0.0 < exact < EPS
        assert abs(est.mean - exact) < 3 * est.std_error
        assert est.std_error < 0.05 * exact

    def test_killed_level_stays_put_under_a_kill_horizon(self):
        # Under an explicit kill horizon a live path's remaining ruin chance
        # is psi_q(x) <= e^{-R_q (x - l)} at any age, so the level does not
        # fall: a path started just below it is killed or stops there.
        m = const_model(q=0.5)
        level = _lundberg_level(m, PassageProblem(0.0))
        est = estimate(ruin_cfg(m, x0=level - 0.5, n=2000, seed=1, kill_mode="horizon"))
        assert est.n_ruined == 0 and est.n_censored > 0
        assert est.n_censored + est.n_killed == 2000
        assert est.censored_weight_bound == EPS
        assert est.censoring_bias_bound == est.censored_fraction * EPS

    def test_pinned_case_is_ruined_under_the_tilt(self):
        # c=1, lam=1, mu=2: psi(x) = 0.5 e^{-x}.  Untilted, 82% of the paths
        # drift up and never ruin; under the tilt (R = 1) every path is
        # ruined, none is censored, and a censored one could have added e^{-R x0}
        x0 = 1.0
        est = estimate(ruin_cfg(const_model(), x0=x0, n=20000, seed=4))
        assert (est.n_ruined, est.n_censored, est.censoring_bias_bound) == (20000, 0, 0.0)
        assert est.censored_weight_bound == pytest.approx(math.exp(-x0), rel=1e-12)
        assert abs(est.mean - 0.5 * math.exp(-x0)) < 3 * est.std_error

    @pytest.mark.parametrize("jumps", [exponential(2.0), ERLANG3], ids=["exponential", "erlang3"])
    def test_no_net_profit_keeps_the_time_horizon(self, jumps):
        # c = 0.4 < lam E[C]: ruin is certain and no level may stop a path
        # (the Erlang-3 system matrix still has decaying modes, the slowest
        # at rate 4.22, which would put a level below x0)
        m = ModelSpec(ConstantDrift(0.4), 1.0, 0.0, jumps)
        est = estimate(ruin_cfg(m, x0=10.0, n=2000, seed=5))
        assert est.n_censored == 0
        assert est.mean == 1.0

    @pytest.mark.parametrize("kill_mode", ["weight", "horizon"])
    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize(
        "drift, lower, x0",
        [
            (ConstantDrift(1.0), 0.0, 1.0),
            (SegerdahlDrift(4.0, 0.5, 0.5, 1.5), -2.0, -1.8),
            (TabulatedDrift(tuple(_SIN_X), tuple(1.0 + 0.2 * np.sin(_SIN_X))), 0.0, 1.0),
        ],
        ids=["constant", "relaxing", "sin-table"],
    )
    def test_positive_drift_with_upward_jumps_settles_at_once(
        self, recwarn, drift, lower, x0, q, kill_mode
    ):
        # Ruin below is impossible for any drift positive at the lower level:
        # every path escapes with weight 0, none is censored, and no
        # censoring warning is raised.  These paths used to run to the
        # horizon and come back all censored, or leave the drift table.
        m = ModelSpec(drift, 0.5, q, ERLANG3, "upward")
        est = estimate(SimConfig(m, PassageProblem(lower), x0, 2000, 3, kill_mode=kill_mode))
        assert (est.mean, est.std_error) == (0.0, 0.0)
        assert (est.n_escaped, est.n_censored, est.n_ruined, est.n_killed) == (2000, 0, 0, 0)
        assert not est.all_censored
        assert len(recwarn) == 0

    def test_unresolved_adjustment_coefficient_keeps_the_time_horizon(self):
        # net profit by 1e-13: R is below what the eigenvalues resolve, and
        # _decay_certificate finds no decaying mode; that must not raise here
        m = ModelSpec(ConstantDrift(0.5 + 1e-13), 1.0, 0.0, exponential(2.0))
        est = estimate(ruin_cfg(m, x0=1.0, n=200, seed=5, max_time=20.0))
        assert est.n_censored > 0
        assert est.censored_weight_bound == 1.0


def _stream_pin_cases():
    one = PassageProblem(lower=0.0)
    tab = ModelSpec(tabulated_fig1_drift(), FIG1["lam"], FIG1["q"], exponential(FIG1["mu"]))
    upward = ModelSpec(ConstantDrift(-0.5), 1.0, 0.2, exponential(2.0), "upward")
    # name: (model, problem, x0, n_paths, seed, SimConfig options)
    return {
        "lundberg": (const_model(), one, 1.0, 10000, 4, {}),
        "past_level": (const_model(), one, 40.0, 100, 0, {}),
        "two_sided_ruin": (const_model(), PassageProblem(0.0, 2.0, "ruin_below"), 1.0, 5000, 21, {}),
        "exit_above_upward": (upward, PassageProblem(0.0, 2.0, "exit_above"), 1.0, 5000, 13, {}),
        "horizon_kill": (fig1_model(), one, 1.0, 5000, 4, {"kill_mode": "horizon"}),
        "relaxing": (fig1_model(), one, 2.0, 10000, 6, {}),
        "erlang3": (ModelSpec(ConstantDrift(1.0), 0.5, 0.0, ERLANG3), one, 1.0, 5000, 7, {}),
        "coxian3": (ModelSpec(ConstantDrift(1.0), 0.5, 0.1, COXIAN3), one, 1.0, 5000, 8, {}),
        "impossible": (ModelSpec(ConstantDrift(1.0), 0.5, 0.0, ERLANG3, "upward"), one, 1.0, 500, 3, {}),
        "tabulated": (tab, one, 1.0, 300, 5, {}),
    }


# (mean, std_error, n_ruined, n_escaped, n_censored, n_killed, overshoot
# count, overshoot sum), recorded with the engine of commit e791a20;
# lundberg, past_level, erlang3 and coxian3, the ladder-route cases, since
# weight mode samples them under the Lundberg tilt (the counts and
# overshoots are those of the tilted law).
TILTED_PINS = ("lundberg", "past_level", "erlang3", "coxian3")
STREAM_PINS = {
    "lundberg": (0.1828614541670129, 0.001058181356910798, 10000, 0, 0, 0, 10000, 10047.956540750038),
    "past_level": (1.8207134581146778e-18, 1.2440959335245255e-19, 100, 0, 0, 0, 100, 124.30108554583815),
    "two_sided_ruin": (0.1272, 0.004712586730739174, 636, 4364, 0, 0, 636, 294.1710754723114),
    "exit_above_upward": (0.2636351483672338, 0.005062248271944362, 3034, 1966, 0, 0, 0, 0.0),
    "horizon_kill": (0.4736, 0.00706191065621927, 2368, 0, 0, 2632, 1319, 866.3157055280641),
    "relaxing": (0.3048858873886586, 0.0016108734189934466, 10000, 0, 0, 0, 4616, 3100.713175793679),
    "erlang3": (0.24909042067196088, 0.0015246857545689722, 5000, 0, 0, 0, 5000, 4059.6423076335054),
    "coxian3": (0.25349098391722785, 0.002407034774311971, 5000, 0, 0, 0, 5000, 11354.890859207295),
    "impossible": (0.0, 0.0, 0, 500, 0, 0, 0, 0.0),
    "tabulated": (0.47059542316181097, 0.009240621245662054, 300, 0, 0, 0, 125, 81.20878195060598),
}


class TestStreamPin:
    """The engine's output for a fixed seed, bit for bit.

    One case per branch of the block loop: the Lundberg tilt, a start past
    the Lundberg level, two-sided ruin and exit, upward jumps, explicit kill
    horizons, the relaxing drift, tilted multi-phase jumps with and without
    killing, impossible ruin and the per-path engine of tabulated drifts.  A change in the order or the
    number of draws, or in the arithmetic of a path, moves these numbers.
    """

    @pytest.mark.parametrize("name", sorted(STREAM_PINS))
    def test_estimate_is_unchanged(self, name):
        model, problem, x0, n, seed, kw = _stream_pin_cases()[name]
        cfg = SimConfig(model=model, problem=problem, x0=x0, n_paths=n, seed=seed, **kw)
        est = estimate(cfg, collect_jump_overshoots=True)
        got = (
            est.mean, est.std_error, est.n_ruined, est.n_escaped, est.n_censored,
            est.n_killed, est.overshoots.size, float(est.overshoots.sum()),
        )
        assert got == STREAM_PINS[name]

    @pytest.mark.parametrize("name", TILTED_PINS)
    def test_tilted_pin_agrees_with_the_oracle(self, name):
        # A pin recorded under the tilt must bracket the closed form or the
        # ODE solution at 3 sigma.
        model, problem, x0, *_ = _stream_pin_cases()[name]
        mean, std_error = STREAM_PINS[name][:2]
        assert abs(mean - _oracle_psi(model, x0)) < 3.0 * std_error


class TestPassageEstimateType:
    def test_counts_and_dict(self):
        est = PassageEstimate(0.5, 0.01, 100, 60, 0, 40, 0, "psi_q")
        assert est.censored_fraction == 0.4
        assert est.censoring_bias_bound == 0.4
        assert est.overshoots is None
        d = est.to_dict()
        assert d["mean"] == 0.5
        assert d["censored_weight_bound"] == 1.0 and d["censoring_bias_bound"] == 0.4
        assert d["target"] == "psi_q"


def _tilted_models():
    """Ladder-route models that weight mode samples under the tilt."""
    return {
        "pinned": const_model(),
        "erlang3": ModelSpec(ConstantDrift(1.0), 0.5, 0.5, ERLANG3),
        "coxian3": ModelSpec(ConstantDrift(1.0), 0.5, 0.5, COXIAN3),
    }


def _oracle_psi(model, x0):
    """psi_q(x0) of a ladder-route model: the closed form for exponential
    jumps, else the ODE oracle."""
    if model.jumps.n == 1:
        return float(constant_drift_solution(model, np.array([x0]))[0][0])
    return float(solve_bvp(model, PassageProblem(0.0), np.array([0.0, x0, 2.0 * x0])).psi[1])


class TestLundbergTilt:
    """Weight mode on the ladder route: every path is ruined under the tilt
    e^{-R (X - l)} and scores its likelihood ratio."""

    @pytest.mark.parametrize("name", ["pinned", "erlang3", "coxian3"])
    def test_z_scores_over_seeds_are_standard(self, name):
        model = _tilted_models()[name]
        psi = _oracle_psi(model, 1.0)
        z = []
        for seed in range(30):
            est = estimate(ruin_cfg(model, x0=1.0, n=10000, seed=seed))
            assert est.n_ruined == est.n_paths
            z.append((est.mean - psi) / est.std_error)
        assert abs(np.mean(z)) < 0.5
        assert 0.6 <= np.std(z, ddof=1) <= 1.4

    def test_far_tail_of_the_pinned_case(self):
        # psi(20) = 1.03e-9: no untilted path out of 1e5 would be ruined
        x0 = 20.0
        est = estimate(ruin_cfg(const_model(), x0=x0, n=100_000, seed=3))
        exact = 0.5 * math.exp(-x0)
        assert abs(est.mean - exact) < 3 * est.std_error
        assert est.std_error < 0.01 * exact

    @pytest.mark.parametrize("name", ["pinned", "erlang3", "coxian3"])
    def test_overshoot_penalty_agrees_with_the_untilted_kill_horizon(self, name):
        # the tilt's penalty e^{-(R + xi) undershoot} against horizon mode,
        # which draws the model itself and an Exp(q) kill clock
        model = _tilted_models()[name]
        problem = PassageProblem(0.0, overshoot_xi=1.0)
        w = estimate(SimConfig(model, problem, 1.0, 20000, 1))
        h = estimate(SimConfig(model, problem, 1.0, 20000, 2, kill_mode="horizon"))
        assert w.n_ruined == w.n_paths
        assert abs(w.mean - h.mean) < 3 * math.hypot(w.std_error, h.std_error)
