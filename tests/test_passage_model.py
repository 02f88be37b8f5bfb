import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from pdmpruin import passage_model
from pdmpruin.lie_algebra import build_generators
from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    PassageProblem,
    SegerdahlDrift,
    SolutionCurve,
    TabulatedDrift,
    assemble_system,
    constant_drift_root,
    constant_drift_solution,
    drift_from_dict,
    ode_residual,
    phi_checked,
    segerdahl_q0_solution,
    solve_bvp,
    _segerdahl_q0_full,
)
from pdmpruin.phase_type import erlang, exponential
from pdmpruin.riccati import phi_k_closed_form

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)


def fig1_model():
    return ModelSpec(
        SegerdahlDrift(**FIG1), FIG1["lam"], FIG1["q"], exponential(FIG1["mu"])
    )


def const_model(c=1.0, lam=1.0, q=0.0, mu=2.0):
    return ModelSpec(ConstantDrift(c), lam, q, exponential(mu))


def tabulated_fig1_model():
    xs = np.linspace(-1.0, 8.0, 400)
    drift = TabulatedDrift(tuple(xs), tuple(SegerdahlDrift(**FIG1).phi(xs)), "cubic", (0.0, 8.0))
    return ModelSpec(drift, FIG1["lam"], FIG1["q"], exponential(FIG1["mu"]))


def relaxing_k_half_model():
    return ModelSpec(SegerdahlDrift(0.5, 0.5, 0.5, 1.5), 0.5, 0.5, exponential(1.5))


class TestDrifts:
    def test_constant(self):
        d = ConstantDrift(-0.5)
        assert d.phi(3.0) == -0.5
        assert d.dphi(3.0) == 0.0
        assert d.sign_domain == (-math.inf, math.inf)

    def test_zero_constant_has_no_sign_domain(self):
        d = ConstantDrift(0.0)
        assert d.sign_domain is None
        with pytest.raises(ValueError):
            phi_checked(d, 1.0)

    def test_segerdahl_value(self):
        d = SegerdahlDrift(**FIG1)
        x = 1.3
        expected = (0.5 + 0.5) / 1.5 * (0.75 * math.exp(-2 * 1.5 * x) - 1.0)
        assert_allclose(d.phi(x), expected, rtol=1e-15)
        h = 1e-6
        fd = (d.phi(x + h) - d.phi(x - h)) / (2 * h)
        assert_allclose(d.dphi(x), fd, rtol=1e-8)

    def test_segerdahl_sign_domains(self):
        assert SegerdahlDrift(-2.0, 0.5, 0.5, 1.5).sign_domain == (-math.inf, math.inf)
        d = SegerdahlDrift(0.5, 0.5, 0.5, 1.5)
        lo, hi = d.sign_domain
        assert lo == pytest.approx(math.log(0.5) / 3.0)
        assert hi == math.inf
        d_pos = SegerdahlDrift(math.exp(3.0), 0.5, 0.5, 1.5)  # root at x = 1
        assert d_pos.sign_domain == (-math.inf, pytest.approx(1.0))
        assert d_pos.phi(0.0) > 0

    def test_segerdahl_k_zero_rejected(self):
        with pytest.raises(ValueError):
            SegerdahlDrift(0.0, 0.5, 0.5, 1.5)

    def test_evaluation_outside_sign_domain(self):
        d = SegerdahlDrift(0.5, 0.5, 0.5, 1.5)
        with pytest.raises(ValueError, match="sign-constant domain"):
            phi_checked(d, d.sign_domain[0] - 0.5)

    def test_tabulated_matches_smooth_function(self):
        xs = np.linspace(0.0, 5.0, 200)
        ref = SegerdahlDrift(**FIG1)
        d = TabulatedDrift(tuple(xs), tuple(ref.phi(xs)))
        probe = np.linspace(0.2, 4.8, 37)
        assert_allclose(d.phi(probe), ref.phi(probe), atol=1e-8)
        assert_allclose(d.dphi(probe), ref.dphi(probe), atol=1e-5)

    def test_tabulated_sign_change_rejected(self):
        xs = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(ValueError, match="sign"):
            TabulatedDrift(tuple(xs), tuple(xs))

    def test_tabulated_outside_table(self):
        d = TabulatedDrift((0.0, 1.0, 2.0), (1.0, 1.1, 1.2))
        with pytest.raises(ValueError):
            d.phi(3.0)

    def test_tabulated_linear_matches_pointwise_interpolation(self):
        xs = np.cumsum([0.0, 0.3, 0.7, 0.2, 1.1, 0.45])
        vs = np.array([-1.0, -1.3, -0.9, -2.2, -1.7, -0.6])
        d = TabulatedDrift(tuple(xs), tuple(vs), "linear")
        mids = 0.5 * (xs[:-1] + xs[1:])
        t = (mids - xs[:-1]) / np.diff(xs)
        points = np.concatenate([xs, mids])
        expected = np.concatenate([vs, [a + s * (b - a) for a, b, s in zip(vs, vs[1:], t)]])
        got = d.phi(points)
        assert np.all(np.abs(got - expected) <= np.spacing(np.abs(expected)))
        assert [d.phi(float(p)) for p in points] == got.tolist()
        for outside in (xs[0] - 0.1, xs[-1] + 0.1, np.array([xs[1], xs[-1] + 1e-9])):
            with pytest.raises(ValueError, match="outside its table range"):
                d.phi(outside)
        # The derivative is the segment slope, the last one at the table end;
        # past the end it is refused, as phi is.
        assert d.dphi(xs[-1]) == (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
        with pytest.raises(ValueError, match="outside its table range"):
            d.dphi(xs[-1] + 0.1)

    def test_drift_serialization_round_trip(self):
        for d in (ConstantDrift(1.5), SegerdahlDrift(**FIG1),
                  TabulatedDrift((0.0, 1.0), (1.0, 2.0), "linear")):
            again = drift_from_dict(d.to_dict())
            assert type(again) is type(d)
            assert_allclose(again.phi(0.5), d.phi(0.5))

    def test_unknown_drift_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            drift_from_dict({"kind": "constant", "c": 1.0, "bogus": 2})


class TestSpecs:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(ConstantDrift(1.0), -1.0, 0.0, exponential(1.0))
        with pytest.raises(ValueError):
            ModelSpec(ConstantDrift(1.0), 1.0, -0.1, exponential(1.0))
        with pytest.raises(ValueError):
            ModelSpec(ConstantDrift(1.0), 1.0, 0.0, exponential(1.0), "sideways")
        from pdmpruin.phase_type import PhaseType

        with pytest.raises(ValueError, match="phase-type"):
            ModelSpec(ConstantDrift(1.0), 1.0, 0.0, PhaseType([1.0], [[1.0]]))

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="degenerate"):
            PassageProblem(lower=1.0, upper=1.0)
        with pytest.raises(ValueError):
            PassageProblem(lower=0.0, estimand="exit_above")  # needs finite upper
        with pytest.raises(ValueError):
            PassageProblem(lower=0.0, overshoot_xi=-1.0)
        assert PassageProblem(lower=0.0).upper_value == math.inf

    def test_model_round_trip(self):
        m = fig1_model()
        again = ModelSpec.from_dict(m.to_dict())
        assert again.jump_rate == m.jump_rate
        assert again.drift == m.drift


class TestAssembleSystem:
    def test_exponential_example(self):
        lam, q, c, mu = 1.0, 0.5, 2.0, 2.0
        A = assemble_system(const_model(c=c, lam=lam, q=q, mu=mu))
        assert_allclose(A(0.7), [[(lam + q) / c, -lam / c], [mu, -mu]], atol=1e-15)

    def test_upward_jump_sign_flip(self):
        m = ModelSpec(ConstantDrift(1.0), 1.0, 0.0, exponential(2.0), "upward")
        A = assemble_system(m)
        assert_allclose(A(0.0)[1], [-2.0, 2.0], atol=1e-15)

    def test_erlang_block_placement(self):
        pt = erlang(2, 3.0)
        m = ModelSpec(ConstantDrift(1.0), 1.0, 0.0, pt)
        A = assemble_system(m)(0.0)
        assert A.shape == (3, 3)
        assert_allclose(A[1:, 0], pt.b)
        assert_allclose(A[1:, 1:], pt.B)

    @pytest.mark.parametrize(
        "make_model",
        [fig1_model, const_model, tabulated_fig1_model],
        ids=["relaxing", "constant", "tabulated"],
    )
    def test_generator_decomposition_identity(self, make_model):
        # The node-array form stacks exactly the scalar matrices.
        m = make_model()
        A = assemble_system(m)
        G1, G2 = build_generators(m)
        xs = np.linspace(0.0, 5.0, 11)
        stack = A(xs)
        assert stack.shape == G1.shape + xs.shape
        for j, x in enumerate(xs):
            direct = (m.jump_rate / m.drift.phi(x)) * G1 + G2
            assert np.linalg.norm(A(x) - direct) < 1e-14
            assert_array_equal(stack[:, :, j], A(x))

    @pytest.mark.parametrize(
        "x",
        [-5.0, np.array([0.0, 1.0, -5.0]), np.array([-5.0, 0.5])],
        ids=["scalar", "last-node", "first-node"],
    )
    @pytest.mark.parametrize(
        "make_model", [relaxing_k_half_model, tabulated_fig1_model], ids=["relaxing", "tabulated"]
    )
    def test_outside_domain(self, make_model, x):
        A = assemble_system(make_model())
        with pytest.raises(ValueError, match="sign-constant domain"):
            A(x)


class TestConstantDriftSolution:
    def test_zero_kill_roots(self):
        root = constant_drift_root(const_model())
        assert_allclose(root.eta, 0.5)  # lam/(c mu)
        assert_allclose(root.eta_other, 1.0)
        assert not root.critical

    def test_zero_kill_values(self):
        psi, m = constant_drift_solution(const_model(), np.array([0.0, 1.0]))
        assert_allclose(psi, [0.5, 0.5 * math.exp(-1.0)], rtol=1e-14)
        assert_allclose(m, [1.0, math.exp(-1.0)], rtol=1e-14)

    def test_kill_rate_one_root(self):
        root = constant_drift_root(const_model(q=1.0))
        assert_allclose(root.eta, 1.0 - 1.0 / math.sqrt(2.0), rtol=1e-14)

    def test_kill_rate_one_residual(self):
        # substitute the closed form into the ODE system
        m = const_model(q=1.0)
        root = constant_drift_root(m)
        grid = np.linspace(0.0, 4.0, 17)
        psi, mm = constant_drift_solution(m, grid)
        mu = 2.0
        dm = -(1.0 - root.eta) * mu * mm
        dpsi = root.eta * dm
        _, res = ode_residual(m, grid, psi, mm, dpsi, dm)
        assert np.max(np.abs(res)) < 1e-12

    def test_critical_case_flagged(self):
        root = constant_drift_root(const_model(c=0.5))  # lam = c mu
        assert root.critical
        assert_allclose(root.eta, 1.0)

    def test_certain_ruin_regime(self):
        # lam/(c mu) > 1: the smallest positive root is 1, M and Psi constant
        psi, m = constant_drift_solution(const_model(c=0.25), np.array([0.0, 3.0]))
        assert_allclose(psi, 1.0)
        assert_allclose(m, 1.0)

    def test_rejections(self):
        with pytest.raises(ValueError):
            constant_drift_root(const_model(c=-1.0))
        with pytest.raises(ValueError):
            constant_drift_root(fig1_model())
        with pytest.raises(ValueError):
            constant_drift_root(
                ModelSpec(ConstantDrift(1.0), 1.0, 0.0, erlang(2, 1.0))
            )


class TestSegerdahlQ0:
    def test_reduces_to_constant_drift_form(self):
        m = const_model()
        xs = np.linspace(0.0, 5.0, 21)
        psi, mm = segerdahl_q0_solution(m, xs)
        lam, c, mu = 1.0, 1.0, 2.0
        exact = lam / (c * mu) * np.exp((lam / c - mu) * xs)
        assert_allclose(psi, exact, atol=1e-10)
        assert_allclose(mm[0], 1.0, atol=1e-10)

    def test_divergent_exponent_rejected(self):
        # lam/c >= mu: Z does not tend to -inf
        with pytest.raises(ValueError, match="divergent|decay"):
            segerdahl_q0_solution(const_model(c=0.4), np.array([0.0, 1.0]))

    def test_kill_rate_must_be_zero(self):
        with pytest.raises(ValueError):
            segerdahl_q0_solution(const_model(q=0.5), np.array([0.0]))

    def test_decay_at_infinity(self):
        psi, mm = segerdahl_q0_solution(const_model(), np.array([30.0]))
        assert abs(psi[0]) < 1e-12
        assert abs(mm[0]) < 1e-12

    def test_ode_residual(self):
        m = const_model()
        xs = np.linspace(0.0, 6.0, 25)
        psi, mm, dpsi, dm, _ = _segerdahl_q0_full(m, xs)
        _, res = ode_residual(m, xs, psi, mm, dpsi, dm)
        assert np.max(np.abs(res)) < 1e-8

    def test_general_positive_drift(self):
        # smooth tabulated drift, upward-drifting: decay normalization applies
        xs = np.linspace(0.0, 80.0, 400)
        d = TabulatedDrift(tuple(xs), tuple(1.0 + 0.2 * np.tanh(xs)))
        m = ModelSpec(d, 1.0, 0.0, exponential(2.0))
        grid = np.linspace(0.0, 5.0, 11)
        psi, mm, dpsi, dm, _ = _segerdahl_q0_full(m, grid)
        assert_allclose(mm[0], 1.0, atol=1e-9)
        assert np.all((psi >= 0) & (psi <= 1))
        _, res = ode_residual(m, grid, psi, mm, dpsi, dm)
        assert np.max(np.abs(res)) < 1e-8

    def test_negative_drift_is_not_the_ruin_probability(self):
        # The decay-plus-M(0)=1 normalization remains a valid ODE solution
        # for the relaxing drift with K < 1, but ruin is then certain and
        # the probabilistic solution is the constant pair: the quadrature
        # form instead yields Psi(0) = -1/sqrt(1-K), outside [0, 1].
        K, lam, mu = 0.75, 0.5, 1.5
        m = ModelSpec(SegerdahlDrift(K, lam, 0.0, mu), lam, 0.0, exponential(mu))
        grid = np.linspace(0.0, 4.0, 17)
        psi, mm, dpsi, dm, psi0 = _segerdahl_q0_full(m, grid)
        assert_allclose(psi0, -1.0 / math.sqrt(1.0 - K), rtol=1e-8)
        _, res = ode_residual(m, grid, psi, mm, dpsi, dm)
        assert np.max(np.abs(res)) < 1e-8
        cf_psi, _cf_m = phi_k_closed_form(K, lam, 0.0, mu, grid)
        assert_allclose(cf_psi, 1.0, atol=1e-12)  # certain ruin
        assert not np.allclose(psi, cf_psi, atol=0.1)


class TestSolveBvp:
    def test_constant_drift_matches_closed_form(self):
        m = const_model()
        grid = np.linspace(0.0, 10.0, 101)
        curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
        psi, mm = constant_drift_solution(m, grid)
        assert np.max(np.abs(curve.psi - psi)) < 1e-7
        assert np.max(np.abs(curve.m[:, 0] - mm)) < 1e-7
        assert curve.method == "ode_bvp"
        assert curve.boundary_residual < 1e-8

    def test_constant_drift_with_kill(self):
        m = const_model(q=1.0)
        grid = np.linspace(0.0, 6.0, 61)
        curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
        psi, _ = constant_drift_solution(m, grid)
        assert np.max(np.abs(curve.psi - psi)) < 1e-8

    def test_fig1_matches_closed_form(self):
        m = fig1_model()
        grid = np.linspace(0.0, 5.0, 51)
        curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
        psi, mm = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], grid)
        assert np.max(np.abs(curve.psi - psi)) < 1e-6
        assert np.max(np.abs(curve.m[:, 0] - mm)) < 1e-6

    def test_monotone_psi_one_sided(self):
        m = const_model()
        grid = np.linspace(0.0, 8.0, 33)
        curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
        assert np.all(np.diff(curve.psi) <= 0)

    def test_two_sided_complementarity_at_zero_kill(self):
        # With no killing, exactly one of {ruin below, exit above} happens.
        m = const_model()
        problem_up = PassageProblem(lower=0.0, upper=2.0, estimand="exit_above")
        problem_dn = PassageProblem(lower=0.0, upper=2.0, estimand="ruin_below")
        grid = np.linspace(0.0, 2.0, 41)
        up = solve_bvp(m, problem_up, grid)
        dn = solve_bvp(m, problem_dn, grid)
        assert np.max(np.abs(up.psi + dn.psi - 1.0)) < 1e-8
        assert abs(up.psi[-1] - 1.0) < 1e-8  # Psi(L) = 1
        assert abs(up.m[0, 0]) < 1e-8  # M(l) = 0
        assert abs(dn.psi[-1]) < 1e-8  # Psi(L) = 0
        assert abs(dn.m[0, 0] - 1.0) < 1e-8  # M(l) = 1
        assert np.all((up.psi >= -1e-10) & (up.psi <= 1 + 1e-10))

    def test_exit_above_positive_relaxing_drift(self):
        # Positive drift below the equilibrium: both boundaries reachable.
        mu = 1.5
        d = SegerdahlDrift(math.exp(2.0 * mu), 0.5, 0.5, mu)  # root at x = 1
        m = ModelSpec(d, 0.5, 0.5, exponential(mu))
        grid = np.linspace(0.0, 0.8, 33)
        curve = solve_bvp(m, PassageProblem(0.0, 0.8, "exit_above"), grid)
        assert abs(curve.psi[-1] - 1.0) < 1e-8
        assert abs(curve.m[0, 0]) < 1e-8
        assert np.all(np.diff(curve.psi) > 0)
        assert np.all((curve.psi >= 0) & (curve.psi <= 1 + 1e-12))

    def test_exit_above_negative_drift_impossible(self):
        m = fig1_model()
        grid = np.linspace(0.0, 2.0, 11)
        with pytest.raises(ValueError, match="impossible"):
            solve_bvp(m, PassageProblem(0.0, 2.0, "exit_above"), grid)

    @pytest.mark.parametrize("estimand", ["exit_above", "ruin_below"])
    @pytest.mark.parametrize("q", [0.0, 0.3])
    @pytest.mark.parametrize("jumps", [exponential(2.0), erlang(2, 2.0)], ids=["exp", "erlang2"])
    def test_two_sided_matches_matrix_exponential(self, jumps, q, estimand):
        # Constant drift makes A constant, so Y(x) = expm(A (x - l)) Y(l);
        # the one free component of Y(l) is fixed by the condition at L.
        m = ModelSpec(ConstantDrift(1.0), 1.0, q, jumps)
        l, L = 0.0, 2.0
        grid = np.linspace(l, L, 41)
        curve = solve_bvp(m, PassageProblem(l, L, estimand), grid)
        A = assemble_system(m)(l)
        dim = A.shape[0]
        e0 = np.eye(dim)[0]
        fixed = np.zeros(dim) if estimand == "exit_above" else np.r_[0.0, np.ones(dim - 1)]
        target = 1.0 if estimand == "exit_above" else 0.0  # Psi(L)
        E = expm(A * (L - l))
        Yl = fixed + (target - (E @ fixed)[0]) / (E @ e0)[0] * e0
        Y = np.array([expm(A * (x - l)) @ Yl for x in grid])
        assert_allclose(curve.psi, Y[:, 0], rtol=0, atol=1e-9)
        assert_allclose(curve.m, Y[:, 1:], rtol=0, atol=1e-9)

    def test_erlang_jumps_general_dimension(self):
        # n = 2 one-sided problem with positive drift; sanity via bounds,
        # boundary conditions, and the finite-difference residual.
        pt = erlang(2, 2.0)
        m = ModelSpec(ConstantDrift(1.5), 1.0, 0.2, pt)
        grid = np.linspace(0.0, 6.0, 601)
        curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
        assert_allclose(curve.m[0], 1.0, atol=1e-8)
        assert np.all(curve.psi <= 1.0 + 1e-10)
        assert np.all(curve.psi >= -1e-10)
        assert np.all(np.diff(curve.psi) <= 1e-12)
        _, res = ode_residual(m, grid, curve.psi, curve.m)
        assert np.max(np.abs(res)) < 1e-6

    def test_positive_drift_goes_through_the_collocation_name(self, monkeypatch):
        # The collocation call is looked up by its module-level name at call
        # time, so a wrapper installed there sees every multi-phase solve.
        calls = []
        solver = passage_model._collocation

        def counted(*args, **kwargs):
            calls.append(kwargs["tol"])
            return solver(*args, **kwargs)

        monkeypatch.setattr(passage_model, "_collocation", counted)
        m = ModelSpec(ConstantDrift(1.0), 1.0, 0.5, erlang(3, 3.0))
        curve = solve_bvp(m, PassageProblem(lower=0.0), np.linspace(0.0, 5.0, 51))
        assert len(calls) == 2  # the solve and its looser error-estimate rerun
        assert curve.method == "ode_bvp"

    def test_grid_and_interval_errors(self):
        m = const_model()
        with pytest.raises(ValueError):
            solve_bvp(m, PassageProblem(lower=0.0), np.array([0.0]))
        with pytest.raises(ValueError):
            solve_bvp(m, PassageProblem(lower=0.0), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            solve_bvp(m, PassageProblem(lower=0.0, upper=2.0), np.linspace(0, 3, 5))

    def test_error_estimate_present(self):
        m = const_model()
        grid = np.linspace(0.0, 5.0, 21)
        curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
        assert curve.error_estimate is not None
        assert np.max(curve.error_estimate) < 1e-7


class TestSolutionCurve:
    def test_csv_format(self, tmp_path):
        curve = SolutionCurve(
            np.array([0.0, 0.5]), np.array([1.0, 1 / 3]), np.array([[1.0], [2 / 3]]),
            "closed_form",
        )
        path = tmp_path / "c.csv"
        curve.to_csv(path)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "x,psi,m_1,method"
        assert lines[1] == "0,1,1,closed_form"
        assert lines[2] == "0.5,0.33333333333333331,0.66666666666666663,closed_form"
        assert "\r" not in text

    def test_to_dict(self):
        curve = SolutionCurve(np.array([0.0]), np.array([1.0]), np.array([1.0]), "x")
        d = curve.to_dict()
        assert d["method"] == "x"
        assert d["m"] == [[1.0]]
