import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from pdmpruin import passage_model
from pdmpruin.lie_algebra import build_generators
from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    NumericalError,
    PassageProblem,
    SegerdahlDrift,
    SolutionCurve,
    TabulatedDrift,
    assemble_system,
    constant_drift_root,
    constant_drift_solution,
    ode_residual,
    phi_checked,
    segerdahl_q0_solution,
    solve_bvp,
    _segerdahl_q0_full,
)
from pdmpruin.mc_sim import SimConfig, _lundberg_level, estimate
from pdmpruin.phase_type import PhaseType, coxian, erlang, exponential
from pdmpruin.riccati import phi_k_closed_form
from pdmpruin.serialization import RunConfig, config_to_dict, parse_config

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)


def round_trip(model: ModelSpec) -> ModelSpec:
    """The model of a config written out and read back."""
    return parse_config(config_to_dict(RunConfig(model=model))).model


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


def counted_collocation(monkeypatch):
    """Install a counting wrapper at the collocation name; returns its call list."""
    calls = []
    solver = passage_model._collocation

    def counted(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)

    monkeypatch.setattr(passage_model, "_collocation", counted)
    return calls


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

    def test_tabulated_travel_time_to_a_level_outside_the_sign_domain(self):
        d = TabulatedDrift((0.0, 1.0, 2.0), (-1.0, -1.1, -1.2), sign_domain=(0.5, 2.0))
        for level in (0.0, 2.5):
            t = d.travel_time(np.array([1.0, 1.5, 2.0]), level)
            assert t.shape == (3,) and np.all(t == math.inf)

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

    @staticmethod
    def random_table(n, seed):
        """A non-uniform table whose cubic spline stays positive; its knots,
        interval midpoints and both ends as probe points."""
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(0.05, 1.0, n))
        vs = rng.uniform(5.0, 6.0, n)
        points = np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:]), [xs[0], xs[-1]]])
        return xs, vs, points

    @pytest.mark.parametrize("n", [2, 3, 4, 400])
    def test_cubic_matches_scipy_not_a_knot_spline(self, n):
        # Two knots give the line and three the parabola, as in scipy.
        xs, vs, points = self.random_table(n, seed=n)
        d = TabulatedDrift(tuple(xs), tuple(vs))
        reference = CubicSpline(xs, vs)
        for ours, theirs in ((d.phi(points), reference(points)),
                             (d.dphi(points), reference(points, 1))):
            assert np.abs(ours - theirs).max() <= 1e-14 * np.abs(theirs).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 400])
    def test_linear_matches_numpy_interp(self, n):
        xs, vs, points = self.random_table(n, seed=100 + n)
        d = TabulatedDrift(tuple(xs), tuple(vs), "linear")
        want = np.interp(points, xs, vs)
        assert np.all(np.abs(d.phi(points) - want) <= np.spacing(want))
        # The derivative is the right-hand secant at a knot, the last one at the end.
        secant = np.diff(vs) / np.diff(xs)
        assert_array_equal(d.dphi(xs), np.append(secant, secant[-1]))
        assert_array_equal(d.dphi(0.5 * (xs[:-1] + xs[1:])), secant)

    @pytest.mark.parametrize("rule", ["cubic", "linear"])
    def test_scalar_input_gives_float(self, rule):
        xs, vs, _ = self.random_table(5, seed=1)
        d = TabulatedDrift(tuple(xs), tuple(vs), rule)
        for x in (xs[0], float(xs[2]), 0.5 * (xs[0] + xs[1]), xs[-1]):
            assert type(d.phi(x)) is float and type(d.dphi(x)) is float
            assert d.phi(x) == d.phi(np.array([x]))[0]
            assert d.dphi(x) == d.dphi(np.array([x]))[0]

    def test_clock_rule_is_numpys_gauss_legendre_rule(self):
        # Written out so that no step imports numpy.polynomial; tabulated
        # outputs stay byte for byte what leggauss(10) gave them.
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert_array_equal(passage_model._GL_NODES, nodes)
        assert_array_equal(passage_model._GL_WEIGHTS, weights)

    def test_drift_serialization_round_trip(self):
        for d in (ConstantDrift(1.5), SegerdahlDrift(**FIG1),
                  TabulatedDrift((0.0, 1.0), (1.0, 2.0), "linear")):
            again = round_trip(ModelSpec(d, 1.0, 0.0, exponential(1.0))).drift
            assert type(again) is type(d)
            assert_allclose(again.phi(0.5), d.phi(0.5))

    def test_unknown_drift_fields_rejected(self):
        d = config_to_dict(RunConfig(model=ModelSpec(ConstantDrift(1.0), 1.0, 0.0, exponential(1.0))))
        d["model"]["drift"]["bogus"] = 2
        with pytest.raises(ValueError, match="unknown"):
            parse_config(d)


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
        again = round_trip(m)
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

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mu", [1.0, 2.0])
    def test_root_matches_high_precision(self, lam, q, mu):
        # Both roots of c mu eta^2 - (c mu + lam + q) eta + lam = 0 to the
        # last bit or so, also where the quadratic is badly scaled.
        import mpmath

        for c in [0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 10.0, 1e3, 1e6, 1e10, 1e16]:
            root = constant_drift_root(const_model(c=c, lam=lam, q=q, mu=mu))
            with mpmath.workdps(60):
                a, b = mpmath.mpf(c) * mu, mpmath.mpf(c) * mu + lam + q
                disc = mpmath.sqrt(b * b - 4 * a * lam)
                lo, hi = min((b - disc) / (2 * a), 1), (b + disc) / (2 * a)
                assert abs(root.eta - lo) <= 2e-16 * lo, c
                assert abs(root.eta_other - hi) <= 4e-16 * hi, c

    @pytest.mark.parametrize("c, lam, mu", [(1.0, 1.3, 1.0), (0.3, 0.7, 1.1), (1e-3, 2.9, 7.0)])
    def test_certain_ruin_root_is_one_to_the_bit(self, c, lam, mu):
        # Summed as c mu + lam + |c mu - lam|, the first case's D rounds
        # below 2 lam and its root would read 1 + 2^-52.
        root = constant_drift_root(const_model(c=c, lam=lam, mu=mu))
        assert root.eta == 1.0
        assert_allclose(root.eta_other, lam / (c * mu), rtol=1e-15)

    @pytest.mark.parametrize("c", [1.0, 1e16, 1e160])
    def test_zero_kill_root_is_lam_over_c_mu(self, c):
        # Exactly, also where c = 1e16 once divided by zero and where
        # (c mu)^2 overflows (1e160).
        root = constant_drift_root(const_model(c=c))
        assert root.eta == 1.0 / (2.0 * c)
        assert not root.critical

    def test_root_past_the_float_range_is_refused(self):
        # c mu + lam + q + S overflows: the gate falls through to the next form.
        with pytest.raises(ValueError, match="within the float range"):
            constant_drift_root(const_model(c=1e308))

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

    def test_narrow_dip_past_the_grid_end_is_resolved(self):
        # phi = 0.4 < lam E[C] on [5.2, 5.8], past the grid: Z' > 0 there, and
        # a backward integration that steps over the dip gives psi(0) = 0.5.
        # The literals are the forward quadrature this form replaced.
        dip = TabulatedDrift((0, 5, 5.2, 5.8, 6, 400), (1, 1, 0.4, 0.4, 1, 1), "linear")
        psi, mm = segerdahl_q0_solution(ModelSpec(dip, 1.0, 0.0, exponential(2.0)),
                                        np.linspace(0.0, 5.0, 6))
        assert_allclose(psi, [0.5039445942867, 0.1903777740172, 0.0750229874065,
                              0.03258633297171, 0.01697476025304, 0.01123158360564], rtol=1e-8)
        assert_allclose(mm, [1.0, 0.3728663594611, 0.1421567862398, 0.05728347737021,
                             0.02606033193289, 0.0145739786379], rtol=1e-8)

    def test_fast_constant_drift_keeps_its_relative_accuracy(self):
        # psi(0) = lam E[C]/c: the forward quadrature gave 5.00097e-10 here.
        psi, _ = segerdahl_q0_solution(const_model(c=1e9), np.array([0.0, 1.0]))
        assert_allclose(psi, 5e-10 * np.exp([0.0, -(2.0 - 1e-9)]), rtol=1e-9)

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
        # Negative drift with downward jumps never moves up: Psi = M = 0.
        m = fig1_model()
        problem = PassageProblem(0.0, 2.0, "exit_above")
        curve = solve_bvp(m, problem, np.linspace(0.0, 2.0, 11))
        assert np.all(curve.psi == 0.0) and np.all(curve.m == 0.0)
        assert curve.boundary_residual == 0.0 and np.all(curve.error_estimate == 0.0)
        est = estimate(SimConfig(m, problem, 1.0, 2000, 3))
        assert est.mean == 0.0 and est.std_error == 0.0 and est.n_ruined == 2000

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
        # time, so a wrapper installed there sees every collocation solve.
        calls = counted_collocation(monkeypatch)
        drift = TabulatedDrift((0.0, 100.0), (1.0, 1.5), "linear")
        m = ModelSpec(drift, 1.0, 0.5, erlang(3, 3.0))
        curve = solve_bvp(m, PassageProblem(lower=0.0), np.linspace(0.0, 5.0, 51))
        assert len(calls) == 2  # the solve and its looser error-estimate rerun
        assert curve.method == "ode_bvp"

    @pytest.mark.parametrize(
        "profile", [lambda x: 1.2 + 0.5 * np.sin(x), lambda x: 1.0 + 0.01 * x], ids=["sin", "linear"]
    )
    def test_one_sided_table_matches_the_zero_kill_closed_form(self, profile):
        # The two-point solve, truncated at X_max, against the quadrature
        # closed form on the same cubic table: an independent oracle.
        xs = np.linspace(0.0, 80.0, 321)
        m = ModelSpec(TabulatedDrift(tuple(xs), tuple(profile(xs))), 0.5, 0.0, exponential(2.0))
        grid = np.linspace(0.0, 10.0, 41)
        curve = solve_bvp(m, PassageProblem(0.0), grid)
        psi, mm = segerdahl_q0_solution(m, grid)
        assert_allclose(curve.psi, psi, rtol=0, atol=1e-9)
        assert_allclose(curve.m[:, 0], mm, rtol=0, atol=1e-9)

    def test_stiff_two_sided_table_keeps_its_values(self):
        # int (lam + q)/phi over [0, 50] is ~1200, so the adjoint solution
        # overflows a double; the ratios it is solved in stay finite.  The
        # literals are scipy's collocation solve_bvp on the same problem.
        drift = TabulatedDrift((0.0, 60.0), (0.05, 0.08), "linear")
        m = ModelSpec(drift, 1.0, 0.5, erlang(3, 3.0))
        grid = np.linspace(0.0, 50.0, 11)
        curve = solve_bvp(m, PassageProblem(0.0, 50.0), grid)
        want = [0.6664991175450974, 0.10824563015143636, 0.015286339161000025,
                0.002152491369084988, 0.0003022188850701305, 4.2309849081314736e-05,
                5.906068580699166e-06, 8.220345271773721e-07, 1.1408108111647998e-07,
                1.5785800907838553e-08, 0.0]
        assert_allclose(curve.psi, want, rtol=0, atol=1e-8)

    def test_truncation_row_is_the_non_decaying_left_eigenvector(self):
        # positive drift with Erlang-3 jumps: three decaying modes, one growing
        A = assemble_system(ModelSpec(ConstantDrift(1.0), 1.0, 0.5, erlang(3, 3.0)))(0.0)
        w = passage_model._nonstable_left_row(A)
        s = np.linalg.eigvals(A).real.max()
        assert s > 0 and w.shape == (4,) and w.flags.c_contiguous
        assert_allclose(w @ A, s * w, rtol=0, atol=1e-12 * np.linalg.norm(A))

    @pytest.mark.parametrize(
        "A",
        [np.diag([-1.0, -2.0, -3.0]), np.diag([1.0, 2.0, -3.0]),
         np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])],
        ids=["none", "two-real", "conjugate-pair"],
    )
    def test_truncation_row_needs_exactly_one_non_decaying_mode(self, A):
        with pytest.raises(NumericalError, match="truncation certificate failure at X_max"):
            passage_model._nonstable_left_row(A)

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


MULTI_PHASE_LAWS = {
    "erlang3": erlang(3, 3.0),
    "coxian3": coxian([3.0, 2.0, 1.0], [0.7, 0.5]),
    "hyperexp": PhaseType(np.array([0.3, 0.7]), np.diag([-0.5, -4.0])),
}


def high_precision_solution(A, t, digits=40):
    """Y(t) = Re(V_s e^{Lambda_s t} c) with V_s[1:] c = 1, in ``digits`` digits."""
    import mpmath

    with mpmath.workdps(digits):
        w, V = mpmath.eig(mpmath.matrix(A.tolist()))
        stable = [i for i in range(len(w)) if mpmath.re(w[i]) < -mpmath.mpf(10) ** (-digits // 2)]
        dim = A.shape[0]
        Vs = mpmath.matrix([[V[r, i] for i in stable] for r in range(dim)])
        c = mpmath.lu_solve(Vs[1:, :], mpmath.matrix([1] * (dim - 1)))
        return np.array([
            [float(mpmath.re(sum(Vs[r, j] * c[j] * mpmath.exp(w[i] * mpmath.mpf(float(x)))
                                 for j, i in enumerate(stable))))
             for x in t]
            for r in range(dim)
        ])


def ladder_reference(model, t, digits=50):
    """(Psi, M) of the ladder-height form in ``digits`` digits, from the
    model's parameters: Phi by bisection, then beta_q, G and e^{G t}."""
    import mpmath

    with mpmath.workdps(digits):
        jumps = model.jumps
        n = jumps.n
        B = mpmath.matrix(jumps.B.tolist())
        beta = mpmath.matrix([jumps.beta.tolist()])
        one = mpmath.matrix([[1]] * n)
        c, lam, q = (mpmath.mpf(v) for v in (model.drift.c, model.jump_rate, model.kill_rate))

        def excess(theta):  # kappa(theta) - q, with b = -B 1
            return theta * (c - lam * (beta * mpmath.lu_solve(theta * mpmath.eye(n) - B, one))[0]) - q

        lo, hi = mpmath.mpf(0), 2 * (lam + q) / c
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
        beta_q = (lam / c) * beta * mpmath.inverse(lo * mpmath.eye(n) - B)
        G = B - (B * one) * beta_q
        cols = [mpmath.expm(G * mpmath.mpf(float(x))) * one for x in t]
        return np.array([[float((beta_q * M)[0]) for M in cols]]
                        + [[float(M[i]) for M in cols] for i in range(n)])


class TestConstantDriftEigenSolution:
    """One-sided constant drift: the exact solution from the ladder-height law."""

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("law", sorted(MULTI_PHASE_LAWS))
    def test_matches_collocation_on_a_constant_table(self, monkeypatch, law, q):
        # A linear table with one value everywhere poses the same ODE, but a
        # tabulated drift takes the collocation route: an independent oracle.
        jumps = MULTI_PHASE_LAWS[law]
        grid = np.linspace(0.0, 5.0, 51)
        calls = counted_collocation(monkeypatch)
        exact = solve_bvp(ModelSpec(ConstantDrift(1.0), 0.5, q, jumps), PassageProblem(0.0), grid)
        assert calls == []
        table = TabulatedDrift((0.0, 300.0), (1.0, 1.0), "linear")
        colloc = solve_bvp(ModelSpec(table, 0.5, q, jumps), PassageProblem(0.0), grid)
        assert len(calls) == 2
        assert exact.method == colloc.method == "ode_bvp"
        assert_allclose(exact.psi, colloc.psi, rtol=0, atol=1e-9)
        assert_allclose(exact.m, colloc.m, rtol=0, atol=1e-9)
        assert abs(exact.m[0] - 1.0).max() <= exact.boundary_residual + 1e-15

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("law", ["erlang3", "coxian3"])
    def test_error_estimate_bounds_the_true_error(self, law, q):
        m = ModelSpec(ConstantDrift(1.0), 0.5, q, MULTI_PHASE_LAWS[law])
        grid = np.linspace(0.0, 5.0, 26)
        curve = solve_bvp(m, PassageProblem(0.0), grid)
        want = high_precision_solution(assemble_system(m)(0.0), grid)
        err = np.abs(np.vstack([curve.psi, curve.m.T]) - want).max(axis=0)
        assert np.all(err <= curve.error_estimate)
        assert curve.error_estimate.max() <= 1e-12

    def test_finite_difference_residual(self):
        m = ModelSpec(ConstantDrift(1.0), 0.5, 0.5, MULTI_PHASE_LAWS["erlang3"])
        grid = np.linspace(0.0, 5.0, 501)
        curve = solve_bvp(m, PassageProblem(0.0), grid)
        _, res = ode_residual(m, grid, curve.psi, curve.m)
        assert np.max(np.abs(res)) < 1e-8

    @pytest.mark.parametrize(
        "c, lam, q, mu", [(1.0, 1.0, 0.0, 2.0), (1.0, 1.0, 1.0, 2.0), (1.5, 0.5, 0.3, 1.0),
                          (0.5, 1.0, 0.0, 2.0), (0.4, 1.0, 0.0, 2.0)],
    )
    def test_one_phase_matches_closed_form(self, c, lam, q, mu):
        m = ModelSpec(ConstantDrift(c), lam, q, exponential(mu))
        grid = np.linspace(0.0, 5.0, 51)
        curve = solve_bvp(m, PassageProblem(0.0), grid)
        psi, mm = constant_drift_solution(m, grid)
        assert_allclose(curve.psi, psi, rtol=0, atol=1e-14)
        assert_allclose(curve.m[:, 0], mm, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("c", [1.0, 0.8], ids=["critical", "below"])
    def test_zero_kill_without_net_profit_is_certain_ruin(self, c):
        # Erlang-3 with mean 1 and lam = 1: c = lam E[C] is the critical case,
        # where the zero eigenvalue is defective.
        m = ModelSpec(ConstantDrift(c), 1.0, 0.0, erlang(3, 3.0))
        curve = solve_bvp(m, PassageProblem(0.0), np.linspace(0.0, 5.0, 21))
        assert np.all(curve.psi == 1.0) and np.all(curve.m == 1.0)
        assert curve.boundary_residual == 0.0 and np.all(curve.error_estimate == 0.0)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("jumps", [exponential(1.0), erlang(3, 3.0)], ids=["exp", "erlang3"])
    def test_positive_drift_with_upward_jumps_is_never_ruined(self, jumps, q):
        # The process never moves down: Psi = M = 0, which solves the system.
        # The eigen solution used to find no decaying mode and raise.
        m = ModelSpec(ConstantDrift(1.0), 0.5, q, jumps, "upward")
        grid = np.linspace(0.0, 5.0, 21)
        curve = solve_bvp(m, PassageProblem(0.0), grid)
        assert np.all(curve.psi == 0.0) and np.all(curve.m == 0.0)
        assert curve.boundary_residual == 0.0 and np.all(curve.error_estimate == 0.0)
        _, res = ode_residual(m, grid, curve.psi, curve.m, 0.0 * curve.psi, 0.0 * curve.m)
        assert np.all(res == 0.0)

    @pytest.mark.parametrize("c", [0.8, 1.0, 1.2])
    def test_lundberg_level_uses_the_same_net_profit_test(self, c):
        m = ModelSpec(ConstantDrift(c), 1.0, 0.0, erlang(3, 3.0))
        problem = PassageProblem(0.0)
        certain = np.all(solve_bvp(m, problem, np.linspace(0.0, 2.0, 5)).psi == 1.0)
        assert certain == math.isinf(_lundberg_level(m, problem))

    @pytest.mark.parametrize("ratio", [1.0001, 1.001, 1.003])
    @pytest.mark.parametrize("law", sorted(MULTI_PHASE_LAWS))
    def test_near_critical_zero_kill_gives_the_exact_ruin_level(self, law, ratio):
        # psi(l) = lam E[C] / c: the two-point solve refused these, or took
        # 10 s and more, or missed this value by more than 1e-13.
        jumps = MULTI_PHASE_LAWS[law]
        load = 0.5 * jumps.mean()
        m = ModelSpec(ConstantDrift(ratio * load), 0.5, 0.0, jumps)
        t0 = time.perf_counter()
        curve = solve_bvp(m, PassageProblem(0.0), np.linspace(0.0, 10.0, 101))
        assert time.perf_counter() - t0 < 1.0
        assert abs(curve.psi[0] - load / (ratio * load)) <= 1e-13
        assert np.all(curve.m[0] == 1.0)

    @pytest.mark.parametrize(
        "law, ratio, q",
        [(law, ratio, q) for law in ("coxian3", "erlang3") for ratio in (1.0001, 0.999)
         for q in (1e-8, 1e-6)] + [("hyperexp", 1.0001, 1e-8), ("hyperexp", 0.999, 1e-8)],
    )
    def test_killed_near_critical_error_estimate_bounds_the_true_error(self, law, ratio, q):
        # The two-point solve ran past 40 s on these, or missed by more than
        # its error estimate.
        jumps = MULTI_PHASE_LAWS[law]
        m = ModelSpec(ConstantDrift(ratio * 0.5 * jumps.mean()), 0.5, q, jumps)
        grid = np.linspace(0.0, 10.0, 11)
        t0 = time.perf_counter()
        curve = solve_bvp(m, PassageProblem(0.0), grid)
        assert time.perf_counter() - t0 < 1.0
        want = ladder_reference(m, grid)
        err = np.abs(np.vstack([curve.psi, curve.m.T]) - want).max(axis=0)
        assert np.all(err <= curve.error_estimate)
        assert curve.error_estimate.max() <= 1e-8

    def test_grid_a_hair_below_the_lower_level_is_read_as_it(self):
        # solve_bvp accepts a grid from l - 1e-12; phase_type.tail refuses x < 0.
        m = ModelSpec(ConstantDrift(1.0), 0.5, 0.5, erlang(3, 3.0))
        curve = solve_bvp(m, PassageProblem(0.0), np.linspace(-1e-13, 5.0, 11))
        assert_allclose(curve.m[0], 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("jumps", [exponential(1.0), erlang(3, 3.0)], ids=["exp", "erlang3"])
    def test_negative_drift_with_upward_jumps_is_rejected(self, jumps):
        # The dual risk model: reflected onto downward jumps, it has no finite
        # lower level.
        m = ModelSpec(ConstantDrift(-1.0), 0.5, 0.5, jumps, "upward")
        with pytest.raises(NumericalError, match="upward jumps"):
            solve_bvp(m, PassageProblem(0.0), np.linspace(0.0, 5.0, 11))


UPWARD_DRIFTS = {
    "c=+1": (ConstantDrift(1.0), 0.0, 3.0),
    "c=-1": (ConstantDrift(-1.0), 0.0, 3.0),
    "K=4": (SegerdahlDrift(4.0, 0.5, 0.5, 1.5), -2.0, 0.4),  # positive below its root 0.46
    "K=0.75": (SegerdahlDrift(**FIG1), 0.0, 3.0),  # negative above its root -0.10
}


class TestUpwardJumps:
    """Upward jumps are solved as the reflection y = -x of downward ones."""

    @pytest.mark.parametrize("estimand", ["ruin_below", "exit_above"])
    @pytest.mark.parametrize("jumps", ["exp", "erlang3", "coxian3"])
    @pytest.mark.parametrize("drift", list(UPWARD_DRIFTS))
    def test_two_sided_agrees_with_monte_carlo(self, drift, jumps, estimand):
        d, l, L = UPWARD_DRIFTS[drift]
        law = exponential(1.0) if jumps == "exp" else MULTI_PHASE_LAWS[jumps]
        m = ModelSpec(d, 0.5, 0.5, law, "upward")
        problem = PassageProblem(l, L, estimand)
        grid = np.linspace(l, L, 7)
        curve = solve_bvp(m, problem, grid)
        Y = np.column_stack([curve.psi, curve.m])
        assert np.all((Y >= -1e-10) & (Y <= 1.0 + 1e-10))
        est = estimate(SimConfig(m, problem, float(grid[3]), 4000, 5))
        assert abs(curve.psi[3] - est.mean) <= 3.0 * est.std_error

    @pytest.mark.parametrize("estimand", ["ruin_below", "exit_above"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_is_the_mirrored_downward_solve(self, sign, estimand):
        x = np.linspace(0.0, 3.0, 7)
        v = sign * (1.0 + 0.3 * x)
        up = ModelSpec(TabulatedDrift(tuple(x), tuple(v), "linear"), 0.5, 0.5, erlang(3, 3.0), "upward")
        down = ModelSpec(
            TabulatedDrift(tuple(-x[::-1]), tuple(-v[::-1]), "linear"), 0.5, 0.5, erlang(3, 3.0)
        )
        mirrored = {"ruin_below": "exit_above", "exit_above": "ruin_below"}[estimand]
        grid = np.linspace(0.0, 3.0, 13)
        a = solve_bvp(up, PassageProblem(0.0, 3.0, estimand), grid)
        b = solve_bvp(down, PassageProblem(-3.0, 0.0, mirrored), -grid[::-1])
        assert_allclose(a.psi, b.psi[::-1], rtol=0, atol=1e-12)
        assert_allclose(a.m, b.m[::-1], rtol=0, atol=1e-12)
        assert_allclose(a.error_estimate, b.error_estimate[::-1], rtol=0, atol=1e-12)


# How solve_bvp answers constant drift c against Erlang-3 jumps (mean 1) at
# jump rate 0.5, by jump direction and problem, for c = 1, -1 and 0.4 (0.4 at
# zero kill only, where it has no net profit: c <= lam E[C] = 0.5).  "zero"
# and "one" are Psi = M = 0 and 1, "dual" the refused dual risk model.
ROUTE_TABLE = {
    ("downward", "one-sided"): ("ladder", "initial_value", "one"),
    ("downward", "ruin on [0, 3]"): ("two_point", "initial_value", "two_point"),
    ("downward", "exit on [0, 3]"): ("two_point", "zero", "two_point"),
    ("upward", "one-sided"): ("zero", "dual", "zero"),
    ("upward", "ruin on [0, 3]"): ("zero", "two_point", "zero"),
    ("upward", "exit on [0, 3]"): ("initial_value", "two_point", "initial_value"),
}
ROUTE_PROBLEMS = {
    "one-sided": PassageProblem(0.0),
    "ruin on [0, 3]": PassageProblem(0.0, 3.0),
    "exit on [0, 3]": PassageProblem(0.0, 3.0, "exit_above"),
}
ROUTE_CASES = [
    (direction, problem, c, q, expected)
    for (direction, problem), classes in ROUTE_TABLE.items()
    for c, expected in zip((1.0, -1.0, 0.4), classes)
    for q in ((0.0, 0.5) if c != 0.4 else (0.0,))
]


class TestRouteTable:
    """The branch solve_bvp takes, and where Monte Carlo has a Lundberg level."""

    @pytest.mark.parametrize(
        "direction, problem, c, q, expected", ROUTE_CASES,
        ids=[f"{d}-{p}-c={c:g}-q={q:g}" for d, p, c, q, _ in ROUTE_CASES],
    )
    def test_answer_class(self, monkeypatch, direction, problem, c, q, expected):
        calls = {"_ladder_solution": 0, "_integrate_columns": 0, "_collocation": 0}
        for name in calls:
            def counted(*args, _name=name, _solver=getattr(passage_model, name)):
                calls[_name] += 1
                return _solver(*args)

            monkeypatch.setattr(passage_model, name, counted)
        m = ModelSpec(ConstantDrift(c), 0.5, q, erlang(3, 3.0), direction)
        posed = ROUTE_PROBLEMS[problem]
        grid = np.linspace(0.0, 3.0, 7)
        if expected == "dual":
            with pytest.raises(NumericalError, match="dual risk model"):
                solve_bvp(m, posed, grid)
            got = "dual"
        else:
            curve = solve_bvp(m, posed, grid)
            Y = np.column_stack([curve.psi, curve.m])
            got = {
                (1, 0, 0): "ladder", (0, 2, 0): "initial_value", (0, 0, 2): "two_point",
            }.get(tuple(calls.values()))
            if not any(calls.values()):
                got = "zero" if np.all(Y == 0.0) else "one" if np.all(Y == 1.0) else None
        assert got == expected
        assert math.isfinite(_lundberg_level(m, posed)) == (expected == "ladder")


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
