import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    SegerdahlDrift,
    TabulatedDrift,
    constant_drift_root,
    constant_drift_solution,
    ode_residual,
)
from pdmpruin.phase_type import erlang, exponential
from pdmpruin.riccati import (
    RiccatiBlowUpError,
    allen_stein_test,
    asymptotic_rate,
    canonical_form,
    chebyshev_grid,
    dxbar_dx,
    k1_constant,
    phi_k_closed_form,
    phi_k_closed_form_with_derivatives,
    phi_k_drift,
    phi_k_eta,
    reconstruct_solution,
    riccati_numeric,
    to_riccati,
    xbar,
)

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)


def fig1_model():
    return ModelSpec(
        SegerdahlDrift(**FIG1), FIG1["lam"], FIG1["q"], exponential(FIG1["mu"])
    )


def const_model(c=1.0, lam=1.0, q=0.0, mu=2.0):
    return ModelSpec(ConstantDrift(c), lam, q, exponential(mu))


class TestToRiccati:
    def test_constant_coefficients(self):
        c, lam, q, mu = 2.0, 1.0, 0.5, 2.0
        coeffs = to_riccati(const_model(c=c, lam=lam, q=q, mu=mu))
        assert_allclose(coeffs.b0(1.0), -lam / c)
        assert_allclose(coeffs.b1(1.0), mu + (lam + q) / c)
        assert_allclose(coeffs.b2(1.0), -mu)
        assert coeffs.db0(1.0) == 0.0

    def test_relaxing_drift_b0(self):
        coeffs = to_riccati(fig1_model())
        K, lam, q, mu = FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"]
        for x in (0.0, 0.7, 2.0):
            expected = -lam * mu / ((lam + q) * (K * math.exp(-2 * mu * x) - 1.0))
            assert_allclose(coeffs.b0(x), expected, rtol=1e-14)

    def test_b2_always_minus_mu(self):
        xs = np.linspace(0.0, 5.0, 7)
        assert_allclose(to_riccati(fig1_model()).b2(xs), -FIG1["mu"])

    def test_matrix_case_rejected(self):
        with pytest.raises(ValueError, match="matrix Riccati"):
            to_riccati(ModelSpec(ConstantDrift(1.0), 1.0, 0.0, erlang(2, 1.0)))

    def test_upward_rejected(self):
        m = ModelSpec(ConstantDrift(1.0), 1.0, 0.0, exponential(2.0), "upward")
        with pytest.raises(ValueError):
            to_riccati(m)


class TestCanonicalForm:
    def test_zero_kill_u_vanishes(self):
        cf = canonical_form(to_riccati(const_model()))
        assert cf.q_zero
        assert_allclose(cf.u(np.linspace(0, 3, 5)), 0.0, atol=1e-15)

    def test_constant_z(self):
        c, lam, q, mu = 1.0, 1.0, 0.5, 2.0
        cf = canonical_form(to_riccati(const_model(q=q)))
        assert_allclose(cf.z(2.0), (lam + q) / c - mu)

    def test_relaxing_u_pointwise(self):
        m = fig1_model()
        cf = canonical_form(to_riccati(m))
        q, mu = FIG1["q"], FIG1["mu"]
        for x in (0.1, 1.0, 3.0):
            # u = q mu (z + mu)/(lam+q) collapses to q mu / phi
            assert_allclose(cf.u(x), q * mu / m.drift.phi(x), rtol=1e-13)


class TestAllenSteinGate:
    def test_relaxing_family_passes_with_zero_c1(self):
        res = allen_stein_test(to_riccati(fig1_model()), chebyshev_grid(0.0, 5.0))
        assert res.integrable
        assert abs(res.params.c1) < 1e-12
        assert res.t_spread < 1e-12

    def test_parameters_of_relaxing_family(self):
        res = allen_stein_test(to_riccati(fig1_model()), chebyshev_grid(0.0, 5.0))
        p = res.params
        assert p.c0 == 1.0
        assert p.c2 == -1.0  # b0 b2 = lam mu / phi < 0 here
        assert p.kappa == 1.0  # b0 = -lam/phi > 0 for negative drift
        m = fig1_model()
        lam, mu = FIG1["lam"], FIG1["mu"]
        for x in (0.3, 1.5):
            ph = m.drift.phi(x)
            assert_allclose(p.D(x), math.sqrt(-lam * mu / ph), rtol=1e-13)
            assert_allclose(p.transform(x), math.sqrt(-mu * ph / lam), rtol=1e-13)

    def test_constant_drift_autonomous_passes(self):
        res = allen_stein_test(to_riccati(const_model(q=1.0)), chebyshev_grid(0.0, 4.0))
        assert res.integrable

    def test_perturbed_drift_fails_with_witness(self):
        xs = np.linspace(0.0, 6.0, 500)
        base = SegerdahlDrift(**FIG1)
        drift = TabulatedDrift(tuple(xs), tuple(base.phi(xs) + 0.01 * np.sin(xs)))
        m = ModelSpec(drift, FIG1["lam"], FIG1["q"], exponential(FIG1["mu"]))
        res = allen_stein_test(to_riccati(m), chebyshev_grid(0.5, 5.0))
        assert not res.integrable
        assert res.witness_x is not None
        assert 0.5 <= res.witness_x <= 5.0
        assert res.t_spread > 1e-4

    def test_randomized_family_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            K = rng.uniform(-3.0, 0.95)
            if abs(K) < 1e-3:
                K = 0.5
            lam = rng.uniform(0.1, 3.0)
            q = rng.uniform(0.0, 2.0)
            mu = rng.uniform(0.2, 3.0)
            m = ModelSpec(SegerdahlDrift(K, lam, q, mu), lam, q, exponential(mu))
            res = allen_stein_test(to_riccati(m), chebyshev_grid(0.0, 6.0 / mu))
            assert res.integrable, (K, lam, q, mu)
            assert abs(res.params.c1) < 1e-8

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            allen_stein_test(to_riccati(fig1_model()), np.array([1.0]))


class TestSignChoice:
    """The drift-family condition carries +mu*phi; the -mu*phi variant is a
    rejected alternative (regression guard against a sign flip)."""

    def test_plus_variant_accepted_minus_rejected(self):
        K, lam, q, mu = FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"]
        d = SegerdahlDrift(K, lam, q, mu)
        xs = np.linspace(0.0, 5.0, 101)
        phi, dphi = d.phi(xs), d.dphi(xs)
        plus = dphi / 2 + (lam + q) + mu * phi
        minus = dphi / 2 + (lam + q) - mu * phi
        assert np.max(np.abs(plus)) < 1e-12
        assert np.min(np.abs(minus)) > 0.1

    def test_plus_variant_is_what_the_gate_computes(self):
        # S(x) * phi(x) from the Riccati coefficients equals the +mu*phi form.
        coeffs = to_riccati(fig1_model())
        d = fig1_model().drift
        lam, q, mu = FIG1["lam"], FIG1["q"], FIG1["mu"]
        xs = np.linspace(0.1, 4.0, 9)
        S = coeffs.b1(xs) + 0.5 * (coeffs.db2(xs) / coeffs.b2(xs) - coeffs.db0(xs) / coeffs.b0(xs))
        phi, dphi = d.phi(xs), d.dphi(xs)
        assert_allclose(S * phi, dphi / 2 + (lam + q) + mu * phi, atol=1e-12)


class TestPhiKDrift:
    def test_value_at_zero(self):
        d = phi_k_drift(**FIG1)
        expected = (FIG1["lam"] + FIG1["q"]) / FIG1["mu"] * (FIG1["K"] - 1.0)
        assert_allclose(d.phi(0.0), expected, rtol=1e-15)
        assert_allclose(expected, -1.0 / 6.0, rtol=1e-15)

    def test_limit_at_infinity(self):
        d = phi_k_drift(**FIG1)
        assert_allclose(d.phi(60.0), -(FIG1["lam"] + FIG1["q"]) / FIG1["mu"], rtol=1e-12)

    def test_defining_ode_residual(self):
        rng = np.random.default_rng(9)
        K, lam, q, mu = -1.3, 0.8, 0.4, 1.1
        d = phi_k_drift(K, lam, q, mu)
        xs = rng.uniform(0.0, 8.0, 50)
        res = d.dphi(xs) + 2 * mu * d.phi(xs) + 2 * (lam + q)
        assert np.max(np.abs(res)) < 1e-12

    def test_k_zero_redirects_to_constant(self):
        with pytest.warns(UserWarning, match="constant"):
            d = phi_k_drift(0.0, 1.0, 0.5, 2.0)
        assert isinstance(d, ConstantDrift)
        assert_allclose(d.c, -(1.0 + 0.5) / 2.0)


class TestXbar:
    def test_zero_at_zero(self):
        assert xbar(0.0, **FIG1) == 0.0

    def test_strictly_increasing_to_infinity(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = xbar(xs, **FIG1)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 40.0 * FIG1["mu"] * math.sqrt(0.5) * 0.95

    def test_large_x_asymptote(self):
        x = 60.0
        approx = math.sqrt(FIG1["lam"] / (FIG1["lam"] + FIG1["q"])) * FIG1["mu"] * x
        assert abs(xbar(x, **FIG1) - approx) / approx < 0.01

    def test_matches_cross_ratio_form(self):
        # the direct cross-ratio logarithm, evaluated where it is stable
        for K in (0.75, -2.0, 0.2):
            for x in (0.3, 1.0, 3.0):
                a = math.sqrt(1 - K)
                b = math.sqrt(1 - K * math.exp(-2 * x * FIG1["mu"]))
                direct = 0.5 * math.sqrt(FIG1["lam"] / (FIG1["q"] + FIG1["lam"])) * math.log(
                    (1 - a) / (a + 1) * (b + 1) / (1 - b)
                )
                ours = xbar(x, K, FIG1["lam"], FIG1["q"], FIG1["mu"])
                assert_allclose(ours, direct, rtol=1e-9)

    def test_derivative_by_finite_differences(self):
        x, h = 1.0, 1e-6
        fd = (xbar(x + h, **FIG1) - xbar(x - h, **FIG1)) / (2 * h)
        analytic = dxbar_dx(x, **FIG1)
        assert abs(fd - analytic) < 1e-8
        d = SegerdahlDrift(**FIG1)
        assert_allclose(
            analytic, math.sqrt(-FIG1["lam"] * FIG1["mu"] / d.phi(x)), rtol=1e-13
        )

    def test_regime_errors(self):
        with pytest.raises(ValueError):
            xbar(1.0, 1.5, 0.5, 0.5, 1.5)
        with pytest.raises(ValueError):
            xbar(-0.1, **FIG1)


class TestPhiKClosedForm:
    def test_boundary_values_exact(self):
        psi, m = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], 0.0)
        assert psi == 1.0
        assert m == 1.0

    def test_k1_value(self):
        # lam = q makes K1(0.75) = 3 - 2 sqrt(2)
        assert_allclose(k1_constant(0.75, 0.5, 0.5), 3.0 - 2.0 * math.sqrt(2.0), rtol=1e-13)

    def test_decreasing_to_zero(self):
        xs = np.linspace(0.0, 5.0, 101)
        psi, m = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], xs)
        assert np.all(np.diff(psi) < 0)
        assert np.all(np.diff(m) < 0)
        p30, m30 = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], 40.0)
        assert p30 < 1e-6 and m30 < 1e-6

    def test_zero_kill_degenerates_to_certain_ruin(self):
        # strictly negative drift and no killing: ruin is certain
        for K in (0.75, -2.0):
            xs = np.linspace(0.0, 6.0, 13)
            psi, m = phi_k_closed_form(K, 0.5, 0.0, 1.5, xs)
            assert_allclose(psi, 1.0, atol=1e-12)
            assert_allclose(m, 1.0, atol=1e-12)

    def test_derivatives_against_finite_differences(self):
        h = 1e-6
        for x in (0.3, 1.2, 3.0):
            psi, m, dpsi, dm = phi_k_closed_form_with_derivatives(
                FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], x
            )
            pp, mp = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], x + h)
            pm, mm_ = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], x - h)
            assert abs((pp - pm) / (2 * h) - dpsi) < 1e-7
            assert abs((mp - mm_) / (2 * h) - dm) < 1e-7

    def test_ode_residual(self):
        for K, lam, q, mu in [(0.75, 0.5, 0.5, 1.5), (-1.5, 0.8, 0.25, 1.0), (0.2, 1.0, 1.0, 2.0)]:
            m = ModelSpec(SegerdahlDrift(K, lam, q, mu), lam, q, exponential(mu))
            xs = np.linspace(0.0, 5.0, 21)
            psi, mm, dpsi, dm = phi_k_closed_form_with_derivatives(K, lam, q, mu, xs)
            _, res = ode_residual(m, xs, psi, mm, dpsi, dm)
            assert np.max(np.abs(res)) < 1e-8

    def test_eta_ratio(self):
        xs = np.linspace(0.0, 5.0, 11)
        psi, m = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], xs)
        eta = phi_k_eta(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], xs)
        assert_allclose(eta, psi / m, rtol=1e-12)
        assert eta[0] == pytest.approx(1.0, abs=1e-14)

    def test_regime_error(self):
        with pytest.raises(ValueError):
            phi_k_closed_form(1.2, 0.5, 0.5, 1.5, 1.0)


class TestAsymptoticRate:
    def test_zero_kill(self):
        assert asymptotic_rate(0.5, 0.0, 1.5) == 0.0

    def test_reference_value(self):
        assert_allclose(asymptotic_rate(0.5, 0.5, 1.5), -0.4393398282201787, rtol=1e-14)

    def test_large_kill_limit(self):
        assert_allclose(asymptotic_rate(0.5, 1e12, 1.5), -1.5, rtol=1e-5)

    def test_matches_log_slope_of_closed_form(self):
        x = 30.0 / FIG1["mu"]
        h = 1e-4
        pp, _ = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], x + h)
        pm, _ = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], x - h)
        slope = (math.log(pp) - math.log(pm)) / (2 * h)
        rate = asymptotic_rate(FIG1["lam"], FIG1["q"], FIG1["mu"])
        assert abs(slope - rate) / abs(rate) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_rate(0.0, 1.0, 1.0)


class TestRiccatiNumeric:
    def test_converges_to_stable_fixed_point(self):
        m = const_model(q=1.0)
        coeffs = to_riccati(m)
        root = constant_drift_root(m)
        # the larger root is the attracting one on the phase line
        rsol = riccati_numeric(coeffs, 5.0, (0.0, 60.0))
        assert_allclose(rsol.eta(60.0), root.eta_other, rtol=1e-8)
        rsol2 = riccati_numeric(coeffs, 0.5 * (root.eta + root.eta_other), (0.0, 60.0))
        assert_allclose(rsol2.eta(60.0), root.eta_other, rtol=1e-8)

    def test_backward_run_is_attracted_to_the_ruin_root(self):
        # The smaller root repels forward and so attracts backward; the
        # integral runs from the range's start, x = 20, where M is posed.
        m = const_model(q=1.0)
        coeffs = to_riccati(m)
        root = constant_drift_root(m)
        rsol = riccati_numeric(coeffs, root.eta + 0.2, (20.0, 0.0))
        assert rsol.x_start == 20.0
        assert_allclose(rsol.eta(0.0), root.eta, rtol=1e-8)
        xs = np.linspace(0.0, 20.0, 11)
        psi_cf, m_cf = constant_drift_solution(m, xs)
        rsol = riccati_numeric(coeffs, root.eta, (20.0, 0.0))
        psi, mm = reconstruct_solution(rsol, 2.0, xs, m0=m_cf[-1])
        assert_allclose(mm, m_cf, rtol=1e-8)
        assert_allclose(psi, psi_cf, rtol=1e-8)

    def test_relaxing_drift_matches_closed_form_eta(self):
        coeffs = to_riccati(fig1_model())
        rsol = riccati_numeric(coeffs, 1.0, (0.0, 5.0))
        xs = np.linspace(0.0, 5.0, 41)
        eta_cf = phi_k_eta(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], xs)
        assert np.max(np.abs(rsol.eta(xs) - eta_cf)) < 1e-7

    def test_blow_up_detected_at_separable_pole(self):
        m = const_model(q=1.0)
        coeffs = to_riccati(m)
        root = constant_drift_root(m)
        eta1, eta2 = root.eta, root.eta_other
        eta0 = eta1 - 0.5  # below the repelling root: finite-time pole
        # separable autonomous solution: u = (eta-eta1)/(eta-eta2) grows as
        # e^{mu (eta2-eta1) x}; the pole sits where u reaches 1.
        u0 = (eta0 - eta1) / (eta0 - eta2)
        x_pole = -math.log(u0) / (2.0 * (eta2 - eta1))
        with pytest.raises(RiccatiBlowUpError) as exc_info:
            riccati_numeric(coeffs, eta0, (0.0, 10.0))
        assert abs(exc_info.value.x_pole - x_pole) < 1e-9

    @pytest.mark.parametrize("eta0", [math.nan, math.inf])
    def test_non_finite_start_is_rejected(self, eta0):
        with pytest.raises(ValueError, match="eta0 must be finite"):
            riccati_numeric(to_riccati(fig1_model()), eta0, (0.0, 5.0))

    def test_reconstruction_solves_linear_system(self):
        m = fig1_model()
        coeffs = to_riccati(m)
        rsol = riccati_numeric(coeffs, 1.0, (0.0, 5.0))
        # step small enough that the 6th-order difference truncation sits
        # below the 1e-8 target even where the coefficients are largest
        xs = np.linspace(0.0, 5.0, 5001)
        psi, mm = reconstruct_solution(rsol, FIG1["mu"], xs)
        _, res = ode_residual(m, xs, psi, mm)
        assert np.max(np.abs(res)) < 1e-8

    def test_reconstruction_matches_closed_form(self):
        coeffs = to_riccati(fig1_model())
        rsol = riccati_numeric(coeffs, 1.0, (0.0, 5.0))
        xs = np.linspace(0.0, 5.0, 21)
        psi, mm = reconstruct_solution(rsol, FIG1["mu"], xs)
        cp, cm = phi_k_closed_form(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], xs)
        assert np.max(np.abs(psi - cp)) < 1e-7
        assert np.max(np.abs(mm - cm)) < 1e-7


class TestTransformation:
    def test_transformed_equation_is_autonomous_in_xbar(self):
        # eta_bar(xbar) = (e^{2 xbar} - K1) / (e^{2 xbar} + K1) must satisfy
        # d(eta_bar)/d(xbar) = 1 - eta_bar^2 pointwise.
        K1 = k1_constant(FIG1["K"], FIG1["lam"], FIG1["q"])
        xb = np.linspace(0.0, 8.0, 200)
        e2 = np.exp(2 * xb)
        eta_bar = (e2 - K1) / (e2 + K1)
        deta = 4.0 * K1 * e2 / (e2 + K1) ** 2
        assert np.max(np.abs(deta - (1.0 - eta_bar**2))) < 1e-9

    def test_scaling_connects_eta_and_eta_bar(self):
        # G(x) * eta(x) equals eta_bar evaluated at xbar(x)
        res = allen_stein_test(to_riccati(fig1_model()), chebyshev_grid(0.0, 5.0))
        G = res.params.transform
        K1 = k1_constant(FIG1["K"], FIG1["lam"], FIG1["q"])
        xs = np.linspace(0.0, 5.0, 21)
        eta = phi_k_eta(FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"], xs)
        xb = xbar(xs, **FIG1)
        eta_bar = (np.exp(2 * xb) - K1) / (np.exp(2 * xb) + K1)
        assert_allclose(G(xs) * eta, eta_bar, rtol=1e-10)

    def test_chain_rule_residual_through_x(self):
        # d(eta_bar)/dx = dxbar/dx * (1 - eta_bar^2) along the solution
        K1 = k1_constant(FIG1["K"], FIG1["lam"], FIG1["q"])
        xs = np.linspace(0.1, 4.0, 25)
        h = 1e-6

        def eta_bar(x):
            e2 = np.exp(2 * xbar(x, **FIG1))
            return (e2 - K1) / (e2 + K1)

        fd = (eta_bar(xs + h) - eta_bar(xs - h)) / (2 * h)
        rhs = dxbar_dx(xs, **FIG1) * (1.0 - eta_bar(xs) ** 2)
        assert np.max(np.abs(fd - rhs)) < 1e-9
