"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats

from pdmpruin.lie_algebra import build_generators, closure, spans_equal
from pdmpruin.mc_sim import SimConfig, estimate
from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    PassageProblem,
    SegerdahlDrift,
    TabulatedDrift,
    constant_drift_root,
    constant_drift_solution,
    ode_residual,
    solve_bvp,
    _segerdahl_q0_full,
)
from pdmpruin.phase_type import (
    coxian,
    density,
    erlang,
    exponential,
    matrix_exp,
    sample,
    tail,
)
from pdmpruin.riccati import (
    allen_stein_test,
    asymptotic_rate,
    chebyshev_grid,
    phi_k_closed_form,
    phi_k_closed_form_with_derivatives,
    reconstruct_solution,
    riccati_numeric,
    to_riccati,
)

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)


def fig1_model():
    return ModelSpec(
        SegerdahlDrift(**FIG1), FIG1["lam"], FIG1["q"], exponential(FIG1["mu"])
    )


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_lie_closure_dimensions():
    """Closure of the generator pair: dim 2 solvable at q=0, gl(2) otherwise."""
    t0 = time.perf_counter()
    lam, mu = 1.0, 2.0
    m0 = ModelSpec(ConstantDrift(1.0), lam, 0.0, exponential(mu))
    rep0 = closure(list(build_generators(m0)))
    assert rep0.dimension == 2
    assert rep0.solvable is True

    gl2 = [
        np.eye(2),
        np.diag([1.0, -1.0]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    ]
    for q in (0.1, 0.5, 1.0, 10.0):
        mq = ModelSpec(ConstantDrift(1.0), lam, q, exponential(mu))
        rep = closure(list(build_generators(mq)))
        assert rep.dimension == 4, q
        assert rep.solvable is False
        assert spans_equal(rep.basis, gl2)
        assert rep.derived_series_dims == (4, 3, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"closure dims 2/4 with correct solvability in {elapsed * 1e3:.0f} ms")


def test_criterion_2_constant_drift_closed_form():
    """lam=1, mu=2, c=1, q=0: Psi(x) = 0.5 e^{-x}; BVP and MC agree."""
    m = ModelSpec(ConstantDrift(1.0), 1.0, 0.0, exponential(2.0))
    grid = np.linspace(0.0, 10.0, 101)
    psi, _ = constant_drift_solution(m, grid)
    exact = 0.5 * np.exp(-grid)
    assert np.max(np.abs(psi - exact)) < 1e-14

    curve = solve_bvp(m, PassageProblem(lower=0.0), grid)
    sup = float(np.max(np.abs(curve.psi - exact)))
    assert sup < 1e-7

    checks = []
    for x0 in (0.0, 0.5, 1.0, 2.0):
        cfg = SimConfig(
            model=m, problem=PassageProblem(lower=0.0), x0=x0,
            n_paths=100000, seed=int(10 * x0) + 1, max_time=60.0,
        )
        est = estimate(cfg)
        target = 0.5 * math.exp(-x0)
        assert abs(est.mean - target) < 3 * est.std_error, (x0, est.mean, target)
        checks.append(abs(est.mean - target) / est.std_error)
    report(
        2,
        f"sup|bvp - exact| = {sup:.2e}; MC deviations "
        + ", ".join(f"{c:.2f}sigma" for c in checks),
    )


def test_criterion_3_integrability_gate():
    """The gate accepts the drift family (c1 = 0) and rejects a perturbation."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        K = float(rng.uniform(-3.0, 0.95))
        if abs(K) < 1e-3:
            K = -0.5
        lam = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(0.0, 2.0))
        mu = float(rng.uniform(0.2, 3.0))
        m = ModelSpec(SegerdahlDrift(K, lam, q, mu), lam, q, exponential(mu))
        res = allen_stein_test(to_riccati(m), chebyshev_grid(0.0, 6.0 / mu))
        assert res.integrable, (K, lam, q, mu)
        assert abs(res.params.c1) <= 1e-8
        worst = max(worst, res.t_spread, abs(res.params.c1))

    xs = np.linspace(-0.5, 7.0, 600)
    base = SegerdahlDrift(**FIG1)
    perturbed = TabulatedDrift(
        tuple(xs), tuple(base.phi(xs) + 0.01 * np.sin(xs)), sign_domain=(0.0, 7.0)
    )
    mp = ModelSpec(perturbed, FIG1["lam"], FIG1["q"], exponential(FIG1["mu"]))
    res_p = allen_stein_test(to_riccati(mp), chebyshev_grid(0.5, 5.0))
    assert not res_p.integrable
    report(3, f"100-case sweep worst deviation {worst:.2e}; perturbed drift rejected")


def test_criterion_4_reference_case_oracle_agreement():
    """mu=1.5, lam=q=0.5, K=0.75: closed form, BVP, ratio oracle, and MC agree."""
    K, lam, q, mu = FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"]
    grid = np.linspace(0.0, 5.0, 101)
    psi_cf, m_cf = phi_k_closed_form(K, lam, q, mu, grid)
    assert psi_cf[0] == 1.0 and m_cf[0] == 1.0

    model = fig1_model()
    problem = PassageProblem(lower=0.0)
    curve = solve_bvp(model, problem, grid)
    sup_bvp = max(
        float(np.max(np.abs(curve.psi - psi_cf))),
        float(np.max(np.abs(curve.m[:, 0] - m_cf))),
    )
    assert sup_bvp < 1e-6

    rsol = riccati_numeric(to_riccati(model), 1.0, (0.0, 5.0))
    psi_r, m_r = reconstruct_solution(rsol, mu, grid)
    sup_ric = max(
        float(np.max(np.abs(psi_r - psi_cf))), float(np.max(np.abs(m_r - m_cf)))
    )
    assert sup_ric < 1e-6

    deviations = []
    for i, x0 in enumerate(np.linspace(0.25, 4.75, 10)):
        cfg = SimConfig(
            model=model, problem=problem, x0=float(x0), n_paths=100000, seed=100 + i
        )
        est = estimate(cfg)
        target, _ = phi_k_closed_form(K, lam, q, mu, float(x0))
        assert abs(est.mean - target) < 3 * est.std_error, (x0, est.mean, target)
        deviations.append(abs(est.mean - target) / est.std_error)

    assert np.all(np.diff(psi_cf) < 0)
    assert np.all(np.diff(m_cf) < 0)
    p_far, m_far = phi_k_closed_form(K, lam, q, mu, 40.0)
    assert p_far < 1e-6 and m_far < 1e-6
    report(
        4,
        f"sup diffs bvp {sup_bvp:.2e}, ratio oracle {sup_ric:.2e}; "
        f"max MC deviation {max(deviations):.2f}sigma",
    )


def test_criterion_5_asymptotic_decay_rate():
    """Empirical log-slope on [20, 30] matches mu(sqrt(lam/(lam+q)) - 1)."""
    K, lam, q, mu = FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"]
    rate = asymptotic_rate(lam, q, mu)
    assert_allclose(rate, -0.4393398282201786, rtol=1e-12)
    p20, _ = phi_k_closed_form(K, lam, q, mu, 20.0)
    p30, _ = phi_k_closed_form(K, lam, q, mu, 30.0)
    slope = (math.log(p30) - math.log(p20)) / 10.0
    rel = abs(slope - rate) / abs(rate)
    assert rel < 0.01
    report(5, f"log-slope {slope:.6f} vs rate {rate:.6f} ({rel * 100:.3f}% off)")


def test_criterion_6_ode_residual_suite():
    """Closed forms and reconstructed ratio solutions solve the linear system."""
    worst = 0.0
    # constant drift, with and without killing
    for q in (0.0, 1.0):
        m = ModelSpec(ConstantDrift(1.0), 1.0, q, exponential(2.0))
        grid = np.linspace(0.0, 6.0, 31)
        root = constant_drift_root(m)
        psi, mm = constant_drift_solution(m, grid)
        dm = -(1.0 - root.eta) * 2.0 * mm
        dpsi = root.eta * dm
        _, res = ode_residual(m, grid, psi, mm, dpsi, dm)
        worst = max(worst, float(np.max(np.abs(res))))

    # zero-kill quadrature form on two upward-drifting models
    for drift in (ConstantDrift(1.0), ConstantDrift(2.5)):
        m = ModelSpec(drift, 1.0, 0.0, exponential(2.0))
        grid = np.linspace(0.0, 6.0, 25)
        psi, mm, dpsi, dm, _ = _segerdahl_q0_full(m, grid)
        _, res = ode_residual(m, grid, psi, mm, dpsi, dm)
        worst = max(worst, float(np.max(np.abs(res))))

    # the relaxing family closed form across parameters
    for K, lam, q, mu in [
        (0.75, 0.5, 0.5, 1.5),
        (-1.5, 0.8, 0.25, 1.0),
        (0.2, 1.0, 1.0, 2.0),
    ]:
        m = ModelSpec(SegerdahlDrift(K, lam, q, mu), lam, q, exponential(mu))
        grid = np.linspace(0.0, 5.0, 41)
        psi, mm, dpsi, dm = phi_k_closed_form_with_derivatives(K, lam, q, mu, grid)
        _, res = ode_residual(m, grid, psi, mm, dpsi, dm)
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst < 1e-8

    # ratio-oracle reconstructions solve the system too (finite differences)
    worst_rec = 0.0
    m = fig1_model()
    rsol = riccati_numeric(to_riccati(m), 1.0, (0.0, 5.0))
    xs = np.linspace(0.0, 5.0, 5001)
    psi, mm = reconstruct_solution(rsol, FIG1["mu"], xs)
    _, res = ode_residual(m, xs, psi, mm)
    worst_rec = max(worst_rec, float(np.max(np.abs(res))))

    mc = ModelSpec(ConstantDrift(1.0), 1.0, 1.0, exponential(2.0))
    root = constant_drift_root(mc)
    rsol_c = riccati_numeric(to_riccati(mc), root.eta, (0.0, 5.0))
    xs_c = np.linspace(0.0, 5.0, 5001)
    psi_c, m_c = reconstruct_solution(rsol_c, 2.0, xs_c)
    _, res_c = ode_residual(mc, xs_c, psi_c, m_c)
    worst_rec = max(worst_rec, float(np.max(np.abs(res_c))))
    assert worst_rec < 1e-8
    report(6, f"closed-form residual {worst:.2e}; reconstruction residual {worst_rec:.2e}")


def test_criterion_7_phase_type_suite():
    """Density/tail consistency, sampler KS tests, matrix-exponential semigroup."""
    dists = {
        1: exponential(2.0),
        2: erlang(2, 1.0),
        3: coxian([3.0, 2.0, 1.0], [0.7, 0.5]),
    }
    h = 1e-6
    for pt in dists.values():
        for x in np.linspace(0.2, 4.0, 8):
            fd = -(tail(pt, x + h) - tail(pt, x - h)) / (2 * h)
            assert abs(density(pt, x) - fd) < 1e-6

    n = 10**5
    stats_seen = []
    for seed, pt in dists.items():
        rng = np.random.default_rng(seed)
        draws = sample(pt, rng, size=n)
        res = stats.kstest(draws, lambda x: 1.0 - tail(pt, x))
        assert res.statistic < 1.63 / math.sqrt(n)  # 1% critical value
        stats_seen.append(res.statistic * math.sqrt(n))

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        k = rng.integers(2, 6)
        M = rng.normal(size=(k, k))
        M -= (np.abs(M).sum(axis=1).max() + 0.5) * np.eye(k)
        s, t = rng.uniform(0.1, 2.0, size=2)
        diff = matrix_exp(M, s + t) - matrix_exp(M, s) @ matrix_exp(M, t)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst < 1e-10
    report(
        7,
        "FD consistency 1e-6 ok; KS sqrt(n)-statistics "
        + ", ".join(f"{s:.2f}" for s in stats_seen)
        + f" (crit 1.63); semigroup defect {worst:.1e}",
    )


def test_criterion_8_sign_convention_regression():
    """The drift-family gate carries +mu*phi; the -mu*phi variant is rejected.

    Two sign conventions circulate for the integrability condition on the
    drift.  Substituting the ratio-equation coefficients (b0 = -lam/phi,
    b1 = mu + (lam+q)/phi, b2 = -mu) into the transformation criterion gives

        phi'/2 + (lam + q) + mu*phi = kappa c1 sqrt(.) * phi-scale,

    i.e. the PLUS sign, and the c1 = 0 member is exactly the family
    phi' + 2 mu phi + 2 (lam+q) = 0 produced by phi_k_drift.  The minus
    variant would demand phi' / 2 + (lam+q) - mu*phi = 0, which the family
    violates by a margin; this test pins the chosen sign.
    """
    K, lam, q, mu = FIG1["K"], FIG1["lam"], FIG1["q"], FIG1["mu"]
    d = SegerdahlDrift(K, lam, q, mu)
    xs = np.linspace(0.0, 5.0, 201)
    phi, dphi = d.phi(xs), d.dphi(xs)

    plus_variant = dphi / 2.0 + (lam + q) + mu * phi
    minus_variant = dphi / 2.0 + (lam + q) - mu * phi
    assert np.max(np.abs(plus_variant)) < 1e-12
    assert np.min(np.abs(minus_variant)) > 0.1

    # and the implementation's own test function realizes the + form
    coeffs = to_riccati(ModelSpec(d, lam, q, exponential(mu)))
    S = coeffs.b1(xs) + 0.5 * (
        coeffs.db2(xs) / coeffs.b2(xs) - coeffs.db0(xs) / coeffs.b0(xs)
    )
    assert_allclose(S * phi, plus_variant, atol=1e-12)
    res = allen_stein_test(coeffs, chebyshev_grid(0.0, 5.0))
    assert res.integrable and abs(res.params.c1) < 1e-8
    report(
        8,
        f"+mu*phi residual {np.max(np.abs(plus_variant)):.1e}; "
        f"-mu*phi margin {np.min(np.abs(minus_variant)):.2f}",
    )
