import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg as sla
from scipy import stats
from scipy.integrate import quad

from pdmpruin.phase_type import (
    PhaseType,
    coxian,
    density,
    erlang,
    exponential,
    matrix_exp,
    sample,
    tail,
    validate,
)
from pdmpruin.passage_model import ConstantDrift, ModelSpec
from pdmpruin.serialization import RunConfig, config_to_dict, parse_config


def config_of(pt: PhaseType) -> dict:
    """A config whose model jumps by ``pt``."""
    return config_to_dict(RunConfig(model=ModelSpec(ConstantDrift(1.0), 1.0, 0.0, pt)))


def exp_series(z, terms=60):
    # independent oracle: direct series summation of e^z
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= z / (k + 1)
    return total


class TestValidate:
    def test_exponential_valid(self):
        assert validate(exponential(2.0)).ok

    def test_positive_diagonal_invalid(self):
        report = validate(PhaseType([1.0], [[1.0]]))
        assert not report.ok
        names = [c.name for c in report.failures()]
        assert "diagonal must be negative" in names

    def test_erlang_valid(self):
        assert validate(erlang(2, 1.0)).ok

    def test_negative_offdiagonal_reported_with_index(self):
        report = validate(PhaseType([1.0, 0.0], [[-2.0, -0.5], [0.0, -1.0]]))
        bad = [c for c in report.failures() if "off-diagonal" in c.name]
        assert bad and "(0, 1)" in bad[0].detail

    def test_positive_row_sum_invalid(self):
        report = validate(PhaseType([1.0, 0.0], [[-1.0, 2.0], [0.0, -1.0]]))
        names = [c.name for c in report.failures()]
        assert "row sums of B nonpositive" in names
        assert "exit rates b = -B@1 nonnegative" in names

    def test_conservative_chain_invalid(self):
        # Zero row sums: no absorption, eigenvalue 0.
        report = validate(PhaseType([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]]))
        names = [c.name for c in report.failures()]
        assert "at least one strictly negative row sum" in names
        assert "eigenvalues of B have negative real part" in names

    def test_beta_checks(self):
        report = validate(PhaseType([0.7, 0.7], [[-1.0, 0.0], [0.0, -1.0]]))
        assert "beta sums to 1" in [c.name for c in report.failures()]
        report = validate(PhaseType([1.5, -0.5], [[-1.0, 0.0], [0.0, -1.0]]))
        assert "beta entries nonnegative" in [c.name for c in report.failures()]


class TestTail:
    def test_at_zero(self):
        assert tail(exponential(2.0), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_closed_form(self):
        # scalar case checked against series summation of e^{-2}
        expected = exp_series(-2.0)
        assert_allclose(tail(exponential(2.0), 1.0), expected, rtol=1e-12)
        assert_allclose(expected, 0.1353352832366127, rtol=1e-15)

    def test_erlang2_by_convolution(self):
        # brute-force oracle: P[C1+C2 > x] = tail1(x) + int_0^x f1(s) tail2(x-s) ds
        mu, x = 1.0, 1.0
        conv, _ = quad(lambda s: mu * math.exp(-mu * s) * math.exp(-mu * (x - s)), 0, x)
        expected = math.exp(-mu * x) + conv
        assert_allclose(expected, 0.7357588823428847, rtol=1e-12)
        assert_allclose(tail(erlang(2, mu), x), expected, rtol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tail(exponential(2.0), -0.1)

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(3)
        pt = coxian([3.0, 2.0, 1.0], [0.7, 0.5])
        xs = np.sort(rng.uniform(0, 6, 40))
        vals = [tail(pt, float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestDensity:
    def test_exponential_at_zero_is_rate(self):
        assert_allclose(density(exponential(2.0), 0.0), 2.0, rtol=1e-14)

    def test_exponential_closed_form(self):
        assert_allclose(density(exponential(2.0), 1.0), 2.0 * exp_series(-2.0), rtol=1e-12)

    def test_erlang2_against_tail_derivative(self):
        # numerical differentiation of the tail as the independent oracle
        pt, x, h = erlang(2, 1.0), 2.0, 1e-6
        fd = -(tail(pt, x + h) - tail(pt, x - h)) / (2 * h)
        assert_allclose(fd, 0.2706705664732254, rtol=1e-8)
        assert_allclose(density(pt, x), 0.2706705664732254, rtol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            density(erlang(2, 1.0), -1e-9)

    @pytest.mark.parametrize(
        "pt", [exponential(2.0), erlang(2, 1.0), coxian([3.0, 2.0, 1.0], [0.7, 0.5])]
    )
    def test_integrates_to_one(self, pt):
        val, _ = quad(lambda x: density(pt, x), 0, np.inf, limit=200)
        assert_allclose(val, 1.0, rtol=1e-9)

    @pytest.mark.parametrize(
        "pt", [exponential(2.0), erlang(2, 1.0), coxian([3.0, 2.0, 1.0], [0.7, 0.5])]
    )
    def test_density_is_minus_tail_derivative(self, pt):
        h = 1e-6
        for x in np.linspace(0.1, 4.0, 9):
            fd = -(tail(pt, x + h) - tail(pt, x - h)) / (2 * h)
            assert density(pt, x) == pytest.approx(fd, abs=1e-6)


LAWS = {
    "exp": exponential(1.5),
    "erlang3": erlang(3, 3.0),
    "coxian3": coxian([3.0, 2.0, 1.0], [0.7, 0.5]),
    "mixed": PhaseType([0.3, 0.7], [[-2.0, 1.0], [0.5, -3.0]]),
}


class TestUniformisedTailAndDensity:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @pytest.mark.parametrize("f", [tail, density])
    def test_array_equals_scalar_calls_bit_for_bit(self, f, name):
        pt = LAWS[name]
        theta = np.abs(np.diag(pt.B)).max()
        rng = np.random.default_rng(5)
        # points inside the first window, on window edges and a few windows out
        xs = np.concatenate([rng.uniform(0.0, 12.0, 200), np.array([31.999, 32.0, 64.0, 200.0]) / theta])
        got = f(pt, xs.reshape(4, -1))
        assert got.shape == (4, xs.size // 4)
        scalar = [f(pt, float(x)) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(got.ravel(), np.array(scalar))

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_zero_gives_beta_against_one_and_b(self, name):
        pt = LAWS[name]
        one, b = float(pt.beta @ np.ones(pt.n)), float(pt.beta @ pt.b)
        assert tail(pt, 0.0) == one and density(pt, 0) == b
        assert np.all(tail(pt, np.zeros(3)) == one) and np.all(density(pt, np.zeros(3)) == b)

    @pytest.mark.parametrize("f", [tail, density])
    @pytest.mark.parametrize("x", [-1e-300, [0.5, -0.1], np.array([[1.0], [np.nan]]), np.inf])
    def test_negative_or_nonfinite_point_raises(self, f, x):
        with pytest.raises(ValueError, match="nonnegative"):
            f(LAWS["coxian3"], x)

    def test_stiff_law_far_out_stays_accurate(self):
        # theta x reaches 10^6: 31 250 windows of the slow phase
        a, c, p = 1000.0, 0.01, 0.5
        pt = coxian([a, c], [p])
        xs = np.linspace(0.0, 1e3, 1001)
        exact = np.exp(-a * xs) + p * a / (a - c) * (np.exp(-c * xs) - np.exp(-a * xs))
        expm = np.array([pt.beta @ matrix_exp(pt.B, x) @ np.ones(2) for x in xs])
        got = tail(pt, xs)
        assert np.abs(got - exact).max() <= 1e-12
        # matrix_exp misses the closed form by 1.4e-12 here itself
        assert np.abs(got - expm).max() <= np.abs(expm - exact).max() + 1e-12
        assert tail(pt, 1e12) == 0.0

    @pytest.mark.parametrize(
        "B, message",
        [
            ([[-2.0, -0.5], [0.0, -1.0]], r"entry \(0, 1\) = -0.5 is negative"),
            # nonnegative off-diagonal entries, but row sums 2 > 0: P = I + B/theta
            # would have row sums 3 and the series terms would grow like 3^k
            ([[-1.0, 3.0], [3.0, -1.0]], r"row 0 sums to 2 > 0"),
        ],
        ids=["negative-off-diagonal", "positive-row-sum"],
    )
    def test_non_subgenerator_is_rejected(self, B, message):
        pt = PhaseType([1.0, 0.0], B)
        for f in (tail, density):
            with pytest.raises(ValueError, match=message):
                f(pt, 1.0)
            with pytest.raises(ValueError, match=message):
                f(pt, np.array([1.0, 30.0]))


def uncached_sample(pt, rng, size=None):
    """The sampler as it was before its tables were cached on the law: the
    embedded chain rebuilt per call and start phases drawn by ``rng.choice``."""
    n = pt.n
    N = 1 if size is None else int(size)
    exit_rates = -np.diag(pt.B)
    P = np.empty((n, n + 1))
    P[:, :n] = (pt.B - np.diag(np.diag(pt.B))) / exit_rates[:, None]
    P[:, n] = pt.b / exit_rates
    cumP = np.cumsum(P, axis=1)
    phase = rng.choice(n, size=N, p=pt.beta / pt.beta.sum())
    total = np.zeros(N)
    active = np.ones(N, dtype=bool)
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = phase[idx]
        total[idx] += rng.exponential(1.0 / exit_rates[cur])
        u = rng.random(idx.size)
        nxt = (u[:, None] < cumP[cur]).argmax(axis=1)
        absorbed = nxt == n
        active[idx[absorbed]] = False
        phase[idx[~absorbed]] = nxt[~absorbed]
    return float(total[0]) if size is None else total


class TestSample:
    @pytest.mark.parametrize("size", [None, 0, 1, 7, 20000])
    @pytest.mark.parametrize(
        "pt",
        [
            exponential(2.0),
            PhaseType([1.0], [[-0.3]]),
            erlang(3, 3.0),
            coxian([3.0, 2.0, 1.0], [0.7, 0.5]),
            PhaseType([0.1, 0.0, 0.6, 0.3], np.diag([-1.0, -2.0, -4.0, -0.5])),
        ],
        ids=["exponential", "one-phase", "erlang3", "coxian3", "hyperexponential"],
    )
    def test_stream_matches_uncached_sampler(self, pt, size):
        for seed in (0, 17):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # the second call reads the cached tables
                a, b = sample(pt, rng_a, size), uncached_sample(pt, rng_b, size)
                assert type(a) is type(b)
                assert np.array_equal(a, b)
            assert rng_a.random() == rng_b.random()

    def test_improper_start_law_rejected(self):
        for beta in ([-0.5, 1.5], [0.0, 0.0]):
            pt = PhaseType(beta, [[-1.0, 1.0], [0.0, -1.0]])
            with pytest.raises(ValueError, match="probability vector"):
                sample(pt, np.random.default_rng(0))

    @pytest.mark.parametrize("B", [[[0.5]], [[-1.0, 1.0], [0.0, 0.0]]], ids=["one-phase", "two-phase"])
    def test_nonnegative_diagonal_rejected(self, B):
        # a holding time needs a positive exit rate in every phase
        pt = PhaseType([1.0] + [0.0] * (len(B) - 1), B)
        with pytest.raises(ValueError, match="negative diagonal"):
            sample(pt, np.random.default_rng(0), size=3)

    def test_exponential_mean(self):
        rng = np.random.default_rng(11)
        n = 10**6
        draws = sample(exponential(2.0), rng, size=n)
        # mean 1/mu = 0.5, sd of the mean = 0.5/sqrt(n)
        assert abs(draws.mean() - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_erlang_mean(self):
        rng = np.random.default_rng(12)
        n = 10**6
        draws = sample(erlang(2, 1.0), rng, size=n)
        assert abs(draws.mean() - 2.0) < 3 * math.sqrt(2.0) / math.sqrt(n)

    def test_seed_reproducibility(self):
        a = sample(erlang(2, 1.0), np.random.default_rng(5), size=1000)
        b = sample(erlang(2, 1.0), np.random.default_rng(5), size=1000)
        assert np.array_equal(a, b)

    def test_scalar_draw(self):
        v = sample(exponential(1.0), np.random.default_rng(0))
        assert isinstance(v, float) and v > 0

    @pytest.mark.parametrize(
        "pt", [exponential(2.0), erlang(2, 1.0), coxian([3.0, 2.0, 1.0], [0.7, 0.5])]
    )
    def test_ks_against_tail(self, pt):
        rng = np.random.default_rng(21)
        n = 10**5
        draws = sample(pt, rng, size=n)
        res = stats.kstest(draws, lambda x: 1.0 - tail(pt, x))
        assert res.statistic < 1.63 / math.sqrt(n)  # 1% critical value
        assert res.pvalue > 0.01


class TestMatrixExp:
    def test_zero_matrix(self):
        assert_allclose(matrix_exp(np.zeros((3, 3)), 5.0), np.eye(3), atol=1e-15)

    def test_scalar(self):
        assert_allclose(matrix_exp(np.array([[-2.0]]), 1.0)[0, 0], math.exp(-2.0), rtol=1e-13)

    def test_nilpotent(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(matrix_exp(M, 1.0), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = rng.integers(2, 6)
            M = rng.normal(size=(n, n))
            M -= (np.abs(M).sum(axis=1).max() + 0.5) * np.eye(n)  # stable
            s, t = rng.uniform(0.1, 2.0, size=2)
            left = matrix_exp(M, s + t)
            right = matrix_exp(M, s) @ matrix_exp(M, t)
            assert np.max(np.abs(left - right)) < 1e-10

    def test_against_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = rng.integers(1, 6)
            M = rng.normal(size=(n, n))
            ours = matrix_exp(M, 0.7)
            ref = sla.expm(M * 0.7)
            assert_allclose(ours, ref, rtol=1e-12, atol=1e-13)

    def test_erlang3_tail_against_closed_form(self):
        # P[C > x] = e^{-3x} (1 + 3x + (3x)^2 / 2) for Erlang-3 with rate 3.
        pt = erlang(3, 3.0)
        for x in np.linspace(0.0, 8.0, 161):
            z = 3.0 * x
            exact = math.exp(-z) * (1.0 + z + z * z / 2.0)
            assert abs(tail(pt, x) - exact) <= 2e-15

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.5, 1.5, 4.0, 40.0])
    def test_every_pade_order_against_series(self, scale):
        # The 1-norm picks Pade orders 3 to 13, with squaring at the largest
        # scale; a diagonal plus nilpotent matrix has a finite series.
        N = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]) * scale
        d = -0.5 * scale
        exact = math.exp(d) * (np.eye(3) + N + N @ N / 2.0)
        got = matrix_exp(N + d * np.eye(3))
        assert np.max(np.abs(got - exact)) <= 1e-14 * max(1.0, np.abs(exact).max())

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            matrix_exp(np.array([[1e306]]), 10.0)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            matrix_exp(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.nan]]), 1.0)


class TestSerialization:
    def test_round_trip(self):
        pt = coxian([3.0, 2.0, 1.0], [0.7, 0.5])
        again = parse_config(config_of(pt)).model.jumps
        assert_allclose(again.beta, pt.beta)
        assert_allclose(again.B, pt.B)

    def test_b_is_recomputed_not_read(self):
        d = config_of(exponential(2.0))
        d["model"]["jumps"]["b"] = [123.0]  # must be ignored
        pt = parse_config(d).model.jumps
        assert_allclose(pt.b, [2.0])

    def test_unknown_field_rejected(self):
        d = config_of(exponential(1.0))
        d["model"]["jumps"]["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            parse_config(d)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0]])
