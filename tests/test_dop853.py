"""The numpy DOP853 port against scipy's ``solve_ivp(method="DOP853")``."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdmpruin import _dop853
from pdmpruin.passage_model import (
    ConstantDrift,
    ModelSpec,
    NumericalError,
    SegerdahlDrift,
    _integrate_columns,
    assemble_system,
)
from pdmpruin.phase_type import erlang, exponential
from pdmpruin.riccati import (
    RICCATI_ATOL,
    RICCATI_RTOL,
    RiccatiBlowUpError,
    riccati_numeric,
    to_riccati,
)

FIG1 = dict(K=0.75, lam=0.5, q=0.5, mu=1.5)


def relaxing_model(jumps):
    return ModelSpec(SegerdahlDrift(**FIG1), FIG1["lam"], FIG1["q"], jumps)


def riccati_rhs(coeffs):
    def rhs(x, y):
        e = y[0]
        return [coeffs.b0(x) + coeffs.b1(x) * e + coeffs.b2(x) * e * e, e]

    return rhs


def scipy_dop853(fun, t0, t1, y0, rtol, atol):
    return solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                     dense_output=True)


def assert_same_solution(ours, ref):
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    # Array and scalar dense output, at the nodes (the piece that ends
    # there) and between them.
    xs = np.concatenate([np.linspace(ref.t[0], ref.t[-1], 501), ref.t])
    assert np.array_equal(ours(xs), ref.sol(xs))
    for x in xs[::25]:
        assert np.array_equal(ours(x), ref.sol(x))


class TestAgainstScipy:
    @pytest.mark.parametrize("rtol, atol", [(1e-11, 1e-13), (1e-8, 1e-10)])
    @pytest.mark.parametrize("jumps", [exponential(1.5), erlang(3, 3.0)], ids=["exp", "erlang3"])
    def test_relaxing_system(self, jumps, rtol, atol):
        A = assemble_system(relaxing_model(jumps))
        dim = jumps.n + 1

        def fun(x, y):
            return A(x) @ y

        ours = _dop853.integrate(fun, 0.0, 5.0, np.ones(dim), rtol, atol)
        assert ours.message is None
        assert_same_solution(ours, scipy_dop853(fun, 0.0, 5.0, np.ones(dim), rtol, atol))

    def test_riccati_right_hand_side(self):
        fun = riccati_rhs(to_riccati(relaxing_model(exponential(1.5))))
        ours = _dop853.integrate(fun, 0.0, 5.0, [1.0, 0.0], RICCATI_RTOL, RICCATI_ATOL)
        ref = scipy_dop853(fun, 0.0, 5.0, [1.0, 0.0], RICCATI_RTOL, RICCATI_ATOL)
        assert ours.message is None
        assert_same_solution(ours, ref)

    def test_blow_up_location(self):
        # eta' = eta^2 from eta(0) = 1 has its pole at x = 1, where the step
        # size collapses: both stop there, on the same nodes.
        def fun(x, y):
            return [y[0] * y[0]]

        ours = _dop853.integrate(fun, 0.0, 3.0, [1.0], RICCATI_RTOL, RICCATI_ATOL)
        ref = scipy_dop853(fun, 0.0, 3.0, [1.0], RICCATI_RTOL, RICCATI_ATOL)
        assert ours.message == ref.message == _dop853.TOO_SMALL_STEP
        assert np.array_equal(ours.t, ref.t)
        assert np.array_equal(ours.y, ref.y)
        assert abs(ours.t[-1] - 1.0) < 1e-10

    @pytest.mark.parametrize("rtol, atol", [(1e-11, 1e-13), (1e-8, 1e-10)])
    @pytest.mark.parametrize("jumps", [exponential(1.5), erlang(3, 3.0)], ids=["exp", "erlang3"])
    def test_relaxing_system_backward(self, jumps, rtol, atol):
        A = assemble_system(relaxing_model(jumps))
        dim = jumps.n + 1

        def fun(x, y):
            return A(x) @ y

        ours = _dop853.integrate(fun, 5.0, 0.0, np.ones(dim), rtol, atol)
        assert ours.message is None and ours.t[-1] == 0.0
        assert_same_solution(ours, scipy_dop853(fun, 5.0, 0.0, np.ones(dim), rtol, atol))

    def test_riccati_right_hand_side_backward(self):
        fun = riccati_rhs(to_riccati(relaxing_model(exponential(1.5))))
        ours = _dop853.integrate(fun, 5.0, 0.0, [0.5, 0.0], RICCATI_RTOL, RICCATI_ATOL)
        ref = scipy_dop853(fun, 5.0, 0.0, [0.5, 0.0], RICCATI_RTOL, RICCATI_ATOL)
        assert ours.message is None
        assert_same_solution(ours, ref)

    def test_backward_blow_up_location(self):
        # eta' = -eta^2 from eta(3) = 1 is 1/(x - 2): run backward, the step
        # size collapses at the pole x = 2, on scipy's nodes.
        def fun(x, y):
            return [-y[0] * y[0]]

        ours = _dop853.integrate(fun, 3.0, 0.0, [1.0], RICCATI_RTOL, RICCATI_ATOL)
        ref = scipy_dop853(fun, 3.0, 0.0, [1.0], RICCATI_RTOL, RICCATI_ATOL)
        assert ours.message == ref.message == _dop853.TOO_SMALL_STEP
        assert np.array_equal(ours.t, ref.t)
        assert np.array_equal(ours.y, ref.y)
        assert abs(ours.t[-1] - 2.0) < 1e-10

    def test_riccati_numeric_blow_up_is_reported_where_scipy_finds_it(self):
        coeffs = to_riccati(relaxing_model(exponential(1.5)))
        ref = scipy_dop853(riccati_rhs(coeffs), 0.0, 60.0, [-5.0, 0.0], RICCATI_RTOL, RICCATI_ATOL)
        with pytest.raises(RiccatiBlowUpError) as err:
            riccati_numeric(coeffs, -5.0, (0.0, 60.0))
        assert ref.status == -1 and ref.message == _dop853.TOO_SMALL_STEP
        assert err.value.x_pole == ref.t[-1]


def test_nan_step_size_stops_the_integration():
    # A NaN right-hand side makes the starting step NaN, which no comparison
    # with the smallest step accepts.
    with np.errstate(all="ignore"):
        sol = _dop853.integrate(lambda t, y: [np.nan], 0.0, 1.0, [1.0], 1e-8, 1e-10)
    assert sol.message == _dop853.TOO_SMALL_STEP
    assert np.array_equal(sol.t, [0.0])


@pytest.mark.parametrize("t0, t1", [(0.0, 0.0), (0.0, np.inf), (0.0, -np.inf),
                                    (np.nan, 1.0), (0.0, np.nan), (np.inf, 0.0)])
def test_non_finite_or_empty_range_is_refused(t0, t1):
    with pytest.raises(ValueError, match="finite range"):
        _dop853.integrate(lambda t, y: -y, t0, t1, [1.0], 1e-8, 1e-10)


def test_riccati_numeric_refuses_an_infinite_range():
    # An infinite end once made the step size overflow to inf and every
    # retry keep it there: the integration never returned.
    coeffs = to_riccati(ModelSpec(ConstantDrift(1.0), 1.0, 0.0, exponential(2.0)))
    with pytest.raises(ValueError, match="finite range"):
        riccati_numeric(coeffs, 0.5, (0.0, np.inf))


def test_integration_that_cannot_finish_is_numerical_error():
    # y' = y / (1 - x)^3 overflows before x = 1: the step size collapses.
    def A(x):
        return np.array([[1.0 / (1.0 - x) ** 3]])

    with np.errstate(all="ignore"), pytest.raises(
        NumericalError, match="linear-system integration failed: Required step size"
    ):
        _integrate_columns(A, 0.0, 2.0, np.ones((1, 1)), 1e-11, 1e-13)
