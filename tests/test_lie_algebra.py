import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmpruin.lie_algebra import (
    build_generators,
    closure,
    commutator,
    is_solvable,
    spans_equal,
)
from pdmpruin.passage_model import ConstantDrift, ModelSpec
from pdmpruin.phase_type import coxian, erlang, exponential

T1 = np.array([[1.0, -1.0], [0.0, 0.0]])
T2 = np.array([[0.0, 0.0], [1.0, -1.0]])


def u_matrices(lam, q):
    U1 = np.array([[(lam + q) / lam, -1.0], [0.0, 0.0]])
    U2 = np.array([[0.0, 0.0], [1.0, -1.0]])
    return U1, U2


def model(q, lam=1.0, mu=2.0, c=1.0, jumps=None):
    return ModelSpec(ConstantDrift(c), lam, q, jumps or exponential(mu))


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        assert_allclose(commutator(A, A), np.zeros((4, 4)), atol=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        assert_allclose(commutator(A, B), -commutator(B, A), atol=1e-14)

    def test_zero_kill_pair_relation(self):
        assert_allclose(commutator(T1, T2), -T1 - T2, atol=1e-15)

    def test_u1_u3_gives_upper_shear(self):
        lam, q = 1.0, 1.0
        U1, U2 = u_matrices(lam, q)
        U3 = (commutator(U1, U2) + U2 + U1) * lam / q + U2
        assert_allclose(U3, np.diag([1.0, -1.0]), atol=1e-14)
        U4 = commutator(U1, U3)
        assert_allclose(U4, [[0.0, 2.0], [0.0, 0.0]], atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_jacobi_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A, B, C = rng.normal(size=(3, 3, 3))
            res = (
                commutator(A, commutator(B, C))
                + commutator(B, commutator(C, A))
                + commutator(C, commutator(A, B))
            )
            assert np.linalg.norm(res) < 1e-10


class TestClosure:
    def test_zero_kill_two_dimensional_solvable(self):
        rep = closure([T1, T2])
        assert rep.dimension == 2
        assert rep.closed
        assert rep.solvable

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 10.0])
    def test_positive_kill_full_gl2(self, q):
        rep = closure(list(u_matrices(1.0, q)))
        assert rep.dimension == 4
        assert not rep.solvable
        gl2 = [np.eye(2), np.diag([1.0, -1.0]), [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
        assert spans_equal(rep.basis, [np.asarray(g, float) for g in gl2])

    def test_single_generator_abelian(self):
        rep = closure([np.array([[1.0, 2.0], [3.0, 4.0]])])
        assert rep.dimension == 1
        assert rep.closed
        assert rep.solvable
        assert rep.derived_series_dims == (1, 0)

    def test_idempotent(self):
        rep = closure(list(u_matrices(1.0, 0.5)))
        again = closure(list(rep.basis))
        assert again.dimension == rep.dimension

    def test_order_independent(self):
        U1, U2 = u_matrices(1.0, 0.5)
        a = closure([U1, U2])
        b = closure([U2, U1])
        assert a.dimension == b.dimension
        assert spans_equal(a.basis, b.basis)

    def test_dependent_generators_dropped_with_note(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        rep = closure([A, 2.0 * A])
        assert rep.dimension == 1
        assert any("dropped" in n for n in rep.notes)

    def test_full_gl_is_trivially_closed(self):
        rep = closure(list(u_matrices(1.0, 1.0)))
        assert rep.dimension == 4
        assert rep.closed  # the whole matrix algebra
        assert rep.cap_reached

    def test_empty_and_bad_tol(self):
        with pytest.raises(ValueError):
            closure([])

    def test_zero_generator_spans_the_zero_algebra(self):
        rep = closure([np.zeros((2, 2))])
        assert (rep.dimension, rep.closed, rep.solvable) == (0, True, True)
        assert (rep.derived_series_dims, rep.generations, rep.basis) == ((0,), 0, ())
        assert rep.notes == ("generator 0 dropped: numerically dependent on the others",)


# Coxian-7 laws: equal stage rates, and stage rates spread over 7..1.
COXIAN7 = coxian([7.0] * 7, [0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
COXIAN7_SPREAD = coxian([7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], [0.9, 0.8, 0.7, 0.6, 0.5, 0.4])


class TestPhaseCount:
    """At q = 0 every generator maps the all-ones vector to zero, so the
    algebra lies in {X : X 1 = 0}, of dimension n(n+1); with q > 0 it can
    reach gl(n+1).  The pins agree with an exact rank over GF(2**61 - 1)."""

    @pytest.mark.parametrize(
        "jumps, q, pin",
        [
            (erlang(7, 7.0), 0.0, (56, 9, (56, 55, 55))),
            (erlang(7, 7.0), 0.5, (64, 9, (64, 63, 63))),
            (coxian([3.0, 2.0, 1.0], [0.7, 0.5]), 0.0, (10, 5, (10, 8, 8))),
            (coxian([3.0, 2.0, 1.0], [0.7, 0.5]), 0.5, (13, 5, (13, 11, 11))),
        ],
        ids=["erlang7-q0", "erlang7-q0.5", "coxian3-q0", "coxian3-q0.5"],
    )
    def test_closure_pins(self, jumps, q, pin):
        rep = closure(build_generators(model(q, lam=0.5, jumps=jumps)))
        assert (rep.dimension, rep.generations, rep.derived_series_dims) == pin
        assert rep.closed

    @pytest.mark.parametrize(
        "jumps",
        [erlang(k, float(k)) for k in range(2, 8)] + [coxian([3.0, 2.0, 1.0], [0.7, 0.5]), COXIAN7],
        ids=[f"erlang{k}" for k in range(2, 8)] + ["coxian3", "coxian7"],
    )
    def test_zero_kill_basis_annihilates_ones(self, jumps):
        rep = closure(build_generators(model(0.0, lam=0.5, jumps=jumps)))
        ones = np.ones(jumps.n + 1)
        assert max(np.linalg.norm(X @ ones) for X in rep.basis) <= 1e-9
        assert rep.dimension <= jumps.n * (jumps.n + 1)

    @pytest.mark.xfail(
        strict=True,
        reason="rounding in directions found with small singular values (down to 1e-4) "
        "is amplified generation by generation until a noise direction passes SPAN_TOL",
    )
    def test_spread_rate_coxian7_zero_kill_dimension(self):
        rep = closure(build_generators(model(0.0, lam=0.5, jumps=COXIAN7_SPREAD)))
        assert rep.dimension == 56  # exact rank over GF(2**61 - 1)

    @pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
    @pytest.mark.parametrize("m", range(2, 12))
    def test_basis_of_gl(self, m, rotated):
        basis = np.eye(m * m)
        if rotated:  # commutators of a rotated basis carry rounding in every entry
            basis, _ = np.linalg.qr(np.random.default_rng(m).normal(size=(m * m, m * m)))
        dims = (m * m, m * m - 1, m * m - 1)
        assert is_solvable(basis.reshape(m * m, m, m)) == (False, dims)


class TestInputCheck:
    """closure, is_solvable and spans_equal share one check of their input."""

    @pytest.mark.parametrize("call", [closure, is_solvable, lambda ms: spans_equal(ms[:1], ms[1:])],
                             ids=["closure", "is_solvable", "spans_equal"])
    @pytest.mark.parametrize(
        "mats, message",
        [
            ([np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)], "finite entries"),
            ([np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2)], "finite entries"),
            ([np.eye(2), np.eye(3)], "square matrices of one shape"),
            ([np.ones((2, 3))], "square matrices of one shape"),
        ],
        ids=["nan", "inf", "mixed-shapes", "non-square"],
    )
    def test_rejected(self, call, mats, message):
        with pytest.raises(ValueError, match=message):
            call(mats)


class TestIsSolvable:
    def test_zero_kill_series(self):
        # [g,g] = span{T1+T2} is one-dimensional and abelian
        ok, dims = is_solvable([T1, T2])
        assert ok
        assert dims == (2, 1, 0)

    def test_gl2_series_stabilizes_at_sl2(self):
        gl2 = [
            np.eye(2),
            np.diag([1.0, -1.0]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
        ]
        ok, dims = is_solvable(gl2)
        assert not ok
        assert dims == (4, 3, 3)

    def test_strictly_upper_triangular(self):
        ok, dims = is_solvable([np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert ok
        assert dims == (1, 0)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize(
        "jumps",
        [exponential(1.0), erlang(3, 3.0), erlang(6, 6.0), coxian([3.0, 2.0, 1.0], [0.7, 0.5])],
        ids=["exponential", "erlang3", "erlang6", "coxian3"],
    )
    def test_derived_series_never_grows(self, jumps, q):
        report = closure(build_generators(model(q, lam=0.5, jumps=jumps)))
        dims = report.derived_series_dims
        assert all(b <= a for a, b in zip(dims, dims[1:])), dims
        assert report.solvable == (jumps.n == 1 and q == 0.0)

    def test_erlang6_zero_kill_series(self):
        # [g', g'] lies inside g', so rounding outside g' is not a dimension.
        report = closure(build_generators(model(0.0, lam=0.5, jumps=erlang(6, 6.0))))
        assert report.derived_series_dims == (42, 41, 41)

    def test_zero_matrix_spans_nothing(self):
        assert is_solvable([np.zeros((2, 2))]) == (True, (0,))

    def test_not_closed_rejected(self):
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        E21 = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not closed"):
            is_solvable([E12, E21])


class TestBuildGenerators:
    def test_exponential_zero_kill(self):
        mu = 2.0
        G1, G2 = build_generators(model(0.0, mu=mu))
        assert_allclose(G1, [[1.0, -1.0], [0.0, 0.0]])
        assert_allclose(G2, [[0.0, 0.0], [mu, -mu]])

    def test_exponential_positive_kill_top_row(self):
        lam, q = 1.0, 0.5
        G1, _ = build_generators(model(q, lam=lam))
        assert_allclose(G1[0], [(lam + q) / lam, -1.0])

    def test_erlang_lower_block(self):
        pt = erlang(2, 3.0)
        G1, G2 = build_generators(model(0.0, jumps=pt))
        assert G1.shape == (3, 3)
        assert_allclose(G2[1:, 0], pt.b)
        assert_allclose(G2[1:, 1:], pt.B)
        assert_allclose(G2[0], 0.0)

    def test_upward_direction_flips_lower_block(self):
        pt = exponential(2.0)
        m = ModelSpec(ConstantDrift(1.0), 1.0, 0.0, pt, jump_direction="upward")
        _, G2 = build_generators(m)
        assert_allclose(G2[1:, 0], -pt.b)
        assert_allclose(G2[1:, 1:], -pt.B)

    def test_zero_jump_rate_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(ConstantDrift(1.0), 0.0, 0.0, exponential(2.0))


class TestModelClosureGate:
    """For one-phase exponential jumps the kill rate decides solvability."""

    def test_zero_kill_solvable(self):
        rep = closure(list(build_generators(model(0.0))))
        assert (rep.dimension, rep.solvable) == (2, True)

    @pytest.mark.parametrize("q", [0.25, 2.0])
    def test_positive_kill_not_solvable(self, q):
        rep = closure(list(build_generators(model(q))))
        assert (rep.dimension, rep.solvable) == (4, False)
        assert rep.derived_series_dims == (4, 3, 3)


class TestSpansEqual:
    def test_zero_matrix_adds_nothing(self):
        I, Z = np.eye(2), np.zeros((2, 2))
        assert not spans_equal([Z], [I])
        assert not spans_equal([I], [Z])
        assert spans_equal([I, Z], [I])

    def test_scaled_and_recombined_bases(self):
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spans_equal([np.eye(2), E12], [3.0 * np.eye(2) + E12, -2.0 * E12])
        assert not spans_equal([np.eye(2)], [np.eye(2), E12])
