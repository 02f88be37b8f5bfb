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
