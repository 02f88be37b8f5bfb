"""Matrix Lie-algebra closure and solvability.

The first-passage linear system is integrable by quadratures when its
coefficient matrices lie, for every state, in a solvable matrix Lie
algebra.  This module computes the smallest Lie algebra containing given
generator matrices and decides solvability via the derived series.

Matrices are handled as flattened rows under the Frobenius inner product,
and every span is an orthonormal stack of such rows.  Each rank decision is
made for a whole batch at once: the commutators of a generation are
computed together, the current span is projected out of them twice, and the
right singular vectors of what remains whose singular values exceed
``SPAN_TOL`` join the span.  Only the seed generators are normalized; a
commutator of unit-norm basis elements is tested at its own size, so one
that vanishes up to rounding stays below the threshold.  The derived series
makes the same decision on [h, h] in the coordinates of h, where it lies
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .passage_model import ModelSpec

__all__ = [
    "ClosureReport",
    "commutator",
    "closure",
    "is_solvable",
    "build_generators",
    "spans_equal",
]

#: Singular-value threshold for rank decisions.  Seed generators are
#: normalized to unit Frobenius norm; commutators of the resulting
#: orthonormal basis are tested unnormalized.
SPAN_TOL = 1e-9


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator [A, B] = A B - B A."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"commutator needs equal square shapes, got {A.shape} and {B.shape}")
    return A @ B - B @ A


def _as_stack(mats: Sequence[np.ndarray], name: str) -> np.ndarray:
    """The input as a ``(k, n, n)`` stack; square, one shape, finite, else ValueError."""
    mats = [np.asarray(m, float) for m in mats]
    shapes = sorted({m.shape for m in mats})
    if len(shapes) > 1 or any(len(s) != 2 or s[0] != s[1] for s in shapes):
        raise ValueError(f"{name} needs square matrices of one shape, got shapes {shapes}")
    stack = np.array(mats) if mats else np.empty((0, 0, 0))
    if not np.isfinite(stack).all():
        raise ValueError(f"{name} needs matrices with finite entries")
    return stack


def _unit_rows(stack: np.ndarray) -> np.ndarray:
    """The matrices as unit-norm flattened rows; zero matrices are dropped."""
    rows = stack.reshape(len(stack), stack.shape[1] ** 2)
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0.0
    return rows[keep] / norms[keep, None]


def _project_out(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The rows of V with their components along the orthonormal rows Q removed, twice."""
    for _ in range(2):
        V = V - (V @ Q.T) @ Q
    return V


def _span(V: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions of V with singular value above SPAN_TOL."""
    _, s, Vt = np.linalg.svd(V, full_matrices=False)
    return Vt[s > SPAN_TOL]


def _commutators(Q: np.ndarray, start: int = 0) -> np.ndarray:
    """Flattened [q_i, q_j] for the rows of Q, each pair i < j with j >= start once.

    [q_j, q_i] = -[q_i, q_j] and [q, q] = 0 exactly, so these span all of [Q, Q[start:]].
    """
    n = math.isqrt(Q.shape[1])
    M = Q.reshape(-1, n, n)
    i, j = np.triu_indices(len(M), 1)
    i, j = i[j >= start], j[j >= start]
    return (M[i] @ M[j] - M[j] @ M[i]).reshape(-1, n * n)


def _residual(Q: np.ndarray, V: np.ndarray) -> float:
    """Largest norm of a row of V outside the span of the orthonormal rows Q."""
    return float(np.linalg.norm(_project_out(Q, V), axis=1).max(initial=0.0))


@dataclass(frozen=True)
class ClosureReport:
    """Computed Lie algebra: orthonormal basis, dimension, solvability verdict."""

    basis: tuple[np.ndarray, ...]
    dimension: int
    closed: bool
    solvable: bool
    derived_series_dims: tuple[int, ...]
    generations: int
    cap_reached: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "closed": self.closed,
            "solvable": self.solvable,
            "derived_series_dims": list(self.derived_series_dims),
            "generations": self.generations,
            "cap_reached": self.cap_reached,
            "notes": list(self.notes),
            "basis": [m.tolist() for m in self.basis],
        }


def closure(generators: Sequence[np.ndarray]) -> ClosureReport:
    """Smallest matrix Lie algebra containing the generators.

    Seeds the span with the normalized generators, then each generation
    commutates every basis element against the previous generation's new
    ones and adds the directions the span lacks (see the module docstring).
    Terminates when a generation adds nothing or the span is all of gl(n).
    Zero generators alone span the zero algebra.
    """
    stack = _as_stack(generators, "closure")
    if len(stack) == 0:
        raise ValueError("need at least one generator")
    n = stack.shape[1]

    notes: list[str] = []
    basis = np.empty((0, n * n))
    for i, g in enumerate(stack):
        new = _span(_project_out(basis, _unit_rows(g[None])))
        if len(new) == 0:
            notes.append(f"generator {i} dropped: numerically dependent on the others")
        basis = np.vstack([basis, new])

    frontier = basis
    generations = 0
    while len(frontier) and len(basis) < n * n:
        generations += 1
        frontier = _span(_project_out(basis, _commutators(basis, len(basis) - len(frontier))))
        basis = np.vstack([basis, frontier])

    basis_mats = basis.reshape(-1, n, n)
    dimension = len(basis_mats)
    cap_reached = dimension == n * n
    # All of gl(n) is closed trivially.
    closed = cap_reached or _residual(basis, _commutators(basis)) <= SPAN_TOL
    if closed:
        solvable, dims = is_solvable(basis_mats)
    else:
        solvable, dims = False, (dimension,)
    return ClosureReport(
        basis=tuple(basis_mats),
        dimension=dimension,
        closed=closed,
        solvable=solvable,
        derived_series_dims=dims,
        generations=generations,
        cap_reached=cap_reached,
        notes=tuple(notes),
    )


def is_solvable(basis: Sequence[np.ndarray]) -> tuple[bool, tuple[int, ...]]:
    """Decide solvability of the algebra spanned by ``basis``.

    Computes the derived series g >= [g,g] >= [[g,g],[g,g]] >= ... with the
    same rank decision used by :func:`closure`; solvable iff the dimensions
    reach zero.  Returns ``(verdict, dims)`` where ``dims`` starts at the
    dimension of the span of ``basis`` and, on stabilization, repeats the
    limiting dimension.

    Raises
    ------
    ValueError
        If the input does not span a closed Lie algebra ("not closed").
    """
    stack = _as_stack(basis, "is_solvable")
    h = _span(_unit_rows(stack))
    # All of gl(n) is closed trivially.
    if len(h) < h.shape[1] and _residual(h, _commutators(h)) > SPAN_TOL:
        raise ValueError("not closed: commutators leave the span of the basis")

    dims = [len(h)]
    while len(h):
        # [h, h] lies inside h exactly, so the commutators are taken in h's
        # coordinates: their rounding error outside h must not count as a
        # dimension.
        h = _span(_commutators(h) @ h.T) @ h
        dims.append(len(h))
        if dims[-1] == dims[-2]:
            return False, tuple(dims)
    return True, tuple(dims)


def build_generators(model: "ModelSpec") -> tuple[np.ndarray, np.ndarray]:
    """Generator pair of the first-passage system matrix family.

    Returns (n+1)x(n+1) matrices T1, T2 such that the system matrix is
    ``(jump_rate / drift(x)) * T1 + T2``: T1 carries the top row
    ``((lam+q)/lam, -beta)``, T2 the lower block ``(b | B)`` (sign-flipped
    for upward jumps).
    """
    lam = model.jump_rate
    q = model.kill_rate
    if lam <= 0:
        raise ValueError("jump_rate must be positive (T1 is scaled by 1/lam)")
    pt = model.jumps
    n = pt.n
    T1 = np.zeros((n + 1, n + 1))
    T1[0, 0] = (lam + q) / lam
    T1[0, 1:] = -pt.beta
    T2 = np.zeros((n + 1, n + 1))
    sign = -1.0 if model.jump_direction == "upward" else 1.0
    T2[1:, 0] = sign * pt.b
    T2[1:, 1:] = sign * pt.B
    return T1, T2


def spans_equal(basis_a: Sequence[np.ndarray], basis_b: Sequence[np.ndarray]) -> bool:
    """True iff both bases span the same subspace (mutual projection residuals).

    Zero matrices add nothing to a span.
    """
    a = list(basis_a)
    stack = _as_stack(a + list(basis_b), "spans_equal")
    qa, qb = _span(_unit_rows(stack[: len(a)])), _span(_unit_rows(stack[len(a) :]))
    return _residual(qa, qb) <= SPAN_TOL and _residual(qb, qa) <= SPAN_TOL
