"""Matrix Lie-algebra closure and solvability.

The first-passage linear system is integrable by quadratures when its
coefficient matrices lie, for every state, in a solvable matrix Lie
algebra.  This module computes the smallest Lie algebra containing given
generator matrices and decides solvability via the derived series, using
numerically rank-revealing span maintenance.
"""

from __future__ import annotations

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

#: Residual threshold for rank decisions, relative to generator norms
#: (generators are normalized to unit Frobenius norm before spanning).
SPAN_TOL = 1e-9


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator [A, B] = A B - B A."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"commutator needs equal square shapes, got {A.shape} and {B.shape}")
    return A @ B - B @ A


class _Span:
    """Orthonormal basis of flattened matrices under the Frobenius inner product.

    The basis rows live in a preallocated ``(dim, dim)`` array; the first
    ``count`` rows are in use.  Classical Gram-Schmidt with one
    re-orthogonalization pass; the residual threshold is absolute because
    all inputs are pre-normalized.
    """

    def __init__(self, dim: int):
        self.rows = np.empty((dim, dim))
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def _project_out(self, v: np.ndarray) -> np.ndarray:
        Q = self.rows[: self.count]
        return v - (Q @ v) @ Q

    def residual(self, M: np.ndarray) -> tuple[np.ndarray, float]:
        v = M.reshape(-1).astype(float)
        r = self._project_out(self._project_out(v))
        return r, float(np.linalg.norm(r))

    def try_add(self, M: np.ndarray) -> bool:
        """Add the component of M orthogonal to the span; False if dependent."""
        if self.count == len(self.rows):
            return False  # the span is the whole space
        v = M.reshape(-1).astype(float)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return False
        r = self._project_out(v / nv)
        nr = np.linalg.norm(r)
        if nr <= SPAN_TOL:
            return False
        r = self._project_out(r / nr)
        self.rows[self.count] = r / np.linalg.norm(r)
        self.count += 1
        return True

    def matrices(self, n: int) -> np.ndarray:
        """The basis as an ``(count, n, n)`` stack (a view; rows are never rewritten)."""
        return self.rows[: self.count].reshape(-1, n, n)


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

    Seeds the span with the (normalized) generators, then repeatedly
    commutates every basis element against the newest ones, projecting out
    the current span and keeping any residual direction above ``SPAN_TOL``.
    Terminates when a generation adds nothing or the span is all of gl(n).
    """
    if len(generators) == 0:
        raise ValueError("need at least one generator")
    mats = [np.asarray(g, float) for g in generators]
    n = mats[0].shape[0]
    for g in mats:
        if g.shape != (n, n):
            raise ValueError("all generators must share one square shape")

    notes: list[str] = []
    span = _Span(n * n)
    for i, g in enumerate(mats):
        norm = np.linalg.norm(g)
        if norm == 0.0 or not span.try_add(g / norm):
            notes.append(f"generator {i} dropped: numerically dependent on the others")

    frontier = list(span.matrices(n))
    generations = 0
    while frontier and len(span) < n * n:
        generations += 1
        new: list[np.ndarray] = []
        for a in span.matrices(n):
            for f in frontier:
                # [f, a] = -[a, f] exactly, so one order spans both.
                if span.try_add(commutator(a, f)):
                    new.append(span.matrices(n)[-1])
        frontier = new

    basis_mats = span.matrices(n)
    dimension = len(basis_mats)
    cap_reached = dimension == n * n
    # All of gl(n) is closed trivially.
    closed = cap_reached or _closure_residual(basis_mats) <= SPAN_TOL
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


def _closure_residual(basis: Sequence[np.ndarray]) -> float:
    span = _Span(basis[0].size)
    for m in basis:
        span.try_add(m / np.linalg.norm(m))
    worst = 0.0
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            c = commutator(a, b)
            nc = np.linalg.norm(c)
            if nc == 0.0:
                continue
            _, r = span.residual(c / nc)
            worst = max(worst, r)
    return worst


def _derived_span(basis: Sequence[np.ndarray]) -> list[np.ndarray]:
    n = basis[0].shape[0]
    # [h, h] lies inside h exactly, so each commutator is projected onto h
    # first: its rounding error outside h must not count as a dimension.
    outer = _Span(n * n)
    for m in basis:
        outer.try_add(m)
    Q = outer.rows[: outer.count]
    span = _Span(n * n)
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            c = (Q @ commutator(a, b).reshape(-1)) @ Q
            nc = np.linalg.norm(c)
            if nc > 0.0:
                span.try_add(c / nc)
    return span.matrices(n)


def is_solvable(basis: Sequence[np.ndarray]) -> tuple[bool, tuple[int, ...]]:
    """Decide solvability of the algebra spanned by ``basis``.

    Computes the derived series g >= [g,g] >= [[g,g],[g,g]] >= ... with the
    same rank-revealing projection used by :func:`closure`; solvable iff the
    dimensions reach zero.  Returns ``(verdict, dims)`` where ``dims`` starts
    at ``len(basis)`` and, on stabilization, repeats the limiting dimension.

    Raises
    ------
    ValueError
        If the input does not span a closed Lie algebra ("not closed").
    """
    basis = [np.asarray(m, float) for m in basis]
    if not basis:
        return True, (0,)
    if _closure_residual(basis) > SPAN_TOL:
        raise ValueError("not closed: commutators leave the span of the basis")

    dims = [len(basis)]
    current = list(basis)
    while True:
        derived = _derived_span(current)
        dims.append(len(derived))
        if len(derived) == 0:
            return True, tuple(dims)
        if len(derived) >= dims[-2]:
            return False, tuple(dims)
        current = derived


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
    """True iff both bases span the same subspace (mutual projection residuals)."""
    a = [np.asarray(m, float) for m in basis_a]
    b = [np.asarray(m, float) for m in basis_b]
    if not a and not b:
        return True

    def contained(xs, ys):
        if not xs:
            return True
        if not ys:
            return False
        span = _Span(xs[0].size)
        for m in ys:
            span.try_add(m / np.linalg.norm(m))
        for m in xs:
            _, r = span.residual(m / np.linalg.norm(m))
            if r > SPAN_TOL:
                return False
        return True

    return contained(a, b) and contained(b, a)
