"""Phase-type jump-size distributions.

A phase-type random variable is the time to absorption of a finite-state
Markov chain with subgenerator matrix ``B`` (nonnegative off-diagonal
entries, negative diagonal, nonpositive row sums) started from the
probability row vector ``beta``.  Its tail is ``beta @ expm(B x) @ 1`` and
its density ``beta @ expm(B x) @ b`` with exit-rate vector ``b = -B @ 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PhaseType",
    "ValidationReport",
    "CheckResult",
    "exponential",
    "erlang",
    "coxian",
    "validate",
    "tail",
    "density",
    "sample",
    "matrix_exp",
]

#: Tolerance for the normalization of beta and for b = -B @ 1.
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single invariant check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for every distribution invariant."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status}: {c.name}{suffix}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class PhaseType:
    """Phase-type distribution given by (beta, B); the exit vector b is derived.

    Parameters
    ----------
    beta : array_like, shape (n,)
        Initial probability row vector over phases.
    B : array_like, shape (n, n)
        Subgenerator matrix in rate units (1 / jump size).
    """

    beta: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if beta.ndim != 1:
            raise ValueError("beta must be a vector")
        n = beta.shape[0]
        if B.shape != (n, n):
            raise ValueError(f"B must be {n}x{n} to match beta, got {B.shape}")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(B))):
            raise ValueError("phase-type beta and B must be finite")
        beta.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def b(self) -> np.ndarray:
        """Exit-rate column vector, always recomputed as -B @ 1."""
        return -self.B @ np.ones(self.n)

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sampler tables: the mean holding time of each phase; the
        cumulative embedded chain, transposed, so that ``cumT[j][i]`` is the
        chance that phase i moves next to one of phases 0..j (phase n is
        absorption); and the cumulative start law."""
        if np.any(self.beta < 0) or not self.beta.sum() > 0:
            raise ValueError("beta must be a probability vector to sample")
        n = self.n
        exit_rates = -np.diag(self.B)
        if not np.all(exit_rates > 0):
            raise ValueError("B must have a negative diagonal to sample")
        P = np.empty((n, n + 1))
        P[:, :n] = (self.B - np.diag(np.diag(self.B))) / exit_rates[:, None]
        P[:, n] = self.b / exit_rates
        start = np.cumsum(self.beta / self.beta.sum())
        start /= start[-1]
        return 1.0 / exit_rates, np.ascontiguousarray(np.cumsum(P, axis=1).T), start

    def mean(self) -> float:
        """First moment, beta @ (-B)^(-1) @ 1."""
        return float(np.sum(np.linalg.solve(-self.B.T, self.beta)))

    def to_dict(self) -> dict:
        return {"beta": self.beta.tolist(), "B": self.B.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseType":
        unknown = set(data) - {"beta", "B", "b"}
        if unknown:
            raise ValueError(f"unknown phase-type fields: {sorted(unknown)}")
        # b, if present, is ignored: it is derived, never read.
        return cls(np.asarray(data["beta"], float), np.asarray(data["B"], float))

    def __repr__(self) -> str:
        return f"PhaseType(beta={self.beta.tolist()}, B={self.B.tolist()})"


def exponential(mu: float) -> PhaseType:
    """One-phase representation of the exponential law with rate mu."""
    if mu <= 0:
        raise ValueError("rate must be positive")
    return PhaseType(np.array([1.0]), np.array([[-mu]]))


def erlang(k: int, mu: float) -> PhaseType:
    """Erlang(k) with stage rate mu: beta = e_1, bidiagonal subgenerator."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if mu <= 0:
        raise ValueError("rate must be positive")
    B = -mu * np.eye(k)
    for i in range(k - 1):
        B[i, i + 1] = mu
    beta = np.zeros(k)
    beta[0] = 1.0
    return PhaseType(beta, B)


def coxian(rates, continue_probs) -> PhaseType:
    """Coxian chain: stage i exits at rate*(1-p_i) or moves on at rate*p_i."""
    rates = np.asarray(rates, float)
    ps = np.asarray(continue_probs, float)
    k = rates.shape[0]
    if ps.shape[0] != k - 1:
        raise ValueError("need one continuation probability per non-final stage")
    if np.any(rates <= 0) or np.any(ps < 0) or np.any(ps > 1):
        raise ValueError("rates must be positive and probabilities in [0,1]")
    B = np.diag(-rates)
    for i in range(k - 1):
        B[i, i + 1] = rates[i] * ps[i]
    beta = np.zeros(k)
    beta[0] = 1.0
    return PhaseType(beta, B)


def validate(pt: PhaseType) -> ValidationReport:
    """Check every subgenerator invariant; report-style, never raises."""
    checks: list[CheckResult] = []
    B = pt.B
    beta = pt.beta
    n = pt.n

    off = B - np.diag(np.diag(B))
    bad = np.argwhere(off < 0)
    checks.append(
        CheckResult(
            "off-diagonal entries of B nonnegative",
            bad.size == 0,
            "" if bad.size == 0 else f"entry ({bad[0][0]}, {bad[0][1]}) = {off[tuple(bad[0])]:g}",
        )
    )

    diag = np.diag(B)
    bad_d = np.where(diag >= 0)[0]
    checks.append(
        CheckResult(
            "diagonal must be negative",
            bad_d.size == 0,
            "" if bad_d.size == 0 else f"entry ({bad_d[0]},{bad_d[0]}) = {diag[bad_d[0]]:g}",
        )
    )

    row_sums = B.sum(axis=1)
    bad_r = np.where(row_sums > NORMALIZATION_TOL)[0]
    checks.append(
        CheckResult(
            "row sums of B nonpositive",
            bad_r.size == 0,
            "" if bad_r.size == 0 else f"row {bad_r[0]} sums to {row_sums[bad_r[0]]:g}",
        )
    )
    checks.append(
        CheckResult(
            "at least one strictly negative row sum",
            bool(np.any(row_sums < -NORMALIZATION_TOL)),
        )
    )

    bad_beta = np.where(beta < 0)[0]
    beta_nonneg = bad_beta.size == 0
    beta_norm = abs(beta.sum() - 1.0) <= NORMALIZATION_TOL
    checks.append(
        CheckResult(
            "beta entries nonnegative",
            beta_nonneg,
            "" if beta_nonneg else f"entry {bad_beta[0]} = {beta[bad_beta[0]]:g}",
        )
    )
    checks.append(
        CheckResult(
            "beta sums to 1",
            beta_norm,
            "" if beta_norm else f"sum = {beta.sum():.17g}",
        )
    )

    b = pt.b
    bad_b = np.where(b < -NORMALIZATION_TOL)[0]
    checks.append(
        CheckResult(
            "exit rates b = -B@1 nonnegative",
            bad_b.size == 0,
            "" if bad_b.size == 0 else f"entry {bad_b[0]} = {b[bad_b[0]]:g}",
        )
    )

    eigs = np.linalg.eigvals(B)
    stable = bool(np.all(eigs.real < 0))
    checks.append(
        CheckResult(
            "eigenvalues of B have negative real part",
            stable,
            "" if stable else f"max Re(eig) = {eigs.real.max():g}",
        )
    )
    return ValidationReport(tuple(checks))


# Pade approximant coefficients b_0..b_m of exp for the orders m of the
# scaling-and-squaring algorithm, and the largest 1-norm theta_m at which
# order m alone meets double-precision backward error (Higham, SIAM J. Matrix
# Anal. Appl. 26, 2005, Table 2.3).
_PADE = {
    3: np.array([120.0, 60.0, 12.0, 1.0]),
    5: np.array([30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0]),
    7: np.array([17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0]),
    9: np.array([17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
                 2162160.0, 110880.0, 3960.0, 90.0, 1.0]),
    13: np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                  1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
                  33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0]),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of exp(A): (V - U)^{-1} (V + U), with U the
    odd and V the even part of the numerator polynomial."""
    b = _PADE[m]
    A2 = A @ A
    powers = [np.eye(A.shape[0]), A2]  # A^0, A^2, ..., A^(m-1)
    for _ in range(m // 2 - 1):
        powers.append(powers[-1] @ A2)
    P = np.array(powers).reshape(len(powers), -1)
    U = A @ (b[1::2] @ P).reshape(A.shape)
    V = (b[0::2] @ P).reshape(A.shape)
    return np.linalg.solve(V - U, V + U)


def matrix_exp(M, t: float = 1.0) -> np.ndarray:
    """exp(M t) by Pade scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005).

    The exact 1-norm of M t picks the lowest Pade order 3, 5, 7, 9 or 13
    whose theta_m bounds it; past theta_13 the matrix is halved s times,
    approximated at order 13 and squared s times.  It needs no
    eigendecomposition, so defective matrices such as Erlang subgenerators
    are handled exactly like any other; a 1 x 1 matrix is ``np.exp``.

    Raises
    ------
    OverflowError
        If the result is non-finite.
    ValueError
        For non-square or non-finite input.
    """
    A = np.asarray(M, dtype=float) * t
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix_exp needs finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.exp(A) if A.shape == (1, 1) else _scaled_pade(A)
    if not np.all(np.isfinite(E)):
        raise OverflowError("matrix_exp overflowed")
    return E


def _scaled_pade(A: np.ndarray) -> np.ndarray:
    norm = np.abs(A).sum(axis=0).max()  # the 1-norm
    for m in (3, 5, 7, 9):
        if norm <= _THETA[m]:
            return _pade(A, m)
    if not math.isfinite(norm):
        raise OverflowError("matrix_exp overflowed")
    s = max(0, math.ceil(math.log2(norm / _THETA[13])))
    E = _pade(A / 2.0**s, 13)
    for _ in range(s):
        E = E @ E
    return E


def tail(pt: PhaseType, x: float) -> float:
    """Survival function P[C > x] = beta @ exp(B x) @ 1."""
    if x < 0:
        raise ValueError("jump sizes are nonnegative: x >= 0 required")
    return float(pt.beta @ matrix_exp(pt.B, x) @ np.ones(pt.n))


def density(pt: PhaseType, x: float) -> float:
    """Density beta @ exp(B x) @ b, the negative derivative of the tail."""
    if x < 0:
        raise ValueError("jump sizes are nonnegative: x >= 0 required")
    return float(pt.beta @ matrix_exp(pt.B, x) @ pt.b)


def sample(pt: PhaseType, rng: np.random.Generator, size: int | None = None):
    """Draw absorption times by simulating the underlying chain.

    Exact in distribution for any number of phases: exponential holding
    times with the diagonal rates, discrete phase transitions with the
    embedded-chain probabilities.  The caller owns ``rng``; concurrent
    callers must each use their own generator.

    A one-phase law is drawn directly, as one exponential per draw; it
    still spends the start and absorption uniforms of the chain walk, so
    the generator's stream is the same either way.
    """
    n = pt.n
    N = 1 if size is None else int(size)
    holding, cumT, start = pt._chain
    if n == 1:
        rng.random(N)
        total = rng.exponential(holding[0], N)
        rng.random(N)
        return float(total[0]) if size is None else total
    # The inverse-CDF draw Generator.choice(n, size=N, p=beta) makes.
    cur = start.searchsorted(rng.random(N), side="right")
    total = np.zeros(N)
    live = np.arange(N)
    while live.size:
        # exponential(scale) is scale * standard_exponential(), draw for draw
        total[live] += rng.standard_exponential(live.size) * holding[cur]
        # The first j with u < cumP[cur, j], else 0, as argmax over the row
        # would give: columns from last to first, the earliest hit wins.
        u = rng.random(live.size)
        nxt = np.zeros(live.size, dtype=np.intp)
        for j in range(n, -1, -1):
            nxt[u < cumT[j][cur]] = j
        stay = nxt != n
        live, cur = live[stay], nxt[stay]
    return float(total[0]) if size is None else total
