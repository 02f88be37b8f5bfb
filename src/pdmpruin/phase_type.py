"""Phase-type jump-size distributions.

A phase-type random variable is the time to absorption of a finite-state
Markov chain with subgenerator matrix ``B`` (nonnegative off-diagonal
entries, negative diagonal, nonpositive row sums) started from the
probability row vector ``beta``.  Its tail is ``beta @ expm(B x) @ 1`` and
its density ``beta @ expm(B x) @ b`` with exit-rate vector ``b = -B @ 1``.

``tail`` and ``density`` evaluate these by uniformisation (Moler & Van Loan,
SIAM Rev. 45, 2003, section 4): with theta = max_i |B_ii| and the
nonnegative matrix P = I + B / theta,

    beta e^{B x} v = sum_k Pois(k; theta x) beta P^k v,

a sum of nonnegative terms, so nothing cancels and a defective B (Erlang)
needs no special care.  To keep the tables bounded for any x, e^{B x} is
split as e^{B j h} e^{B r} over windows of fixed Poisson mean theta h; the
rows beta e^{B j h} come from powers of e^{B h}, and the series runs
over the remainder r.  ``matrix_exp`` (Pade) is the reference they are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

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

#: Poisson mean theta h of one uniformisation window; the jump laws of
#: interest stay in the first window over their bulk.
_WINDOW = 32.0

#: Bound on the Poisson mass a window's truncated series drops.
_TRUNCATION = 1e-16

#: Points evaluated per block of an array argument.
_CHUNK = 4096


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

    @cached_property
    def _uniformisation(self) -> "_Uniformisation":
        """Tables of :func:`tail` and :func:`density`."""
        return _Uniformisation(self)

    def mean(self) -> float:
        """First moment, beta @ (-B)^(-1) @ 1."""
        return float(np.sum(np.linalg.solve(-self.B.T, self.beta)))

    def __repr__(self) -> str:
        return f"PhaseType(beta={self.beta.tolist()}, B={self.B.tolist()})"


@cache
def _poisson_terms() -> tuple[np.ndarray, np.ndarray]:
    """The indices k < K of a window's series and ln k!, the same for every law.

    K is the fewest terms whose dropped mass P[N >= K] is provably below
    :data:`_TRUNCATION` for every Poisson mean m up to :data:`_WINDOW`:
    P[N >= K] <= Pois(K; m) (K + 1) / (K + 1 - m) for K + 1 > m (the tail
    against a geometric series), and the bound grows with m below K.
    """
    m, K = _WINDOW, math.ceil(_WINDOW)
    while math.exp(K * math.log(m) - m - math.lgamma(K + 1.0)) * (K + 1) / (K + 1 - m) >= _TRUNCATION:
        K += 1
    return np.arange(K, dtype=float), np.array([math.lgamma(k + 1.0) for k in range(K)])


class _Uniformisation:
    """Uniformisation tables of one law, for beta e^{B x} v with v = 1 and b.

    x splits into windows of Poisson mean theta h = :data:`_WINDOW`:
    e^{B x} = e^{B j h} e^{B r} with 0 <= theta r < theta h.  ``row(j)`` is
    the pair of coefficient rows beta e^{B j h} P^k v, k < K, tail first;
    ``row(0)``, beta P^k 1 and beta P^k b, is kept, and a farther window's
    rows are computed from a power of e^{B h} on each call, so the tables
    stay bounded for any x.  Every entry is nonnegative and none grows, for
    a subgenerator B.
    """

    def __init__(self, pt: PhaseType):
        B = pt.B
        bad = np.argwhere((B - np.diag(np.diag(B))) < 0)
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"B is not a subgenerator: off-diagonal entry ({i}, {j}) = {B[i, j]:g} is negative"
            )
        n = pt.n
        self.theta = float(np.abs(np.diag(B)).max()) or 1.0
        # With nonnegative off-diagonal entries, nonnegative exit rates also
        # make the diagonal nonpositive: P is substochastic.
        b = pt.b
        bad = np.flatnonzero(b < -NORMALIZATION_TOL * self.theta)
        if bad.size:
            i = bad[0]
            raise ValueError(f"B is not a subgenerator: row {i} sums to {-b[i]:g} > 0")
        self._P = np.eye(n) + B / self.theta
        self.k, self.log_factorial = _poisson_terms()
        V = np.empty((self.k.size, n, 2))  # the columns P^k 1 and P^k b
        V[0, :, 0] = 1.0
        V[0, :, 1] = b
        for k in range(1, self.k.size):
            V[k] = self._P @ V[k - 1]
        self._V = V
        self._beta = pt.beta
        self._row0 = self._coefficients(pt.beta)

    def _coefficients(self, u: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((u @ self._V).T)

    @cached_property
    def _window(self) -> np.ndarray:
        """e^{B h} = sum_k Pois(k; theta h) P^k."""
        w = _weights(self, np.float64(_WINDOW))
        # Every window repeats the rounding of these weights; their sum,
        # made 1 to rounding, keeps it from compounding.
        w /= w.sum()
        E, Pk = np.zeros_like(self._P), np.eye(self._P.shape[0])
        for wk in w:
            E += wk * Pk
            Pk = Pk @ self._P
        return E

    def row(self, j: int) -> np.ndarray:
        """Coefficient rows of window ``j``, shape (2, K)."""
        if j == 0:
            return self._row0
        return self._coefficients(self._beta @ np.linalg.matrix_power(self._window, j))


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


def tail(pt: PhaseType, x):
    """Survival function P[C > x] = beta @ exp(B x) @ 1.

    ``x`` is a number (the result is a float) or an array of points (the
    result has its shape); either way each point is summed the same way,
    so an array gives the scalar calls' values bit for bit.
    """
    return _transform(pt, x, 0)


def density(pt: PhaseType, x):
    """Density beta @ exp(B x) @ b, the negative derivative of the tail;
    ``x`` as for :func:`tail`."""
    return _transform(pt, x, 1)


def _transform(pt: PhaseType, x, which: int):
    """beta e^{B x} v at the points ``x``: v = 1 for ``which`` 0, v = b for 1."""
    table = pt._uniformisation
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        s = float(x) * table.theta
        if not 0.0 <= s < math.inf:
            raise ValueError("jump sizes are nonnegative and finite: 0 <= x < inf required")
        j, lam = divmod(s, _WINDOW)
        return float(np.add.reduce(_weights(table, np.float64(lam)) * table.row(int(j))[which]))
    x = np.asarray(x, dtype=float)
    s = x.ravel() * table.theta
    if not np.all((s >= 0.0) & (s < math.inf)):
        raise ValueError("jump sizes are nonnegative and finite: 0 <= x < inf required")
    out = np.empty(s.shape)
    for start in range(0, s.size, _CHUNK):
        j, lam = np.divmod(s[start : start + _CHUNK], _WINDOW)
        windows, inverse = np.unique(j, return_inverse=True)
        rows = np.stack([table.row(int(v))[which] for v in windows])[inverse.ravel()]
        out[start : start + _CHUNK] = np.add.reduce(_weights(table, lam) * rows, axis=1)
    return out.reshape(x.shape)


def _weights(table: _Uniformisation, lam):
    """Pois(k; lam) for k < K: a row per entry of an array ``lam``, one row
    for a scalar.  ``lam ** k`` is exact at lam = 0 and keeps the terms of
    every Poisson mean up to :data:`_WINDOW` far from overflow."""
    lam = lam[..., None]
    return lam ** table.k * np.exp(-lam - table.log_factorial)


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
