"""First-passage model assembly, closed forms, and the ODE boundary-value oracle.

The killed ruin probability Psi and the mid-jump companions M_1..M_n of a
piecewise deterministic process with phase-type downward jumps (upward ones
by the reflection x -> -x) satisfy a linear (n+1)-dimensional ODE system
whose matrix is ``(lam/phi(x)) * T1 + T2`` (see
:func:`lie_algebra.build_generators`).
This module holds the drift and model types, assembles that system,
evaluates the closed forms available for one-phase jumps, and provides a
numerical boundary-value solver usable for any phase dimension: an
initial-value integration when the drift is negative, and when it is
positive the linear two-point problem, whose boundary data alone depend on
the posed problem, split into two initial-value integrations by the Riccati
equation of the ratios that carry the far-end condition (the paper's ratio
reduction, extended to n phases).  Constant positive drift on a one-sided
ruin problem is solved exactly instead, by the ladder-height law: with Phi
the largest root of kappa(theta) = c theta - lam (1 - beta (theta I -
B)^{-1} b) = q, M(x) = e^{G (x-l)} 1 and Psi(x) = beta_q M(x), tails of
phase-type laws, for G = B + b beta_q and beta_q = (lam/c) beta (Phi I -
B)^{-1} (Asmussen & Albrecher, 2010, ch. IX; Kyprianou, 2014, ch. 8).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .phase_type import PhaseType, tail, validate

__all__ = [
    "ConstantDrift",
    "SegerdahlDrift",
    "TabulatedDrift",
    "DriftSpec",
    "ModelSpec",
    "PassageProblem",
    "SolutionCurve",
    "NumericalError",
    "assemble_system",
    "constant_drift_root",
    "constant_drift_solution",
    "segerdahl_q0_solution",
    "solve_bvp",
    "ode_residual",
]


class NumericalError(RuntimeError):
    """A solver failed to meet its accuracy or convergence contract."""


def require_finite(where: str, **fields) -> None:
    """Reject NaN and infinite values in the named numeric fields (None is skipped)."""
    for name, value in fields.items():
        if value is not None and not np.all(np.isfinite(np.asarray(value, float))):
            raise ValueError(f"{where} {name} must be finite")


def _check_sim_fields(x0=None, n_paths=None, seed=None, max_time=None, kill_mode="weight"):
    """Reject a simulation field that no problem admits (a field left out
    passes): the one check of ``mc_sim.SimConfig`` and of a config's sim block."""
    require_finite("simulation", x0=x0, max_time=max_time)
    for name, value in (("n_paths", n_paths), ("seed", seed)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_paths is not None and n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if seed is not None and seed < 0:
        raise ValueError("seed must be nonnegative")
    if max_time is not None and max_time <= 0:
        raise ValueError("max_time must be positive")
    if kill_mode not in ("weight", "horizon"):
        raise ValueError("kill_mode must be 'weight' or 'horizon'")


# ---------------------------------------------------------------------------
# Drift specifications
# ---------------------------------------------------------------------------

# Every drift type gives its flow ``flow(x, t)`` and the crossing time
# ``travel_time(x, level)``, both elementwise over arrays.  For a tabulated
# drift both come from the clock F(x) = int dx/phi; the flow is
# F^{-1}(F(x) + t) and the travel time F(level) - F(x).  The clock's
# quadrature is the 10-point Gauss-Legendre rule, written out as the values
# numpy.polynomial.legendre.leggauss(10) gives, so that no step imports
# numpy.polynomial.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
])


def _not_a_knot_slopes(h: np.ndarray, secant: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline with interval widths ``h``
    and secant slopes ``secant``.

    Continuity of the second derivative at the interior knots, and of the
    third at the second and second-to-last knot, is one tridiagonal system,
    solved by the Thomas algorithm in O(n).  Two knots give the line, and
    three the interpolating parabola, where both end conditions coincide.
    """
    n = h.size + 1
    if n == 2:
        return np.array([secant[0], secant[0]])
    if n == 3:
        curve = (secant[1] - secant[0]) / (h[0] + h[1])
        return np.array([secant[0] - curve * h[0], secant[0] + curve * h[0], secant[1] + curve * h[1]])
    lower = np.concatenate(([0.0], h[1:], [h[-1] + h[-2]])).tolist()
    diag = np.concatenate(([h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]])).tolist()
    upper = np.concatenate(([h[0] + h[1]], h[:-1])).tolist()
    first, last = h[0] + h[1], h[-1] + h[-2]
    rhs = np.concatenate((
        [((h[0] + 2.0 * first) * h[1] * secant[0] + h[0] ** 2 * secant[1]) / first],
        3.0 * (h[1:] * secant[:-1] + h[:-1] * secant[1:]),
        [(h[-1] ** 2 * secant[-2] + (2.0 * last + h[-1]) * h[-2] * secant[-1]) / last],
    )).tolist()
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return np.array(s)


@dataclass(frozen=True)
class ConstantDrift:
    """Constant drift phi(x) = c."""

    c: float

    kind = "constant"

    def __post_init__(self):
        require_finite("constant drift", c=self.c)

    @property
    def sign_domain(self) -> tuple[float, float] | None:
        return None if self.c == 0.0 else (-math.inf, math.inf)

    def phi(self, x):
        x = np.asarray(x, float)
        return np.full(x.shape, self.c) if x.ndim else self.c

    def dphi(self, x):
        x = np.asarray(x, float)
        return np.zeros(x.shape) if x.ndim else 0.0

    def flow(self, x, t):
        """Position after time ``t`` (exact)."""
        return np.asarray(x, float) + self.c * np.asarray(t, float)

    def travel_time(self, x, level):
        """Time the flow from ``x`` needs to reach ``level``; +inf if never."""
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (level - np.asarray(x, float)) / self.c
        return np.where(t > 0, t, math.inf)


@dataclass(frozen=True)
class SegerdahlDrift:
    """Exponentially relaxing drift phi(x) = ((lam+q)/mu) (K e^{-2 mu x} - 1).

    The unique solution family of phi' + 2 mu phi + 2 (lam+q) = 0; the
    parameters are carried here so the drift is self-contained even when
    attached to a model with different rates.
    """

    K: float
    lam: float
    q: float
    mu: float

    kind = "segerdahl"

    def __post_init__(self):
        require_finite("relaxing drift", K=self.K, lam=self.lam, q=self.q, mu=self.mu)
        if self.K == 0.0:
            raise ValueError("K must be nonzero (K=0 degenerates to constant drift)")
        if self.mu <= 0 or self.lam <= 0 or self.q < 0:
            raise ValueError("need mu > 0, lam > 0, q >= 0")

    @property
    def x_zero(self) -> float | None:
        """Root of phi, if any (K > 0 only)."""
        if self.K <= 0:
            return None
        return math.log(self.K) / (2.0 * self.mu)

    @property
    def sign_domain(self) -> tuple[float, float]:
        x0 = self.x_zero
        if x0 is None:
            return (-math.inf, math.inf)
        # K < 1 puts the root left of 0; the working half-line is above it.
        # For K > 1 the positive-drift side below the root is the useful one.
        if self.K < 1.0:
            return (x0, math.inf)
        return (-math.inf, x0)

    def phi(self, x):
        x = np.asarray(x, float)
        val = (self.lam + self.q) / self.mu * (self.K * np.exp(-2.0 * self.mu * x) - 1.0)
        return val if x.ndim else float(val)

    def dphi(self, x):
        x = np.asarray(x, float)
        val = -2.0 * (self.lam + self.q) * self.K * np.exp(-2.0 * self.mu * x)
        return val if x.ndim else float(val)

    def flow(self, x, t):
        """Position after time ``t``: exact, the flow is linear in y = e^{2 mu x}."""
        two_mu = 2.0 * self.mu
        y0 = np.exp(two_mu * np.asarray(x, float))
        y = self.K + (y0 - self.K) * np.exp(-2.0 * (self.lam + self.q) * np.asarray(t, float))
        if np.any(y <= 0.0):
            raise ValueError("flow left the representable range (x -> -inf)")
        return np.log(y) / two_mu

    def travel_time(self, x, level):
        """Time the flow from ``x`` needs to reach ``level``; +inf if never.

        y - K decays like e^{-2 (lam+q) t}, so the level is reached iff its
        ratio to the start lies in (0, 1); a start at the equilibrium stays.
        """
        two_mu = 2.0 * self.mu
        y = np.exp(two_mu * np.asarray(x, float))
        yl = math.exp(two_mu * level)
        denom = y - self.K
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (yl - self.K) / denom
            tc = -np.log(ratio) / (2.0 * (self.lam + self.q))
        valid = (denom != 0.0) & (ratio > 0.0) & (ratio < 1.0)
        return np.where(valid, tc, math.inf)


# Newton step at which a tabulated flow's clock inversion stops, unless the
# clock's own rounding is coarser.  Stopping at that rounding alone gives the
# same Monte Carlo answers for more Newton steps.
FLOW_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TabulatedDrift:
    """Drift given on a grid with an interpolation rule ("cubic" or "linear").

    Both rules are one table of polynomial pieces (:attr:`_spline`),
    evaluated with numpy alone: "cubic" is the not-a-knot cubic spline,
    "linear" joins the knots by lines.

    ``sign_domain`` defaults to the full table and must be an interval on
    which the interpolated drift keeps one sign; the table itself may
    extend beyond it.  Flows and crossing times live on the sign domain:
    a flow that would leave it raises :class:`NumericalError`.
    """

    x: tuple[float, ...]
    values: tuple[float, ...]
    interpolation: str = "cubic"
    sign_domain: tuple[float, float] | None = None

    kind = "tabulated"

    def __post_init__(self):
        xs = tuple(float(v) for v in self.x)
        vs = tuple(float(v) for v in self.values)
        if len(xs) != len(vs) or len(xs) < 2:
            raise ValueError("need matching x/value tables with at least 2 nodes")
        require_finite("drift table", x=xs, values=vs)
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("drift table x must be strictly increasing")
        if self.interpolation not in ("cubic", "linear"):
            raise ValueError(f"unknown interpolation rule {self.interpolation!r}")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "values", vs)
        dom = self.sign_domain
        if dom is None:
            dom = (xs[0], xs[-1])
        elif len(dom) != 2:
            raise ValueError("sign_domain must be a pair [lo, hi]")
        else:
            dom = (float(dom[0]), float(dom[1]))
            if not (xs[0] <= dom[0] < dom[1] <= xs[-1]):
                raise ValueError("sign_domain must be an interval inside the table")
        object.__setattr__(self, "sign_domain", dom)
        # Sign constancy on a dense grid; zero drift is rejected outright.
        dense = np.linspace(dom[0], dom[1], max(1024, 8 * len(xs)))
        ph = self._interp(dense)
        if np.any(ph == 0.0) or (ph.max() > 0 and ph.min() < 0):
            raise ValueError("tabulated drift changes sign (or vanishes) on its sign_domain")

    @cached_property
    def _knots(self) -> np.ndarray:
        return np.array(self.x)

    @cached_property
    def _spline(self) -> np.ndarray:
        """The interpolant as one ``(n-1, 4)`` table: row k holds the
        coefficients (c3, c2, c1, c0) of its polynomial in t = x - x_k on
        [x_k, x_{k+1}].

        The "cubic" rule is the not-a-knot cubic spline, the default end
        condition of ``scipy.interpolate.CubicSpline``, built the same way
        (Hermite rows from the knot slopes); "linear" rows have c3 = c2 = 0.
        """
        xs, vs = self._knots, np.array(self.values)
        h = np.diff(xs)
        secant = np.diff(vs) / h
        if self.interpolation == "linear":
            zero = np.zeros(h.size)
            return np.column_stack([zero, zero, secant, vs[:-1]])
        s = _not_a_knot_slopes(h, secant)
        bend = (s[:-1] + s[1:] - 2.0 * secant) / h
        return np.column_stack([bend / h, (secant - s[:-1]) / h - bend, s[:-1], vs[:-1]])

    def _interp(self, x, nu=0):
        """The interpolant at ``x`` (``nu = 0``) or its derivative (``nu = 1``).

        A point takes the piece of the last knot at or before it: a knot its
        right-hand piece, the table's end the last one.  Only evaluated
        inside the table: :meth:`_evaluate` checks the range, and every
        other caller evaluates inside the sign domain.
        """
        x = np.asarray(x, float)
        xs = self._knots
        k = xs[1:-1].searchsorted(x, "right")
        t = x - xs.take(k)
        c = self._spline.take(k, axis=0)
        if nu == 0:
            return ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]
        return (3.0 * c[..., 0] * t + 2.0 * c[..., 1]) * t + c[..., 2]

    @property
    def table_range(self) -> tuple[float, float]:
        return (self.x[0], self.x[-1])

    def phi(self, x):
        return self._evaluate(x, 0)

    def dphi(self, x):
        """The interpolant's own derivative."""
        return self._evaluate(x, 1)

    def _evaluate(self, x, nu):
        arr = np.asarray(x, float)
        lo, hi = self.table_range
        if np.any(arr < lo) or np.any(arr > hi):
            raise ValueError("tabulated drift evaluated outside its table range")
        val = self._interp(arr, nu)
        return val if arr.ndim else float(val)

    @cached_property
    def _clock(self):
        """Knots z of the sign domain, the clock F(z) = int_{z_0}^{z} dx/phi
        at them, and the position resolution the clock's rounding allows."""
        lo, hi = self.sign_domain
        xs = self._knots
        z = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
        F = np.concatenate(([0.0], np.cumsum(self._clock_step(z[:-1], z[1:]))))
        eps = np.finfo(float).eps
        resolution = 8.0 * eps * (np.abs(F).max() * np.abs(self._interp(z)).max() + np.abs(z).max())
        return z, F, resolution

    def _clock_step(self, a, b):
        """int_a^b dx/phi by Gauss-Legendre, elementwise; [a, b] lies in one knot
        interval, where the interpolant is a single polynomial."""
        half = 0.5 * (b - a)
        pts = (a + half)[..., None] + half[..., None] * _GL_NODES
        return half * (_GL_WEIGHTS / self._interp(pts)).sum(axis=-1)

    def _clock_at(self, x):
        """Clock value F(x) of each x in the sign domain."""
        z, F, _ = self._clock
        x = np.asarray(x, float)
        if np.any((x < z[0]) | (x > z[-1])):
            raise NumericalError(
                f"flow left the drift table's sign domain {self.sign_domain}: "
                f"x in [{x.min():g}, {x.max():g}]"
            )
        k = z[1:-1].searchsorted(x, "right")
        return F[k] + self._clock_step(z[k], x)

    def flow(self, x, t):
        """Position after time ``t``: the inverse clock F^{-1}(F(x) + t).

        Newton steps on F with dF/dx = 1/phi, each kept inside the knot
        interval that brackets the target, until the step is at most
        :data:`FLOW_TOL` (or the clock's own rounding).
        """
        z, F, resolution = self._clock
        target = self._clock_at(x) + np.asarray(t, float)
        s = np.sign(F[-1])  # F(z_0) = 0 and F increases along the domain iff phi > 0
        if np.any((s * target < 0.0) | (s * target > s * F[-1])):
            raise NumericalError(
                f"flow left the drift table: its sign domain {self.sign_domain} "
                "ends before the requested time"
            )
        k = (s * F[1:-1]).searchsorted(s * target, "right")
        a, b = z[k], z[k + 1]
        x = a + (b - a) * (target - F[k]) / (F[k + 1] - F[k])
        tol = max(FLOW_TOL, resolution)
        for _ in range(50):
            x_new = np.clip(x - (F[k] + self._clock_step(a, x) - target) * self._interp(x), a, b)
            converged = np.all(np.abs(x_new - x) <= tol)
            x = x_new
            if converged:
                return x
        raise NumericalError("tabulated flow: the clock inversion did not converge")

    def travel_time(self, x, level):
        """Time the flow from ``x`` needs to reach ``level``: F(level) - F(x).

        +inf when the flow moves away from ``level``, or when ``level`` lies
        outside the sign domain (the flow leaves the domain first, and
        :meth:`flow` raises once a path goes there).
        """
        lo, hi = self.sign_domain
        if not lo <= level <= hi:
            return np.full(np.shape(x), math.inf)
        t = self._clock_at(level) - self._clock_at(x)
        return np.where(t > 0, t, math.inf)


DriftSpec = ConstantDrift | SegerdahlDrift | TabulatedDrift


def phi_checked(drift: DriftSpec, x):
    """Drift value(s) with the sign-domain contract enforced."""
    dom = drift.sign_domain
    if dom is None:
        raise ValueError("drift is identically zero: no sign-constant domain")
    arr = np.asarray(x, float)
    if np.any(arr < dom[0]) or np.any(arr > dom[1]):
        raise ValueError(
            f"x outside the drift's sign-constant domain {dom}: got range "
            f"[{arr.min():g}, {arr.max():g}]"
        )
    val = drift.phi(x)
    if np.any(np.asarray(val) == 0.0):
        raise ValueError("drift vanishes at an evaluation point")
    return val


# ---------------------------------------------------------------------------
# Model and problem types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelSpec:
    """The process: drift, jump intensity, kill rate, and jump-size law."""

    drift: DriftSpec
    jump_rate: float
    kill_rate: float
    jumps: PhaseType
    jump_direction: str = "downward"

    def __post_init__(self):
        require_finite("model", jump_rate=self.jump_rate, kill_rate=self.kill_rate)
        if self.jump_rate <= 0:
            raise ValueError("jump_rate must be positive")
        if self.kill_rate < 0:
            raise ValueError("kill_rate must be nonnegative")
        if self.jump_direction not in ("downward", "upward"):
            raise ValueError("jump_direction must be 'downward' or 'upward'")
        report = validate(self.jumps)
        if not report.ok:
            bad = "; ".join(c.name for c in report.failures())
            raise ValueError(f"invalid phase-type jump law: {bad}")

    @property
    def n(self) -> int:
        return self.jumps.n

    def exponential_rate(self) -> float:
        """Rate of one-phase exponential jumps; errors for n > 1."""
        if self.n != 1:
            raise ValueError("needs one-phase exponential jumps")
        return float(-self.jumps.B[0, 0])


@dataclass(frozen=True)
class PassageProblem:
    """What to estimate: passage below ``lower`` or above ``upper`` first.

    ``upper=None`` means an unbounded upper level (one-sided ruin).
    ``overshoot_xi`` is the overshoot penalty exponent (Monte Carlo only).
    """

    lower: float
    upper: float | None = None
    estimand: str = "ruin_below"
    overshoot_xi: float = 0.0

    def __post_init__(self):
        require_finite(
            "problem", lower=self.lower, upper=self.upper, overshoot_xi=self.overshoot_xi
        )
        if self.estimand not in ("ruin_below", "exit_above"):
            raise ValueError("estimand must be 'ruin_below' or 'exit_above'")
        if self.upper is not None and not self.lower < self.upper:
            raise ValueError("degenerate interval: need lower < upper")
        if self.overshoot_xi < 0:
            raise ValueError("overshoot_xi must be nonnegative")
        if self.estimand == "exit_above" and self.upper is None:
            raise ValueError("exit_above needs a finite upper level")

    @property
    def upper_value(self) -> float:
        return math.inf if self.upper is None else self.upper


@dataclass(eq=False)
class SolutionCurve:
    """Sampled (x, Psi(x), M(x)) with method provenance and error estimates."""

    grid: np.ndarray
    psi: np.ndarray
    m: np.ndarray  # shape (len(grid), n)
    method: str
    error_estimate: np.ndarray | None = None
    boundary_residual: float | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float)
        self.psi = np.asarray(self.psi, float)
        m = np.asarray(self.m, float)
        if m.ndim == 1:
            m = m[:, None]
        self.m = m

    @property
    def n_phases(self) -> int:
        return self.m.shape[1]

    def to_csv(self, path) -> None:
        """Columns x, psi, m_1..m_n, method; 17 significant digits, LF endings."""
        from .serialization import write_csv  # serialization imports this module

        cols = ["x", "psi"] + [f"m_{i+1}" for i in range(self.n_phases)] + ["method"]
        rows = [[x, self.psi[i], *self.m[i], self.method] for i, x in enumerate(self.grid)]
        write_csv(path, cols, rows)

    def to_dict(self) -> dict:
        d = {
            "grid": self.grid.tolist(),
            "psi": self.psi.tolist(),
            "m": self.m.tolist(),
            "method": self.method,
        }
        if self.error_estimate is not None:
            d["error_estimate"] = np.asarray(self.error_estimate).tolist()
        if self.boundary_residual is not None:
            d["boundary_residual"] = float(self.boundary_residual)
        return d


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------

def assemble_system(model: ModelSpec) -> Callable[[float | np.ndarray], np.ndarray]:
    """Matrix-valued map x -> A(x) of the first-passage linear system.

    Built literally as (lam/phi(x)) T1 + T2 from the generator pair, so the
    decomposition used by the Lie-closure gate holds by construction.  A
    scalar ``x`` gives the ``(dim, dim)`` matrix; a 1-D array of ``m`` nodes
    gives the ``(dim, dim, m)`` stack with ``A(xs)[:, :, j] == A(xs[j])``
    (the layout :func:`ode_residual` reads), checked against the drift's
    sign domain at every node.
    """
    from .lie_algebra import build_generators

    T1, T2 = build_generators(model)
    lam = model.jump_rate
    drift = model.drift

    def A(x):
        ph = phi_checked(drift, x)
        if np.ndim(x) == 0:
            return (lam / ph) * T1 + T2
        return (lam / ph) * T1[:, :, None] + T2[:, :, None]

    return A


# ---------------------------------------------------------------------------
# Closed forms (one-phase exponential jumps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantDriftRoot:
    """Ratio root of the constant-drift characteristic quadratic."""

    eta: float
    eta_other: float
    critical: bool


def constant_drift_root(model: ModelSpec) -> ConstantDriftRoot:
    """Smallest positive root of c*mu*eta^2 - (c*mu+lam+q)*eta + lam = 0."""
    if not isinstance(model.drift, ConstantDrift):
        raise ValueError("needs constant drift")
    c = model.drift.c
    if c <= 0:
        raise ValueError("needs positive drift c > 0")
    mu = model.exponential_rate()
    if model.jump_direction != "downward":
        raise ValueError("needs downward jumps")
    a, lam, q = c * mu, model.jump_rate, model.kill_rate
    # eta = 2 lam / D, D = a + lam + q + S summed as 2 lam + q + (d + S):
    # S >= |d| holds in floats too, so eta <= 1 to the bit.  S is taken by
    # hypot, so that no square overflows.
    d = a - lam
    S = math.hypot(d, math.sqrt(q) * math.sqrt(q + 2.0 * (a + lam)))
    D = 2.0 * lam + q + (d + S)
    if not D < math.inf:
        raise ValueError("needs the quadratic's coefficients within the float range")
    return ConstantDriftRoot(2.0 * lam / D, D / (2.0 * a), S == 0.0)


def constant_drift_solution(model: ModelSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Killed ruin pair for constant drift: M = e^{-(1-eta) mu x}, Psi = eta M."""
    root = constant_drift_root(model)
    mu = model.exponential_rate()
    arr = np.asarray(x, float)
    m = np.exp(-(1.0 - root.eta) * mu * arr)
    psi = root.eta * m
    return psi, m


# Largest factor by which the relative error of the zero-kill form's start,
# at the far point X of its backward integration, reaches a grid point.
QUAD_TOL = 1e-10


def _segerdahl_q0_full(model: ModelSpec, x):
    """Zero-kill quadrature solution with analytic derivatives.

    Returns (psi, m, dpsi, dm, psi0).  Normalized by decay at the upper end
    plus M(0) = 1; valid as the ruin probability only when the process
    drifts upward overall (otherwise it is still an exact ODE solution,
    but the constant pair is the probabilistic one).

    With Z' = lam/phi - mu and Z(0) = 0, u = e^{-Z} int_x^inf e^Z and
    w = e^{-Z} int_x^inf (lam/phi) e^Z solve u' = -1 - Z' u and
    w' = -lam/phi - Z' w, which attract backward where Z' < 0, and the
    weight W' = Z' W with W(X) = QUAD_TOL gives E = W/W(0) = e^Z.  Then
    M = u E/u(0), Psi = w E/(mu u(0)): products with nothing to cancel.
    All three are integrated once, backward from a far point X down to 0,
    started at u's and w's frozen-coefficient values, whose error reaches a
    grid point x damped by QUAD_TOL/W(x) <= QUAD_TOL, so the tail keeps its
    relative accuracy; W, small far out, lets the step control coast where
    an error is damped below that.
    """
    if model.kill_rate != 0.0:
        raise ValueError("needs kill rate 0")
    mu = model.exponential_rate()
    if model.jump_direction != "downward":
        raise ValueError("needs downward jumps")
    lam = model.jump_rate
    drift = model.drift
    arr = np.atleast_1d(np.asarray(x, float))
    if np.any(arr < 0):
        raise ValueError("x must be nonnegative")

    diverges = "needs a decaying exponent (the normalization integral diverges)"
    # Certify an eventual negative slope of Z, and its rate delta there.
    xc = max(float(arr.max()), 1.0)
    while True:
        probe = np.linspace(xc, 4.0 * xc, 65)
        try:
            s = float(np.max(lam / phi_checked(drift, probe))) - mu
        except ValueError as exc:
            raise ValueError(f"cannot certify decay of the exponent: {exc}") from exc
        if s < 0:
            break
        xc *= 2.0
        if xc > 1e7:
            raise ValueError(diverges)

    def rhs(x, y):
        u, w, W = y
        rate = lam / phi_checked(drift, x)
        zp = rate - mu
        return [-1.0 - zp * u, -rate - zp * w, zp * W]

    from ._dop853 import integrate as dop853

    # ln(1/QUAD_TOL) from xc on at the rate delta = -s, and one e-fold more:
    # far out W is held to an absolute tolerance only, and that error must
    # not read as too little damping where Z' is constant.
    X = xc + (math.log(1.0 / QUAD_TOL) + 1.0) / -s
    with np.errstate(over="ignore", invalid="ignore"):  # W = QUAD_TOL e^{Z - Z(X)} may overflow
        for _ in range(80):
            rate = lam / phi_checked(drift, X)
            if not rate < mu:
                raise ValueError(diverges)
            u_X = 1.0 / (mu - rate)
            sol = dop853(rhs, X, 0.0, [u_X, rate * u_X, QUAD_TOL], 1e-12, 1e-14)
            if sol.message is not None:
                raise NumericalError(f"quadrature integration failed: {sol.message}")
            u, w, W = sol(arr)
            if not np.isfinite([*W, sol.y[2, -1]]).all():
                raise NumericalError("quadrature integration failed: e^-Z overflows on the grid")
            if W.min() >= 1.0:  # the start's error is damped by QUAD_TOL on the grid
                break
            X *= 2.0
        else:
            raise NumericalError("could not certify the improper integral remainder")
    u0, w0, W0 = sol.y[:, -1]
    E = W / W0
    rate = lam / phi_checked(drift, arr)
    m = u * E / u0
    psi = w * E / (mu * u0)
    dm = -E / u0
    dpsi = -rate * E / (mu * u0)
    return psi, m, dpsi, dm, w0 / (mu * u0)


def segerdahl_q0_solution(model: ModelSpec, x):
    """Closed form for kill rate zero and general one-phase drift.

    Psi and M are built from Z(x) = -mu x + int_0^x lam/phi, normalized so
    that M(0) = 1 and both components vanish at infinity.  Errors out when
    the normalization integral of e^Z diverges (Z not tending to -inf).
    """
    psi, m, _, _, _ = _segerdahl_q0_full(model, x)
    scalar = np.ndim(x) == 0
    return (float(psi[0]), float(m[0])) if scalar else (psi, m)


# ---------------------------------------------------------------------------
# Numerical boundary-value oracle
# ---------------------------------------------------------------------------

def _collocation(A, l, x_end, w, g, m_l, rtol, atol):
    """Solution of Y' = A(x) Y on [l, x_end] with M(l) = m_l and w . Y(x_end) = g.

    Riccati decoupling (Ascher, Mattheij & Russell, *Numerical Solution of
    Boundary Value Problems for ODEs*, 1995) splits the two-point
    problem into two initial-value ones.  The adjoint z' = -A^T z with
    z(x_end) = w keeps z . Y = g constant, so Psi = gamma - rho . M with the
    ratios rho = z[1:]/z[0] and gamma = g/z[0], which solve

        rho' = rho v_0 - v[1:],  gamma' = gamma v_0,  v = A^T (1, rho).

    They are integrated backward, from x_end down to l, where they follow
    the one growing mode; then M' = (A Y)[1:] is integrated up from
    M(l) = m_l, where its n modes decay.  Integrating the ratios rather than
    z keeps a stiff system finite.  For n = 1, eta = -rho is the ratio
    equation of :func:`riccati.to_riccati`.  Returns the callable xs -> Y,
    shaped (n+1, len(xs)).  The module-level name, kept from the collocation
    solver this replaced, is where a tracer wraps the solve.
    """
    from ._dop853 import integrate as dop853

    def run(fun, t0, t1, y0):
        sol = dop853(fun, t0, t1, y0, rtol, atol)
        if sol.message is not None:
            raise NumericalError(f"two-point solve failed: {sol.message}")
        return sol

    def ratio_rhs(x, r):
        v = A(x).T @ np.concatenate(([1.0], r[:-1]))
        return np.append(r[:-1] * v[0] - v[1:], r[-1] * v[0])

    def m_rhs(x, m):
        r = ratios(x)
        return (A(x) @ np.concatenate(([r[-1] - r[:-1] @ m], m)))[1:]

    ratios = run(ratio_rhs, x_end, l, np.append(w[1:], g) / w[0])
    forward = run(m_rhs, l, x_end, np.full(w.size - 1, m_l))

    def solution(xs):
        xs = np.atleast_1d(np.asarray(xs, float))
        r, m = ratios(xs), forward(xs)
        return np.vstack([r[-1] - (r[:-1] * m).sum(axis=0), m])

    return solution


def _integrate_columns(A, x0, x1, Y0, rtol, atol):
    """Dense solution of y' = A(x) y from the single row ``Y0[0]`` at ``x0``."""
    from ._dop853 import integrate as dop853

    sol = dop853(lambda x, y: A(x) @ y, x0, x1, Y0[0], rtol, atol)
    if sol.message is not None:
        raise NumericalError(f"linear-system integration failed: {sol.message}")
    return sol


def _decay_certificate(Amat: np.ndarray) -> tuple[int, float]:
    """Number of decaying eigenvalues of ``Amat`` and the slowest decay rate."""
    w = np.linalg.eigvals(Amat).real
    stable = w < -1e-12
    if not np.any(stable):
        raise NumericalError("truncation certificate failure: no decaying mode")
    return int(stable.sum()), float(w[stable].max())


def _nonstable_left_row(Amat: np.ndarray) -> np.ndarray:
    """Left eigenvector w (w A = s w) of the one non-decaying eigenvalue s.

    Requiring w @ Y = 0 removes the non-decaying component from Y.  With n
    of the n+1 eigenvalues decaying, s is real: non-real eigenvalues come
    in conjugate pairs.  Any other count raises :class:`NumericalError`.
    """
    w, V = np.linalg.eig(Amat.T)
    nonstable = np.flatnonzero(w.real >= -1e-12)
    if nonstable.size != 1:
        raise NumericalError("truncation certificate failure at X_max")
    return np.ascontiguousarray(V[:, nonstable[0]].real)


def _route(model: ModelSpec, problem: PassageProblem) -> str:
    """How :func:`solve_bvp` answers a problem; Monte Carlo reads it too.

    Upward jumps are routed as their reflection y = -x: downward jumps, the
    drift -phi(-y) on [-L, -l], and the estimands swapped.  In that frame,
    with the drift's sign taken at the lower level (inside its sign domain):

    * ``"impossible"``: exit above with negative drift, Psi = M = 0.
    * ``"initial_value"``: ruin below with negative drift.  Ruin from l is
      immediate, Psi(l) = M(l) = 1, and a finite upper level is never reached.
    * ``"two_point_exit"``, ``"two_point_ruin"``: two-sided, positive drift.
    * ``"dual"``: positive drift and no finite lower level, the reflected dual
      risk model (negative drift, upward jumps, no upper level): refused.
    * One-sided problems with constant positive drift c: ``"certain"`` at
      zero kill without net profit, c <= lam E[C] (Psi = M = 1), and else
      ``"ladder"``, the ladder-height form of the module docstring.  Only
      there does Lundberg's inequality give Monte Carlo a level.
    * ``"truncated"``: one-sided problems with other positive drift.
    """
    drift, l, dom = model.drift, problem.lower, model.drift.sign_domain
    upward = model.jump_direction == "upward"  # flips the sign and the estimand
    positive = upward != (dom is not None and dom[0] <= l <= dom[1] and drift.phi(l) > 0)
    ruin = upward != (problem.estimand == "ruin_below")
    if not positive:
        return "initial_value" if ruin else "impossible"
    if problem.upper is not None:
        return "two_point_ruin" if ruin else "two_point_exit"
    if upward:
        return "dual"
    if drift.kind != "constant":
        return "truncated"
    if model.kill_rate == 0 and drift.c <= model.jump_rate * model.jumps.mean():
        return "certain"
    return "ladder"


def _resolvent(B: np.ndarray, theta: float) -> tuple[np.ndarray, float]:
    """R = (theta I - B)^{-1}, theta >= 0, and a bound on the relative rounding
    of R 1 (entrywise) and of beta R (1-norm): R >= 0 (theta I - B is an
    M-matrix), so the residual E = I - T R' of the computed R' gives
    |R - R'| 1 = |R E| 1 <= e R 1, e the largest row sum of |E| and its rounding.
    """
    n, eps = B.shape[0], np.finfo(float).eps
    T = theta * np.eye(n) - B
    R = np.linalg.inv(T)
    e = (np.abs(np.eye(n) - T @ R) + (n + 1) * eps * (1.0 + np.abs(T) @ np.abs(R))).sum(axis=1).max()
    if not e < 0.5:
        raise NumericalError(f"the jump law's resolvent is too ill-conditioned (e = {e:.1e})")
    return R, e / (1.0 - e) + (n + 1) * eps


def _ladder_solution(model: ModelSpec, t: np.ndarray):
    """(Psi, M) at the offsets ``t >= 0`` above l, shaped (n+1, len(t)), and
    the error estimate of :func:`solve_bvp`.

    Zero kill has Phi = 0 (with net profit; certain ruin is answered
    before).  With q > 0, Phi is enclosed in [lo, hi]: kappa(theta) =
    theta (c - lam beta (theta I - B)^{-1} 1), as b = -B 1, is convex with
    kappa(0) = 0 and kappa >= c theta - lam, so kappa - q changes sign once,
    at Phi < 2 (lam + q) / c.  Each end is bisected over the floats and
    moves only where that sign is certain given the rounding of kappa: no
    slope is assumed, as kappa'(Phi) >= c - lam E[C] only.
    """
    jumps, c, lam, q = model.jumps, model.drift.c, model.jump_rate, model.kill_rate
    eps = np.finfo(float).eps

    @cache
    def excess(theta):  # kappa(theta) - q and a bound on its rounding
        R, rel = _resolvent(jumps.B, theta)
        m = float(jumps.beta @ R.sum(axis=1))
        return theta * (c - lam * m) - q, theta * lam * m * rel + 4.0 * eps * (theta * (c + lam * m) + q)

    def bisect(moves_lower):
        a, b = 0.0, 2.0 * (lam + q) / c
        while a < (mid := 0.5 * (a + b)) < b:
            a, b = (mid, b) if moves_lower(*excess(mid)) else (a, mid)
        return a, b

    @cache
    def ladder(phi):  # (Psi, M) for the root phi, and beta_q's relative rounding
        R, rel = _resolvent(jumps.B, phi)
        # Nonnegative in exact arithmetic; clipped so that G stays a subgenerator.
        beta_q = np.maximum(lam / c * (jumps.beta @ R), 0.0)
        G = jumps.B + np.outer(jumps.b, beta_q)
        M = np.array([tail(PhaseType(e, G), t) for e in np.eye(jumps.n)])
        return np.vstack([beta_q @ M, M]), rel  # Psi = beta_q e^{Gt} 1 = beta_q M

    lo = bisect(lambda v, err: v + err < 0.0)[0] if q else 0.0
    hi = bisect(lambda v, err: v - err <= 0.0)[1] if q else 0.0
    (Y_lo, rel_lo), (Y_hi, rel_hi) = ladder(lo), ladder(hi)
    series = 64.0 + 4.0 * (jumps.n + 5) * np.abs(np.diag(jumps.B)).max() * t
    rounding = max(rel_lo, rel_hi) * (1.0 + jumps.b.max() * t) + eps * series
    return 0.5 * (Y_lo + Y_hi), 0.5 * np.abs(Y_lo - Y_hi).max(axis=0) + 2.0 * rounding


# Tolerances of :func:`solve_bvp`: relative and absolute ones of every
# integration, and the largest boundary residual accepted.
BVP_RTOL = 1e-11
BVP_ATOL = 1e-13
BVP_BC_TOL = 1e-8


def solve_bvp(model: ModelSpec, problem: PassageProblem, grid) -> SolutionCurve:
    """Numerical oracle for the passage system with the posed boundary data.

    :func:`_route` decides how a problem is answered.  Upward jumps are
    solved as their reflection y = -x, which turns the system into
    dY/dy = -A(-y) Y, the downward one on [-L, -l]; the results are read
    back reversed.  Psi = M = 0 and Psi = M = 1 are exact, with a zero error
    estimate and boundary residual, and the dual risk model raises
    :class:`NumericalError`.

    The ladder route evaluates the ladder-height form of the module
    docstring as phase-type tails; M(l) = 1 exactly, so the boundary
    residual is 0.  At zero kill Phi = 0; with killing, Phi is enclosed in
    [Phi_lo, Phi_hi] allowing for the rounding of kappa.  Psi and M decrease
    in Phi: the curve is the mean of the ends' values, and the error
    estimate half their difference plus twice a rounding term, beta_q's from
    its resolvent times (1 + max b (x-l)) plus
    eps (64 + 4 (n + 5) max |B_ii| (x-l)) for the series and G's entries.

    The initial-value route integrates the system forward from
    Psi(l) = M(l) = 1.  The other routes are the same linear two-point
    problem on [l, x_end], M(l) = m_l and w . Y(x_end) = g, solved by two
    initial-value integrations (:func:`_collocation`): the Riccati ratios
    that carry the far-end condition are integrated down to l, then M up
    from l.  Only the boundary data differ:

    * ``"two_point_exit"``: M(l) = 0, Psi(L) = 1, with x_end = L;
    * ``"two_point_ruin"``: M(l) = 1, Psi(L) = 0, with x_end = L;
    * ``"truncated"``: M(l) = 1 plus decay at a truncation point
      x_end = X_max, where w . Y = 0 with w the left eigenvector of the one
      non-decaying mode of the system matrix projects it out; X_max is the
      grid's end plus ln(1e10)/rate, so that the slowest decaying mode of
      the system matrix, probed just past the grid, decays by 1e-10 there.

    There, and in the initial-value route, the boundary residual is the
    largest violation of the posed conditions, the error estimate is the
    discrepancy to a rerun at a looser tolerance, and a non-finite solution
    raises :class:`NumericalError`.

    The system carries no overshoot penalty, so a problem with
    ``overshoot_xi`` > 0 raises ``ValueError``; Monte Carlo estimates it.
    """
    if problem.overshoot_xi != 0:
        raise ValueError("needs overshoot_xi = 0: the overshoot penalty is Monte Carlo only")
    grid = np.asarray(grid, float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    l = problem.lower
    L = problem.upper_value
    if grid[0] < l - 1e-12 or grid[-1] > L + 1e-12:
        raise ValueError("grid must lie inside [lower, upper]")
    n = model.n
    dim = n + 1
    A = assemble_system(model)

    x_hi = L if math.isfinite(L) else float(grid[-1])
    sample = np.linspace(l, x_hi, 257)
    phis = np.asarray(phi_checked(model.drift, sample))
    if phis.max() > 0 and phis.min() < 0:
        raise ValueError("drift changes sign on the problem domain")

    route = _route(model, problem)
    if route in ("certain", "impossible"):
        # Psi = M = 0 solves any linear system, and at zero kill A 1 = 0, so
        # Psi = M = 1 solves this one.
        Y = np.full((dim, grid.size), 1.0 if route == "certain" else 0.0)
        return SolutionCurve(grid, Y[0], Y[1:].T, "ode_bvp", np.zeros(grid.size), 0.0)
    if route == "dual":
        raise NumericalError("the dual risk model (negative drift, upward jumps, no upper "
                             "level) is not solved: its reflection has no finite lower level")
    if route == "ladder":
        # A grid start a hair below l (see the check above) is read as l.
        Y, err = _ladder_solution(model, np.maximum(grid - l, 0.0))
        return SolutionCurve(grid, Y[0], Y[1:].T, "ode_bvp", err, 0.0)

    # Upward jumps: solve the downward problem reflected by y = -x.  x is the
    # caller's grid, and back the order that reads the results back onto it.
    x, back = grid, slice(None)
    if model.jump_direction == "upward":
        A_up = A
        A = lambda y: -A_up(-y)
        l, L, grid, back = -L, -l, -grid[::-1], slice(None, None, -1)

    if route == "truncated":
        # Probe the decay rate inside the sign domain; X_max is checked against its end.
        dom_end = model.drift.sign_domain[1]
        n_decay, rate = _decay_certificate(A(min(grid[-1] + 1.0, 0.5 * (grid[-1] + dom_end))))
        if n_decay != n:
            raise NumericalError(
                "truncation certificate failure: decaying eigenspace has dimension "
                f"{n_decay}, expected {n}"
            )
        x_end, m_l = float(grid[-1]) + math.log(1e10) / (-rate), 1.0
        if x_end > dom_end:
            raise NumericalError(
                f"truncation point X_max = {x_end:g} lies past the end {dom_end:g} of "
                f"the drift's sign domain: the slowest decay rate {-rate:g} is too "
                "small to truncate the problem inside it"
            )
        w, g = _nonstable_left_row(A(x_end)), 0.0
    elif route != "initial_value":
        x_end, m_l = L, 0.0 if route == "two_point_exit" else 1.0
        w, g = np.eye(dim)[0], 1.0 - m_l  # Psi(L) = 1 - M(l)

    def compose(rt, at):
        if route == "initial_value":
            solution = _integrate_columns(A, l, float(grid[-1]), np.ones(dim)[None, :], rt, at)
            return solution, abs(solution(np.array([l]))[:, 0] - 1.0).max()
        solution = _collocation(A, l, x_end, w, g, m_l, rt, at)
        ends = solution([l, x_end])
        return solution, max(abs(ends[1:, 0] - m_l).max(), abs(w @ ends[:, 1] - g))

    solution, bres = compose(BVP_RTOL, BVP_ATOL)
    vals = solution(grid)  # (dim, len(grid))
    # Error estimate: rerun at a looser tolerance and take the discrepancy.
    loose, _ = compose(max(BVP_RTOL * 1e3, 1e-8), max(BVP_ATOL * 1e3, 1e-10))
    vals_loose = loose(grid)
    err = np.max(np.abs(vals - vals_loose), axis=0)

    if not (np.isfinite(err).all() and math.isfinite(bres)):  # err is NaN where either run is
        raise NumericalError("the solve gave a non-finite solution")
    if bres > BVP_BC_TOL:
        raise NumericalError(f"boundary residual {bres:.3e} exceeds {BVP_BC_TOL:.1e}")
    return SolutionCurve(
        grid=x,
        psi=vals[0, back],
        m=vals[1:, back].T,
        method="ode_bvp",
        error_estimate=err[back],
        boundary_residual=float(bres),
    )


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------

_FD6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def ode_residual(model: ModelSpec, x, psi, m, dpsi=None, dm=None):
    """Pointwise residual of (Psi, M) in the assembled linear system.

    With analytic derivatives supplied, the residual is evaluated on the
    whole grid; otherwise 6th-order central differences are used on a
    uniform grid and the edges are dropped.  Returns ``(x_eval, residual)``
    with residual shaped (len(x_eval), n+1).
    """
    x = np.asarray(x, float)
    psi = np.asarray(psi, float)
    m = np.asarray(m, float)
    if m.ndim == 1:
        m = m[:, None]
    Y = np.column_stack([psi, m])  # (N, dim)
    A = assemble_system(model)

    if dpsi is None or dm is None:
        h = np.diff(x)
        if not np.allclose(h, h[0], rtol=1e-10, atol=0):
            raise ValueError("finite-difference residual needs a uniform grid")
        step = h[0]
        dY = np.empty((x.size - 6, Y.shape[1]))
        for j in range(Y.shape[1]):
            col = Y[:, j]
            dY[:, j] = sum(
                c * col[i : x.size - 6 + i] for i, c in enumerate(_FD6) if c != 0.0
            ) / step
        x_eval = x[3:-3]
        Y_eval = Y[3:-3]
    else:
        dpsi = np.asarray(dpsi, float)
        dm = np.asarray(dm, float)
        if dm.ndim == 1:
            dm = dm[:, None]
        dY = np.column_stack([dpsi, dm])
        x_eval = x
        Y_eval = Y

    return x_eval, dY - np.einsum("ijm,mj->mi", A(x_eval), Y_eval)
