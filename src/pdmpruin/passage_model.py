"""First-passage model assembly, closed forms, and the ODE boundary-value oracle.

The killed ruin probability Psi and the mid-jump companions M_1..M_n of a
piecewise deterministic process with phase-type downward jumps satisfy a
linear (n+1)-dimensional ODE system whose matrix is
``(lam/phi(x)) * T1 + T2`` (see :func:`lie_algebra.build_generators`).
This module holds the drift and model types, assembles that system,
evaluates the closed forms available for one-phase jumps, and provides a
numerical boundary-value solver usable for any phase dimension: an
initial-value integration when the drift is negative, and collocation on
the linear two-point problem, whose boundary conditions alone depend on the
posed problem, when it is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .phase_type import PhaseType, validate

__all__ = [
    "ConstantDrift",
    "SegerdahlDrift",
    "TabulatedDrift",
    "DriftSpec",
    "drift_from_dict",
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


# ---------------------------------------------------------------------------
# Drift specifications
# ---------------------------------------------------------------------------

# Every drift type gives its flow ``flow(x, t, tol)`` and the crossing time
# ``travel_time(x, level)``, both elementwise over arrays.  For a tabulated
# drift both come from the clock F(x) = int dx/phi; the flow is
# F^{-1}(F(x) + t) and the travel time F(level) - F(x).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


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

    def flow(self, x, t, tol=None):
        """Position after time ``t`` (exact; ``tol`` is unused)."""
        return np.asarray(x, float) + self.c * np.asarray(t, float)

    def travel_time(self, x, level):
        """Time the flow from ``x`` needs to reach ``level``; +inf if never."""
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (level - np.asarray(x, float)) / self.c
        return np.where(t > 0, t, math.inf)

    def to_dict(self) -> dict:
        return {"kind": "constant", "c": self.c}


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

    def flow(self, x, t, tol=None):
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

    def to_dict(self) -> dict:
        return {"kind": "segerdahl", "K": self.K, "lam": self.lam, "q": self.q, "mu": self.mu}


@dataclass(frozen=True, eq=False)
class TabulatedDrift:
    """Drift given on a grid with an interpolation rule ("cubic" or "linear").

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
    def _spline(self):
        """The interpolant; ``_spline(x, 1)`` is its derivative."""
        xs, vs = np.asarray(self.x), np.asarray(self.values)
        if self.interpolation == "cubic":
            from scipy.interpolate import CubicSpline

            return CubicSpline(xs, vs)
        slopes = np.diff(vs) / np.diff(xs)

        def linear(x, nu=0):
            # np.interp would clamp; a linear table never extrapolates.
            if np.any((x < xs[0]) | (x > xs[-1])):
                raise ValueError("tabulated drift evaluated outside its table range")
            if nu == 0:
                return np.interp(x, xs, vs)
            # The right-hand segment's slope at a knot, the last one at the end.
            return slopes[np.minimum(np.searchsorted(xs, x, side="right"), slopes.size) - 1]

        return linear

    def _interp(self, x):
        return np.asarray(self._spline(x), float)

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
        val = np.asarray(self._spline(arr, nu), float)
        return val if arr.ndim else float(val)

    @cached_property
    def _clock(self):
        """Knots z of the sign domain, the clock F(z) = int_{z_0}^{z} dx/phi
        at them, and the position resolution the clock's rounding allows."""
        lo, hi = self.sign_domain
        xs = np.asarray(self.x)
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
        k = np.clip(np.searchsorted(z, x, side="right") - 1, 0, z.size - 2)
        return F[k] + self._clock_step(z[k], x)

    def flow(self, x, t, tol=1e-10):
        """Position after time ``t``: the inverse clock F^{-1}(F(x) + t).

        Newton steps on F with dF/dx = 1/phi, each kept inside the knot
        interval that brackets the target, until the step is at most ``tol``
        (or the clock's own rounding).
        """
        z, F, resolution = self._clock
        target = self._clock_at(x) + np.asarray(t, float)
        s = np.sign(F[-1])  # F(z_0) = 0 and F increases along the domain iff phi > 0
        if np.any((s * target < 0.0) | (s * target > s * F[-1])):
            raise NumericalError(
                f"flow left the drift table: its sign domain {self.sign_domain} "
                "ends before the requested time"
            )
        k = np.clip(np.searchsorted(s * F, s * target, side="right") - 1, 0, z.size - 2)
        a, b = z[k], z[k + 1]
        x = a + (b - a) * (target - F[k]) / (F[k + 1] - F[k])
        tol = max(tol, resolution)
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

    def to_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "x": list(self.x),
            "values": list(self.values),
            "interpolation": self.interpolation,
            "sign_domain": list(self.sign_domain),
        }


DriftSpec = ConstantDrift | SegerdahlDrift | TabulatedDrift


def drift_from_dict(data: dict) -> DriftSpec:
    kind = data.get("kind")
    if kind == "constant":
        _reject_unknown(data, {"kind", "c"}, "drift")
        return ConstantDrift(float(data["c"]))
    if kind == "segerdahl":
        _reject_unknown(data, {"kind", "K", "lam", "q", "mu"}, "drift")
        return SegerdahlDrift(float(data["K"]), float(data["lam"]), float(data["q"]), float(data["mu"]))
    if kind == "tabulated":
        _reject_unknown(data, {"kind", "x", "values", "interpolation", "sign_domain"}, "drift")
        dom = data.get("sign_domain")
        return TabulatedDrift(
            tuple(data["x"]),
            tuple(data["values"]),
            data.get("interpolation", "cubic"),
            None if dom is None else (float(dom[0]), float(dom[1])),
        )
    raise ValueError(f"unknown drift kind {kind!r}")


def _reject_unknown(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")


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

    def to_dict(self) -> dict:
        return {
            "drift": self.drift.to_dict(),
            "jump_rate": self.jump_rate,
            "kill_rate": self.kill_rate,
            "jumps": self.jumps.to_dict(),
            "jump_direction": self.jump_direction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        _reject_unknown(
            data, {"drift", "jump_rate", "kill_rate", "jumps", "jump_direction"}, "model"
        )
        return cls(
            drift=drift_from_dict(data["drift"]),
            jump_rate=float(data["jump_rate"]),
            kill_rate=float(data["kill_rate"]),
            jumps=PhaseType.from_dict(data["jumps"]),
            jump_direction=data.get("jump_direction", "downward"),
        )


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

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "estimand": self.estimand,
            "overshoot_xi": self.overshoot_xi,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PassageProblem":
        _reject_unknown(data, {"lower", "upper", "estimand", "overshoot_xi"}, "problem")
        return cls(
            lower=float(data["lower"]),
            upper=None if data.get("upper") is None else float(data["upper"]),
            estimand=data.get("estimand", "ruin_below"),
            overshoot_xi=float(data.get("overshoot_xi", 0.0)),
        )


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
    (the layout of a collocation Jacobian), checked against the drift's
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
    lam, q = model.jump_rate, model.kill_rate
    a, b_, cc = c * mu, -(c * mu + lam + q), lam
    disc = b_ * b_ - 4.0 * a * cc
    if disc < 0:
        if disc > -1e-12 * b_ * b_:
            disc = 0.0
        else:
            raise ValueError("needs a real ratio root (the problem is misposed)")
    sq = math.sqrt(disc)
    # Stable quadratic roots (b_ < 0 always here).
    r1 = (-b_ - sq) / (2.0 * a)
    r2 = cc / (a * r1)
    lo, hi = (r2, r1) if r2 <= r1 else (r1, r2)
    if not (0.0 < lo <= 1.0 + 1e-12):
        raise ValueError("needs a ratio root in (0, 1] (the problem is misposed)")
    return ConstantDriftRoot(eta=min(lo, 1.0), eta_other=hi, critical=(disc == 0.0))


def constant_drift_solution(model: ModelSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Killed ruin pair for constant drift: M = e^{-(1-eta) mu x}, Psi = eta M."""
    root = constant_drift_root(model)
    mu = model.exponential_rate()
    arr = np.asarray(x, float)
    m = np.exp(-(1.0 - root.eta) * mu * arr)
    psi = root.eta * m
    return psi, m


# Largest accepted bound on the truncated tail of the zero-kill normalization
# integral, relative to max(integral, 1).
QUAD_TOL = 1e-10


def _segerdahl_q0_full(model: ModelSpec, x):
    """Zero-kill quadrature solution with analytic derivatives.

    Returns (psi, m, dpsi, dm, psi0).  Normalized by decay at the upper end
    plus M(0) = 1; valid as the ruin probability only when the process
    drifts upward overall (otherwise it is still an exact ODE solution,
    but the constant pair is the probabilistic one).
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

    def zprime(v):
        return -mu + lam / phi_checked(drift, v)

    # Certify an eventual negative slope of Z, then a truncation point whose
    # exponential remainder bound is below the quadrature tolerance.
    x_end = max(float(arr.max()), 1.0)
    xc = x_end
    delta = None
    for _ in range(60):
        probe = np.linspace(xc, 4.0 * xc, 65)
        try:
            s = float(np.max(zprime(probe)))
        except ValueError as exc:
            raise ValueError(f"cannot certify decay of the exponent: {exc}") from exc
        if s < 0:
            delta = -s
            break
        xc *= 2.0
        if xc > 1e7:
            break
    if delta is None:
        raise ValueError("needs a decaying exponent (the normalization integral diverges)")

    def rhs(v, y):
        J, F = y
        zp = lam / phi_checked(drift, v)
        return [zp, math.exp(-mu * v + J)]

    from scipy.integrate import solve_ivp

    sols = []
    start, y0 = 0.0, [0.0, 0.0]
    for _ in range(80):
        sol = solve_ivp(
            rhs, (start, xc), y0, method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True
        )
        if not sol.success:
            raise NumericalError(f"quadrature integration failed: {sol.message}")
        sols.append(sol)
        J_c, F_c = sol.y[:, -1]
        rem_bound = math.exp(-mu * xc + J_c) / delta
        if rem_bound <= QUAD_TOL * max(F_c, 1.0):
            break
        start, y0 = xc, [J_c, F_c]
        xc *= 2.0
        probe = np.linspace(xc, 4.0 * xc, 65)
        s = float(np.max(zprime(probe)))
        if s >= 0:
            raise ValueError("needs a decaying exponent (the normalization integral diverges)")
        delta = -s
    else:
        raise NumericalError("could not certify the improper integral remainder")

    def eval_JF(v):
        v = np.atleast_1d(np.asarray(v, float))
        out = np.empty((2, v.size))
        for s in sols:
            mask = (v >= s.t[0]) & (v <= s.t[-1])
            if np.any(mask):
                out[:, mask] = s.sol(v[mask])
        return out

    J_c, F_c = sols[-1].y[:, -1]
    I_total = F_c
    psi0 = 1.0 - 1.0 / (mu * I_total)

    J, F = eval_JF(arr)
    Z = -mu * arr + J
    eZ = np.exp(Z)
    I = I_total - F
    m = mu * (1.0 - psi0) * I
    psi = (1.0 - psi0) * (mu * I - eZ)
    zp = -mu + lam / phi_checked(drift, arr)
    dm = -mu * (1.0 - psi0) * eZ
    dpsi = (1.0 - psi0) * (-mu * eZ - zp * eZ)
    return psi, m, dpsi, dm, psi0


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

def _collocation(*args, **kwargs):
    """:func:`scipy.integrate.solve_bvp`, imported on first use; a module-level
    name, so a tracer can wrap the collocation call."""
    from scipy.integrate import solve_bvp

    return solve_bvp(*args, **kwargs)


def _integrate_columns(A, x0, x1, Y0, rtol, atol):
    """Dense solution of Y' = A(x) Y for one or more stacked columns."""
    from scipy.integrate import solve_ivp

    Y0 = np.atleast_2d(np.asarray(Y0, float))  # (k, dim)
    k, dim = Y0.shape

    def rhs(x, y):
        return (A(x) @ y.reshape(dim, k, order="F")).reshape(-1, order="F")

    sol = solve_ivp(
        rhs,
        (x0, x1),
        Y0.T.reshape(-1, order="F"),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    if not sol.success:
        raise NumericalError(f"linear-system integration failed: {sol.message}")

    def evaluate(xs):
        xs = np.atleast_1d(np.asarray(xs, float))
        vals = sol.sol(xs)  # (dim*k, len)
        return vals.reshape(dim, k, len(xs), order="F")

    return evaluate


def _nonstable_left_basis(Amat: np.ndarray) -> np.ndarray:
    """Real row basis of left eigenvectors with nonnegative real part.

    Rows w satisfy w A = s w with Re(s) >= 0; requiring w @ Y = 0 removes
    every non-decaying component from Y.
    """
    w, V = np.linalg.eig(Amat.T)
    rows: list[np.ndarray] = []
    for i in np.flatnonzero(w.real >= -1e-12):
        if abs(w[i].imag) < 1e-12:
            rows.append(V[:, i].real)
        elif w[i].imag > 0:  # one row pair per conjugate pair
            rows.append(V[:, i].real)
            rows.append(V[:, i].imag)
    return np.array(rows)


def _decay_certificate(Amat: np.ndarray) -> tuple[int, float]:
    """Number of decaying eigenvalues of ``Amat`` and the slowest decay rate."""
    w = np.linalg.eigvals(Amat).real
    stable = w < -1e-12
    if not np.any(stable):
        raise NumericalError("truncation certificate failure: no decaying mode")
    return int(stable.sum()), float(w[stable].max())


# Tolerances of :func:`solve_bvp`: relative and absolute ones of the solve
# (collocation takes max(BVP_RTOL, 1e-10) and no absolute one), and the
# largest boundary residual accepted.
BVP_RTOL = 1e-11
BVP_ATOL = 1e-13
BVP_BC_TOL = 1e-8


def solve_bvp(model: ModelSpec, problem: PassageProblem, grid) -> SolutionCurve:
    """Numerical oracle for the passage system with the posed boundary data.

    With negative drift and downward jumps ruin from the lower level is
    immediate, so Psi(l) = M(l) = 1 and the system is integrated forward as
    an initial-value problem (a finite upper level changes nothing since it
    cannot be reached; exit above is impossible).

    With positive drift every problem is the same linear two-point problem
    on [l, x_end], solved by collocation; only the boundary conditions
    differ:

    * ``exit_above``: M(l) = 0, Psi(L) = 1, with x_end = L;
    * two-sided ``ruin_below``: M(l) = 1, Psi(L) = 0, with x_end = L;
    * one-sided ``ruin_below``: M(l) = 1 plus decay at a truncation point
      x_end = X_max, where every non-decaying mode of the system matrix is
      projected out; X_max is pushed far enough that the truncation error
      certificate is below ``BVP_BC_TOL``.

    The boundary residual is the largest violation of the posed conditions,
    and the error estimate is the discrepancy to a rerun at a looser
    tolerance.
    """
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

    if phis[0] < 0:
        if problem.estimand == "exit_above":
            raise ValueError("exit above is impossible with negative drift and downward jumps")

        def compose(rt, at):
            ev = _integrate_columns(A, l, float(grid[-1]), np.ones(dim)[None, :], rt, at)

            def solution(xs):
                return ev(xs)[:, 0, :]

            return solution, abs(solution(np.array([l]))[:, 0] - 1.0).max()

    else:
        if math.isfinite(L):
            x_end = L
            m_l = 0.0 if problem.estimand == "exit_above" else 1.0  # and Psi(L) = 1 - M(l)

            def bc(Ya, Yb):
                return np.concatenate([Ya[1:] - m_l, Yb[:1] - (1.0 - m_l)])

        else:
            n_decay, rate = _decay_certificate(A(float(grid[-1]) + 1.0))
            if n_decay != n:
                raise NumericalError(
                    "truncation certificate failure: decaying eigenspace has dimension "
                    f"{n_decay}, expected {n}"
                )
            x_end = float(grid[-1]) + math.log(1e10) / (-rate)
            n_decay, rate = _decay_certificate(A(x_end))
            if n_decay != n:
                raise NumericalError("truncation certificate failure at X_max")
            w_non = _nonstable_left_basis(A(x_end))

            def bc(Ya, Yb):
                return np.concatenate([Ya[1:] - 1.0, w_non @ Yb])

        mesh = np.linspace(l, x_end, 401)
        if math.isfinite(L):
            guess = np.ones((dim, mesh.size))
        else:
            guess = np.tile(np.exp(rate * (mesh - l)), (dim, 1))

        def rhs(xv, Y):
            return np.einsum("ijm,jm->im", A(xv), Y)

        def compose(rt, at):
            sol = _collocation(
                rhs, bc, mesh, guess, fun_jac=lambda xv, Y: A(xv),
                tol=max(rt, 1e-10), max_nodes=200000,
            )
            if not sol.success:
                raise NumericalError(f"collocation failed: {sol.message}")

            def solution(xs):
                return sol.sol(np.atleast_1d(np.asarray(xs, float)))

            ends = solution(np.array([l, x_end]))
            return solution, abs(bc(ends[:, 0], ends[:, 1])).max()

    solution, bres = compose(BVP_RTOL, BVP_ATOL)
    vals = solution(grid)  # (dim, len(grid))
    # Error estimate: rerun at a looser tolerance and take the discrepancy.
    loose, _ = compose(max(BVP_RTOL * 1e3, 1e-8), max(BVP_ATOL * 1e3, 1e-10))
    vals_loose = loose(grid)
    err = np.max(np.abs(vals - vals_loose), axis=0)

    if bres > BVP_BC_TOL:
        raise NumericalError(f"boundary residual {bres:.3e} exceeds {BVP_BC_TOL:.1e}")
    return SolutionCurve(
        grid=grid,
        psi=vals[0],
        m=vals[1:].T,
        method="ode_bvp",
        error_estimate=err,
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
