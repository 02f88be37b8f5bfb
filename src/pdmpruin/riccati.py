"""Riccati reduction of the two-dimensional passage system.

With one-phase exponential jumps the ratio eta = Psi/M satisfies a scalar
Riccati equation

    deta/dx = b0(x) + b1(x) eta + b2(x) eta^2,
    b0 = -lam/phi,  b1 = mu + (lam+q)/phi,  b2 = -mu,

and M is recovered from dM/dx = (eta - 1) mu M.  A drift for which a
positive scaling eta_bar = G(x) eta maps this onto an equation with
constant coefficient ratios is integrable by a single quadrature after
reparametrization; the necessary and sufficient condition is that the
test function

    T(x) = (b1 + (b2'/b2 - b0'/b0) / 2) / sqrt(|b0 b2|)

is constant.  T vanishes identically exactly on the drift family
phi' + 2 mu phi + 2 (lam + q) = 0, for which closed-form ruin
probabilities are produced here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .passage_model import (
    ConstantDrift,
    DriftSpec,
    ModelSpec,
    NumericalError,
    SegerdahlDrift,
    phi_checked,
    require_finite,
)

__all__ = [
    "RiccatiCoefficients",
    "CanonicalForm",
    "AllenSteinParams",
    "AllenSteinResult",
    "RiccatiBlowUpError",
    "RiccatiSolution",
    "to_riccati",
    "canonical_form",
    "allen_stein_test",
    "chebyshev_grid",
    "phi_k_drift",
    "xbar",
    "dxbar_dx",
    "k1_constant",
    "phi_k_closed_form",
    "phi_k_closed_form_with_derivatives",
    "phi_k_eta",
    "asymptotic_rate",
    "riccati_numeric",
    "reconstruct_solution",
]


@dataclass(frozen=True, eq=False)
class RiccatiCoefficients:
    """Coefficients of deta/dx = b0 + b1 eta + b2 eta^2 plus their derivatives.

    ``db0`` and ``db2`` are exact: ``db2`` is 0, and ``db0`` uses the
    drift's ``dphi``, which for a tabulated drift is the derivative of its
    interpolant.  The
    companion relation for reconstructing the second component is
    dM/dx = (eta - 1) mu M.
    """

    b0: Callable
    b1: Callable
    b2: Callable
    db0: Callable
    db2: Callable
    mu: float
    lam: float
    q: float
    drift: DriftSpec


def to_riccati(model: ModelSpec) -> RiccatiCoefficients:
    """Riccati coefficients of the ratio equation for a one-phase model."""
    if model.n != 1:
        raise ValueError("needs one-phase jumps (matrix Riccati equations are not supported)")
    if model.jump_direction != "downward":
        raise ValueError("needs downward jumps (the ratio reduction is derived for them)")
    mu = model.exponential_rate()
    lam, q = model.jump_rate, model.kill_rate
    drift = model.drift

    def b0(x):
        return -lam / np.asarray(phi_checked(drift, x), float)

    def b1(x):
        return mu + (lam + q) / np.asarray(phi_checked(drift, x), float)

    def b2(x):
        x = np.asarray(x, float)
        return np.full(x.shape, -mu) if x.ndim else -mu

    def db0(x):
        ph = np.asarray(phi_checked(drift, x), float)
        return lam * np.asarray(drift.dphi(x), float) / ph**2

    def db2(x):
        x = np.asarray(x, float)
        return np.zeros(x.shape) if x.ndim else 0.0

    return RiccatiCoefficients(b0=b0, b1=b1, b2=b2, db0=db0, db2=db2, mu=mu, lam=lam, q=q, drift=drift)


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Canonical first/second-order data: y' = -y^2 + z(x) y + u(x) with
    y = mu (eta - 1), equivalently g'' - z g' - u g = 0 for y = g'/g.

    For zero kill rate u vanishes identically and the second-order
    equation is essentially first order: g'(x) = exp(int z).
    """

    z: Callable
    u: Callable
    q_zero: bool


def canonical_form(coeffs: RiccatiCoefficients) -> CanonicalForm:
    """Canonical form of the ratio equation."""
    mu, lam, q, drift = coeffs.mu, coeffs.lam, coeffs.q, coeffs.drift

    def z(x):
        return (lam + q) / np.asarray(phi_checked(drift, x), float) - mu

    def u(x):
        zv = z(x)
        return q * mu * (np.asarray(zv) + mu) / (lam + q)

    return CanonicalForm(z=z, u=u, q_zero=(q == 0.0))


@dataclass(frozen=True, eq=False)
class AllenSteinParams:
    """Constants and scale function of the integrating transformation.

    ``transform`` is the factor G(x) in eta_bar = G(x) eta; ``D`` is the
    common scale of the constant-ratio target equation
    deta_bar/dx = D(x) (c0 + c1 eta_bar + c2 eta_bar^2).
    """

    c0: float
    c1: float
    c2: float
    kappa: float
    D: Callable
    transform: Callable

    def to_dict(self) -> dict:
        return {"c0": self.c0, "c1": self.c1, "c2": self.c2, "kappa": self.kappa}


@dataclass(frozen=True, eq=False)
class AllenSteinResult:
    """Verdict of the constant-test-function gate on a grid."""

    integrable: bool
    params: AllenSteinParams | None
    t_reference: float
    t_spread: float
    witness_x: float | None = None

    def to_dict(self) -> dict:
        d = {
            "integrable": self.integrable,
            "t_reference": self.t_reference,
            "t_spread": self.t_spread,
        }
        if self.params is not None:
            d["params"] = self.params.to_dict()
        if self.witness_x is not None:
            d["witness_x"] = self.witness_x
        return d


def chebyshev_grid(lo: float, hi: float, n: int = 256) -> np.ndarray:
    """Chebyshev-spaced points on [lo, hi], the default gate grid."""
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * math.pi / (2 * n))
    return np.sort(lo + (hi - lo) * (nodes + 1.0) / 2.0)


# Largest spread of T(x) over the gate grid, relative to max(1, |T|), that
# :func:`allen_stein_test` accepts as constant.
ALLEN_STEIN_RTOL = 1e-8


def allen_stein_test(coeffs: RiccatiCoefficients, grid) -> AllenSteinResult:
    """Decide whether the ratio equation admits the scaling transformation.

    Computes T(x) on the grid and accepts iff it is constant to
    ``ALLEN_STEIN_RTOL`` (relative to max(1, |T|)).  On success the returned
    parameters use the normalization c0 = 1, |c2| = 1 with c2 carrying the
    sign of b0 b2.
    On failure the witness is the grid point of maximal deviation.
    """
    x = np.asarray(grid, float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    b0v = np.asarray(coeffs.b0(x), float)
    b1v = np.asarray(coeffs.b1(x), float)
    b2v = np.asarray(coeffs.b2(x), float)
    prod = b0v * b2v
    if np.any(prod == 0.0):
        raise ValueError("b0 b2 must not vanish on the grid")
    if prod.max() > 0 and prod.min() < 0:
        # No constant c0 c2 can match a sign-changing b0 b2.
        i = int(np.argmax(np.abs(np.diff(np.sign(prod)))))
        return AllenSteinResult(False, None, math.nan, math.inf, witness_x=float(x[i]))

    S = b1v + 0.5 * (coeffs.db2(x) / b2v - coeffs.db0(x) / b0v)
    T = S / np.sqrt(np.abs(prod))
    t_ref = float(np.median(T))
    dev = np.abs(T - t_ref)
    spread = float(dev.max())
    if spread > ALLEN_STEIN_RTOL * max(1.0, abs(t_ref)):
        return AllenSteinResult(
            False, None, t_ref, spread, witness_x=float(x[int(np.argmax(dev))])
        )

    c0 = 1.0
    c2 = float(np.sign(prod[0]))
    kappa = float(np.sign(b0v[0] / c0))
    c1 = kappa * t_ref

    def D(xq):
        return kappa * np.sqrt(np.abs(coeffs.b0(xq) * coeffs.b2(xq)))

    def transform(xq):
        return np.sqrt(coeffs.b2(xq) * c0 / (coeffs.b0(xq) * c2))

    params = AllenSteinParams(c0=c0, c1=c1, c2=c2, kappa=kappa, D=D, transform=transform)
    return AllenSteinResult(True, params, t_ref, spread)


# ---------------------------------------------------------------------------
# The integrable drift family and its closed-form ruin probabilities
# ---------------------------------------------------------------------------

def phi_k_drift(K: float, lam: float, q: float, mu: float) -> DriftSpec:
    """Drift satisfying phi' + 2 mu phi + 2 (lam + q) = 0 identically."""
    if mu <= 0 or lam <= 0 or q < 0:
        raise ValueError("need mu > 0, lam > 0, q >= 0")
    if K == 0.0:
        warnings.warn(
            "K=0 gives the constant drift -(lam+q)/mu; returning a ConstantDrift",
            UserWarning,
            stacklevel=2,
        )
        return ConstantDrift(-(lam + q) / mu)
    return SegerdahlDrift(K=K, lam=lam, q=q, mu=mu)


def _check_k_regime(K: float, x) -> np.ndarray:
    if K >= 1.0:
        raise ValueError("needs K < 1 (strictly negative drift)")
    if K == 0.0:
        raise ValueError("K must be nonzero")
    arr = np.atleast_1d(np.asarray(x, float))
    if np.any(arr < 0):
        raise ValueError("x must be nonnegative")
    return arr


def xbar(x, K: float, lam: float, q: float, mu: float):
    """Reparametrisation with d(xbar)/dx = sqrt(-lam mu / phi_K(x)), xbar(0)=0.

    Evaluated in a cancellation-free algebraic form equivalent to the
    cross-ratio logarithm; strictly increasing and asymptotically
    sqrt(lam/(lam+q)) mu x.
    """
    arr = _check_k_regime(K, x)
    a = math.sqrt(1.0 - K)
    b = np.sqrt(1.0 - K * np.exp(-2.0 * mu * arr))
    val = math.sqrt(lam / (q + lam)) * (mu * arr + np.log((1.0 + b) / (1.0 + a)))
    return val if np.ndim(x) else float(val[0])


def dxbar_dx(x, K: float, lam: float, q: float, mu: float):
    """sqrt(-lam mu / phi_K(x)), the density of the reparametrisation."""
    arr = _check_k_regime(K, x)
    val = mu * math.sqrt(lam / (lam + q)) / np.sqrt(1.0 - K * np.exp(-2.0 * mu * arr))
    return val if np.ndim(x) else float(val[0])


def k1_constant(K: float, lam: float, q: float) -> float:
    """Boundary-normalization constant of the closed form."""
    if K >= 1.0:
        raise ValueError("K < 1 required")
    r = math.sqrt(lam / (q + lam))
    s = math.sqrt(1.0 - K)
    k1 = (r - s) / (r + s)
    if k1 == -1.0:
        raise ValueError("degenerate normalization: K1 = -1")
    return k1


def _phi_k_raw(K, lam, q, mu, arr):
    """Un-normalized closed-form pair and derivatives at the points ``arr``."""
    k1 = k1_constant(K, lam, q)
    xb = np.asarray(xbar(arr, K, lam, q, mu), float)
    dxb = np.asarray(dxbar_dx(arr, K, lam, q, mu), float)
    epos = np.exp(xb - mu * arr)
    eneg = np.exp(-xb - mu * arr)
    w = K * np.exp(-2.0 * mu * arr)
    R = (1.0 - w) ** (-0.5)
    dR = -mu * w * R**3
    rat = math.sqrt(lam / (q + lam))

    psi = rat * R * (epos - k1 * eneg)
    m = epos + k1 * eneg
    depos = (dxb - mu) * epos
    deneg = (-dxb - mu) * eneg
    dpsi = rat * (dR * (epos - k1 * eneg) + R * (depos - k1 * deneg))
    dm = depos + k1 * deneg
    return psi, m, dpsi, dm


def phi_k_closed_form_with_derivatives(K, lam, q, mu, x):
    """As :func:`phi_k_closed_form` but also returning dPsi/dx and dM/dx."""
    arr = _check_k_regime(K, x)
    zero = np.zeros(1)
    p0, m0, _, _ = _phi_k_raw(K, lam, q, mu, zero)
    psi, m, dpsi, dm = _phi_k_raw(K, lam, q, mu, arr)
    out = (psi / p0[0], m / m0[0], dpsi / p0[0], dm / m0[0])
    if np.ndim(x):
        return out
    return tuple(float(v[0]) for v in out)


def phi_k_closed_form(K, lam, q, mu, x):
    """Closed-form (Psi, M) for the integrable drift family, K < 1.

    Normalized so that Psi(0) = M(0) = 1 exactly (the raw pair is divided
    by its value at 0); both components decay to 0 with the asymptotic
    exponential rate :func:`asymptotic_rate` when the kill rate is
    positive, and for zero kill rate the pair is identically (1, 1) since
    ruin is then certain under the strictly negative drift.
    """
    psi, m, _, _ = phi_k_closed_form_with_derivatives(K, lam, q, mu, x)
    return psi, m


def phi_k_eta(K, lam, q, mu, x):
    """Ratio eta = Psi/M of the closed form, normalized to eta(0) = 1."""
    arr = _check_k_regime(K, x)
    k1 = k1_constant(K, lam, q)
    xb = np.asarray(xbar(arr, K, lam, q, mu), float)
    tanh_like = (1.0 - k1 * np.exp(-2.0 * xb)) / (1.0 + k1 * np.exp(-2.0 * xb))
    val = (
        math.sqrt(lam / (q + lam))
        * (1.0 - K * np.exp(-2.0 * mu * arr)) ** (-0.5)
        * tanh_like
    )
    return val if np.ndim(x) else float(val[0])


def asymptotic_rate(lam: float, q: float, mu: float) -> float:
    """Exponential decay exponent mu (sqrt(lam/(lam+q)) - 1) of Psi and M."""
    if lam <= 0 or q < 0 or mu <= 0:
        raise ValueError("need lam > 0, q >= 0, mu > 0")
    return mu * (math.sqrt(lam / (lam + q)) - 1.0)


# ---------------------------------------------------------------------------
# Numerical Riccati oracle
# ---------------------------------------------------------------------------

class RiccatiBlowUpError(NumericalError):
    """The Riccati solution reached a pole inside the integration range."""

    def __init__(self, x_pole: float):
        super().__init__(f"Riccati blow-up detected near x = {x_pole:.12g}")
        self.x_pole = x_pole


@dataclass(eq=False)
class RiccatiSolution:
    """Dense solution of the ratio equation plus its running integral."""

    _dense: object
    x_start: float

    def eta(self, xs):
        vals = self._dense(np.atleast_1d(np.asarray(xs, float)))[0]
        return vals if np.ndim(xs) else float(vals[0])

    def integral(self, xs):
        """int_{x_start}^{x} eta, co-integrated from the range's start."""
        vals = self._dense(np.atleast_1d(np.asarray(xs, float)))[1]
        return vals if np.ndim(xs) else float(vals[0])


# Relative and absolute tolerances of :func:`riccati_numeric`.
RICCATI_RTOL = 1e-10
RICCATI_ATOL = 1e-12


def riccati_numeric(
    coeffs: RiccatiCoefficients, eta0: float, x_range: tuple[float, float]
) -> RiccatiSolution:
    """Adaptive integration of the ratio equation with blow-up detection.

    At a pole inside the range the step size collapses and the integration
    stops; :class:`RiccatiBlowUpError` then reports the last accepted node
    (4.5e-12 past the pole of the separable constant-drift case).
    """
    from ._dop853 import integrate as dop853

    require_finite("Riccati", eta0=eta0)
    x0, x1 = float(x_range[0]), float(x_range[1])

    def rhs(x, y):
        e = y[0]
        return [coeffs.b0(x) + coeffs.b1(x) * e + coeffs.b2(x) * e * e, e]

    sol = dop853(rhs, x0, x1, [float(eta0), 0.0], RICCATI_RTOL, RICCATI_ATOL)
    if sol.message is not None:
        raise RiccatiBlowUpError(float(sol.t[-1]))
    return RiccatiSolution(_dense=sol, x_start=x0)


def reconstruct_solution(rsol: RiccatiSolution, mu: float, x, m0: float = 1.0):
    """Rebuild (Psi, M) from a solved ratio: M = m0 exp(mu int eta - mu x) Psi = eta M.

    The running integral starts at the range's start ``x_start`` (either
    end), so m0 is the value of M there.
    """
    arr = np.atleast_1d(np.asarray(x, float))
    eta = np.atleast_1d(rsol.eta(arr))
    I = np.atleast_1d(rsol.integral(arr))
    m = m0 * np.exp(mu * I - mu * (arr - rsol.x_start))
    psi = eta * m
    if np.ndim(x):
        return psi, m
    return float(psi[0]), float(m[0])
