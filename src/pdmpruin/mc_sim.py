"""Monte Carlo oracle for killed first-passage probabilities.

Simulates the piecewise deterministic process directly: deterministic
drift flow between Poisson jump epochs, phase-type jump sizes, exact
passage-time detection at the boundaries.  Flows and crossing times come
from the drift itself (``flow``/``travel_time`` on each drift type: closed
forms, or the inverse clock of a tabulated drift).  Killing is handled by
weighting completed paths with exp(-q tau) (an explicit exponential
horizon is available as an auxiliary mode for cross-validation), and the
overshoot penalty weight exp(xi (X_tau - l)) is supported for ruin
estimands.

Paths are partitioned into fixed-size blocks, each driven by a
counter-derived child seed, and block results are merged with the
pairwise mean/variance combination in block order, so results are
deterministic for a given (seed, n_paths).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .passage_model import (
    DriftSpec,
    ModelSpec,
    PassageProblem,
    require_finite,
)
from .phase_type import sample as ph_sample

__all__ = [
    "SimConfig",
    "PathOutcome",
    "PassageEstimate",
    "flow",
    "crossing_time",
    "simulate_path",
    "estimate",
    "default_max_time",
]

#: Paths per block; each block draws from its own counter-derived child seed.
BLOCK_SIZE = 8192


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation request: model, problem, start level, and budget."""

    model: ModelSpec
    problem: PassageProblem
    x0: float
    n_paths: int
    seed: int
    max_time: float | None = None
    flow_tolerance: float = 1e-10
    kill_mode: str = "weight"

    def __post_init__(self):
        require_finite(
            "simulation",
            x0=self.x0,
            max_time=self.max_time,
            flow_tolerance=self.flow_tolerance,
        )
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.max_time is not None and self.max_time <= 0:
            raise ValueError("max_time must be positive")
        if not (self.problem.lower <= self.x0 <= self.problem.upper_value):
            raise ValueError("x0 must lie in [lower, upper]")
        if self.kill_mode not in ("weight", "horizon"):
            raise ValueError("kill_mode must be 'weight' or 'horizon'")

    def resolved_max_time(self) -> float:
        if self.max_time is not None:
            return self.max_time
        return default_max_time(self.model, self.problem, self.x0)

    def to_dict(self) -> dict:
        return {
            "x0": self.x0,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "max_time": self.max_time,
            "flow_tolerance": self.flow_tolerance,
            "kill_mode": self.kill_mode,
        }


@dataclass(frozen=True)
class PathOutcome:
    """Result of one simulated path."""

    kind: str  # ruined | escaped | censored | killed
    tau: float
    overshoot: float = 0.0
    n_jumps: int = 0


@dataclass(frozen=True)
class PassageEstimate:
    """Monte Carlo estimate with its standard error and path accounting.

    Censored paths contribute 0 to the estimand where each could have
    added at most ``censored_weight_bound``: e^{-q T} at horizon T when
    killing is a weight, 1 under an explicit kill horizon.  The estimate
    is therefore negatively biased by at most ``censoring_bias_bound`` =
    ``censored_fraction * censored_weight_bound``.  ``n_killed`` is only
    populated in the explicit-horizon kill mode.  ``overshoots`` holds the
    jump-ruin overshoot samples when :func:`estimate` was asked for them.
    """

    mean: float
    std_error: float
    n_paths: int
    n_ruined: int
    n_escaped: int
    n_censored: int
    n_killed: int
    target: str
    all_censored: bool = False
    censored_weight_bound: float = 1.0
    overshoots: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.n_paths

    @property
    def censoring_bias_bound(self) -> float:
        return self.censored_fraction * self.censored_weight_bound

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "n_ruined": self.n_ruined,
            "n_escaped": self.n_escaped,
            "n_censored": self.n_censored,
            "n_killed": self.n_killed,
            "target": self.target,
            "censored_fraction": self.censored_fraction,
        }


# ---------------------------------------------------------------------------
# Deterministic flow between jumps
# ---------------------------------------------------------------------------

def flow(drift: DriftSpec, x0: float, dt: float, tol: float = 1e-10) -> float:
    """Position after following dx/dt = phi(x) for time dt.

    The 0-d case of the drift's own flow: exact for constant drift and for
    the exponentially relaxing family (whose flow is linear in
    y = e^{2 mu x}); the inverse of the drift's clock, to ``tol``, for
    tabulated drifts.
    """
    return float(_vector_flow(drift, x0, dt, tol))


def crossing_time(drift: DriftSpec, x0: float, level: float, side: str) -> float:
    """First time the flow from x0 passes ``level`` (``side`` 'below'/'above').

    The one-dimensional flow is monotone, so there is at most one crossing;
    returns +inf when the flow never reaches the level.
    """
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    return float(_vector_crossing_times(drift, x0, level, side))


def _flow_segment_numeric(
    drift: DriftSpec, x0: float, T: float, lower: float, upper: float, tol: float
):
    """Advance a path by up to T, stopping at a boundary.

    Returns (t_event, x_event, which) with which in {None, 'below', 'above'}.
    A tabulated flow that would leave its sign domain within T raises
    :class:`NumericalError`.
    """
    t_low = crossing_time(drift, x0, lower, "below")
    t_high = crossing_time(drift, x0, upper, "above") if math.isfinite(upper) else math.inf
    if min(t_low, t_high) <= T:
        if t_low <= t_high:
            return t_low, lower, "below"
        return t_high, upper, "above"
    return T, flow(drift, x0, T, tol), None


def default_max_time(model: ModelSpec, problem: PassageProblem, x0: float) -> float:
    """50 x the deterministic crossing-time scale of the posed problem."""
    drift = model.drift
    l = problem.lower
    mean_jump = model.jumps.mean()
    lam = model.jump_rate
    t_cross = crossing_time(drift, x0, l, "below")
    if math.isfinite(t_cross) and t_cross > 0:
        scale = t_cross
    else:
        # Upward or neutral drift: time scale of one excursion plus jumps.
        ph = abs(drift.phi(x0))
        ph = max(ph, abs(drift.phi(l)), 1e-6)
        scale = (x0 - l + 10.0 * mean_jump) / ph
    return 50.0 * max(scale, 1.0 / lam)


# ---------------------------------------------------------------------------
# Single-path reference implementation
# ---------------------------------------------------------------------------

def simulate_path(cfg: SimConfig, rng: np.random.Generator) -> PathOutcome:
    """One path of the process; the scalar reference for the batch engine."""
    model, problem = cfg.model, cfg.problem
    lam = model.jump_rate
    down = model.jump_direction == "downward"
    l, L = problem.lower, problem.upper_value
    horizon = cfg.resolved_max_time()

    x = cfg.x0
    t = 0.0
    n_jumps = 0
    while True:
        wait = rng.exponential(1.0 / lam)
        budget = min(wait, horizon - t)
        seg_t, x_next, which = _flow_segment_numeric(
            model.drift, x, budget, l, L, cfg.flow_tolerance
        )
        if which == "below":
            return PathOutcome("ruined", t + seg_t, 0.0, n_jumps)
        if which == "above":
            return PathOutcome("escaped", t + seg_t, 0.0, n_jumps)
        if wait >= horizon - t:
            return PathOutcome("censored", horizon, 0.0, n_jumps)
        x = x_next
        t += wait
        jump = ph_sample(model.jumps, rng)
        n_jumps += 1
        if down:
            x -= jump
            if x < l:
                return PathOutcome("ruined", t, l - x, n_jumps)
        else:
            x += jump
            if x > L:
                return PathOutcome("escaped", t, x - L, n_jumps)


# ---------------------------------------------------------------------------
# Vectorized block engine
# ---------------------------------------------------------------------------

def _vector_crossing_times(drift: DriftSpec, x, level: float, side: str):
    """Vector version of :func:`crossing_time` for the batch engine.

    The rules that hold for every drift live here: a point already past the
    level crosses at 0, a point on it at 0 or never by the drift's sign; the
    drift's ``travel_time`` answers for the points still ahead of it.
    """
    x = np.asarray(x, float)
    below = side == "below"
    ahead = x > level if below else x < level
    if ahead.all():
        return drift.travel_time(x, level)
    out = np.zeros(x.shape)
    out[ahead] = drift.travel_time(x[ahead], level)
    on = x == level
    if on.any():
        ph = drift.phi(x[on])
        out[on] = np.where(ph < 0 if below else ph > 0, 0.0, math.inf)
    return out


def _vector_flow(drift: DriftSpec, x, dt, tol: float = 1e-10):
    """Vector version of :func:`flow` for the batch engine."""
    dt = np.asarray(dt, float)
    if np.any(dt < 0):
        raise ValueError("dt must be nonnegative")
    return drift.flow(np.asarray(x, float), dt, tol)


def _run_block(
    model: ModelSpec,
    problem: PassageProblem,
    x0: float,
    n: int,
    rng: np.random.Generator,
    horizon: float,
    kill_mode: str,
    flow_tol: float,
    collect_overshoots: bool,
):
    """Simulate one block of paths; returns weights, counts, overshoots.

    Killing is a weight e^{-q tau} in ``"weight"`` mode; in ``"horizon"``
    mode each path runs to min(Exp(q) kill time, ``horizon``) and a path
    stopped by its kill time counts as killed.
    """
    drift = model.drift
    lam = model.jump_rate
    q = model.kill_rate
    q_w = q if kill_mode == "weight" else 0.0
    xi = problem.overshoot_xi
    down = model.jump_direction == "downward"
    l, L = problem.lower, problem.upper_value
    want_ruin = problem.estimand == "ruin_below"
    draw_kills = kill_mode == "horizon" and q > 0

    alive = np.ones(n, dtype=bool)
    weights = np.zeros(n)
    counts = {"ruined": 0, "escaped": 0, "censored": 0, "killed": 0}
    overshoots = [np.empty(0)]

    def finish(idx, kind, tau, overshoot):
        """Settle finished paths: the one rule for the estimand's weight."""
        alive[idx] = False
        counts[kind] += idx.size
        if kind == "ruined" and want_ruin:
            weights[idx] = np.exp(-q_w * tau - xi * overshoot)
        elif kind == "escaped" and not want_ruin:
            weights[idx] = np.exp(-q_w * tau)
        if kind == "ruined" and collect_overshoots:
            jump_hits = overshoot > 0
            if np.any(jump_hits):
                overshoots.append(overshoot[jump_hits])

    # Tabulated drifts keep the per-path engine for now: perfbench's traced
    # run counts their simulate_path calls (ROADMAP item 2).
    if drift.kind == "tabulated":
        cfg = SimConfig(model=model, problem=problem, x0=x0, n_paths=n, seed=0,
                        max_time=horizon, flow_tolerance=flow_tol)
        for i in range(n):
            eq = rng.exponential(1.0 / q) if draw_kills else math.inf
            out = simulate_path(cfg if eq >= horizon else replace(cfg, max_time=eq), rng)
            kind = "killed" if out.kind == "censored" and eq < horizon else out.kind
            finish(np.array([i]), kind, np.array([out.tau]), np.array([out.overshoot]))
        return weights, counts, np.concatenate(overshoots)

    if draw_kills:
        horizons = np.minimum(rng.exponential(1.0 / q, n), horizon)
    else:
        horizons = np.full(n, horizon)
    killed_possible = horizons < horizon

    x = np.full(n, float(x0))
    t = np.zeros(n)

    max_rounds = 100_000_000 // max(n, 1) + 1000
    for _ in range(max_rounds):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        xi_cur = x[idx]
        t_cur = t[idx]
        waits = rng.exponential(1.0 / lam, idx.size)
        t_low = _vector_crossing_times(drift, xi_cur, l, "below")
        t_high = (
            _vector_crossing_times(drift, xi_cur, L, "above")
            if math.isfinite(L)
            else np.full(idx.size, math.inf)
        )
        t_bdry = np.minimum(t_low, t_high)
        remain = horizons[idx] - t_cur

        hit_bdry = t_bdry <= np.minimum(waits, remain)
        if np.any(hit_bdry):
            hit = idx[hit_bdry]
            low_first = t_low[hit_bdry] <= t_high[hit_bdry]
            tau = t_cur[hit_bdry] + t_bdry[hit_bdry]
            sub_low = hit[low_first]
            if sub_low.size:
                finish(sub_low, "ruined", tau[low_first], np.zeros(sub_low.size))
            sub_high = hit[~low_first]
            if sub_high.size:
                finish(sub_high, "escaped", tau[~low_first], np.zeros(sub_high.size))

        cont = ~hit_bdry
        timed_out = cont & (waits >= remain)
        if np.any(timed_out):
            out_idx = idx[timed_out]
            was_killed = killed_possible[out_idx]
            k_idx = out_idx[was_killed]
            c_idx = out_idx[~was_killed]
            if k_idx.size:
                finish(k_idx, "killed", horizons[k_idx], np.zeros(k_idx.size))
            if c_idx.size:
                finish(c_idx, "censored", horizons[c_idx], np.zeros(c_idx.size))

        go = cont & ~timed_out
        if not np.any(go):
            continue
        g_idx = idx[go]
        x_new = _vector_flow(drift, xi_cur[go], waits[go], flow_tol)
        t_new = t_cur[go] + waits[go]
        jumps = ph_sample(model.jumps, rng, size=g_idx.size)
        if down:
            x_new = x_new - jumps
            crossed = x_new < l
            if np.any(crossed):
                finish(g_idx[crossed], "ruined", t_new[crossed], l - x_new[crossed])
        else:
            x_new = x_new + jumps
            crossed = x_new > L
            if np.any(crossed):
                finish(g_idx[crossed], "escaped", t_new[crossed], x_new[crossed] - L)
        keep = ~crossed
        x[g_idx[keep]] = x_new[keep]
        t[g_idx[keep]] = t_new[keep]
    else:
        raise RuntimeError("batch engine exceeded its round budget")

    return weights, counts, np.concatenate(overshoots)


def _merge_moments(a, b):
    """Pairwise combination of (count, mean, M2); associative and exact."""
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    if n == 0:
        return (0, 0.0, 0.0)
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return (n, mean, m2)


def estimate(cfg: SimConfig, collect_jump_overshoots: bool = False) -> PassageEstimate:
    """Monte Carlo estimate of the posed passage functional.

    Returns the sample mean of the per-path weights together with its
    standard error (sample standard deviation / sqrt(n_paths)).  Set
    ``collect_jump_overshoots`` to additionally expose the overshoot
    samples of jump-triggered ruins in the ``overshoots`` field.
    """
    horizon = cfg.resolved_max_time()
    n_blocks = (cfg.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    sizes = [min(BLOCK_SIZE, cfg.n_paths - i * BLOCK_SIZE) for i in range(n_blocks)]
    children = np.random.SeedSequence(cfg.seed).spawn(n_blocks)

    moments = (0, 0.0, 0.0)
    counts = {"ruined": 0, "escaped": 0, "censored": 0, "killed": 0}
    overshoots = []
    for child, size in zip(children, sizes):  # merged in block order: deterministic
        weights, cts, osh = _run_block(
            cfg.model,
            cfg.problem,
            cfg.x0,
            size,
            np.random.default_rng(child),
            horizon,
            cfg.kill_mode,
            cfg.flow_tolerance,
            collect_jump_overshoots,
        )
        m = weights.mean()
        m2 = float(np.sum((weights - m) ** 2))
        moments = _merge_moments(moments, (weights.size, float(m), m2))
        for k in counts:
            counts[k] += cts[k]
        overshoots.append(osh)

    n, mean, m2 = moments
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf
    if cfg.problem.estimand == "ruin_below":
        target = "psi_q_overshoot" if cfg.problem.overshoot_xi > 0 else "psi_q"
        if cfg.problem.upper is not None:
            target = "two_sided_ruin_below"
    else:
        target = "two_sided_exit_above"
    all_censored = counts["censored"] == cfg.n_paths
    if all_censored:
        warnings.warn(
            "all paths were censored: max_time is too small for this model",
            UserWarning,
            stacklevel=2,
        )
    return PassageEstimate(
        mean=mean,
        std_error=std_error,
        n_paths=cfg.n_paths,
        n_ruined=counts["ruined"],
        n_escaped=counts["escaped"],
        n_censored=counts["censored"],
        n_killed=counts["killed"],
        target=target,
        all_censored=all_censored,
        censored_weight_bound=(
            math.exp(-cfg.model.kill_rate * horizon) if cfg.kill_mode == "weight" else 1.0
        ),
        overshoots=np.concatenate(overshoots) if collect_jump_overshoots else None,
    )
