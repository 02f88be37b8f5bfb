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

In the default weight mode, where :func:`passage_model._route` takes the
ladder route (constant drift c > 0, downward jumps, one-sided ruin, not
certain ruin), paths are drawn under the exponential tilt e^{-R (X - l)}
with R the Lundberg rate (:func:`_sampling_law`).  Every tilted path is
ruined, and it scores its likelihood ratio, so the estimate stays
unbiased and small ruin chances far out in the tail get a small relative
error.  The path counts and the overshoot samples are then those of the
tilted law.  The explicit kill horizon always draws the model itself, and
so stays an independent check of the tilt.

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
    NumericalError,
    PassageProblem,
    _check_sim_fields,
    _decay_certificate,
    _route,
    assemble_system,
)
from .phase_type import PhaseType, sample as ph_sample

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

#: Largest weight a censored path may lose: the default horizon of a killed
#: model is where e^{-qT} reaches EPS, and a path that reaches the Lundberg
#: level (under an explicit kill horizon) has a remaining ruin chance of at
#: most EPS.
EPS = 1e-16

#: Path-rounds one block may take before the engine gives up.
ROUND_BUDGET = 100_000_000


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation request: model, problem, start level, and budget."""

    model: ModelSpec
    problem: PassageProblem
    x0: float
    n_paths: int
    seed: int
    max_time: float | None = None
    kill_mode: str = "weight"

    def __post_init__(self):
        _check_sim_fields(self.x0, self.n_paths, self.seed, self.max_time, self.kill_mode)
        if not (self.problem.lower <= self.x0 <= self.problem.upper_value):
            raise ValueError("x0 must lie in [lower, upper]")

    def resolved_max_time(self) -> float:
        if self.max_time is not None:
            return self.max_time
        return default_max_time(self.model, self.problem, self.x0)


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
    added at most ``censored_weight_bound``, the largest of the bounds of
    the reasons that stopped one: e^{-q T} at horizon T when killing is a
    weight, e^{-R (x0 - l)} at the horizon for paths drawn under the
    Lundberg tilt, 1 under an explicit kill horizon, and :data:`EPS` at the
    Lundberg level, where the explicit kill horizon stops paths of a
    ladder-route problem.  The estimate is therefore negatively biased by
    at most ``censoring_bias_bound`` = ``censored_fraction *
    censored_weight_bound``.  ``n_killed`` is only populated in the
    explicit-horizon kill mode.  ``overshoots`` holds the jump-ruin
    overshoot samples when :func:`estimate` was asked for them.  The counts
    and the overshoots describe the law the paths were drawn from: the
    tilted one, where weight mode tilts.
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
            "censored_weight_bound": self.censored_weight_bound,
            "censoring_bias_bound": self.censoring_bias_bound,
        }


# ---------------------------------------------------------------------------
# Deterministic flow between jumps
# ---------------------------------------------------------------------------

def flow(drift: DriftSpec, x0: float, dt: float) -> float:
    """Position after following dx/dt = phi(x) for time dt.

    The 0-d case of the drift's own flow: exact for constant drift and for
    the exponentially relaxing family (whose flow is linear in
    y = e^{2 mu x}); the inverse of the drift's clock, to
    :data:`passage_model.FLOW_TOL`, for tabulated drifts.
    """
    return float(_vector_flow(drift, x0, dt))


def crossing_time(drift: DriftSpec, x0: float, level: float, side: str) -> float:
    """First time the flow from x0 passes ``level`` (``side`` 'below'/'above').

    The one-dimensional flow is monotone, so there is at most one crossing;
    returns +inf when the flow never reaches the level.
    """
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    return float(_vector_crossing_times(drift, x0, level, side))


def _flow_segment_numeric(drift: DriftSpec, x0: float, T: float, lower: float, upper: float):
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
    return T, flow(drift, x0, T), None


def default_max_time(model: ModelSpec, problem: PassageProblem, x0: float) -> float:
    """50 x the deterministic crossing-time scale of the posed problem.

    With killing, capped where e^{-qT} reaches :data:`EPS`: a path still
    running there can add at most EPS to the estimate.
    """
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
    t_max = 50.0 * max(scale, 1.0 / lam)
    q = model.kill_rate
    return min(t_max, math.log(1.0 / EPS) / q) if q > 0 else t_max


def _ladder_rate(model: ModelSpec, problem: PassageProblem) -> float:
    """Slowest decay rate R of the constant system matrix on the ladder route.

    Where :func:`passage_model._route` takes the ladder route:

    * at zero kill R is the adjustment coefficient, and Lundberg's
      inequality psi(u) <= e^{-R u} holds for any jump law;
    * with killing q > 0, R = R_q solves kappa(-R_q) = q for the Laplace
      exponent kappa of the process, so e^{-q t - R_q (X_t - lower)} is a
      martingale and psi_q(u) <= e^{-R_q u} (Asmussen & Albrecher, Ruin
      Probabilities, 2010).

    Every other posed problem, certain ruin included, and an R too small
    for the eigenvalues to resolve, give 0.
    """
    if _route(model, problem) != "ladder":
        return 0.0
    try:
        _, rate = _decay_certificate(assemble_system(model)(problem.lower))
    except NumericalError:
        return 0.0
    return -rate


def _lundberg_level(model: ModelSpec, problem: PassageProblem) -> float:
    """Level past which a path's remaining ruin chance is below :data:`EPS`.

    It is ``lower + ln(1/EPS)/R`` with R from :func:`_ladder_rate`, and +inf
    where R = 0.  Only ``kill_mode`` "horizon" stops paths there: a live
    path's share of the estimate is psi_q(x) <= e^{-R_q (x - lower)} at any
    age.  Weight mode samples under the tilt instead (:func:`_sampling_law`).
    """
    R = _ladder_rate(model, problem)
    return problem.lower + math.log(1.0 / EPS) / R if R > 0 else math.inf


def _sampling_law(cfg: SimConfig) -> tuple[float, float, PhaseType, float]:
    """(R, jump rate, jump law, kappa(-R)) of the law the engine draws from.

    In weight mode on the ladder route paths are drawn under the
    exponential tilt e^{-R (X - lower)} with R = :func:`_ladder_rate`
    (Siegmund, Ann. Statist. 4, 1976; Asmussen & Albrecher, ch. XV): the
    drift stays c, jumps come at rate lam M(R), M(R) = beta h with
    h = (-B - R I)^{-1} b, and are PH(beta D_h / M(R), D_h^{-1} (B + R I) D_h).
    Ruin is then certain, and a ruined path scores its likelihood ratio
    e^{-R (x0 - lower) - R undershoot + (kappa(-R) - q) tau}.  Everywhere
    else R = 0, which is the model's own law and weight.
    """
    model = cfg.model
    R = _ladder_rate(model, cfg.problem) if cfg.kill_mode == "weight" else 0.0
    if R == 0.0:
        return 0.0, model.jump_rate, model.jumps, 0.0
    pt = model.jumps
    BR = pt.B + R * np.eye(pt.n)
    h = np.linalg.solve(-BR, pt.b)
    mgf = float(pt.beta @ h)
    tilted = PhaseType(pt.beta * h / mgf, BR * h / h[:, None])
    lam = model.jump_rate
    return R, lam * mgf, tilted, lam * (mgf - 1.0) - model.drift.c * R


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
        seg_t, x_next, which = _flow_segment_numeric(model.drift, x, budget, l, L)
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


def _vector_flow(drift: DriftSpec, x, dt):
    """Vector version of :func:`flow` for the batch engine."""
    dt = np.asarray(dt, float)
    if (dt < 0).any():
        raise ValueError("dt must be nonnegative")
    return drift.flow(np.asarray(x, float), dt)


def _run_block(
    cfg: SimConfig,
    n: int,
    rng: np.random.Generator,
    horizon: float,
    level: float,
    law: tuple[float, float, PhaseType, float],
    collect_overshoots: bool,
):
    """Simulate ``n`` paths of ``cfg``; returns weights, counts, overshoots.

    Paths are drawn from ``law``, the output of :func:`_sampling_law`, and
    a ruined path scores e^{-R (x0 - l) - (R + xi) undershoot +
    (kappa(-R) - q) tau}; at R = 0 that is the weight e^{-q tau - xi
    undershoot} of the model itself.  Killing is that weight in
    ``"weight"`` mode; in ``"horizon"`` mode each path runs to min(Exp(q)
    kill time, ``horizon``) and a path stopped by its kill time counts as
    killed.  A path at or above ``level`` (horizon mode, see
    :func:`_lundberg_level`) stops as censored, and ``counts["at_level"]``
    says how many of the censored paths stopped there rather than at the
    horizon.  Where ruin is impossible every path escapes at once.
    """
    model, problem = cfg.model, cfg.problem
    drift = model.drift
    R, lam, jumps, kappa = law
    q = model.kill_rate
    q_w = q if cfg.kill_mode == "weight" else 0.0
    xi = problem.overshoot_xi
    down = model.jump_direction == "downward"
    l, L = problem.lower, problem.upper_value
    want_ruin = problem.estimand == "ruin_below"
    draw_kills = cfg.kill_mode == "horizon" and q > 0

    weights = np.zeros(n)
    counts = {"ruined": 0, "escaped": 0, "censored": 0, "killed": 0, "at_level": 0}
    overshoots = [np.empty(0)]

    def finish(idx, kind, tau, overshoot):
        """Settle finished paths: the one rule for the estimand's weight."""
        counts[kind] += idx.size
        if kind == "ruined" and want_ruin:
            weights[idx] = np.exp((kappa - q_w) * tau - (R + xi) * overshoot - R * (cfg.x0 - l))
        elif kind == "escaped" and not want_ruin:
            weights[idx] = np.exp(-q_w * tau)
        if kind == "ruined" and collect_overshoots:
            jump_hits = overshoot > 0
            if jump_hits.any():
                overshoots.append(overshoot[jump_hits])

    if want_ruin and _route(model, problem) == "impossible":
        # Nothing moves a path down to l: each escapes to +inf, with weight 0.
        finish(np.arange(n), "escaped", np.zeros(n), np.zeros(n))
        return weights, counts, np.concatenate(overshoots)

    # Tabulated drifts keep the per-path engine for now: perfbench's traced
    # run counts their simulate_path calls (ROADMAP item 1).
    if drift.kind == "tabulated":
        to_horizon = replace(cfg, max_time=horizon)
        for i in range(n):
            eq = rng.exponential(1.0 / q) if draw_kills else math.inf
            out = simulate_path(to_horizon if eq >= horizon else replace(cfg, max_time=eq), rng)
            kind = "killed" if out.kind == "censored" and eq < horizon else out.kind
            finish(np.array([i]), kind, np.array([out.tau]), np.array([out.overshoot]))
        return weights, counts, np.concatenate(overshoots)

    # The unfinished paths in path order: id, position, clock and horizon.
    ids = np.arange(n)
    x = np.full(n, float(cfg.x0))
    t = np.zeros(n)
    if draw_kills:
        hz = np.minimum(rng.exponential(1.0 / q, n), horizon)
    else:
        hz = np.full(n, horizon)
    has_level = math.isfinite(level)
    two_sided = math.isfinite(L)
    # A flow from above l reaches it only where the drift is negative at l:
    # a nonnegative drift there keeps every path's lower crossing time at +inf.
    never_low = np.full(n, math.inf) if drift.phi(l) >= 0 else None

    max_rounds = ROUND_BUDGET // max(n, 1) + 1000
    for _ in range(max_rounds):
        if has_level:
            far = x >= level
            if far.any():
                f_ids = ids[far]
                counts["at_level"] += f_ids.size
                finish(f_ids, "censored", t[far], np.zeros(f_ids.size))
                near = ~far
                ids, x, t, hz = ids[near], x[near], t[near], hz[near]
                if ids.size == 0:
                    break
        waits = rng.exponential(1.0 / lam, ids.size)
        if never_low is None:
            t_low = _vector_crossing_times(drift, x, l, "below")
        else:
            t_low = never_low[: ids.size]
        if two_sided:
            t_bdry = np.minimum(t_low, _vector_crossing_times(drift, x, L, "above"))
        else:
            t_bdry = t_low
        remain = hz - t

        hit_bdry = t_bdry <= np.minimum(waits, remain)
        stop = hit_bdry | (waits >= remain)
        if stop.any():
            if hit_bdry.any():
                hit = ids[hit_bdry]
                tau = t[hit_bdry] + t_bdry[hit_bdry]
                low_first = t_low[hit_bdry] <= t_bdry[hit_bdry]
                if low_first.any():
                    finish(hit[low_first], "ruined", tau[low_first], np.zeros(low_first.sum()))
                if not low_first.all():
                    high_first = ~low_first
                    finish(hit[high_first], "escaped", tau[high_first], np.zeros(high_first.sum()))
            timed_out = stop & ~hit_bdry
            if timed_out.any():
                killed = timed_out & (hz < horizon)
                censored = timed_out & ~killed
                if killed.any():
                    finish(ids[killed], "killed", hz[killed], np.zeros(killed.sum()))
                if censored.any():
                    finish(ids[censored], "censored", hz[censored], np.zeros(censored.sum()))
            if stop.all():
                break
            go = ~stop
            ids, x, t, hz, waits = ids[go], x[go], t[go], hz[go], waits[go]
        x = _vector_flow(drift, x, waits)
        t = t + waits
        sizes = ph_sample(jumps, rng, size=ids.size)
        x = x - sizes if down else x + sizes
        crossed = x < l if down else x > L
        if crossed.any():
            if down:
                finish(ids[crossed], "ruined", t[crossed], l - x[crossed])
            else:
                finish(ids[crossed], "escaped", t[crossed], x[crossed] - L)
            keep = ~crossed
            ids, x, t, hz = ids[keep], x[keep], t[keep], hz[keep]
            if ids.size == 0:
                break
    else:
        raise NumericalError("batch engine exceeded its round budget")

    return weights, counts, np.concatenate(overshoots)


def _merge_moments(a, b):
    """Pairwise combination of (count, mean, M2); associative and exact."""
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return (n, mean, m2)


def estimate(cfg: SimConfig, collect_jump_overshoots: bool = False) -> PassageEstimate:
    """Monte Carlo estimate of the posed passage functional.

    Returns the sample mean of the per-path weights together with its
    standard error (sample standard deviation / sqrt(n_paths)).  In weight
    mode on the ladder route the paths are drawn under the Lundberg tilt
    and each weight is the path's likelihood ratio (:func:`_sampling_law`);
    ``kill_mode`` "horizon" never tilts.  Set ``collect_jump_overshoots`` to
    additionally expose the overshoot samples of jump-triggered ruins in
    the ``overshoots`` field, drawn under the same law as the paths.
    """
    horizon = cfg.resolved_max_time()
    weight_mode = cfg.kill_mode == "weight"
    law = _sampling_law(cfg)
    level = math.inf if weight_mode else _lundberg_level(cfg.model, cfg.problem)
    n_blocks = (cfg.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    sizes = [min(BLOCK_SIZE, cfg.n_paths - i * BLOCK_SIZE) for i in range(n_blocks)]
    children = np.random.SeedSequence(cfg.seed).spawn(n_blocks)

    moments = (0, 0.0, 0.0)
    counts = {"ruined": 0, "escaped": 0, "censored": 0, "killed": 0, "at_level": 0}
    overshoots = []
    for child, size in zip(children, sizes):  # merged in block order: deterministic
        weights, cts, osh = _run_block(
            cfg, size, np.random.default_rng(child), horizon, level, law, collect_jump_overshoots
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
    # A censored path lost at most horizon_bound at the horizon, EPS at the level:
    # its weight e^{-R (x0 - l) - (R + xi) undershoot + (kappa(-R) - q) tau} at
    # tau >= horizon, where kappa(-R) - q is -q at R = 0 and 0 (to rounding) else.
    R, _, _, kappa = law
    horizon_bound = (
        math.exp(-R * (cfg.x0 - cfg.problem.lower) - (cfg.model.kill_rate - kappa) * horizon)
        if weight_mode
        else 1.0
    )
    at_horizon = counts["censored"] > counts["at_level"]
    bounds = []
    if at_horizon:
        bounds.append(horizon_bound)
    if counts["at_level"]:
        bounds.append(EPS)
    if all_censored and at_horizon:
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
        censored_weight_bound=max(bounds, default=horizon_bound),
        overshoots=np.concatenate(overshoots) if collect_jump_overshoots else None,
    )
