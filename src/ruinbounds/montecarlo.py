"""Seeded Monte Carlo ruin estimation with exact binomial intervals, plus
empirical harnesses for the pathwise inequalities behind the bounds.

Reproducibility contract: paths are generated in fixed-size batches, each from
a counter-based generator keyed by (seed, batch index). Results are therefore
byte-identical for a given (seed, n_paths, model, u-grid, horizon) no matter
how many worker threads execute the batches.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .distributions import INF, sample
from .models import (
    ExplicitPrefix,
    RiskModel,
    _is_int,
    _layout,
    _reduced,
    sup_log_mgf,
)

__all__ = [
    "BATCH",
    "SimConfig",
    "SimResult",
    "PathRealization",
    "clopper_pearson",
    "simulate_ruin",
    "simulate_ruin_grid",
    "realize_path",
    "check_maximal_inequality",
    "check_discount_ordering",
    "check_bound_dominance",
    "MaximalInequalityReport",
    "OrderingReport",
    "DominanceRow",
    "DominanceReport",
]

# fixed batch shape; changing it changes every stream, so it is a constant,
# not a config knob
BATCH = 65536


@dataclass(frozen=True)
class SimConfig:
    """Simulation sizing and seeding.

    stop_gap, when set, retires a path once its running sum falls that far
    below its running maximum, treating the maximum as final. This is an
    approximation (a path could still climb back); callers enable it only when
    the increment laws make a rebound of that size negligible against the
    tolerance in play.
    """

    n_paths: int = 100_000
    horizon: int = 5000
    seed: int = 0
    confidence: float = 0.99
    stop_gap: float | None = None
    workers: int | None = None

    def __post_init__(self):
        if not (_is_int(self.n_paths) and self.n_paths >= 1):
            raise ValueError(f"n_paths must be a positive integer, got {self.n_paths!r}")
        if not (_is_int(self.horizon) and self.horizon >= 1):
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence!r}")
        if self.stop_gap is not None and not (self.stop_gap > 0.0):
            raise ValueError(f"stop_gap must be positive when set, got {self.stop_gap!r}")
        if self.workers is not None and not (_is_int(self.workers) and self.workers >= 1):
            raise ValueError(f"workers must be None or a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class SimResult:
    """Ruin frequency with an exact binomial interval.

    The horizon truncates each path at finitely many claim epochs, so the
    estimate lower-bounds the untruncated ruin probability; horizon_truncated
    records that caveat on every result.
    """

    u: float
    n_paths: int
    horizon: int
    ruin_count: int
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float
    horizon_truncated: bool = True


def clopper_pearson(x: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial interval for x successes in n trials
    (Clopper & Pearson 1934).

    With a = 1 - confidence, lo solves P[Bin(n, lo) >= x] = a/2 and hi solves
    P[Bin(n, hi) <= x] = 1 - (1 - a/2): the level of the beta quantile
    Beta(x+1, n-x)^{-1}(1 - a/2) once 1 - a/2 is rounded to a double. So the
    interval is the classical one, beta.ppf(a/2, x, n-x+1) to
    beta.ppf(1 - a/2, x+1, n-x), with both ends accurate to a few units in the
    last place.
    """
    if not (_is_int(x) and _is_int(n) and 0 <= x <= n and n >= 1):
        raise ValueError(f"need 0 <= x <= n with n >= 1, got x={x!r}, n={n!r}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    x, n = int(x), int(n)
    a = 1.0 - confidence
    tail = 1.0 - (1.0 - a / 2.0)  # 0 when a/2 is below half an ulp of 1: hi is then 1
    if x == 0:
        lo = 0.0
    elif x == n:
        lo = math.exp(math.log(a / 2.0) / n)
    else:
        lo = _logistic(_solve_upper_tail(x, n, a / 2.0))
    if x == n or tail == 0.0:
        hi = 1.0
    elif x == 0:
        hi = -math.expm1(math.log(tail) / n)
    else:  # P[Bin(n, p) <= x] = P[Bin(n, 1-p) >= n-x]
        hi = _logistic(-_solve_upper_tail(n - x, n, tail))
    return lo, hi


# ---------------------------------------------------------------------------
# binomial tails for the intervals
#
# Both ends solve an upper-tail equation P[Bin(n, r) >= k] = level, with r the
# success probability for lo and the failure probability for hi. Each is solved
# in w = logit(r), from which r and 1 - r both come at full relative accuracy,
# so neither end is found as one minus a number close to 1.

# Loader's (2000) Stirling-series errors log(m!) - log(sqrt(2 pi m) (m/e)^m)
# for m = 1..15, rounded from 40-digit values
_STIRLERR = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
             0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
             0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_LOG_2PI = math.log(2.0 * math.pi)
_TINY = 1e-300  # modified Lentz's stand-in for a zero denominator


def _stirlerr(m: int) -> float:
    """log(m!) - log(sqrt(2 pi m) (m/e)^m) for m >= 1 (C. Loader, Fast and
    Accurate Computation of Binomial Probabilities, 2000)."""
    if m <= 15:
        return _STIRLERR[m - 1]
    mm = float(m) * m
    if m > 500:
        return (1 / 12 - 1 / 360 / mm) / m
    if m > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / mm) / mm) / m
    if m > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / mm) / mm) / mm) / m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, by its series in (x-m)/(x+m) where x is near m
    (Loader 2000)."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    ej = 2.0 * x * v
    v *= v
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if s1 == s:
            return s
        s = s1
        j += 2


def _log_upper_tail(k: int, n: int, r: float, s: float) -> tuple[float, float]:
    """(log P[Bin(n, r) >= k], f) for 0 < k < n and s = 1 - r, where f is the
    derivative of the log tail in logit(r).

    The tail is I_r(k, n-k+1) = dbinom(k; n, r) k s / f, with dbinom from
    Loader's saddle-point form (no lgamma differences) and f the DiDonato-Morris
    continued fraction for the incomplete beta (as in Boost's ibeta_fraction2),
    evaluated by modified Lentz. The fraction reads r and s separately, so the
    tail keeps its relative accuracy in both. It converges fast for r below
    about k/n, where every root lies, since its tail is at most 1/2.
    """
    log_dbinom = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * r) - _bd0(n - k, n * s)
                  - 0.5 * (_LOG_2PI + math.log(k * (n - k) / n)))
    a, b = float(k), float(n - k + 1)
    lam = a * s - b * r + 1.0
    f = a * lam / (a + 1.0) or _TINY
    c, d = f, 0.0
    m = 1
    while True:
        den = a + 2 * m - 1
        an = (a + m - 1) * (a + b + m - 1) * m * (b - m) * r * r / (den * den)
        bn = m + m * (b - m) * r / den + (a + m) * (lam + m * (2.0 - r)) / (den + 2.0)
        d = 1.0 / (bn + an * d or _TINY)
        c = bn + an / c or _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 1e-16:
            return log_dbinom + math.log(k * s / f), f
        m += 1


def _solve_upper_tail(k: int, n: int, level: float) -> float:
    """logit(r) for the r with P[Bin(n, r) >= k] = level, 0 < k < n, 0 < level <= 1/2.

    Newton's method on the log tail in w = logit(r). The log tail is concave
    in w (the logit of a beta variable has a log-concave density), so below
    the root the iterates climb to it monotonically, and from above one step
    lands below it; the floor log(level/n) <= logit(root) (the tail is at most
    n r) keeps that step in range. The start is the normal approximation.
    """
    log_level = math.log(level)
    t = math.sqrt(-2.0 * log_level)
    # the normal quantile of level by Abramowitz & Stegun 26.2.23 (error < 4.5e-4)
    z = t - (2.515517 + t * (0.802853 + 0.010328 * t)) / (1.0 + t * (1.432788 + t * (0.189269 + 0.001308 * t)))
    floor = log_level - math.log(n)
    w = max(math.log(k / (n - k)) - z * math.sqrt(n / (k * (n - k))), floor)
    for _ in range(100):
        log_tail, slope = _log_upper_tail(k, n, _logistic(w), _logistic(-w))
        step = (log_level - log_tail) / slope
        w = max(w + step, floor)
        if abs(step) <= 1e-9:  # quadratic convergence: the next step would be below rounding
            return w
    raise ArithmeticError(f"binomial tail root did not converge for k={k}, n={n}, level={level!r}")


def _logistic(w: float) -> float:
    return 1.0 / (1.0 + math.exp(-w))


# ---------------------------------------------------------------------------
# engine


def _resolve_workers(cfg: SimConfig, n_batches: int) -> int:
    w = cfg.workers
    if w is None:
        env = os.environ.get("RUINBOUND_THREADS", "")
        w = int(env) if env.strip().isdigit() and int(env) >= 1 else min(8, os.cpu_count() or 1)
    return min(w, n_batches)


def _map_batches(cfg: SimConfig, run) -> list:
    """[run(rng, count) for each batch of cfg.n_paths], in batch order.

    Every batch but the last holds BATCH paths and draws from its own Philox
    stream keyed by (seed, batch index), so the results do not depend on how
    many worker threads run the batches.
    """
    sizes = [BATCH] * (cfg.n_paths // BATCH)
    if cfg.n_paths % BATCH:
        sizes.append(cfg.n_paths % BATCH)

    def batch(b: int):
        return run(np.random.Generator(np.random.Philox(key=(int(cfg.seed) << 64) + b)), sizes[b])

    workers = _resolve_workers(cfg, len(sizes))
    if workers == 1:
        return [batch(b) for b in range(len(sizes))]
    # imported here: a package import that never runs the pool leaves concurrent.futures unloaded
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(batch, range(len(sizes))))


def _batch_maxima(dists, weights, rng: np.random.Generator, count: int, u_cap: float, stop_gap) -> np.ndarray:
    """Per-path running maxima of the weighted sums, with early retirement.

    A path retires once its maximum exceeds u_cap (its classification against
    every u <= u_cap is settled) or, when stop_gap is set, once the current sum
    sits stop_gap below the maximum.
    """
    cur = np.zeros(count)
    mx = np.zeros(count)
    out = np.empty(count)
    idx = np.arange(count)
    for k, (dist, w) in enumerate(zip(dists, weights), start=1):
        y = sample(dist, rng, cur.size)
        cur += w * y
        np.maximum(mx, cur, out=mx)
        done = mx > u_cap
        if stop_gap is not None:
            done |= cur < mx - stop_gap
        if done.any():
            out[idx[done]] = mx[done]
            keep = ~done
            cur = cur[keep]
            mx = mx[keep]
            idx = idx[keep]
            if idx.size == 0:
                return out
    out[idx] = mx
    return out


def _run_maxima(model: RiskModel, cfg: SimConfig, horizon: int, u_cap: float) -> np.ndarray:
    """Maxima for all cfg.n_paths paths, batch order fixed by path index; epoch
    k draws its law from the layout and weights it by exp(c_k), as the bounds do."""
    dists, c = _epoch_laws(model, horizon)
    weights = np.exp(c)
    return np.concatenate(_map_batches(
        cfg, lambda rng, count: _batch_maxima(dists, weights, rng, count, u_cap, cfg.stop_gap)))


def _epoch_laws(model: RiskModel, K: int) -> tuple[list, np.ndarray]:
    """Epoch k's base law and log multiplier c_k = log(scale_k v_{k-1}) for
    k = 1..K, from the layout: v_{k-1} Y*_k is e^{c_k} times a draw of the law."""
    laws, slot, c = _layout(model, K)
    return [laws.laws[s] for s in slot.tolist()], c


def simulate_ruin_grid(model: RiskModel, u_grid, cfg: SimConfig) -> list[SimResult]:
    """Ruin frequency over a grid of initial reserves from one set of paths.

    Every u shares the same paths, so estimates across the grid are coupled
    (and monotone in u by construction).
    """
    _reduced(model)
    us = [float(u) for u in u_grid]
    if not us:
        raise ValueError("u_grid must be nonempty")
    for u in us:
        if not (u > 0.0 and u != INF):
            raise ValueError(f"u must be a positive real, got {u!r}")
    horizon = model.horizon()
    if horizon is not None and cfg.horizon > horizon:
        raise ValueError(f"simulation horizon {cfg.horizon} is past the model's horizon {horizon}")
    maxima = _run_maxima(model, cfg, cfg.horizon, max(us))
    results = []
    for u in us:
        count = int(np.count_nonzero(maxima > u))
        lo, hi = clopper_pearson(count, cfg.n_paths, cfg.confidence)
        results.append(SimResult(u, cfg.n_paths, cfg.horizon, count, count / cfg.n_paths, lo, hi, cfg.confidence))
    return results


def simulate_ruin(model: RiskModel, u: float, cfg: SimConfig) -> SimResult:
    """Estimate the probability that the discounted claim surplus ever exceeds u."""
    return simulate_ruin_grid(model, [u], cfg)[0]


# ---------------------------------------------------------------------------
# single-path realization (diagnostics; the checks below run vectorized)


@dataclass(frozen=True)
class PathRealization:
    """One simulated path with both discounting conventions side by side.

    v uses the contractual floor rates; v_star uses the realized rates alpha,
    so s_star_star is the sum the realized path actually accrues. Indices are
    0-based epochs: entry k covers epoch k (entry 0 is the initial state).
    """

    y: np.ndarray
    alpha: np.ndarray
    v: np.ndarray
    v_star: np.ndarray
    s_star: np.ndarray
    s_star_star: np.ndarray


def realize_path(model: RiskModel, horizon: int, seed: int = 0, alpha_sampler=None) -> PathRealization:
    _reduced(model)
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64)))
    K = int(horizon)
    dists, c = _epoch_laws(model, K)
    log_v = model.log_discounts(K)
    x = np.empty(K + 1)
    alpha = np.empty(K + 1)
    x[0] = alpha[0] = 0.0
    rates = np.array([0.0] + [model.rate_at(k) for k in range(1, K + 1)])
    for k in range(1, K + 1):
        x[k] = sample(dists[k - 1], rng, 1)[0]
        if alpha_sampler is None:
            alpha[k] = rates[k]
        else:
            alpha[k] = float(alpha_sampler(rng, k, rates[k], 1)[0])
            if alpha[k] < rates[k] - 1e-12:
                raise ValueError(f"alpha sampler returned {alpha[k]} below the floor rate {rates[k]} at epoch {k}")
    log_vstar = -np.cumsum(np.log1p(alpha))
    log_scale = c - log_v[:K]  # Y_k = e^{log_scale} x_k, with x_k the draw of the base law
    with np.errstate(over="ignore"):  # Y_k of a scaled rule may leave the float range
        y = np.concatenate([[0.0], np.exp(log_scale) * x[1:]])
    # both sums stay in log space: v_{k-1} Y_k = e^{c_k} x_k
    s_star = np.concatenate([[0.0], np.cumsum(np.exp(c) * x[1:] / (1.0 + alpha[1:]))])
    s_star_star = np.concatenate([[0.0], np.cumsum(np.exp(log_vstar[1:] + log_scale) * x[1:])])
    return PathRealization(y, alpha, np.exp(log_v), np.exp(log_vstar), s_star, s_star_star)


# ---------------------------------------------------------------------------
# empirical harnesses


@dataclass(frozen=True)
class MaximalInequalityReport:
    ok: bool
    estimate: float
    ci_low: float
    ci_high: float
    rhs: float
    rhs_log: float
    n_paths: int

    def __bool__(self) -> bool:
        return self.ok


def check_maximal_inequality(dists, h: float, w: float, n: int, cfg: SimConfig) -> MaximalInequalityReport:
    """Empirically confront P[max_k sums > w] with exp(-h w) max_k E exp(h S_k).

    dists shorter than n is cycled. The right side is computed analytically;
    the left side is simulated, and the check passes when the interval's lower
    end does not exceed the right side.
    """
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not len(dists):
        raise ValueError("dists must hold at least one law")
    if not (h >= 0.0):
        raise ValueError(f"h must be nonnegative, got {h!r}")
    model = RiskModel(ExplicitPrefix(tuple(dists[i % len(dists)] for i in range(n))))
    g_max = sup_log_mgf(model, h).value
    rhs_log = 0.0 if g_max == INF else min(0.0, -h * w + g_max)
    maxima = _run_maxima(model, cfg, n, w)
    count = int(np.count_nonzero(maxima > w))
    lo, hi = clopper_pearson(count, cfg.n_paths, cfg.confidence)
    rhs = math.exp(rhs_log)
    return MaximalInequalityReport(lo <= rhs + 1e-12, count / cfg.n_paths, lo, hi, rhs, rhs_log, cfg.n_paths)


@dataclass(frozen=True)
class OrderingReport:
    ok: bool
    max_violation: float
    n_paths: int
    horizon: int

    def __bool__(self) -> bool:
        return self.ok


def _default_alpha_sampler(rng, k, floor, size):
    return floor + rng.standard_exponential(size)


def check_discount_ordering(model: RiskModel, cfg: SimConfig, alpha_sampler=None, slack: float = 1e-9) -> OrderingReport:
    """Pathwise check that discounting by the realized rates alpha_k >= r_k
    never raises the running maximum above the floor-rate discounted one.

    The model's increments are the raw claim laws Y_k here; each path draws
    alpha_k from the sampler (default: floor plus a standard exponential) and
    accumulates both conventions exactly.
    """
    _reduced(model)
    sampler = alpha_sampler or _default_alpha_sampler
    K = cfg.horizon
    dists, c = _epoch_laws(model, K)
    weights, log_scale = np.exp(c), c - model.log_discounts(K - 1)
    rates = [model.rate_at(k) for k in range(1, K + 1)]

    def batch_violation(rng: np.random.Generator, count: int) -> float:
        cur_s = np.zeros(count)
        mx_s = np.zeros(count)
        cur_ss = np.zeros(count)
        mx_ss = np.zeros(count)
        log_vstar = np.zeros(count)
        for k in range(1, K + 1):
            x = sample(dists[k - 1], rng, count)
            a = np.asarray(sampler(rng, k, rates[k - 1], count), dtype=float)
            if np.any(a < rates[k - 1] - 1e-12):
                raise ValueError(f"alpha sampler went below the floor rate at epoch {k}")
            cur_s += weights[k - 1] * x / (1.0 + a)
            np.maximum(mx_s, cur_s, out=mx_s)
            log_vstar -= np.log1p(a)
            cur_ss += np.exp(log_vstar + log_scale[k - 1]) * x
            np.maximum(mx_ss, cur_ss, out=mx_ss)
        return float(np.max(mx_ss - mx_s))

    worst = max(_map_batches(cfg, batch_violation))
    return OrderingReport(worst <= slack, worst, cfg.n_paths, K)


@dataclass(frozen=True)
class DominanceRow:
    u: float
    estimate: float
    ci_low: float
    ci_high: float
    bound: float
    dominated: bool
    uninformative: bool


@dataclass(frozen=True)
class DominanceReport:
    ok: bool
    rows: tuple[DominanceRow, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_bound_dominance(model: RiskModel, u_grid, bound_results, cfg: SimConfig) -> DominanceReport:
    """Confront simulated ruin frequencies with computed bounds on a u-grid.

    A row is dominated when the interval's lower end stays at or below the
    bound. Rows where the bound sits under the simulation's resolution and no
    ruin was observed are flagged uninformative (vacuously dominated).
    """
    us = list(u_grid)
    bounds = list(bound_results)
    if len(us) != len(bounds):
        raise ValueError("u_grid and bound_results must align")
    sims = simulate_ruin_grid(model, us, cfg)
    rows = []
    for sim, br in zip(sims, bounds):
        bound = math.exp(br.log_bound) if hasattr(br, "log_bound") else float(br)
        dominated = sim.ci_low <= bound + 1e-12
        uninformative = sim.ruin_count == 0 and bound < 1.0 / cfg.n_paths
        rows.append(DominanceRow(sim.u, sim.estimate, sim.ci_low, sim.ci_high, bound, dominated, uninformative))
    return DominanceReport(all(r.dominated for r in rows), tuple(rows))
