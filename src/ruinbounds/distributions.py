"""Closed-form log moment generating functions and exact samplers.

Every family in the catalogue evaluates log E exp(t Y) analytically as a
plain float, with math.inf standing for a divergent expectation. Values are
never NaN: the only non-finite result an evaluation may produce is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

__all__ = [
    "INF",
    "IncrementDistribution",
    "Normal",
    "Uniform",
    "TwoPoint",
    "ShiftedExponential",
    "CompoundIncrement",
    "Degenerate",
    "Scaled",
    "FiniteDiscrete",
    "log_mgf",
    "log_mgf_at",
    "mgf_domain",
    "mgf_domain_sup",
    "mean",
    "support_bounds",
    "has_atom_at",
    "sample",
]


def _require_finite(name: str, **params: float) -> None:
    for key, val in params.items():
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            raise ValueError(f"{name}.{key} must be a finite number, got {val!r}")


def _logaddexp(a: float, b: float) -> float:
    if a == -INF:
        return b
    if b == -INF:
        return a
    m = a if a > b else b
    if m == INF:
        return INF
    return m + math.log1p(math.exp(-abs(a - b)))


def _log_expm1_ratio(x: float) -> float:
    """log((exp(x) - 1) / x) for x <= 30 (Uniform takes larger x on its own),
    continuous through x = 0."""
    if abs(x) < 1e-6:
        # series keeps relative error below 1e-12 where expm1(x)/x cancels
        return x / 2.0 + x * x / 24.0
    if x < -30.0:
        return math.log1p(-math.exp(x)) - math.log(-x)
    return math.log(math.expm1(x) / x)


def _log_expm1_ratio_vec(x: np.ndarray) -> np.ndarray:
    """_log_expm1_ratio elementwise, with the same branches."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    low = x < -30.0
    mid = ~(small | low)
    xs, xl, xm = x[small], x[low], x[mid]
    out[small] = xs / 2.0 + xs * xs / 24.0
    out[low] = np.log1p(-np.exp(xl)) - np.log(-xl)
    out[mid] = np.log(np.expm1(xm) / xm)
    return out


class IncrementDistribution:
    """Base class for the closed catalogue of one-dimensional increment laws."""

    __slots__ = ()

    def _lmgf(self, t: float) -> float:
        raise NotImplementedError

    # Vectorized log-MGF: _table(laws) turns laws of one family into parameter
    # arrays, one entry (row) per law, and _lmgf_vec(params, t) evaluates row i
    # at t[i] with the same arithmetic as _lmgf. Families without a closed
    # vectorized form keep the laws themselves and evaluate them one by one.

    @classmethod
    def _table(cls, laws) -> tuple[np.ndarray, ...]:
        objects = np.empty(len(laws), dtype=object)
        objects[:] = laws
        return (objects,)

    @staticmethod
    def _lmgf_vec(params: tuple[np.ndarray, ...], t: np.ndarray) -> np.ndarray:
        (laws,) = params
        return np.array([law._lmgf(x) for law, x in zip(laws, t.tolist())], dtype=float)

    def _domain(self) -> tuple[float, float]:
        """Open interval of t where log E exp(t Y) is finite."""
        raise NotImplementedError

    def _scales(self) -> tuple[float, float, float]:
        """(s, l, k) for the rounding of the kernels: evaluated at the rounded
        t(1 + d), |d| <= eps, _lmgf and _lmgf_vec differ from the exact log-MGF
        g(t) by at most k eps (|g(t)| + |t| s + l + t / (b - t)), the last part
        only for t > 0 where the MGF domain ends at a finite b. s also bounds
        |E Y|, so that g(t) >= -|t| s (Jensen), and l counts the logs of the
        parameters that a kernel adds up. The rounding model of models
        (_rounding_scale, _error) reads them for its one consumer, the chord
        certificates' margins. A family that does not state them gives +inf:
        no bound."""
        return INF, INF, INF

    def _support(self) -> tuple[float, float]:
        raise NotImplementedError

    def _mean(self) -> float:
        raise NotImplementedError

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def _atom_at(self, x: float) -> bool:
        return False


@dataclass(frozen=True)
class Normal(IncrementDistribution):
    mean: float
    variance: float

    def __post_init__(self) -> None:
        _require_finite("Normal", mean=self.mean, variance=self.variance)
        if self.variance <= 0.0:
            raise ValueError("Normal.variance must be positive")

    def _lmgf(self, t: float) -> float:
        return t * self.mean + 0.5 * self.variance * t * t

    def _scales(self):
        return abs(self.mean), 0.0, 16.0

    @classmethod
    def _table(cls, laws):
        # (mean, variance / 2): the product 0.5 * variance that _lmgf takes first
        return (np.array([d.mean for d in laws]), 0.5 * np.array([d.variance for d in laws]))

    @staticmethod
    def _lmgf_vec(params, t):
        mean, half_variance = params
        return t * mean + half_variance * t * t

    def _domain(self) -> tuple[float, float]:
        return (-INF, INF)

    def _support(self) -> tuple[float, float]:
        return (-INF, INF)

    def _mean(self) -> float:
        return self.mean

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * rng.standard_normal(size)


@dataclass(frozen=True)
class Uniform(IncrementDistribution):
    lower: float
    upper: float

    def __post_init__(self) -> None:
        _require_finite("Uniform", lower=self.lower, upper=self.upper)
        if not self.lower < self.upper:
            raise ValueError("Uniform requires lower < upper")

    # Past x = t (upper - lower) = 30 the log-MGF is taken from the upper end,
    # t upper - log x + log1p(-e^-x), with log x = log t + log(upper - lower) so
    # that it holds where x leaves the float range: t lower + x would cancel.

    def _lmgf(self, t: float) -> float:
        width = self.upper - self.lower
        x = t * width
        if x > 30.0:
            return t * self.upper - (math.log(t) + math.log(width)) + math.log1p(-math.exp(-x))
        return t * self.lower + _log_expm1_ratio(x)

    def _scales(self):
        # log t, past x = 30, is at most x + |log width|
        width = self.upper - self.lower
        return abs(self.lower) + abs(self.upper) + 2.0 * width, 2.0 * abs(math.log(width)) + 4.0, 16.0

    @classmethod
    def _table(cls, laws):
        # (lower, upper, upper - lower, log(upper - lower))
        lower, upper = np.array([d.lower for d in laws]), np.array([d.upper for d in laws])
        width = upper - lower
        return lower, upper, width, np.log(width)

    @staticmethod
    def _lmgf_vec(params, t):
        lower, upper, width, log_width = params
        x = t * width
        # all in the middle branch: 1e-6 <= x <= 30 (a NaN fails both tests;
        # x in [-30, -1e-6] takes the masked path, with the same values)
        if x.size and 1e-6 <= x.min() and x.max() <= 30.0:
            return t * lower + np.log(np.expm1(x) / x)
        out = t * lower + _log_expm1_ratio_vec(x)
        high = x > 30.0
        if high.any():
            th = t[high]
            out[high] = th * upper[high] - (np.log(th) + log_width[high]) + np.log1p(-np.exp(-x[high]))
        return out

    def _domain(self) -> tuple[float, float]:
        return (-INF, INF)

    def _support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def _mean(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.lower + (self.upper - self.lower) * rng.random(size)


@dataclass(frozen=True)
class TwoPoint(IncrementDistribution):
    x1: float
    p1: float
    x2: float

    def __post_init__(self) -> None:
        _require_finite("TwoPoint", x1=self.x1, p1=self.p1, x2=self.x2)
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError("TwoPoint.p1 must lie in [0, 1]")

    def _lmgf(self, t: float) -> float:
        if self.p1 == 0.0:
            return t * self.x2
        if self.p1 == 1.0:
            return t * self.x1
        return _logaddexp(
            math.log(self.p1) + t * self.x1,
            math.log1p(-self.p1) + t * self.x2,
        )

    def _scales(self):
        s = abs(self.x1) + abs(self.x2)
        if self.p1 in (0.0, 1.0):
            return s, 0.0, 16.0
        return s, abs(math.log(self.p1)) + abs(math.log1p(-self.p1)) + 2.0, 16.0

    @classmethod
    def _table(cls, laws):
        # (x1, log p1, x2, log p2), and the masks of the finite log-weights
        # when some atom has probability zero
        p1 = np.array([d.p1 for d in laws])
        with np.errstate(divide="ignore"):
            log_p1, log_p2 = np.log(p1), np.log1p(-p1)
        finite = log_p1 > -INF, log_p2 > -INF
        params = (np.array([d.x1 for d in laws]), log_p1, np.array([d.x2 for d in laws]), log_p2)
        return params if finite[0].all() and finite[1].all() else params + finite

    @staticmethod
    def _lmgf_vec(params, t):
        x1, log_p1, x2, log_p2, *finite = params
        a, b = log_p1 + t * x1, log_p2 + t * x2
        if finite:
            # an atom of probability zero has log-weight -inf and drops out of
            # the sum, which leaves t * x of the other atom as in _lmgf
            a, b = np.where(finite[0], a, -INF), np.where(finite[1], b, -INF)
        return np.logaddexp(a, b)

    def _domain(self) -> tuple[float, float]:
        return (-INF, INF)

    def _support(self) -> tuple[float, float]:
        xs = [x for x, p in ((self.x1, self.p1), (self.x2, 1.0 - self.p1)) if p > 0.0]
        return (min(xs), max(xs))

    def _mean(self) -> float:
        return self.p1 * self.x1 + (1.0 - self.p1) * self.x2

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # inverse transform: u < p1 selects x1
        return np.where(rng.random(size) < self.p1, self.x1, self.x2)

    def _atom_at(self, x: float) -> bool:
        return (self.p1 > 0.0 and x == self.x1) or (self.p1 < 1.0 and x == self.x2)


@dataclass(frozen=True)
class ShiftedExponential(IncrementDistribution):
    """Y = shift + E with E exponential of the given rate: P[Y > x] = exp(-rate (x - shift))."""

    rate: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("ShiftedExponential", rate=self.rate, shift=self.shift)
        if self.rate <= 0.0:
            raise ValueError("ShiftedExponential.rate must be positive")

    def _lmgf(self, t: float) -> float:
        if t >= self.rate:
            # divergent at the boundary as well, keeping the domain sup strict
            return INF
        return t * self.shift + math.log(self.rate) - math.log(self.rate - t)

    def _scales(self):
        return abs(self.shift) + 1.0 / self.rate, 2.0 * abs(math.log(self.rate)) + 2.0, 16.0

    @classmethod
    def _table(cls, laws):
        # (rate, shift, log rate)
        rate = np.array([d.rate for d in laws])
        return rate, np.array([d.shift for d in laws]), np.log(rate)

    @staticmethod
    def _lmgf_vec(params, t):
        rate, shift, log_rate = params
        inside = t < rate
        if inside.all():
            return t * shift + log_rate - np.log(rate - t)
        finite = t * shift + log_rate - np.log(np.where(inside, rate - t, 1.0))
        return np.where(inside, finite, INF)

    def _domain(self) -> tuple[float, float]:
        return (-INF, self.rate)

    def _support(self) -> tuple[float, float]:
        return (self.shift, INF)

    def _mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # inverse transform; random() < 1 keeps log1p argument > -1
        return self.shift - np.log1p(-rng.random(size)) / self.rate


@dataclass(frozen=True)
class Degenerate(IncrementDistribution):
    value: float

    def __post_init__(self) -> None:
        _require_finite("Degenerate", value=self.value)

    def _lmgf(self, t: float) -> float:
        return t * self.value

    def _scales(self):
        return abs(self.value), 0.0, 16.0

    @classmethod
    def _table(cls, laws):
        return (np.array([d.value for d in laws]),)

    @staticmethod
    def _lmgf_vec(params, t):
        (value,) = params
        return t * value

    def _domain(self) -> tuple[float, float]:
        return (-INF, INF)

    def _support(self) -> tuple[float, float]:
        return (self.value, self.value)

    def _mean(self) -> float:
        return self.value

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # consumes no randomness
        return np.full(size, self.value)

    def _atom_at(self, x: float) -> bool:
        return x == self.value


@dataclass(frozen=True)
class Scaled(IncrementDistribution):
    factor: float
    inner: IncrementDistribution

    def __post_init__(self) -> None:
        _require_finite("Scaled", factor=self.factor)
        if self.factor == 0.0:
            raise ValueError("Scaled.factor must be nonzero")
        if not isinstance(self.inner, IncrementDistribution):
            raise ValueError("Scaled.inner must be an IncrementDistribution")

    def _lmgf(self, t: float) -> float:
        return log_mgf_at(self.inner, t * self.factor)

    def _scales(self):
        s, l, k = self.inner._scales()
        return abs(self.factor) * s, l, k + 2.0

    def _domain(self) -> tuple[float, float]:
        lo, hi = self.inner._domain()
        if self.factor > 0.0:
            return (lo / self.factor, hi / self.factor)
        return (hi / self.factor, lo / self.factor)

    def _support(self) -> tuple[float, float]:
        lo, hi = self.inner._support()
        if self.factor > 0.0:
            return (self.factor * lo, self.factor * hi)
        return (self.factor * hi, self.factor * lo)

    def _mean(self) -> float:
        return self.factor * self.inner._mean()

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.factor * self.inner._draw(rng, size)

    def _atom_at(self, x: float) -> bool:
        return self.inner._atom_at(x / self.factor)


@dataclass(frozen=True)
class CompoundIncrement(IncrementDistribution):
    """Net loss over one inter-claim period: Y = claim - premium_rate * interarrival."""

    claim: IncrementDistribution
    premium_rate: float
    interarrival: IncrementDistribution

    def __post_init__(self) -> None:
        _require_finite("CompoundIncrement", premium_rate=self.premium_rate)
        if self.premium_rate <= 0.0:
            raise ValueError("CompoundIncrement.premium_rate must be positive")
        if self.claim._support()[0] < 0.0:
            raise ValueError("CompoundIncrement.claim must have nonnegative support")
        ia_lo = self.interarrival._support()[0]
        if ia_lo < 0.0 or self.interarrival._atom_at(0.0):
            raise ValueError("CompoundIncrement.interarrival must have positive support")

    def _lmgf(self, t: float) -> float:
        claim_part = log_mgf_at(self.claim, t)
        if claim_part == INF:
            return INF
        return claim_part + log_mgf_at(self.interarrival, -t * self.premium_rate)

    def _scales(self):
        # |g_claim| + |g_interarrival| <= |g| + 2 t premium_rate s_interarrival
        (sz, lz, kz), (st, lt, kt) = self.claim._scales(), self.interarrival._scales()
        return sz + 4.0 * self.premium_rate * st, lz + lt + 1.0, kz + kt + 4.0

    def _domain(self) -> tuple[float, float]:
        z_lo, z_hi = self.claim._domain()
        t_lo, t_hi = self.interarrival._domain()
        # -t * premium_rate must stay inside the interarrival domain
        lo = max(z_lo, -t_hi / self.premium_rate if t_hi != INF else -INF)
        hi = min(z_hi, -t_lo / self.premium_rate if t_lo != -INF else INF)
        return (lo, hi)

    def _support(self) -> tuple[float, float]:
        z_lo, z_hi = self.claim._support()
        t_lo, t_hi = self.interarrival._support()
        p = self.premium_rate
        lo = -INF if t_hi == INF else z_lo - p * t_hi
        hi = INF if z_hi == INF else z_hi - p * t_lo
        return (lo, hi)

    def _mean(self) -> float:
        return self.claim._mean() - self.premium_rate * self.interarrival._mean()

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # draw order is part of the reproducibility contract: claim first
        z = self.claim._draw(rng, size)
        theta = self.interarrival._draw(rng, size)
        return z - self.premium_rate * theta

    def _atom_at(self, x: float) -> bool:
        # atoms are not tracked through the difference convolution
        return False


@dataclass(frozen=True)
class FiniteDiscrete(IncrementDistribution):
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((float(x), float(p)) for x, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("FiniteDiscrete needs at least one atom")
        total = 0.0
        for x, p in atoms:
            _require_finite("FiniteDiscrete.atom", value=x, probability=p)
            if p < 0.0:
                raise ValueError("FiniteDiscrete probabilities must be nonnegative")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"FiniteDiscrete probabilities sum to {total}, not 1")

    def _lmgf(self, t: float) -> float:
        acc = -INF
        for x, p in self.atoms:
            if p > 0.0:
                acc = _logaddexp(acc, math.log(p) + t * x)
        return acc

    def _scales(self):
        # one log-sum-exp per atom, each of parts up to its largest atom's; the
        # kernel reads the law as stored, of mass within 1e-12 of 1, and counts
        # log(mass) against the law normalized to mass 1
        n = sum(p > 0.0 for _, p in self.atoms)
        x = max(abs(x) for x, _ in self.atoms)
        logs = max(abs(math.log(p)) for _, p in self.atoms if p > 0.0)
        mass = abs(math.log(math.fsum(p for _, p in self.atoms))) / (16.0 * 2.0**-53)
        return n * x, n * (logs + math.log(n) + 2.0) + mass, 16.0

    @classmethod
    def _table(cls, laws):
        # atoms padded to a common count; a padded or zero-probability atom has
        # log-weight -inf and is skipped, as in _lmgf, by the mask of finite
        # log-weights, applied only to the atom columns that hold such an atom
        # (masked, their indices)
        width = max(len(d.atoms) for d in laws)
        xs = np.zeros((len(laws), width))
        log_ps = np.full((len(laws), width), -INF)
        for i, d in enumerate(laws):
            for a, (x, p) in enumerate(d.atoms):
                xs[i, a] = x
                if p > 0.0:
                    log_ps[i, a] = math.log(p)
        finite = log_ps > -INF
        masked = frozenset(np.flatnonzero(~finite.all(axis=0)).tolist())
        return xs, log_ps, finite, masked

    @staticmethod
    def _lmgf_vec(params, t):
        xs, log_ps, finite, masked = params
        # the sum starts from the first atom, as logaddexp(-inf, a) == a
        acc = log_ps[:, 0] + t * xs[:, 0]
        if 0 in masked:
            acc = np.where(finite[:, 0], acc, -INF)
        for a in range(1, xs.shape[1]):
            step = np.logaddexp(acc, log_ps[:, a] + t * xs[:, a])
            acc = np.where(finite[:, a], step, acc) if a in masked else step
        return acc

    def _domain(self) -> tuple[float, float]:
        return (-INF, INF)

    def _support(self) -> tuple[float, float]:
        xs = [x for x, p in self.atoms if p > 0.0]
        return (min(xs), max(xs))

    def _mean(self) -> float:
        return sum(x * p for x, p in self.atoms)

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        values = np.array([x for x, _ in self.atoms])
        cum = np.cumsum([p for _, p in self.atoms])
        idx = np.searchsorted(cum, rng.random(size), side="right")
        # cum[-1] can sit a few ulp below 1; clamp the overflow index
        return values[np.minimum(idx, len(values) - 1)]

    def _atom_at(self, x: float) -> bool:
        return any(p > 0.0 and v == x for v, p in self.atoms)


def log_mgf_at(dist: IncrementDistribution, t: float) -> float:
    """log E exp(t Y) at any real t. Exact zero at t = 0 for every family."""
    if math.isnan(t):
        raise ValueError("log_mgf argument must not be NaN")
    if t == 0.0:
        return 0.0
    return dist._lmgf(t)


def log_mgf(dist: IncrementDistribution, h: float) -> float:
    """log E exp(h Y) for h >= 0; math.inf past the finiteness frontier."""
    if not h >= 0.0:
        raise ValueError(f"log_mgf requires h >= 0, got {h!r}")
    return log_mgf_at(dist, h)


def mgf_domain(dist: IncrementDistribution) -> tuple[float, float]:
    """Open interval of arguments where the MGF is finite."""
    return dist._domain()


def mgf_domain_sup(dist: IncrementDistribution) -> float:
    """sup of h >= 0 with log_mgf(dist, h) finite."""
    return dist._domain()[1]


def mean(dist: IncrementDistribution) -> float:
    return dist._mean()


def support_bounds(dist: IncrementDistribution) -> tuple[float, float]:
    """Essential infimum and supremum of the law."""
    return dist._support()


def has_atom_at(dist: IncrementDistribution, x: float) -> bool:
    """Whether P[Y = x] > 0, conservatively False where atoms are not tracked."""
    return dist._atom_at(x)


def sample(dist: IncrementDistribution, rng: np.random.Generator, size: int | None = None):
    """Exact draws from dist; a scalar when size is None, else an ndarray."""
    if size is None:
        return float(dist._draw(rng, 1)[0])
    return dist._draw(rng, size)
