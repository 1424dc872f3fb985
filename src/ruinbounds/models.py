"""Non-homogeneous risk models and their log-MGF machinery.

A model couples a sequence rule for the normalized increment laws Y*_k with
deterministic rate floors r_k. The weighted partial sums S*_k, built with the
running discounts v_k = prod_{j<=k} 1/(1+r_j), drive both the analytic bounds
and the simulator.

The analytic side rests on one sequence, the per-epoch terms
log E exp(h v_{j-1} Y*_j), evaluated in one of two ways that both stop at the
first +inf. cumulative_log_mgf returns their running sums G_k(h), and one
reduction takes the supremum over k either of G_k(h) (sup_log_mgf, the
partial-sum criterion) or of the terms themselves (per_increment_sup).

Each model caches one structural record, RiskModel._laws: its finite law
list (an explicit prefix, or a prefix and one period) with the parameter table
and each law's esssup and MGF-domain sup, read by the kernel, the esssup
verdicts (_settled), the union series and the simulator's weights. When the
rates repeat too, the record is the model's block, folded in log space: the
effective period, each slot's log multiplier log scale_j + log v_{j-1}, and
log rho, the period-to-period multiplier of h. Exact periods, contracting
tails and amplifying tails whose period laws are all nonpositive then reduce
to a few periods of the block, read in one scalar pass (_sup_periodic) that
calls each slot's kernel (_Laws.kernels) at t = h w itself and folds each term
into the running sum, its maximum and the tail envelope as it comes; on such
short walks a scalar loop beats numpy's fixed cost. A cycle whose effective
period is too long for a block keeps its law list; under multipliers of h in
[0, 1], wherever no law's log-MGF at h is above 0, the sup of its partial sums
is the first, and where the multipliers shrink to 0 its per-increment sup is
their limit 0 (_sup_shrinking). One function, _settled, reads the
esssups once per model and flavour for the verdicts that no search over h
reaches: a criterion that holds at every h, and one that an amplifying block
makes +inf at every h > 0; the routes, the solvers and the optimizer all read
it. Four closed forms cover the
indexed families without interest (the IndexedTwoPoint one in O(1) through
log-factorials and a power-sum series). Everything else is scanned by
log_mgf_terms, the vectorized term kernel, on per-family parameter arrays, in
ranges up to a truncation cap; the scan stops early where the family proves
that every later term is negative. What a probe reads apart from h (its route,
_route, and each range's probe plan) is built once and kept on the model
(RiskModel._memo, with the esssup verdicts and the adjustment coefficients).
What depends on h lives with the caller, in one record per search (Search):
the chord references that let a finite-horizon scan of the partial sums below
an earlier one, at the MGF-domain cap too, read a few epochs (_sup_scan), and
what bounds keeps.

Every longer walk reads one epoch layout, _layout(model, K): each epoch's slot
in the record's law list and its log multiplier log(scale_j v_{j-1}). Only a
rule without a finite law list (the indexed families, which the kernel takes
in closed form) builds laws per epoch, and only when they are read.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (
    INF,
    IncrementDistribution,
    Normal,
    Scaled,
    TwoPoint,
    log_mgf_at,
    mean,
    mgf_domain_sup,
    support_bounds,
)

__all__ = [
    "ModelIndexError",
    "PeriodHypothesisError",
    "SequenceRule",
    "ExplicitPrefix",
    "Periodic",
    "QuasiPeriodicScaled",
    "PrefixThenTail",
    "IndexedNormal",
    "IndexedTwoPoint",
    "RateRule",
    "ConstantRates",
    "PeriodicRates",
    "ExplicitRates",
    "RiskModel",
    "EventModel",
    "TruncationPolicy",
    "SupLogMgf",
    "Search",
    "cumulative_log_mgf",
    "sup_log_mgf",
    "per_increment_sup",
    "reduce_event_model",
    "iid_base",
]


class ModelIndexError(IndexError):
    """Raised when an index runs past an explicit prefix or rate list."""


class PeriodHypothesisError(ValueError):
    """Raised when a periodic reduction is requested but its hypotheses fail."""


# ---------------------------------------------------------------------------
# sequence rules


class SequenceRule:
    __slots__ = ()

    def distribution_at(self, k: int) -> IncrementDistribution:
        raise NotImplementedError

    def horizon(self) -> int | None:
        """Largest defined index, or None when the rule is total."""
        return None

    def period(self) -> int | None:
        """Length after which the laws repeat exactly, or None."""
        return None


def _check_index(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"increment index must be a positive integer, got {k!r}")


def _as_dist_tuple(name: str, seq) -> tuple[IncrementDistribution, ...]:
    out = tuple(seq)
    if not out:
        raise ValueError(f"{name} must be nonempty")
    for d in out:
        if not isinstance(d, IncrementDistribution):
            raise ValueError(f"{name} entries must be IncrementDistribution, got {d!r}")
    return out


@dataclass(frozen=True)
class ExplicitPrefix(SequenceRule):
    """Finitely many increment laws; indices beyond the list are a hard error."""

    dists: tuple[IncrementDistribution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dists", _as_dist_tuple("ExplicitPrefix.dists", self.dists))

    def distribution_at(self, k: int) -> IncrementDistribution:
        _check_index(k)
        if k > len(self.dists):
            raise ModelIndexError(f"index {k} beyond explicit prefix of length {len(self.dists)}")
        return self.dists[k - 1]

    def horizon(self) -> int | None:
        return len(self.dists)


@dataclass(frozen=True)
class Periodic(SequenceRule):
    """Y*_{n+l} is distributed as Y*_n for the cycle length l."""

    cycle: tuple[IncrementDistribution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle", _as_dist_tuple("Periodic.cycle", self.cycle))

    def distribution_at(self, k: int) -> IncrementDistribution:
        _check_index(k)
        return self.cycle[(k - 1) % len(self.cycle)]

    def period(self) -> int | None:
        return len(self.cycle)


@dataclass(frozen=True)
class QuasiPeriodicScaled(SequenceRule):
    """Y*_{n+l} is distributed as scale * Y*_n; index il+j maps to scale^i times slot j."""

    cycle: tuple[IncrementDistribution, ...]
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle", _as_dist_tuple("QuasiPeriodicScaled.cycle", self.cycle))
        if not (isinstance(self.scale, (int, float)) and math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("QuasiPeriodicScaled.scale must be a positive finite number")

    def distribution_at(self, k: int) -> IncrementDistribution:
        _check_index(k)
        i, j = divmod(k - 1, len(self.cycle))
        base = self.cycle[j]
        if i == 0 or self.scale == 1.0:
            return base
        # deep indices under/overflow the power; clamp to a representable
        # nonzero factor (analytic reductions never walk this far, and the
        # clamped law is within ~1e-300 of the true one in log-MGF terms)
        try:
            factor = self.scale**i
        except OverflowError:
            factor = sys.float_info.max
        if factor == 0.0:
            factor = sys.float_info.min
        return Scaled(factor, base)


@dataclass(frozen=True)
class PrefixThenTail(SequenceRule):
    """Explicit laws for the first indices, then a periodic or scaled tail."""

    prefix: tuple[IncrementDistribution, ...]
    tail: SequenceRule

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", _as_dist_tuple("PrefixThenTail.prefix", self.prefix))
        if not isinstance(self.tail, (Periodic, QuasiPeriodicScaled)):
            raise ValueError("PrefixThenTail.tail must be Periodic or QuasiPeriodicScaled")

    def distribution_at(self, k: int) -> IncrementDistribution:
        _check_index(k)
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail.distribution_at(k - len(self.prefix))


@dataclass(frozen=True)
class IndexedNormal(SequenceRule):
    """Y*_n ~ Normal(intercept + slope * n, 1)."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        for name, v in (("slope", self.slope), ("intercept", self.intercept)):
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"IndexedNormal.{name} must be finite")

    def distribution_at(self, k: int) -> IncrementDistribution:
        _check_index(k)
        return Normal(self.intercept + self.slope * k, 1.0)


@dataclass(frozen=True)
class IndexedTwoPoint(SequenceRule):
    """P[Y_n = 1] = 1/(n+1), P[Y_n = -1] = n/(n+1)."""

    def distribution_at(self, k: int) -> IncrementDistribution:
        _check_index(k)
        return TwoPoint(1.0, 1.0 / (k + 1.0), -1.0)


# ---------------------------------------------------------------------------
# rate rules (also reused for the scalar sequences of EventModel)


class RateRule:
    __slots__ = ()

    def rate_at(self, k: int) -> float:
        raise NotImplementedError

    def period(self) -> int | None:
        return None

    def horizon(self) -> int | None:
        return None

    def all_zero(self) -> bool:
        raise NotImplementedError


def _check_rates(name: str, values) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} entries must be finite and >= 0, got {v!r}")
    return out


@dataclass(frozen=True)
class ConstantRates(RateRule):
    rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rates("ConstantRates", [self.rate])[0])

    def rate_at(self, k: int) -> float:
        return self.rate

    def period(self) -> int | None:
        return 1

    def all_zero(self) -> bool:
        return self.rate == 0.0


@dataclass(frozen=True)
class PeriodicRates(RateRule):
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = _check_rates("PeriodicRates", self.values)
        if not vals:
            raise ValueError("PeriodicRates.values must be nonempty")
        object.__setattr__(self, "values", vals)

    def rate_at(self, k: int) -> float:
        return self.values[(k - 1) % len(self.values)]

    def period(self) -> int | None:
        return len(self.values)

    def all_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


@dataclass(frozen=True)
class ExplicitRates(RateRule):
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = _check_rates("ExplicitRates", self.values)
        if not vals:
            raise ValueError("ExplicitRates.values must be nonempty")
        object.__setattr__(self, "values", vals)

    def rate_at(self, k: int) -> float:
        if k > len(self.values):
            raise ModelIndexError(f"rate index {k} beyond explicit list of length {len(self.values)}")
        return self.values[k - 1]

    def horizon(self) -> int | None:
        return len(self.values)

    def all_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)


def _coerce_rates(value) -> RateRule:
    if isinstance(value, RateRule):
        return value
    if isinstance(value, (int, float)):
        return ConstantRates(float(value))
    if isinstance(value, (list, tuple)):
        return PeriodicRates(tuple(value))
    raise ValueError(f"cannot interpret {value!r} as a rate rule")


# ---------------------------------------------------------------------------
# risk model


@dataclass(frozen=True)
class RiskModel:
    increments: SequenceRule
    rates: RateRule = field(default_factory=ConstantRates)
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.increments, SequenceRule):
            raise ValueError("RiskModel.increments must be a SequenceRule")
        object.__setattr__(self, "rates", _coerce_rates(self.rates))
        # what the model keeps of its own that does not depend on h
        object.__setattr__(self, "_memo", _Memo())

    def distribution_at(self, k: int) -> IncrementDistribution:
        return self.increments.distribution_at(k)

    def rate_at(self, k: int) -> float:
        return self.rates.rate_at(k)

    def horizon(self) -> int | None:
        return self._horizon

    @cached_property
    def _horizon(self) -> int | None:
        """horizon(), cached: every probe reads it."""
        hs = []
        h_inc = self.increments.horizon()
        if h_inc is not None:
            hs.append(h_inc)
        h_rates = self.rates.horizon()
        if h_rates is not None:
            # rates 1..M fix the discounts through v_M, hence increments through M+1
            hs.append(h_rates + 1)
        return min(hs) if hs else None

    def zero_rates(self) -> bool:
        return self.rates.all_zero()

    @cached_property
    def _laws(self) -> _Laws | None:
        """The model's structural record, built once: the model is immutable.
        It holds the rule's finitely many laws, the prefix then one period;
        None for a rule without such a list. Under repeating rates the period
        is the effective one, lcm(cycle, rate period), and the record is the
        block: it carries the log multiplier of each epoch through that
        period, unless the period is longer than _BLOCK_MAX."""
        inc = self.increments
        if isinstance(inc, ExplicitPrefix):
            return _Laws(inc.dists, len(inc.dists))
        prefix, tail = _prefix_and_tail(inc)
        if not isinstance(tail, (Periodic, QuasiPeriodicScaled)):
            return None
        P, cycle, log_q = len(prefix), tail.cycle, math.log(getattr(tail, "scale", 1.0))
        rate_period = self.rates.period()
        L = math.lcm(len(cycle), rate_period or 1)
        if rate_period is None or L > _BLOCK_MAX:
            return _Laws(prefix + cycle, P, log_q)
        steps = [-math.log1p(self.rate_at(k)) for k in range(1, P + L + 1)]
        logs = list(itertools.accumulate(steps[:-1], initial=0.0))
        for m in range(L):
            logs[P + m] += (m // len(cycle)) * log_q
        # summed exactly, so that rho == 1 is recognized over long periods
        log_ratio = math.fsum(steps[P:]) + (L // len(cycle)) * log_q
        return _Laws(prefix + cycle * (L // len(cycle)), P, log_ratio, tuple(logs))

    @cached_property
    def _block(self) -> _Laws | None:
        """The record when it carries the block's log multipliers, else None;
        cached, since every sup reads it."""
        laws = self._laws
        return laws if laws is not None and laws.logs is not None else None

    def log_discounts(self, K: int, start: int = 0, prev: float | None = None) -> np.ndarray:
        """log v_start .. log v_K, with v_k = prod_{j<=k} 1/(1+r_j) kept in log space.

        Under rates that vary, the entries are one running sum from v_0. A walk
        in ranges passes prev = log v_{start-1}, the last entry of its range
        before, to continue that sum; without prev it is redone up to start
        without holding the entries before start.
        """
        if K < 0:
            raise ValueError("K must be >= 0")
        if not 0 <= start <= K:
            raise ValueError(f"start must be in [0, K], got {start!r}")
        if self.rates.all_zero():
            return np.zeros(K - start + 1)
        if isinstance(self.rates, ConstantRates):
            return -math.log1p(self.rates.rate) * np.arange(start, K + 1, dtype=float)

        def steps(a: int, b: int):
            return (-math.log1p(self.rates.rate_at(k)) for k in range(a, b + 1))

        # np.cumsum and reduce add in order, as a scalar loop would (sum()
        # compensates its rounding on Python 3.12+)
        if not start:
            return np.cumsum([0.0, *steps(1, K)])
        if prev is None:
            prev = functools.reduce(operator.add, steps(1, start - 1), 0.0)
        return np.cumsum([prev, *steps(start, K)])[1:]


class _Memo(dict):
    """Values by key, each computed once and kept (kept): a model's facts that
    depend on neither h nor u (RiskModel._memo: the support facts of
    _per_model functions, the probe plans of _plan and the adjustment
    coefficients), or what bounds keeps apart from u in one search record
    (Search.memo). The stored plans span at most _PLAN_EPOCHS epochs in all
    (self.epochs counts them), and at most _SOLVES_KEPT solves are stored
    (self.solves); a plan or solve past that is computed, used and dropped,
    so what a model keeps grows neither with the scan cap nor with the
    policies and tolerances it is solved under. Two caches stay apart:
    _Laws.weights admits periods by count up to _WALK_KEPT and is read once
    per walked period, and cli._MODELS is an LRU keyed by config bytes."""

    epochs = solves = 0

    def kept(self, key, compute, *args, epochs: int = 0, solves: int = 0):
        """The value under key, or compute(*args), stored under the caps."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        value = compute(*args)
        with _MEMO_LOCK:  # threads probing one model count each stored plan once
            if key not in self and self.epochs + epochs <= _PLAN_EPOCHS and self.solves + solves <= _SOLVES_KEPT:
                self[key] = value
                self.epochs += epochs
                self.solves += solves
        return value


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


_MISSING = object()
_MEMO_LOCK = threading.Lock()


def _per_model(fn):
    """fn(model, *args), kept in the model's memo: the model is immutable, and
    fn does not depend on h."""

    name = fn.__name__

    @functools.wraps(fn)
    def once(model: RiskModel, *args):
        key = (name, *args)
        value = model._memo.get(key, _MISSING)
        return model._memo.kept(key, fn, model, *args) if value is _MISSING else value

    return once


# ---------------------------------------------------------------------------
# cumulative and supremum log-MGFs


@dataclass(frozen=True)
class TruncationPolicy:
    """The cap on the scans that cannot be reduced to finite closed forms."""

    k_max: int = 10_000

    def __post_init__(self) -> None:
        if not (isinstance(self.k_max, (int, np.integer)) and self.k_max >= 1):
            raise ValueError(f"k_max must be a positive integer, got {self.k_max!r}")


_DEFAULT_POLICY = TruncationPolicy()


# periods a contracting tail envelope may walk before it gives up
_BLOCK_CAP = 50_000


@dataclass(frozen=True, init=False)
class SupLogMgf:
    """sup_k G_k(h) together with how the value was established.

    status is one of
      attained:     value = G_k(h) at argmax, exact; +inf with argmax None
                    when that G_k(h) is too large for floating point
      limit:        value is the exact limit (or a tight upper envelope) of a
                    supremum approached but not attained at any finite index
      unbounded:    value is +inf, certified
      undetermined: value is the running maximum of a truncated scan only
    """

    value: float
    argmax: int | None
    status: str
    certified: bool
    note: str = ""

    def __init__(self, value, argmax, status, certified, note=""):  # one write for five frozen fields: every probe builds one
        self.__dict__.update(value=value, argmax=argmax, status=status, certified=certified, note=note)


def _prefix_and_tail(inc: SequenceRule) -> tuple[tuple[IncrementDistribution, ...], SequenceRule]:
    return (inc.prefix, inc.tail) if isinstance(inc, PrefixThenTail) else ((), inc)


# |log rho| up to this counts as an exactly periodic tail, and above it as amplifying
_RATIO_TOL = 1e-12
# longer effective periods are scanned instead of folded into a block
_BLOCK_MAX = 100_000


class _Laws:
    """Finitely many increment laws, a prefix then one period, and what is
    read of them, each built on first use. The b-th repetition of the period
    multiplies h by exp(b * log_ratio).

    A block (logs given) also holds the log multipliers of one pass: epoch
    j <= prefix + length has law laws[j-1] and log multiplier logs[j-1], the
    log of scale_j * v_{j-1}, and log_ratio takes in the discounts over a
    period, so rho = exp(log_ratio) is the period-to-period multiplier of h.
    Otherwise log_ratio is only the log scale of one cycle, and the discounts
    come from the rates.
    """

    def __init__(self, laws, prefix: int = 0, log_ratio: float = 0.0, logs: tuple[float, ...] | None = None) -> None:
        self._source, self.prefix, self.log_ratio, self.logs = laws, prefix, log_ratio, logs
        self._kept: dict[int, tuple[float, ...]] = {}  # weights(b) of the first periods

    @property
    def length(self) -> int:
        return len(self.laws) - self.prefix

    @property
    def exact(self) -> bool:
        return abs(self.log_ratio) <= _RATIO_TOL

    @property
    def amplifying(self) -> bool:
        return self.log_ratio > _RATIO_TOL

    @cached_property
    def head(self) -> tuple[float, ...]:
        """The multiplier of h, e^c clamped at the float maximum (_weight), at
        each epoch of a block's prefix and first period."""
        return tuple(map(_weight, self.logs))

    def weights(self, b: int) -> tuple[float, ...]:
        """The multipliers of h over the b-th period after the prefix,
        exp(b log_ratio + c) per slot; they do not depend on h, so those of the
        first periods, up to _WALK_KEPT epochs, are kept."""
        w = self._kept.get(b)
        if w is None:
            shift = b * self.log_ratio
            w = tuple(_weight(shift + c) for c in self.logs[self.prefix:])
            if b * self.length <= _WALK_KEPT:
                self._kept[b] = w
        return w

    @cached_property
    def kernels(self) -> tuple:
        """Each law's scalar log-MGF kernel, law._lmgf, called without
        log_mgf_at's checks by the block walks (_sup_periodic, and the head of
        cumulative_log_mgf), which keep their contract themselves, and at
        h > 0 by _sup_shrinking."""
        return tuple(law._lmgf for law in self.laws)

    @cached_property
    def log_array(self) -> np.ndarray:
        out = np.array(self.logs)
        out.flags.writeable = False  # _layout hands out views of it
        return out

    @cached_property
    def laws(self) -> tuple[IncrementDistribution, ...]:
        return tuple(self._source)

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """(family, row, tables): law i is row row[i] of tables[family[i]] =
        (cls, cls._table(laws of that family)), see IncrementDistribution._table."""
        members: dict[type, tuple[int, list]] = {}
        family, row = [], []
        for law in self.laws:
            f, group = members.setdefault(type(law), (len(members), []))
            family.append(f)
            row.append(len(group))
            group.append(law)
        tables = tuple((cls, cls._table(group)) for cls, (_, group) in members.items())
        return np.array(family, dtype=np.intp), np.array(row, dtype=np.intp), tables

    @cached_property
    def scales(self) -> tuple[np.ndarray, ...]:
        """Per law, in one pass: |E Y|, the s, l and k of its kernels' rounding
        (IncrementDistribution._scales, for _epoch_scales), esssup Y and the
        MGF-domain sup."""
        return tuple(map(np.array, zip(*((abs(mean(law)), *law._scales(), support_bounds(law)[1], mgf_domain_sup(law))
                                         for law in self.laws))))

    @property
    def esssup(self) -> np.ndarray:
        return self.scales[4]

    @property
    def dom(self) -> np.ndarray:
        return self.scales[5]

    @cached_property
    def period_top(self) -> float:
        """The largest esssup of a period law, +inf also where one has a finite
        MGF domain (_settled). On an amplifying block a value <= 0 makes every
        term after the first period nonpositive and at most the same slot's
        term there (_sup_periodic)."""
        P = self.prefix
        return INF if (self.dom[P:] < INF).any() else float(self.esssup[P:].max())


def _layout(model: RiskModel, K: int, start: int = 0, log_v: np.ndarray | None = None) -> tuple[_Laws, np.ndarray, np.ndarray]:
    """(laws, slot, c): epoch j = start+1..K has law laws.laws[slot[i]] and log
    multiplier c[i] = log(scale_j v_{j-1}), i = j-start-1. A rule without a
    finite law list gets a record of its laws for epochs start+1..K, built only
    if read.

    The discounts log v_start .. log v_{K-1} are read exactly when the model has
    no block; a probe plan passes them as log_v, continued from the range
    before, and otherwise they come from model.log_discounts.
    """
    j = np.arange(start, K)

    def discounts() -> np.ndarray:
        return model.log_discounts(K - 1, start) if log_v is None else log_v

    laws = model._laws
    if laws is None:
        return _Laws(map(model.distribution_at, range(start + 1, K + 1))), j - start, discounts()
    if K <= len(laws.laws):  # no epoch past the first period: no period powers
        return laws, j, laws.log_array[start:K] if laws.logs is not None else discounts()
    P, n = laws.prefix, laws.length
    if not n:
        model.distribution_at(K)  # past an explicit prefix: raises ModelIndexError
    past = np.maximum(j - P, 0)
    slot = np.where(j < P, j, P + past % n)
    c = laws.log_array[slot] if laws.logs is not None else discounts()
    return laws, slot, c + (past // n) * laws.log_ratio if laws.log_ratio else c


def _examined_span(model: RiskModel) -> int | None:
    """How many leading indices decide the sign structure, when finitely many do."""
    horizon = model.horizon()
    if horizon is not None:
        return horizon
    block = model._block
    return None if block is None else block.prefix + block.length


@_per_model
def _esssup_sums(model: RiskModel, K: int) -> np.ndarray | None:
    """esssup(S*_k) = sum_{j<=k} v_{j-1} esssup Y*_j for k = 1..K, the esssup of
    a sum of independent terms being the sum of esssups; None if one is +inf."""
    laws, slot, c = _layout(model, K)
    hi = laws.esssup[slot]
    return None if (hi == INF).any() else np.cumsum(np.exp(c) * hi)


@_per_model
def _settled(model: RiskModel, partial: bool) -> str | None:
    """The esssups' verdict on one criterion (partial sums, or single terms)
    at every h > 0: None where it holds at every h, every partial sum (or term)
    being nonpositive a.s.; the reason where an amplifying block makes it +inf;
    "" where only a search over h decides.

    On an amplifying block t grows without bound and g(t)/t -> esssup Y, so a
    period law of esssup +inf (period_top) makes both sups +inf, one above 0 the
    per-increment sup, and a period slope E_L > 0 the partial-sum sup. Here
    E_r = sum_{s<=r} w_s esssup_s are the period's own partial sums, w_s the
    slot's multiplier of h, and the slope counts only past its rounding. The
    partial sums hold where the esssups of S*_k through the first period and
    E_L are <= 0, and, where the multiplier grows, every E_r: both read one E.
    """
    span = _examined_span(model)
    if span is None:
        return ""
    block = model._block
    top = block.period_top if block is not None and block.amplifying else 0.0
    if top == INF or (top > 0.0 and not partial):
        return "the amplified terms of a period law grow without bound"
    laws, slot, c = _layout(model, span)
    hi = laws.esssup[slot]
    if not partial:
        return None if (hi <= 0.0).all() else ""
    P = block.prefix if block is not None else 0
    if (hi[P:] == INF).any():  # e^c * inf is not formed: e^c may be 0
        return ""
    slopes = np.exp(c[P:]) * hi[P:]
    E = np.cumsum(slopes)  # without a block, the esssups of S*_k themselves
    if top > 0.0 and E[-1] > 1e-12 * np.abs(slopes).sum():
        return "the amplified sums of a period grow without bound"
    sums, grows = _esssup_sums(model, span), block is not None and block.log_ratio > 0.0
    holds = sums is not None and (sums <= 0.0).all() and E[-1] <= 0.0 and not (grows and (E > 0.0).any())
    return None if holds else ""


def _sup_shrinking(model: RiskModel, laws: _Laws, h: float, partial: bool) -> SupLogMgf | None:
    """The sups of a model that keeps its law list without a block or a horizon
    (an effective period past _BLOCK_MAX), where every multiplier of h lies in
    [0, 1]: the rates are >= 0 and the tail scale is <= 1 (_route). Each g_s is
    convex with g_s(0) = 0, so a term g_s(h w) is at most w max(0, g_s(h)):
    where every g_s(h) <= 0, every term is <= 0, and the sup of the partial sums
    is G_1(h), attained at epoch 1; where the multipliers also tend to 0 (some
    rate is above 0, or the scale below 1), the per-increment sup is the terms'
    limit 0. None where the scan decides."""
    if not all(k(h) <= 0.0 for k in laws.kernels):
        return None
    if partial:  # epoch 1 multiplies h by 1
        return SupLogMgf(laws.kernels[0](h), 1, "attained", True, "no law's log-MGF at h is above 0, so no partial sum rises")
    if laws.log_ratio < 0.0 or not model.zero_rates():
        return SupLogMgf(0.0, None, "limit", True, "no law's log-MGF at h is above 0, and the multipliers of h approach 0")
    return None


_FLOAT_MAX = sys.float_info.max
# probe plans kept per model span at most this many epochs in all
_PLAN_EPOCHS = 1 << 16
# coefficient solves kept per model: a request's k_max grows with its largest u
_SOLVES_KEPT = 32


class _Plan:
    """What the terms of epochs start+1..K read that does not depend on h,
    built once per model and range (_plan): w = e^c, clamped at the float
    maximum, and per family of the range the epochs it covers (sel) with their
    law parameters, in closed form for the indexed families and otherwise
    gathered from the _layout record's law table. last is the discount
    log v_{K-1}, from which the plan of the next range continues the running
    sum; None when the model has a block, whose terms read no discounts. The
    arrays are read-only, since every probe shares them. w_min is the least w
    (a subset keeps its range's): t = h w is monotone in w, so no t is zero
    unless h * w_min is.
    """

    def __init__(self, model: RiskModel, start: int, K: int, prev: float | None) -> None:
        inc = model.increments
        log_v = None if model._block is not None else model.log_discounts(K - 1, start, prev)
        self.last = None if log_v is None else log_v[-1]
        every = slice(None)
        if isinstance(inc, IndexedNormal):  # unit variance: Normal's table holds half of it
            c, parts = log_v, [(Normal, every, (inc.intercept + inc.slope * (np.arange(start, K) + 1.0), 0.5))]
        elif isinstance(inc, IndexedTwoPoint):
            p1 = 1.0 / (np.arange(start, K) + 2.0)
            c, parts = log_v, [(TwoPoint, every, (1.0, np.log(p1), -1.0, np.log1p(-p1)))]
        else:
            laws, slot, c = _layout(model, K, start, log_v)
            family, row, tables = laws.table
            family, parts = family[slot] if len(tables) > 1 else None, []
            for f, (cls, params) in enumerate(tables):
                sel = every if family is None else np.flatnonzero(family == f)
                rows = row[slot[sel]]
                if rows.size:
                    parts.append((cls, sel, _rows(params, rows)))
        with np.errstate(all="ignore"):
            self.w = np.minimum(np.exp(c), _FLOAT_MAX)
        self.w_min = float(self.w.min(initial=INF))
        self.parts = tuple(parts)
        for a in (self.w, *(x for _, sel, params in parts for x in (sel, *params))):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def terms(self, h: float) -> np.ndarray:
        """log E exp(h e^{c_j} Y*_j) over the range, uncut at +inf, under the
        caller's np.errstate(all="ignore")."""
        t = h * self.w
        if len(self.parts) == 1:  # one family covers the epochs, in order
            (cls, _, params), = self.parts
            terms = cls._lmgf_vec(params, t)
        else:
            terms = np.empty(len(t))
            for cls, sel, params in self.parts:
                terms[sel] = cls._lmgf_vec(params, t[sel])
        if h * self.w_min == 0.0:
            terms[t == 0.0] = 0.0
        return terms

    def subset(self, at: np.ndarray) -> _Plan:
        """The plan of the epochs whose offsets at gives, in that order: its terms
        are the range's at those epochs, with the same arithmetic. Chord
        references keep such plans of the few epochs their probes read."""
        part, row = self.where
        read = set((of := part[at]).tolist())  # the few parts that a subset reads
        sub = object.__new__(_Plan)
        sub.w, sub.w_min, sub.last = self.w[at], self.w_min, None
        sub.parts = tuple((self.parts[p][0], sel, _rows(self.parts[p][2], row[at[sel]]))
                          for p in read for sel in [np.flatnonzero(of == p) if len(read) > 1 else slice(None)])
        return sub

    @cached_property
    def where(self) -> tuple[np.ndarray, np.ndarray]:
        """(part, row): epoch i of the range has row row[i] of the arrays of
        parts[part[i]]; built for the plans of a few epochs (subset)."""
        part, row = np.empty(len(self.w), dtype=np.intp), np.empty(len(self.w), dtype=np.intp)
        for p, (_, sel, _) in enumerate(self.parts):
            part[sel] = p
            row[sel] = np.arange(len(part[sel]))
        part.flags.writeable = row.flags.writeable = False
        return part, row


def _rows(params: tuple, rows: np.ndarray) -> tuple:
    """The given rows of a family's parameter arrays (scalar parameters as they are)."""
    return tuple(p[rows] if isinstance(p, np.ndarray) else p for p in params)


def _plan(model: RiskModel, start: int, K: int, prev: float | None = None) -> _Plan:
    """The probe plan of epochs start+1..K, kept on the model (_Memo). prev,
    the last discount of the range that ends at start (its plan's last),
    continues the running sum; without it a plan that reads discounts sums
    them from v_0."""
    key = ("plan", start, K)
    plan = model._memo.get(key)
    return plan if plan is not None else model._memo.kept(key, _Plan, model, start, K, prev, epochs=K - start)


def log_mgf_terms(model: RiskModel, h: float, K: int, start: int = 0) -> np.ndarray:
    """The terms log E exp(h e^{c_j} Y*_j) for epochs j = start+1..K, through
    the first +inf, where e^{c_j} is the scale times the discount v_{j-1}.

    Everything but h comes from the range's probe plan (_plan), which the
    scans read directly (_sup_scan). The arithmetic is log_mgf_at's at
    t = h e^c: exact 0 at t = 0, a cut after the first +inf, and e^c clamped
    at the float maximum.
    Every term depends on its own epoch only, so consecutive ranges give the
    terms of one call.
    """
    _require_h(h)
    inc = model.increments
    if isinstance(inc, ExplicitPrefix) and K > len(inc.dists):
        # past the prefix only when no term before it diverges
        terms = log_mgf_terms(model, h, len(inc.dists), start)
        if terms[-1] != INF:
            inc.distribution_at(len(inc.dists) + 1)  # raises ModelIndexError
        return terms
    with np.errstate(all="ignore"):
        terms = _plan(model, start, K).terms(h)
    cut = np.flatnonzero(terms == INF)
    return terms[:cut[0] + 1] if cut.size else terms


def _weight(c: float) -> float:
    """e^c, clamped at the float maximum past the float range, as
    QuasiPeriodicScaled.distribution_at clamps its factor."""
    try:
        return math.exp(c)
    except OverflowError:
        return _FLOAT_MAX


# a block keeps the multipliers of its first periods up to this many epochs (_Laws.weights)
_WALK_KEPT = 1 << 12


def cumulative_log_mgf(model: RiskModel, h: float, K: int) -> list[float]:
    """G_k(h) = sum_{j<=k} log E exp(h v_{j-1} Y*_j) for k = 1..K; +inf is absorbing."""
    _reduced(model)
    _require_h(h)
    if K < 1:
        raise ValueError("K must be >= 1")
    block = model._block
    if block is not None and K <= len(block.logs):  # the head, read as _sup_periodic reads it
        sums, g = [], 0.0
        for k, w in zip(block.kernels, block.head[:K]):
            t = h * w
            term = k(t) if t else 0.0
            g += term
            sums.append(g)
            if term == INF:
                break
    else:
        terms = log_mgf_terms(model, h, K)
        with np.errstate(over="ignore"):
            sums = terms.cumsum().tolist()
    return sums + [INF] * (K - len(sums))


def _sup_periodic(block: _Laws, h: float, partial: bool) -> SupLogMgf:
    """The sup over the head (prefix and first period), then, on a contracting tail,
    over periods b = 1, 2, ... until the envelope closes. Each term goes at once into
    the running value g (the partial sum, or the term), its first maximum best at epoch
    arg, and the period's positive mass, sum and largest prefix sum (_tail_excess). As
    in a scan, a period stops after its first +inf term, and the head at the first value
    that is not a number.

    The walk calls the slots' kernels (_Laws.kernels) at t = h w itself, under
    log_mgf_at's contract: a term is 0.0 at t = 0 (a multiplier that underflowed);
    h is finite (_require_h), so no t is NaN. The head runs one loop; the tail, which
    only the partial sums of a contracting block reach, runs its own without the
    flavour and prefix branches."""
    P = block.prefix
    kernels = block.kernels
    g, best, arg, j = 0.0, -INF, None, 0
    pos, total, top = 0.0, -0.0, -INF  # from -0.0, total adds the terms as accumulate does
    for k, w in zip(kernels, block.head):
        t = h * w
        term = k(t) if t else 0.0
        j += 1
        g = g + term if partial else term
        if g > best:
            best, arg = g, j
        elif g != g:  # only in the head: a later term is no further from 0
            return _stopped(np.empty(0), j - 1, best, arg)
        if j > P:
            if term > 0.0:
                pos += term
            total += term
            if total > top:
                top = total
        if term == INF:
            break
    if best == INF:  # a +inf term, or finite terms whose sum overflows
        return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")
    if block.exact or block.amplifying:
        # every later period repeats these terms, or (amplifying: _route sends only period laws
        # of esssup <= 0) has nonpositive terms at most the same slot's here; with no period law
        # above 0, a positive period sum is rounding (a TwoPoint law at 0 a.s. can round above 0)
        if partial and block.exact and block.period_top > 0.0 and total > 0.0:
            return SupLogMgf(INF, None, "unbounded", True, "log-MGF grows by a positive amount per period")
        return SupLogMgf(best, arg, "attained", True)
    # contracting tail: a later term is at most rho times the same slot's term here
    # (_tail_excess), so the sup of the terms is attained by now or is their limit
    # zero, and that of the partial sums is the running maximum once no later sum can exceed it
    if not partial:
        if best < 0.0:
            return SupLogMgf(0.0, None, "limit", True, "terms approach zero from below along the contracting tail")
        return SupLogMgf(best, arg, "attained", True)
    rho, b, tail = math.exp(block.log_ratio), 0, kernels[P:]
    share = rho / -math.expm1(block.log_ratio)
    while True:
        excess = _tail_excess(pos, total, top, rho, share)
        if g + excess <= best:
            return SupLogMgf(best, arg, "attained", True)
        if excess <= 1e-13 * max(1.0, abs(best), abs(g)):
            return SupLogMgf(g + excess, None, "limit", True,
                             "supremum approached along the contracting tail; value is a tight upper envelope")
        b += 1
        if b >= _BLOCK_CAP:
            return SupLogMgf(g + excess, None, "undetermined", False, f"tail envelope did not converge within {_BLOCK_CAP} periods")
        pos, total, top = 0.0, -0.0, -INF
        for k, w in zip(tail, block.weights(b)):
            t = h * w
            term = k(t) if t else 0.0
            j += 1
            g += term
            if g > best:
                best, arg = g, j
            if term > 0.0:
                pos += term
            total += term
            if total > top:
                top = total
            if term == INF:
                break
        if best == INF:
            return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")


def _tail_excess(pos: float, total: float, top: float, rho: float, share: float) -> float:
    """How far a partial sum in a later period of a contracting tail can exceed the one at
    the end of a period whose positive terms sum to pos, whose terms sum to total and whose
    largest prefix sum is top. Per slot g(lam t) <= lam g(t) for lam in [0, 1] (g is convex,
    g(0) = 0), so a term k periods on is at most rho^k times its slot's here, of either sign.
    The smaller of two envelopes counts: pos share from the positive parts, and
    max(total, 0) share + rho max(top, 0); share is rho / (1 - rho)."""
    return min(pos * share, max(total, 0.0) * share + rho * max(top, 0.0))


def _sup_indexed_normal(rule: IndexedNormal, h: float, partial: bool) -> SupLogMgf:
    if not partial:
        if rule.slope > 0.0:
            return SupLogMgf(INF, None, "unbounded", True, "per-term exponent grows linearly in the index")
        return SupLogMgf(h * (rule.intercept + rule.slope) + 0.5 * h * h, 1, "attained", True)
    # zero rates: G(n) = A n^2 + B n with the coefficients below
    A = 0.5 * h * rule.slope
    B = h * rule.intercept + 0.5 * h * rule.slope + 0.5 * h * h
    if A > 0.0 or (A == 0.0 and B > 0.0):
        return SupLogMgf(INF, None, "unbounded", True, "quadratic exponent grows without bound")
    if A == 0.0:
        # B <= 0: nonincreasing in n
        return SupLogMgf(B, 1, "attained", True) if B < 0.0 else SupLogMgf(0.0, 1, "attained", True)
    vertex = max(-B / (2.0 * A), 1.0)  # -inf where a subnormal A meets B < 0: the sums fall from n = 1 on
    if vertex == INF:  # a slope so close to zero that the maximizing n is past the float range
        return SupLogMgf(B * B / (-4.0 * A), None, "limit", True, "maximum over real n; its n is past the float range")
    candidates = {1, max(1, math.floor(vertex)), max(1, math.ceil(vertex))}
    best, arg = -INF, None
    for n in sorted(candidates):
        g = A * n * n + B * n
        if g > best:
            best, arg = g, n
    return SupLogMgf(best, arg, "attained", True)


def _sup_indexed_twopoint(rule: IndexedTwoPoint, h: float, partial: bool) -> SupLogMgf:
    if not partial:
        # the per-step term is decreasing in the index
        return SupLogMgf(log_mgf_at(rule.distribution_at(1), h), 1, "attained", True)
    # zero rates: the per-step term log(1 + (1 - e^{-h})(e^h - n)/(n+1)) is
    # positive exactly while n < e^h, so the prefix maximum sits at the last such n
    try:
        eh = math.exp(h)
        m = max(1, math.ceil(eh) - 1)
        g = _twopoint_partial_sum(h, eh, m)
    except OverflowError:  # e^h or log (m+1)! past the float range
        g = INF
    if not math.isfinite(g):
        return SupLogMgf(INF, None, "attained", True, "the maximal partial sum is too large to evaluate in floating point")
    return SupLogMgf(g, m, "attained", True)


def _twopoint_partial_sum(h: float, eh: float, m: int) -> float:
    """G_m(h) of IndexedTwoPoint under zero rates, in O(1) for large m.

    Term n is h - log(n+1) + log1p(n x) with x = e^{-2h}, so
    G_m = m h - log (m+1)! + sum_{n<=m} log1p(n x). Since n x <= m x < e^{-h},
    the last sum is the alternating series x S1 - x^2 S2/2 + x^3 S3/3 - ... in
    the power sums S_p = sum_{n<=m} n^p, and cutting it there errs by at most
    x^4 S4/4 <= (m x)^4 m/4, about e^{-3h}/4 against |G_m| ~ e^h. When that
    bound is not below 1e-16 |G_m| (h below about 9, m below about 8000), the
    terms are summed one by one instead.
    """
    x = math.exp(-2.0 * h)
    mf = float(m)
    xm = x * mf
    xs1 = xm * (mf + 1.0) / 2.0
    series = xs1 - xm * (x * (mf + 1.0)) * (2.0 * mf + 1.0) / 12.0 + xs1 * xs1 * x / 3.0
    g = mf * h - math.lgamma(mf + 2.0) + series
    if not math.isfinite(g) or xm**4 * mf / 4.0 <= 1e-16 * abs(g):
        return g
    n = np.arange(1.0, mf + 1.0)
    return math.fsum(np.log1p((1.0 - math.exp(-h)) * (eh - n) / (n + 1.0)))


@_per_model
def _proof_facts(model: RiskModel, n: int) -> tuple[float, float, float] | None:
    """(a, b, w), w = v_{n-1}: every term past epoch n is negative if a + b h w < 0
    (None: no proof). IndexedNormal of negative slope: the term t(a_n + t/2) with
    a_n falling and t = h v_{n-1} not growing; IndexedTwoPoint: the term
    log((e^t + n e^{-t}) / (n+1)), negative when t - log n < 0, n grows, t does not."""
    inc = model.increments
    normal = isinstance(inc, IndexedNormal) and inc.slope < 0.0
    if not (normal or isinstance(inc, IndexedTwoPoint)):
        return None
    w = math.exp(float(model.log_discounts(n - 1, n - 1)[0]))
    return (inc.intercept + inc.slope * n, 0.5, w) if normal else (-math.log(n), 1.0, w)


def _scan_certifies_decrease(model: RiskModel, h: float, last_index: int) -> bool:
    """Family-level proof that every term beyond last_index stays negative."""
    facts = _proof_facts(model, last_index)
    return facts is not None and facts[0] + facts[1] * (h * facts[2]) < 0.0


def _proof_span(model: RiskModel, h: float, cap: int) -> int | None:
    """The scan's first range: the least of _SCAN_FIRST * 4^i epochs, or the cap,
    past which the family's proof shows every term negative at h; None if none.
    b h w with b, w >= 0 is monotone in h also in floating point, so a proof at
    h holds at every smaller h, at the same range or an earlier one."""
    n = _SCAN_FIRST
    while n < cap and not _scan_certifies_decrease(model, h, n):
        n *= 4
    return min(n, cap) if n < cap or _scan_certifies_decrease(model, h, cap) else None


# a scan's first range is the shortest of _SCAN_FIRST * 4^i epochs that the
# family's proof closes, and the rest of the scan runs to the cap; no range
# crosses a multiple of _SCAN_CHUNK epochs, so a scan holds one chunk at a
# time, and the plans of a first range and the rest of the first chunk fit in
# _PLAN_EPOCHS together
_SCAN_FIRST = 64
_SCAN_CHUNK = 1 << 16


def _sup_scan(model: RiskModel, h: float, policy: TruncationPolicy, partial: bool, search: Search | None = None) -> SupLogMgf:
    """The sup over epochs 1..cap of the running value, scanned in ranges.

    The verdict is the full scan's: attained when the family's proof
    (_scan_certifies_decrease at the cap) holds, else undetermined. The proof
    stays true as the index grows, so once it holds at the end of a range,
    every later term is negative, every later partial sum falls, and the
    value, argmax and status are already those of the full scan: the scan
    stops there. The scan also stops at the first value that is not a number
    (a term of t past the float range), and is undetermined then: the terms
    from there on are unknown.

    A probe computes, in one np.errstate block, the plan's terms, their running sum
    and its first maximum, which also settles the cut at +inf and the stop at a NaN
    (argmax finds the first NaN, else the first +inf; a running +inf stays +inf or NaN).

    Given a search record, a finite horizon of one range of more than
    _SCAN_FIRST epochs keeps in it a reference of each full scan of the
    partial sums whose terms are finite or +inf (_keep_scan), "unbounded" ones
    included, and a later probe below one reads only a few epochs
    (_chord_probe). A per-increment probe always scans in full.
    """
    horizon, held = model._horizon, None
    cap = horizon if horizon is not None else policy.k_max
    proof = None if horizon is not None else _proof_span(model, h, cap)  # an epoch past which every term is negative
    with np.errstate(all="ignore"):  # t past the float range, and sums of infinities
        if partial and search is not None and horizon is not None and _SCAN_FIRST < cap <= _SCAN_CHUNK:
            held = search.chords
            s = _chord_probe(h, held)
            if s is not None:
                return s
        start, end, g, best, arg, prev = 0, proof or cap, 0.0, -INF, None, None  # prev: see _plan
        while True:
            end = min(end, cap, (start // _SCAN_CHUNK + 1) * _SCAN_CHUNK)
            plan = _plan(model, start, end, prev)
            terms = plan.terms(h)
            if held is not None:  # the scan's one range
                _keep_scan(held, model, h, plan, terms)
            prev, plan = plan.last, None  # a plan past the budget goes before the next one is built
            values = terms
            if partial:  # the running sum continues in order from the range before
                values = np.concatenate(([g], terms)).cumsum()[1:] if start else terms.cumsum()
            i = int(values.argmax())  # the first NaN, else the first maximum, as _fold keeps it
            top = float(values[i])
            if top != top:
                return _stopped(values[:i], start, best, arg)
            if top > best:
                best, arg = top, start + i + 1
            if best == INF:
                return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")
            # a per-increment sup below zero scans on: discounted terms rise toward
            # zero, and where t underflows they round to it
            if end == cap or (proof is not None and end >= proof and (partial or best > 0.0)):
                break
            start, end, g = end, cap, values[-1]
    if horizon is not None:
        return SupLogMgf(best, arg, "attained", True)
    if proof is not None:
        if not partial and best < 0.0 and not model.zero_rates():
            return SupLogMgf(0.0, None, "limit", True, "terms approach zero from below under discounting")
        return SupLogMgf(best, arg, "attained", True)
    return SupLogMgf(best, arg, "undetermined", False, f"scan truncated at k_max={cap}")


def _stopped(values: np.ndarray, start: int, best: float, arg: int | None) -> SupLogMgf:
    """The verdict of a scan whose value at epoch start + len(values) + 1 is
    not a number (t past the float range): only the values before it count."""
    if values.size:
        i = int(values.argmax())
        if values[i] > best:
            best, arg = float(values[i]), start + i + 1
    if best == INF:
        return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")
    return SupLogMgf(best, arg, "undetermined", False,
                     f"scan stopped at epoch {start + values.size + 1}, whose value is not a number")


# The rounding model, read by one consumer: the chord certificates' margins
# (_chord_probe). The root solvers probe every point of their searches.
# Let F(h) be the exact sup that a route computes of the partial sums: the sup
# over epochs of the running sums of the exact terms g_j(h w_j), the exact
# log-MGFs of the laws as stored, at the multipliers w_j that the route reads,
# which do not depend on h. Where a route's value at h is certified and finite,
# it lies within
#     E(h) = a (F(h)+ + 2 h Wmu) + b (h Ws + logs + count h / (cap - h))
# of F(h), for (a, b, Wmu, Ws, logs, count, cap) = _rounding_scale of the epochs
# it reads (_error). Each kernel errs by at most k eps (|g_j| + t_j s_j + l_j + t_j / (b_j - t_j))
# (IncrementDistribution._scales), with t_j = h w_j, and b >= gamma_{2k} takes
# that in: Ws sums w_j s_j, logs l_j, and count the laws whose MGF domain ends
# at a finite b_j; cap is the least b_j / w_j. A running sum of N terms errs
# by gamma_{N-1} times their magnitudes summed (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., section 4.2), and sum_j |g_j| is at most
# F+ + 2 h Wmu, Wmu the sum of w_j |E Y_j|: g_j >= h w_j E Y_j (Jensen), and
# every partial sum is at most F. So a is gamma_N + b.

_EPS = 2.0**-53


def _gamma(n: float) -> float:
    """gamma_n = n eps / (1 - n eps), +inf past n eps = 1/2 (and for n = +inf)."""
    return n * _EPS / (1.0 - n * _EPS) if n * _EPS < 0.5 else INF


@_per_model
def _epoch_scales(model: RiskModel, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Per epoch 1..K: w_j |E Y_j|, w_j s_j, l_j and b_j / w_j (+inf for a domain
    without end, or w_j = 0), w_j = e^{c_j} clamped at the float maximum; and the
    largest k (IncrementDistribution._scales)."""
    inc = model.increments
    if isinstance(inc, (IndexedNormal, IndexedTwoPoint)):  # in closed form, as _Plan reads them: no law is built
        j, w, ends = np.arange(1.0, K + 1.0), np.exp(model.log_discounts(K - 1)), np.full(K, INF)
        if isinstance(inc, IndexedNormal):  # Normal(intercept + slope j, 1)._scales
            mu = w * np.abs(inc.intercept + inc.slope * j)
            return mu, mu, np.zeros(K), ends, 16.0
        p = 1.0 / (j + 1.0)  # TwoPoint(1, p, -1)._scales
        return w * np.abs(2.0 * p - 1.0), 2.0 * w, np.abs(np.log(p)) + np.abs(np.log1p(-p)) + 2.0, ends, 16.0
    laws, slot, c = _layout(model, K)
    mu, s, l, k, _, dom = laws.scales
    with np.errstate(all="ignore"):  # e^c past the float range, 0 * inf, and b / 0
        w = np.minimum(np.exp(c), _FLOAT_MAX)
        return np.where(w > 0.0, w * mu[slot], 0.0), np.where(w > 0.0, w * s[slot], 0.0), l[slot], dom[slot] / w, float(k.max())


@_per_model
def _rounding_scale(model: RiskModel, K: int) -> tuple[float, ...]:
    """(a, b, Wmu, Ws, logs, count, cap) of E(h) (see above) over the partial
    sums of epochs 1..K."""
    wmu, ws, logs, ends, k = _epoch_scales(model, K)
    b, count, cap = _gamma(2.0 * k), float((ends < INF).sum()), float(ends.min(initial=INF))
    with np.errstate(over="ignore"):
        return _gamma(K) + b, b, float(wmu.sum()), float(ws.sum()), float(logs.sum()), count, cap


def _error(scale, h: float, top: float) -> float:
    """E(h) = (a (top + 2 h Wmu) + b (h Ws + logs + count h / (cap - h))) / (1 - a)
    for scale = (a, b, Wmu, Ws, logs, count, cap) (_rounding_scale), where top
    bounds F(h)+ but for E itself (or what a chord probe measured in its place),
    plus 1e-300 for the absolute rounding of results in the subnormal range;
    +inf without a scale or where a part is past 1e300 (a sum could overflow)."""
    if scale is None:
        return INF
    a, b, Wmu, Ws, logs, count, cap = scale
    parts = 2.0 * h * Wmu, h * Ws + logs + (count * h / (cap - h) if h < cap else INF if count else 0.0)
    return (a * (top + parts[0]) + b * parts[1]) / (1.0 - a) + 1e-300 if max(parts) < 1e300 and a < 0.5 else INF


# Chord certificates. Every term g_j is convex in h with g_j(0) = 0, so for
# h <= h0 it obeys the chord inequality g_j(h) <= (h/h0) g_j(h0), and so does
# every sum of terms. A full finite-horizon scan of the partial sums at h0
# whose terms are finite or +inf is kept as a reference in the search record
# (Search), the scan at the MGF-domain cap included; a later probe at h <= h0
# takes the reference of least h0 >= h, with lam = h/h0, and reads only the
# epochs the chord leaves open. The epochs whose terms were +inf at h0 (J, at
# most _DIVERGENT_MAX of them, else the scan is not kept) are always open, read
# at h (past the head, in one pass with it). With n = _SCAN_FIRST, F_m the sum
# of the finite terms of epochs n+1..m at h0 and p_1 < ... < p_k the epochs of
# J past the head (k >= 0), the reference is D_l = the maximum of F_m over
# p_l <= m < p_{l+1} (p_0 = n+1, p_{k+1} past the horizon), with one plan of
# the head, epochs 1..n, then of J past the head and in it. The probe
# evaluates that plan, so G_m(h) - G_n(h) <= lam D_l + g_{p_1}(h) + ... +
# g_{p_l}(h) for m from p_l on. If G_n(h) plus the largest of these lies below
# the maximum of G_1..G_n(h) by the margin, no later partial sum reaches it; a
# term of J that is not finite at h sends the probe to the full scan.
# The value, argmax and status are then the full scan's, bitwise: the terms
# read are the ones the full scan computes, and partial sums through n are the
# first n of its running sum. A probe keeps nothing: the reference it read
# bounds every later probe below as tightly. A probe that does not close runs
# the full scan.
#
# The margin is E of both runs (the rounding model above). A reference keeps
# its range's _rounding_scale and err, E at h0 of the scan that kept it: how
# far its entries may lie from the exact values they stand for. A probe's
# margin is lam err plus E at h of the full scan, with what it measured for
# F+: lam S0 (S0 sums the finite terms' magnitudes at h0) and the magnitudes
# of J's terms; a term that it never evaluates has |g_j(h)| <= max(lam
# |g_j(h0)|, h w_j |E Y_j|) (the chord, and Jensen), which 2 h Wmu takes in.
# The domain part counts the epochs outside J only: J's terms are read at the
# probe, bitwise as the full scan reads them, so a reference at the MGF-domain
# cap stays usable.

# a scan with more terms of +inf than this is not kept as a reference
_DIVERGENT_MAX = 64


def _keep_scan(held: list, model: RiskModel, h: float, plan: _Plan, terms: np.ndarray) -> None:
    """Keep the full scan of the partial sums at h, whose terms over plan's
    range are given, as a reference, unless a term is NaN or -inf, more than
    _DIVERGENT_MAX are +inf, or its sums overflow."""
    fin = np.isfinite(terms)
    J = np.flatnonzero(~fin)  # the epochs of the terms that are not finite
    if J.size > _DIVERGENT_MAX or (terms[J] != INF).any():
        return
    finite, K = np.where(fin, terms, 0.0) if J.size else terms, len(terms)
    scale = _rounding_scale(model, K)
    if J.size:  # the domain part counts the epochs outside J
        ends = np.delete(_epoch_scales(model, K)[3], J)
        scale = (*scale[:5], min(scale[5], float((ends < INF).sum())), float(ends.min(initial=INF)))
    n = _SCAN_FIRST
    k = int(np.searchsorted(J, n))  # J[k:] lie past the head
    rest, S0 = finite[n:].cumsum(), float(np.abs(finite).sum())
    D = np.maximum.reduceat(rest, np.concatenate(([0], J[k:] - n))).tolist()  # one per stretch
    if np.isfinite(D).all() and S0 < INF:  # a probe reads the head, then J past it and in it
        read = plan.subset(np.concatenate((np.arange(n), J[k:], J[:k]))) if J.size else _plan(model, 0, n)
        bisect.insort_left(held, (h, (D, S0, read, scale, _error(scale, h, S0))), key=operator.itemgetter(0))


def _chord_probe(h: float, held: list) -> SupLogMgf | None:
    """The full scan's result at h when the reference of least h0 >= h settles
    it, else None (see the notes above). Runs inside the scan's np.errstate."""
    k = bisect.bisect_left(held, h, key=operator.itemgetter(0))
    if k == len(held):
        return None
    h0, (D, S0, plan, scale, err) = held[k]  # plan: the head, then the epochs of J past it and in it
    lam = h / h0
    terms = plan.terms(h)
    values = terms[:_SCAN_FIRST].cumsum()
    i = int(values.argmax())
    best = float(values[i])
    g = terms[_SCAN_FIRST:].tolist()  # the terms of J, a few: Python floats
    if not all(map(math.isfinite, g)):
        return None
    bound, run = lam * D[0], 0.0
    for d, x in zip(D[1:], g):  # the terms of J past the head up to each stretch
        run += x
        bound = max(bound, lam * d + run)
    margin = lam * err + _error(scale, h, 4.0 * (lam * S0 + sum(map(abs, g), 0.0)))
    if not (-INF < best < INF and margin < INF and values[-1] + bound <= best - margin):
        return None
    return SupLogMgf(best, i + 1, "attained", True)


@_per_model
def _route(model: RiskModel, partial: bool):
    """The reduction of the model's sups of one flavour at every h > 0, decided
    once from what does not depend on h: a function of (h, partial) for the
    closed forms of the indexed families without interest, the periodic block,
    the amplifying verdict (_settled) and the long cycles (_sup_shrinking), whose
    function leaves some h to the scan with None; None for the scan."""
    inc, block = model.increments, model._block
    if model.horizon() is not None:
        return None
    if model.zero_rates() and isinstance(inc, (IndexedNormal, IndexedTwoPoint)):
        return functools.partial(_sup_indexed_normal if isinstance(inc, IndexedNormal) else _sup_indexed_twopoint, inc)
    if reason := _settled(model, partial):
        verdict = SupLogMgf(INF, None, "unbounded", True, reason)
        return lambda h, partial: verdict
    if block is not None and (not block.amplifying or block.period_top <= 0.0):
        return functools.partial(_sup_periodic, block)
    laws = model._laws
    if block is None and laws is not None and laws.log_ratio <= 0.0:
        return functools.partial(_sup_shrinking, model, laws)
    return None


def _unpacked(model: RiskModel | Search, policy: TruncationPolicy | None = None):
    """(model, policy, record) of a model, under policy or the default, with no record;
    or of a search record in its place, under the record's policy, refusing another."""
    if isinstance(model, Search):
        if policy is not None and policy != model.policy:
            raise ValueError("a search record runs under its own policy")
        return model.model, model.policy, model
    _reduced(model)
    return model, policy or _DEFAULT_POLICY, None


def _sup(model: RiskModel | Search, h: float, policy: TruncationPolicy | None, partial: bool) -> SupLogMgf:
    """The supremum over epochs of the running value: partial sums of the
    terms (partial=True) or the terms themselves, by the model's route; given
    a search record, of its model under its policy, with its chord references."""
    model, policy, search = _unpacked(model, policy)
    _require_h(h)
    if h == 0.0:
        return SupLogMgf(0.0, 1, "attained", True)
    route = _route(model, partial)
    if route and (s := route(h, partial)) is not None:  # only the long cycles' route leaves h to the scan
        return s
    return _sup_scan(model, h, policy, partial, search)


def sup_log_mgf(model: RiskModel | Search, h: float, policy: TruncationPolicy | None = None) -> SupLogMgf:
    """sup_{k>=1} G_k(h), reduced exactly where the sequence structure allows.
    Probes that pass one search record (Search) in place of the model share it."""
    return _sup(model, h, policy, True)


def per_increment_sup(model: RiskModel | Search, h: float, policy: TruncationPolicy | None = None) -> SupLogMgf:
    """sup_{j>=1} log E exp(h v_{j-1} Y*_j), the one-step analogue of sup_log_mgf."""
    return _sup(model, h, policy, False)


class Search:
    """What the searches over h of one model share, under one policy: the
    chord references of their partial-sum probes (_sup_scan) and what bounds
    keeps apart from u.
    Every function that searches over h takes the record in place of the model
    and runs under its policy (_unpacked). What it holds depends on h, so a
    record lives as long as its searches: one u-grid, or one request's solves."""

    def __init__(self, model: RiskModel, policy: TruncationPolicy | None = None) -> None:
        _reduced(model)
        self.model, self.policy = model, policy or _DEFAULT_POLICY
        self.chords = []  # the partial sums' references (h0, reference) in increasing h0
        self.memo = _Memo()  # bounds': its values apart from u, by its keys


# ---------------------------------------------------------------------------
# iid detection (for the root-of-one-MGF bound)


def iid_base(model: RiskModel) -> IncrementDistribution | None:
    """The common law when increments are iid, or iid up to a contracting scale."""
    _reduced(model)
    inc = model.increments
    if isinstance(inc, Periodic) and len(inc.cycle) == 1:
        return inc.cycle[0]
    if isinstance(inc, QuasiPeriodicScaled) and len(inc.cycle) == 1 and inc.scale <= 1.0:
        return inc.cycle[0]
    return None


# ---------------------------------------------------------------------------
# event-level description and its reduction


@dataclass(frozen=True)
class EventModel:
    """Event-level description: claims Z_k at epochs T_k with interarrivals
    theta_k, premium rate p_k, premium interest beta_k and reserve interest
    alpha_k, all independent across k with deterministic per-index rates."""

    claim: SequenceRule
    interarrival: SequenceRule
    premium_rate: RateRule = field(default_factory=lambda: ConstantRates(1.0))
    reserve_interest: RateRule = field(default_factory=ConstantRates)
    premium_interest: RateRule = field(default_factory=ConstantRates)
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("premium_rate", "reserve_interest", "premium_interest"):
            object.__setattr__(self, name, _coerce_rates(getattr(self, name)))
        for name in ("claim", "interarrival"):
            rule = getattr(self, name)
            if not isinstance(rule, (Periodic, ExplicitPrefix)):
                raise ValueError(f"EventModel.{name} must be an explicit or periodic rule")
        for d in self._base_dists(self.claim):
            if support_bounds(d)[0] < 0.0:
                raise ValueError("EventModel.claim laws must have nonnegative support")
        pr = self.premium_rate
        values = (pr.rate,) if isinstance(pr, ConstantRates) else pr.values
        if any(v <= 0.0 for v in values):
            raise ValueError("EventModel.premium_rate must be positive")

    @staticmethod
    def _base_dists(rule: SequenceRule):
        return rule.cycle if isinstance(rule, Periodic) else rule.dists


def _require_h(h: float) -> None:
    """Refuse an h that is not a finite real >= 0: every entry point that takes h."""
    if not 0.0 <= h < INF:
        raise ValueError(f"h must be a nonnegative real, got {h!r}")


def _reduced(model) -> None:
    """Refuse what is not a RiskModel; an EventModel reduced per call would rebuild its memo each time."""
    if not isinstance(model, RiskModel):
        raise TypeError("an EventModel must be reduced to a RiskModel first: pass reduce_event_model(model)"
                        if isinstance(model, EventModel) else f"expected a RiskModel, got {type(model).__name__}")


def reduce_event_model(em: EventModel) -> RiskModel:
    """Collapse the event-level description to increment laws and rate floors.

    Per index, Y*_k = Z_k/(1+alpha_k) - (1+beta_k) p_k theta_k / (1+alpha_k),
    and the deterministic reserve interest becomes the rate floor r_k = alpha_k.
    """
    from .distributions import CompoundIncrement  # deferred: avoids cycle at import time

    rules = (em.claim, em.interarrival, em.premium_rate, em.reserve_interest, em.premium_interest)
    horizons = [h for h in (r.horizon() for r in rules) if h is not None]

    def build(k: int) -> IncrementDistribution:
        z = em.claim.distribution_at(k)
        theta = em.interarrival.distribution_at(k)
        p = em.premium_rate.rate_at(k)
        beta = em.premium_interest.rate_at(k)
        alpha = em.reserve_interest.rate_at(k)
        core = CompoundIncrement(z, (1.0 + beta) * p, theta)
        return core if alpha == 0.0 else Scaled(1.0 / (1.0 + alpha), core)

    if horizons:
        H = min(horizons)
        increments = ExplicitPrefix(tuple(build(k) for k in range(1, H + 1)))
        rates: RateRule = ExplicitRates(tuple(em.reserve_interest.rate_at(k) for k in range(1, H + 1)))
        return RiskModel(increments, rates, em.label)

    L = math.lcm(*(r.period() or 1 for r in rules))
    increments = Periodic(tuple(build(k) for k in range(1, L + 1)))
    return RiskModel(increments, em.reserve_interest, em.label)
