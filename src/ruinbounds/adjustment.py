"""Adjustment coefficient solvers.

Each coefficient is the supremum of h >= 0 keeping a log-MGF criterion at or
below zero. Every criterion here is a supremum of convex functions vanishing
at h = 0, so its feasible set is an interval [0, L]; the solvers locate L by
doubling and bisection (_grow_and_bisect), probing every point of the
search. A model's coefficients are kept in its memo once solved
(models._Memo), so each search runs once per model. The esssups decide once
per model, for the sup routes too, where a criterion holds at every h or at
none (models._settled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    INF,
    IncrementDistribution,
    log_mgf,
    mean,
    mgf_domain_sup,
    support_bounds,
)
from .models import (
    IndexedNormal,
    IndexedTwoPoint,
    PeriodHypothesisError,
    Periodic,
    QuasiPeriodicScaled,
    RiskModel,
    Search,
    TruncationPolicy,
    _esssup_sums,
    _examined_span,
    _is_int,
    _layout,
    _per_model,
    _reduced,
    _settled,
    _unpacked,
    cumulative_log_mgf,
    log_mgf_terms,
    per_increment_sup,
    sup_log_mgf,
)

__all__ = [
    "SLACK",
    "AdjustmentResult",
    "WindowCheck",
    "solve_per_increment",
    "solve_partial_sum",
    "solve_period_root",
    "verify_window_exponent",
    "solve_kappa",
]

# log-space slack for criterion comparisons: sup <= SLACK counts as feasible
SLACK = 1e-12


@dataclass(frozen=True)
class AdjustmentResult:
    """A coefficient in [0, +inf] with solver diagnostics.

    When certified is False the reported value is a lower estimate: some
    feasibility verdict relied on a truncated scan, and the solver then errs
    toward the smaller root rather than overstate the coefficient.
    """

    value: float
    flavor: str
    bracket: tuple[float, float] | None
    certified: bool
    boundary: bool = False
    note: str = ""


def _check_tol(tol: float) -> None:
    if not (isinstance(tol, (int, float)) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")


# ---------------------------------------------------------------------------
# bisection core


def _grow_and_bisect(feasible, h_cap: float, tol: float):
    """sup{h >= 0 : feasible(h)} for an interval criterion containing 0, by
    doubling and bisection; feasible(h) is the verdict of a probe at h.

    Returns (value, bracket, boundary, exhausted). boundary means the root sits
    at the MGF domain frontier h_cap; exhausted means 200 doublings never met an
    infeasible point (callers decide what that implies).
    """
    if h_cap <= 0.0:
        return 0.0, (0.0, 0.0), True, False
    h0 = 1.0 if h_cap == INF else min(1.0, 0.5 * h_cap)
    lo, hi = 0.0, h0
    if feasible(h0):
        lo = h0
        hi = None
        for _ in range(200):
            cand = lo * 2.0 if h_cap == INF else min(lo * 2.0, h_cap)
            if feasible(cand):
                lo = cand
                if cand == h_cap:
                    return h_cap, (lo, h_cap), True, False
            else:
                hi = cand
                break
        if hi is None:
            return INF, (lo, INF), False, True
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    boundary = h_cap != INF and hi >= h_cap * (1.0 - 1e-12)
    return 0.5 * (lo + hi), (lo, hi), boundary, False


# ---------------------------------------------------------------------------
# MGF domain caps (doubling guides; never affect soundness)


@_per_model
def _domain_cap(model: RiskModel, span: int | None = None) -> float:
    if isinstance(model.increments, (IndexedNormal, IndexedTwoPoint)):
        return INF  # every Normal and TwoPoint law has an unbounded MGF domain
    laws, slot, c = _layout(model, span or _examined_span(model) or 64)
    dom = laws.dom[slot]
    finite = dom < INF
    return float((dom[finite] / np.exp(c[finite])).min()) if finite.any() else INF


# ---------------------------------------------------------------------------
# solvers


def _solve_sup_root(model, tol, policy, partial: bool) -> AdjustmentResult:
    """sup{h >= 0 : sup_log_mgf (partial) or per_increment_sup <= 0}, +inf or 0
    where the esssups settle it (models._settled), kept in the model's memo
    (models._Memo) per tol and policy: a coefficient depends on neither h nor
    u, so a repeat call probes nothing. The probes share the search record
    (models.Search) given in place of the model, or a fresh one."""
    _check_tol(tol)
    model, policy, search = _unpacked(model, policy)
    flavor = "partial_sum" if partial else "per_increment"
    return model._memo.kept((flavor, tol, policy), _sup_root, model, tol, policy, search, flavor, solves=1)


def _sup_root(model: RiskModel, tol: float, policy: TruncationPolicy, search, flavor: str) -> AdjustmentResult:
    partial = flavor == "partial_sum"
    settled = _settled(model, partial)
    if settled is None:
        return AdjustmentResult(INF, flavor, None, True, False,
                                f"every {'partial sum' if partial else 'increment'} is nonpositive a.s.")
    if settled:
        return AdjustmentResult(0.0, flavor, (0.0, 0.0), True, False, "criterion is +inf at every h > 0")
    uncertain = [False]
    search, sup = search or Search(model, policy), sup_log_mgf if partial else per_increment_sup

    def feasible(h: float) -> bool:
        """The verdict, conservative on truncation: an undetermined sup is a running
        maximum, infeasible, and flags the solve where it is at most SLACK."""
        s = sup(search, h)
        if not s.certified:
            if s.value <= SLACK:
                uncertain[0] = True
            return False
        return s.value <= SLACK

    value, bracket, boundary, exhausted = _grow_and_bisect(feasible, _domain_cap(model), tol)
    note = ""
    certified = not uncertain[0]
    if exhausted:
        certified = False
        note = "criterion still held after 200 doublings; support test could not confirm +inf"
    elif uncertain[0]:
        note = "feasibility relied on a truncated scan; value is a lower estimate"
    return AdjustmentResult(value, flavor, bracket, certified, boundary, note)


def solve_per_increment(model: RiskModel | Search, tol: float = 1e-10, policy: TruncationPolicy | None = None) -> AdjustmentResult:
    """sup{h >= 0 : sup_j E exp(h v_{j-1} Y*_j) <= 1}, the one-step coefficient."""
    return _solve_sup_root(model, tol, policy, False)


def solve_partial_sum(model: RiskModel | Search, tol: float = 1e-10, policy: TruncationPolicy | None = None) -> AdjustmentResult:
    """sup{h >= 0 : sup_k E exp(h S*_k) <= 1}, the partial-sum coefficient."""
    return _solve_sup_root(model, tol, policy, True)


def _check_period_args(model: RiskModel, l: int) -> None:
    """Validate the periodic-reduction hypotheses."""
    _reduced(model)
    inc = model.increments
    if not isinstance(inc, (Periodic, QuasiPeriodicScaled)):
        raise PeriodHypothesisError("period root requires Periodic or QuasiPeriodicScaled increments")
    cycle_len = len(inc.cycle)
    if not (_is_int(l) and l >= 1 and l % cycle_len == 0):
        raise PeriodHypothesisError(f"l={l!r} is not a multiple of the cycle length {cycle_len}")
    rate_period = model.rates.period()
    if rate_period is None or l % rate_period != 0:
        raise PeriodHypothesisError("rates must repeat with a period dividing l")
    # l is a multiple of the block length, so the block's rho decides contraction
    if unfit := _block_unfit(model):
        raise PeriodHypothesisError(unfit)


def _block_unfit(model: RiskModel) -> str:
    """Why the model's block fails the periodic reductions' hypotheses, or ""."""
    block = model._block
    if block is None:
        return "the effective period is too long to reduce"
    return f"scale times discount over one period is exp({block.log_ratio:.6g}) > 1" if block.amplifying else ""


def solve_period_root(model: RiskModel, l: int, tol: float = 1e-10) -> AdjustmentResult:
    """sup{h >= 0 : E exp(h S*_l) <= 1}, the root of a single period's log-MGF,
    kept in the model's memo per l and tol (models._Memo)."""
    _check_tol(tol)
    _check_period_args(model, l)
    return model._memo.kept(("period_root", l, tol), _period_root, model, l, tol, solves=1)


def _period_root(model: RiskModel, l: int, tol: float) -> AdjustmentResult:
    sums = _esssup_sums(model, l)
    if sums is not None and sums[-1] <= 0.0:
        return AdjustmentResult(INF, "period_root", None, True, False, "one full period is nonpositive a.s.")

    value, bracket, boundary, exhausted = _grow_and_bisect(
        lambda h: cumulative_log_mgf(model, h, l)[-1] <= SLACK, _domain_cap(model, l), tol)
    if exhausted:
        return AdjustmentResult(value, "period_root", bracket, False, False, "criterion still held after 200 doublings")
    return AdjustmentResult(value, "period_root", bracket, True, boundary, "")


@dataclass(frozen=True)
class WindowCheck:
    """Outcome of verifying E exp(L (S*_{n+l} - S*_n)) <= 1 for all n >= m."""

    ok: bool
    reason: str
    max_delta: float
    checked_through: int

    def __bool__(self) -> bool:
        return self.ok


def verify_window_exponent(model: RiskModel, l: int, m: int, exponent: float) -> WindowCheck:
    """Check the shifted-window criterion Delta_n = G_{n+l} - G_n <= 0 for every n >= m.

    The windows n = m..n_hi are summed from their own terms, epochs m+1..n_hi+l
    (log_mgf_terms), and the check holds where none exceeds SLACK. On a finite
    horizon n_hi is its last window. On a block that does not amplify
    (_block_unfit) the verdict extends to every n by a lemma: for n >= P + 1,
    P the prefix, window n + L reads the same laws as window n at rho <= 1
    times their multipliers of h, L the block length, and each log-MGF g is
    convex with g(0) = 0, so g(rho t) <= rho g(t) and Delta_{n+L} <= rho Delta_n.
    So n_hi = max(m, P + 1) + L, one period of phases past the prefix, covers
    every window, for exact and contracting blocks alike. Any other model
    reports ok=False with reason "unverifiable-tail".
    """
    _reduced(model)
    if not (_is_int(l) and _is_int(m) and l >= 1 and m >= 1 and exponent >= 0.0):
        raise ValueError(f"verify_window_exponent needs integers l, m >= 1 and exponent >= 0, got {l!r}, {m!r}, {exponent!r}")
    horizon = model.horizon()
    if horizon is not None:
        n_hi, reason = horizon - l, "finite horizon, exhaustive"
        if n_hi < m:
            return WindowCheck(True, "finite horizon shorter than one window", -INF, horizon)
    elif _block_unfit(model):
        return WindowCheck(False, "unverifiable-tail", INF, 0)
    else:
        block = model._block
        n_hi = max(m, block.prefix + 1) + block.length
        reason = f"{'periodic' if block.exact else 'contracting'} tail, all phases checked"
    K = n_hi + l
    terms = log_mgf_terms(model, exponent, K, m)
    if terms[-1] == INF:
        return WindowCheck(False, "divergent MGF inside the checked window", INF, K)
    with np.errstate(over="ignore", invalid="ignore"):  # sums past the float range read as failures
        sums = np.concatenate(([0.0], terms.cumsum()))
        worst = float((sums[l:] - sums[:-l]).max())
    if not worst <= SLACK:
        return WindowCheck(False, "window criterion fails at a checked index", worst, K)
    return WindowCheck(True, reason, worst, K)


def solve_kappa(dist: IncrementDistribution, tol: float = 1e-10) -> AdjustmentResult:
    """The positive root of E exp(kappa Y) = 1 for a single increment law."""
    _check_tol(tol)
    if support_bounds(dist)[1] <= 0.0:
        return AdjustmentResult(INF, "kappa", None, True, False, "increment is nonpositive a.s.")
    if mean(dist) >= 0.0:
        return AdjustmentResult(0.0, "kappa", (0.0, 0.0), True, False, "nonnegative drift, criterion fails for every h > 0")

    value, bracket, boundary, exhausted = _grow_and_bisect(lambda h: log_mgf(dist, h) <= SLACK, mgf_domain_sup(dist), tol)
    if exhausted:
        return AdjustmentResult(value, "kappa", bracket, False, False, "criterion still held after 200 doublings")
    note = "root at the MGF domain boundary" if boundary else ""
    return AdjustmentResult(value, "kappa", bracket, True, boundary, note)
