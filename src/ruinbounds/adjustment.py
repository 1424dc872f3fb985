"""Adjustment coefficient solvers.

Each coefficient is the supremum of h >= 0 keeping a log-MGF criterion at or
below zero. Every criterion here is a supremum of convex functions vanishing
at h = 0, so its feasible set is an interval [0, L]; the solvers locate L by
doubling and bisection (_grow_and_bisect). They probe only the points that
convexity leaves open: the chord and the extended secants of the probes made
so far bound the criterion at a new point, and where those bounds, widened by
a rigorous bound E(h) on the computed value's rounding (models._rounding), put
it on one side of the slack, and the nearest probe above it was certified, the
verdict is the one a probe would compute, so every bracket stays bitwise that
of probing every point. The esssups decide once per model, for the sup routes
too, where a criterion holds at every h or at none (models._settled).
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
    ExplicitPrefix,
    IndexedNormal,
    IndexedTwoPoint,
    PeriodHypothesisError,
    Periodic,
    QuasiPeriodicScaled,
    RiskModel,
    Search,
    TruncationPolicy,
    _EPS,
    _SCAN_CHUNK,
    _error,
    _esssup_sums,
    _examined_span,
    _is_int,
    _layout,
    _per_model,
    _reduced,
    _rounding,
    _rounding_scale,
    _settled,
    _unpacked,
    _walk,
    cumulative_log_mgf,
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


def _grow_and_bisect(probe, h_cap: float, tol: float, rounding=None):
    """sup{h >= 0 : feasible at h} for an interval criterion containing 0, by
    doubling and bisection, probing only the points that convexity leaves open.

    probe(h) returns (feasible, value, sound): the verdict, the computed value
    of the criterion, and whether the probe was certified with a value that is
    finite, or +inf where no term went unread after it (a finite horizon
    scanned in one range) or no term formed it (a block's period-sum verdict).
    rounding is (cut, scale) as models._rounding gives it (None: probe every
    point): scale(h, top), top >= F(h)+, gives the bound E(h) (models._error) on how
    far a certified value at h lies from the exact criterion F(h), which is
    convex with F(0) = 0.

    Each evaluated probe keeps [value - E, value + E], which holds F(h); h = 0
    holds F = 0 exactly. A doubling point or midpoint m is then decided without
    a probe where the sandwich of a convex function (Rote, Computing 48, 1992)
    settles its verdict, the lines' rounding counted:
    - feasible, where the chord through the upper ends of the nearest
      evaluated probes on either side of m, plus E(m), is at most SLACK (and
      at most cut, for a route that also checks what such a value implies);
    - infeasible, where the secant through two evaluated probes on one side,
      extended to m, bounds F(m) from below by more than SLACK plus E(m). No
      probe below m is +inf: every probe below m was feasible.
    Either skip also needs the status rule: the nearest evaluated probe above
    m was sound. The routes that claim a bound certify monotonically in h (a
    scan's proof at h holds below it, a finite horizon and a block's head are
    certified unless a value is not a number, and a kernel's overflow at t
    persists at every larger t; a contracting tail's walk is shown to close
    before models._BLOCK_CAP at m itself), so the probe at m would have been
    certified and its verdict is the one decided. The brackets are those of
    probing every point, bitwise.

    Returns (value, bracket, boundary, exhausted). boundary means the root sits
    at the MGF domain frontier h_cap; exhausted means 200 doublings never met an
    infeasible point (callers decide what that implies).
    """
    if h_cap <= 0.0:
        return 0.0, (0.0, 0.0), True, False
    # the evaluated probes, [h, value, sound, low, high, scale]: the feasible ones in increasing h,
    # from h = 0, where F = 0 exactly, and the infeasible ones in decreasing h; so the
    # last of each is the nearest evaluated probe to a bisection's midpoint on its side
    below, above = [[0.0, 0.0, True, 0.0, 0.0, None]], []  # filled in on first use (_fill)
    tries, (cut, scale) = _TRIES if rounding else 0, rounding or (INF, None)
    edge = min(SLACK, cut)

    def feasible(h: float) -> bool:
        nonlocal tries
        if tries:
            verdict = _skipped(below, above, h, edge, scale)
            if verdict is True or verdict is False:
                return verdict
            if verdict is _WIDE:
                tries -= 1
        verdict, value, sound = probe(h)
        if tries:
            side = below if verdict else above
            if not side or side[-1][0] != h:
                side.append([h, value, sound, None, None, None])
        return verdict

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


# a solve stops trying to skip after this many points that the values settle but E
# leaves open: near the root of a solve that E limits, every later point is left open too
_TRIES = 2
_WIDE = object()


def _fill(probe: list, scale) -> None:
    """Fill in an evaluated probe [h, value, sound, None, None, None] on first
    use with low, high and its scale: F(h) lies in [low, high], and scale is
    its E's (scale(h, top) of _grow_and_bisect), None if it was not sound."""
    h, value, sound = probe[:3]
    at = scale(h, 2.0 * abs(value) + 1.0) if sound else None  # F(h)+ <= |value| + E, E <= 1
    e = _error(at, h, 2.0 * abs(value)) if abs(value) < INF else INF
    probe[3:] = (value - e, value + e, at) if e <= 1.0 else (-INF, INF, at)


def _skipped(below: list, above: list, m: float, edge: float, scale):
    """The verdict at m that the evaluated probes settle (_grow_and_bisect), or
    None. Each line is tried first through the values alone: the widened chord
    is at least that one, a widened secant at most, so a point that they leave
    open costs no E. The E of the nearest probe above m bounds E(m): a scan's
    range and a contracting tail's walk only shrink as h does, and
    F(m)+ <= F(h)+. A point that the values settle but E leaves open gives _WIDE."""
    if not above:
        return None
    b0, a0 = below[-1], above[-1]
    x0, v0, x1, v1 = b0[0], b0[1], a0[0], a0[1]
    if not a0[2] or x0 == m or x1 == m:
        return None
    if v0 + (v1 - v0) * ((m - x0) / (x1 - x0)) <= edge:
        for p in (b0, a0):
            if p[3] is None:
                _fill(p, scale)
        up, at = _line(x0, b0[4], x1, a0[4], m, 1.0), a0[5]
        return True if at is not None and up + _error(at, m, 2.0 * abs(up)) <= edge else _WIDE
    if len(above) > 1 and v1 + ((a1 := above[-2])[1] - v1) * ((m - x1) / (a1[0] - x1)) > SLACK:
        near, far, x, y = a0, a1, (x1, a1[0]), (3, 4)
    elif len(below) > 1 and (b1 := below[-2])[1] + (v0 - b1[1]) * ((m - b1[0]) / (x0 - b1[0])) > SLACK:
        near, far, x, y = b1, b0, (b1[0], x0), (4, 3)
    else:
        return None
    for p in (near, far, a0):
        if p[3] is None:
            _fill(p, scale)
    low, at = _line(x[0], near[y[0]], x[1], far[y[1]], m, -1.0), a0[5]
    # a value is at least F - a (F + R), F >= low > 0
    return False if at is not None and low - _error(at, m, 2.0 * low) > SLACK else _WIDE


def _line(a: float, fa: float, b: float, fb: float, m: float, side: float) -> float:
    """The line through (a, fa) and (b, fb) at m, moved by side (1 or -1) times a
    bound on its rounding; side * inf where an end is not finite."""
    if not (abs(fa) < INF and abs(fb) < INF):
        return side * INF
    r = (m - a) / (b - a)
    return fa + (fb - fa) * r + side * 16.0 * _EPS * (abs(fa) + abs(fb)) * (1.0 + abs(r))


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


def _solved(model: RiskModel, key: tuple, solve) -> AdjustmentResult:
    """solve(), kept in the model's memo under key (models._Memo): a
    coefficient depends on neither h nor u, so a repeat call probes nothing."""
    result = model._memo.get(key)
    return result if result is not None else model._memo.keep(key, solve(), solves=1)


def _solve_sup_root(model, tol, policy, partial: bool) -> AdjustmentResult:
    """sup{h >= 0 : sup_log_mgf (partial) or per_increment_sup <= 0}, +inf or 0
    where the esssups settle it (models._settled), kept on the model per tol
    and policy (_solved). The probes share the search record (models.Search)
    given in place of the model, or a fresh one."""
    _check_tol(tol)
    model, policy, search = _unpacked(model, policy)
    flavor = "partial_sum" if partial else "per_increment"
    return _solved(model, (flavor, tol, policy), lambda: _sup_root(model, tol, policy, search, flavor))


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

    # a finite horizon of one scan range reads every epoch, so its +inf comes with no term unread
    whole = model.horizon() is not None and model.horizon() <= _SCAN_CHUNK

    def probe(h: float):
        """The verdict, conservative on truncation: an undetermined sup is a running
        maximum, infeasible, and flags the solve where it is at most SLACK."""
        s = sup(search, h)
        value = s.value
        if not s.certified:
            if value <= SLACK:
                uncertain[0] = True
            return False, value, False
        return value <= SLACK, value, value < INF or s.argmax is None or whole

    rounding = _rounding(model, policy.k_max, partial)
    value, bracket, boundary, exhausted = _grow_and_bisect(probe, _domain_cap(model), tol, rounding)
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
    kept on the model per l and tol (_solved)."""
    _check_tol(tol)
    _check_period_args(model, l)
    return _solved(model, ("period_root", l, tol), lambda: _period_root(model, l, tol))


def _period_root(model: RiskModel, l: int, tol: float) -> AdjustmentResult:
    sums = _esssup_sums(model, l)
    if sums is not None and sums[-1] <= 0.0:
        return AdjustmentResult(INF, "period_root", None, True, False, "one full period is nonpositive a.s.")

    def probe(h: float):
        g = cumulative_log_mgf(model, h, l)[-1]
        return g <= SLACK, g, abs(g) < INF

    rounding = INF, lambda h, top: _rounding_scale(model, l, True)
    value, bracket, boundary, exhausted = _grow_and_bisect(probe, _domain_cap(model, l), tol, rounding)
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
    """Check the shifted-window criterion G_{n+l} - G_n <= 0 for every n >= m.

    A finite window of n is evaluated directly; the verdict extends to all n
    only when the tail structure makes the checked pattern persist (exact
    periodicity, or a contracting tail whose terms have all turned nonpositive).
    Otherwise the check reports ok=False with reason "unverifiable-tail".
    """
    _reduced(model)
    if not (_is_int(l) and _is_int(m) and l >= 1 and m >= 1 and exponent >= 0.0):
        raise ValueError(f"verify_window_exponent needs integers l, m >= 1 and exponent >= 0, got {l!r}, {m!r}, {exponent!r}")
    horizon = model.horizon()
    if horizon is not None:
        n_hi = horizon - l
        if n_hi < m:
            return WindowCheck(True, "finite horizon shorter than one window", -INF, horizon)
        g = cumulative_log_mgf(model, exponent, horizon)
        deltas = [g[n + l - 1] - g[n - 1] for n in range(m, n_hi + 1)]
        worst = max(deltas)
        return WindowCheck(worst <= SLACK, "finite horizon, exhaustive", worst, horizon)

    if _block_unfit(model):
        return WindowCheck(False, "unverifiable-tail", INF, 0)
    block = model._block
    prefix_len, L = block.prefix, block.length

    # windows starting at n cover one effective block of phases once n passes
    # the prefix; checking through max(m, prefix)+L sees every phase
    n_hi = max(m, prefix_len + 1) + L
    K = n_hi + l
    g = cumulative_log_mgf(model, exponent, K)
    if g[-1] == INF:
        return WindowCheck(False, "divergent MGF inside the checked window", INF, K)
    deltas = [g[n + l - 1] - g[n - 1] for n in range(m, n_hi + 1)]
    worst = max(deltas)
    if worst > SLACK:
        return WindowCheck(False, "window criterion fails at a checked index", worst, K)

    if block.exact:
        # exact periodicity: Delta_{n+L} = Delta_n for n past the prefix
        return WindowCheck(True, "periodic tail, all phases checked", worst, K)

    # contracting tail: if every per-slot term in the block after the checked
    # range is already nonpositive, scaling toward zero keeps it nonpositive,
    # so all later windows sum nonpositive terms
    blocks_past = (n_hi + l - prefix_len + L - 1) // L
    if all(term <= 0.0 for term in _walk(exponent, block.period(blocks_past))):
        return WindowCheck(True, "contracting tail with nonpositive terms", worst, K)
    return WindowCheck(False, "unverifiable-tail", worst, K)


def solve_kappa(dist: IncrementDistribution, tol: float = 1e-10) -> AdjustmentResult:
    """The positive root of E exp(kappa Y) = 1 for a single increment law."""
    _check_tol(tol)
    if support_bounds(dist)[1] <= 0.0:
        return AdjustmentResult(INF, "kappa", None, True, False, "increment is nonpositive a.s.")
    if mean(dist) >= 0.0:
        return AdjustmentResult(0.0, "kappa", (0.0, 0.0), True, False, "nonnegative drift, criterion fails for every h > 0")

    def probe(h: float):
        g = log_mgf(dist, h)
        return g <= SLACK, g, g == g

    scale = _rounding_scale(RiskModel(ExplicitPrefix((dist,))), 1, False)
    value, bracket, boundary, exhausted = _grow_and_bisect(probe, mgf_domain_sup(dist), tol, (INF, lambda h, top: scale))
    if exhausted:
        return AdjustmentResult(value, "kappa", bracket, False, False, "criterion still held after 200 doublings")
    note = "root at the MGF domain boundary" if boundary else ""
    return AdjustmentResult(value, "kappa", bracket, True, boundary, note)
