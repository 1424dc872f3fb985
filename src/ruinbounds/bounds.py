"""Ruin-probability upper bounds, computed end to end in log-space.

Every bound here has the shape psi(u) <= exp(log_c - h u) for some exponent h
and log-constant log_c; values like 1e-165 are ordinary numbers in this
representation. Results clamp at 1 since psi is a probability.

The sups, roots and certificates behind a bound do not depend on u. The
adjustment coefficients depend on neither h nor u, so each is solved once per
model and kept in its memo (models._Memo). Every bound that searches over h
takes a search record (models.Search) in place of the model, as the sups do,
and runs under the record's policy; the calls for one model over a u-grid
share it. The sups and certificates are then found once per grid, and the
partial-sum probes share their chord references. Given a model, a call
starts a record afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjustment import (
    SLACK,
    _check_period_args,
    _domain_cap,
    solve_kappa,
    solve_per_increment,
    solve_period_root,
    verify_window_exponent,
)
from .distributions import INF, log_mgf_at
from .models import (
    IndexedNormal,
    IndexedTwoPoint,
    PeriodHypothesisError,
    Periodic,
    RiskModel,
    Search,
    TruncationPolicy,
    _EPS,
    _is_int,
    _reduced,
    _require_h,
    _settled,
    _unpacked,
    cumulative_log_mgf,
    iid_base,
    log_mgf_terms,
    sup_log_mgf,
)

__all__ = [
    "Certificate",
    "BoundResult",
    "bound_at_h",
    "bound_optimize",
    "bound_per_increment",
    "bound_periodic",
    "bound_kappa",
    "bound_union",
]


@dataclass(frozen=True)
class Certificate:
    """A uniform-in-u guarantee psi(u) <= min(1, exp(log_c - exponent * u))."""

    log_c: float
    exponent: float

    @property
    def c(self) -> float:
        """exp(log_c), +inf past the float range."""
        try:
            return math.exp(self.log_c)
        except OverflowError:
            return INF

    def log_bound_at(self, u: float) -> float:
        if self.exponent == INF:
            return -INF if u > 0 else min(0.0, self.log_c)
        return min(0.0, self.log_c - self.exponent * u)


@dataclass(frozen=True)
class BoundResult:
    u: float | None
    log_bound: float
    h_star: float
    method: str
    certificate: Certificate | None
    certified: bool
    note: str = ""

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound)

    @property
    def log10_bound(self) -> float:
        return self.log_bound / math.log(10.0)


def _require_u(u: float) -> None:
    if not (isinstance(u, (int, float)) and u > 0.0 and u != INF):
        raise ValueError(f"u must be a positive real, got {u!r}")


def _logsumexp(values) -> float:
    """log sum_i exp(values_i), shifted by the maximum; -inf for no mass, +inf
    when a value is +inf."""
    a = np.asarray(values, dtype=float)
    top = float(a.max())
    if top in (INF, -INF):
        return top
    return top + float(np.log(np.sum(np.exp(a - top))))


# ---------------------------------------------------------------------------
# golden-section minimization of a convex extended-real function


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# relative tolerance on f at which the search stops, and its most steps
_FTOL = 1e-8
_GOLDEN_ITERS = 300


def _golden(f, a: float, c: float):
    """Minimize convex f on [a, c]; f may return +inf. Returns (x, f(x))."""
    best_x, best_f = a, f(a)
    fc = f(c)
    if fc < best_f:
        best_x, best_f = c, fc
    b1 = c - _INVPHI * (c - a)
    b2 = a + _INVPHI * (c - a)
    f1, f2 = f(b1), f(b2)
    for _ in range(_GOLDEN_ITERS):
        if f1 < best_f:
            best_x, best_f = b1, f1
        if f2 < best_f:
            best_x, best_f = b2, f2
        if f1 <= f2:
            c, b2, f2 = b2, b1, f1
            b1 = c - _INVPHI * (c - a)
            f1 = f(b1)
        else:
            a, b1, f1 = b1, b2, f2
            b2 = a + _INVPHI * (c - a)
            f2 = f(b2)
        if c - a <= 1e-13 * (1.0 + abs(a) + abs(c)):
            break
        if f1 != INF and f2 != INF and abs(f1 - f2) <= _FTOL * (1.0 + max(abs(f1), abs(f2))):
            # one more squeeze to settle the argmin, then stop
            if f1 < best_f:
                best_x, best_f = b1, f1
            if f2 < best_f:
                best_x, best_f = b2, f2
            break
    return best_x, best_f


# ---------------------------------------------------------------------------
# bounds


def bound_at_h(model: RiskModel | Search, u: float, h: float, policy: TruncationPolicy | None = None) -> BoundResult:
    """psi(u) <= exp(-h u) * sup_k E exp(h S*_k), evaluated at a fixed h."""
    _require_u(u)
    _require_h(h)
    s = sup_log_mgf(model, h, policy)
    if s.value == INF:
        why = "sup diverges at this h" if s.status == "unbounded" else s.note
        return BoundResult(u, 0.0, h, "fixed_h", None, True, f"{why}; trivial bound")
    log_bound = min(0.0, -h * u + s.value)
    if s.status == "undetermined":
        return BoundResult(u, log_bound, h, "fixed_h", None, False,
                           "sup relied on a truncated scan; reported value may understate the bound")
    return BoundResult(u, log_bound, h, "fixed_h", Certificate(s.value, h), True, "")


def _no_exponent(u: float) -> BoundResult:
    return BoundResult(u, 0.0, 0.0, "optimized", Certificate(0.0, 0.0), True, "no exponent improves on the trivial bound")


def bound_optimize(model: RiskModel | Search, u: float, policy: TruncationPolicy | None = None) -> BoundResult:
    """min over h >= 0 of exp(-h u) * sup_k E exp(h S*_k).

    The objective -hu + sup_k G_k(h) is a supremum of convex functions, hence
    convex; exponential bracketing, which stops at the first probe where the
    objective rises past the rounding of its values, followed by
    golden-section search finds the minimizer.
    The optimal h may sit far above any adjustment coefficient and grows with
    u for models whose G_k flatten out. Every probed sup is kept in the search
    record, so that no h is evaluated twice.
    """
    _require_u(u)
    model, policy, search = _unpacked(model, policy)
    search = search or Search(model, policy)
    settled = _settled(model, True)
    if settled is None:
        return BoundResult(u, -INF, INF, "optimized", Certificate(0.0, INF), True,
                           "paths never rise above zero a.s.")
    if settled:
        return _no_exponent(u)

    cache: dict[float, float] = {}  # this call's probes: h_star is the best of them
    sups = search.memo.kept("sup_log_mgf", dict)  # by h, the probes of every call on the record

    def f(h: float) -> float:
        if h not in cache:
            if h and h not in sups:
                sups[h] = sup_log_mgf(search, h)
            value = sups[h].value if h else 0.0
            cache[h] = INF if value == INF else -h * u + value
        return cache[h]

    def carried(h: float) -> float:
        """A bound on the rounding of f(h) = -h u + value, formed in two roundings."""
        return 2.0 * _EPS * (h * u + abs(sups[h].value)) if h else 0.0

    cap = _domain_cap(model)
    h = 1.0 if cap == INF else 0.5 * cap
    pts, fs, exhausted = [0.0], [0.0], True
    for _ in range(200):
        fh = f(h)
        # f is convex: past its first rise it only rises. A rise within the rounding that the
        # two values carry is not one: where -h u cancels the sup, f is rounding noise
        rise = fh == INF or fh - fs[-1] > 2.0 * (carried(h) + carried(pts[-1]))
        pts.append(h)
        fs.append(fh)
        nxt = h * 2.0 if cap == INF else min(h * 2.0, cap)
        if rise or nxt == h:
            exhausted = False
            break
        h = nxt

    i_best = min(range(len(pts)), key=lambda i: fs[i])
    a = pts[i_best - 1] if i_best > 0 else 0.0
    c = pts[min(i_best + 1, len(pts) - 1)]
    if c > a:
        _golden(f, a, c)
    h_star = min(cache, key=cache.get) if cache else 0.0
    if f(h_star) >= 0.0:
        h_star = 0.0

    if h_star == 0.0:
        return _no_exponent(u)
    s = sups[h_star]
    log_bound = min(0.0, -h_star * u + s.value)
    if s.status == "undetermined":
        return BoundResult(u, log_bound, h_star, "optimized", None, False,
                           "sup relied on a truncated scan; reported value may understate the bound")
    note = "objective still decreasing after 200 doublings" if exhausted else ""
    return BoundResult(u, log_bound, h_star, "optimized", Certificate(s.value, h_star), not exhausted, note)


def bound_per_increment(model: RiskModel | Search, u: float, tol: float = 1e-10, policy: TruncationPolicy | None = None) -> BoundResult:
    """One-step coefficient bound: below the per-increment root every factor of
    E exp(h S*_k) is at most 1, so the first factor alone bounds the sup. The
    root is kept in the model's memo (models._Memo); a first solve's probes
    share the search record."""
    _require_u(u)
    model, policy, search = _unpacked(model, policy)
    r = solve_per_increment(search or model, tol, policy)
    L = r.value
    if L == INF:
        return BoundResult(u, -INF, INF, "per_increment", Certificate(0.0, INF), r.certified, r.note)
    if L <= tol:
        return BoundResult(u, 0.0, 0.0, "per_increment", Certificate(0.0, 0.0), r.certified,
                           "per-increment coefficient is zero; only the trivial bound holds")
    first = model.distribution_at(1)
    h_star, g_min = _golden(lambda h: -h * u + log_mgf_at(first, h), 0.0, L)
    log_c = log_mgf_at(first, L)
    return BoundResult(u, min(0.0, g_min), h_star, "per_increment", Certificate(log_c, L), r.certified, r.note)


_VARIANTS = ("periodic", "scaled_periodic", "shift_window")


def bound_periodic(
    model: RiskModel | Search,
    l: int,
    variant: str = "periodic",
    u: float | None = None,
    start_index: int = 1,
    exponent: float | None = None,
    at_h: float | None = None,
    tol: float = 1e-10,
) -> BoundResult:
    """Constant-times-exponential certificates from one period's structure.

    variant "periodic": zero rates, plain periodic increments; constant is the
    max of E exp(h S_k) over one period at h = the period root (or a supplied
    sub-root at_h). variant "scaled_periodic": interest and geometric scaling
    allowed; the window shifts to k in [0, l) and always includes the constant
    1. variant "shift_window": a supplied exponent that the shifted-window
    criterion must verify from start_index on; the constant runs over
    k in [1, l + start_index - 1].

    With a concrete u the bound also minimizes exp(-h u) * max_k E exp(h S*_k)
    over h in [0, exponent], which can only improve on the certificate. The
    search record keeps the certificate, which does not depend on u, and the window maxima.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if u is not None:
        _require_u(u)
    model, policy, search = _unpacked(model)
    search = search or Search(model, policy)
    cert, ks, certified, note = search.memo.kept(("periodic", l, variant, start_index, exponent, at_h, tol),
                                                 _periodic_certificate, search, l, variant, start_index, exponent, at_h, tol)
    if ks is None:  # the root is +inf
        lb = -INF if u is not None else 0.0
        return BoundResult(u, lb, INF, variant, cert, certified, note or "one period is nonpositive a.s.")
    if u is None:
        return BoundResult(None, min(0.0, cert.log_c), cert.exponent, variant, cert, certified,
                           (note + "; " if note else "") + "certificate-only")

    h_star, f_min = _golden(lambda h: -h * u + search.memo.kept(("window", ks, h), _window_max, model, ks, h),
                            0.0, cert.exponent)
    log_bound = min(0.0, min(f_min, cert.log_bound_at(u)))
    return BoundResult(u, log_bound, h_star, variant, cert, certified, note)


def _periodic_certificate(search: Search, l: int, variant: str, start_index: int, exponent: float | None,
                          at_h: float | None, tol: float) -> tuple[Certificate, range | None, bool, str]:
    """(certificate, window of k, certified, note) of bound_periodic on the
    record's model; the window is None when the period root is +inf. The
    period root is kept in the model's memo, the certificate and window
    maxima in the record's (models._Memo)."""
    model = search.model
    if variant == "shift_window":
        if exponent is None:
            raise ValueError("shift_window needs an exponent to verify")
        if at_h is not None:
            raise ValueError("at_h applies only to the root-based variants")
        if not (_is_int(start_index) and start_index >= 1):
            raise ValueError(f"start_index must be a positive integer, got {start_index!r}")
        check = verify_window_exponent(model, l, start_index, exponent)
        if not check.ok:
            raise PeriodHypothesisError(f"window criterion not verified: {check.reason} (max delta {check.max_delta:.3g})")
        L = float(exponent)
        ks = range(1, l + start_index)
        note = f"window criterion verified: {check.reason}"
        certified = True
    else:
        if variant == "periodic":
            if not (isinstance(model.increments, Periodic) and model.zero_rates()):
                raise PeriodHypothesisError("periodic variant requires plain periodic increments and zero rates")
        _check_period_args(model, l)
        root = solve_period_root(model, l, tol)
        certified = root.certified
        note = root.note
        if at_h is not None:
            _require_h(at_h)
            g_l = cumulative_log_mgf(model, at_h, l)[-1]
            if g_l > SLACK:
                raise ValueError(f"at_h={at_h} is beyond the period root: one-period log-MGF is {g_l:.3g} > 0")
            L = at_h
        else:
            L = root.value
        if L == INF:
            return Certificate(0.0, INF), None, certified, note
        ks = range(1, l + 1) if variant == "periodic" else range(0, l)
    return Certificate(search.memo.kept(("window", ks, L), _window_max, model, ks, L), L), ks, certified, note


def _window_max(model: RiskModel, ks: range, h: float) -> float:
    """max over k in ks of G_k(h), with G_0 = 0 (the empty sum)."""
    k_hi = max(ks)
    g = cumulative_log_mgf(model, h, k_hi) if k_hi else []
    return max(g + [0.0] if ks.start == 0 else g)


def bound_kappa(model: RiskModel, u: float, tol: float = 1e-10) -> BoundResult:
    """Classical one-distribution root bound, valid with interest and geometric
    scaling down: discount factors in (0, 1] shrink the root criterion, since
    log E exp(t Y) is convex and zero at t = 0."""
    base = iid_base(model)
    _require_u(u)
    if base is None:
        raise ValueError("kappa bound needs i.i.d.-based increments (one-element cycle, scale <= 1)")
    r = solve_kappa(base, tol)
    k = r.value
    if k == INF:
        return BoundResult(u, -INF, INF, "kappa", Certificate(0.0, INF), r.certified, r.note)
    if k <= tol:
        return BoundResult(u, 0.0, 0.0, "kappa", Certificate(0.0, 0.0), r.certified,
                           "root is zero; only the trivial bound holds")
    return BoundResult(u, min(0.0, -k * u), k, "kappa", Certificate(0.0, k), r.certified, r.note)


_LOG_EPS = math.log(1e-16)


def _union_series(model: RiskModel, h: float, k_max: int) -> float | None:
    """log sum_{k>=1} E exp(h S*_k) when the terms d_k are nonincreasing in k,
    or None when no tail envelope settles it within k_max epochs.

    Past an n with d_{n+1} < 0 the rest of the series is at most the geometric
    tail e^{G_n + d_{n+1}} / (1 - e^{d_{n+1}}). The sum stops at the first n
    where that tail is below 1e-16 of the partial sum, or exact (the terms stay
    constant through the chunk). Chunks of log_mgf_terms grow fourfold to k_max.
    """
    K = 64
    while True:
        K = min(K, k_max)
        terms = log_mgf_terms(model, h, K + 1)
        if terms[-1] == INF:
            return None
        with np.errstate(all="ignore"):
            g = np.cumsum(terms[:-1])
            partial = np.logaddexp.accumulate(g)
            d = terms[1:]
            tail = g + d - np.log1p(-np.exp(d))
        exact = np.append(d[:-1] == d[-1], False)  # constant terms through the chunk
        done = np.flatnonzero((d < 0.0) & (tail < INF) & ((tail <= partial + _LOG_EPS) | exact))
        if done.size:
            n = done[0]
            return float(np.logaddexp(partial[n], tail[n]))
        if K == k_max:
            return None
        K *= 4


def bound_union(model: RiskModel, u: float, h: float, policy: TruncationPolicy | None = None) -> BoundResult:
    """Sum-over-epochs baseline: psi(u) <= exp(-h u) * sum_k E exp(h S*_k).

    The series is summed exactly (finite horizon), in closed form (periodic
    with a negative one-period log-MGF; constant-increment geometric decay),
    or with a certified geometric tail envelope (drifting indexed families).
    When the series diverges or its tail cannot be certified, the result is
    the trivial bound 1.
    """
    _reduced(model)
    _require_u(u)
    _require_h(h)
    policy = policy or TruncationPolicy()
    method = "union"

    def trivial(reason: str) -> BoundResult:
        return BoundResult(u, 0.0, h, method, None, True, reason)

    def wrap(log_sum: float) -> BoundResult:
        return BoundResult(u, min(0.0, -h * u + log_sum), h, method, Certificate(log_sum, h), True, "")

    if h == 0.0:
        return trivial("every term is 1 at h = 0; series diverges")

    horizon = model.horizon()
    if horizon is not None:
        g = cumulative_log_mgf(model, h, horizon)
        if g[-1] == INF:  # +inf is absorbing (cumulative_log_mgf)
            return trivial("a term diverges at this h")
        return wrap(_logsumexp(g))

    block = model._block
    if block is not None:
        prefix_len = block.prefix
        g = cumulative_log_mgf(model, h, prefix_len + block.length)
        if g[-1] == INF:
            return trivial("a term diverges at this h")
        if not block.exact:
            return trivial("per-epoch terms do not vanish; series diverges")
        lam_L = g[-1] - (g[prefix_len - 1] if prefix_len else 0.0)
        if lam_L >= -1e-15:
            return trivial("one-period log-MGF is nonnegative at this h; series diverges")
        tail = _logsumexp(g[prefix_len:]) - math.log1p(-math.exp(lam_L))
        if prefix_len:
            total = float(np.logaddexp(_logsumexp(g[:prefix_len]), tail))
        else:
            total = tail
        return wrap(total)

    inc = model.increments
    if isinstance(inc, (IndexedNormal, IndexedTwoPoint)) and model.zero_rates():
        # the terms are nonincreasing in the index, unless the drift slope is positive
        res = None if getattr(inc, "slope", 0.0) > 0.0 else _union_series(model, h, policy.k_max)
        if res is not None:
            return wrap(res)
        return trivial("series diverges or tail not certified within the scan budget")

    return trivial("no certified tail structure for the series; trivial bound")
