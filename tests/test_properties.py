"""Property tests: structural identities that every parameter choice must obey."""

import copy
import functools
import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import mpmath
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
import pytest

from ruinbounds import (
    INF,
    BoundResult,
    Certificate,
    CompoundIncrement,
    ConstantRates,
    Degenerate,
    ExplicitPrefix,
    ExplicitRates,
    FiniteDiscrete,
    IndexedNormal,
    IndexedTwoPoint,
    Normal,
    Periodic,
    PeriodicRates,
    QuasiPeriodicScaled,
    RiskModel,
    Scaled,
    Search,
    SupLogMgf,
    ShiftedExponential,
    TwoPoint,
    Uniform,
    bound_at_h,
    bound_optimize,
    bound_union,
    clopper_pearson,
    cumulative_log_mgf,
    log_mgf_at,
    per_increment_sup,
    solve_partial_sum,
    solve_per_increment,
    solve_period_root,
    sup_log_mgf,
    verify_window_exponent,
)
from ruinbounds.adjustment import SLACK, _domain_cap, _esssup_sums
from ruinbounds.distributions import _log_expm1_ratio_vec, mgf_domain_sup, support_bounds
from ruinbounds import adjustment as adjustment_module, bounds as bounds_module, models as models_module
from ruinbounds.models import (
    PrefixThenTail,
    TruncationPolicy,
    _scan_certifies_decrease,
    _sup_scan,
    _tail_excess,
    log_mgf_terms,
)
from ruinbounds.serialize import ConfigError, model_from_dict, model_to_dict


finite_means = st.floats(-2.0, 2.0, allow_nan=False)
small_pos = st.floats(0.1, 4.0, allow_nan=False)


@st.composite
def normals(draw):
    return Normal(draw(finite_means), draw(small_pos))


@st.composite
def uniforms(draw):
    lo = draw(st.floats(-3.0, 2.0))
    hi = draw(st.floats(lo + 0.01, 3.0))
    return Uniform(lo, hi)


@st.composite
def two_points(draw):
    return TwoPoint(draw(finite_means), draw(st.floats(0.0, 1.0)), draw(finite_means))


@st.composite
def finite_discretes(draw):
    n = draw(st.integers(1, 4))
    xs = draw(st.lists(finite_means, min_size=n, max_size=n, unique=True))
    ws = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    total = sum(ws)
    return FiniteDiscrete(tuple((x, w / total) for x, w in zip(xs, ws)))


@st.composite
def degenerates(draw):
    return Degenerate(draw(finite_means))


entire_dists = st.one_of(normals(), uniforms(), two_points(),
                         finite_discretes(), degenerates())
any_dists = st.one_of(entire_dists,
                      st.builds(ShiftedExponential,
                                st.floats(0.5, 3.0), st.floats(-2.0, 0.0)))


class TestLogMgf:
    @given(any_dists)
    def test_zero_argument_is_exactly_zero(self, d):
        assert log_mgf_at(d, 0.0) == 0.0

    @given(entire_dists, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.0, 1.0))
    def test_convexity(self, d, t1, t2, lam):
        mid = log_mgf_at(d, lam * t1 + (1.0 - lam) * t2)
        chord = lam * log_mgf_at(d, t1) + (1.0 - lam) * log_mgf_at(d, t2)
        assert mid <= chord + 1e-9 * (1.0 + abs(chord))

    @given(entire_dists, st.floats(0.1, 2.0), st.booleans(), st.floats(-3.0, 3.0))
    def test_scaling_composes(self, d, magnitude, flip, t):
        factor = -magnitude if flip else magnitude
        direct = log_mgf_at(Scaled(factor, d), t)
        routed = log_mgf_at(d, factor * t)
        if math.isinf(direct) or math.isinf(routed):
            assert direct == routed
        else:
            assert direct == pytest.approx(routed, rel=1e-12, abs=1e-12)

    @given(any_dists, st.floats(0.0, 2.0))
    def test_never_nan(self, d, t):
        v = log_mgf_at(d, t)
        assert not math.isnan(v)
        assert v > -INF


class TestCumulativeStructure:
    @given(st.lists(normals(), min_size=1, max_size=4),
           st.floats(0.01, 2.0), st.floats(0.0, 0.3))
    def test_increments_of_g_match_per_term_values(self, cycle, h, rate):
        model = RiskModel(Periodic(tuple(cycle)), rates=rate)
        K = 3 * len(cycle)
        g = cumulative_log_mgf(model, h, K)
        # epoch k is discounted by the factor accumulated through k-1
        v = 1.0
        prev = 0.0
        for k in range(1, K + 1):
            term = log_mgf_at(model.distribution_at(k), h * v)
            assert g[k - 1] == pytest.approx(prev + term, rel=1e-10, abs=1e-10)
            prev = g[k - 1]
            v /= 1.0 + rate

    @given(st.lists(normals(), min_size=1, max_size=4), st.floats(0.01, 2.0))
    def test_periodic_block_increments_are_constant(self, cycle, h):
        model = RiskModel(Periodic(tuple(cycle)))
        l = len(cycle)
        g = cumulative_log_mgf(model, h, 4 * l)
        block = g[l - 1]
        for j in (2, 3, 4):
            assert g[j * l - 1] - g[(j - 1) * l - 1] == pytest.approx(
                block, rel=1e-9, abs=1e-12)

    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=5))
    def test_discount_factors_never_increase(self, rates):
        model = RiskModel(Periodic((Normal(-0.5, 1.0),)),
                          rates=PeriodicRates(tuple(rates)))
        logv = model.log_discounts(12)
        assert all(b <= a + 1e-15 for a, b in zip(logv, logv[1:]))


class TestBlockMatchesScan:
    """The periodic block reduction against the plain scan of its epochs,
    unrolled into an explicit model over BLOCKS effective periods."""

    BLOCKS = 20
    rate_rules = st.one_of(
        st.one_of(st.just(0.0), st.floats(0.01, 0.3)).map(ConstantRates),
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 0.3)), min_size=1, max_size=3)
        .map(lambda values: PeriodicRates(tuple(values))),
    )

    @pytest.mark.parametrize("sup", [sup_log_mgf, per_increment_sup])
    @settings(max_examples=60, deadline=None)
    @given(st.lists(entire_dists, min_size=1, max_size=3), rate_rules, st.floats(0.05, 2.0))
    def test_block_value_dominates_and_matches_the_scan(self, sup, cycle, rates, h):
        model = RiskModel(Periodic(tuple(cycle)), rates=rates)
        n = self.BLOCKS * math.lcm(len(cycle), rates.period())
        unrolled = RiskModel(ExplicitPrefix(tuple(model.distribution_at(k) for k in range(1, n + 1))),
                             ExplicitRates(tuple(model.rate_at(k) for k in range(1, n + 1))))
        periodic = sup(model, h)
        scan = sup(unrolled, h)
        assert scan.certified
        # a supremum over all epochs bounds the one over the first n, up to rounding
        assert periodic.value >= scan.value - 1e-12 * (1.0 + abs(scan.value))
        if periodic.status == "attained" and periodic.argmax <= n:
            assert periodic.value == pytest.approx(scan.value, rel=1e-9, abs=1e-12)


class TestSignedTailEnvelope:
    """The contracting tail of the periodic block closes with the smaller of
    the positive-part envelope and the signed one (the period's sum and its
    largest prefix sum), checked against long unrolled scans of periods whose
    terms take both signs."""

    PERIODS = 300
    ups = st.builds(Normal, st.floats(0.05, 1.5), small_pos)
    downs = st.builds(Normal, st.floats(-3.0, -0.05), small_pos)

    @st.composite
    def models(draw):
        cls = TestSignedTailEnvelope
        cycle = draw(st.permutations([draw(cls.ups), draw(cls.downs), *draw(st.lists(entire_dists, max_size=1))]))
        prefix = tuple(draw(st.lists(entire_dists, max_size=2)))
        if draw(st.booleans()):
            tail, rates = QuasiPeriodicScaled(tuple(cycle), draw(st.floats(0.5, 0.97))), ConstantRates(0.0)
        else:
            tail = Periodic(tuple(cycle))
            rates = draw(st.one_of(st.floats(0.01, 0.3).map(ConstantRates),
                                   st.lists(st.floats(0.005, 0.2), min_size=1, max_size=2).map(tuple).map(PeriodicRates)))
        return RiskModel(PrefixThenTail(prefix, tail) if prefix else tail, rates)

    @settings(max_examples=100, deadline=None)
    @given(models(), st.floats(0.05, 2.0))
    def test_bounds_the_unrolled_scan(self, model, h):
        block = model._block
        assert block is not None and block.log_ratio < 0.0
        n = len(block.laws) + self.PERIODS * block.length
        unrolled = RiskModel(ExplicitPrefix(tuple(model.distribution_at(k) for k in range(1, n + 1))),
                             ExplicitRates(tuple(model.rate_at(k) for k in range(1, n + 1))))
        periodic, scan = sup_log_mgf(model, h), sup_log_mgf(unrolled, h)
        assert periodic.certified and scan.certified
        assert periodic.value >= scan.value - 1e-12 * (1.0 + abs(scan.value))
        if periodic.status == "attained" and periodic.argmax <= n:
            assert periodic.value == pytest.approx(scan.value, rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(models(), st.floats(0.05, 2.0), st.sampled_from([0, 1, 7]))
    def test_bounds_every_later_partial_sum(self, model, h, b):
        # the envelope of period b against the partial sums of the next periods,
        # relative to the one at the end of period b
        block = model._block
        periods = [_walk(h, zip(block.laws[block.prefix:], block.weights(i))) for i in range(b, b + self.PERIODS)]
        rho, sums = math.exp(block.log_ratio), list(itertools.accumulate(periods[0]))
        excess = _tail_excess(sum(t for t in periods[0] if t > 0.0), sums[-1], max(sums), rho,
                              rho / -math.expm1(block.log_ratio))
        later = max(itertools.accumulate(itertools.chain.from_iterable(periods[1:])))
        assert later <= excess + 1e-12 * (1.0 + abs(excess) + sum(map(abs, periods[1])))

    def test_closes_where_the_positive_parts_do_not(self, monkeypatch):
        # the period's sum is negative and its largest prefix sum is the first
        # term, so the signed envelope closes after the first period: the sup
        # reads the two terms of the head and no tail period; the positive
        # parts alone take 25 periods; the walk calls the laws' kernels, patched
        # before the model (and its block's kernels) is built
        read, kernel = [], Normal._lmgf
        monkeypatch.setattr(Normal, "_lmgf", lambda law, t: read.append(t) or kernel(law, t))
        s = sup_log_mgf(RiskModel(Periodic((Normal(1.0, 1.0), Normal(-3.0, 1.0))), ConstantRates(0.01)), 0.3)
        assert (s.argmax, s.status, s.certified) == (1, "attained", True)
        assert s.value == pytest.approx(0.345, rel=1e-15)
        assert len(read) == 2


class TestWindowCheckLemma:
    """verify_window_exponent extends its checked windows to every later one
    on exact and contracting blocks: past the prefix, Delta_{n+L} <= rho
    Delta_n. Wherever it says ok, every window through PERIODS periods past
    checked_through, summed from its own terms, is at most SLACK plus the
    rounding of the check's running sums and of the kernels, 1e-12 times one
    plus the magnitudes of the terms summed."""

    PERIODS = 20
    laws = st.one_of(st.builds(Normal, st.floats(-2.0, 1.0), st.floats(0.1, 2.0)), uniforms(), two_points())

    @st.composite
    def models(draw):
        laws = TestWindowCheckLemma.laws
        cycle = tuple(draw(st.lists(laws, min_size=1, max_size=3)))
        scale = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
        tail = Periodic(cycle) if scale == 1.0 else QuasiPeriodicScaled(cycle, scale)
        prefix = tuple(draw(st.lists(laws, max_size=2)))
        rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.05)), min_size=1, max_size=2))
        return RiskModel(PrefixThenTail(prefix, tail) if prefix else tail, PeriodicRates(tuple(rates)))

    @settings(max_examples=300, deadline=None)
    @given(models(), st.integers(1, 6), st.integers(1, 6), st.floats(0.05, 2.0))
    def test_every_later_window_holds(self, model, l, m, exponent):
        check = verify_window_exponent(model, l, m, exponent)
        assert check.ok or check.reason == "window criterion fails at a checked index"
        if not check.ok:
            return
        assert check.reason.endswith("tail, all phases checked")
        K = check.checked_through + self.PERIODS * model._block.length
        terms = log_mgf_terms(model, exponent, K).tolist()
        allowance = 1e-12 * (1.0 + sum(map(abs, terms)))
        # window n reads epochs n+1..n+l, terms[n:n+l]
        assert max(math.fsum(terms[n:n + l]) for n in range(m, K - l + 1)) <= SLACK + allowance


def _walk(h, epochs):
    """The terms log E exp(h w Y) for (Y, w) in epochs, through the first +inf:
    the scalar oracle of the block walks, on the public log_mgf_at."""
    terms = []
    for law, w in epochs:
        terms.append(log_mgf_at(law, h * w))
        if terms[-1] == INF:
            break
    return terms


def _fold(terms, partial, start, g, best, arg):
    """The walk's fold of the terms of epochs start, start+1, ... into the
    running value g and its first maximum best at epoch arg, stopped at the
    first value that is not a number, at epoch j: (g, best, arg, j or None)."""
    for j, term in enumerate(terms, start):
        g = g + term if partial else term
        if g > best:
            best, arg = g, j
        elif g != g:
            return g, best, arg, j
    return g, best, arg, None


def _list_excess(terms, rho, share):
    """The tail envelope read off a period's list of terms."""
    sums = list(itertools.accumulate(terms))
    return min(sum(filter((0.0).__lt__, terms)) * share, max(sums[-1], 0.0) * share + rho * max(max(sums), 0.0))


def _walked_sup_periodic(block, h, partial):
    """The block sup as a walk computes it: each period's terms walked into a
    list (_walk), folded (_fold), and the tail envelope read off the list
    (_list_excess); the oracle of the one-pass _sup_periodic."""
    P, L = block.prefix, block.length
    terms = _walk(h, zip(block.laws, block.head))
    g, best, arg, nan = _fold(terms, partial, 1, 0.0, -INF, None)
    if nan is not None:
        return models_module._stopped(np.empty(0), nan - 1, best, arg)
    if best == INF:
        return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")
    if block.exact or block.amplifying:
        if partial and block.exact and block.period_top > 0.0 and sum(terms[P:]) > 0.0:
            return SupLogMgf(INF, None, "unbounded", True, "log-MGF grows by a positive amount per period")
        return SupLogMgf(best, arg, "attained", True)
    if not partial:
        if best < 0.0:
            return SupLogMgf(0.0, None, "limit", True, "terms approach zero from below along the contracting tail")
        return SupLogMgf(best, arg, "attained", True)
    terms, b, rho = terms[P:], 0, math.exp(block.log_ratio)
    share = rho / -math.expm1(block.log_ratio)
    cap = models_module._BLOCK_CAP
    while True:
        excess = _list_excess(terms, rho, share)
        if g + excess <= best:
            return SupLogMgf(best, arg, "attained", True)
        if excess <= 1e-13 * max(1.0, abs(best), abs(g)):
            return SupLogMgf(g + excess, None, "limit", True,
                             "supremum approached along the contracting tail; value is a tight upper envelope")
        b += 1
        if b >= cap:
            return SupLogMgf(g + excess, None, "undetermined", False, f"tail envelope did not converge within {cap} periods")
        terms = _walk(h, zip(block.laws[P:], block.weights(b)))
        g, best, arg, _ = _fold(terms, True, P + b * L + 1, g, best, arg)
        if best == INF:
            return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")


class TestOnePassBlockSup:
    """_sup_periodic reads each term once and folds it at once into the
    running value, its maximum and the period's envelope sums. It must give
    bitwise what walking each period into a list, folding it and reading the
    envelope off the list gives (_walked_sup_periodic): value, argmax, status,
    certified and note, on prefixed, exact, contracting and nonpositive
    amplifying blocks, at h up to 1e300, where terms are +inf or not a number
    and finite terms overflow their sum, and where the tail hits the period
    cap."""

    nonpositive = st.one_of(st.builds(Degenerate, st.floats(-3.0, 0.0)),
                            st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(-3.0, -0.5), st.floats(0.01, 0.5)),
                            st.builds(TwoPoint, st.floats(-2.0, 0.0), st.floats(0.0, 1.0), st.floats(-2.0, 0.0)))
    laws = st.one_of(entire_dists, any_dists, st.builds(Normal, st.sampled_from([-1e300, 1e300, 1e150]), small_pos),
                     st.builds(Degenerate, st.sampled_from([-1e300, 1e300, -1e200])))

    @st.composite
    def blocks(draw):
        cls = TestOnePassBlockSup
        kind = draw(st.sampled_from(["exact", "contracting", "amplifying"]))
        cycle = tuple(draw(st.lists(cls.nonpositive if kind == "amplifying" else cls.laws, min_size=1, max_size=3)))
        prefix = tuple(draw(st.lists(cls.laws, max_size=2)))
        if kind == "exact":
            tail, rates = Periodic(cycle), draw(st.one_of(st.just(ConstantRates(0.0)),
                                                          st.floats(0.0, 0.3).map(lambda r: PeriodicRates((r, 0.0)))))
        elif kind == "contracting":
            tail = QuasiPeriodicScaled(cycle, draw(st.floats(0.3, 0.999))) if draw(st.booleans()) else Periodic(cycle)
            rates = draw(st.one_of(st.floats(1e-4, 0.3).map(ConstantRates),
                                   st.lists(st.floats(1e-3, 0.2), min_size=1, max_size=2).map(tuple).map(PeriodicRates)))
        else:
            tail, rates = QuasiPeriodicScaled(cycle, draw(st.floats(1.05, 2.0))), ConstantRates(0.0)
        model = RiskModel(PrefixThenTail(prefix, tail) if prefix else tail, rates)
        assume(model._block is not None)
        return model._block

    @staticmethod
    def _fields(s):
        return repr(s.value), s.argmax, s.status, s.certified, s.note

    @settings(max_examples=400, deadline=None)
    @given(blocks(), st.one_of(st.floats(1e-3, 4.0), st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e)),
           st.booleans(), st.sampled_from([models_module._BLOCK_CAP, 1, 2, 5]))
    @example(RiskModel(PrefixThenTail((Degenerate(-1e300), Normal(1e300, 3.0)), Periodic((Degenerate(0.0),))),
                       PeriodicRates((0.01, 0.0)))._block, 1e9, True, models_module._BLOCK_CAP)
    @example(RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))), ConstantRates(1e-4))._block,
             1.2, True, 5)
    # the head's one term is 1e308, and the first tail period's sum overflows
    @example(RiskModel(Periodic((Degenerate(1e300),)), ConstantRates(0.01))._block, 1e8, True, models_module._BLOCK_CAP)
    def test_equals_the_walk(self, block, h, partial, cap):
        with patch.object(models_module, "_BLOCK_CAP", cap):
            expected = _walked_sup_periodic(block, h, partial)
            got = models_module._sup_periodic(block, h, partial)
        assert self._fields(got) == self._fields(expected)


class TestBlockKernels:
    """The block walk calls the slots' kernels at t = h w itself, under
    log_mgf_at's contract: a term at t = 0 (a multiplier of h that underflowed
    to 0) is 0.0, not the kernel's -0.0. No route forms a NaN t: every entry
    point refuses h = +inf up front. The tail keeps its first maximum where a
    partial sum ties it."""

    @st.composite
    def underflowing(draw):
        cycle = tuple(draw(st.lists(st.one_of(entire_dists, TestOnePassBlockSup.nonpositive), min_size=1, max_size=3)))
        prefix = tuple(draw(st.lists(entire_dists, max_size=2)))
        rates = draw(st.one_of(st.sampled_from([1e150, 1e300]).map(ConstantRates),
                               st.sampled_from([1e200, 1e300]).map(lambda r: PeriodicRates((r, 0.0)))))
        return RiskModel(PrefixThenTail(prefix, Periodic(cycle)) if prefix else Periodic(cycle), rates)._block

    @settings(max_examples=200, deadline=None)
    @given(underflowing(), st.floats(1e-3, 4.0), st.booleans())
    def test_zero_and_nan_arguments_as_log_mgf_at(self, block, h, partial):
        # the oracle: the same block, each slot's kernel log_mgf_at itself
        checked = models_module._Laws(block.laws, block.prefix, block.log_ratio, block.logs)
        checked.kernels = tuple(functools.partial(log_mgf_at, law) for law in block.laws)
        got = models_module._sup_periodic(block, h, partial)
        assert TestOnePassBlockSup._fields(got) == TestOnePassBlockSup._fields(models_module._sup_periodic(checked, h, partial))
        # the list walk reads the whole head, also past a NaN partial sum
        assert TestOnePassBlockSup._fields(got) == TestOnePassBlockSup._fields(_walked_sup_periodic(block, h, partial))

    def test_every_route_refuses_inf(self):
        # h = +inf is no input: every entry point that takes h refuses it, as bound_at_h
        # does, before a route forms inf * 0 (the underflowing block) or a closed form
        # reads n from a NaN; a model of each route, and of each scan
        models = (RiskModel(IndexedNormal(-0.5, 0.25)), RiskModel(IndexedTwoPoint()),
                  RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 1.5)),
                  RiskModel(Periodic((Normal(-0.5, 1.0), Normal(0.25, 1.0))), PeriodicRates((0.01, 0.02, 0.03))),
                  RiskModel(Periodic((Degenerate(-1.0), Degenerate(-2.0), Degenerate(-1.0))), ConstantRates(1e300)),
                  RiskModel(Periodic((Normal(-0.5, 1.0),) * 317), PeriodicRates((0.01,) * 331)),
                  RiskModel(IndexedNormal(-0.5, 0.25), 0.01),
                  RiskModel(ExplicitPrefix((Normal(-0.5, 1.0), Uniform(-1.0, 0.5)) * 50)))
        for model in models:
            for call in (lambda h: sup_log_mgf(model, h), lambda h: per_increment_sup(model, h),
                         lambda h: sup_log_mgf(Search(model), h), lambda h: per_increment_sup(Search(model), h),
                         lambda h: cumulative_log_mgf(model, h, 3), lambda h: log_mgf_terms(model, h, 3),
                         lambda h: bound_at_h(model, 1.0, h)):
                for h in (INF, -1.0, math.nan):
                    with pytest.raises(ValueError, match="h must be a nonnegative real"):
                        call(h)

    def test_zero_multiplier_term_is_positive_zero(self):
        # epoch 3's multiplier is 0: its term, 0.0, is the per-increment sup
        block = RiskModel(Periodic((Normal(-0.5, 1.0), Degenerate(-1.0), Degenerate(-1.0))), ConstantRates(1e300))._block
        assert block.head[2] == 0.0 and log_mgf_at(Degenerate(-1.0), 0.0) == 0.0
        s = models_module._sup_periodic(block, 0.5, False)
        assert (repr(s.value), s.argmax, s.status) == ("0.0", 3, "attained")

    def test_tail_keeps_its_first_maximum(self):
        # the partial sums peak in the tail after a Normal epoch (odd), and
        # the Degenerate(0) epoch after it ties the peak
        block = RiskModel(Periodic((Normal(-0.1, 1.0), Degenerate(0.0))), ConstantRates(0.05))._block
        s = models_module._sup_periodic(block, 2.0, True)
        assert s.status == "attained" and s.argmax > len(block.laws) and s.argmax % 2 == 1
        assert TestOnePassBlockSup._fields(s) == TestOnePassBlockSup._fields(_walked_sup_periodic(block, 2.0, True))


def _two_rise_optimize(model, u):
    """bound_optimize as it was when its bracket closed at the second rise in a
    row, one doubling past the first: the oracle of the first-rise bracket. A
    rise counts as in bound_optimize, past the rounding that the two values
    carry: 4 eps (h u + |sup|) summed over both points, 0 at h = 0."""
    settled = models_module._settled(model, True)
    if settled is None or settled:  # decided without a bracket
        return bound_optimize(model, u)
    search, cache, sups = Search(model), {}, {}

    def f(h):
        if h not in cache:
            if h and h not in sups:
                sups[h] = sup_log_mgf(search, h)
            value = sups[h].value if h else 0.0
            cache[h] = INF if value == INF else -h * u + value
        return cache[h]

    def noise(h):
        return 4.0 * 2.0**-53 * (h * u + abs(sups[h].value)) if h else 0.0

    cap = _domain_cap(model)
    h = 1.0 if cap == INF else 0.5 * cap
    pts, fs, rises, exhausted = [0.0], [0.0], 0, True
    for _ in range(200):
        fh = f(h)
        rises = rises + 1 if fh - fs[-1] > noise(h) + noise(pts[-1]) else 0
        pts.append(h)
        fs.append(fh)
        if rises >= 2 or fh == INF:
            exhausted = False
            break
        nxt = h * 2.0 if cap == INF else min(h * 2.0, cap)
        if nxt == h:
            exhausted = False
            break
        h = nxt
    i_best = min(range(len(pts)), key=lambda i: fs[i])
    a = pts[i_best - 1] if i_best > 0 else 0.0
    c = pts[min(i_best + 1, len(pts) - 1)]
    if c > a:
        bounds_module._golden(f, a, c)
    h_star = min(cache, key=cache.get) if cache else 0.0
    if f(h_star) >= 0.0:
        h_star = 0.0
    if h_star == 0.0:
        return bounds_module._no_exponent(u)
    s = sups[h_star]
    log_bound = min(0.0, -h_star * u + s.value)
    if s.status == "undetermined":
        return BoundResult(u, log_bound, h_star, "optimized", None, False,
                           "sup relied on a truncated scan; reported value may understate the bound")
    note = "objective still decreasing after 200 doublings" if exhausted else ""
    return BoundResult(u, log_bound, h_star, "optimized", Certificate(s.value, h_star), not exhausted, note)


class TestFirstRiseBracket:
    """bound_optimize closes its bracket at the first probe whose objective
    rises: the objective is convex, so the probe one doubling further, which
    the bracket once read, can never be the minimizer. Its rows must be bitwise
    those of the two-rise bracket on models of the block walk and of the scan."""

    rates = st.one_of(st.just(0.0), st.floats(0.01, 0.2))

    @st.composite
    def models(draw):
        cls = TestFirstRiseBracket
        kind = draw(st.sampled_from(["periodic", "scaled", "prefix", "explicit", "indexed"]))
        cycle = tuple(draw(st.lists(entire_dists, min_size=1, max_size=3)))
        if kind == "periodic":
            return RiskModel(Periodic(cycle), draw(st.lists(cls.rates, min_size=1, max_size=2).map(tuple)))
        if kind == "scaled":
            return RiskModel(QuasiPeriodicScaled(cycle, draw(st.floats(0.5, 0.99))), draw(cls.rates))
        if kind == "prefix":
            return RiskModel(PrefixThenTail(tuple(draw(st.lists(any_dists, min_size=1, max_size=2))), Periodic(cycle)),
                             draw(cls.rates))
        if kind == "explicit":
            laws = draw(st.lists(any_dists, min_size=1, max_size=4))
            return RiskModel(ExplicitPrefix(tuple(laws * draw(st.sampled_from([1, 30])))), draw(cls.rates))
        return RiskModel(IndexedNormal(draw(st.floats(-1.0, -0.1)), draw(st.floats(-0.5, 0.5))), draw(st.floats(0.01, 0.1)))

    @staticmethod
    def _fields(r):
        cert = None if r.certificate is None else (repr(r.certificate.log_c), repr(r.certificate.exponent))
        return repr(r.h_star), repr(r.log_bound), cert, r.certified, r.note

    @settings(max_examples=80, deadline=None)
    @given(models(), st.floats(0.5, 40.0))
    # at h near 3.6e16, -h u + sup is rounding noise (the exact objective is -log h):
    # a rise there of one ulp of h must not close the bracket
    @example(RiskModel(ExplicitPrefix((Uniform(0.0, 1.0),))), 1.0)
    def test_rows_equal_the_two_rise_bracket(self, model, u):
        assert self._fields(bound_optimize(model, u)) == self._fields(_two_rise_optimize(model, u))


class TestAmplifyingVerdicts:
    """On an amplifying block the sups are decided from the period laws'
    esssups: +inf at every h > 0 when one is +inf (or has a finite MGF
    domain), attained within the prefix and the first period when every one is
    <= 0; with finite esssups of both signs, the per-increment sup is +inf and
    the partial-sum sup is +inf where the period slope is positive, and
    otherwise scanned. Each verdict must agree with a long unrolled run of the
    partial sums or the terms (TestMixedSignAmplifying unrolls the mixed-sign
    verdicts)."""

    SCAN = 300
    nonpositive = st.one_of(st.builds(Degenerate, st.floats(-2.0, 0.0)),
                            uniforms().map(lambda d: Uniform(d.lower - 3.0, d.upper - 3.0)),
                            two_points().map(lambda d: TwoPoint(-abs(d.x1), d.p1, -abs(d.x2))))
    bounded = st.one_of(uniforms(), two_points(), finite_discretes(), degenerates(), nonpositive)
    unbounded = st.one_of(normals(), st.builds(ShiftedExponential, st.floats(0.5, 3.0), st.floats(-2.0, 0.0)))

    @st.composite
    def models(draw):
        kind = draw(st.sampled_from(["unbounded", "nonpositive", "bounded"]))
        cls = TestAmplifyingVerdicts
        if kind == "unbounded":
            cycle = draw(st.permutations(draw(st.lists(cls.bounded, max_size=2)) + [draw(cls.unbounded)]))
        else:
            cycle = draw(st.lists(getattr(cls, kind), min_size=1, max_size=3))
        # every period multiplies h by at least 1.2 / 1.02^3 > 1
        rule = QuasiPeriodicScaled(tuple(cycle), draw(st.floats(1.2, 2.0)))
        prefix = draw(st.lists(any_dists, max_size=2))
        rates = draw(st.sampled_from([ConstantRates(0.0), ConstantRates(0.01), PeriodicRates((0.0, 0.02))]))
        return RiskModel(PrefixThenTail(tuple(prefix), rule) if prefix else rule, rates)

    @pytest.mark.parametrize("partial", [True, False], ids=["partial", "per_increment"])
    @settings(max_examples=150, deadline=None)
    @given(models(), st.floats(0.01, 5.0))
    # a law at 0 a.s. whose computed term rounds to 5.6e-17, not 0
    @example(RiskModel(QuasiPeriodicScaled((TwoPoint(-0.0, 0.25, -0.0),), 2.0)), 1.0)
    def test_verdicts_match_a_long_unrolled_run(self, partial, model, h):
        block = model._block
        assert block.amplifying
        P, L = block.prefix, block.length
        period = block.laws[P:]
        # enough periods for h e^c to pass about 1e8, where a Normal term
        # outgrows the linear ones
        K = P + L * math.ceil(math.log(1e8 / h) / block.log_ratio)
        if partial:
            values = np.array(cumulative_log_mgf(model, h, K))
        else:
            values = log_mgf_terms(model, h, K)
        s = (sup_log_mgf if partial else per_increment_sup)(model, h, TruncationPolicy(self.SCAN))
        if any(support_bounds(d)[1] == INF or mgf_domain_sup(d) < INF for d in period):
            assert (s.value, s.status, s.certified) == (INF, "unbounded", True)
            assert values.max() > 1e6
        elif all(support_bounds(d)[1] <= 0.0 for d in period):
            assert s.certified and s.status in ("attained", "unbounded")
            if s.value == INF:
                assert values.max() == INF
            else:
                assert s.argmax <= P + L
                assert values.max() == pytest.approx(s.value, rel=1e-12, abs=1e-12)
                assert values[s.argmax - 1] == pytest.approx(s.value, rel=1e-12, abs=1e-12)
        elif models_module._settled(model, partial):
            assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "unbounded", True)
        else:
            e = _full_scan(model, h, self.SCAN, partial)
            assert (s.value.hex(), s.argmax, s.status, s.certified, s.note) == \
                (e.value.hex(), e.argmax, e.status, e.certified, e.note)


class TestSettledVerdicts:
    """models._settled, the esssups' verdict on each criterion, against the
    sups it stands for: where it holds at every h, the sup is <= 0 and
    certified at every h probed, unless a scan to the cap leaves it
    undetermined (an amplifying block with period esssups of both signs);
    where it names a reason, the sup is +inf. The two verdicts read one set of
    period sums, so a criterion that holds for the increments holds for the
    partial sums, and one that is +inf for the partial sums is +inf for the
    increments."""

    @st.composite
    def models(draw):
        cls = TestAmplifyingVerdicts
        laws = st.one_of(cls.nonpositive, cls.bounded, cls.unbounded)
        prefix = tuple(draw(st.lists(st.one_of(cls.nonpositive, cls.bounded), max_size=2)))
        if draw(st.booleans()) and prefix:
            return RiskModel(ExplicitPrefix(prefix), ExplicitRates((0.01,) * len(prefix)))
        tail = QuasiPeriodicScaled(tuple(draw(st.lists(laws, min_size=1, max_size=3))),
                                   draw(st.sampled_from([0.5, 1.0, 1.5])))
        rates = draw(st.sampled_from([ConstantRates(0.0), ConstantRates(0.01), PeriodicRates((0.0, 0.02))]))
        return RiskModel(PrefixThenTail(prefix, tail) if prefix else tail, rates)

    @settings(max_examples=200, deadline=None)
    @given(models())
    @example(RiskModel(QuasiPeriodicScaled((Degenerate(-1.0), Uniform(0.0, 1.0)), 1.5)))
    @example(RiskModel(PrefixThenTail((Degenerate(-1e6),),
                                      QuasiPeriodicScaled((Degenerate(-1.0), Degenerate(1.0 + 1e-11)), 2.0))))
    @example(RiskModel(QuasiPeriodicScaled((Uniform(-2.0, -1.0), Degenerate(-0.5)), 1.5)))
    def test_verdicts_agree_with_the_sups(self, model):
        verdicts = {partial: models_module._settled(model, partial) for partial in (True, False)}
        assert verdicts[False] is not None or verdicts[True] is None
        assert not verdicts[True] or verdicts[False]
        for partial, sup in ((True, sup_log_mgf), (False, per_increment_sup)):
            scanned = model.horizon() is None and models_module._route(model, partial) is None
            for h in (0.1, 1.0, 7.0):
                s = sup(model, h, TruncationPolicy(300))
                if verdicts[partial] is None:
                    assert (s.certified and s.value <= 1e-12) or (scanned and s.status == "undetermined")
                elif verdicts[partial]:
                    assert (s.value, s.status, s.certified) == (INF, "unbounded", True)


class TestMixedSignAmplifying:
    """Period laws of finite esssups, some positive and some negative, on an
    amplifying block: a positive esssup makes the per-increment sup +inf, and a
    positive period slope (each slot's multiplier of h times its law's esssup,
    summed over the period) the partial-sum sup; a negative slope leaves the
    partial sums to the scan. Every esssup here is at least 0.1 away from zero
    and the slope at least 5% of its scale, so that an unrolled run of
    log_mgf_terms to h e^c = 1e10 shows the growth."""

    positive = st.one_of(st.builds(Degenerate, st.floats(0.1, 2.0)),
                         st.builds(lambda lo, hi: Uniform(lo, lo + hi), st.floats(-3.0, 0.05), st.floats(0.1, 3.0))
                         .filter(lambda d: d.upper >= 0.1),
                         st.builds(TwoPoint, st.floats(0.1, 2.0), st.floats(1e-6, 1.0), finite_means))
    negative = st.one_of(st.builds(Degenerate, st.floats(-2.0, -0.1)),
                         st.builds(lambda hi, w: Uniform(hi - w, hi), st.floats(-2.0, -0.1), st.floats(0.01, 2.0)),
                         st.builds(TwoPoint, st.floats(-2.0, -0.1), st.floats(0.0, 1.0), st.floats(-2.0, -0.1)))

    @st.composite
    def models(draw):
        cls = TestMixedSignAmplifying
        cycle = draw(st.permutations([draw(cls.positive), draw(cls.negative),
                                      *draw(st.lists(st.one_of(cls.positive, cls.negative), max_size=1))]))
        rule = QuasiPeriodicScaled(tuple(cycle), draw(st.floats(1.2, 2.0)))
        prefix = draw(st.lists(any_dists, max_size=2))
        rates = draw(st.sampled_from([ConstantRates(0.0), ConstantRates(0.01), PeriodicRates((0.0, 0.02))]))
        return RiskModel(PrefixThenTail(tuple(prefix), rule) if prefix else rule, rates)

    @staticmethod
    def _slope(model: RiskModel) -> tuple[float, float]:
        """The period slope and its scale, from the laws of the block's first
        period and their discounts, epoch by epoch."""
        block = model._block
        P, L = block.prefix, block.length
        v = np.exp(model.log_discounts(P + L - 1))
        parts = [v[j - 1] * support_bounds(model.distribution_at(j))[1] for j in range(P + 1, P + L + 1)]
        return math.fsum(parts), math.fsum(map(abs, parts))

    @settings(max_examples=150, deadline=None)
    @given(models(), st.floats(0.01, 5.0))
    def test_verdicts_match_a_long_unrolled_run(self, model, h):
        block = model._block
        assert block.amplifying
        P, L = block.prefix, block.length
        K = P + L * (1 + math.ceil(math.log(1e10 / (h * np.exp(min(block.logs)))) / block.log_ratio))
        terms = log_mgf_terms(model, h, K)
        s = per_increment_sup(model, h, TruncationPolicy(300))
        assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "unbounded", True)
        assert terms.max() > 1e6
        slope, scale = self._slope(model)
        assume(abs(slope) >= 0.05 * scale)
        s = sup_log_mgf(model, h, TruncationPolicy(300))
        if slope > 0.0:
            assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "unbounded", True)
            assert np.cumsum(terms).max() > 1e6
        else:
            e = _full_scan(model, h, 300, True)
            assert (s.value.hex(), s.argmax, s.status, s.certified, s.note) == \
                (e.value.hex(), e.argmax, e.status, e.certified, e.note)
            # from period to period, the partial sums fall by the slope times a
            # growing t (unless a prefix term diverges, where the run stops)
            assert terms.sum() < -1e6 if terms.size == K else terms[-1] == INF


class TestTermKernelParity:
    """log_mgf_terms against one log_mgf_at call per epoch on the epoch's law,
    cut after the first +inf in the same place."""

    compounds = st.builds(CompoundIncrement, st.builds(ShiftedExponential, st.floats(0.5, 3.0)),
                          st.floats(0.5, 2.0), st.builds(ShiftedExponential, st.floats(0.5, 3.0)))
    laws = st.one_of(any_dists, compounds, st.builds(Scaled, st.floats(0.2, 2.0), any_dists))
    constant_rates = st.one_of(st.just(0.0), st.floats(0.01, 0.3)).map(ConstantRates)

    @st.composite
    def models(draw):
        kind = draw(st.sampled_from(["indexed_normal", "indexed_two_point", "explicit", "amplifying"]))
        rates = draw(TestTermKernelParity.constant_rates)
        if kind == "indexed_normal":
            return RiskModel(IndexedNormal(draw(st.floats(-1.0, 1.0)), draw(finite_means)), rates)
        if kind == "indexed_two_point":
            return RiskModel(IndexedTwoPoint(), rates)
        if kind == "explicit":
            laws = draw(st.lists(TestTermKernelParity.laws, min_size=1, max_size=30))
            if draw(st.booleans()):
                rates = ExplicitRates(tuple(draw(st.lists(st.floats(0.0, 0.3), min_size=len(laws), max_size=len(laws)))))
            return RiskModel(ExplicitPrefix(tuple(laws)), rates)
        cycle = draw(st.lists(TestTermKernelParity.laws, min_size=1, max_size=3))
        rates = PeriodicRates(tuple(draw(st.lists(st.floats(0.0, 0.01), min_size=1, max_size=2))))
        model = RiskModel(QuasiPeriodicScaled(tuple(cycle), draw(st.floats(1.05, 1.5))), rates)
        assert model._block.amplifying
        return model

    @settings(max_examples=400, deadline=None)
    @given(models(), st.one_of(st.just(0.0), st.floats(0.01, 3.0)), st.integers(1, 40))
    def test_terms_match_the_scalar_walk(self, model, h, K):
        K = min(K, model.horizon() or K)
        logv = model.log_discounts(K - 1)
        expected = []
        for k in range(1, K + 1):
            expected.append(log_mgf_at(model.distribution_at(k), h * math.exp(logv[k - 1])))
            if expected[-1] == INF:
                break
        got = log_mgf_terms(model, h, K).tolist()
        assert len(got) == len(expected)
        assert (got[-1] == INF) == (expected[-1] == INF)
        if h == 0.0:
            assert got == [0.0] * K
        for a, b in zip(got[:-1] if got[-1] == INF else got, expected):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def _full_scan(model: RiskModel, h: float, k_max: int, partial: bool) -> SupLogMgf:
    """The truncated-scan sup from one log_mgf_terms call over every epoch up
    to the cap, the reference for the streamed scan."""
    horizon = model.horizon()
    cap = horizon if horizon is not None else k_max
    terms = log_mgf_terms(model, h, cap)
    with np.errstate(over="ignore"):
        values = np.cumsum(terms) if partial else terms
    i = int(np.argmax(values))
    best = float(values[i])
    arg = i + 1 if best > -INF else None
    if best == INF:
        return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")
    if horizon is not None:
        return SupLogMgf(best, arg, "attained", True)
    if _scan_certifies_decrease(model, h, cap):
        if not partial and best < 0.0 and not model.zero_rates():
            return SupLogMgf(0.0, None, "limit", True, "terms approach zero from below under discounting")
        return SupLogMgf(best, arg, "attained", True)
    return SupLogMgf(best, arg, "undetermined", False, f"scan truncated at k_max={cap}")


class TestStreamedScan:
    """_sup_scan reads the terms in ranges and stops once the family's proof
    holds; its result must be bitwise the one of a single scan to the cap."""

    rates = st.one_of(
        st.just(ConstantRates(0.0)),
        st.floats(0.001, 0.3).map(ConstantRates),
        st.lists(st.one_of(st.just(0.0), st.floats(0.001, 0.3)), min_size=1, max_size=3).map(tuple).map(PeriodicRates),
        st.lists(st.floats(0.0, 0.3), min_size=1, max_size=300).map(tuple).map(ExplicitRates),
    )

    @st.composite
    def models(draw):
        kind = draw(st.sampled_from(["indexed_normal", "indexed_two_point", "explicit", "amplifying"]))
        rates = draw(TestStreamedScan.rates)
        if kind == "indexed_normal":
            return RiskModel(IndexedNormal(draw(st.floats(-1.0, 0.05)), draw(finite_means)), rates)
        if kind == "indexed_two_point":
            return RiskModel(IndexedTwoPoint(), rates)
        if kind == "explicit":
            n = draw(st.integers(1, 150))
            return RiskModel(ExplicitPrefix(tuple(draw(st.lists(TestTermKernelParity.laws, min_size=n, max_size=n)))), rates)
        cycle = draw(st.lists(TestTermKernelParity.laws, min_size=1, max_size=3))
        return RiskModel(QuasiPeriodicScaled(tuple(cycle), draw(st.floats(1.0001, 1.05))), rates)

    @pytest.mark.parametrize("partial", [True, False], ids=["partial", "per_increment"])
    @settings(max_examples=300, deadline=None)
    @given(models(), st.floats(0.01, 20.0),
           st.sampled_from([1, 2, 49, 50, 63, 64, 65, 255, 256, 257, 1024, 1025, 5000]),
           st.sampled_from([None, 64, 100]))
    # discounted per-increment terms that round to zero past epoch 15,000
    @example(RiskModel(IndexedNormal(-0.5, 0.25), ConstantRates(0.05)), 0.3, 20_000, None)
    # the family's proof holds from epoch 2,000 on, where the terms lie in (-1e-6, 0)
    @example(RiskModel(IndexedNormal(-0.001, 2.0), ConstantRates(0.01)), 1.0, 5000, None)
    # the proof holds at epoch 64, and no term falls below -1e-6 before epoch 140
    @example(RiskModel(IndexedNormal(-1e-8, -0.5 + 4e-7)), 1.0, 257, None)
    # terms below -1e-6 only in epochs 42-92, across the end of the first range
    @example(RiskModel(IndexedNormal(-1.0, 0.0), ConstantRates(math.expm1(1 / 64))), 4.525e-8, 1024, None)
    # the maximum sits in a later range, under rates that vary
    @example(RiskModel(IndexedNormal(0.01, -0.5), PeriodicRates((0.01, 0.0))), 0.5, 257, 64)
    # a first term of -0.0
    @example(RiskModel(ExplicitPrefix((Degenerate(-5e-324), Degenerate(-1.0)))), 0.01, 64, None)
    def test_matches_one_scan_to_the_cap(self, partial, model, h, k_max, chunk):
        expected = _full_scan(model, h, k_max, partial)
        with patch.object(models_module, "_SCAN_CHUNK", chunk or models_module._SCAN_CHUNK):
            got = _sup_scan(model, h, TruncationPolicy(k_max), partial)
        assert got.value.hex() == expected.value.hex()
        assert (got.argmax, got.status, got.certified, got.note) == \
            (expected.argmax, expected.status, expected.certified, expected.note)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.builds(IndexedNormal, st.floats(-1.0, -1e-6), finite_means), st.just(IndexedTwoPoint())),
           rates, st.floats(0.01, 20.0), st.sampled_from([1, 2, 10, 64, 256, 1024]))
    def test_the_proof_leaves_no_later_term_positive(self, rule, rates, h, n):
        model = RiskModel(rule, rates)
        assume(model.horizon() is None and _scan_certifies_decrease(model, h, n))
        # up to the rounding of the terms that discounting brings near zero
        assert log_mgf_terms(model, h, 8 * n + 64)[n - 1:].max() <= 1e-15

    @pytest.mark.parametrize("model", [
        RiskModel(IndexedNormal(-0.5, 0.25), ConstantRates(0.01)),
        RiskModel(IndexedTwoPoint(), PeriodicRates((0.02, 0.0, 0.05))),
    ], ids=["indexed_normal", "indexed_two_point"])
    def test_certified_scan_stops_early(self, model, monkeypatch):
        read = []
        terms = models_module._Plan.terms

        def recording(plan, h):
            read.append(len(plan.w))
            return terms(plan, h)

        monkeypatch.setattr(models_module._Plan, "terms", recording)
        s = sup_log_mgf(model, 1.0, TruncationPolicy(10_000))
        assert s.status == "attained" and s.certified
        assert sum(read) <= 320


def _stored_plans(model: RiskModel) -> list:
    return [value for key, value in model._memo.items() if key[0] == "plan"]


class TestProbePlans:
    """A model keeps the probe plans of its scan ranges, and every later probe
    reads them; the results must be bitwise those of plans built afresh for
    each probe (plan storage off)."""

    @st.composite
    def models(draw):
        kind = draw(st.sampled_from(["indexed_normal", "indexed_two_point", "explicit", "amplifying", "prefix_tail"]))
        rates = draw(TestStreamedScan.rates)
        if kind == "indexed_normal":
            return RiskModel(IndexedNormal(draw(st.floats(-1.0, 0.05)), draw(finite_means)), rates)
        if kind == "indexed_two_point":
            return RiskModel(IndexedTwoPoint(), rates)
        laws = st.lists(TestTermKernelParity.laws, min_size=1, max_size=4)
        if kind == "explicit":
            mix = draw(laws)
            n = draw(st.integers(1, 150))
            return RiskModel(ExplicitPrefix(tuple(mix[i % len(mix)] for i in range(n))), rates)
        if kind == "amplifying":
            return RiskModel(QuasiPeriodicScaled(tuple(draw(laws)), draw(st.floats(1.0001, 1.05))), rates)
        # cycle and rate periods of 317 and 331 epochs: lcm 104,927 > _BLOCK_MAX, so no block
        cycle, values = draw(laws), draw(st.lists(st.floats(0.0, 0.1), min_size=1, max_size=3))
        model = RiskModel(PrefixThenTail(tuple(draw(laws)), Periodic(tuple(cycle[i % len(cycle)] for i in range(317)))),
                          PeriodicRates(tuple(values[i % len(values)] for i in range(331))))
        assert model._block is None
        return model

    @staticmethod
    def _results(model: RiskModel, h: float, k_max: int) -> list:
        policy = TruncationPolicy(k_max)
        K = min(k_max, model.horizon() or k_max)
        sups = [f(model, h, policy) for f in (sup_log_mgf, per_increment_sup)]
        return [(s.value.hex(), s.argmax, s.status, s.certified, s.note) for s in sups] + [
            [x.hex() for x in cumulative_log_mgf(model, h, K)],
            [x.hex() for x in log_mgf_terms(model, h, K).tolist()],
        ]

    @settings(max_examples=150, deadline=None)
    @given(models(), st.floats(0.01, 20.0), st.lists(st.floats(0.01, 20.0), min_size=1, max_size=3),
           st.sampled_from([1, 2, 49, 50, 63, 64, 65, 255, 256, 257, 1024, 1025, 5000]),
           st.sampled_from([None, 64, 100]))
    def test_warm_plans_match_plans_built_per_probe(self, model, h, others, k_max, chunk):
        fresh = RiskModel(model.increments, model.rates, model.label)
        with patch.object(models_module, "_SCAN_CHUNK", chunk or models_module._SCAN_CHUNK):
            for other in others:  # other h and other caps, ranges ending on either side of k_max
                for cap in (max(1, k_max // 2), k_max + 63, 4 * k_max + 1):
                    self._results(model, other, cap)
            warm = self._results(model, h, k_max)
            with patch.object(models_module, "_PLAN_EPOCHS", 0):
                cold = self._results(fresh, h, k_max)
        assert _stored_plans(model) and not _stored_plans(fresh)
        assert warm == cold

    @pytest.mark.parametrize("model", [
        # period laws of finite esssups, one positive, and a negative period
        # slope: the partial sums are scanned
        RiskModel(QuasiPeriodicScaled((Uniform(-2.0, 0.5), Uniform(-3.0, -1.0)), 1.0005)),
        RiskModel(IndexedNormal(-1e-7, 2.0), PeriodicRates((0.0, 1e-9))),
        RiskModel(ExplicitPrefix((Normal(-1.0, 1.0), Uniform(-2.0, 1.0)) * 40_000)),
    ], ids=["amplifying", "indexed_normal", "explicit"])
    def test_stored_plans_are_read_only_and_capped(self, model):
        for h in (0.001, 0.5):
            sup_log_mgf(model, h, TruncationPolicy(10**6))
        plans = _stored_plans(model)
        assert plans and sum(len(p.w) for p in plans) == model._memo.epochs <= models_module._PLAN_EPOCHS
        for plan in plans:
            arrays = [a for _, sel, params in plan.parts for a in (sel, *params) if isinstance(a, np.ndarray)]
            for a in (plan.w, *arrays):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0.0

    def test_threads_count_each_stored_plan_once(self):
        # never certified at this h, so each scan reads (0, 64) and (64, cap): the 41
        # ranges of 40 caps span 66,364 epochs, past the budget, and each cap is
        # probed eight times at once
        model = RiskModel(IndexedNormal(-1e-7, 2.0), PeriodicRates((0.0, 1e-9)))
        caps = [1000 + 37 * i for i in range(40) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(sup_log_mgf, model, 0.001, TruncationPolicy(cap)) for cap in caps]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(caps)
        plans = _stored_plans(model)
        assert model._memo.epochs == sum(len(p.w) for p in plans) <= models_module._PLAN_EPOCHS
        assert len(plans) < 41

    def test_a_long_scan_keeps_its_first_chunk(self):
        # ranges after the first end on multiples of _SCAN_CHUNK, so (64, 65536)
        # fits beside (0, 64) in the budget, and a probe that scans on to the
        # cap (per-increment terms below zero, which rise toward it) plans only
        # the rest of the cap, (65536, 100000), anew
        model = RiskModel(IndexedNormal(-0.5, -1.0), ConstantRates(0.02))
        solve_per_increment(model, policy=TruncationPolicy(100_000))
        assert ("plan", 0, 64) in model._memo and ("plan", 64, 65536) in model._memo
        assert model._memo.epochs == models_module._PLAN_EPOCHS


def shared(search: Search, h: float, partial: bool = True):
    """A probe that shares the record's chord references."""
    return (sup_log_mgf if partial else per_increment_sup)(search, h)


class TestChordCertificates:
    """Probes of one solve or optimization share the chord references of one
    search record (models.Search, models._sup_scan): a finite-horizon probe of
    the partial sums at h below an earlier full scan reads only the epochs
    that the chord inequality leaves open, and a per-increment probe scans in
    full and keeps nothing. Every sup must be bitwise the one of a full scan
    without a record, and the record is the only place that holds anything
    that depends on h."""

    @st.composite
    def models(draw):
        h_top = draw(st.floats(0.05, 2.0))
        # a rate just above h_top puts the term of an undiscounted epoch at the
        # domain edge of its law at the largest probe
        edge = st.sampled_from([1e-12, 1e-6, 1e-2]).map(lambda eps: h_top * (1.0 + eps))
        laws = st.one_of(
            st.builds(Normal, st.floats(-1.5, 0.3), st.floats(0.1, 2.0)),
            st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(-3.0, -0.5), st.floats(0.01, 3.0)),
            st.builds(TwoPoint, st.floats(0.0, 1.5), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.5)),
                      st.floats(-2.0, -0.5)),
            st.builds(ShiftedExponential, st.one_of(edge, st.floats(1.0, 3.0)), st.floats(-3.0, -1.0)),
            st.builds(Degenerate, st.floats(-2.0, 0.2)),
            finite_discretes(),
            st.builds(Scaled, st.floats(0.5, 2.0), st.builds(Normal, st.floats(-1.0, 0.0), st.floats(0.1, 1.0))),
        )
        # laws of negative mean whose variances differ: every term is negative
        # at small h, and the epoch of the largest term moves as h grows
        drifting = st.one_of(
            st.builds(Normal, st.floats(-1.5, -0.05), st.floats(0.05, 4.0)),
            st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(-3.0, -0.5), st.floats(0.01, 0.9)),
            st.builds(Degenerate, st.floats(-2.0, -0.05)),
        )
        # n epochs drawn from a pool of laws, so that equal terms tie
        pool = draw(st.lists(draw(st.sampled_from([laws, drifting])), min_size=1, max_size=12))
        n = draw(st.integers(65, 300))
        pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
        dists = tuple(pool[i] for i in pick)
        rates = draw(st.one_of(
            st.just(ConstantRates(0.0)),
            st.floats(0.001, 0.2).map(ConstantRates),
            st.lists(st.floats(0.0, 0.2), min_size=n, max_size=n).map(tuple).map(ExplicitRates),
        ))
        hs = draw(st.lists(st.floats(-7.0, 0.0).map(lambda x: h_top * math.exp(x)), min_size=1, max_size=8))
        if draw(st.booleans()):  # as a bisection or golden search closes in from above
            hs = [h_top] + sorted(hs, reverse=True)
        return RiskModel(ExplicitPrefix(dists), rates), hs

    @settings(max_examples=200, deadline=None)
    @given(models())
    def test_probes_match_full_scans(self, case):
        model, hs = case
        search = Search(model)
        for h in hs:
            for partial in (True, False):
                got = shared(search, h, partial)
                e = _full_scan(model, h, 10_000, partial)
                assert (got.value.hex(), got.argmax, got.status, got.certified, got.note) == \
                    (e.value.hex(), e.argmax, e.status, e.certified, e.note)
        # the model keeps only what does not depend on h: plans and facts keyed
        # by epochs, and its cached records
        assert all(isinstance(x, int) for key in model._memo for x in key[1:])
        assert set(vars(model)) <= {"increments", "rates", "label", "_memo", "_horizon", "_laws", "_block"}

    @settings(max_examples=40, deadline=None)
    @given(models(), st.floats(1.0, 40.0))
    def test_solvers_and_optimizer_match_a_storeless_run(self, case, u):
        model, _ = case
        fresh = RiskModel(model.increments, model.rates)
        got = solve_partial_sum(model), bound_optimize(model, u)
        with patch.object(models_module, "_chord_probe", lambda *args: None):
            expected = solve_partial_sum(fresh), bound_optimize(fresh, u)
        assert repr(got) == repr(expected)

    def test_probes_below_a_full_scan_read_few_epochs(self, monkeypatch):
        # 2000 laws of negative drift: the partial sums peak within the first
        # 64 epochs
        rng = np.random.default_rng(7)
        model = RiskModel(ExplicitPrefix(tuple(Normal(float(m), 1.0) for m in rng.uniform(-1.2, -0.3, 2000))))
        read = self._scans(monkeypatch)
        solve_partial_sum(model)  # 36 probes
        assert 0 < read.count(2000) <= 3
        read.clear()
        bound_optimize(model, 10.0)  # 40 probes, the first ones doubling h
        assert 0 < read.count(2000) <= 8
        # the per-increment solve's 35 probes each scan in full and keep no reference
        read.clear()
        search = Search(model)
        solve_per_increment(search)
        assert read.count(2000) == len(read) == 35 and search.chords == []

    @staticmethod
    def _scans(monkeypatch) -> list:
        """The number of epochs of each _Plan.terms call from here on."""
        read = []
        terms = models_module._Plan.terms

        def recording(plan, h):
            read.append(len(plan.w))
            return terms(plan, h)

        monkeypatch.setattr(models_module._Plan, "terms", recording)
        return read

    @staticmethod
    def _same(got: SupLogMgf, model: RiskModel, h: float, partial: bool) -> None:
        e = _full_scan(model, h, 10_000, partial)
        assert (got.value.hex(), got.argmax, got.status, got.certified, got.note) == \
            (e.value.hex(), e.argmax, e.status, e.certified, e.note)

    @st.composite
    def capped(draw):
        """A model of models() whose laws at a few epochs, in the head (the
        first 64) and past it, are replaced by ShiftedExponential laws of one
        rate, at most the rest's MGF-domain cap: at the cap their terms are
        +inf, all of them under zero rates, and probes below read them."""
        model, _ = draw(TestChordCertificates.models())
        dists = list(model.increments.dists)
        rate = min(draw(st.floats(0.3, 3.0)), _domain_cap(model))
        shift = draw(st.one_of(st.floats(-3.0, -0.5), st.floats(-0.5, 0.5)))
        for j in draw(st.lists(st.one_of(st.integers(1, 64), st.integers(65, len(dists))), min_size=1, max_size=5)):
            dists[j - 1] = ShiftedExponential(rate, shift)
        model = RiskModel(ExplicitPrefix(tuple(dists)), draw(st.sampled_from([ConstantRates(0.0), model.rates])))
        fractions = draw(st.lists(st.floats(0.3, 1.0, exclude_max=True), min_size=1, max_size=6))
        if draw(st.booleans()):  # as a search climbs toward the cap
            fractions.sort()
        return model, fractions

    @settings(max_examples=150, deadline=None)
    @given(capped())
    def test_probes_below_the_cap_match_full_scans(self, case):
        model, fractions = case
        cap, n = _domain_cap(model), model.horizon()
        with np.errstate(all="ignore"):
            divergent = int((_reference_terms(model, cap, n) == INF).sum())
        search = Search(model)
        self._same(shared(search, cap), model, cap, True)
        # kept, "unbounded" or not, unless too many terms are +inf
        assert [h0 for h0, _ in search.chords] == ([cap] if divergent <= models_module._DIVERGENT_MAX else [])
        for f in fractions:
            self._same(shared(search, f * cap), model, f * cap, True)
        kept = list(search.chords)
        for f in [1.0, *fractions]:
            self._same(shared(search, f * cap, False), model, f * cap, False)
        assert search.chords == kept  # a per-increment probe keeps no reference

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.3, 2.0), st.lists(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]), min_size=65, max_size=150),
           st.sampled_from([0.0, 0.01]), st.floats(-3.0, 0.5),
           st.lists(st.one_of(st.floats(0.5, 1.0, exclude_max=True), st.sampled_from([1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6])),
                    min_size=1, max_size=6))
    def test_probes_near_the_domain_edge_match_full_scans(self, edge, gaps, rate, shift, fractions):
        # ShiftedExponential laws whose domains end at or just above the cap, b_j / w_j =
        # edge (1 + gap): the scan at the cap keeps the epochs whose terms are +inf as J,
        # and the probes below, sharing its record, read every other term near its domain's
        # end, where the rounding of t is amplified by t / (b - t)
        w = np.exp(-math.log1p(rate) * np.arange(len(gaps)))
        laws = tuple(ShiftedExponential(edge * float(x) * (1.0 + gap), shift) for x, gap in zip(w, gaps))
        model = RiskModel(ExplicitPrefix(laws), rate)
        cap = _domain_cap(model)
        for partial in (True, False):
            search = Search(model)
            for f in [1.0, *fractions]:
                self._same(shared(search, f * cap, partial), model, f * cap, partial)

    @pytest.mark.parametrize("head, past", [
        # the term of epoch 101 at h = 0.99 is about 4.1: the sup is there
        ((Degenerate(1.0),) + (Degenerate(-0.01),) * 63, (Degenerate(-0.01),) * 36 + (ShiftedExponential(1.0, -0.5),)),
        # it is about -500 at h = 0.5, after partial sums that pass the head's
        # maximum: it counts only for the sums from epoch 101 on
        ((Degenerate(1.0),) + (Degenerate(-0.01),) * 63, (Degenerate(0.05),) * 36 + (ShiftedExponential(1.0, -1000.0),)),
        # the terms of epochs 101 and 102 are about 0.7 each at h = 0.99: only
        # their sum takes G_102 above the head's maximum
        ((Degenerate(-0.01),) * 64, (Degenerate(-0.01),) * 36 + (ShiftedExponential(1.0, -3.944),) * 2),
        # divergent epochs in the head and past it
        ((Degenerate(-0.2),) * 9 + (ShiftedExponential(1.0, -0.5),) + (Degenerate(-0.2),) * 54,
         (Degenerate(-0.01),) * 36 + (ShiftedExponential(1.0, -0.5),) * 2),
    ], ids=["past_head", "negative_past_head", "two_past_head", "head_and_past"])
    def test_divergent_terms_are_read_at_the_probe(self, head, past):
        model = RiskModel(ExplicitPrefix(head + past + (Degenerate(-1.0),) * 99))
        for partial in (True, False):
            search = Search(model)
            self._same(shared(search, 1.0, partial), model, 1.0, partial)  # the cap: +inf, kept
            for h in (0.99, 0.5, 0.25):
                self._same(shared(search, h, partial), model, h, partial)

    @pytest.mark.parametrize("share, closes", [(8.0, False), (30.0, True)])
    @pytest.mark.parametrize("at", [64, 2], ids=["past_head", "in_head"])
    def test_the_margin_counts_the_divergent_terms(self, monkeypatch, share, closes, at):
        # at h = 0.5 the terms of epochs at + 1 and at + 2 are -X/2 and X/2 + log 2,
        # the second divergent at h = 1, and the head's maximum G_1 = 0 lies above
        # G_64 plus the bound on later sums by share X a, a the gamma_N + b of the
        # partial sums' rounding scale. The margin is about 9.0 X a with the
        # magnitude of the divergent term and 7.0 X a without it, so only the
        # larger share closes, whether the divergent epoch lies past the head or
        # in it; the full scan gives the same sup
        X = 1e12
        a = models_module._rounding_scale(RiskModel(ExplicitPrefix((Degenerate(0.0),) * 100)), 100)[0]
        laws = [Degenerate(0.0)] * 100
        laws[1] = Degenerate(-2.0 * (math.log(2.0) + share * X * a))
        laws[at], laws[at + 1] = Degenerate(-X), ShiftedExponential(1.0, X)
        model = RiskModel(ExplicitPrefix(tuple(laws)))
        search = Search(model)
        shared(search, 1.0)
        read = self._scans(monkeypatch)
        got = shared(search, 0.5)
        assert (got.value, got.argmax) == (0.0, 1)
        assert (100 not in read) == closes
        self._same(got, model, 0.5, True)

    def test_a_scan_with_a_nan_term_is_not_kept(self):
        # the scaled Uniform's term is NaN at h = 1e10 (t past the float range,
        # times an upper end of 0) and about -691.9 at h = 1, where it is the sup
        laws = [Normal(-1000.0, 1.0)] * 100
        laws[79] = Scaled(1e300, Uniform(-3.0, 0.0))
        model = RiskModel(ExplicitPrefix(tuple(laws)))
        for partial in (True, False):
            search = Search(model)
            got = shared(search, 1e10, partial)
            assert got.status == "undetermined"
            assert search.chords == []
            got = shared(search, 1.0, partial)
            self._same(got, model, 1.0, partial)
        assert got.argmax == 80

    def test_a_reference_kept_by_a_probe_that_read_several_epochs(self):
        # at h = 1.25 and 0.74 epoch 97 (Normal(-1.26, 0.76)) has the largest
        # term, and at 0.44 epoch 68's (Normal(-1.17, 0.49)), -0.467, passes
        # epoch 97's, -0.481: per-increment probes that share a record scan in
        # full, keep no reference, and follow the largest term as it moves
        laws = [Degenerate(-5.0)] * 100
        laws[67], laws[96], laws[98] = Normal(-1.17, 0.49), Normal(-1.26, 0.76), Degenerate(-1.1)
        model = RiskModel(ExplicitPrefix(tuple(laws)))
        search = Search(model)
        for h in (1.25, 0.74, 0.44):
            got = shared(search, h, False)
            self._same(got, model, h, False)
        assert got.argmax == 68 and search.chords == []

    @pytest.mark.parametrize("seed", [2, 5])
    def test_a_search_below_the_cap_scans_twice(self, monkeypatch, seed):
        # 2000 laws of negative drift whose ShiftedExponential rates put the
        # MGF-domain cap near 0.8; the probe at the cap is +inf. Seed 2: the
        # root (0.757) and the optimum at u = 10 (0.755) lie just below the cap
        # (0.8005). Seed 5: the root is the cap (0.8025), and every probe below
        # it lies above the ones before
        rng = np.random.default_rng(seed)
        make = (lambda: Normal(-0.3 - 0.9 * rng.random(), 0.5 + rng.random()),
                lambda: Uniform(-2.0 - rng.random(), 1.0 + 0.5 * rng.random()),
                lambda: TwoPoint(1.0, 0.2 + 0.15 * rng.random(), -1.0),
                lambda: ShiftedExponential(0.8 + 0.4 * rng.random(), -1.5 - rng.random()))
        laws = [make[i % 4]() for i in range(2000)]
        model = RiskModel(ExplicitPrefix(tuple(laws[i] for i in rng.permutation(2000))))
        fresh = RiskModel(model.increments)
        read = self._scans(monkeypatch)
        for search in (solve_partial_sum, lambda m: bound_optimize(m, 10.0)):
            read.clear()
            got = search(model)
            assert read.count(2000) <= 2
            with patch.object(models_module, "_chord_probe", lambda *args: None):
                assert repr(got) == repr(search(fresh))


def _masked_log_expm1_ratio(x: np.ndarray) -> np.ndarray:
    """_log_expm1_ratio_vec with its masks applied on every call."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    low = x < -30.0
    mid = ~(small | low)
    xs, xl, xm = x[small], x[low], x[mid]
    out[small] = xs / 2.0 + xs * xs / 24.0
    out[low] = np.log1p(-np.exp(xl)) - np.log(-xl)
    out[mid] = np.log(np.expm1(xm) / xm)
    return out


def _masked_uniform(params, t):
    # past x = 30 from the upper end, as Uniform._lmgf_vec
    lower, upper = params[:2]
    x = t * (upper - lower)
    out = t * lower + _masked_log_expm1_ratio(x)
    high = x > 30.0
    th = t[high]
    out[high] = th * upper[high] - (np.log(th) + np.log((upper - lower)[high])) + np.log1p(-np.exp(-x[high]))
    return out


def _masked_two_point(params, t):
    x1, log_p1, x2, log_p2 = params[:4]
    return np.logaddexp(np.where(log_p1 > -INF, log_p1 + t * x1, -INF),
                        np.where(log_p2 > -INF, log_p2 + t * x2, -INF))


def _masked_shifted_exponential(params, t):
    rate, shift = params[:2]
    inside = t < rate
    finite = t * shift + np.log(rate) - np.log(np.where(inside, rate - t, 1.0))
    return np.where(inside, finite, INF)


def _masked_finite_discrete(params, t):
    xs, log_ps = params[:2]
    acc = np.full(len(t), -INF)
    for x, log_p in zip(xs.T, log_ps.T):
        acc = np.where(log_p > -INF, np.logaddexp(acc, log_p + t * x), acc)
    return acc


def _masked_normal(params, t):
    mean, variance = params
    return t * mean + 0.5 * variance * t * t


def _padded_atoms(laws) -> tuple:
    xs = np.zeros((len(laws), max(len(d.atoms) for d in laws)))
    log_ps = np.full(xs.shape, -INF)
    for i, d in enumerate(laws):
        for a, (x, p) in enumerate(d.atoms):
            xs[i, a] = x
            if p > 0.0:
                log_ps[i, a] = math.log(p)
    return xs, log_ps


# per family: the masked reference kernel and its raw parameter arrays, read
# off the law objects (no family table, no plan); other families evaluate each
# law's scalar log-MGF
_MASKED = {
    Normal: (_masked_normal, lambda laws: (np.array([d.mean for d in laws]), np.array([d.variance for d in laws]))),
    Uniform: (_masked_uniform, lambda laws: (np.array([d.lower for d in laws]), np.array([d.upper for d in laws]))),
    TwoPoint: (_masked_two_point, lambda laws: (np.array([d.x1 for d in laws]), np.log(np.array([d.p1 for d in laws])),
                                                np.array([d.x2 for d in laws]), np.log1p(-np.array([d.p1 for d in laws])))),
    ShiftedExponential: (_masked_shifted_exponential,
                         lambda laws: (np.array([d.rate for d in laws]), np.array([d.shift for d in laws]))),
    FiniteDiscrete: (_masked_finite_discrete, _padded_atoms),
    Degenerate: (lambda params, t: t * params[0], lambda laws: (np.array([d.value for d in laws]),)),
}


def _reference_terms(model: RiskModel, h: float, K: int) -> np.ndarray:
    """The terms of epochs 1..K, uncut, from each epoch's law object and the
    epoch layout: the masked kernels above on parameters read off the laws,
    and the zero at t = 0 set wherever t is zero. The reference of the probe
    plans, whose tables hold constants computed once per model."""
    laws, slot, c = models_module._layout(model, K)
    t = h * np.minimum(np.exp(c), sys.float_info.max)
    epochs = [laws.laws[i] for i in slot.tolist()]
    terms = np.empty(K)
    for cls in {type(law) for law in epochs}:
        sel = np.array([i for i, law in enumerate(epochs) if type(law) is cls])
        group = [epochs[i] for i in sel]
        if cls in _MASKED:
            kernel, params = _MASKED[cls]
            terms[sel] = kernel(params(group), t[sel])
        else:
            terms[sel] = [law._lmgf(x) for law, x in zip(group, t[sel].tolist())]
    terms[t == 0.0] = 0.0
    return terms


def _reference_sup(model: RiskModel, h: float, k_max: int, partial: bool) -> SupLogMgf:
    """sup_log_mgf (partial) or per_increment_sup as a scan to the cap settles
    it, with the reduction chosen here on every call and the terms of
    _reference_terms: cut after the first +inf, stopped at the first value that
    is not a number, certified by the family's proof at the cap."""
    if h == 0.0:
        return SupLogMgf(0.0, 1, "attained", True)
    horizon = model.horizon()
    inc, block = model.increments, model._block
    if horizon is None:
        if model.zero_rates() and isinstance(inc, IndexedNormal):
            return models_module._sup_indexed_normal(inc, h, partial)
        if model.zero_rates() and isinstance(inc, IndexedTwoPoint):
            return models_module._sup_indexed_twopoint(inc, h, partial)
        if block is not None and block.amplifying and models_module._settled(model, partial):
            return SupLogMgf(INF, None, "unbounded", True, models_module._settled(model, partial))
        if block is not None and (not block.amplifying or block.period_top <= 0.0):
            return models_module._sup_periodic(block, h, partial)
    cap = horizon if horizon is not None else k_max
    with np.errstate(all="ignore"):
        terms = _reference_terms(model, h, cap)
        cut = np.flatnonzero(terms == INF)
        terms = terms[:cut[0] + 1] if cut.size else terms
        values = np.cumsum(terms) if partial else terms
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:  # the values before the first NaN count
        values = values[:nan[0]]
    i = int(np.argmax(values)) if values.size else None
    best = float(values[i]) if values.size else -INF
    arg = i + 1 if values.size else None
    if best == INF:
        return SupLogMgf(INF, arg, "unbounded", True, "divergent MGF term")
    if nan.size:
        return SupLogMgf(best, arg, "undetermined", False, f"scan stopped at epoch {nan[0] + 1}, whose value is not a number")
    if horizon is not None:
        return SupLogMgf(best, arg, "attained", True)
    if _scan_certifies_decrease(model, h, cap):
        if not partial and best < 0.0 and not model.zero_rates():
            return SupLogMgf(0.0, None, "limit", True, "terms approach zero from below under discounting")
        return SupLogMgf(best, arg, "attained", True)
    return SupLogMgf(best, arg, "undetermined", False, f"scan truncated at k_max={cap}")


class TestKernelShortcuts:
    """The family kernels skip a mask that is all true (no atom of probability
    zero or padding, every t inside the domain, every x in the middle branch),
    and a FiniteDiscrete sum starts from its first atom rather than -inf; a probe
    sets the zero at t = 0 only when some t is zero. The results must be
    bitwise those of the masked reference, on inputs that reach every branch."""

    # t = h w >= 0 in a probe, up to +inf where w is clamped at the float
    # maximum; the kernels themselves take any t
    ts = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1e-300, 40.0, -40.0, 1e308, INF]))

    @staticmethod
    def _same(got: np.ndarray, expected: np.ndarray) -> None:
        assert got.tobytes() == expected.tobytes()

    @st.composite
    def rows(draw, laws, ts=ts):
        n = draw(st.integers(1, 8))
        return draw(st.lists(laws, min_size=n, max_size=n)), np.array(draw(st.lists(ts, min_size=n, max_size=n)))

    @settings(max_examples=300, deadline=None)
    @given(rows(st.builds(TwoPoint, finite_means, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), finite_means)))
    def test_two_point(self, rows):
        laws, t = rows
        params = TwoPoint._table(laws)
        with np.errstate(all="ignore"):
            self._same(TwoPoint._lmgf_vec(params, t), _masked_two_point(params, t))

    @st.composite
    def finite_discretes_with_zeros(draw):
        n = draw(st.integers(1, 4))
        xs = draw(st.lists(finite_means, min_size=n, max_size=n))
        ws = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 1.0)), min_size=n - 1, max_size=n - 1))
        ws.append(draw(st.floats(0.1, 1.0)))
        return FiniteDiscrete(tuple((x, w / sum(ws)) for x, w in zip(xs, ws)))

    @settings(max_examples=300, deadline=None)
    @given(rows(st.one_of(finite_discretes(), finite_discretes_with_zeros())))
    def test_finite_discrete(self, rows):
        laws, t = rows
        params = FiniteDiscrete._table(laws)
        with np.errstate(all="ignore"):
            self._same(FiniteDiscrete._lmgf_vec(params, t), _masked_finite_discrete(params, t))

    @settings(max_examples=300, deadline=None)
    @given(rows(st.builds(ShiftedExponential, st.floats(0.5, 3.0), st.floats(-2.0, 2.0)),
                st.one_of(ts, st.floats(0.0, 0.49))))
    def test_shifted_exponential(self, rows):
        laws, t = rows
        params = ShiftedExponential._table(laws)
        with np.errstate(all="ignore"):
            self._same(ShiftedExponential._lmgf_vec(params, t), _masked_shifted_exponential(params, t))

    @settings(max_examples=300, deadline=None)
    @given(rows(uniforms(), st.one_of(ts, st.floats(0.5, 5.0))))
    def test_uniform(self, rows):
        laws, t = rows
        params = Uniform._table(laws)
        with np.errstate(all="ignore"):
            self._same(Uniform._lmgf_vec(params, t), _masked_uniform(params, t))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-40.0, 40.0), st.floats(-1e-6, 1e-6), st.floats(1e-6, 30.0),
                              st.sampled_from([0.0, -0.0, 30.0, -30.0, 1e-6, -1e-6, 31.0, -31.0])), max_size=8))
    def test_log_expm1_ratio(self, xs):
        x = np.array(xs)
        with np.errstate(all="ignore"):
            self._same(_log_expm1_ratio_vec(x), _masked_log_expm1_ratio(x))

    @settings(max_examples=200, deadline=None)
    @given(TestProbePlans.models(), st.one_of(st.floats(0.0, 20.0), st.sampled_from([1e-30, 1e-300, 5e-324])),
           st.integers(1, 300))
    def test_probe_terms(self, model, h, K):
        K = min(K, model.horizon() or K)
        plan = models_module._plan(model, 0, K)
        with np.errstate(all="ignore"):  # as in a probe
            expected = _reference_terms(model, h, K)
            self._same(plan.terms(h), expected)
        cut = np.flatnonzero(expected == INF)
        self._same(log_mgf_terms(model, h, K), expected[:cut[0] + 1] if cut.size else expected)

    @st.composite
    def routed_models(draw):
        """(model, hs): a model of every route (closed forms, exact, contracting
        and amplifying blocks, amplifying verdicts, scans with and without a
        family proof, finite horizons) under zero, constant, periodic or
        explicit rates, and the h it is probed at."""
        laws = st.one_of(TestTermKernelParity.laws, TestKernelShortcuts.finite_discretes_with_zeros())
        pool = draw(st.lists(laws, min_size=1, max_size=4))
        cycle = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        n = draw(st.integers(1, 300))
        rates = draw(st.one_of(
            st.just(ConstantRates(0.0)),
            st.floats(0.001, 0.3).map(ConstantRates),
            st.lists(st.one_of(st.just(0.0), st.floats(0.001, 0.3)), min_size=1, max_size=3).map(tuple).map(PeriodicRates),
            st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n).map(tuple).map(ExplicitRates),
        ))
        kind = draw(st.sampled_from(["indexed_normal", "indexed_two_point", "explicit", "periodic",
                                     "amplifying", "contracting", "past_the_float_range"]))
        if kind == "indexed_normal":
            rule = IndexedNormal(draw(st.floats(-1.0, 0.05)), draw(finite_means))
        elif kind == "indexed_two_point":
            rule = IndexedTwoPoint()
        elif kind == "explicit":
            rule = ExplicitPrefix(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
        elif kind == "periodic":
            rule = Periodic(cycle)
        elif kind == "amplifying":
            rule = QuasiPeriodicScaled(cycle, draw(st.floats(1.0001, 1.05)))
        elif kind == "contracting":
            rule = QuasiPeriodicScaled(cycle, draw(st.floats(0.5, 0.97)))
        else:
            # finite esssups of both signs and a negative period slope: the
            # partial sums are scanned, and past epoch ~2049 t = h e^c leaves
            # the float range, where the second law's term is inf - inf
            tail = QuasiPeriodicScaled((Uniform(draw(st.floats(-3.0, -2.0)), draw(st.floats(-1.5, -0.5))),
                                        Uniform(-3.0, draw(st.floats(0.05, 0.4)))), 2.0)
            rule, rates = PrefixThenTail((draw(laws),), tail), ConstantRates(0.0)
        hs = draw(st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4))
        if draw(st.booleans()):  # as a search closes in from above
            hs = sorted(hs, reverse=True)
        return RiskModel(rule, rates), hs

    @settings(max_examples=150, deadline=None)
    @given(routed_models(), st.sampled_from([1, 2, 63, 64, 65, 255, 256, 257, 1025, 2100]),
           st.sampled_from([None, 64, 100]), st.booleans())
    @example((RiskModel(PrefixThenTail((Normal(0.5, 1.0),), QuasiPeriodicScaled((Uniform(-2.0, -1.0), Uniform(-3.0, 0.5)), 2.0))),
              [2.0]), 2100, None, False)
    @example((RiskModel(Periodic((TwoPoint(0.0, 0.25, 0.0),))), [1.0]), 64, None, False)
    def test_probes_match_the_reference_scan(self, case, k_max, chunk, chords):
        # one model after another through the model's own route, its plans and
        # (chords) one search record's references; bitwise the reference's result
        model, hs = case
        policy = TruncationPolicy(k_max)
        search = Search(model, policy) if chords else None
        with patch.object(models_module, "_SCAN_CHUNK", chunk or models_module._SCAN_CHUNK):
            for h in hs:
                for partial, sup in ((True, sup_log_mgf), (False, per_increment_sup)):
                    got = sup(search, h) if chords else sup(model, h, policy)
                    e = _reference_sup(model, h, k_max, partial)
                    assert (got.value.hex(), got.argmax, got.status, got.certified, got.note) == \
                        (e.value.hex(), e.argmax, e.status, e.certified, e.note)

    def test_underflowing_t_gives_an_exact_zero(self):
        # w falls below 1e-300 after epoch 51, where h w underflows to zero; at
        # t = 0 the kernel gives logaddexp(log p, log1p(-p)), not always 0
        model = RiskModel(IndexedTwoPoint(), ConstantRates(math.expm1(690.0 / 50)))
        plan = models_module._plan(model, 0, 60)
        h = 1e-20
        zero = h * plan.w == 0.0
        assert plan.w.min() < 1e-300 and zero.any() and not zero.all()
        with np.errstate(all="ignore"):
            terms = plan.terms(h)
            self._same(terms, _reference_terms(model, h, 60))
            raw = TwoPoint._lmgf_vec(plan.parts[0][2], h * plan.w)
        assert terms[zero].tobytes() == np.zeros(zero.sum()).tobytes()
        assert (raw[zero] != 0.0).any()


def _logsumexp(values) -> float:
    a = np.asarray(values, dtype=float)
    top = float(a.max())
    return top if top in (INF, -INF) else top + math.log(math.fsum(np.exp(a - top)))


def _reference_union(model: RiskModel, h: float, k_max: int = 10_000):
    """The zero-rate union series summed one epoch at a time, as bound_union
    did before it ran on the term kernel; None where that sum certified nothing."""
    rule = model.increments
    if isinstance(rule, IndexedNormal):
        slope, intercept = rule.slope, rule.intercept
        if slope > 0.0:
            return None
        if slope == 0.0:
            step = h * intercept + 0.5 * h * h
            return None if step >= -1e-15 else step - math.log1p(-math.exp(step))
        terms, g = [], 0.0
        for n in range(1, k_max + 1):
            g += h * (intercept + slope * n) + 0.5 * h * h
            terms.append(g)
            nxt = h * (intercept + slope * (n + 1)) + 0.5 * h * h
            if nxt <= -40.0 and n >= 4:
                tail = g + nxt - math.log1p(-math.exp(h * (intercept + slope * (n + 2)) + 0.5 * h * h))
                return float(np.logaddexp(_logsumexp(terms), tail))
        return None
    eh = math.exp(h)
    if k_max <= eh:
        return None
    em = -math.expm1(-h)
    terms, g = [], 0.0
    for n in range(1, k_max + 1):
        g += math.log1p(em * (eh - n) / (n + 1.0))
        terms.append(g)
        if n > eh and n >= 4:
            partial = _logsumexp(terms)
            r = math.log1p(em * (eh - n - 1) / (n + 2.0))
            tail = g + r - math.log1p(-math.exp(r))
            if tail <= partial + math.log(1e-16):
                return float(np.logaddexp(partial, tail))
    return None


class TestUnionSeriesOracle:
    """The zero-rate union series of the indexed families: a certificate bounds
    every partial sum of the series, and agrees with the epoch-by-epoch sum."""

    models = st.one_of(
        st.builds(IndexedNormal, st.floats(-1.0, 0.0), st.floats(-2.0, 2.0)).map(RiskModel),
        st.just(RiskModel(IndexedTwoPoint())),
    )

    @settings(max_examples=150, deadline=None)
    @given(models, st.floats(0.05, 9.0), st.integers(1, 2000))
    def test_certificate_bounds_the_partial_series(self, model, h, N):
        r = bound_union(model, 10.0, h)
        assume(r.certificate is not None)
        partial = _logsumexp(cumulative_log_mgf(model, h, N))
        assert r.certificate.log_c >= partial - 1e-12 * abs(partial)

    @settings(max_examples=150, deadline=None)
    @given(models, st.floats(0.05, 7.0))
    def test_agrees_with_the_epoch_by_epoch_sum(self, model, h):
        reference = _reference_union(model, h)
        r = bound_union(model, 10.0, h)
        if reference is not None:
            assert r.certificate is not None
            assert r.certificate.log_c == pytest.approx(reference, rel=1e-12)


class TestLayoutParity:
    """The support shortcuts, reductions over the epoch layout, against one
    distribution_at law per epoch weighted by its discount v_{j-1}."""

    @st.composite
    def models(draw):
        laws = st.lists(TestTermKernelParity.laws, min_size=1, max_size=3)
        rates = draw(st.one_of(TestTermKernelParity.constant_rates,
                               st.lists(st.floats(0.0, 0.1), min_size=1, max_size=3).map(tuple).map(PeriodicRates),
                               st.lists(st.floats(0.0, 0.1), min_size=30, max_size=30).map(tuple).map(ExplicitRates)))
        kind = draw(st.sampled_from(["explicit", "periodic", "quasi_periodic", "prefix_tail"]))
        if kind == "explicit":
            return RiskModel(ExplicitPrefix(tuple(draw(st.lists(TestTermKernelParity.laws, min_size=30, max_size=40)))), rates)
        tail = QuasiPeriodicScaled(tuple(draw(laws)), draw(st.floats(0.5, 1.5)))
        if kind == "periodic":
            tail = Periodic(tail.cycle)
        return RiskModel(PrefixThenTail(tuple(draw(laws)), tail) if kind == "prefix_tail" else tail, rates)

    @settings(max_examples=300, deadline=None)
    @given(models(), st.integers(1, 30))
    def test_shortcuts_match_the_epoch_loop(self, model, K):
        v = [math.exp(c) for c in model.log_discounts(K - 1)]
        laws = [model.distribution_at(k) for k in range(1, K + 1)]
        his = [support_bounds(law)[1] for law in laws]
        sums = _esssup_sums(model, K)
        if INF in his:
            assert sums is None
        else:
            expected = np.cumsum([w * hi for w, hi in zip(v, his)])
            assert sums == pytest.approx(expected, rel=1e-12, abs=1e-12)
        caps = [mgf_domain_sup(law) / w for law, w in zip(laws, v) if mgf_domain_sup(law) < INF]
        assert _domain_cap(model, K) == pytest.approx(min(caps, default=INF), rel=1e-12)


class TestIndexedDomainCap:
    """_domain_cap on the indexed rules, which it settles without laws,
    against one distribution_at law per epoch weighted by its discount."""

    @st.composite
    def models(draw):
        rule = draw(st.one_of(st.builds(IndexedNormal, st.floats(-1.0, 1.0), finite_means), st.just(IndexedTwoPoint())))
        rates = draw(st.one_of(TestTermKernelParity.constant_rates,
                               st.lists(st.floats(0.0, 0.1), min_size=1, max_size=3).map(tuple).map(PeriodicRates),
                               st.lists(st.floats(0.0, 0.1), min_size=64, max_size=64).map(tuple).map(ExplicitRates)))
        return RiskModel(rule, rates)

    @settings(max_examples=200, deadline=None)
    @given(models(), st.one_of(st.none(), st.integers(1, 64)))
    def test_matches_the_epoch_loop(self, model, K):
        K_loop = K or model.horizon() or 64
        v = [math.exp(c) for c in model.log_discounts(K_loop - 1)]
        laws = [model.distribution_at(k) for k in range(1, K_loop + 1)]
        caps = [mgf_domain_sup(law) / w for law, w in zip(laws, v) if mgf_domain_sup(law) < INF]
        assert _domain_cap(model, K) == min(caps, default=INF)

    def test_builds_no_law(self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("a law was built")

        for cls in (IndexedNormal, IndexedTwoPoint):
            monkeypatch.setattr(cls, "distribution_at", refuse)
        assert _domain_cap(RiskModel(IndexedNormal(-0.5, 0.25), 0.01)) == INF
        assert _domain_cap(RiskModel(IndexedTwoPoint(), PeriodicRates((0.02, 0.01)))) == INF


class TestIntervalProperties:
    @given(st.integers(1, 500), st.data(), st.floats(0.8, 0.999))
    def test_clopper_pearson_brackets_the_estimate(self, n, data, conf):
        x = data.draw(st.integers(0, n))
        lo, hi = clopper_pearson(x, n, conf)
        assert 0.0 <= lo <= x / n <= hi <= 1.0
        assert lo < hi

    @given(st.integers(1, 400), st.floats(0.8, 0.999))
    def test_edge_cases_match_closed_forms(self, n, conf):
        alpha = 1.0 - conf
        lo, hi = clopper_pearson(0, n, conf)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - (alpha / 2.0) ** (1.0 / n), rel=1e-9)
        lo, hi = clopper_pearson(n, n, conf)
        assert hi == 1.0
        assert lo == pytest.approx((alpha / 2.0) ** (1.0 / n), rel=1e-9)


def _exact_tail(mpmath, x, n, p, upper):
    """P[Bin(n, p) >= x] (upper) or P[Bin(n, p) <= x] to 40 digits, summing the
    pmf from x outward until the terms no longer count."""
    with mpmath.workdps(40):
        p = mpmath.mpf(min(p, 1.0))
        q = 1 - p
        term = total = mpmath.binomial(n, x) * p**x * q ** (n - x)
        j = x
        while term > total * mpmath.mpf(10) ** -35 and (j < n if upper else j > 0):
            if upper:
                term *= (n - j) * p / ((j + 1) * q)
                j += 1
            else:
                term *= j * q / ((n - j + 1) * p)
                j -= 1
            total += term
        return total


class TestIntervalOracle:
    """clopper_pearson against scipy.stats.beta.ppf called as the classical
    formula calls it, at rel 1e-12. beta.ppf is itself off by up to ~2e-11 on
    hi for a few successes in more than ~1e5 trials (checked with mpmath), so
    where the two differ by more than that, the exact tail decides: the
    returned end must bracket the root of its tail equation within 1e-13."""

    def test_matches_beta_ppf(self):
        beta = pytest.importorskip("scipy.stats").beta
        mpmath = pytest.importorskip("mpmath")

        def brackets_root(end, x, n, level, upper):
            below, above = (_exact_tail(mpmath, x, n, end * (1.0 + d), upper) for d in (-1e-13, 1e-13))
            return below < level < above if upper else below > level > above

        @settings(max_examples=300, deadline=None)
        @given(st.integers(1, 10**6), st.data(), st.floats(0.5, 1.0 - 1e-9))
        def check(n, data, conf):
            x = data.draw(st.one_of(st.integers(0, n), st.integers(0, min(n, 30)), st.integers(max(0, n - 30), n)))
            a = 1.0 - conf
            lo, hi = clopper_pearson(x, n, conf)
            ref_lo = 0.0 if x == 0 else float(beta.ppf(a / 2.0, x, n - x + 1))
            ref_hi = 1.0 if x == n else float(beta.ppf(1.0 - a / 2.0, x + 1, n - x))
            if lo != pytest.approx(ref_lo, rel=1e-12):
                assert brackets_root(lo, x, n, a / 2.0, True), (lo, ref_lo)
            if hi != pytest.approx(ref_hi, rel=1e-12):
                assert brackets_root(hi, x, n, 1.0 - (1.0 - a / 2.0), False), (hi, ref_hi)

        check()


class TestSerializeRoundTrips:
    @given(st.lists(st.one_of(normals(), uniforms(), two_points(),
                              finite_discretes(), degenerates()),
                    min_size=1, max_size=3),
           st.floats(0.0, 0.5), st.text(max_size=12))
    def test_generated_models_survive_the_dict_format(self, cycle, rate, label):
        model = RiskModel(Periodic(tuple(cycle)), rates=rate, label=label)
        assert model_from_dict(model_to_dict(model)) == model


# The JSON config grammar, written out here apart from the package's own
# schema: each object's keys with the kind of value each takes. Keys ending in
# "?" are optional; "family" or "kind" picks the entry.
_LAW_KEYS = {
    "normal": {"mean": "number", "variance": "number"},
    "uniform": {"lower": "number", "upper": "number"},
    "two_point": {"x1": "number", "p1": "number", "x2": "number"},
    "shifted_exponential": {"rate": "number", "shift?": "number"},
    "degenerate": {"value": "number"},
    "scaled": {"factor": "number", "inner": "law"},
    "compound": {"claim": "law", "premium_rate": "number", "interarrival": "law"},
    "finite_discrete": {"atoms": "atoms"},
}
_RULE_KEYS = {
    "explicit": {"dists": "laws"},
    "periodic": {"cycle": "laws"},
    "quasi_periodic": {"cycle": "laws", "scale": "number"},
    "prefix_tail": {"prefix": "laws", "tail": "rule"},
    "indexed_normal": {"slope": "number", "intercept": "number"},
    "indexed_two_point": {},
}
_RATE_KEYS = {"constant": {"rate": "number"}, "periodic": {"values": "numbers"}, "explicit": {"values": "numbers"}}
_RISK_KEYS = {"increments": "rule", "rates?": "rates", "label?": "label"}
_EVENT_KEYS = {"claim": "rule", "interarrival": "rule", "premium_rate?": "rates",
               "reserve_interest?": "rates", "premium_interest?": "rates", "label?": "label"}

# values of the wrong type for each kind; "rates" also takes a bare number
_WRONG = {
    "number": ["0.5", True, False, None, [0.5], {}],
    "numbers": [0.5, "0.5", True, None, {}],
    "atoms": [0.5, "x", True, None, {}, [0.5], [[0.5]]],
    "law": [0.5, "x", True, None, []],
    "laws": [0.5, "x", True, None, {}],
    "rule": [0.5, "x", True, None, []],
    "rates": ["x", True, None, [0.1]],
    "label": [0.5, True, None, [], {}],
    "tag": [0.5, True, None, [], "no_such"],
    "model": [0.5, "x", True, None, []],
}


def _num(lo, hi):
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))


def _obj(tag, **fields):
    return st.fixed_dictionaries({"family": st.just(tag), **fields})


def _uniform_cfg(lower):
    return st.tuples(lower, st.floats(0.1, 3.0)).map(
        lambda p: {"family": "uniform", "lower": p[0], "upper": p[0] + p[1]})


@st.composite
def _atoms_cfg(draw):
    pairs = draw(st.lists(st.tuples(_num(-3, 3), st.integers(1, 8)), min_size=1, max_size=4))
    total = sum(w for _, w in pairs)
    return {"family": "finite_discrete", "atoms": [[x, w / total] for x, w in pairs]}


# laws with positive support, as compound increments and event models need
_positive_law_cfgs = st.one_of(
    _uniform_cfg(_num(0, 2)),
    _obj("shifted_exponential", rate=_num(0.2, 3), shift=_num(0, 2)),
)
_law_cfgs = st.recursive(
    st.one_of(
        _obj("normal", mean=_num(-3, 3), variance=_num(0.1, 4)),
        _uniform_cfg(_num(-3, 3)),
        _obj("two_point", x1=_num(-3, 3), p1=st.floats(0.0, 1.0), x2=_num(-3, 3)),
        st.fixed_dictionaries({"family": st.just("shifted_exponential"), "rate": _num(0.2, 3)},
                              optional={"shift": _num(-3, 3)}),
        _obj("degenerate", value=_num(-3, 3)),
        _atoms_cfg(),
        _obj("compound", claim=_positive_law_cfgs, premium_rate=_num(0.1, 3), interarrival=_positive_law_cfgs),
    ),
    lambda inner: _obj("scaled", factor=st.one_of(_num(0.1, 3), _num(-3, -0.1)), inner=inner),
    max_leaves=3,
)


def _cycle_rule_cfgs(laws, kinds=("periodic", "quasi_periodic")):
    cycle = st.lists(laws, min_size=1, max_size=3)
    rules = {
        "explicit": st.fixed_dictionaries({"kind": st.just("explicit"), "dists": cycle}),
        "periodic": st.fixed_dictionaries({"kind": st.just("periodic"), "cycle": cycle}),
        "quasi_periodic": st.fixed_dictionaries({"kind": st.just("quasi_periodic"), "cycle": cycle,
                                                 "scale": _num(0.5, 2)}),
    }
    return st.one_of(*(rules[k] for k in kinds))


_rule_cfgs = st.one_of(
    _cycle_rule_cfgs(_law_cfgs, ("explicit", "periodic", "quasi_periodic")),
    st.fixed_dictionaries({"kind": st.just("prefix_tail"), "prefix": st.lists(_law_cfgs, min_size=1, max_size=3),
                           "tail": _cycle_rule_cfgs(_law_cfgs)}),
    st.fixed_dictionaries({"kind": st.just("indexed_normal"), "slope": _num(-1, 1), "intercept": _num(-2, 2)}),
    st.just({"kind": "indexed_two_point"}),
)


def _rate_cfgs(lo, hi):
    values = st.lists(_num(lo, hi), min_size=1, max_size=4)
    return st.one_of(
        _num(lo, hi),
        st.fixed_dictionaries({"kind": st.just("constant"), "rate": _num(lo, hi)}),
        st.fixed_dictionaries({"kind": st.just("periodic"), "values": values}),
        st.fixed_dictionaries({"kind": st.just("explicit"), "values": values}),
    )


_model_cfgs = st.one_of(
    st.fixed_dictionaries({"increments": _rule_cfgs},
                          optional={"rates": _rate_cfgs(0, 0.5), "label": st.text(max_size=8)}),
    st.fixed_dictionaries(
        {"claim": _cycle_rule_cfgs(_positive_law_cfgs, ("explicit", "periodic")),
         "interarrival": _cycle_rule_cfgs(_positive_law_cfgs, ("explicit", "periodic"))},
        optional={"premium_rate": _rate_cfgs(0.1, 3), "reserve_interest": _rate_cfgs(0, 0.5),
                  "premium_interest": _rate_cfgs(0, 0.5), "label": st.text(max_size=8)}),
)


def _keys(value, kind):
    """{key: (kind, required)} of an object of the grammar, its tag included."""
    if kind == "model":
        table = _EVENT_KEYS if "claim" in value else _RISK_KEYS
        tag = {}
    else:
        name = "family" if kind == "law" else "kind"
        table = {"law": _LAW_KEYS, "rule": _RULE_KEYS, "rates": _RATE_KEYS}[kind][value[name]]
        tag = {name: ("tag", True)}
    return {**tag, **{k.rstrip("?"): (v, not k.endswith("?")) for k, v in table.items()}}


def _sites(value, kind, path=()):
    """(path, kind) of every value in a valid config, the config itself first."""
    yield path, kind
    if isinstance(value, dict):
        for key, (sub, _) in _keys(value, kind).items():
            if key in value:
                yield from _sites(value[key], sub, path + (key,))
    elif kind in ("laws", "numbers", "atoms"):
        item = {"laws": "law", "numbers": "number", "atoms": "numbers"}[kind]
        for i, x in enumerate(value):
            yield from _sites(x, item, path + (i,))


class TestConfigGrammar:
    @settings(max_examples=300, deadline=None)
    @given(_model_cfgs)
    def test_valid_configs_round_trip(self, cfg):
        model = model_from_dict(cfg)
        assert model_from_dict(model_to_dict(model)) == model
        assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model

    @settings(max_examples=500, deadline=None)
    @given(_model_cfgs, st.data())
    def test_mutated_configs_raise_config_errors(self, cfg, data):
        cfg = copy.deepcopy(cfg)
        path, kind = data.draw(st.sampled_from(list(_sites(cfg, "model"))))
        parent, key = None, None
        node = cfg
        for step in path:
            parent, key, node = node, step, node[step]
        mutations = ["wrong type"] + (["missing key", "unknown key"] if isinstance(node, dict) else [])
        mutation = data.draw(st.sampled_from(mutations))
        if mutation == "wrong type":
            wrong = data.draw(st.sampled_from(_WRONG[kind]))
            if parent is None:
                cfg = wrong
            else:
                parent[key] = wrong
        elif mutation == "missing key":
            required = [k for k, (_, req) in _keys(node, kind).items() if req]
            del node[data.draw(st.sampled_from(required))]
        else:
            node["no_such_key"] = 0.5
        with pytest.raises(ConfigError):
            model_from_dict(cfg)


class TestSolverOrdering:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.builds(Normal, st.floats(-2.0, -0.1), st.floats(0.2, 2.0)),
                    min_size=1, max_size=3))
    def test_per_increment_root_never_exceeds_partial_sum_root(self, cycle):
        model = RiskModel(Periodic(tuple(cycle)))
        per = solve_per_increment(model)
        partial = solve_partial_sum(model)
        assume(per.certified and partial.certified)
        assert per.value <= partial.value + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.5, 8.0), st.floats(0.05, 3.0))
    def test_fixed_h_bound_is_clamped_and_dominated_by_optimum(self, u, h):
        model = RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))))
        at_h = bound_at_h(model, u, h)
        assert at_h.log_bound <= 0.0
        best = bound_optimize(model, u)
        assert best.log_bound <= at_h.log_bound + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 4.0), st.floats(1.05, 3.0))
    def test_optimized_bound_is_monotone_in_u(self, u, factor):
        model = RiskModel(Periodic((Normal(-0.5, 1.0),)))
        small = bound_optimize(model, u)
        large = bound_optimize(model, factor * u)
        assert large.log_bound <= small.log_bound + 1e-12


def _mp_log_mgf(law, t):
    """The exact log-MGF of law at the mpmath number t (+inf past its domain),
    in forms that do not cancel where t is tiny."""
    mp = mpmath
    if isinstance(law, Normal):
        return t * law.mean + law.variance * t * t / 2
    if isinstance(law, Degenerate):
        return t * law.value
    if isinstance(law, Uniform):
        x = t * (mp.mpf(law.upper) - law.lower)
        return t * law.lower + mp.log(mp.expm1(x) / x) if x else mp.mpf(0)
    if isinstance(law, TwoPoint):
        return t * law.x2 + mp.log1p(law.p1 * mp.expm1(t * (mp.mpf(law.x1) - law.x2)))
    if isinstance(law, ShiftedExponential):
        return t * law.shift - mp.log1p(-t / law.rate) if t < law.rate else mp.inf
    if isinstance(law, FiniteDiscrete):  # of the law normalized to mass 1
        (x0, _), total = law.atoms[0], mp.fsum(p for _, p in law.atoms)
        return t * x0 + mp.log1p(mp.fsum(p * mp.expm1(t * (mp.mpf(x) - x0)) for x, p in law.atoms) / total)
    if isinstance(law, Scaled):
        return _mp_log_mgf(law.inner, t * law.factor)
    return _mp_log_mgf(law.claim, t) + _mp_log_mgf(law.interarrival, -t * law.premium_rate)


class TestRoundingBound:
    """The bound E(h) of the one rounding model (models._rounding_scale,
    models._error) holds, recomputed with mpmath at 50 digits from the exact
    log-MGFs at the multipliers a route reads: a certified sup of the partial
    sums lies within E(h) of the exact sup, on finite horizons and on exact
    blocks' first periods; and a chord probe that closes, E's one consumer,
    has a margin that covers the rounding of both runs it compares."""

    @st.composite
    def cases(draw):
        laws = TestTermKernelParity.laws
        pool = draw(st.lists(laws, min_size=1, max_size=4))
        if draw(st.booleans()):  # a finite horizon, scanned
            n = draw(st.integers(1, 80))
            rates = draw(st.one_of(st.just(0.0), st.floats(0.001, 0.3)))
            return RiskModel(ExplicitPrefix(tuple(draw(st.sampled_from(pool)) for _ in range(n))), rates)
        # an exact block (zero rates), whose partial-sum sup reads its first period only
        return RiskModel(Periodic(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))), (0.0,))

    @settings(max_examples=200, deadline=None)
    @given(cases(), st.one_of(st.floats(1e-6, 3.0), st.sampled_from([1e-9, 0.5, 1.0])))
    def test_bounds_the_distance_to_the_exact_sup(self, model, h):
        if model._block is not None:
            w, laws = model._block.head, model._block.laws
        else:
            w, laws = models_module._plan(model, 0, model.horizon()).w.tolist(), model._laws.laws
        s = sup_log_mgf(model, h)
        assume(s.certified and -INF < s.value < INF)
        with mpmath.workdps(50):
            terms = [_mp_log_mgf(law, mpmath.mpf(h) * mpmath.mpf(x)) for law, x in zip(laws, w)]
            assume(all(mpmath.isfinite(g) for g in terms))
            exact = max(itertools.accumulate(terms))
            K = model.horizon() if model._block is None else len(model._block.logs)
            top = float(max(exact, 0) * (1 + mpmath.mpf(2) ** -40))
            assert abs(s.value - exact) <= models_module._error(models_module._rounding_scale(model, K), h, top)

    @st.composite
    def chorded(draw):
        """(model, h0, h): a finite horizon of 65 to 100 epochs whose terms are
        finite at h0, and a probe at h <= h0. Besides laws of either sign, its
        pool holds ShiftedExponential laws whose MGF domains end just above
        h0 w_j (the domain part of E: t rounds where w_j < 1) and FiniteDiscrete
        laws of mass 1 + 9e-13 (the logs part: a kernel adds log mass)."""
        h0, rate, n = draw(st.floats(0.05, 2.0)), draw(st.sampled_from([0.0, 0.01, 0.2])), draw(st.integers(65, 100))
        w = np.exp(-math.log1p(rate) * np.arange(n))
        plain = st.one_of(
            st.builds(Normal, st.floats(-1.5, 0.3), st.floats(0.05, 2.0)),
            st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(-3.0, 0.0), st.floats(0.01, 3.0)),
            st.builds(TwoPoint, st.floats(0.0, 1.5), st.floats(0.0, 0.5), st.floats(-2.0, -0.5)),
            st.builds(Degenerate, st.floats(-2.0, 0.2)),
            st.builds(lambda x, p: FiniteDiscrete(((x, p + 9e-13), (1.0, 1.0 - p))), st.floats(-3.0, -0.5), st.floats(0.5, 0.9)))
        laws = []
        for j in range(n):
            if draw(st.integers(0, 9)) == 0:  # an edge law: g is +inf from (1 + delta) h0 on
                delta = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
                laws.append(ShiftedExponential(h0 * float(w[j]) * (1.0 + delta), draw(st.floats(-3.0, -1.0))))
            else:
                laws.append(draw(plain))
        f = draw(st.one_of(st.floats(0.3, 1.0), st.sampled_from([1.0 - 1e-9, 1.0 - 1e-6])))
        return RiskModel(ExplicitPrefix(tuple(laws)), rate), h0, f * h0

    @staticmethod
    def _edge_case():
        # epoch 10 ends 1e-12 above h0 = 1 (rate 1%), and the probe at 1 - 1e-9 reads its
        # term near the edge, about 19.7: the largest term, and past it the largest sum
        w = math.exp(-9.0 * math.log1p(0.01))
        laws = [Normal(-1.0, 1.0)] * 100
        laws[9] = ShiftedExponential(w * (1.0 + 1e-12), -1.0)
        return RiskModel(ExplicitPrefix(tuple(laws)), 0.01), 1.0, 1.0 - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(chorded())
    @example(_edge_case())
    # each term's log of its mass, 9e-13, is the only rounding the logs part covers
    @example((RiskModel(ExplicitPrefix((FiniteDiscrete(((-2.0, 0.7 + 9e-13), (1.0, 0.3))),) * 100)), 0.5, 0.4))
    def test_a_closed_chord_probe_bounds_its_rounding(self, case):
        # a probe below the scan at h0 closes with the margin lam err + E(h) (models._chord_probe),
        # which covers the reference's distance to the exact values at h0, times lam, and the
        # full scan's at h: for the partial sums past the head, their rise from G_n
        model, h0, h = case
        K, n = model.horizon(), models_module._SCAN_FIRST
        search = Search(model)
        sup_log_mgf(search, h0)
        assume(search.chords and np.isfinite(log_mgf_terms(model, h0, K)).all())
        (_, ref), = search.chords
        calls, error, probe = [], models_module._error, models_module._chord_probe
        with patch.object(models_module, "_error", lambda *args: calls.append(error(*args)) or calls[-1]), \
                patch.object(models_module, "_chord_probe", lambda *args: calls.append(probe(*args)) or calls[-1]):
            sup_log_mgf(search, h)
        assume(calls[-1] is not None)  # closed
        lam = h / h0
        margin = lam * ref[-1] + calls[0]
        w, laws = models_module._plan(model, 0, K).w.tolist(), model._laws.laws
        at_h = log_mgf_terms(model, h, K)
        with mpmath.workdps(50):
            exact_h0 = [_mp_log_mgf(law, mpmath.mpf(h0) * mpmath.mpf(x)) for law, x in zip(laws, w)]
            exact_h = [_mp_log_mgf(law, mpmath.mpf(h) * mpmath.mpf(x)) for law, x in zip(laws, w)]
            rise = list(itertools.accumulate(exact_h0[n:]))
            scan, sums = np.cumsum(at_h), list(itertools.accumulate(exact_h))
            covered = lam * abs(ref[0][0] - max(rise)) + max(
                abs((scan[m] - scan[n - 1]) - (sums[m] - sums[n - 1])) for m in range(n, K))
            assert covered <= margin


class TestKeptSolves:
    """The adjustment coefficients depend on neither h nor u, so each is kept
    on the model (adjustment._solved), by flavour, tol and policy, or by l and
    tol for the period root. A kept solve is field by field (floats bitwise)
    the same solve on a fresh equal model, whatever searches ran on the model
    before; a repeat call probes nothing, and a new key is solved afresh,
    with the fresh solve's probes. At most models._SOLVES_KEPT are kept."""

    TOLS = (1e-10, 1e-6, 1e-14)

    @staticmethod
    def _fields(r):
        bracket = None if r.bracket is None else tuple(x.hex() for x in r.bracket)
        return (r.flavor, r.value.hex(), bracket, r.certified, r.boundary, r.note)

    @staticmethod
    def _probed(solve, *args):
        """(fields, the h of each models._sup and cumulative_log_mgf call) of solve(*args)."""
        calls, sup, cumulative = [], models_module._sup, adjustment_module.cumulative_log_mgf
        with patch.object(models_module, "_sup", lambda *a: calls.append(a[1]) or sup(*a)), \
                patch.object(adjustment_module, "cumulative_log_mgf", lambda *a: calls.append(a[1]) or cumulative(*a)):
            r = solve(*args)
        return TestKeptSolves._fields(r), calls

    @staticmethod
    def _fresh(model):
        return RiskModel(model.increments, model.rates, model.label)

    @settings(max_examples=60, deadline=None)
    @given(TestKernelShortcuts.routed_models(), st.booleans(), st.sampled_from(TOLS), st.sampled_from(TOLS),
           st.sampled_from([60, 300, 2000]), st.sampled_from([60, 300, 2000]))
    @example((RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))), PeriodicRates((0.01, 0.03, 0.02))), [0.5, 2.0]),
             True, 1e-10, 1e-6, 2000, 60)
    @example((RiskModel(IndexedNormal(-0.5, 0.25), 0.01), [1.0]), False, 1e-10, 1e-14, 300, 2000)
    def test_a_kept_solve_is_the_fresh_solve(self, case, partial, tol, other_tol, k_max, other_k_max):
        model, hs = case
        assume(tol != other_tol and k_max != other_k_max)
        solve, other = (solve_partial_sum, solve_per_increment) if partial else (solve_per_increment, solve_partial_sum)
        policy = TruncationPolicy(k_max)
        fresh = self._probed(solve, self._fresh(model), tol, policy)
        # a bound_optimize grid on a shared record, the other flavour, and this
        # flavour under another tol and under another policy
        search = Search(model, policy)
        for u in (1.0, 5.0):
            bound_optimize(search, u)
        other(search, tol)
        solve(model, other_tol, policy)
        solve(model, tol, TruncationPolicy(other_k_max))
        assert self._probed(solve, search, tol) == fresh  # a new key: solved afresh
        assert self._probed(solve, model, tol, policy) == (fresh[0], [])  # kept
        assert self._probed(solve, Search(model, policy), tol) == (fresh[0], [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(TestTermKernelParity.laws, min_size=1, max_size=3),
           st.lists(st.one_of(st.just(0.0), st.floats(0.001, 0.2)), min_size=1, max_size=2),
           st.one_of(st.just(1.0), st.floats(0.5, 1.0)), st.sampled_from(TOLS), st.sampled_from(TOLS))
    @example([Normal(-0.25, 1.0), Normal(-0.75, 1.0)], [0.0], 1.0, 1e-10, 1e-6)
    def test_a_kept_period_root_is_the_fresh_root(self, cycle, rates, scale, tol, other_tol):
        assume(tol != other_tol)
        rule = Periodic(tuple(cycle)) if scale == 1.0 else QuasiPeriodicScaled(tuple(cycle), scale)
        model = RiskModel(rule, PeriodicRates(tuple(rates)))
        l = math.lcm(len(cycle), len(rates))
        fresh = self._probed(solve_period_root, self._fresh(model), l, tol)
        # the other coefficients, and the period root of two periods and under another tol
        solve_partial_sum(model, tol)
        solve_per_increment(model, tol)
        solve_period_root(model, 2 * l, tol)
        solve_period_root(model, l, other_tol)
        assert self._probed(solve_period_root, model, l, tol) == fresh
        assert self._probed(solve_period_root, model, l, tol) == (fresh[0], [])

    def test_the_kept_solves_are_capped(self):
        # a request's k_max grows with its largest u: past the cap a solve runs and is not kept
        model = RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))), PeriodicRates((0.01, 0.03, 0.02)))
        cap, fresh = models_module._SOLVES_KEPT, self._probed(solve_partial_sum, self._fresh(model), 1e-10)
        assert fresh[1]
        for k_max in range(1, cap + 6):
            assert self._probed(solve_partial_sum, model, 1e-10, TruncationPolicy(k_max)) == fresh
        kept = [key for key in model._memo if key[0] in ("partial_sum", "per_increment", "period_root")]
        assert model._memo.solves == len(kept) == cap
        assert self._probed(solve_partial_sum, model, 1e-10, TruncationPolicy(1))[1] == []
        assert self._probed(solve_partial_sum, model, 1e-10, TruncationPolicy(cap + 5)) == fresh
