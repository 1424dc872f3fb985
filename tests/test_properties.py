"""Property tests: structural identities that every parameter choice must obey."""

import copy
import json
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
import pytest

from ruinbounds import (
    INF,
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
    sup_log_mgf,
)
from ruinbounds.adjustment import _domain_cap, _esssup_sums
from ruinbounds.distributions import mgf_domain_sup, support_bounds
from ruinbounds.models import PrefixThenTail, log_mgf_terms
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
