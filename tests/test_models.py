import math

import numpy as np
import pytest

import ruinbounds
from ruinbounds import (
    INF,
    CompoundIncrement,
    ConstantRates,
    Degenerate,
    EventModel,
    ExplicitPrefix,
    ExplicitRates,
    IndexedNormal,
    IndexedTwoPoint,
    ModelIndexError,
    Normal,
    Periodic,
    PeriodicRates,
    PrefixThenTail,
    QuasiPeriodicScaled,
    RiskModel,
    Scaled,
    ShiftedExponential,
    TruncationPolicy,
    TwoPoint,
    Uniform,
    bound_at_h,
    bound_optimize,
    bound_union,
    cumulative_log_mgf,
    per_increment_sup,
    reduce_event_model,
    solve_partial_sum,
    solve_period_root,
    sup_log_mgf,
    verify_window_exponent,
)
from ruinbounds.distributions import log_mgf_at
from ruinbounds.models import log_mgf_terms


def cycle_model():
    return RiskModel(Periodic((Uniform(0.0, 2.0), Uniform(-2.0, 0.0), ShiftedExponential(1.0, -2.0))))


class TestSequenceRules:
    def test_periodic_indexing(self):
        m = RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))))
        assert m.distribution_at(1) == Normal(-0.25, 1.0)
        assert m.distribution_at(2) == Normal(-0.75, 1.0)
        assert m.distribution_at(5) == Normal(-0.25, 1.0)
        assert m.horizon() is None

    def test_explicit_prefix_bounds(self):
        m = RiskModel(ExplicitPrefix((Degenerate(-1.0), Degenerate(2.0))))
        assert m.distribution_at(2) == Degenerate(2.0)
        assert m.horizon() == 2
        with pytest.raises(ModelIndexError):
            m.distribution_at(3)
        with pytest.raises(ValueError):
            m.distribution_at(0)

    def test_quasi_periodic_scaling(self):
        rule = QuasiPeriodicScaled((Normal(-0.25, 1.0),), 0.5)
        assert rule.distribution_at(1) == Normal(-0.25, 1.0)
        assert rule.distribution_at(3) == Scaled(0.25, Normal(-0.25, 1.0))
        two = QuasiPeriodicScaled((Normal(0.0, 1.0), Uniform(-1.0, 0.0)), 0.5)
        assert two.distribution_at(4) == Scaled(0.5, Uniform(-1.0, 0.0))

    def test_prefix_then_tail(self):
        rule = PrefixThenTail((Degenerate(5.0),), Periodic((Normal(-1.0, 1.0),)))
        assert rule.distribution_at(1) == Degenerate(5.0)
        assert rule.distribution_at(2) == Normal(-1.0, 1.0)
        assert rule.horizon() is None

    def test_indexed_families(self):
        rule = IndexedNormal(-0.5, 0.25)
        assert rule.distribution_at(1) == Normal(-0.25, 1.0)
        assert rule.distribution_at(3) == Normal(-1.25, 1.0)
        tp = IndexedTwoPoint()
        assert tp.distribution_at(2) == TwoPoint(1.0, 1.0 / 3.0, -1.0)


class TestRates:
    def test_constant(self):
        r = ConstantRates(0.05)
        assert r.rate_at(1) == 0.05
        assert r.period() == 1
        assert not r.all_zero()
        with pytest.raises(ValueError):
            ConstantRates(-0.01)

    def test_periodic_and_explicit(self):
        p = PeriodicRates((0.1, 0.2))
        assert p.rate_at(3) == 0.1
        assert p.period() == 2
        e = ExplicitRates((0.1, 0.2, 0.05, 0.15))
        assert e.horizon() == 4
        with pytest.raises(ModelIndexError):
            e.rate_at(5)

    def test_model_coerces_scalars_and_lists(self):
        m = RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=0.05)
        assert isinstance(m.rates, ConstantRates)
        m2 = RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=[0.1, 0.2])
        assert isinstance(m2.rates, PeriodicRates)

    def test_log_discounts(self):
        rates = (0.1, 0.2, 0.05, 0.15)
        m = RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=ExplicitRates(rates))
        v = np.exp(m.log_discounts(4))
        expect = np.cumprod([1.0] + [1.0 / (1.0 + r) for r in rates])
        assert np.allclose(v, expect, rtol=1e-14)
        assert m.log_discounts(0).tolist() == [0.0]
        assert math.exp(m.log_discounts(4, 4)[0]) == pytest.approx(expect[4], rel=1e-14)

    def test_rates_extend_explicit_increment_horizon_by_one(self):
        # rates fixing v_0..v_M support increments through epoch M+1
        m = RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=ExplicitRates((0.1, 0.2)))
        assert m.horizon() == 3


class TestCumulativeLogMgf:
    def test_linear_drift_normals_at_unit_exponent(self):
        m = RiskModel(IndexedNormal(-0.5, 0.25))
        g = cumulative_log_mgf(m, 1.0, 3)
        assert g == pytest.approx([0.25, 0.0, -0.75], abs=1e-14)

    def test_matches_manual_sum_with_discounts(self):
        m = RiskModel(Periodic((Uniform(0.0, 2.0), Uniform(-2.0, 0.0))), rates=0.1)
        h = 0.4
        from ruinbounds import log_mgf_at

        v = np.exp(m.log_discounts(3))
        manual = 0.0
        acc = []
        for k in range(1, 5):
            manual += log_mgf_at(m.distribution_at(k), h * v[k - 1])
            acc.append(manual)
        assert cumulative_log_mgf(m, h, 4) == pytest.approx(acc, rel=1e-13)

    def test_infinity_absorbs(self):
        m = RiskModel(Periodic((ShiftedExponential(1.0), Normal(-1.0, 1.0))))
        g = cumulative_log_mgf(m, 1.5, 4)
        assert g[0] == INF and g[3] == INF
        # past an explicit prefix too: the sums after its one law's +inf stay +inf
        prefix = RiskModel(ExplicitPrefix((ShiftedExponential(1.0, -3.0),)))
        assert cumulative_log_mgf(prefix, 1.5, 3) == [INF] * 3


class TestPeriodicStructure:
    """The prefix/tail split and the rate period, as RiskModel._laws records them."""

    def test_plain_cycle(self):
        m = cycle_model()
        laws = m._laws
        assert laws is not None and m._block is laws  # zero rates repeat with period 1
        assert laws.prefix == 0 and laws.length == 3 and laws.log_ratio == 0.0

    def test_prefix_and_rate_period(self):
        m = RiskModel(
            PrefixThenTail((Degenerate(1.0),), Periodic((Normal(-1.0, 1.0),))),
            rates=PeriodicRates((0.1, 0.2)),
        )
        block = m._block
        # the one-law cycle repeats over the rate period 2, which the block spans
        assert block.prefix == 1 and block.length == 2
        assert block.log_ratio == pytest.approx(-math.log(1.1 * 1.2), abs=1e-15)

    def test_indexed_has_no_periodic_structure(self):
        m = RiskModel(IndexedNormal(-0.5, 0.25))
        assert m._laws is None and m._block is None


class TestSupLogMgf:
    def test_attained_on_cycle(self):
        s = sup_log_mgf(cycle_model(), 2.0 / 3.0)
        assert s.status == "attained" and s.certified
        assert s.argmax == 1
        assert s.value == pytest.approx(0.7396733175683764, abs=1e-14)

    def test_unbounded_past_period_root(self):
        s = sup_log_mgf(cycle_model(), 0.75)
        assert s.status == "unbounded" and s.value == INF and s.certified

    def test_zero_exponent(self):
        s = sup_log_mgf(cycle_model(), 0.0)
        assert s.value == 0.0 and s.certified

    def test_indexed_normal_closed_form(self):
        m = RiskModel(IndexedNormal(-0.5, 0.25))
        s = sup_log_mgf(m, 1.0)
        assert s.status == "attained" and s.certified
        assert s.value == pytest.approx(0.25, abs=1e-14) and s.argmax == 1
        # at h = 2 the quadratic peaks at n = 2 with value h^3/4 = 2
        s = sup_log_mgf(m, 2.0)
        assert s.value == pytest.approx(2.0, abs=1e-13) and s.argmax == 2

    def test_indexed_two_point_closed_form(self):
        m = RiskModel(IndexedTwoPoint())
        s = sup_log_mgf(m, math.log(3.0))
        assert s.status == "attained" and s.certified
        assert s.value == pytest.approx(math.log(55.0 / 27.0), abs=1e-13)
        assert s.argmax in (2, 3)  # the n=3 step is an exact tie, settled by float noise

    def test_quasi_periodic_contracting(self):
        m = RiskModel(QuasiPeriodicScaled((Normal(1.0, 1.0),), 0.25))
        s = sup_log_mgf(m, 0.5)
        assert s.certified and s.value >= 1.0 * 0.5 + 0.125 - 1e-12
        assert s.status in ("attained", "limit")

    def test_interest_discounts_contract(self):
        m = RiskModel(Periodic((Normal(1.0, 1.0),)), rates=0.25)
        s = sup_log_mgf(m, 0.5)
        assert s.certified
        assert s.value < INF

    def test_scan_gives_up_honestly(self):
        # positive drift amplified against a slow scan budget: no certificate
        m = RiskModel(IndexedNormal(0.5, 0.0), rates=0.2)
        s = sup_log_mgf(m, 0.5, TruncationPolicy(k_max=60))
        assert s.status == "undetermined" and not s.certified

    def test_amplifying_scan_past_the_float_range(self):
        # the period laws' esssups, -1 and 0.5, leave the verdict to the scan;
        # 2^(k/2) leaves the float range near k = 2048, well inside the scan cap
        m = RiskModel(QuasiPeriodicScaled((Uniform(-2.0, -1.0), TwoPoint(0.5, 0.1, -3.0)), 2.0))
        s = sup_log_mgf(m, 1.0)
        assert s.status == "undetermined" and not s.certified and s.argmax == 1

    def test_a_scan_stops_at_a_value_that_is_not_a_number(self):
        # at h = 2 the amplified t = h e^c passes the float range near epoch
        # 2049, where the Uniform(-3, 0.5) term is inf - inf; the running
        # maximum G_1 = 3 stands, undetermined
        m = RiskModel(PrefixThenTail((Normal(0.5, 1.0),), QuasiPeriodicScaled((Uniform(-2.0, -1.0), Uniform(-3.0, 0.5)), 2.0)))
        s = sup_log_mgf(m, 2.0)
        assert (s.value, s.argmax, s.status, s.certified) == (3.0, 1, "undetermined", False)
        assert "epoch 2049" in s.note and "not a number" in s.note
        b = bound_optimize(m, 10.0)
        assert -INF < b.log_bound < 0.0 and not b.certified

    def test_a_block_stops_at_a_value_that_is_not_a_number(self):
        # at h = 1e9 the prefix terms are -inf and +inf, so G_2 = -inf + inf is
        # not a number: the block stops there, undetermined, as a scan does
        m = RiskModel(PrefixThenTail((Degenerate(-1e300), Normal(1e300, 3.0)), Periodic((Degenerate(0.0),))),
                      PeriodicRates((0.01, 0.0)))
        s = sup_log_mgf(m, 1e9)
        assert (s.value, s.argmax, s.status, s.certified) == (-INF, None, "undetermined", False)
        assert s.note == "scan stopped at epoch 2, whose value is not a number"

    @pytest.mark.parametrize("sup", [sup_log_mgf, per_increment_sup])
    def test_a_scan_stopped_after_a_divergent_term_is_unbounded(self, sup):
        # at h = 2 the first term is +inf, and the second, at t = 2e308 past
        # the float range, is not a number: the scan stops there, and the +inf
        # it read stands, certified
        m = RiskModel(ExplicitPrefix((ShiftedExponential(1.0, -5.0), Scaled(1e308, Uniform(-1.0, 1.0)))))
        s = sup(m, 2.0)
        assert (s.value, s.argmax, s.status, s.certified) == (INF, 1, "unbounded", True)

    def test_a_contracting_tail_gives_up_after_the_period_cap(self):
        # at a rate of 1e-6 the partial sums rise for about 10^6 periods; the
        # tail stops after 50,000, undetermined at the last period's envelope
        # (the true sup is about 62,500.5)
        m = RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))), ConstantRates(1e-6))
        s = sup_log_mgf(m, 1.5)
        assert (s.argmax, s.status, s.certified) == (None, "undetermined", False)
        assert s.note == "tail envelope did not converge within 50000 periods"
        assert s.value == pytest.approx(273038.569548447, rel=1e-9)

    def test_amplified_mixed_sign_laws(self):
        # esssups -1 and 0.5: the per-increment sup is +inf; the period slope
        # -1 + 0.5 leaves the partial sums to the scan
        m = RiskModel(QuasiPeriodicScaled((Uniform(-2.0, -1.0), TwoPoint(0.5, 0.1, -3.0)), 2.0))
        s = per_increment_sup(m, 1.0)
        assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "unbounded", True)
        assert sup_log_mgf(m, 1.0).status == "undetermined"
        # esssups 2 and -0.5: the period slope is positive, and so both sups are +inf
        m = RiskModel(QuasiPeriodicScaled((Uniform(-1.0, 2.0), Degenerate(-0.5)), 2.0))
        for sup in (sup_log_mgf, per_increment_sup):
            s = sup(m, 1e-9)
            assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "unbounded", True)

    def test_amplified_nonpositive_laws_peak_in_the_first_period(self):
        m = RiskModel(QuasiPeriodicScaled((Uniform(-2.0, -1.0),), 2.0))
        for sup in (sup_log_mgf, per_increment_sup):
            s = sup(m, 1.0)
            assert (s.status, s.certified, s.argmax) == ("attained", True, 1)
            assert s.value == log_mgf_at(Uniform(-2.0, -1.0), 1.0)

    def test_indexed_normal_vertex_past_the_float_range(self):
        # slope -2.2e-308: the partial sums peak near n = 1.8e308, which is not
        # a float; the closed form returns its maximum over real n
        s = sup_log_mgf(RiskModel(IndexedNormal(-2.2250738585072014e-308, 0.0)), 8.0)
        assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "limit", True)

    def test_indexed_normal_vertex_below_the_float_range(self):
        # slope -2.2e-313 and falling sums: -B / (2 A) overflows to -inf, and
        # the partial sums peak at n = 1
        s = sup_log_mgf(RiskModel(IndexedNormal(-2.2250738585e-313, -1.0)), 1.0)
        assert (s.value, s.argmax, s.status, s.certified) == (-0.5, 1, "attained", True)

    def test_exact_block_rounded_above_zero_stays_bounded(self):
        # every G_k is 0, but the term logaddexp(log 0.25, log 0.75) rounds to
        # 5.6e-17 and so the computed period sum is positive: with every period
        # law of esssup <= 0 that is rounding, and the sup is the first pass's
        m = RiskModel(Periodic((TwoPoint(0.0, 0.25, 0.0),)))
        for sup in (sup_log_mgf, per_increment_sup):
            s = sup(m, 1.0)
            assert (s.status, s.certified, s.argmax) == ("attained", True, 1)
            assert 0.0 <= s.value < 1e-15
        b = bound_at_h(m, 5.0, 1.0)
        assert b.certified and b.certificate is not None and b.log_bound == pytest.approx(-5.0)

    @pytest.mark.parametrize("law", [Normal(-1.0, 1.0), ShiftedExponential(2.0, -3.0)], ids=["normal", "shifted_exponential"])
    def test_amplified_unbounded_law_is_unbounded_at_every_h(self, law):
        m = RiskModel(PrefixThenTail((Uniform(-2.0, -1.0),), QuasiPeriodicScaled((law, Uniform(-3.0, -1.0)), 1.0005)))
        for sup in (sup_log_mgf, per_increment_sup):
            for h in (1e-9, 0.01, 1.0):
                s = sup(m, h, TruncationPolicy(k_max=10))
                assert (s.value, s.argmax, s.status, s.certified) == (INF, None, "unbounded", True)

    def test_finite_horizon_exact(self):
        m = RiskModel(ExplicitPrefix((Normal(1.0, 1.0), Normal(-5.0, 1.0))))
        s = sup_log_mgf(m, 1.0)
        assert s.status == "attained" and s.argmax == 1
        assert s.value == pytest.approx(1.5, abs=1e-14)


class TestTruncationPolicy:
    @pytest.mark.parametrize("k_max", [0, -5, 1.5, None])
    def test_cap_must_be_a_positive_integer(self, k_max):
        with pytest.raises(ValueError, match="k_max must be a positive integer"):
            TruncationPolicy(k_max=k_max)

    def test_one_epoch_cap_scans_one_epoch(self):
        s = sup_log_mgf(RiskModel(IndexedNormal(-0.5, 0.25), rates=0.01), 0.5, TruncationPolicy(k_max=1))
        assert s.argmax == 1 and s.status == "undetermined"


class TestPerIncrementSup:
    def test_worst_slot_of_cycle(self):
        m = RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))))
        s = per_increment_sup(m, 1.0)
        assert s.value == pytest.approx(0.25, abs=1e-14)
        assert s.argmax == 1 and s.certified

    def test_contracting_terms_approach_zero(self):
        m = RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=0.5)
        s = per_increment_sup(m, 1.0)
        # every term is negative and they rise toward zero: sup is exactly 0
        assert s.value == 0.0 and s.status == "limit" and s.certified

    def test_indexed_normal_first_term(self):
        m = RiskModel(IndexedNormal(-0.5, 0.25))
        s = per_increment_sup(m, 1.0)
        assert s.value == pytest.approx(0.25, abs=1e-14) and s.argmax == 1

    def test_indexed_normal_upward_unbounded(self):
        m = RiskModel(IndexedNormal(0.5, 0.0))
        s = per_increment_sup(m, 1.0)
        assert s.value == INF and s.status == "unbounded" and s.certified


class TestUnitRatioOverLongPeriod:
    """Scale 2 per epoch against a 100% rate: rho is exactly 1, while 2^1500
    and the discount over 1500 epochs both leave the float range."""

    model = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 2.0), PeriodicRates((1.0,) * 1500))
    # every term is log E exp(h Y) = -h + h^2/2 for Y ~ Normal(-1, 1)

    def test_cumulative_stays_exact(self):
        assert cumulative_log_mgf(self.model, 0.5, 1500)[-1] == pytest.approx(-562.5)

    def test_sups(self):
        s = sup_log_mgf(self.model, 0.5)
        assert s.status == "attained" and s.value == pytest.approx(-0.375, rel=1e-9)
        s = per_increment_sup(self.model, 0.5)
        assert s.status == "attained" and s.value == pytest.approx(-0.375, rel=1e-9)

    def test_roots(self):
        for r in (solve_partial_sum(self.model), solve_period_root(self.model, 1500)):
            assert r.certified and r.value == pytest.approx(2.0, abs=1e-8)

    def test_window_exponent(self):
        check = verify_window_exponent(self.model, 1500, 1, 0.5)
        assert check.ok and check.max_delta == pytest.approx(-562.5)

    def test_bounds(self):
        best = bound_optimize(self.model, 5.0)
        assert best.certified and best.log_bound == pytest.approx(-10.0, abs=1e-6)
        union = bound_union(self.model, 5.0, 0.5)
        expected = -2.5 - 0.375 - math.log1p(-math.exp(-0.375))
        assert union.certified and union.log_bound == pytest.approx(expected, rel=1e-9)


class TestTermKernel:
    def test_domain_edge_cuts_after_the_divergent_term(self):
        # t = h exactly at the ShiftedExponential rate diverges, as in log_mgf_at
        model = RiskModel(ExplicitPrefix((Normal(-1.0, 1.0), ShiftedExponential(0.75, -1.0), Normal(-1.0, 1.0))))
        terms = log_mgf_terms(model, 0.75, 3)
        assert terms.tolist() == [-0.75 + 0.5 * 0.75**2, INF]

    def test_zero_argument_gives_exact_zeros(self):
        model = RiskModel(ExplicitPrefix((ShiftedExponential(1.0, -1.0), Uniform(-1.0, 2.0))))
        assert log_mgf_terms(model, 0.0, 2).tolist() == [0.0, 0.0]

    def test_block_tiles_the_amplifying_period(self):
        model = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0), Uniform(-2.0, 1.0)), 1.5))
        terms = log_mgf_terms(model, 0.1, 9)
        expected = [log_mgf_at(model.distribution_at(k), 0.1) for k in range(1, 10)]
        assert terms.tolist() == pytest.approx(expected, rel=1e-13)

    def test_explicit_prefix_is_bounded_by_its_horizon(self):
        model = RiskModel(ExplicitPrefix((Normal(-1.0, 1.0),)))
        with pytest.raises(ModelIndexError):
            log_mgf_terms(model, 0.5, 2)


def _twopoint_reference(h):
    """fsum of the direct terms h - log(n+1) + log1p(n e^{-2h}) up to the last
    positive one, in chunks."""
    m = max(1, math.ceil(math.exp(h)) - 1)
    x = math.exp(-2.0 * h)
    parts = []
    for lo in range(1, m + 1, 1 << 20):
        n = np.arange(lo, min(m, lo + (1 << 20) - 1) + 1, dtype=float)
        parts.append(math.fsum(h - np.log(n + 1.0) + np.log1p(n * x)))
    return math.fsum(parts), m


class TestIndexedTwoPointClosedForm:
    model = RiskModel(IndexedTwoPoint())

    @pytest.mark.parametrize("h", [0.5, math.log(3.0), 5.0, 8.0, 11.2, 12.0, 16.0])
    def test_matches_the_direct_sum(self, h):
        value, m = _twopoint_reference(h)
        s = sup_log_mgf(self.model, h)
        assert s.status == "attained" and s.certified and s.argmax == m
        assert s.value == pytest.approx(value, rel=1e-13)

    def test_deep_exponent_is_cheap(self):
        s = sup_log_mgf(self.model, 32.0)
        assert s.argmax == math.ceil(math.exp(32.0)) - 1
        # Stirling's log (m+1)! with m + 1 = e^h + f, and the series' x S1 ~ 1/2:
        # G_m = m h - log (m+1)! + 1/2 + o(1) = m + 2 - 3h/2 - log(2 pi)/2 - f + o(1)
        m, h = s.argmax, 32.0
        f = m + 1 - math.exp(h)
        assert s.value == pytest.approx(m + 2.0 - 1.5 * h - 0.5 * math.log(2.0 * math.pi) - f, abs=0.5)

    @pytest.mark.parametrize("h", [705.0, 800.0])
    def test_past_the_float_range(self, h):
        s = sup_log_mgf(self.model, h)
        assert s.value == INF and s.status == "attained" and s.certified
        assert "diverg" not in s.note

    def test_scan_certificate_survives_a_huge_exponent(self):
        s = sup_log_mgf(RiskModel(IndexedTwoPoint(), ConstantRates(0.02)), 800.0)
        assert s.value > 0.0


class TestEventModelReduction:
    def test_plain_compound(self):
        em = EventModel(
            claim=Periodic((ShiftedExponential(1.0),)),
            interarrival=Periodic((ShiftedExponential(0.5),)),
            premium_rate=ConstantRates(1.0),
        )
        m = reduce_event_model(em)
        assert isinstance(m.increments, Periodic)
        assert m.increments.cycle == (CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5)),)
        assert m.zero_rates()

    def test_interest_wraps_and_sets_rates(self):
        em = EventModel(
            claim=Periodic((ShiftedExponential(1.0),)),
            interarrival=Periodic((ShiftedExponential(0.5),)),
            premium_rate=ConstantRates(1.0),
            reserve_interest=ConstantRates(0.1),
            premium_interest=ConstantRates(0.2),
        )
        m = reduce_event_model(em)
        inner = m.increments.cycle[0]
        assert isinstance(inner, Scaled) and inner.factor == pytest.approx(1.0 / 1.1)
        assert inner.inner.premium_rate == pytest.approx(1.2)
        assert m.rate_at(5) == pytest.approx(0.1)

    def test_explicit_pieces_reduce_to_explicit(self):
        em = EventModel(
            claim=ExplicitPrefix((ShiftedExponential(1.0), ShiftedExponential(2.0))),
            interarrival=Periodic((ShiftedExponential(0.5),)),
        )
        m = reduce_event_model(em)
        assert isinstance(m.increments, ExplicitPrefix)
        assert m.horizon() == 2

    def test_cycles_merge_to_lcm(self):
        em = EventModel(
            claim=Periodic((ShiftedExponential(1.0), ShiftedExponential(2.0))),
            interarrival=Periodic((ShiftedExponential(0.5), ShiftedExponential(0.6), ShiftedExponential(0.7))),
        )
        m = reduce_event_model(em)
        assert isinstance(m.increments, Periodic)
        assert len(m.increments.cycle) == 6

    SIM = ruinbounds.SimConfig(n_paths=8, horizon=4, workers=1)
    # each entry point on a model m (the bounds at u = 2, the sups at h = 0.1, the simulator on SIM)
    ENTRY_POINTS = {
        "bound_optimize": lambda m: ruinbounds.bound_optimize(m, 2.0),
        "bound_per_increment": lambda m: ruinbounds.bound_per_increment(m, 2.0),
        "bound_at_h": lambda m: ruinbounds.bound_at_h(m, 2.0, 0.1),
        "bound_union": lambda m: ruinbounds.bound_union(m, 2.0, 0.1),
        "bound_periodic": lambda m: ruinbounds.bound_periodic(m, 1, "scaled_periodic", u=2.0),
        "bound_kappa": lambda m: ruinbounds.bound_kappa(m, 2.0),
        "solve_partial_sum": ruinbounds.solve_partial_sum,
        "solve_per_increment": ruinbounds.solve_per_increment,
        "solve_period_root": lambda m: ruinbounds.solve_period_root(m, 1),
        "verify_window_exponent": lambda m: ruinbounds.verify_window_exponent(m, 1, 1, 0.1),
        "sup_log_mgf": lambda m: ruinbounds.sup_log_mgf(m, 0.1),
        "per_increment_sup": lambda m: ruinbounds.per_increment_sup(m, 0.1),
        "cumulative_log_mgf": lambda m: ruinbounds.cumulative_log_mgf(m, 0.1, 3),
        "Search": ruinbounds.Search,
        "iid_base": ruinbounds.iid_base,
        "simulate_ruin": lambda m: ruinbounds.simulate_ruin(m, 2.0, TestEventModelReduction.SIM),
        "simulate_ruin_grid": lambda m: ruinbounds.simulate_ruin_grid(m, [1.0, 2.0], TestEventModelReduction.SIM),
        "realize_path": lambda m: ruinbounds.realize_path(m, 4),
        "check_discount_ordering": lambda m: ruinbounds.check_discount_ordering(m, TestEventModelReduction.SIM),
        "check_bound_dominance": lambda m: ruinbounds.check_bound_dominance(m, [2.0], [1.0], TestEventModelReduction.SIM),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_entry_points_name_the_reduction(self, name):
        # an event model is reduced once by the caller: each entry point refuses
        # one, naming reduce_event_model, and runs on the reduced model
        em = EventModel(claim=Periodic((ShiftedExponential(1.0),)), interarrival=Periodic((ShiftedExponential(1.2),)))
        with pytest.raises(TypeError, match=r"reduce_event_model\(model\)"):
            self.ENTRY_POINTS[name](em)
        self.ENTRY_POINTS[name](reduce_event_model(em))

    def test_validation(self):
        with pytest.raises(ValueError):
            EventModel(claim=Periodic((Normal(0.0, 1.0),)), interarrival=Periodic((ShiftedExponential(1.0),)))
        with pytest.raises(ValueError):
            EventModel(
                claim=Periodic((ShiftedExponential(1.0),)),
                interarrival=Periodic((ShiftedExponential(1.0),)),
                premium_rate=ConstantRates(0.0),
            )
        with pytest.raises(ValueError):
            EventModel(claim=IndexedTwoPoint(), interarrival=Periodic((ShiftedExponential(1.0),)))
        # a bare law or a list is no rule: the caller names Periodic or ExplicitPrefix
        for claim in (ShiftedExponential(1.0), [ShiftedExponential(1.0)]):
            with pytest.raises(ValueError, match="explicit or periodic rule"):
                EventModel(claim=claim, interarrival=Periodic((ShiftedExponential(1.0),)))
