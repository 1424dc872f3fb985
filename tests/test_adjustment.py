import math

import pytest

from ruinbounds import (
    INF,
    CompoundIncrement,
    ConstantRates,
    Degenerate,
    ExplicitPrefix,
    IndexedNormal,
    IndexedTwoPoint,
    Normal,
    Periodic,
    PeriodHypothesisError,
    PeriodicRates,
    PrefixThenTail,
    QuasiPeriodicScaled,
    RiskModel,
    ShiftedExponential,
    SimConfig,
    TruncationPolicy,
    TwoPoint,
    Uniform,
    bound_optimize,
    per_increment_sup,
    solve_kappa,
    solve_partial_sum,
    solve_per_increment,
    solve_period_root,
    simulate_ruin,
    sup_log_mgf,
    verify_window_exponent,
)
from ruinbounds import models as models_module
from ruinbounds.bounds import Certificate


def alternating_normals():
    return RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))))


def uniform_exponential_cycle():
    return RiskModel(Periodic((Uniform(0.0, 2.0), Uniform(-2.0, 0.0), ShiftedExponential(1.0, -2.0))))


class TestFrozenRoots:
    def test_alternating_normals(self):
        m = alternating_normals()
        # slot roots are -2*mean = 0.5 and 1.5; the smaller one binds both flavors
        assert solve_per_increment(m).value == pytest.approx(0.5, abs=1e-8)
        assert solve_partial_sum(m).value == pytest.approx(0.5, abs=1e-8)
        # over one full period the drifts pool: -h + h^2 = 0 at h = 1
        r = solve_period_root(m, 2)
        assert r.value == pytest.approx(1.0, abs=1e-8)
        assert r.certified and not r.boundary
        lo, hi = r.bracket
        assert lo <= r.value <= hi and hi - lo <= 1e-9

    def test_uniform_exponential_cycle(self):
        m = uniform_exponential_cycle()
        r = solve_period_root(m, 3)
        assert r.value == pytest.approx(0.7185814123725071, abs=1e-8)
        assert r.certified
        # the first slot drifts upward, so the stricter criteria pin h at 0
        assert solve_partial_sum(m).value == pytest.approx(0.0, abs=1e-9)
        assert solve_per_increment(m).value == pytest.approx(0.0, abs=1e-9)
        assert solve_partial_sum(m).certified

    def test_period_multiples_share_the_root_here(self):
        # the cycle MGF root happens to solve every multiple as well when the
        # single-period root makes the period increment mean-negative
        m = alternating_normals()
        r2 = solve_period_root(m, 2).value
        r4 = solve_period_root(m, 4).value
        assert r4 >= r2 - 1e-9

    def test_linear_drift_partial_sum(self):
        m = RiskModel(IndexedNormal(-0.125, 0.0))
        r = solve_partial_sum(m)
        assert r.value == pytest.approx(0.25, abs=1e-8)
        assert r.certified


class TestKappa:
    def test_classical_compound(self):
        dist = CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5))
        r = solve_kappa(dist)
        assert r.value == pytest.approx(0.5, abs=1e-8)
        assert r.certified
        lo, hi = r.bracket
        assert lo <= 0.5 <= hi

    def test_normal(self):
        assert solve_kappa(Normal(-0.5, 1.0)).value == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_drift_pins_zero(self):
        r = solve_kappa(Normal(0.5, 1.0))
        assert r.value == 0.0 and r.certified and "fails for every h > 0" in r.note

    def test_nonpositive_support_gives_infinity(self):
        r = solve_kappa(Uniform(-2.0, 0.0))
        assert r.value == INF and r.certified

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            solve_kappa(Normal(-1.0, 1.0), tol=0.0)


class TestSupportShortcuts:
    def test_all_negative_increments(self):
        m = RiskModel(Periodic((Uniform(-2.0, -1.0), Degenerate(-0.5))))
        for res in (solve_per_increment(m), solve_partial_sum(m), solve_period_root(m, 2)):
            assert res.value == INF and res.certified and res.bracket is None

    def test_partial_sum_shortcut_checks_prefixes(self):
        # first increment can reach +1 so S*_1 can be positive: no shortcut,
        # and the finite root comes from the bisection instead
        m = RiskModel(Periodic((Uniform(-1.0, 1.0), Degenerate(-3.0))))
        r = solve_partial_sum(m)
        assert r.value < INF
        assert r.certified

    def test_amplifying_quasi_period_blocks_shortcut(self):
        # block sum is negative but the scale amplifies in-block excursions
        m = RiskModel(QuasiPeriodicScaled((Uniform(-1.0, 1.0), Degenerate(-3.0)), 1.25))
        r = solve_partial_sum(m)
        assert r.value < INF


class TestUncertainScan:
    """A truncated scan without a family-level proof that the later terms are
    negative cannot certify its sup; the solver then refuses to certify."""

    def test_partial_sum_lower_estimate(self):
        # slope zero leaves no family-level decrease proof
        m = RiskModel(IndexedNormal(0.0, -1.0), rates=2.0)
        r = solve_partial_sum(m, policy=TruncationPolicy(k_max=60))
        assert not r.certified
        assert "lower estimate" in r.note
        assert r.value == pytest.approx(0.0, abs=1e-9)

    def test_per_increment_lower_estimate(self):
        # slope zero leaves no family-level decrease proof to fall back on
        m = RiskModel(IndexedNormal(0.0, -1.0), rates=2.0)
        r = solve_per_increment(m, policy=TruncationPolicy(k_max=60))
        assert not r.certified and r.value == pytest.approx(0.0, abs=1e-9)

    def test_the_proof_alone_certifies(self):
        # near the root the discounted terms lie in (-1e-6, 0) from epoch 17
        # on; the family's proof shows every later one negative
        m = RiskModel(IndexedNormal(-1.0, 0.0), rates=2.0)
        r = solve_partial_sum(m, policy=TruncationPolicy(k_max=60))
        assert r.certified and r.value == pytest.approx(2.0, abs=1e-8)

    def test_generous_window_restores_certification(self):
        m = RiskModel(IndexedNormal(-1.0, 0.0), rates=0.2)
        r = solve_partial_sum(m, policy=TruncationPolicy(k_max=400))
        assert r.certified
        assert r.value == pytest.approx(2.0, abs=1e-8)


class TestLongPeriodCycles:
    """A cycle whose effective period passes models._BLOCK_MAX keeps no block.
    Under rates >= 0 and a scale <= 1 every multiplier w of h lies in [0, 1],
    and g(h w) <= w max(0, g(h)) for each law's convex log-MGF g, so where no
    g(h) is above 0 every term is <= 0: the partial sums' sup is G_1(h),
    attained at epoch 1, and where the multipliers also approach 0, the
    per-increment sup is the terms' limit 0, both certified without a scan."""

    @staticmethod
    def model(rate: float) -> RiskModel:
        # 317 laws under 331 periodic rates: lcm 104,927 > _BLOCK_MAX
        return RiskModel(Periodic((Normal(-0.5, 1.0),) * 317), PeriodicRates((rate,) * 331))

    def test_per_increment_sup_is_the_limit_zero(self):
        m = self.model(0.01)
        assert m._block is None and m._laws is not None
        s = per_increment_sup(m, 0.5)
        assert (s.value, s.argmax, s.status, s.certified) == (0.0, None, "limit", True)
        above = per_increment_sup(m, 1.5)  # g(1.5) = 0.375 > 0: scanned, largest at epoch 1
        assert above.value == pytest.approx(0.375, rel=1e-15) and above.argmax == 1

    def test_per_increment_root_is_certified(self):
        m = self.model(0.01)
        r = solve_per_increment(m)
        assert r.certified and r.value == pytest.approx(1.0, abs=1e-9)
        partial = solve_partial_sum(m)
        assert partial.certified and partial.value == pytest.approx(1.0, abs=1e-9)

    def test_partial_sum_sup_is_the_first_term(self):
        for rate in (0.01, 0.0):  # no decay needed: every multiplier lies in [0, 1]
            s = sup_log_mgf(self.model(rate), 0.5)
            assert (s.value, s.argmax, s.status, s.certified) == (-0.125, 1, "attained", True)

    def test_multipliers_that_do_not_shrink_are_scanned(self):
        # zero rates and scale 1: every multiplier is 1, and every term is g(0.5)
        s = per_increment_sup(self.model(0.0), 0.5)
        assert s.status != "limit" and s.value == pytest.approx(-0.125, rel=1e-15)


class TestNeverBounded:
    """An amplifying block with a period law of unbounded support makes both
    criteria +inf at every h > 0: the solvers return a certified 0 and the
    optimizer the trivial bound, without probing an h."""

    @staticmethod
    def _refuse_probes(monkeypatch):
        def probe(*args):
            raise AssertionError("probed an h")

        monkeypatch.setattr(models_module, "_sup", probe)  # every sup, shared by a search record or not

    def test_decided_without_a_probe(self, monkeypatch):
        self._refuse_probes(monkeypatch)
        m = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 1.0005))
        for solve in (solve_partial_sum, solve_per_increment):
            r = solve(m, policy=TruncationPolicy(k_max=2000))
            assert (r.value, r.bracket, r.certified, r.boundary) == (0.0, (0.0, 0.0), True, False)
        b = bound_optimize(m, 10.0, TruncationPolicy(k_max=2000))
        assert (b.log_bound, b.h_star, b.certificate, b.certified) == (0.0, 0.0, Certificate(0.0, 0.0), True)

    def test_mixed_sign_blocks_decided_without_a_probe(self, monkeypatch):
        self._refuse_probes(monkeypatch)
        # a period law of esssup 0.5 > 0: the per-increment criterion is +inf
        m = RiskModel(QuasiPeriodicScaled((Uniform(-2.0, -1.0), TwoPoint(0.5, 0.1, -3.0)), 2.0))
        r = solve_per_increment(m)
        assert (r.value, r.bracket, r.certified, r.boundary) == (0.0, (0.0, 0.0), True, False)
        # and a positive period slope, 2 - 0.5: the partial-sum criterion too
        m = RiskModel(QuasiPeriodicScaled((Uniform(-1.0, 2.0), Degenerate(-0.5)), 2.0))
        for solve in (solve_partial_sum, solve_per_increment):
            r = solve(m)
            assert (r.value, r.bracket, r.certified, r.boundary) == (0.0, (0.0, 0.0), True, False)
        b = bound_optimize(m, 10.0)
        assert (b.log_bound, b.h_star, b.certificate, b.certified) == (0.0, 0.0, Certificate(0.0, 0.0), True)

    def test_a_period_slope_behind_a_large_prefix(self):
        # the period slope is 1e-11 > 0, which a running sum that carries the
        # prefix's -1e6 rounds to 0: the verdict reads the period's own sums,
        # so the solver, the optimizer and the sup agree that the criterion is
        # +inf at every h > 0, where a certified +inf root and a certified
        # -inf bound were reported before
        m = RiskModel(PrefixThenTail((Degenerate(-1e6),),
                                     QuasiPeriodicScaled((Degenerate(-1.0), Degenerate(1.0 + 1e-11)), 2.0)))
        s = sup_log_mgf(m, 1.0)
        assert (s.value, s.status, s.certified) == (INF, "unbounded", True)
        r = solve_partial_sum(m)
        assert (r.value, r.bracket, r.certified) == (0.0, (0.0, 0.0), True)
        b = bound_optimize(m, 5.0)
        assert (b.log_bound, b.h_star, b.certificate, b.certified) == (0.0, 0.0, Certificate(0.0, 0.0), True)
        # the one path passes u = 5 at epoch 115
        sim = simulate_ruin(m, 5.0, SimConfig(n_paths=100, horizon=150, seed=1))
        assert sim.ruin_count == 100


class TestHoldsAtEveryH:
    """Where every partial sum (or every increment) is nonpositive a.s., the
    solver returns a certified +inf and the optimizer the -inf bound, from the
    esssups alone, without probing an h."""

    NONPOSITIVE_CYCLE = RiskModel(Periodic((Uniform(-2.0, -1.0), Degenerate(-0.5))))
    # esssups -1 then 0.5: the partial sums stay <= 0, the increments do not
    PREFIX = RiskModel(ExplicitPrefix((Degenerate(-1.0), Uniform(-3.0, 0.5), TwoPoint(-0.5, 0.3, -2.0))))
    CONTRACTING = RiskModel(QuasiPeriodicScaled((Degenerate(-1.0), Uniform(-1.0, 0.5)), 0.5), ConstantRates(0.05))

    @pytest.mark.parametrize("model, per_increment", [(NONPOSITIVE_CYCLE, True), (PREFIX, False),
                                                      (CONTRACTING, False)], ids=["cycle", "prefix", "contracting"])
    def test_decided_without_a_probe(self, model, per_increment, monkeypatch):
        TestNeverBounded._refuse_probes(monkeypatch)
        for solve in (solve_partial_sum, solve_per_increment) if per_increment else (solve_partial_sum,):
            r = solve(model)
            assert (r.value, r.bracket, r.certified, r.boundary) == (INF, None, True, False)
        b = bound_optimize(model, 3.0)
        assert (b.log_bound, b.h_star, b.certificate, b.certified) == (-INF, INF, Certificate(0.0, INF), True)


class TestPeriodHypotheses:
    def test_requires_cyclic_increments(self):
        with pytest.raises(PeriodHypothesisError):
            solve_period_root(RiskModel(IndexedNormal(-0.5, 0.25)), 2)

    def test_l_must_be_cycle_multiple(self):
        with pytest.raises(PeriodHypothesisError):
            solve_period_root(alternating_normals(), 3)
        with pytest.raises(PeriodHypothesisError):
            solve_period_root(alternating_normals(), 0)

    def test_rate_period_must_divide_l(self):
        m = RiskModel(Periodic((Normal(-1.0, 1.0), Normal(-1.0, 1.0))), rates=PeriodicRates((0.1, 0.2, 0.3)))
        with pytest.raises(PeriodHypothesisError):
            solve_period_root(m, 2)
        assert solve_period_root(m, 6).value > 0.0

    def test_expanding_scale_rejected(self):
        m = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 1.5))
        with pytest.raises(PeriodHypothesisError):
            solve_period_root(m, 1)


class TestWindowExponent:
    def test_periodic_at_the_root(self):
        w = verify_window_exponent(alternating_normals(), 2, 1, 1.0)
        assert w and w.reason == "periodic tail, all phases checked"
        assert w.max_delta <= 1e-12

    def test_periodic_just_past_the_root(self):
        w = verify_window_exponent(alternating_normals(), 2, 1, 1.0 + 1e-6)
        assert not w
        assert w.reason == "window criterion fails at a checked index"
        assert 0.0 < w.max_delta < 3e-6

    def test_indexed_tail_is_unverifiable(self):
        w = verify_window_exponent(RiskModel(IndexedNormal(-0.5, 0.25)), 2, 1, 0.5)
        assert not w and w.reason == "unverifiable-tail"

    def test_contracting_quasi_period(self):
        m = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 0.5))
        w = verify_window_exponent(m, 1, 1, 1.0)
        assert w and w.reason == "contracting tail with nonpositive terms"

    def test_finite_horizon_exhaustive(self):
        m = RiskModel(ExplicitPrefix((Normal(-1.0, 1.0), Normal(-0.5, 1.0), Normal(-1.0, 1.0), Normal(-0.5, 1.0))))
        w = verify_window_exponent(m, 2, 1, 0.9)
        assert w and w.reason == "finite horizon, exhaustive"
        assert w.checked_through == 4
        assert w.max_delta == pytest.approx(-0.54, abs=1e-12)

    def test_window_longer_than_horizon(self):
        m = RiskModel(ExplicitPrefix((Normal(-1.0, 1.0),)))
        w = verify_window_exponent(m, 3, 1, 0.9)
        assert w and w.reason == "finite horizon shorter than one window"
        assert w.max_delta == -INF

    def test_two_point_decay_window(self):
        # every one-step window term turns negative past e^h, and the start
        # offset m controls whether the early positive terms are in scope
        m = RiskModel(IndexedTwoPoint())
        bad = verify_window_exponent(m, 1, 1, 1.0)
        assert not bad
        # from far enough out every remaining term is negative
        good = verify_window_exponent(m, 1, 10, 0.1)
        assert good.ok or good.reason == "unverifiable-tail"

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            verify_window_exponent(alternating_normals(), 0, 1, 1.0)
        with pytest.raises(ValueError):
            verify_window_exponent(alternating_normals(), 2, 0, 1.0)
        with pytest.raises(ValueError):
            verify_window_exponent(alternating_normals(), 2, 1, -0.5)
        # indices that are not integers, where a window would be sliced by them
        for l, m in ((2.5, 1), (2, 1.5), (True, 1), (2, True)):
            with pytest.raises(ValueError, match="integers"):
                verify_window_exponent(alternating_normals(), l, m, 0.5)


class TestResultInvariants:
    @pytest.mark.parametrize(
        "model",
        [
            alternating_normals(),
            uniform_exponential_cycle(),
            RiskModel(IndexedNormal(-0.5, 0.25)),
            RiskModel(Periodic((CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5)),))),
        ],
        ids=["alternating", "cycle", "drift", "classical"],
    )
    def test_per_increment_never_exceeds_partial_sum(self, model):
        a = solve_per_increment(model).value
        b = solve_partial_sum(model).value
        assert a >= b - 1e-9 or a == b == 0.0
        # the one-step criterion is weaker, so its coefficient dominates
        assert a + 1e-9 >= b

    def test_bracket_straddles_value(self):
        r = solve_partial_sum(alternating_normals(), tol=1e-6)
        lo, hi = r.bracket
        assert lo <= r.value <= hi
        assert hi - lo <= 2e-6
