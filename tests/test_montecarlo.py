import math
import warnings

import numpy as np
import pytest

from ruinbounds import (
    BATCH,
    CompoundIncrement,
    Degenerate,
    ExplicitPrefix,
    Normal,
    Periodic,
    PeriodicRates,
    QuasiPeriodicScaled,
    RiskModel,
    ShiftedExponential,
    SimConfig,
    TwoPoint,
    Uniform,
    bound_optimize,
    check_bound_dominance,
    check_discount_ordering,
    check_maximal_inequality,
    clopper_pearson,
    realize_path,
    simulate_ruin,
    simulate_ruin_grid,
)
from ruinbounds.montecarlo import _logistic, _solve_upper_tail


def classical():
    return RiskModel(Periodic((CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5)),)))


def uniform_exponential_cycle():
    return RiskModel(Periodic((Uniform(0.0, 2.0), Uniform(-2.0, 0.0), ShiftedExponential(1.0, -2.0))))


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        lo, hi = clopper_pearson(0, 100, 0.99)
        assert lo == 0.0
        assert hi == pytest.approx(0.05160402962410399, rel=1e-12)
        assert hi == pytest.approx(1.0 - 0.005 ** (1.0 / 100.0), rel=1e-12)

    def test_all_successes(self):
        lo, hi = clopper_pearson(50, 50, 0.95)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1.0 / 50.0), rel=1e-12)

    def test_interval_widens_with_confidence(self):
        lo9, hi9 = clopper_pearson(30, 200, 0.9)
        lo99, hi99 = clopper_pearson(30, 200, 0.99)
        assert lo99 < lo9 < 30 / 200 < hi9 < hi99

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(-1, 10)
        with pytest.raises(ValueError):
            clopper_pearson(11, 10)
        with pytest.raises(ValueError):
            clopper_pearson(1, 0)
        with pytest.raises(ValueError):
            clopper_pearson(1, 10, 1.0)


class TestClopperPearsonLevels:
    """The interval at the classical workload's 1 - 1e-9 confidence, against
    scipy.stats.beta.ppf(a/2, x, n-x+1) and beta.ppf(1 - a/2, x+1, n-x)."""

    CONFIDENCE = 1.0 - 1e-9

    def test_zero_successes_at_a_million(self):
        lo, hi = clopper_pearson(0, 10**6, self.CONFIDENCE)
        assert lo == 0.0
        assert hi == pytest.approx(2.1416183605031636e-05, rel=1e-12)
        # hi inverts the tail level 1 - (1 - a/2), 8e-8 relative above a/2;
        # at the level a/2 itself it would be 5e-9 relative higher
        a = 1.0 - self.CONFIDENCE
        assert abs(-math.expm1(math.log(a / 2.0) / 10**6) / hi - 1.0) > 1e-9

    def test_classical_workload_count(self):
        lo, hi = clopper_pearson(15035, 50_000, self.CONFIDENCE)
        assert lo == pytest.approx(0.2882639117117085, rel=1e-12)
        assert hi == pytest.approx(0.3133373038528348, rel=1e-12)
        a = 1.0 - self.CONFIDENCE
        at_half_a = _logistic(-_solve_upper_tail(50_000 - 15035, 50_000, a / 2.0))
        assert abs(at_half_a / hi - 1.0) > 1e-10

    @pytest.mark.parametrize("n", [1, 2, 37, 5000, 10**6])
    def test_monotone_in_x(self, n):
        xs = sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n} & set(range(n + 1)))
        los, his = zip(*(clopper_pearson(x, n, 0.99) for x in xs))
        assert all(a < b for a, b in zip(los, los[1:]))
        assert all(a < b for a, b in zip(his, his[1:]))

    @pytest.mark.parametrize("x, n", [(0, 100), (1, 100), (50, 100), (99, 100), (100, 100), (15035, 50_000), (3, 10**6)])
    def test_monotone_in_confidence(self, x, n):
        levels = [0.5, 0.8, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9]
        los, his = zip(*(clopper_pearson(x, n, c) for c in levels))
        assert all(a >= b for a, b in zip(los, los[1:]))
        assert all(a <= b for a, b in zip(his, his[1:]))
        if 0 < x < n:
            assert all(a > b for a, b in zip(los, los[1:])) and all(a < b for a, b in zip(his, his[1:]))

    def test_hi_is_one_once_the_level_rounds_away(self):
        # 1 - a/2 rounds to 1.0 at the largest double below 1: beta.ppf(1.0, ...) is 1
        lo, hi = clopper_pearson(3, 10, 0.9999999999999999)
        assert hi == 1.0 and 0.0 < lo < 0.3

    def test_integer_types(self):
        assert clopper_pearson(np.int64(30), np.int32(200), 0.9) == clopper_pearson(30, 200, 0.9)
        for x, n in [(True, 10), (1, True), (False, 1), (1.0, 10), (1, 10.0)]:
            with pytest.raises(ValueError):
                clopper_pearson(x, n)


class TestSimConfig:
    @pytest.mark.parametrize("workers", [0, -3, True, False, 2.5, "2", np.float64(2.0)])
    def test_workers_validation(self, workers):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(workers=workers)

    @pytest.mark.parametrize("workers", [None, 1, 3, np.int64(2)])
    def test_workers_accepted(self, workers):
        assert SimConfig(workers=workers).workers == workers

    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.n_paths == 100_000 and cfg.horizon == 5000 and cfg.confidence == 0.99
        assert cfg.stop_gap is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_paths": 0},
            {"horizon": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"stop_gap": 0.0},
            {"stop_gap": -1.0},
            {"n_paths": True},
            {"horizon": True},
            {"seed": False},
            {"seed": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_batch_constant(self):
        # the stream layout depends on this; it is part of the output contract
        assert BATCH == 65536


class TestSimulateRuin:
    def test_classical_covers_exact_answer(self):
        # the compound model with unit premium has psi(u) = e^{-u/2} / 2
        cfg = SimConfig(n_paths=200_000, horizon=2000, seed=5, stop_gap=60.0)
        res = simulate_ruin_grid(classical(), [1.0, 2.0, 4.0], cfg)
        assert [r.ruin_count for r in res] == [60659, 36971, 13624]
        for r in res:
            exact = 0.5 * math.exp(-r.u / 2.0)
            assert r.ci_low <= exact <= r.ci_high
            assert r.estimate == r.ruin_count / r.n_paths
            assert r.horizon_truncated

    def test_grid_monotone_in_u(self):
        cfg = SimConfig(n_paths=50_000, horizon=400, seed=1, stop_gap=60.0)
        res = simulate_ruin_grid(classical(), [0.5, 1.0, 2.0, 3.0, 5.0], cfg)
        counts = [r.ruin_count for r in res]
        assert counts == sorted(counts, reverse=True)

    def test_deterministic_across_worker_counts(self):
        m = uniform_exponential_cycle()
        kwargs = dict(n_paths=200_000, horizon=500, seed=9, stop_gap=60.0)
        r1 = simulate_ruin(m, 5.0, SimConfig(workers=1, **kwargs))
        r6 = simulate_ruin(m, 5.0, SimConfig(workers=6, **kwargs))
        assert r1.ruin_count == r6.ruin_count == 3477

    def test_horizon_extension_only_adds_ruin(self):
        # a path's draws do not depend on the horizon, so counts are monotone
        counts = []
        for K in (10, 50, 200):
            cfg = SimConfig(n_paths=100_000, horizon=K, seed=3)
            counts.append(simulate_ruin(classical(), 2.0, cfg).ruin_count)
        assert counts == [16926, 18079, 18079]
        assert counts == sorted(counts)

    def test_seed_changes_stream(self):
        cfg_a = SimConfig(n_paths=20_000, horizon=100, seed=0, stop_gap=60.0)
        cfg_b = SimConfig(n_paths=20_000, horizon=100, seed=1, stop_gap=60.0)
        a = simulate_ruin(classical(), 2.0, cfg_a).ruin_count
        b = simulate_ruin(classical(), 2.0, cfg_b).ruin_count
        assert a != b

    def test_never_ruined_interval(self):
        dg = RiskModel(Periodic((Degenerate(-1.0),)))
        r = simulate_ruin(dg, 5.0, SimConfig(n_paths=1000, horizon=50, seed=0))
        assert r.ruin_count == 0 and r.estimate == 0.0 and r.ci_low == 0.0
        # exact two-sided closed form at zero successes
        assert r.ci_high == pytest.approx(1.0 - 0.005 ** (1.0 / 1000.0), rel=1e-12)

    def test_grid_validation(self):
        cfg = SimConfig(n_paths=100, horizon=5)
        with pytest.raises(ValueError):
            simulate_ruin_grid(classical(), [], cfg)
        with pytest.raises(ValueError):
            simulate_ruin_grid(classical(), [0.0], cfg)
        with pytest.raises(ValueError):
            simulate_ruin_grid(classical(), [2.0, -1.0], cfg)

    def test_confidence_level_honored(self):
        cfg = SimConfig(n_paths=2000, horizon=1, seed=11, confidence=0.99)
        tp = RiskModel(Periodic((TwoPoint(1.0, 0.3, -1.0),)))
        covered = 0
        for s in range(200):
            r = simulate_ruin(tp, 0.5, SimConfig(n_paths=2000, horizon=1, seed=s))
            if r.ci_low <= 0.3 <= r.ci_high:
                covered += 1
        # one-step ruin probability is exactly 0.3; nominal coverage is 99%
        assert covered >= 190
        assert covered == 198  # frozen for this seed range


    def test_scaled_periodic_weights_stay_in_log_space(self):
        # scale 2 per epoch against a 100% rate: Y*_k ~ 2^(k-1) Normal(-1, 1) and
        # v_{k-1} = 2^-(k-1), whose product is 1 although 2^(k-1) leaves the float
        # range past k = 1024; the paths are those of the iid model
        model = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 2.0), PeriodicRates((1.0,) * 1500))
        cfg = SimConfig(n_paths=4000, horizon=1200, seed=5, workers=1)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = simulate_ruin_grid(model, [1.0, 3.0], cfg)
        iid = simulate_ruin_grid(RiskModel(Periodic((Normal(-1.0, 1.0),))), [1.0, 3.0], cfg)
        assert [r.ruin_count for r in scaled] == [r.ruin_count for r in iid]
        assert scaled[0].ruin_count > scaled[1].ruin_count

    def test_horizon_past_a_finite_model_is_rejected(self):
        model = RiskModel(ExplicitPrefix((Normal(-0.5, 1.0),) * 3))
        with pytest.raises(ValueError, match="simulation horizon 10 is past the model's horizon 3"):
            simulate_ruin_grid(model, [1.0], SimConfig(n_paths=100, horizon=10))
        assert simulate_ruin_grid(model, [1.0], SimConfig(n_paths=100, horizon=3))[0].horizon == 3


class TestRealizePath:
    def test_shapes_and_conventions(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)), rates=0.05)
        p = realize_path(m, 20, seed=4)
        assert p.y.shape == (21,) and p.s_star.shape == (21,)
        assert p.s_star[0] == 0.0 and p.v[0] == 1.0
        # floor rates: both conventions coincide
        assert np.allclose(p.s_star, p.s_star_star, atol=1e-12)

    def test_sampler_floor_enforced(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)), rates=0.05)
        with pytest.raises(ValueError):
            realize_path(m, 5, seed=0, alpha_sampler=lambda rng, k, floor, size: np.full(size, floor - 1.0))

    def test_scaled_rule_sums_stay_in_log_space(self):
        # epoch k's raw increment is 2^(k-1) x_k, past the float range from k = 1025,
        # while v_{k-1} = 2^-(k-1): the discounted sums are those of x_k / 2
        model = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 2.0), PeriodicRates((1.0,) * 1500))
        with warnings.catch_warnings():  # v_k itself underflows to 0, which numpy does not warn about
            warnings.simplefilter("error")
            p = realize_path(model, 1200, seed=3)
        iid = realize_path(RiskModel(Periodic((Normal(-1.0, 1.0),))), 1200, seed=3)
        assert np.isfinite(p.s_star).all() and np.isfinite(p.s_star_star).all()
        np.testing.assert_allclose(p.s_star, iid.s_star / 2.0, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(p.s_star_star, p.s_star, rtol=1e-9, atol=1e-9)
        assert p.y[1] == iid.y[1] and np.isinf(p.y[-1])

    def test_realized_rates_reduce_sums(self):
        m = RiskModel(Periodic((ShiftedExponential(1.0, -0.5),)), rates=0.0)
        p = realize_path(m, 50, seed=8, alpha_sampler=lambda rng, k, floor, size: floor + rng.standard_exponential(size))
        assert p.s_star_star.max() <= p.s_star.max() + 1e-12


class TestMaximalInequality:
    def test_centered_normal_at_its_root(self):
        # Normal(-1/2, 1) has log-MGF zero at h=1, so the bound is e^{-w} exactly
        cfg = SimConfig(n_paths=100_000, horizon=100, seed=17)
        rep = check_maximal_inequality([Normal(-0.5, 1.0)], 1.0, 3.0, 50, cfg)
        assert rep.ok
        assert rep.rhs_log == pytest.approx(-3.0, abs=1e-12)
        assert rep.ci_low <= rep.rhs
        assert rep.estimate == pytest.approx(0.02804, abs=1e-12)

    def test_cycle_case(self):
        cfg = SimConfig(n_paths=100_000, horizon=100, seed=17)
        dists = [Uniform(0.0, 2.0), Uniform(-2.0, 0.0), ShiftedExponential(1.0, -2.0)]
        rep = check_maximal_inequality(dists, 2.0 / 3.0, 6.0, 30, cfg)
        assert rep.ok
        # max of the prefix log-MGFs sits at the first, upward slot
        assert rep.rhs_log == pytest.approx(-4.0 + 0.7396733175683764, abs=1e-12)

    def test_divergent_h_degrades_to_trivial(self):
        cfg = SimConfig(n_paths=1000, horizon=10, seed=0)
        rep = check_maximal_inequality([ShiftedExponential(1.0)], 2.0, 1.0, 5, cfg)
        assert rep.ok and rep.rhs == 1.0

    def test_bool_n_is_rejected(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            check_maximal_inequality([Normal(0.0, 1.0)], 1.0, 1.0, True, SimConfig(n_paths=100, horizon=10))

    def test_validation(self):
        cfg = SimConfig(n_paths=100, horizon=10)
        with pytest.raises(ValueError):
            check_maximal_inequality([Normal(0.0, 1.0)], 1.0, 1.0, 0, cfg)
        with pytest.raises(ValueError):
            check_maximal_inequality([Normal(0.0, 1.0)], -1.0, 1.0, 5, cfg)
        with pytest.raises(ValueError, match="at least one law"):
            check_maximal_inequality([], 1.0, 1.0, 5, cfg)


class TestDiscountOrdering:
    def test_random_rates_above_floor(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)), rates=0.05)
        rep = check_discount_ordering(m, SimConfig(n_paths=20_000, horizon=60, seed=2))
        assert rep.ok
        assert rep.max_violation <= 1e-9

    def test_boundary_sampler_is_exact_to_roundoff(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)), rates=0.05)
        rep = check_discount_ordering(
            m,
            SimConfig(n_paths=20_000, horizon=60, seed=2),
            alpha_sampler=lambda rng, k, floor, size: np.full(size, floor),
            slack=1e-12,
        )
        assert rep.ok
        # equal rates make the two sums identical up to arithmetic order
        assert abs(rep.max_violation) < 1e-13

    def test_scaled_rule_stays_in_log_space(self):
        model = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 2.0), PeriodicRates((1.0,) * 1500))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_discount_ordering(model, SimConfig(n_paths=2000, horizon=1200, seed=3, workers=1))
        assert rep.ok and rep.max_violation <= 1e-9

    def test_sampler_below_floor_raises(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)), rates=0.05)
        with pytest.raises(ValueError):
            check_discount_ordering(
                m,
                SimConfig(n_paths=100, horizon=5, seed=2),
                alpha_sampler=lambda rng, k, floor, size: np.full(size, floor - 0.1),
            )


class TestBoundDominance:
    def test_classical_bounds_dominate(self):
        m = classical()
        us = [1.0, 2.0, 4.0]
        bounds = [bound_optimize(m, u) for u in us]
        rep = check_bound_dominance(m, us, bounds, SimConfig(n_paths=50_000, horizon=800, seed=4, stop_gap=60.0))
        assert rep.ok
        for row in rep.rows:
            assert row.dominated and not row.uninformative
            assert row.ci_low <= row.bound

    def test_uninformative_flag(self):
        m = classical()
        bounds = [bound_optimize(m, 80.0)]
        rep = check_bound_dominance(m, [80.0], bounds, SimConfig(n_paths=2000, horizon=200, seed=4, stop_gap=60.0))
        assert rep.ok
        assert rep.rows[0].uninformative
        assert rep.rows[0].bound < 1.0 / 2000

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            check_bound_dominance(classical(), [1.0, 2.0], [0.5], SimConfig(n_paths=100, horizon=5))

    def test_raw_float_bounds_accepted(self):
        rep = check_bound_dominance(classical(), [1.0], [1.0], SimConfig(n_paths=5000, horizon=100, seed=6, stop_gap=60.0))
        assert rep.ok and rep.rows[0].bound == 1.0
