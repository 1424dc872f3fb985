import math

import numpy as np
import pytest

from ruinbounds import (
    INF,
    CompoundIncrement,
    Degenerate,
    FiniteDiscrete,
    Normal,
    Scaled,
    ShiftedExponential,
    TwoPoint,
    Uniform,
    has_atom_at,
    log_mgf,
    log_mgf_at,
    mean,
    mgf_domain,
    mgf_domain_sup,
    sample,
    support_bounds,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestLogMgfValues:
    def test_normal_closed_form(self):
        d = Normal(-0.5, 2.0)
        for t in (-1.5, 0.3, 2.0):
            assert log_mgf_at(d, t) == pytest.approx(-0.5 * t + t * t, rel=1e-14)

    def test_log_mgf_rejects_negative_argument(self):
        # the one-sided helper guards the bound pipelines; the signed variant
        # is log_mgf_at
        with pytest.raises(ValueError):
            log_mgf(Normal(0.0, 1.0), -0.5)

    def test_uniform_closed_form(self):
        d = Uniform(0.0, 2.0)
        t = 2.0 / 3.0
        expected = math.log((math.exp(2.0 * t) - 1.0) / (2.0 * t))
        assert log_mgf(d, t) == pytest.approx(expected, rel=1e-13)
        assert log_mgf(d, t) == pytest.approx(0.7396733175683764, abs=1e-15)

    def test_uniform_negative_argument(self):
        d = Uniform(-2.0, 0.0)
        t = 0.5
        expected = math.log((1.0 - math.exp(-2.0 * t)) / (2.0 * t))
        assert log_mgf(d, t) == pytest.approx(expected, rel=1e-13)

    def test_uniform_small_argument_stable(self):
        d = Uniform(0.0, 2.0)
        # series branch: log E e^{tU} = t + t^2/6 + O(t^4) for U(0,2)
        for t in (1e-9, -1e-9, 1e-7):
            assert log_mgf_at(d, t) == pytest.approx(t + t * t / 6.0, abs=1e-16)

    def test_uniform_large_argument_stable(self):
        d = Uniform(0.0, 1.0)
        val = log_mgf(d, 100.0)
        assert val == pytest.approx(100.0 - math.log(100.0) + math.log1p(-math.exp(-100.0)), rel=1e-14)
        assert math.isfinite(log_mgf(d, 700.0))
        assert log_mgf_at(d, -100.0) == pytest.approx(-math.log(100.0) + math.log1p(-math.exp(-100.0)), rel=1e-13)

    def test_uniform_huge_argument_from_the_upper_end(self):
        # t lower + log((e^x - 1)/x) cancels once x = t (upper - lower) passes ~1e15
        assert log_mgf_at(Uniform(-3.0, 0.0), 1e20) == pytest.approx(-math.log(3e20), rel=1e-15)
        # x past the float range: t upper - log t - log(upper - lower)
        t = 1.5e308
        assert log_mgf_at(Uniform(-3.0, 0.5), t) == pytest.approx(0.5 * t, rel=1e-15)
        laws = [Uniform(-3.0, 0.0), Uniform(-3.0, 0.5), Uniform(-2.0, -1.0), Uniform(0.0, 1.0)]
        ts = np.array([1e20, t, t, 100.0])
        with np.errstate(all="ignore"):  # as in a probe
            vec = Uniform._lmgf_vec(Uniform._table(laws), ts)
        assert vec.tolist() == [log_mgf_at(d, x) for d, x in zip(laws, ts.tolist())]
        assert np.isfinite(vec).all()

    def test_two_point(self):
        d = TwoPoint(1.0, 0.25, -1.0)
        t = 0.7
        assert log_mgf(d, t) == pytest.approx(math.log(0.25 * math.exp(t) + 0.75 * math.exp(-t)), rel=1e-14)

    def test_shifted_exponential(self):
        d = ShiftedExponential(1.0, -2.0)
        t = 0.5
        assert log_mgf(d, t) == pytest.approx(-2.0 * t - math.log(1.0 - t), rel=1e-14)

    def test_shifted_exponential_domain_boundary_diverges(self):
        d = ShiftedExponential(2.0)
        assert log_mgf(d, 2.0) == INF
        assert log_mgf(d, 2.5) == INF
        assert math.isfinite(log_mgf(d, 1.999999))

    def test_degenerate(self):
        assert log_mgf(Degenerate(-1.5), 3.0) == pytest.approx(-4.5)

    def test_finite_discrete_matches_two_point(self):
        a = TwoPoint(1.0, 0.3, -2.0)
        b = FiniteDiscrete(((1.0, 0.3), (-2.0, 0.7)))
        for t in (-1.0, 0.4, 2.0):
            assert log_mgf_at(a, t) == pytest.approx(log_mgf_at(b, t), rel=1e-13)

    def test_zero_is_exactly_zero(self):
        dists = [
            Normal(3.0, 5.0),
            Uniform(-1.0, 4.0),
            TwoPoint(2.0, 0.1, -1.0),
            ShiftedExponential(0.5, 1.0),
            Degenerate(9.0),
            Scaled(-2.5, Uniform(0.0, 1.0)),
            CompoundIncrement(ShiftedExponential(1.0), 2.0, ShiftedExponential(1.0)),
            FiniteDiscrete(((0.0, 0.5), (3.0, 0.5))),
        ]
        for d in dists:
            assert log_mgf(d, 0.0) == 0.0

    def test_nan_argument_rejected(self):
        with pytest.raises(ValueError):
            log_mgf(Normal(0.0, 1.0), float("nan"))


class TestScaledAndCompound:
    def test_scaled_composes_argument(self):
        inner = Uniform(-1.0, 2.0)
        for c in (0.5, -3.0, 2.0):
            d = Scaled(c, inner)
            for t in (-0.7, 0.3, 1.1):
                assert log_mgf_at(d, t) == pytest.approx(log_mgf_at(inner, c * t), rel=1e-14)

    def test_scaled_negative_factor_flips_domain(self):
        d = Scaled(-1.0, ShiftedExponential(1.0))
        # E e^{-tX} for X ~ Exp(1) is finite exactly when t > -1
        assert math.isfinite(log_mgf(d, 5.0))
        assert log_mgf_at(d, -1.0) == INF
        lo, hi = mgf_domain(d)
        assert lo == pytest.approx(-1.0)
        assert hi == INF

    def test_compound_is_claim_minus_premium_time(self):
        z = ShiftedExponential(1.0)
        th = ShiftedExponential(0.5)
        d = CompoundIncrement(z, 1.0, th)
        t = 0.4
        assert log_mgf(d, t) == pytest.approx(log_mgf(z, t) + log_mgf_at(th, -t), rel=1e-14)
        # root of the classical example sits at 1/2
        assert log_mgf(d, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_compound_negative_argument_can_diverge_via_premium(self):
        d = CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5))
        # at t <= -1/2 the premium side E e^{-t p theta} blows up
        assert log_mgf_at(d, -0.5) == INF
        lo, hi = mgf_domain(d)
        assert lo == pytest.approx(-0.5)
        assert hi == pytest.approx(1.0)

    def test_compound_validation(self):
        with pytest.raises(ValueError):
            CompoundIncrement(Normal(0.0, 1.0), 1.0, ShiftedExponential(1.0))  # claim can go negative
        with pytest.raises(ValueError):
            CompoundIncrement(ShiftedExponential(1.0), 1.0, Degenerate(0.0))  # interarrival stuck at 0
        with pytest.raises(ValueError):
            CompoundIncrement(ShiftedExponential(1.0), -1.0, ShiftedExponential(1.0))


class TestMomentsSupportAtoms:
    def test_means(self):
        assert mean(Normal(-0.25, 7.0)) == pytest.approx(-0.25)
        assert mean(Uniform(0.0, 2.0)) == pytest.approx(1.0)
        assert mean(TwoPoint(1.0, 0.5, -1.0)) == pytest.approx(0.0)
        assert mean(ShiftedExponential(1.0, -2.0)) == pytest.approx(-1.0)
        assert mean(Degenerate(4.0)) == pytest.approx(4.0)
        assert mean(Scaled(-2.0, Uniform(0.0, 1.0))) == pytest.approx(-1.0)
        classical = CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5))
        assert mean(classical) == pytest.approx(1.0 - 2.0)

    def test_support(self):
        assert support_bounds(Uniform(-2.0, 0.0)) == (-2.0, 0.0)
        assert support_bounds(Normal(0.0, 1.0)) == (-INF, INF)
        assert support_bounds(ShiftedExponential(1.0, -2.0)) == (-2.0, INF)
        assert support_bounds(Scaled(-1.0, ShiftedExponential(1.0, -2.0))) == (-INF, 2.0)
        classical = CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5))
        assert support_bounds(classical) == (-INF, INF)
        bounded = CompoundIncrement(Uniform(0.0, 1.0), 2.0, Uniform(0.5, 1.0))
        assert support_bounds(bounded) == (0.0 - 2.0 * 1.0, 1.0 - 2.0 * 0.5)

    def test_atoms(self):
        assert has_atom_at(Degenerate(3.0), 3.0)
        assert not has_atom_at(Degenerate(3.0), 2.0)
        assert has_atom_at(TwoPoint(1.0, 0.5, -1.0), -1.0)
        assert not has_atom_at(Uniform(0.0, 1.0), 0.5)
        assert has_atom_at(FiniteDiscrete(((0.0, 0.25), (2.0, 0.75))), 0.0)
        assert has_atom_at(Scaled(2.0, Degenerate(1.5)), 3.0)

    def test_domain_sup(self):
        assert mgf_domain_sup(Normal(0.0, 1.0)) == INF
        assert mgf_domain_sup(ShiftedExponential(3.0, -1.0)) == pytest.approx(3.0)
        assert mgf_domain_sup(Scaled(0.5, ShiftedExponential(3.0))) == pytest.approx(6.0)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Normal(0.0, 0.0),
            lambda: Normal(0.0, -1.0),
            lambda: Uniform(2.0, 2.0),
            lambda: Uniform(3.0, 1.0),
            lambda: TwoPoint(1.0, 1.5, -1.0),
            lambda: TwoPoint(1.0, -0.5, -1.0),
            lambda: ShiftedExponential(0.0),
            lambda: ShiftedExponential(-2.0),
            lambda: Scaled(0.0, Normal(0.0, 1.0)),
            lambda: FiniteDiscrete(()),
            lambda: FiniteDiscrete(((0.0, 0.4), (1.0, 0.4))),
            lambda: FiniteDiscrete(((0.0, -0.1), (1.0, 1.1))),
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_two_point_boundary_weights_degenerate_cleanly(self):
        # p1 at 0 or 1 collapses to a point mass rather than erroring
        assert log_mgf(TwoPoint(1.0, 0.0, -1.0), 2.0) == pytest.approx(-2.0)
        assert log_mgf(TwoPoint(1.0, 1.0, -1.0), 2.0) == pytest.approx(2.0)


class TestSampling:
    def test_seeded_moments(self):
        cases = [
            Normal(-0.5, 2.0),
            Uniform(-2.0, 0.0),
            TwoPoint(1.0, 0.25, -1.0),
            ShiftedExponential(1.0, -2.0),
            Scaled(-0.5, Uniform(0.0, 2.0)),
            CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5)),
            FiniteDiscrete(((0.0, 0.2), (1.0, 0.3), (5.0, 0.5))),
        ]
        n = 200_000
        for d in cases:
            xs = sample(d, rng(11), n)
            assert xs.shape == (n,)
            se = float(np.std(xs)) / math.sqrt(n)
            assert float(np.mean(xs)) == pytest.approx(mean(d), abs=6.0 * se + 1e-12)

    def test_samples_respect_support(self):
        d = ShiftedExponential(1.0, -2.0)
        xs = sample(d, rng(3), 10_000)
        assert xs.min() >= -2.0
        u = sample(Uniform(-2.0, 0.0), rng(4), 10_000)
        assert u.min() >= -2.0 and u.max() <= 0.0

    def test_degenerate_consumes_no_randomness(self):
        r1, r2 = rng(7), rng(7)
        sample(Degenerate(1.0), r1, 1000)
        a = r1.standard_normal(4)
        b = r2.standard_normal(4)
        assert np.array_equal(a, b)

    def test_two_point_frequencies(self):
        d = TwoPoint(1.0, 0.1, -1.0)
        xs = sample(d, rng(9), 100_000)
        assert set(np.unique(xs)) == {-1.0, 1.0}
        assert abs(float(np.mean(xs == 1.0)) - 0.1) < 0.005
