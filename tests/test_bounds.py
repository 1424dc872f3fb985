import math
import time

import numpy as np
import pytest

from ruinbounds import (
    INF,
    BoundResult,
    Certificate,
    CompoundIncrement,
    Degenerate,
    ExplicitPrefix,
    IndexedNormal,
    IndexedTwoPoint,
    Normal,
    Periodic,
    PeriodHypothesisError,
    PrefixThenTail,
    QuasiPeriodicScaled,
    RiskModel,
    Search,
    ShiftedExponential,
    TruncationPolicy,
    Uniform,
    bound_at_h,
    bound_kappa,
    bound_optimize,
    bound_per_increment,
    bound_periodic,
    bound_union,
    cumulative_log_mgf,
    per_increment_sup,
    solve_partial_sum,
    solve_per_increment,
    sup_log_mgf,
)
from ruinbounds import adjustment, bounds, models


def alternating_normals():
    return RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))))


def uniform_exponential_cycle():
    return RiskModel(Periodic((Uniform(0.0, 2.0), Uniform(-2.0, 0.0), ShiftedExponential(1.0, -2.0))))


def linear_drift():
    return RiskModel(IndexedNormal(-0.5, 0.25))


def two_point_decay():
    return RiskModel(IndexedTwoPoint())


def classical():
    return RiskModel(Periodic((CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5)),)))


def record_probes(monkeypatch) -> list:
    """The (h, partial) of every sup evaluated from here on, whichever call or
    record asks for it (models._sup)."""
    probes = []
    sup = models._sup

    def recording(model, h, policy, partial):
        probes.append((h, partial))
        return sup(model, h, policy, partial)

    monkeypatch.setattr(models, "_sup", recording)
    return probes


class TestCertificate:
    def test_log_bound_clamps_at_one(self):
        c = Certificate(2.0, 0.5)
        assert c.log_bound_at(1.0) == 0.0
        assert c.log_bound_at(10.0) == pytest.approx(-3.0)
        assert c.c == pytest.approx(math.exp(2.0))

    def test_infinite_exponent(self):
        c = Certificate(0.0, INF)
        assert c.log_bound_at(5.0) == -INF
        assert c.log_bound_at(0.0) == 0.0

    def test_constant_past_the_float_range_is_infinite(self):
        assert Certificate(800.0, 1.0).c == INF
        assert Certificate(709.0, 1.0).c == pytest.approx(math.exp(709.0))


class TestFixedExponent:
    def test_linear_drift_closed_form(self):
        # sup at h=2 is 2 (peak of the quadratic), so the bound is e^{-6+2}
        r = bound_at_h(linear_drift(), 3.0, 2.0)
        assert r.log_bound == pytest.approx(-4.0, abs=1e-12)
        assert r.certified
        assert r.certificate == Certificate(2.0, 2.0)

    def test_divergent_sup_is_trivial(self):
        r = bound_at_h(uniform_exponential_cycle(), 5.0, 0.75)
        assert r.log_bound == 0.0 and r.certified and r.certificate is None
        assert "trivial" in r.note

    def test_clamped_at_one(self):
        # sup(1.0) = 0.25 dwarfs h*u for tiny u, so the raw product exceeds 1
        r = bound_at_h(alternating_normals(), 0.01, 1.0)
        assert r.log_bound == 0.0

    def test_undetermined_sup_not_certified(self):
        m = RiskModel(IndexedNormal(0.5, 0.0), rates=0.2)
        r = bound_at_h(m, 5.0, 0.5, TruncationPolicy(k_max=60))
        assert not r.certified and r.certificate is None
        assert "may understate" in r.note

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bound_at_h(alternating_normals(), 0.0, 1.0)
        with pytest.raises(ValueError):
            bound_at_h(alternating_normals(), -1.0, 1.0)
        with pytest.raises(ValueError):
            bound_at_h(alternating_normals(), 1.0, -0.5)
        with pytest.raises(ValueError):
            bound_at_h(alternating_normals(), 1.0, INF)


class TestOptimize:
    def test_cycle_frozen_values(self):
        m = uniform_exponential_cycle()
        r = bound_optimize(m, 5.0)
        assert r.log_bound == pytest.approx(-2.789700245821518, abs=1e-6)
        assert r.certified
        big = bound_optimize(m, 576.0)
        assert big.log10_bound == pytest.approx(-179.40691, abs=1e-3)
        # the optimal exponent parks just below the period root where the
        # supremum stays finite
        assert 0.71 < big.h_star < 0.7185814124

    def test_linear_drift_beats_fixed_exponent_scaling(self):
        # for this family min_h(-hu + sup) = -4 (u/3)^{3/2} at u on the lattice
        m = linear_drift()
        for u, expect in ((1.0, -0.78125), (3.0, -4.0), (4.5, -7.4999999), (12.0, -32.0)):
            r = bound_optimize(m, u)
            assert r.log_bound <= -4.0 * (u / 3.0) ** 1.5 + 1e-6
            assert r.log_bound == pytest.approx(expect, abs=1e-6)
            assert r.certified

    def test_two_point_decay_frozen(self):
        m = two_point_decay()
        r = bound_optimize(m, 6.0)
        assert r.log_bound == pytest.approx(-8.114770935802294, abs=1e-6)
        r103 = bound_optimize(m, 103.0)
        assert r103.log10_bound == pytest.approx(-165.79842017313237, abs=0.01)

    def test_never_exceeds_any_fixed_h(self):
        m = uniform_exponential_cycle()
        u = 9.0
        opt = bound_optimize(m, u).log_bound
        for h in np.linspace(0.05, 0.715, 12):
            assert opt <= bound_at_h(m, u, float(h)).log_bound + 1e-9

    def test_monotone_in_u(self):
        m = alternating_normals()
        vals = [bound_optimize(m, u).log_bound for u in (1.0, 2.0, 5.0, 11.0, 30.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_certificate_reevaluated_at_argmin(self):
        m = linear_drift()
        r = bound_optimize(m, 3.0)
        # the certificate must reproduce the reported bound at this u
        assert r.certificate.log_bound_at(3.0) == pytest.approx(r.log_bound, abs=1e-9)

    @pytest.mark.parametrize("model", [alternating_normals, uniform_exponential_cycle, linear_drift,
                                       two_point_decay, classical])
    def test_no_exponent_is_probed_twice(self, model, monkeypatch):
        # the result reuses the sup of the probe at h_star
        probes = record_probes(monkeypatch)
        for u in (1.0, 2.5, 5.0, 10.0, 20.0, 40.0):
            probes.clear()
            r = bound_optimize(model(), u)
            assert len(probes) == len(set(probes)), (u, r.h_star)

    def test_flat_objective_is_no_rise(self, monkeypatch):
        # -h u + sup_k G_k(h) is 0 at every h here: the bracket closes only at
        # a strict rise, so it doubles on through all of its 200 probes
        probes = record_probes(monkeypatch)
        r = bound_optimize(RiskModel(ExplicitPrefix((Degenerate(1.0),))), 1.0)
        assert (r.log_bound, r.h_star, r.certified) == (0.0, 0.0, True)
        assert 2.0**199 in {h for h, _ in probes}

    def test_nonpositive_paths_short_circuit(self):
        m = RiskModel(Periodic((Uniform(-2.0, -1.0),)))
        r = bound_optimize(m, 5.0)
        assert r.log_bound == -INF and r.h_star == INF
        assert r.certificate == Certificate(0.0, INF) and r.certified

    def test_drifting_up_settles_on_trivial(self):
        m = RiskModel(Periodic((Normal(0.5, 1.0),)))
        r = bound_optimize(m, 0.5)
        assert r.log_bound == 0.0 and r.h_star == 0.0 and r.certified

    def test_undetermined_scan_reported(self):
        m = RiskModel(IndexedNormal(0.5, 0.0), rates=0.2)
        r = bound_optimize(m, 4.0, policy=TruncationPolicy(k_max=60))
        assert isinstance(r, BoundResult)
        assert r.log_bound <= 0.0


class TestGridMemo:
    """One search record over a u-grid: the sups and certificates that do not
    depend on u are found once per grid, and no sup is kept between calls
    without it; the roots, which depend on neither h nor u, are kept on the
    model. Every function that searches over h takes the record in place of
    the model and runs under the record's policy."""

    GRID = (1.0, 2.5, 5.0, 10.0, 20.0)

    @staticmethod
    def _record(monkeypatch, name, module=bounds):
        calls = []
        original = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls

    @pytest.mark.parametrize("model", [alternating_normals, linear_drift,
                                       lambda: RiskModel(IndexedNormal(-0.5, 0.25), rates=0.01)],
                             ids=["alternating_normals", "linear_drift", "indexed_normal_1pct"])
    def test_grid_probes_fewer_sups(self, model, monkeypatch):
        probes = record_probes(monkeypatch)
        m = model()
        alone = [bound_optimize(m, u) for u in self.GRID]
        per_u = len(probes)
        probes.clear()
        search = Search(m)
        shared = [bound_optimize(search, u) for u in self.GRID]
        assert shared == alone
        assert len(probes) == len(set(probes)) < per_u

    @pytest.mark.parametrize("solver, call", [
        ("_sup_root", lambda m, u: bound_per_increment(m, u)),
        ("_period_root", lambda m, u: bound_periodic(m, 2, "periodic", u=u)),
        ("_period_root", lambda m, u: bound_periodic(m, 2, "scaled_periodic", u=u)),
    ], ids=["per_increment", "periodic", "scaled_periodic"])
    def test_grid_solves_the_root_once(self, solver, call, monkeypatch):
        # the root is kept on the model (adjustment._solved): one solve per
        # model, given the model or a record of a fresh one in its place
        solves = self._record(monkeypatch, solver, adjustment)
        m = alternating_normals()
        alone = [call(m, u) for u in self.GRID]
        assert len(solves) == 1
        solves.clear()
        search = Search(alternating_normals())
        assert [call(search, u) for u in self.GRID] == alone
        assert len(solves) == 1

    def test_grid_shares_the_window_maxima(self, monkeypatch):
        # one record for both variants, whose windows differ (k = 1..l against
        # k = 0..l-1): each finds the maximum of G_k over its window once per
        # h, the root's included, where its certificate and its searches read it
        windows = self._record(monkeypatch, "_window_max")
        m = alternating_normals()
        calls = [lambda m, u: bound_periodic(m, 2, "periodic", u=u),
                 lambda m, u: bound_periodic(m, 2, "scaled_periodic", u=u)]
        alone = [call(m, u) for call in calls for u in self.GRID]
        windows.clear()
        search = Search(m)
        assert [call(search, u) for call in calls for u in self.GRID] == alone
        assert len(windows) == len(set(windows))

    def test_no_cache_between_calls(self, monkeypatch):
        probes = record_probes(monkeypatch)
        solves = self._record(monkeypatch, "solve_per_increment")
        m = alternating_normals()
        counts = []
        for _ in range(2):
            probes.clear()
            solves.clear()
            bound_optimize(m, 5.0)
            bound_per_increment(alternating_normals(), 5.0)  # a fresh model: its root is kept on the model
            counts.append((len(probes), len(solves)))
        assert counts[0] == counts[1] and counts[0][0] > 0 and counts[0][1] == 1

    # the entry points that search over h, each a call on (a model or a record
    # in its place, a policy or None); bound_periodic reads no policy
    SEARCHES = {
        "sup_log_mgf": lambda m, p: sup_log_mgf(m, 0.5, p),
        "per_increment_sup": lambda m, p: per_increment_sup(m, 0.5, p),
        "bound_at_h": lambda m, p: bound_at_h(m, 5.0, 0.5, p),
        "bound_optimize": lambda m, p: bound_optimize(m, 5.0, p),
        "bound_per_increment": lambda m, p: bound_per_increment(m, 5.0, policy=p),
        "solve_partial_sum": lambda m, p: solve_partial_sum(m, policy=p),
        "solve_per_increment": lambda m, p: solve_per_increment(m, policy=p),
        "bound_periodic": lambda m, p: bound_periodic(m, 2, "periodic", u=5.0),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_a_record_in_place_of_the_model(self, name):
        call = self.SEARCHES[name]
        if name == "bound_periodic":
            m = alternating_normals()
            assert repr(call(Search(m), None)) == repr(call(m, None))
            return
        # a drift that turns positive past epoch 100, under a rate of 0.2%: a
        # scan of 60 epochs misses the rise, and every result differs
        m = RiskModel(IndexedNormal(0.01, -1.0), rates=0.002)
        short = TruncationPolicy(k_max=60)
        # a fresh record gives what the model gives, bitwise
        assert repr(call(Search(m), None)) == repr(call(m, None))
        # a record runs under its own policy
        assert repr(call(Search(m, short), None)) == repr(call(Search(m, short), TruncationPolicy(k_max=60))) \
            == repr(call(m, short)) != repr(call(m, None))
        # and refuses another
        for search, other in ((Search(m, short), TruncationPolicy()), (Search(m), short)):
            with pytest.raises(ValueError, match="its own policy"):
                call(search, other)

    def test_a_record_is_made_of_a_model(self):
        m = alternating_normals()
        for other in (Search(m), m.increments, None):
            with pytest.raises(TypeError, match="expected a RiskModel"):
                Search(other)

    @pytest.mark.parametrize("flavor, solve", [(True, solve_partial_sum), (False, solve_per_increment)],
                             ids=["partial", "per_increment"])
    def test_a_solve_probes_the_record_it_is_given(self, flavor, solve, monkeypatch):
        # a finite horizon: each solve probes the record it is given, where only
        # the partial sums keep chord references, and a bound hands its record to
        # its solve (the roots are kept on the model, so each solve counted gets
        # a fresh one)
        def fresh():
            return RiskModel(ExplicitPrefix((Normal(-0.5, 1.0),) * 200))

        search = Search(fresh())
        assert repr(solve(search)) == repr(solve(fresh()))
        assert bool(search.chords) == flavor
        probed, sup = [], models._sup
        monkeypatch.setattr(models, "_sup", lambda model, *args: probed.append(model) or sup(model, *args))
        search = Search(fresh())
        bound_per_increment(search, 5.0)
        assert probed and all(record is search for record in probed) and search.chords == []

    def test_a_probe_of_a_record_runs_under_its_policy(self):
        # a positive drift that a scan of 60 epochs leaves undetermined
        m = RiskModel(IndexedNormal(0.5, 0.0), rates=0.2)
        short = TruncationPolicy(k_max=60)
        search = Search(m, short)
        for sup in (sup_log_mgf, per_increment_sup):
            assert sup(search, 0.5) == sup(search, 0.5, short) == sup(m, 0.5, short) != sup(m, 0.5)
            with pytest.raises(ValueError, match="policy"):
                sup(search, 0.5, TruncationPolicy())


class TestPerIncrement:
    def test_iid_normal(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)))
        r = bound_per_increment(m, 4.0)
        # root L = 1, MGF factor at L is exactly 1, so psi(u) <= e^{-u}
        assert r.log_bound == pytest.approx(-4.0, abs=1e-9)
        assert r.certificate.exponent == pytest.approx(1.0, abs=1e-9)
        assert r.certificate.log_c == pytest.approx(0.0, abs=1e-9)

    def test_zero_root_gives_trivial(self):
        r = bound_per_increment(uniform_exponential_cycle(), 7.0)
        assert r.log_bound == 0.0
        assert "trivial" in r.note

    def test_infinite_root(self):
        m = RiskModel(Periodic((Uniform(-3.0, -1.0),)))
        r = bound_per_increment(m, 2.0)
        assert r.log_bound == -INF and r.certificate.exponent == INF

    def test_interior_minimum_when_u_small(self):
        # small u pulls the optimal h inside (0, L): min of -3h + h^2/2 on [0, 4]
        m = RiskModel(Periodic((Normal(-2.0, 1.0),)))
        r = bound_per_increment(m, 1.0)
        assert r.h_star == pytest.approx(3.0, abs=1e-4)
        assert r.log_bound == pytest.approx(-4.5, abs=1e-6)


class TestPeriodicVariants:
    def test_shift_window_certificate(self):
        r = bound_periodic(alternating_normals(), 2, "shift_window", exponent=1.0, start_index=1)
        assert r.certificate.c == pytest.approx(math.e**0.25, rel=1e-9)
        assert r.certificate.exponent == 1.0
        assert r.certified and "verified" in r.note
        assert r.u is None and "certificate-only" in r.note

    def test_shift_window_rejects_bad_exponent(self):
        with pytest.raises(PeriodHypothesisError):
            bound_periodic(alternating_normals(), 2, "shift_window", exponent=1.0 + 1e-4)

    def test_shift_window_needs_exponent(self):
        with pytest.raises(ValueError):
            bound_periodic(alternating_normals(), 2, "shift_window")

    def test_shift_window_rejects_at_h(self):
        with pytest.raises(ValueError):
            bound_periodic(alternating_normals(), 2, "shift_window", exponent=1.0, at_h=0.5)

    def test_periodic_sub_root_constant(self):
        m = uniform_exponential_cycle()
        r = bound_periodic(m, 3, "periodic", at_h=2.0 / 3.0)
        assert r.certificate.c == pytest.approx(2.0952509210123833, rel=1e-9)
        assert r.certificate.log_c == pytest.approx(0.7396733175683764, abs=1e-12)

    def test_periodic_root_constant(self):
        m = uniform_exponential_cycle()
        r = bound_periodic(m, 3, "periodic")
        assert r.certificate.c == pytest.approx(2.2326892119090638, rel=1e-8)
        assert r.h_star == pytest.approx(0.7185814123725071, abs=1e-8)

    def test_periodic_with_u_minimizes(self):
        m = uniform_exponential_cycle()
        r = bound_periodic(m, 3, "periodic", u=576.0, at_h=2.0 / 3.0)
        assert r.log10_bound == pytest.approx(-166.44784501061767, abs=1e-6)
        rr = bound_periodic(m, 3, "periodic", u=576.0)
        assert rr.log10_bound == pytest.approx(-179.40691442679753, abs=1e-3)

    def test_periodic_variant_requires_plain_cycle(self):
        with pytest.raises(PeriodHypothesisError):
            bound_periodic(RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=0.1), 1, "periodic")
        with pytest.raises(PeriodHypothesisError):
            bound_periodic(RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 0.5)), 1, "periodic")

    def test_at_h_beyond_root_rejected(self):
        with pytest.raises(ValueError):
            bound_periodic(uniform_exponential_cycle(), 3, "periodic", at_h=0.75)

    def test_scaled_periodic_includes_unit_constant(self):
        m = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 0.5))
        r = bound_periodic(m, 1, "scaled_periodic")
        # window is k in [0, l): only the empty sum, so C = 1
        assert r.certificate.log_c == 0.0
        assert r.certificate.exponent == pytest.approx(2.0, abs=1e-8)
        u3 = bound_periodic(m, 1, "scaled_periodic", u=3.0)
        assert u3.log_bound == pytest.approx(-6.0, abs=1e-6)

    def test_scaled_periodic_two_slot(self):
        m = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0), Normal(-2.0, 1.0)), 0.5))
        r = bound_periodic(m, 2, "scaled_periodic", u=3.0)
        assert r.certificate.exponent == pytest.approx(3.0, abs=1e-8)
        assert r.certificate.log_c == pytest.approx(1.5, abs=1e-8)
        assert r.log_bound == pytest.approx(-7.5, abs=1e-6)

    def test_scaled_periodic_handles_interest(self):
        m = RiskModel(Periodic((Normal(-1.0, 1.0),)), rates=0.1)
        r = bound_periodic(m, 1, "scaled_periodic", u=3.0)
        assert r.certified and r.log_bound < -5.9

    def test_infinite_period_root(self):
        m = RiskModel(Periodic((Uniform(-2.0, -1.0),)))
        r = bound_periodic(m, 1, "periodic", u=4.0)
        assert r.log_bound == -INF
        assert r.certificate == Certificate(0.0, INF)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            bound_periodic(alternating_normals(), 2, "windowed")

    @pytest.mark.parametrize("l", [2.5, True])
    def test_shift_window_needs_an_integer_period(self, l):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)))
        with pytest.raises(ValueError, match="integers"):
            bound_periodic(m, l, "shift_window", u=1.0, exponent=0.5)


class TestKappa:
    def test_classical(self):
        r = bound_kappa(classical(), 4.0)
        assert r.log_bound == pytest.approx(-2.0, abs=1e-8)
        assert r.certificate.log_c == 0.0
        assert r.h_star == pytest.approx(0.5, abs=1e-8)

    def test_needs_iid_base(self):
        with pytest.raises(ValueError):
            bound_kappa(alternating_normals(), 4.0)

    def test_valid_with_interest(self):
        m = RiskModel(Periodic((CompoundIncrement(ShiftedExponential(1.0), 1.0, ShiftedExponential(0.5)),)), rates=0.05)
        r = bound_kappa(m, 4.0)
        assert r.log_bound == pytest.approx(-2.0, abs=1e-8)


class TestUnion:
    def test_cycle_geometric_sum(self):
        m = uniform_exponential_cycle()
        r = bound_union(m, 30.0, 0.6)
        assert r.log_bound == pytest.approx(-14.75467294931498, abs=1e-9)
        assert r.certificate.log_c == pytest.approx(3.2453270506850194, abs=1e-9)
        assert r.certified

    def test_diverges_at_the_root_and_beyond(self):
        m = uniform_exponential_cycle()
        at_root = bound_union(m, 30.0, 0.7185814123725071)
        past = bound_union(m, 30.0, 0.9)
        for r in (at_root, past):
            assert r.log_bound == 0.0 and r.certificate is None

    def test_trivial_at_zero(self):
        r = bound_union(uniform_exponential_cycle(), 5.0, 0.0)
        assert r.log_bound == 0.0 and "diverges" in r.note

    def test_finite_horizon_exact(self):
        m = RiskModel(ExplicitPrefix((Normal(-1.0, 1.0), Normal(-0.5, 1.0))))
        r = bound_union(m, 2.0, 1.0)
        g = cumulative_log_mgf(m, 1.0, 2)
        manual = -2.0 + float(np.logaddexp(g[0], g[1]))
        assert r.log_bound == pytest.approx(manual, rel=1e-13)

    def test_prefix_then_cycle(self):
        m = RiskModel(PrefixThenTail((Normal(0.5, 1.0),), Periodic((Normal(-1.0, 1.0),))))
        r = bound_union(m, 8.0, 1.0)
        # prefix term e^{G_1} plus the geometric tail from the cycle
        tail = 1.0 - 0.5 - math.log1p(-math.exp(-0.5))
        assert r.log_bound == pytest.approx(-8.0 + float(np.logaddexp(1.0, tail)), rel=1e-12)

    def test_indexed_normal_tail_envelope(self):
        r = bound_union(linear_drift(), 3.0, 2.0)
        assert r.log_bound == pytest.approx(-3.1414041442544636, abs=1e-9)
        assert r.certified

    def test_indexed_two_point_tail_envelope(self):
        r = bound_union(two_point_decay(), 6.0, math.log(3.0))
        assert r.log_bound == pytest.approx(-4.150969803046124, abs=1e-9)

    def test_dominates_the_sup_bound(self):
        # the series includes the largest term, so union >= fixed-h everywhere
        cases = [
            (uniform_exponential_cycle(), 9.0, 0.6),
            (linear_drift(), 3.0, 2.0),
            (two_point_decay(), 6.0, 1.0),
        ]
        for m, u, h in cases:
            assert bound_union(m, u, h).log_bound >= bound_at_h(m, u, h).log_bound - 1e-12

    def test_deep_two_point_series_is_fast(self):
        # the partial sums peak near n = e^9 ~ 8100 and the tail is certified
        # a few hundred epochs later, within the default 10,000-epoch cap
        m = RiskModel(IndexedTwoPoint())
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            r = bound_union(m, 10.0, 9.0)
            elapsed.append(time.perf_counter() - t0)
        assert r.certified and r.certificate.log_c == pytest.approx(8094.583968715781, rel=1e-12)
        assert min(elapsed) < 0.05

    def test_no_structure_falls_back_to_trivial(self):
        m = RiskModel(IndexedNormal(-0.5, 0.25), rates=0.1)
        r = bound_union(m, 3.0, 1.0)
        assert r.log_bound == 0.0 and r.certified


class TestCertificateChain:
    def test_certificates_bound_their_own_methods(self):
        m = uniform_exponential_cycle()
        r = bound_periodic(m, 3, "periodic", u=40.0, at_h=2.0 / 3.0)
        # pointwise bound never exceeds the uniform certificate at the same u
        assert r.log_bound <= r.certificate.log_bound_at(40.0) + 1e-12

    def test_certificate_transfers_across_u(self):
        m = linear_drift()
        r = bound_optimize(m, 5.0)
        cert = r.certificate
        for u in (5.0, 6.0, 9.0):
            fresh = bound_optimize(m, u).log_bound
            assert fresh <= cert.log_bound_at(u) + 1e-9
