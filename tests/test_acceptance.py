"""Acceptance gate: one test per shipped criterion, each printing a PASS line.

Every test times itself against the stated budget and exercises the public
API only. Monte Carlo runs use fixed seeds, so the whole gate is reproducible
run to run and machine to machine.
"""

import math
import os
import subprocess
import sys
import time

import pytest

import ruinbounds
from ruinbounds import (
    CompoundIncrement,
    IndexedNormal,
    IndexedTwoPoint,
    Normal,
    Periodic,
    PeriodicRates,
    RiskModel,
    ShiftedExponential,
    SimConfig,
    TwoPoint,
    Uniform,
    bound_at_h,
    bound_optimize,
    bound_periodic,
    bound_union,
    check_discount_ordering,
    check_maximal_inequality,
    cumulative_log_mgf,
    mgf_domain_sup,
    simulate_ruin,
    simulate_ruin_grid,
    solve_kappa,
    solve_partial_sum,
    solve_per_increment,
    solve_period_root,
    sup_log_mgf,
)
from ruinbounds.cli import EXTERNAL_REFERENCES, _resolve_model_path
from ruinbounds.serialize import load_model


ALTERNATING = RiskModel(Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0))))
THREE_PHASE = RiskModel(Periodic((Uniform(0.0, 2.0), Uniform(-2.0, 0.0),
                                  ShiftedExponential(1.0, -2.0))))
LINEAR_DRIFT = RiskModel(IndexedNormal(-0.5, 0.25))
TWO_POINT_DECAY = RiskModel(IndexedTwoPoint())
CLASSICAL_INCREMENT = CompoundIncrement(ShiftedExponential(1.0), 1.0,
                                        ShiftedExponential(0.5))
CLASSICAL = RiskModel(Periodic((CLASSICAL_INCREMENT,)))

BUNDLED = (
    "alternating_normals",
    "classical_poisson_exponential",
    "linear_drift_normals",
    "two_point_decay",
    "uniform_exponential_cycle",
)


def announce(capsys, n, budget, elapsed, message):
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.1f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS - {message} ({elapsed:.2f}s)")


def test_criterion_1_alternating_period_root_and_certificate(capsys):
    start = time.perf_counter()
    root = solve_period_root(ALTERNATING, 2)
    assert root.certified
    assert root.value == pytest.approx(1.0, abs=1e-8)

    res = bound_periodic(ALTERNATING, l=2, variant="shift_window",
                         exponent=1.0, start_index=1)
    cert = res.certificate
    assert cert.exponent == 1.0
    assert cert.c == pytest.approx(math.exp(0.25), rel=1e-9)
    announce(capsys, 1, 1.0, time.perf_counter() - start,
             f"period root {root.value:.10f}, certificate ({cert.c:.10f}, 1)")


def test_criterion_2_three_phase_certificate_and_million_path_check(capsys):
    start = time.perf_counter()
    cert_only = bound_periodic(THREE_PHASE, l=3, at_h=2.0 / 3.0)
    c1 = cert_only.certificate.c
    assert c1 <= 2.2
    assert cert_only.certificate.exponent >= 2.0 / 3.0

    far = bound_periodic(THREE_PHASE, l=3, at_h=2.0 / 3.0, u=576.0)
    assert far.log10_bound <= -165.0

    # the shipped reference curves have already collapsed to the trivial
    # bound at this reserve, while the certificate still certifies 1e-165
    name, c_ref, lam_ref = EXTERNAL_REFERENCES[0]
    assert name == "external_a"
    assert min(1.0, c_ref * math.exp(-lam_ref * 576.0)) == 1.0

    near = bound_periodic(THREE_PHASE, l=3, at_h=2.0 / 3.0, u=5.0)
    sim = simulate_ruin(THREE_PHASE, 5.0,
                        SimConfig(n_paths=10**6, horizon=2000, seed=11,
                                  stop_gap=60.0))
    assert sim.ci_low <= math.exp(near.log_bound)
    announce(capsys, 2, 30.0, time.perf_counter() - start,
             f"C1 {c1:.4f} <= 2.2, log10 bound at u=576 is {far.log10_bound:.2f}, "
             f"MC ci_low {sim.ci_low:.5f} under bound {math.exp(near.log_bound):.5f}")


def test_criterion_3_linear_drift_superexponential_decay(capsys):
    start = time.perf_counter()
    for u in (1.0, 3.0, 4.5, 12.0):
        res = bound_optimize(LINEAR_DRIFT, u)
        assert res.certified
        assert res.log_bound <= -4.0 * (u / 3.0) ** 1.5 + 1e-6

    # doubling the reserve buys e^{-u^{3/2}}: 4((2u)/3)^{3/2} >= u^{3/2}
    for u in (1.0, 4.0, 9.0):
        res = bound_optimize(LINEAR_DRIFT, 2.0 * u)
        assert res.log_bound <= -(u ** 1.5) + 1e-9
    announce(capsys, 3, 5.0, time.perf_counter() - start,
             "optimized bounds sit under -4(u/3)^{3/2} and certify psi(2u) <= exp(-u^{3/2})")


def test_criterion_4_two_point_decay_argmax_and_cubic_bound(capsys):
    start = time.perf_counter()
    for m in (2, 3, 5, 10):
        h = math.log(float(m))
        s = sup_log_mgf(TWO_POINT_DECAY, h)
        assert s.status == "attained" and s.certified
        # the maximizing epoch brackets e^h between consecutive integers
        assert s.argmax <= math.exp(h) + 1e-9
        assert math.exp(h) <= s.argmax + 1.0 + 1e-9

    deep = bound_optimize(TWO_POINT_DECAY, 103.0)
    assert deep.log10_bound <= -88.0

    at6 = bound_optimize(TWO_POINT_DECAY, 6.0)
    assert math.exp(at6.log_bound) <= (2.0 / 6.0) ** 3 + 1e-9
    sim = simulate_ruin(TWO_POINT_DECAY, 6.0,
                        SimConfig(n_paths=10**6, horizon=2000, seed=11,
                                  stop_gap=60.0))
    assert sim.ci_low <= math.exp(at6.log_bound)
    announce(capsys, 4, 30.0, time.perf_counter() - start,
             f"argmax tracks e^h, log10 bound at u=103 is {deep.log10_bound:.2f}, "
             f"u=6 bound {math.exp(at6.log_bound):.3g} dominates MC")


def test_criterion_5_classical_exact_oracle_within_interval(capsys):
    start = time.perf_counter()
    kappa = solve_kappa(CLASSICAL_INCREMENT)
    assert kappa.certified
    assert kappa.value == pytest.approx(0.5, abs=1e-8)

    # claims Exp(1), premium 1, interarrivals Exp(1/2): net profit ratio 1/2,
    # so psi(u) = 0.5 exp(-u/2) exactly. late recoveries from 60 below the
    # running maximum carry probability under exp(-30), far inside CI width
    rows = simulate_ruin_grid(CLASSICAL, [1.0, 2.0, 4.0],
                              SimConfig(n_paths=10**6, horizon=2000, seed=11,
                                        stop_gap=60.0))
    for u, row in zip((1.0, 2.0, 4.0), rows):
        exact = 0.5 * math.exp(-0.5 * u)
        assert row.ci_low <= exact <= row.ci_high
        assert math.exp(-0.5 * u) >= exact
    announce(capsys, 5, 60.0, time.perf_counter() - start,
             "kappa = 1/2 and the closed-form ruin probability sits inside "
             "every 99% interval")


def test_criterion_6_inequality_harness_and_structural_orderings(capsys):
    import random

    start = time.perf_counter()
    rng = random.Random(20260817)

    #50 randomized maximal-inequality confrontations, 1e5 paths each
    for i in range(50):
        cycle = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(4)
            if kind == 0:
                cycle.append(Normal(rng.uniform(-1.0, 0.5), rng.uniform(0.3, 2.0)))
            elif kind == 1:
                a = rng.uniform(-2.0, 0.5)
                cycle.append(Uniform(a, a + rng.uniform(0.5, 2.0)))
            elif kind == 2:
                cycle.append(TwoPoint(rng.uniform(0.2, 1.5), rng.uniform(0.05, 0.95),
                                      rng.uniform(-1.5, -0.2)))
            else:
                cycle.append(ShiftedExponential(rng.uniform(1.5, 3.0),
                                                rng.uniform(-2.0, 0.0)))
        h = rng.uniform(0.1, 1.4)
        w = rng.uniform(0.5, 4.0)
        n = rng.randint(3, 12)
        rep = check_maximal_inequality(cycle, h, w, n,
                                       SimConfig(n_paths=10**5, horizon=n,
                                                 seed=1000 + i))
        assert rep.ok, f"maximal inequality failed on draw {i}: {rep}"

    # realized rates above the floors never lift the discounted maximum
    floored = RiskModel(Periodic((Normal(-0.3, 1.0), Uniform(-1.0, 1.0),
                                  ShiftedExponential(2.0, -1.0))),
                        rates=PeriodicRates((0.0, 0.1, 0.05)))
    ordering = check_discount_ordering(floored,
                                       SimConfig(n_paths=10**5, horizon=40,
                                                 seed=77),
                                       slack=1e-9)
    assert ordering.ok
    assert ordering.max_violation <= 1e-9

    models = {name: load_model(_resolve_model_path(name)) for name in BUNDLED}

    # cumulative log-MGFs are convex in h
    for model in models.values():
        sup_h = min((mgf_domain_sup(model.distribution_at(k)) for k in range(1, 7)),
                    default=2.0)
        hi = 2.0 if sup_h == math.inf else 0.9 * sup_h
        hs = [hi * j / 6.0 for j in range(7)]
        for k in (1, 2, 5, 9):
            g = {h: cumulative_log_mgf(model, h, k)[-1] for h in hs}
            for a, b, c in zip(hs, hs[1:], hs[2:]):
                assert g[b] <= 0.5 * (g[a] + g[c]) + 1e-9

    # coefficient chain: per-increment <= partial-sum <= one-period root
    periods = {"alternating_normals": 2, "classical_poisson_exponential": 1,
               "uniform_exponential_cycle": 3}
    for name, model in models.items():
        per = solve_per_increment(model)
        partial = solve_partial_sum(model)
        assert per.certified and partial.certified
        assert per.value <= partial.value + 1e-9
        if name in periods:
            root = solve_period_root(model, periods[name])
            assert partial.value <= root.value + 1e-9

    # optimized bounds only improve with reserve
    for model in models.values():
        logs = [bound_optimize(model, u).log_bound for u in (1.0, 2.0, 5.0, 10.0)]
        assert all(b <= a + 1e-12 for a, b in zip(logs, logs[1:]))

    # summing over epochs can never beat the supremum certificate
    for name, model in models.items():
        sup_h = min((mgf_domain_sup(model.distribution_at(k)) for k in range(1, 7)),
                    default=2.0)
        hi = 1.0 if sup_h == math.inf else 0.5 * sup_h
        for h in (0.25 * hi, 0.6 * hi):
            union = bound_union(model, 5.0, h)
            pointwise = bound_at_h(model, 5.0, h)
            assert union.log_bound >= pointwise.log_bound - 1e-12
    announce(capsys, 6, 120.0, time.perf_counter() - start,
             "maximal inequality 50/50, pathwise discount ordering exact, "
             "convexity/chain/monotonicity/union orderings hold on the corpus")


def test_criterion_7_csv_is_byte_identical_across_thread_counts(capsys, tmp_path):
    start = time.perf_counter()
    src = os.path.dirname(os.path.dirname(ruinbounds.__file__))
    outputs = []
    for threads in ("1", "6"):
        dest = tmp_path / f"threads_{threads}.csv"
        env = dict(os.environ, RUINBOUND_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ruinbounds.cli", "simulate",
             "--model", "uniform_exponential_cycle", "--u", "2,5",
             "--paths", "200000", "--horizon", "500", "--stop-gap", "60",
             "--seed", "9", "--out", str(dest)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(dest.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"u,n_paths,K,ruin_count,")
    announce(capsys, 7, 60.0, time.perf_counter() - start,
             "simulate CSV identical under RUINBOUND_THREADS=1 and =6")
