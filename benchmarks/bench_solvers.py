"""Layer benchmarks for the coefficient solvers, their support shortcuts and
the union series (pytest-benchmark).

    python -m pytest benchmarks/bench_solvers.py --benchmark-json=out.json

Outside the test suite's testpaths, so plain `python -m pytest` skips it.
Every round starts from a fresh RiskModel over the same (immutable) rule, as
a command-line request does after loading its config, so the times include
what a model builds and keeps on first use: its periodic block, its law
record and its support facts. The two solvers run on the scan of a 5000-law
ExplicitPrefix and on the one-period block of alternating_normals, the two
sides of the split between the vectorized term kernel and the scalar block
walk; _domain_cap runs on the prefix alone, and bound_union on the
IndexedTwoPoint series at h = 9, whose partial sums peak near n = e^9. The
scan cases of heavy_sups, IndexedNormal(-0.5, 0.25) at 1% and IndexedTwoPoint
at 2% under k_max = 2000, probe every point of their searches (the second's
root near 1.4e-6 the slack alone sets); the period root runs on the
contracting block of contracting_quasi_periodic. On a fresh model,
test_solver times only a model's first solve, which no perfbench workload's
timed phase holds: from then on the model keeps the coefficient.

test_solver_kept repeats each solve of test_solver on one warm model, which
keeps the coefficient once solved (models._Memo.kept), as a long-running
caller or a repeated command-line request does: set beside test_solver's
fresh model, it shows what a repeat call saves.
"""

from __future__ import annotations

from importlib import resources

import pytest

from bench_sup import _fresh, _mixed_prefix
from ruinbounds import (
    IndexedNormal,
    IndexedTwoPoint,
    Normal,
    QuasiPeriodicScaled,
    RiskModel,
    TruncationPolicy,
    bound_union,
    load_model,
    solve_partial_sum,
    solve_per_increment,
    solve_period_root,
)
from ruinbounds.adjustment import _domain_cap

PREFIX = _mixed_prefix()
ALTERNATING = load_model(str(resources.files("ruinbounds") / "configs" / "alternating_normals.json"))
HEAVY_POLICY = TruncationPolicy(2000)
SCANS = {"indexed_normal_1pct": RiskModel(IndexedNormal(-0.5, 0.25), 0.01),
         "indexed_two_point_2pct": RiskModel(IndexedTwoPoint(), 0.02)}
CONTRACTING = RiskModel(QuasiPeriodicScaled((Normal(-0.5, 1.0), Normal(0.25, 1.0)), 0.95))


@pytest.mark.parametrize("solver", [solve_partial_sum, solve_per_increment], ids=["partial_sum", "per_increment"])
@pytest.mark.parametrize("name, model", [("explicit_prefix_5000", PREFIX), ("alternating_normals", ALTERNATING)])
def test_solver(benchmark, solver, name, model):
    r = benchmark.pedantic(solver, setup=_fresh(model), rounds=30 if model is PREFIX else 300)
    assert r.certified


@pytest.mark.parametrize("solver", [solve_partial_sum, solve_per_increment], ids=["partial_sum", "per_increment"])
@pytest.mark.parametrize("name, model", [("explicit_prefix_5000", PREFIX), ("alternating_normals", ALTERNATING)])
def test_solver_kept(benchmark, solver, name, model):
    r = benchmark(solver, model)
    assert r.certified and r == solver(RiskModel(model.increments, model.rates, model.label))


@pytest.mark.parametrize("solver", [solve_partial_sum, solve_per_increment], ids=["partial_sum", "per_increment"])
@pytest.mark.parametrize("name", list(SCANS))
def test_solver_heavy_scan(benchmark, solver, name):
    r = benchmark.pedantic(solver, setup=_fresh(SCANS[name], 1e-10, HEAVY_POLICY), rounds=30)
    assert r.certified


def test_period_root_contracting_quasi_periodic(benchmark):
    r = benchmark.pedantic(solve_period_root, setup=_fresh(CONTRACTING, 2), rounds=300)
    assert r.certified and r.value > 0.0


def test_domain_cap_explicit_prefix_5000(benchmark):
    cap = benchmark.pedantic(_domain_cap, setup=_fresh(PREFIX), rounds=100)
    assert 0.0 < cap < float("inf")


def test_bound_union_indexed_two_point_h9(benchmark):
    r = benchmark.pedantic(bound_union, setup=lambda: ((RiskModel(IndexedTwoPoint()), 10.0, 9.0), {}), rounds=10)
    assert r.certified and r.certificate is not None
