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
IndexedTwoPoint series at h = 9, whose partial sums peak near n = e^9.
"""

from __future__ import annotations

from importlib import resources

import pytest

from bench_sup import _fresh, _mixed_prefix
from ruinbounds import IndexedTwoPoint, RiskModel, bound_union, load_model, solve_partial_sum, solve_per_increment
from ruinbounds.adjustment import _domain_cap

PREFIX = _mixed_prefix()
ALTERNATING = load_model(str(resources.files("ruinbounds") / "configs" / "alternating_normals.json"))


@pytest.mark.parametrize("solver", [solve_partial_sum, solve_per_increment], ids=["partial_sum", "per_increment"])
@pytest.mark.parametrize("name, model", [("explicit_prefix_5000", PREFIX), ("alternating_normals", ALTERNATING)])
def test_solver(benchmark, solver, name, model):
    r = benchmark.pedantic(solver, setup=_fresh(model), rounds=30 if model is PREFIX else 300)
    assert r.certified


def test_domain_cap_explicit_prefix_5000(benchmark):
    cap = benchmark.pedantic(_domain_cap, setup=_fresh(PREFIX), rounds=100)
    assert 0.0 < cap < float("inf")


def test_bound_union_indexed_two_point_h9(benchmark):
    r = benchmark.pedantic(bound_union, setup=lambda: ((RiskModel(IndexedTwoPoint()), 10.0, 9.0), {}), rounds=10)
    assert r.certified and r.certificate is not None
