"""Layer benchmarks for the sup reductions (pytest-benchmark).

    python -m pytest benchmarks/bench_sup.py --benchmark-json=out.json

Outside the test suite's testpaths, so plain `python -m pytest` skips it. Each
bench times one call: a truncated scan on the indexed families under
discounting, capped at 2000 epochs and, on IndexedNormal, at the default
10,000 (all certified at h = 0.5, so the scan stops after its first range),
the IndexedTwoPoint scan at h = 1.4e-6, near its partial-sum root, where
the terms stay above -1e-6 (certified by the family's proof after its first
64 epochs), the amplifying QuasiPeriodicScaled model of heavy_sups (a Normal
period law: +inf at every h > 0, read off the period laws), the scan of a
5000-law ExplicitPrefix, the IndexedTwoPoint closed form at
h = 16 (e^16 ~ 8.9 million epochs before its maximum), and, end to end, the
optimized bound of the bundled two_point_decay model at u = 60.

The kernel benches (test_kernel) time one family's vectorized log-MGF,
_lmgf_vec, on a 2000-row parameter table, the length of a heavy_sups scan:
once where every t falls in one branch (every t inside the domain, every
Uniform argument in the middle branch, every TwoPoint atom of positive
probability) and, with suffix _branches, where the masked path runs.

The 2000- and 10,000-epoch scans and the explicit prefix come twice. The warm one calls the same RiskModel every
round, as the solvers and the optimizer probe one model many times, so it
reads the probe plans the model keeps. The cold one (suffix _cold) gets a new
RiskModel of the same rule every round (_fresh), so its time includes what a
model builds on its first probe: its law record and the plans of its ranges.

The search benches (test_prefix_search) time one whole call of
bound_optimize (u = 10), solve_partial_sum and solve_per_increment on the
5000-law prefix, warm, as the heavy_sups benchmark calls them: 35-40 probes
each. The partial-sum probes of a call share one store of chord references,
which each call builds afresh; solve_per_increment's probes scan in full.
The model keeps each coefficient once solved (adjustment._solved), so a
solve here drops the kept one first (_searched) and searches again on the
plans the model keeps.
solve_partial_sum_at_cap is the search of another draw of the prefix
(seed 3) whose root is the MGF-domain cap (0.80072): every probe is feasible,
each lies above the ones before, and the probe at the cap is +inf.

Run as a script, it prints for each of those searches how many full scans it
ran and how many of its probes a chord reference closed (models._chord_probe):

    PYTHONPATH=src python benchmarks/bench_sup.py

The block benches (test_block) time one warm sup_log_mgf probe at h = 0.3 on
the periodic blocks of the light_curves workload (a contracting
QuasiPeriodicScaled cycle, alternating Normals under periodic rates, a prefix
of three families before a Normal tail at a 1% rate, a FiniteDiscrete cycle)
and on the contracting tail Periodic((Normal(-0.25, 1), Normal(-0.75, 1)))
under a constant rate of 1e-2 and 1e-4. At h = 0.3 both tails close after
their first period; at h = 1.2 the partial sums rise for about 10 and 900
periods before the tail envelope closes. The contracting QuasiPeriodicScaled
cycle at h = 1, 2 and 4 walks 29, 42 and 56 periods, and the prefixed tail at
h = 2 and 4 walks 68 and 138, as the optimizer's larger probes on them do.
"""

from __future__ import annotations

import random
from importlib import resources
from unittest.mock import patch

import numpy as np
import pytest

from ruinbounds import (
    ConstantRates,
    Degenerate,
    ExplicitPrefix,
    FiniteDiscrete,
    IndexedNormal,
    IndexedTwoPoint,
    Normal,
    Periodic,
    PeriodicRates,
    PrefixThenTail,
    QuasiPeriodicScaled,
    RiskModel,
    ShiftedExponential,
    TruncationPolicy,
    TwoPoint,
    Uniform,
    bound_optimize,
    load_model,
    solve_partial_sum,
    solve_per_increment,
    sup_log_mgf,
)
from ruinbounds import models
from ruinbounds.models import _sup_indexed_twopoint


def _fresh(model: RiskModel, *args):
    """pedantic setup: the call's arguments, with a new RiskModel of the same
    rule in front, so no round reads what an earlier round kept on the model."""
    return lambda: ((RiskModel(model.increments, model.rates, model.label), *args), {})

def _mixed_prefix(n: int = 5000, seed: int = 1) -> RiskModel:
    """n laws with negative drift, a quarter of each of four families."""
    rng = random.Random(seed)
    laws = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            laws.append(Normal(-0.3 - 0.9 * rng.random(), 0.5 + rng.random()))
        elif kind == 1:
            laws.append(Uniform(-2.0 - rng.random(), 1.0 + 0.5 * rng.random()))
        elif kind == 2:
            laws.append(TwoPoint(1.0, 0.2 + 0.15 * rng.random(), -1.0))
        else:
            laws.append(ShiftedExponential(0.8 + 0.4 * rng.random(), -1.5 - rng.random()))
    rng.shuffle(laws)
    return RiskModel(ExplicitPrefix(tuple(laws)))


SCANS = pytest.mark.parametrize("name, model, k_max", [
    ("indexed_normal_1pct", RiskModel(IndexedNormal(-0.5, 0.25), ConstantRates(0.01)), 2000),
    ("indexed_two_point_2pct", RiskModel(IndexedTwoPoint(), ConstantRates(0.02)), 2000),
    ("indexed_normal_1pct", RiskModel(IndexedNormal(-0.5, 0.25), ConstantRates(0.01)), 10_000),
])


@SCANS
def test_scan_2000(benchmark, name, model, k_max):
    s = benchmark(sup_log_mgf, model, 0.5, TruncationPolicy(k_max))
    assert s.value < float("inf")


@SCANS
def test_scan_2000_cold(benchmark, name, model, k_max):
    s = benchmark.pedantic(sup_log_mgf, setup=_fresh(model, 0.5, TruncationPolicy(k_max)), rounds=1000)
    assert s.value < float("inf")


def test_scan_two_point_near_root(benchmark):
    model = RiskModel(IndexedTwoPoint(), ConstantRates(0.02))
    s = benchmark(sup_log_mgf, model, 1.4e-6, TruncationPolicy(2000))
    assert s.value < float("inf")


def test_scan_amplifying_2000(benchmark):
    model = RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 1.0005))
    s = benchmark(sup_log_mgf, model, 0.5, TruncationPolicy(2000))
    assert s.status in ("undetermined", "unbounded")


def test_explicit_prefix_5000(benchmark):
    model = _mixed_prefix()
    s = benchmark(sup_log_mgf, model, 0.3)
    assert s.certified


def test_explicit_prefix_5000_cold(benchmark):
    s = benchmark.pedantic(sup_log_mgf, setup=_fresh(_mixed_prefix(), 0.3), rounds=100)
    assert s.certified


PREFIX = _mixed_prefix()
PREFIX_AT_CAP = _mixed_prefix(seed=3)


def _searched(solve, model: RiskModel):
    """solve(model) searched again: the coefficients the model keeps are
    dropped first, its plans are not."""
    for key in [key for key in model._memo if key[0] in ("partial_sum", "per_increment")]:
        del model._memo[key]
    return solve(model)


_SEARCHES = {
    "bound_optimize": lambda: bound_optimize(PREFIX, 10.0),
    "solve_partial_sum": lambda: _searched(solve_partial_sum, PREFIX),
    "solve_per_increment": lambda: _searched(solve_per_increment, PREFIX),
    "solve_partial_sum_at_cap": lambda: _searched(solve_partial_sum, PREFIX_AT_CAP),
}


@pytest.mark.parametrize("name", _SEARCHES)
def test_prefix_search(benchmark, name):
    r = benchmark(_SEARCHES[name])
    assert r.certified


def chord_counts() -> dict[str, tuple[int, int]]:
    """(full scans, probes that a chord closed) of each search in _SEARCHES: a
    partial-sum probe tries the chord references of its record first, and runs
    the full scan where they do not close it; a per-increment probe always
    runs it."""
    counts, scan, probe = {}, models._sup_scan, models._chord_probe
    for name, search in _SEARCHES.items():
        scans, results = [], []
        with patch.object(models, "_sup_scan", lambda *args: scans.append(args) or scan(*args)), \
                patch.object(models, "_chord_probe", lambda *args: results.append(probe(*args)) or results[-1]):
            search()
        closed = sum(r is not None for r in results)
        counts[name] = (len(scans) - closed, closed)
    return counts


def test_indexed_two_point_closed_form_h16(benchmark):
    s = benchmark(_sup_indexed_twopoint, IndexedTwoPoint(), 16.0, True)
    assert s.argmax == 8886110


def test_bound_optimize_two_point_decay_u60(benchmark):
    model = load_model(str(resources.files("ruinbounds") / "configs" / "two_point_decay.json"))
    b = benchmark(bound_optimize, model, 60.0)
    assert b.certified


_ROWS = 2000
# t = h w along a discounted scan: inside every domain, Uniform arguments in the
# middle branch; and a sweep that reaches every branch, t >= rate included
_T = 0.5 * np.exp(-0.001 * np.arange(_ROWS))
_T_BRANCHES = np.geomspace(1e-9, 40.0, _ROWS)


def _cycled(*laws):
    return [laws[i % len(laws)] for i in range(_ROWS)]


_KERNELS = {
    "normal": (Normal, _cycled(Normal(-0.5, 1.0), Normal(0.25, 2.0)), _T),
    "uniform": (Uniform, _cycled(Uniform(-2.0, 1.0), Uniform(-3.0, 1.5)), _T),
    "uniform_branches": (Uniform, _cycled(Uniform(-2.0, 1.0), Uniform(-3.0, 1.5)), _T_BRANCHES),
    "two_point": (TwoPoint, _cycled(TwoPoint(1.0, 0.2, -1.0), TwoPoint(1.0, 0.35, -1.0)), _T),
    "two_point_branches": (TwoPoint, _cycled(TwoPoint(1.0, 0.2, -1.0), TwoPoint(1.0, 0.0, -1.0)), _T),
    "shifted_exponential": (ShiftedExponential, _cycled(ShiftedExponential(0.8, -1.5), ShiftedExponential(1.2, -2.0)), _T),
    "shifted_exponential_branches": (ShiftedExponential,
                                     _cycled(ShiftedExponential(0.8, -1.5), ShiftedExponential(1.2, -2.0)), _T_BRANCHES),
    "degenerate": (Degenerate, _cycled(Degenerate(-1.0), Degenerate(0.5)), _T),
    "finite_discrete": (FiniteDiscrete, _cycled(FiniteDiscrete(((-2.0, 0.5), (1.0, 0.5))),
                                                FiniteDiscrete(((-1.0, 0.6), (2.0, 0.3), (0.0, 0.1)))), _T),
}


@pytest.mark.parametrize("name", _KERNELS)
def test_kernel(benchmark, name):
    cls, laws, t = _KERNELS[name]
    params = cls._table(laws)
    terms = benchmark(cls._lmgf_vec, params, t)
    assert terms.shape == t.shape and not np.isnan(terms).any()


_TWO_NORMALS = Periodic((Normal(-0.25, 1.0), Normal(-0.75, 1.0)))
_BLOCKS = {
    "contracting_quasi_periodic": RiskModel(QuasiPeriodicScaled((Normal(-0.5, 1.0), Normal(0.25, 1.0)), 0.95)),
    "alternating_normals_periodic_rates": RiskModel(_TWO_NORMALS, PeriodicRates((0.01, 0.03, 0.02))),
    "prefix_then_tail_1pct": RiskModel(PrefixThenTail((Normal(0.5, 1.0), Uniform(-1.0, 2.0), TwoPoint(2.0, 0.3, -1.0)),
                                                      Periodic((Normal(-0.5, 1.0),))), ConstantRates(0.01)),
    "finite_discrete_cycle": RiskModel(Periodic((FiniteDiscrete(((-2.0, 0.5), (1.0, 0.5))),
                                                 FiniteDiscrete(((-1.0, 0.6), (2.0, 0.3), (0.0, 0.1)))))),
    "two_normals_1e-2": RiskModel(_TWO_NORMALS, ConstantRates(1e-2)),
    "two_normals_1e-4": RiskModel(_TWO_NORMALS, ConstantRates(1e-4)),
}


@pytest.mark.parametrize("name, h", [*((name, 0.3) for name in _BLOCKS),
                                     ("contracting_quasi_periodic", 1.0), ("contracting_quasi_periodic", 2.0),
                                     ("contracting_quasi_periodic", 4.0), ("prefix_then_tail_1pct", 2.0),
                                     ("prefix_then_tail_1pct", 4.0), ("two_normals_1e-2", 1.2), ("two_normals_1e-4", 1.2)])
def test_block(benchmark, name, h):
    model = _BLOCKS[name]
    sup_log_mgf(model, h)  # what the model keeps, built once
    s = benchmark(sup_log_mgf, model, h)
    assert s.certified


if __name__ == "__main__":
    print(f"{'search':<26} {'full scans':>10} {'chords closed':>13}")
    for name, (scans, closed) in chord_counts().items():
        print(f"{name:<26} {scans:>10} {closed:>13}")
