"""Layer benchmarks for the simulator (pytest-benchmark).

    python -m pytest benchmarks/bench_montecarlo.py --benchmark-json=out.json

Outside the test suite's testpaths, so plain `python -m pytest` skips it. The
sizes are those of the benchmark's simulate workload (perfbench):

- clopper_pearson at ruin counts of its three models: 50,000 paths at
  confidence 1 - 1e-9 (classical), 5000 and 12,500 paths at 0.99;
- _batch_maxima, the draw-and-accumulate loop, on one batch of 5000 paths
  over 2000 epochs for each model, so each law family's sampler shows:
  the classical compound increment with stop_gap 60, alternating Normals
  under periodic rates, and the Uniform/ShiftedExponential cycle;
- the cold start of the command line in a fresh interpreter: import, load
  the bundled classical config, simulate 1000 paths over 100 epochs at u = 2
  with its bound and interval, and exit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ruinbounds import Periodic, PeriodicRates, RiskModel, load_model
from ruinbounds.cli import _resolve_model_path
from ruinbounds.models import _layout
from ruinbounds.montecarlo import _batch_maxima, clopper_pearson

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("x, n, confidence", [
    (15091, 50_000, 1.0 - 1e-9), (3126, 50_000, 1.0 - 1e-9),
    (1211, 5000, 0.99), (26, 5000, 0.99),
    (1915, 12_500, 0.99), (219, 12_500, 0.99),
])
def test_clopper_pearson(benchmark, x, n, confidence):
    lo, hi = benchmark.pedantic(clopper_pearson, args=(x, n, confidence), rounds=200, warmup_rounds=1)
    assert 0.0 < lo < x / n < hi < 1.0


def _alternating_periodic_rates() -> RiskModel:
    base = load_model(_resolve_model_path("alternating_normals"))
    return RiskModel(Periodic(base.increments.cycle), PeriodicRates((0.01, 0.03, 0.02)))


@pytest.mark.parametrize("name, stop_gap", [
    ("classical_poisson_exponential", 60.0), ("alternating_normals_periodic_rates", None),
    ("uniform_exponential_cycle", None),
])
def test_batch_maxima(benchmark, name, stop_gap):
    model = (_alternating_periodic_rates() if name == "alternating_normals_periodic_rates"
             else load_model(_resolve_model_path(name)))
    laws, slot, c = _layout(model, 2000)
    dists = [laws.laws[s] for s in slot.tolist()]
    weights = np.exp(c)

    def setup():
        return (dists, weights, np.random.Generator(np.random.Philox(key=7)), 5000, 4.0, stop_gap), {}

    maxima = benchmark.pedantic(_batch_maxima, setup=setup, rounds=5)
    assert maxima.shape == (5000,) and (maxima >= 0.0).all()


def test_cli_simulate_cold_start(benchmark):
    argv = [sys.executable, "-m", "ruinbounds.cli", "simulate", "--model", "classical_poisson_exponential",
            "--u", "2", "--paths", "1000", "--horizon", "100", "--stop-gap", "60"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = benchmark.pedantic(subprocess.run, args=(argv,), kwargs=dict(env=env, capture_output=True, timeout=120),
                              rounds=10, warmup_rounds=1)
    assert proc.returncode == 0 and proc.stdout.startswith(b"u,n_paths")
