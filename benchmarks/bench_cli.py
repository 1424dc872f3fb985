"""Layer benchmarks for the command line (pytest-benchmark).

    python -m pytest benchmarks/bench_cli.py --benchmark-json=out.json

Outside the test suite's testpaths, so plain `python -m pytest` skips it.
In process, without the interpreter's start:

- main() of `bound` on the bundled alternating_normals config over a 5-point
  u-grid: parse the arguments, read the config (its model is kept from the
  first round on), five optimized bounds, and the CSV written to a discarded
  stdout;
- main() of `adjustment` on the bundled alternating_normals config: parse the
  arguments, read the config, and every coefficient that applies to it;
- repeated requests, as a long-running caller makes them: `adjustment` and
  `bound --method optimized` over a 5-point u-grid on each of the three
  contracting blocks of the light_curves workload (CONTRACTING), written to
  files once, six main() calls per round; from the second round on their
  models are warm;
- _emit of 200 bound rows, as CSV and as JSON, the formatting alone;
- main() of `bound --u 1:200:1` on the two scan models, IndexedNormal(-0.5,
  0.25) under a 1% rate and IndexedTwoPoint under 2%: 200 optimized bounds
  whose sups the scan settles.
"""

from __future__ import annotations

import contextlib
import io
import json
from argparse import Namespace

import pytest

from ruinbounds import cli
from ruinbounds.bounds import BoundResult, Certificate

COLUMNS = ["u", "method", "h_star", "log10_bound", "C", "L", "certified"]
_NORMAL = {"family": "normal", "variance": 1.0}
CONTRACTING = {
    "contracting_quasi_periodic": {"increments": {"kind": "quasi_periodic", "scale": 0.95, "cycle": [
        {**_NORMAL, "mean": -0.5}, {**_NORMAL, "mean": 0.25}]}},
    "prefix_then_tail_1pct": {"increments": {"kind": "prefix_tail", "prefix": [
        {**_NORMAL, "mean": 0.5}, {"family": "uniform", "lower": -1.0, "upper": 2.0},
        {"family": "two_point", "x1": 2.0, "p1": 0.3, "x2": -1.0}],
        "tail": {"kind": "periodic", "cycle": [{**_NORMAL, "mean": -0.5}]}}, "rates": {"kind": "constant", "rate": 0.01}},
    "alternating_normals_periodic_rates": {"increments": {"kind": "periodic", "cycle": [
        {**_NORMAL, "mean": -0.25}, {**_NORMAL, "mean": -0.75}]}, "rates": {"kind": "periodic", "values": [0.01, 0.03, 0.02]}},
}
SCAN_MODELS = {
    "indexed_normal_1pct": {"increments": {"kind": "indexed_normal", "slope": -0.5, "intercept": 0.25},
                            "rates": {"kind": "constant", "rate": 0.01}},
    "indexed_two_point_2pct": {"increments": {"kind": "indexed_two_point"},
                               "rates": {"kind": "constant", "rate": 0.02}},
}


def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_main_bound_5_point_grid(benchmark):
    code = benchmark(_main, ["bound", "--model", "alternating_normals", "--u", "1,2.5,5,10,20"])
    assert code == 0


def test_main_adjustment(benchmark):
    code = benchmark(_main, ["adjustment", "--model", "alternating_normals"])
    assert code == 0


def test_main_repeated_requests(benchmark, tmp_path):
    argvs = []
    for name, config in CONTRACTING.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argvs += [["adjustment", "--model", str(path)], ["bound", "--model", str(path), "--u", "1,2.5,5,10,20"]]
    codes = benchmark(lambda: [_main(argv) for argv in argvs])
    assert codes == [0] * len(argvs)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_200_rows(benchmark, fmt):
    rows = [cli._bound_row(BoundResult(u, -0.02 * u, 1.0, "optimized", Certificate(0.25, 1.0), True))
            for u in range(1, 201)]
    args = Namespace(format=fmt, out=None)
    with contextlib.redirect_stdout(io.StringIO()):
        benchmark(cli._emit, rows, COLUMNS, args)


@pytest.mark.parametrize("name", list(SCAN_MODELS))
def test_main_bound_curve_scan_model(benchmark, name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SCAN_MODELS[name]), encoding="utf-8")
    code = benchmark.pedantic(_main, (["bound", "--model", str(path), "--u", "1:200:1"],), rounds=3, iterations=1)
    assert code == 0
