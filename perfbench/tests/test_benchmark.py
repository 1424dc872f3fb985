"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests

A tiny-size run of each workload must print every metric of BENCHMARK.json
by name and unit, pass the correctness gate, and leave at least ten samples
beyond its tail percentile. The gate and the tracer are also checked on
hand-made inputs.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import spans  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc, lines = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line and not line.startswith("req_tail_ms is")}
    assert all(printed.get(name) == unit for name, unit in expected.items())
    assert printed["error_share"] == "ratio"
    tail = next(line for line in lines if line.startswith("req_tail_ms is"))
    assert int(re.search(r"(\d+) beyond", tail).group(1)) >= 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(workload):
    proc, lines = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"], proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_run_without_package_fails_without_result():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, lines = _run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


BOUND = {"u": "5", "method": "optimized", "h_star": "1.5", "log10_bound": "-3.25", "C": "2", "L": "1.5",
         "certified": "true"}


def test_gate_accepts_tighter_certified_bound_and_rejects_looser():
    tighter = dict(BOUND, log10_bound="-3.5", h_star="1.6")
    looser = dict(BOUND, log10_bound="-3.0")
    assert check._compare_row(dict(BOUND), BOUND) is None
    assert check._compare_row(tighter, BOUND) is None
    assert check._compare_row(looser, BOUND) is not None
    assert check._compare_row(dict(BOUND, certified="false"), BOUND) == "row turned uncertified"
    assert check._compare_row(dict(BOUND, C="2.0000000001"), BOUND) is not None
    assert check._compare_row(dict(BOUND, C="2.000000000001"), BOUND) is None


def test_gate_oracles():
    classical = ("cli", ("bound", "--model", "classical_poisson_exponential", "--u", "1,2", "--method", "optimized"))
    below_exact = [dict(BOUND, u="1", log10_bound="-1")]
    assert check._oracles(classical, below_exact) is not None
    rising = [dict(BOUND, u="1", log10_bound="-0.5"), dict(BOUND, u="2", log10_bound="-0.4")]
    assert check._oracles(classical, rising) == "optimized curve increases in u"
    sim = ("simulate", "classical_poisson_exponential")
    row = {"u": "2", "n_paths": "100", "K": "10", "ruin_count": "18", "estimate": "0.18", "ci_low": "0.1",
           "ci_high": "0.2"}
    assert check._oracles(sim, [row]) is None
    assert check._oracles(sim, [dict(row, ci_high="0.15")]) is not None


def test_tracer_skips_missing_targets():
    target = types.SimpleNamespace(present=lambda x: 2 * x)
    original = target.present
    tracer = spans.Tracer()
    tracer._patch(target, "absent", lambda f: f)
    tracer._patch(target, "present", lambda f: tracer._span("cli", "present", f))
    assert target.present(3) == 6
    tracer.uninstall()
    assert tracer.missing == ["SimpleNamespace.absent"]
    assert len(tracer.spans) == 1 and target.present is original
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["cli.requests"][0] == 1
    assert metrics["models.terms"][0] == 0 and metrics["models.sup.calls"][0] == 0
