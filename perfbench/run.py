"""Benchmark of the ruinbounds package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the package is imported from its src/
directory. Workloads: light_curves, heavy_sups, simulate (see README.md).

A run generates the workload's inputs from the seed, times the cold start in
fresh interpreters, warms up, then repeats the workload's round of requests,
one client in a closed loop, until at least S seconds have passed (and at
least two rounds). Every output goes through the correctness gate of check.py.
The last line printed is one JSON object: correct, attempted, failed, and the
metrics - end to end with --trace 0, per layer with --trace 1.

The traced run repeats the rounds twice, untraced and then with the layer
boundaries wrapped (spans.py); the difference is the tracing overhead. Spans
are written to perfbench/out/. End-to-end numbers come from untraced runs only.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
COLD_START_SPAWNS = {"full": 5, "tiny": 1}
IMPORT_SPAWNS = {"full": 3, "tiny": 1}
PROBES_PER_GAP = 3  # probes between two requests
PROBES_PER_SPAWN = 15  # probes on each side of a cold-start spawn
# Reference speed_probe() medians, taken on a 2-core KVM Xeon at 2.1 GHz: between requests, and in
# the tight loop around a spawn, where the probe runs with warm caches. On that host the medians
# themselves ranged over 0.6-1.0 ms and 0.55-0.75 ms as its load changed.
PROBE_REF_S = 1.0e-3
PROBE_REF_SPAWN_S = 6.2e-4
_PROBE_X = np.linspace(0.0, 1.0, 2000)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    The host's speed drifts by a third within minutes, and changes within a
    second, as other tenants come and go. So the probe runs between requests,
    and every reported time is scaled by PROBE_REF_S over the probe's median
    time around it. The probe calls nothing of the package, so no change to
    the package can move it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.exp(-i * 1e-3) * (i % 7)
    for _ in range(30):
        acc += float((np.exp(-_PROBE_X) * _PROBE_X).sum())
    return time.perf_counter() - t0


def speed(probes: list[float], reference: float = PROBE_REF_S) -> float:
    """Machine slowness against the reference: 1.0 on the reference machine."""
    return statistics.median(probes) / reference


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "ruinbounds" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {src}; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(src))
    import ruinbounds

    if Path(ruinbounds.__file__).resolve().parent != src / "ruinbounds":
        sys.exit(f"error: imported ruinbounds from {ruinbounds.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# statistics


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between order statistics at position q (n - 1)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def beyond(n: int, q: float) -> int:
    """Samples above the q-quantile position among n."""
    return n - 1 - math.floor(q * (n - 1))


def min_rounds(per_round: int, q: float) -> int:
    """Fewest rounds (at least two) that leave ten samples beyond the tail."""
    k = 2
    while beyond(k * per_round, q) < 10:
        k += 1
    return k


# ---------------------------------------------------------------------------
# set-up probes


def _spawn(argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run a child to completion: (process, wall seconds, machine slowness around it)."""
    before = [speed_probe() for _ in range(PROBES_PER_SPAWN)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    return proc, elapsed, speed(before + [speed_probe() for _ in range(PROBES_PER_SPAWN)], PROBE_REF_SPAWN_S)


def cold_start_s(workload: str, config_dir: Path, spawns: int) -> float:
    """Median time of fresh interpreters that import the package, load the
    workload's configs and finish one minimal request."""
    argv = [sys.executable, str(HERE / "coldstart.py"), workload, str(config_dir)]
    return statistics.median(elapsed / slowness for _, elapsed, slowness in (_spawn(argv) for _ in range(spawns)))


def _parse_importtime(text: str) -> tuple[float, float]:
    """(seconds to import ruinbounds, seconds of it spent importing scipy)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # header
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped)) // 2, stripped, int(cumulative) * 1e-6))
    package = next(c for d, n, c in entries if n == "ruinbounds")
    scipy = 0.0
    for i, (depth, name, cumulative) in enumerate(entries):
        if not name.startswith("scipy"):
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if not parent.startswith("scipy"):
            scipy += cumulative
    return package, scipy


def import_breakdown(spawns: int) -> tuple[float, float]:
    """Median (import ruinbounds, its scipy imports) seconds, from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src'); import ruinbounds"]
    runs = []
    for _ in range(spawns):
        proc, _, slowness = _spawn(argv)
        runs.append([t / slowness for t in _parse_importtime(proc.stderr)])
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


# ---------------------------------------------------------------------------
# timed rounds


class Phase:
    """Per round and request: latency, machine slowness, outputs; per round: rows."""

    def __init__(self, n_requests: int) -> None:
        self.latencies: list[list[float]] = []
        self.slowness: list[list[float]] = []
        self.round_rows: list[int] = []
        self.outputs: list[list] = [[] for _ in range(n_requests)]

    def scaled_round_s(self) -> list[float]:
        return [sum(t / f for t, f in zip(lat, slow)) for lat, slow in zip(self.latencies, self.slowness)]

    def scaled_latencies(self) -> list[float]:
        return sorted(t / f for lat, slow in zip(self.latencies, self.slowness) for t, f in zip(lat, slow))


def run_rounds(requests, run_one, seconds: float, min_n: int, max_n: int | None = None, tracer=None) -> Phase:
    """Rounds of requests until min_n rounds and `seconds` have passed, or max_n rounds.

    Probes bracket every request, and the request's time is scaled by the
    slowness of the probes on both sides of it: the host's speed changes
    within a second, so a per-round average tracks it less well.
    """
    phase = Phase(len(requests))
    start = time.perf_counter()
    while True:
        latencies, rows = [], 0
        probes = [[speed_probe() for _ in range(PROBES_PER_GAP)]]
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request = (len(phase.latencies), i)
            t0 = time.perf_counter()
            try:
                result = run_one(request)
                rows += len(result)
            except Exception as e:  # recorded and judged by the correctness gate
                result = e
            latencies.append(time.perf_counter() - t0)
            phase.outputs[i].append(result)
            probes.append([speed_probe() for _ in range(PROBES_PER_GAP)])
        phase.latencies.append(latencies)
        phase.slowness.append([speed(a + b) for a, b in zip(probes, probes[1:])])
        phase.round_rows.append(rows)
        n = len(phase.latencies)
        if n == max_n or (n >= min_n and time.perf_counter() - start >= seconds):
            return phase


def _row_stats(outputs: list) -> tuple[float, float]:
    """(share of rows flagged certified=false, mean log10_bound) over one round."""
    rows = [row for runs in outputs if isinstance(runs[0], list) for row in runs[0]]
    flagged = [r for r in rows if "certified" in r]
    uncertified = sum(r["certified"] == "false" for r in flagged) / len(flagged) if flagged else 0.0
    logs = [float(r["log10_bound"]) for r in rows if "log10_bound" in r and math.isfinite(float(r["log10_bound"]))]
    return uncertified, (statistics.fmean(logs) if logs else 0.0)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ruinbounds benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the workload's cheap requests and one cold start, for the self-test")
    args = parser.parse_args(argv)

    _import_package()
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    configs, requests = workloads.build(args.workload, args.seed)
    if args.size == "tiny":
        requests = workloads.quick(args.workload, requests)
    config_dir = OUT / f"{args.workload}-seed{args.seed}" / "configs"
    workloads.write_configs(configs, config_dir)
    q = workloads.TAIL_PERCENTILE[args.workload] / 100.0
    rounds_needed = min_rounds(len(requests), q)

    metrics: dict[str, tuple[float, str]] = {}
    printed: dict[str, tuple[float, str]] = {}  # workload-specific end-to-end numbers, not in the JSON line
    if args.trace:
        import_s, scipy_s = import_breakdown(IMPORT_SPAWNS[args.size])
    else:
        setup_s = cold_start_s(args.workload, config_dir, COLD_START_SPAWNS[args.size])

    models = workloads.load_models(config_dir, requests)

    def run_one(request):
        return workloads.execute(request, config_dir, models)

    run_rounds(workloads.quick(args.workload, requests), run_one, 0.0, 1, 1)  # warm-up

    if args.trace:
        import spans

        plain = run_rounds(requests, run_one, args.seconds / 2.0, 1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            k = len(plain.latencies)
            traced = run_rounds(requests, run_one, 0.0, k, k, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        slowness = statistics.median(f for slow in traced.slowness for f in slow)
        for name, (value, unit) in spans.layer_metrics(tracer, k).items():
            metrics[name] = (value / slowness if unit.startswith("s/") else value, unit)
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.import_scipy_s"] = (scipy_s, "s")
        metrics["trace.overhead_share"] = (sum(traced.scaled_round_s()) / sum(plain.scaled_round_s()) - 1.0, "ratio")
        outputs = [a + b for a, b in zip(plain.outputs, traced.outputs)]
        if tracer.missing:
            print(f"trace: not found, counted as zero: {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        phase = run_rounds(requests, run_one, args.seconds, rounds_needed)
        outputs = phase.outputs
        lat = phase.scaled_latencies()
        round_s = phase.scaled_round_s()
        metrics["setup_s"] = (setup_s, "s")
        metrics["rows_per_s"] = (statistics.median(r / s for r, s in zip(phase.round_rows, round_s)), "rows/s")
        metrics["req_p50_ms"] = (1e3 * quantile(lat, 0.5), "ms")
        metrics["req_tail_ms"] = (1e3 * quantile(lat, q), "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        print(f"req_tail_ms is p{100 * q:g} of {len(lat)} requests, {beyond(len(lat), q)} beyond it; "
              f"{len(round_s)} rounds of {len(requests)} requests; machine slowness "
              f"{' '.join('%.3f' % statistics.median(slow) for slow in phase.slowness)} by round "
              "(times are scaled by its inverse)")
        if args.workload == "simulate":
            paths = sum(r[3] for r in requests)
            printed["paths_per_s"] = (statistics.median(paths / s for s in round_s), "paths/s")

    reference = check.load_reference(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    verdicts = check.gate(requests, outputs, reference)
    attempted = sum(len(runs) for runs in outputs)
    failed = sum(len(runs) for runs, why in zip(outputs, verdicts) if why)
    for request, why in zip(requests, verdicts):
        if why:
            print(f"FAILED {workloads.key(request)}: {why}", file=sys.stderr)
    uncertified, log10_mean = _row_stats(outputs)
    if args.trace:
        metrics["rows.uncertified_share"] = (uncertified, "ratio")
        metrics["rows.log10_bound_mean"] = (log10_mean, "log10")
    else:
        printed["error_share"] = (failed / attempted, "ratio")
        if args.workload != "simulate":
            printed["uncertified_share"] = (uncertified, "ratio")
            printed["log10_bound_mean"] = (log10_mean, "log10")
        for name, (value, unit) in {**metrics, **printed}.items():
            print(f"{name:<20} {value:>14.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
