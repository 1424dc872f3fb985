"""Alternating A/B rounds of a perfbench workload, both checkouts in one process.

    python3 benchmarks/ab_inprocess.py BASE [CHANGE] --workload heavy_sups --seed 1 --rounds 20

BASE and CHANGE are roots of two checkouts of the repository (CHANGE defaults
to this one). Each one's src/ruinbounds is loaded under its own package name,
so both run in one interpreter. The requests, and the code that loads the
models and runs the requests, are this checkout's perfbench/workloads.py, as
in perfbench/run.py: library calls for heavy_sups and simulate, in-process
`cli.main` calls for light_curves.

After one warm-up round per side, the rounds alternate between the sides,
each pair starting with the other side than the pair before. Every round of a
side must give that side's warm-up rows, and every change row must pass
perfbench/check.py's comparison against the base row of its request, as a
row of the frozen reference would: equal to 12 digits, or a certified bound
that is tighter, or a row that turned certified. The script exits 1
otherwise. It prints each side's median and quartiles of the round time, the
ratio of the medians (base over change: above 1 when the change is faster),
how many pairs the change won and how many rows differ between the sides,
then the same as one JSON line.

Separate perfbench runs of two checkouts can differ by 30-60% on a shared
host whose speed drifts; rounds that alternate within one process see the
same drift on both sides. They still do not resolve a few percent on
light_curves: one checkout against a copy of itself (seed 1, 16 pairs, a
shared 2-core host) read ratios of 1.018, 0.998 and 1.017, winning 7, 10 and
9 pairs, and earlier 1.085 (12 of 16 pairs) and 1.005. So a light_curves
ratio within about 10% of 1 shows no change.

    python3 benchmarks/ab_inprocess.py BASE [CHANGE] --workload probes --rounds 20

times single warm probes instead (PROBES): each case calls sup_log_mgf or
per_increment_sup on one model at a fixed list of h, the model built by each
side from its own package and probed once before timing. A case with a chord
store runs a full scan at a larger h into a fresh store before each timed
probe, and times only the probe below it. The store is a fresh search record
(models.Search, passed to the sup function in place of the model); in the
cases at the cap, that h is the model's MGF-domain cap
(adjustment._domain_cap), where a term is +inf, and the probes are at the
given fractions of it. The rounds alternate between the
sides per case, and every result must be bitwise the other side's (value,
argmax, status, certified, note), else the script exits 1. It prints each
side's median time per probe and the ratio per case, then the same as one
JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402  (perfbench/check.py, the same way)
import workloads  # noqa: E402  (perfbench/workloads.py, found through the path above)


SUBMODULES = ("adjustment", "bounds", "cli", "distributions", "models", "montecarlo", "serialize")


class Side:
    """One checkout's src/ruinbounds, imported under its own package name.

    activate() points the names `ruinbounds` and `ruinbounds.<sub>` at it, so
    perfbench's own loader and executor (workloads.load_models, .execute),
    which look the package up by name at call time, run this side.
    """

    def __init__(self, checkout: Path, name: str) -> None:
        pkg = checkout / "src" / "ruinbounds"
        spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        self.modules = {"ruinbounds": module, **{f"ruinbounds.{sub}": importlib.import_module(f"{name}.{sub}")
                                                 for sub in SUBMODULES}}

    def activate(self) -> None:
        sys.modules.update(self.modules)

    def round(self, requests: list, directory: Path, models: dict) -> tuple[float, list]:
        self.activate()
        t0 = time.perf_counter()
        rows = [workloads.execute(r, directory, models) for r in requests]
        return time.perf_counter() - t0, rows


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def row_failures(requests: list, base: list, change: list) -> tuple[int, list[str]]:
    """(how many rows differ, why each differing request fails the gate's row
    comparison) for one round's rows of each side."""
    differ, failures = 0, []
    for request, b, c in zip(requests, base, change):
        if b == c:
            continue
        differ += max(len(b), len(c))
        if len(b) != len(c):
            why = f"{len(c)} rows, base has {len(b)}"
        else:
            try:
                why = next((w for w in map(check._compare_row, c, b) if w), None)
            except ValueError:  # a text cell such as a note that differs
                why = "a text cell differs"
        if why:
            failures.append(f"{workloads.key(request)}: {why}")
    return differ, failures


def _mixed_prefix(rb, n: int = 5000, seed: int = 1):
    """n laws with negative drift, a quarter of each of four families (as
    benchmarks/bench_sup._mixed_prefix), built from the package rb."""
    rng = random.Random(seed)
    laws = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            laws.append(rb.Normal(-0.3 - 0.9 * rng.random(), 0.5 + rng.random()))
        elif kind == 1:
            laws.append(rb.Uniform(-2.0 - rng.random(), 1.0 + 0.5 * rng.random()))
        elif kind == 2:
            laws.append(rb.TwoPoint(1.0, 0.2 + 0.15 * rng.random(), -1.0))
        else:
            laws.append(rb.ShiftedExponential(0.8 + 0.4 * rng.random(), -1.5 - rng.random()))
    rng.shuffle(laws)
    return rb.RiskModel(rb.ExplicitPrefix(tuple(laws)))


# name: (model from the package rb, k_max or None, sup function name, the h
# probed, and the h of the full scan that fills a fresh chord store before each
# probe, or None for no store, or CAP: the model's MGF-domain cap, the h probed
# then being fractions of it)
CAP = "cap"
_HS = (0.05, 0.2, 0.5, 1.0, 2.0)
PROBES = {
    "indexed_normal_1pct/sup": (lambda rb: rb.RiskModel(rb.IndexedNormal(-0.5, 0.25), rb.ConstantRates(0.01)),
                                2000, "sup_log_mgf", _HS, None),
    "indexed_normal_1pct/per_increment": (lambda rb: rb.RiskModel(rb.IndexedNormal(-0.5, 0.25), rb.ConstantRates(0.01)),
                                          2000, "per_increment_sup", _HS, None),
    "indexed_two_point_2pct/sup": (lambda rb: rb.RiskModel(rb.IndexedTwoPoint(), rb.ConstantRates(0.02)),
                                   2000, "sup_log_mgf", (1.4e-6, 0.05, 0.5, 2.0, 8.0), None),
    "prefix_5000/sup": (_mixed_prefix, None, "sup_log_mgf", (0.1, 0.3), None),
    "prefix_5000/per_increment": (_mixed_prefix, None, "per_increment_sup", (0.1, 0.3), None),
    "prefix_5000_chords/sup": (_mixed_prefix, None, "sup_log_mgf", (0.1, 0.25), 0.3),
    # a search that climbs toward the cap: every probe lies above the earlier ones
    "prefix_5000_cap/sup": (_mixed_prefix, None, "sup_log_mgf", (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98), CAP),
    "contracting_block/sup": (lambda rb: rb.RiskModel(rb.QuasiPeriodicScaled(
        (rb.Normal(-0.5, 1.0), rb.Normal(0.25, 1.0)), 0.95)), None, "sup_log_mgf", (0.1, 0.5, 1.0), None),
    # contracting tails whose partial sums rise for 3 to about 900 periods
    # before the envelope closes (bench_sup.py's blocks)
    "contracting_block_tail/sup": (lambda rb: rb.RiskModel(rb.QuasiPeriodicScaled(
        (rb.Normal(-0.5, 1.0), rb.Normal(0.25, 1.0)), 0.95)), None, "sup_log_mgf", (1.0, 2.0, 4.0), None),
    "prefix_then_tail_1pct/sup": (lambda rb: rb.RiskModel(rb.PrefixThenTail(
        (rb.Normal(0.5, 1.0), rb.Uniform(-1.0, 2.0), rb.TwoPoint(2.0, 0.3, -1.0)), rb.Periodic((rb.Normal(-0.5, 1.0),))),
        rb.ConstantRates(0.01)), None, "sup_log_mgf", (2.0, 4.0), None),
    "two_normals_1e-4/sup": (lambda rb: rb.RiskModel(rb.Periodic((rb.Normal(-0.25, 1.0), rb.Normal(-0.75, 1.0))),
                                                     rb.ConstantRates(1e-4)), None, "sup_log_mgf", (1.2,), None),
}


def _probe_case(side: Side, case: tuple):
    """(run, results): run() makes the case's timed probes on side's model and
    returns their total time in seconds; results, the first run's SupLogMgf as
    tuples."""
    build, k_max, fn_name, hs, h_store = case
    rb = side.modules["ruinbounds"]
    models = side.modules["ruinbounds.models"]
    model = build(rb)
    if h_store == CAP:
        h_store = side.modules["ruinbounds.adjustment"]._domain_cap(model)
        hs = [f * h_store for f in hs]
    policy = models.TruncationPolicy(k_max) if k_max else None
    fn = getattr(models, fn_name)

    def prepared(h):
        """The timed probe at h, after the full scan that fills its store."""
        if h_store is None:
            return lambda: fn(model, h, policy)
        search = models.Search(model, policy)
        fn(search, h_store)
        return lambda: fn(search, h)

    out = []

    def run() -> float:
        total = 0.0
        out.clear()
        for h in hs:
            probe = prepared(h)
            t0 = time.perf_counter()
            s = probe()
            total += time.perf_counter() - t0
            out.append((s.value.hex(), s.argmax, s.status, s.certified, s.note))
        return total

    run()  # warm: the law record, the plans, the route
    return run, list(out)


def probe_main(args) -> int:
    sides = {"base": Side(args.base.resolve(), "ruinbounds_ab_base"),
             "change": Side(args.change.resolve(), "ruinbounds_ab_change")}
    result, differ = {"workload": "probes", "pairs": args.rounds, "cases": {}}, 0
    for name, case in PROBES.items():
        runs, expected = {}, {}
        for side_name, side in sides.items():
            runs[side_name], expected[side_name] = _probe_case(side, case)
        same = expected["base"] == expected["change"]
        differ += not same
        times = {side_name: [] for side_name in sides}
        repeat = 20  # probes per timed round and h, so that a round outlasts the clock's resolution
        for i in range(args.rounds):
            for side_name in (("base", "change") if i % 2 == 0 else ("change", "base")):
                times[side_name].append(sum(runs[side_name]() for _ in range(repeat)) / (repeat * len(case[3])))
        wins = sum(c < b for b, c in zip(times["base"], times["change"]))
        ratio = statistics.median(times["change"]) / statistics.median(times["base"])
        result["cases"][name] = {"us_per_probe": {k: {q: v * 1e6 for q, v in quartiles(ts).items()} for k, ts in times.items()},
                                 "ratio_change_over_base": ratio, "change_wins": wins, "bitwise_equal": same}
        print(f"{name:>36}: base {statistics.median(times['base']) * 1e6:8.1f} us, change "
              f"{statistics.median(times['change']) * 1e6:8.1f} us per probe, ratio change/base {ratio:.3f}, "
              f"change won {wins} of {args.rounds}{'' if same else ', results DIFFER'}")
    result["cases_differ"] = differ
    print(json.dumps(result))
    return 0 if not differ else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the base checkout")
    ap.add_argument("change", type=Path, nargs="?", default=ROOT, help="root of the changed checkout (default: this one)")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "probes"), default="heavy_sups",
                    help="a perfbench workload, or probes: single warm sup probes (PROBES)")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--rounds", type=int, default=20, help="rounds per side, alternating (default 20)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    if args.workload == "probes":
        return probe_main(args)

    configs, requests = workloads.build(args.workload, args.seed)
    sides = {"base": Side(args.base.resolve(), "ruinbounds_ab_base"),
             "change": Side(args.change.resolve(), "ruinbounds_ab_change")}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        workloads.write_configs(configs, directory)
        models = {}
        for name, side in sides.items():
            side.activate()
            models[name] = workloads.load_models(directory, requests)
        # warm-up: law records, plans, imports; each side's rows to repeat
        expected = {name: side.round(requests, directory, models[name])[1] for name, side in sides.items()}
        times = {name: [] for name in sides}
        unrepeated = {name: 0 for name in sides}
        for i in range(args.rounds):
            for name in (("base", "change") if i % 2 == 0 else ("change", "base")):
                seconds, rows = sides[name].round(requests, directory, models[name])
                times[name].append(seconds)
                unrepeated[name] += rows != expected[name]
    differ, failures = row_failures(requests, expected["base"], expected["change"])
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    result = {
        "workload": args.workload, "seed": args.seed, "pairs": args.rounds, "rows_identical": differ == 0,
        "rows_differ": differ, "rows_pass_check": not failures, "unrepeated_rounds": unrepeated,
        "round_ms": {name: {k: v * 1e3 for k, v in quartiles(ts).items()} for name, ts in times.items()},
        "ratio_base_over_change": statistics.median(times["base"]) / statistics.median(times["change"]),
        "change_wins": wins,
    }
    for name in sides:
        q = result["round_ms"][name]
        print(f"{name:>6}: median {q['median']:.2f} ms per round (q1 {q['q1']:.2f}, q3 {q['q3']:.2f})")
    print(f"ratio base/change {result['ratio_base_over_change']:.3f}; change won {wins} of {args.rounds} pairs; "
          f"{differ} of {sum(map(len, expected['base']))} rows differ between the sides")
    for name, count in unrepeated.items():
        if count:
            print(f"{name} rows DIFFER from its warm-up round in {count} rounds")
    for why in failures:
        print(f"change row FAILS the check against the base row: {why}")
    print(json.dumps(result))
    return 0 if not failures and not any(unrepeated.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
