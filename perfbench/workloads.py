"""The three benchmark workloads: their inputs, drawn from a seed, and how one
request of each kind is executed.

A request is plain data (a tuple), so it can key the frozen reference rows. The
executor looks every library function up on its module at call time, which is
what lets the traced run swap in its wrappers.

The seed draws the ExplicitPrefix laws, jitters the u-grids and sets the Monte
Carlo seeds. Everything else is fixed, so that two seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("light_curves", "heavy_sups", "simulate")

# Tail percentile reported for each workload. It is fixed so that two commits
# compare the same percentile; each is the highest of 50/75/90/95/99 that leaves
# at least ten samples beyond it in the shortest run (two rounds).
TAIL_PERCENTILE = {"light_curves": 95.0, "heavy_sups": 75.0, "simulate": 75.0}

SIM_COLUMNS = ("u", "n_paths", "K", "ruin_count", "estimate", "ci_low", "ci_high")


def _normal(mean, variance):
    return {"family": "normal", "mean": mean, "variance": variance}


def _periodic(*cycle):
    return {"kind": "periodic", "cycle": list(cycle)}


_ZERO = {"kind": "constant", "rate": 0.0}
_SHIFTED_EXP_1 = {"family": "shifted_exponential", "rate": 1.0}
_SHIFTED_EXP_HALF = {"family": "shifted_exponential", "rate": 0.5}

# light_curves: the five bundled configs plus five generated ones. Each entry:
# (methods, union exponent h or None, largest u). "periodic" needs plain
# periodic increments with zero rates; "union" is left out where discounting
# makes the series trivially divergent.
LIGHT_MODELS = {
    "alternating_normals": (("optimized", "per_increment", "periodic", "union"), 0.5, 40.0),
    "classical_poisson_exponential": (("optimized", "per_increment", "periodic", "union"), 0.25, 40.0),
    "linear_drift_normals": (("optimized", "per_increment", "union"), 0.5, 40.0),
    "two_point_decay": (("optimized", "per_increment", "union"), 1.0, 20.0),
    "uniform_exponential_cycle": (("optimized", "per_increment", "periodic", "union"), 0.3, 40.0),
    "alternating_normals_periodic_rates": (("optimized", "per_increment"), None, 40.0),
    "contracting_quasi_periodic": (("optimized", "per_increment"), None, 40.0),
    "prefix_then_tail_1pct": (("optimized", "per_increment"), None, 40.0),
    "finite_discrete_cycle": (("optimized", "per_increment", "periodic", "union"), 0.3, 40.0),
    "event_model": (("optimized", "per_increment", "periodic", "union"), 0.2, 40.0),
}
LIGHT_GENERATED = {
    "alternating_normals_periodic_rates": {
        "increments": _periodic(_normal(-0.25, 1.0), _normal(-0.75, 1.0)),
        "rates": {"kind": "periodic", "values": [0.01, 0.03, 0.02]},
    },
    "contracting_quasi_periodic": {
        "increments": {"kind": "quasi_periodic", "cycle": [_normal(-0.5, 1.0), _normal(0.25, 1.0)], "scale": 0.95},
        "rates": _ZERO,
    },
    "prefix_then_tail_1pct": {
        "increments": {
            "kind": "prefix_tail",
            "prefix": [_normal(0.5, 1.0), {"family": "uniform", "lower": -1.0, "upper": 2.0},
                       {"family": "two_point", "x1": 2.0, "p1": 0.3, "x2": -1.0}],
            "tail": _periodic(_normal(-0.5, 1.0)),
        },
        "rates": {"kind": "constant", "rate": 0.01},
    },
    "finite_discrete_cycle": {
        "increments": _periodic(
            {"family": "finite_discrete", "atoms": [[-2.0, 0.5], [1.0, 0.5]]},
            {"family": "finite_discrete", "atoms": [[-1.0, 0.6], [2.0, 0.3], [0.0, 0.1]]},
        ),
        "rates": _ZERO,
    },
    "event_model": {
        "claim": _periodic(_SHIFTED_EXP_1),
        "interarrival": _periodic(_SHIFTED_EXP_HALF),
        "premium_rate": {"kind": "periodic", "values": [1.0, 1.2]},
    },
}
LIGHT_REPEATS = 2  # each (subcommand, model, method) appears this often per round, on its own u-grid
LIGHT_U_BASE = (1.0, 2.5, 5.0, 10.0, 20.0)

# heavy_sups: the scan models run with a 2000-epoch truncation, so one sup
# evaluation still walks thousands of epochs but a round stays near 8 s.
HEAVY_K_MAX = 2000
HEAVY_GENERATED = {
    "indexed_normal_1pct": {
        "increments": {"kind": "indexed_normal", "slope": -0.5, "intercept": 0.25},
        "rates": {"kind": "constant", "rate": 0.01},
    },
    "indexed_two_point_2pct": {
        "increments": {"kind": "indexed_two_point"},
        "rates": {"kind": "constant", "rate": 0.02},
    },
    "amplifying_quasi_periodic": {
        "increments": {"kind": "quasi_periodic", "cycle": [_normal(-1.0, 1.0)], "scale": 1.0005},
        "rates": _ZERO,
    },
}
EXPLICIT_PREFIX_LEN = 5000

# simulate: (model, base u-grid, paths, horizon, stop_gap, confidence, requests
# per round). The classical model runs at a 1e-9 miss level so that its closed
# form, checked against every interval, cannot fail by chance.
SIM_PLAN = (
    ("classical_poisson_exponential", (1.0, 2.0, 4.0), 50_000, 2000, 60.0, 1.0 - 1e-9, 6),
    ("alternating_normals_periodic_rates", (1.0, 2.0, 4.0), 5000, 2000, None, 0.99, 8),
    ("uniform_exponential_cycle", (2.0, 5.0), 12_500, 2000, None, 0.99, 6),
)


# one minimal request of each workload's kind, for the cold-start probe
MINIMAL = {
    "light_curves": ("cli", ("bound", "--model", "alternating_normals", "--u", "1")),
    "heavy_sups": ("bound_optimize", "two_point_decay", 1.0, None),
    "simulate": ("simulate", "classical_poisson_exponential", (1.0,), 1000, 100, 60.0, 0.99, 1),
}


def _jitter(rng: random.Random, base, cap=None) -> tuple[float, ...]:
    """Each base point moved by up to 5%, kept strictly below cap."""
    out = []
    for b in base:
        u = float("%.6g" % (b * (1.0 + 0.1 * (rng.random() - 0.5))))
        out.append(min(u, cap) if cap else u)
    return tuple(out)


def _explicit_prefix(rng: random.Random) -> dict:
    """~5000 mixed laws with negative drift; each family is one quarter of them."""
    laws = []
    for i in range(EXPLICIT_PREFIX_LEN):
        kind = i % 4
        if kind == 0:
            laws.append(_normal(round(-0.3 - 0.9 * rng.random(), 6), round(0.5 + rng.random(), 6)))
        elif kind == 1:
            laws.append({"family": "uniform", "lower": round(-2.0 - rng.random(), 6), "upper": round(1.0 + 0.5 * rng.random(), 6)})
        elif kind == 2:
            laws.append({"family": "two_point", "x1": 1.0, "p1": round(0.2 + 0.15 * rng.random(), 6), "x2": -1.0})
        else:
            laws.append({"family": "shifted_exponential", "rate": round(0.8 + 0.4 * rng.random(), 6),
                         "shift": round(-1.5 - rng.random(), 6)})
    rng.shuffle(laws)
    return {"increments": {"kind": "explicit", "dists": laws}, "rates": _ZERO}


def build(workload: str, seed: int) -> tuple[dict, list]:
    """(generated configs by name, the requests of one round) for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "light_curves":
        return dict(LIGHT_GENERATED), _light_requests(rng)
    if workload == "heavy_sups":
        configs = dict(HEAVY_GENERATED)
        configs["explicit_prefix_mixed"] = _explicit_prefix(rng)
        return configs, _heavy_requests()
    if workload == "simulate":
        return {"alternating_normals_periodic_rates": LIGHT_GENERATED["alternating_normals_periodic_rates"]}, \
            _sim_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _light_requests(rng: random.Random) -> list:
    kinds = []
    for model, (methods, h, _) in LIGHT_MODELS.items():
        kinds.append(("adjustment", model))
        kinds.extend(("bound", model, m, h if m == "union" else None) for m in methods)
    requests = []
    for kind in kinds * LIGHT_REPEATS:
        if kind[0] == "adjustment":
            requests.append(("cli", ("adjustment", "--model", "@" + kind[1])))
            continue
        _, model, method, h = kind
        us = _jitter(rng, LIGHT_U_BASE, LIGHT_MODELS[model][2])
        argv = ["bound", "--model", "@" + model, "--u", ",".join("%.6g" % u for u in us), "--method", method]
        if h is not None:
            argv += ["--h", repr(h)]
        requests.append(("cli", tuple(argv)))
    return requests


def _heavy_requests() -> list:
    # The u values here are fixed: a call of bound_optimize takes about 20 or
    # about 40 sup evaluations depending on where its golden-section search
    # stops, so jittering a handful of u values made the round's cost depend on
    # the seed by +-10%. The seed still draws the ExplicitPrefix laws, which
    # flip its one bound_optimize call the same way (+-3% of a round).
    requests = []
    for model in ("indexed_normal_1pct", "indexed_two_point_2pct", "amplifying_quasi_periodic"):
        requests.extend(("bound_optimize", model, u, HEAVY_K_MAX) for u in (5.0, 10.0, 20.0))
        requests.append(("solve_partial_sum", model, HEAVY_K_MAX))
        requests.append(("solve_per_increment", model, HEAVY_K_MAX))
    requests.append(("bound_optimize", "explicit_prefix_mixed", 10.0, None))
    requests.append(("solve_partial_sum", "explicit_prefix_mixed", None))
    requests.append(("solve_per_increment", "explicit_prefix_mixed", None))
    # one deep two_point_decay row per round: its optimizer pays one probe at h=16
    requests.append(("bound_optimize", "two_point_decay", 60.0, None))
    return requests


def _sim_requests(rng: random.Random) -> list:
    requests = []
    for model, base, paths, horizon, stop_gap, confidence, count in SIM_PLAN:
        for _ in range(count):
            requests.append(("simulate", model, _jitter(rng, base), paths, horizon, stop_gap, confidence,
                             rng.randrange(2**63)))
    return requests


def quick(workload: str, requests: list) -> list:
    """The cheap subset used by tiny-size runs."""
    if workload == "heavy_sups":
        return [r for r in requests if r[1] == "explicit_prefix_mixed"]
    if workload == "simulate":
        return [r for r in requests if r[1] == "classical_poisson_exponential"]
    return list(requests)


def write_configs(configs: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, config in configs.items():
        (directory / f"{name}.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def resolve(name: str, directory: Path) -> str:
    """Path of a generated config, or the name itself for a bundled one (the
    command line resolves bundled names on its own)."""
    path = directory / f"{name}.json"
    return str(path) if path.exists() else name


def load_models(directory: Path, requests: list) -> dict:
    """Every model a library-call workload needs, read with the package's own
    config loader; bundled configs come from the package's data files."""
    from importlib import resources

    from ruinbounds import EventModel, load_model, reduce_event_model

    models = {}
    for name in dict.fromkeys(req[1] for req in requests if req[0] != "cli"):
        path = directory / f"{name}.json"
        if not path.exists():
            path = resources.files("ruinbounds") / "configs" / f"{name}.json"
        model = load_model(str(path))
        models[name] = reduce_event_model(model) if isinstance(model, EventModel) else model
    return models


# ---------------------------------------------------------------------------
# execution


def fmt(value) -> str:
    """Cell format of the package's CSV output: 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _bound_row(b) -> dict:
    cert = b.certificate
    c = None if cert is None else (math.exp(cert.log_c) if cert.log_c < 700.0 else math.inf)
    row = {"u": b.u, "method": b.method, "h_star": b.h_star, "log10_bound": b.log10_bound,
           "C": c, "L": None if cert is None else cert.exponent, "certified": b.certified}
    return {k: fmt(v) for k, v in row.items()}


def _coef_row(r) -> dict:
    lo, hi = r.bracket if r.bracket else (None, None)
    row = {"flavor": r.flavor, "value": r.value, "certified": r.certified,
           "bracket_low": lo, "bracket_high": hi, "boundary": r.boundary}
    return {k: fmt(v) for k, v in row.items()}


def execute(request: tuple, directory: Path, models: dict) -> list[dict]:
    """Run one request; returns its result rows as CSV cells. Raises on failure."""
    import ruinbounds.adjustment
    import ruinbounds.bounds
    import ruinbounds.cli
    import ruinbounds.models
    import ruinbounds.montecarlo

    kind = request[0]
    if kind == "cli":
        argv = [resolve(a[1:], directory) if a.startswith("@") else a for a in request[1]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ruinbounds.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return list(csv.DictReader(io.StringIO(out.getvalue())))
    model = models[request[1]]
    if kind == "simulate":
        _, _, us, paths, horizon, stop_gap, confidence, mc_seed = request
        cfg = ruinbounds.montecarlo.SimConfig(n_paths=paths, horizon=horizon, seed=mc_seed,
                                              confidence=confidence, stop_gap=stop_gap, workers=1)
        sims = ruinbounds.montecarlo.simulate_ruin_grid(model, list(us), cfg)
        return [{k: fmt(getattr(s, k if k != "K" else "horizon")) for k in SIM_COLUMNS} for s in sims]
    k_max = request[-1]
    policy = ruinbounds.models.TruncationPolicy(k_max=k_max) if k_max else None
    if kind == "bound_optimize":
        return [_bound_row(ruinbounds.bounds.bound_optimize(model, request[2], policy))]
    if kind == "solve_partial_sum":
        return [_coef_row(ruinbounds.adjustment.solve_partial_sum(model, 1e-10, policy))]
    if kind == "solve_per_increment":
        return [_coef_row(ruinbounds.adjustment.solve_per_increment(model, 1e-10, policy))]
    raise ValueError(f"unknown request kind {kind!r}")


def key(request: tuple) -> str:
    return json.dumps(request)
