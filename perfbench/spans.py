"""Tracing for the benchmark's traced run.

The package has no tracing of its own, so the tracer wraps, at runtime, the
names through which one layer calls another, and restores them afterwards.
Each wrapped call of a layer boundary becomes a span: layer, operation, start,
end, parent span and request id, plus the argument it needs (h, paths).
Per-epoch calls (a log-MGF term, a law built, a batch of draws) run millions of
times, so they are folded into their parent span as a time and a count instead
of a span each. Spans stay in memory until the run writes them out.

A target name that no longer exists is skipped, and its counts read as zero.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span fields, kept as a list per span for speed
ID, PARENT, REQUEST, LAYER, OP, START, END, CHILD_S, INFO = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.request = None
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])  # name -> [calls, seconds, amount]
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, op: str, fn, info=None):
        stack, spans, ids, tracer = self.stack, self.spans, self._ids, self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [next(ids), parent[ID] if parent else None, tracer.request, layer, op, 0.0, 0.0, 0.0, None]
            stack.append(rec)
            rec[START] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD_S] += t1 - t0
                spans.append(rec)
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, names: tuple, fn, amount=None):
        stack = self.stack
        aggs = [self.leaves[n] for n in names]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            if stack:
                stack[-1][CHILD_S] += dt
            n = amount(args, kwargs) if amount is not None else 0
            for agg in aggs:
                agg[0] += 1
                agg[1] += dt
                agg[2] += n
            return result

        return wrapper

    def _count(self, name: str, fn):
        agg = self.leaves[name]

        def wrapper(*args, **kwargs):
            agg[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary of the package."""
        import ruinbounds.adjustment as adjustment
        import ruinbounds.bounds as bounds
        import ruinbounds.cli as cli
        import ruinbounds.models as models
        import ruinbounds.montecarlo as montecarlo

        p = self._patch
        p(cli, "main", lambda f: self._span("cli", "main", f))
        p(cli, "load_model", lambda f: self._span("serialize", "load_model", f))
        bound_fns = ("bound_at_h", "bound_kappa", "bound_optimize", "bound_per_increment", "bound_periodic", "bound_union")
        for name in bound_fns:
            p(cli, name, lambda f, n=name: self._span("bounds", n, f))
        p(bounds, "bound_optimize", lambda f: self._span("bounds", "bound_optimize", f))
        solvers = {
            cli: ("solve_kappa", "solve_partial_sum", "solve_per_increment", "solve_period_root"),
            bounds: ("solve_kappa", "solve_per_increment", "solve_period_root", "verify_window_exponent"),
            adjustment: ("solve_partial_sum", "solve_per_increment"),
        }
        for owner, names in solvers.items():
            for name in names:
                p(owner, name, lambda f, n=name: self._span("adjustment", n, f))

        def sup_info(args, kwargs, result):
            return (args[1] if len(args) > 1 else kwargs["h"], result.status)

        for owner in (bounds, adjustment):
            p(owner, "sup_log_mgf", lambda f: self._span("models.sup", "sup_log_mgf", f, sup_info))
            p(owner, "cumulative_log_mgf", lambda f: self._span("models.cumulative", "cumulative_log_mgf", f))
        p(adjustment, "per_increment_sup", lambda f: self._span("models.per_increment_sup", "per_increment_sup", f))
        p(models, "log_mgf_at", lambda f: self._leaf(("distributions.log_mgf_at", "models.terms"), f))
        p(bounds, "log_mgf_at", lambda f: self._leaf(("distributions.log_mgf_at",), f))
        p(models.RiskModel, "distribution_at", lambda f: self._count("models.laws_built", f))
        p(montecarlo, "sample", lambda f: self._leaf(("distributions.sample",), f, lambda a, kw: a[2] if len(a) > 2 else kw.get("size") or 1))
        p(montecarlo, "clopper_pearson", lambda f: self._span("montecarlo.clopper_pearson", "clopper_pearson", f))
        p(montecarlo, "simulate_ruin_grid", lambda f: self._span(
            "montecarlo.simulate", "simulate_ruin_grid", f, lambda a, kw, r: (a[2].n_paths, a[2].horizon)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "layer", "op", "start", "end", "child_s", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
            fh.write(json.dumps({"leaves": dict(self.leaves), "missing": self.missing}) + "\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics of a traced phase, counts and times per round."""
    by_id = {rec[ID]: rec for rec in tracer.spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    sup_under_optimize = optimize_calls = 0
    probes = solves = undetermined = paths = path_epochs = 0
    max_h = 0.0
    for rec in tracer.spans:
        layer, dur = rec[LAYER], rec[END] - rec[START]
        calls[layer] += 1
        self_s[layer] += dur - rec[CHILD_S]
        total_s[layer] += dur
        parent = by_id.get(rec[PARENT])
        if layer == "models.sup":
            h, status = rec[INFO]
            undetermined += status == "undetermined"
            if parent is not None and parent[LAYER] == "bounds":
                max_h = max(max_h, h)
                sup_under_optimize += parent[OP] == "bound_optimize"
        elif layer == "bounds" and rec[OP] == "bound_optimize":
            optimize_calls += 1
        elif layer == "adjustment" and rec[OP] in ("solve_partial_sum", "solve_per_increment", "solve_period_root"):
            solves += 1
        elif layer == "montecarlo.simulate":
            paths += rec[INFO][0]
            path_epochs += rec[INFO][0] * rec[INFO][1]
        if layer.startswith("models.") and parent is not None and parent[OP] in (
                "solve_partial_sum", "solve_per_increment", "solve_period_root"):
            probes += 1
    leaves = tracer.leaves
    lmgf, sample = leaves["distributions.log_mgf_at"], leaves["distributions.sample"]
    r = max(rounds, 1)
    out = {
        "models.terms": (leaves["models.terms"][0] / r, "calls/round"),
        "models.laws_built": (leaves["models.laws_built"][0] / r, "calls/round"),
        "distributions.log_mgf_at.calls": (lmgf[0] / r, "calls/round"),
        "distributions.log_mgf_at.self_s": (lmgf[1] / r, "s/round"),
    }
    for layer in ("models.sup", "models.per_increment_sup", "models.cumulative"):
        out[f"{layer}.calls"] = (calls[layer] / r, "calls/round")
        out[f"{layer}.self_s"] = (self_s[layer] / r, "s/round")
    out["models.sup.undetermined_share"] = (undetermined / calls["models.sup"] if calls["models.sup"] else 0.0, "ratio")
    out["bounds.calls"] = (calls["bounds"] / r, "calls/round")
    out["bounds.self_s"] = (self_s["bounds"] / r, "s/round")
    out["bounds.sup_evals_per_row"] = (sup_under_optimize / optimize_calls if optimize_calls else 0.0, "calls/row")
    out["bounds.max_h_probe"] = (max_h, "1/u")
    out["adjustment.calls"] = (calls["adjustment"] / r, "calls/round")
    out["adjustment.self_s"] = (self_s["adjustment"] / r, "s/round")
    out["adjustment.probes_per_solve"] = (probes / solves if solves else 0.0, "calls/solve")
    out["cli.requests"] = (calls["cli"] / r, "calls/round")
    out["cli.self_s"] = (self_s["cli"] / r, "s/round")
    out["serialize.load_model.calls"] = (calls["serialize"] / r, "calls/round")
    out["serialize.load_model.s"] = (total_s["serialize"] / r, "s/round")
    out["distributions.sample.calls"] = (sample[0] / r, "calls/round")
    out["distributions.sample.draws"] = (sample[2] / r, "draws/round")
    out["distributions.sample.self_s"] = (sample[1] / r, "s/round")
    out["montecarlo.simulate.self_s"] = (self_s["montecarlo.simulate"] / r, "s/round")
    out["montecarlo.steps_per_path"] = (sample[2] / paths if paths else 0.0, "steps/path")
    out["montecarlo.alive_share"] = (sample[2] / path_epochs if path_epochs else 0.0, "ratio")
    out["montecarlo.clopper_pearson.s"] = (total_s["montecarlo.clopper_pearson"] / r, "s/round")
    return out
