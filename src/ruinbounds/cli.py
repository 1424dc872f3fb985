"""Command-line front end.

Subcommands: adjustment (coefficients for a model), bound (upper-bound curves
over a u-grid), simulate (seeded Monte Carlo with exact intervals and bound
dominance), compare (our bounds side by side with the union baseline, two
externally published reference curves, and a simulation estimate).

Exit codes: 0 success, 2 configuration error, 3 uncertified results under
--strict, 4 a simulated estimate escaped above its bound.

In one process, main() keeps two things between calls: the argument parser,
and the models of the last configs read, by the bytes of their files (_load).
Neither depends on h or u: each call makes its own search record, so it
prints what a fresh process prints.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import threading
from collections import OrderedDict
from importlib import resources

from .adjustment import _block_unfit, solve_kappa, solve_partial_sum, solve_per_increment, solve_period_root
from .bounds import (
    bound_at_h,
    bound_kappa,
    bound_optimize,
    bound_per_increment,
    bound_periodic,
    bound_union,
)
from .distributions import INF
from .models import (
    EventModel,
    ModelIndexError,
    PeriodHypothesisError,
    Periodic,
    QuasiPeriodicScaled,
    RiskModel,
    Search,
    TruncationPolicy,
    iid_base,
    reduce_event_model,
)
from .montecarlo import SimConfig, simulate_ruin_grid
from .serialize import ConfigError, load_model

__all__ = ["main"]

OK, EXIT_CONFIG, EXIT_STRICT, EXIT_DOMINANCE = 0, 2, 3, 4

# published comparison curves, reproduced from their printed constants; these
# are external reference values, not outputs of this package
EXTERNAL_REFERENCES = (
    ("external_a", 1502.0, 0.01269),
    ("external_b", 178.0, 1.0 / 20.0),
)

# a --u range holds at most this many points (a list of about 32 MB)
_U_RANGE_MAX = 1_000_000
_U_HELP = f"u grid: comma list, or start:stop:step with inclusive ends and at most {_U_RANGE_MAX:,} points"


def _fmt(value) -> str:
    """Deterministic cell formatting: 12 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _parse_u_spec(spec: str) -> list[float]:
    """Comma list ('1,2,4'), colon range ('1:10:0.5', inclusive ends), or one value."""
    try:
        if ":" in spec:
            parts = [float(p) for p in spec.split(":")]
            if len(parts) != 3:
                raise ValueError("range form is start:stop:step")
            start, stop, step = parts
            if not all(map(math.isfinite, parts)):
                raise ValueError("range needs a finite start, stop and step")
            if step <= 0 or stop < start:
                raise ValueError("range needs step > 0 and stop >= start")
            end = stop + 1e-12 * max(1.0, abs(stop))
            if (end - start) / step >= _U_RANGE_MAX:
                raise ValueError(f"range holds more than {_U_RANGE_MAX:,} points")
            out = []
            k = 0
            while True:
                v = start + k * step
                if v > end:
                    break
                if out and v <= out[-1]:  # a step below the float spacing at v
                    raise ValueError("--u values must be strictly increasing")
                out.append(v)
                k += 1
            return out
        out = [float(p) for p in spec.split(",") if p.strip()]
        if not out:
            raise ValueError("empty u list")
        return out
    except ValueError as e:
        raise ConfigError(f"cannot parse --u {spec!r}: {e}", path=None) from e


def _check_u_grid(us: list[float]) -> list[float]:
    if any(not (u > 0.0) or u == INF for u in us):
        raise ConfigError("--u values must be strictly positive reals", path=None)
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ConfigError("--u values must be strictly increasing", path=None)
    return us


def _resolve_model_path(name: str) -> str:
    if os.path.exists(name):
        return name
    if "/" not in name and "\\" not in name:
        base = resources.files("ruinbounds") / "configs" / f"{name}.json"
        if base.is_file():
            return str(base)
        bundled = sorted(p.name[:-5] for p in (resources.files("ruinbounds") / "configs").iterdir() if p.name.endswith(".json"))
        raise ConfigError(f"no file {name!r} and no bundled config of that name (bundled: {', '.join(bundled)})", path=None)
    raise ConfigError(f"model file not found: {name}", path=None)


# the models of the configs read last, by the bytes of their files (_load)
_MODELS: OrderedDict[bytes, RiskModel] = OrderedDict()
_MODELS_KEPT = 32
_MODELS_LOCK = threading.Lock()


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:  # load_model reports it
        return None


def _load(args) -> RiskModel:
    """The request's model, an event model reduced. The models of the
    _MODELS_KEPT configs used last are kept by the bytes of their files, so an
    edited file gets a new model. A model keeps only what depends on neither
    h nor u (its law record, routes, verdicts, probe plans and adjustment
    coefficients), so a repeated request solves no coefficient again; every
    request makes its own search record. A config that fails is never kept."""
    path = _resolve_model_path(args.model)
    raw = _read(path)
    with _MODELS_LOCK:
        model = _MODELS.get(raw)
        if model is not None:
            _MODELS.move_to_end(raw)
            return model
    model = load_model(path)
    if isinstance(model, EventModel):
        model = reduce_event_model(model)
    if raw is not None and _read(path) == raw:  # the file did not change while it was loaded
        with _MODELS_LOCK:
            _MODELS[raw] = model
            if len(_MODELS) > _MODELS_KEPT:
                _MODELS.popitem(last=False)
    return model


def _policy(args, us=None) -> TruncationPolicy:
    policy = TruncationPolicy() if args.kmax is None else TruncationPolicy(k_max=args.kmax)
    if us:
        k_max = 10.0 * max(us)
        if k_max == INF:
            raise ConfigError(f"--u {max(us):g} is too large: the truncation index 10 u is not finite", path=None)
        return TruncationPolicy(k_max=max(policy.k_max, int(k_max)))
    return policy


def _emit(rows: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        # standard JSON has no non-finite numbers: they are written as the CSV cell text
        rows = [{k: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
                for row in rows]
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _infer_l(model: RiskModel, args) -> int:
    if args.l is not None:
        return args.l
    if not isinstance(model.increments, (Periodic, QuasiPeriodicScaled)):
        raise ConfigError("model has no cycle to infer --l from; pass --l", path=None)
    block = model._block
    if block is None:
        raise ConfigError("rates have no period, or the effective period is too long; pass --l", path=None)
    return block.length


# ---------------------------------------------------------------------------
# subcommands


def cmd_adjustment(args) -> int:
    model = _load(args)
    search = Search(model, _policy(args))
    results = [solve_per_increment(search, args.tol), solve_partial_sum(search, args.tol)]
    # without --l, the period root only where the block meets its hypotheses
    if isinstance(model.increments, (Periodic, QuasiPeriodicScaled)) and model.rates.period() is not None \
            and (args.l is not None or not _block_unfit(model)):
        results.append(solve_period_root(model, _infer_l(model, args), args.tol))
    base = iid_base(model)
    if base is not None:
        results.append(solve_kappa(base, args.tol))
    rows = []
    for r in results:
        lo, hi = r.bracket if r.bracket else (None, None)
        rows.append({
            "flavor": r.flavor, "value": r.value, "certified": r.certified,
            "bracket_low": lo, "bracket_high": hi, "boundary": r.boundary, "note": r.note,
        })
    _emit(rows, ["flavor", "value", "certified", "bracket_low", "bracket_high", "boundary", "note"], args)
    uncertified = [r.flavor for r in results if not r.certified]
    if uncertified:
        _warn(f"uncertified coefficients (lower estimates): {', '.join(uncertified)}")
        if args.strict:
            return EXIT_STRICT
    return OK


# each bound method: the flags of _BOUND_FLAGS it reads, the one of them it
# needs (None if it needs none), and its call on (search, u, args), search
# being the request's record (models.Search), which the bounds that search h take in place of the model.
# The calls look the bound functions up by their names in this module.
_BOUND_FLAGS = ("h", "l", "m", "lstar")
_BOUND_METHODS = {
    "optimized": ((), None, lambda s, u, a: bound_optimize(s, u)),
    "fixed_h": (("h",), "h", lambda s, u, a: bound_at_h(s, u, a.h)),
    "per_increment": ((), None, lambda s, u, a: bound_per_increment(s, u, a.tol)),
    "periodic": (("l", "h"), None, lambda s, u, a: bound_periodic(
        s, _infer_l(s.model, a), "periodic", u=u, at_h=a.h, tol=a.tol)),
    "scaled_periodic": (("l", "h"), None, lambda s, u, a: bound_periodic(
        s, _infer_l(s.model, a), "scaled_periodic", u=u, at_h=a.h, tol=a.tol)),
    "shift_window": (("l", "m", "lstar"), "lstar", lambda s, u, a: bound_periodic(
        s, _infer_l(s.model, a), "shift_window", u=u, start_index=1 if a.m is None else a.m,
        exponent=a.lstar, tol=a.tol)),
    "kappa": ((), None, lambda s, u, a: bound_kappa(s.model, u, a.tol)),
    "union": (("h",), "h", lambda s, u, a: bound_union(s.model, u, a.h, s.policy)),
}


def _check_bound_flags(args, option: str, method: str) -> None:
    """A flag of _BOUND_FLAGS that the method does not read is a configuration
    error, as is a missing flag that it needs. simulate's method 'none' reads
    none."""
    reads, needs = _BOUND_METHODS[method][:2] if method in _BOUND_METHODS else ((), None)
    if needs is not None and getattr(args, needs) is None:
        raise ConfigError(f"{option} {method} needs --{needs}", path=None)
    unread = [f"--{flag}" for flag in _BOUND_FLAGS if flag not in reads and getattr(args, flag) is not None]
    if unread:
        raise ConfigError(f"{option} {method} does not read {', '.join(unread)}", path=None)


def _bound_grid(search: Search, us, args, method: str) -> list:
    """The method's bound at every u of the grid. The u share the request's record,
    so the sups, roots and certificates that do not depend on u are found once."""
    call = _BOUND_METHODS[method][2]
    return [call(search, u, args) for u in us]


def _bound_row(b) -> dict:
    """A bound's cells; log10_C, finite where C is too large for a float, is
    written only by --format json (the CSV columns leave it out)."""
    cert_c = cert_l = log10_c = None
    if b.certificate is not None:
        cert_c = math.exp(b.certificate.log_c) if b.certificate.log_c < 700.0 else INF
        cert_l = b.certificate.exponent
        log10_c = b.certificate.log_c / math.log(10.0)
    return {
        "u": b.u, "method": b.method, "h_star": b.h_star, "log10_bound": b.log10_bound,
        "C": cert_c, "log10_C": log10_c, "L": cert_l, "certified": b.certified,
    }


def cmd_bound(args) -> int:
    model = _load(args)
    us = _check_u_grid(_parse_u_spec(args.u))
    _check_bound_flags(args, "--method", args.method)
    bounds = _bound_grid(Search(model, _policy(args, us)), us, args, args.method)
    _emit([_bound_row(b) for b in bounds], ["u", "method", "h_star", "log10_bound", "C", "L", "certified"], args)
    uncertified = [b for b in bounds if not b.certified]
    if uncertified:
        _warn(f"{len(uncertified)} uncertified bound row(s); values may understate the true bound")
        if args.strict:
            return EXIT_STRICT
    return OK


def cmd_simulate(args) -> int:
    model = _load(args)
    us = _check_u_grid(_parse_u_spec(args.u))
    cfg = SimConfig(
        n_paths=args.paths, horizon=args.horizon, seed=args.seed,
        stop_gap=args.stop_gap, workers=None,
    )
    _check_bound_flags(args, "--bound-method", args.bound_method)
    search = None if args.bound_method == "none" else Search(model, _policy(args, us))
    sims = simulate_ruin_grid(model, us, cfg)
    bounds = None if search is None else _bound_grid(search, us, args, args.bound_method)
    rows = []
    violated = False
    for i, s in enumerate(sims):
        row = {
            "u": s.u, "n_paths": s.n_paths, "K": s.horizon, "ruin_count": s.ruin_count,
            "estimate": s.estimate, "ci_low": s.ci_low, "ci_high": s.ci_high,
            "bound": None, "dominated": None,
        }
        if bounds is not None:
            bound = math.exp(bounds[i].log_bound)
            dominated = s.ci_low <= bound + 1e-12
            row["bound"] = bound
            row["dominated"] = dominated
            violated = violated or not dominated
        rows.append(row)
    _emit(rows, ["u", "n_paths", "K", "ruin_count", "estimate", "ci_low", "ci_high", "bound", "dominated"], args)
    if violated:
        _warn("a simulated interval escaped above its bound")
        return EXIT_DOMINANCE
    if bounds is not None:
        uncertified = [b for b in bounds if not b.certified]
        if uncertified:
            _warn(f"{len(uncertified)} uncertified bound row(s)")
            if args.strict:
                return EXIT_STRICT
    return OK


def cmd_compare(args) -> int:
    model = _load(args)
    us = _check_u_grid(_parse_u_spec(args.u))
    policy = _policy(args, us)
    cfg = SimConfig(n_paths=args.paths, horizon=args.horizon, seed=args.seed, stop_gap=args.stop_gap)
    sims = simulate_ruin_grid(model, us, cfg)
    search = Search(model, policy)
    opts = _bound_grid(search, us, args, "optimized")
    pers = _bound_grid(search, us, args, "per_increment")
    rows = []
    for u, sim, opt, per in zip(us, sims, opts, pers):
        uni = bound_union(model, u, opt.h_star if opt.h_star not in (0.0, INF) else 1.0, policy)
        entries = {"optimized": opt.log10_bound, "union": uni.log10_bound, "per_increment": per.log10_bound}
        for name, c, lam in EXTERNAL_REFERENCES:
            entries[name] = min(0.0, (math.log(c) - lam * u) / math.log(10.0))
        winner = min(entries, key=entries.get)
        rows.append({
            "u": u,
            "log10_optimized": entries["optimized"],
            "log10_union": entries["union"],
            "log10_per_increment": entries["per_increment"],
            "log10_external_a": entries["external_a"],
            "log10_external_b": entries["external_b"],
            "mc_estimate": sim.estimate,
            "mc_ci_high": sim.ci_high,
            "winner": winner,
        })
    _emit(rows, ["u", "log10_optimized", "log10_union", "log10_per_increment",
                 "log10_external_a", "log10_external_b", "mc_estimate", "mc_ci_high", "winner"], args)
    return OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared by every
    later one in the process. Parsing keeps nothing on the parser: each call
    reads its argv into a fresh Namespace, and usage and help are formatted
    per call, at the terminal width of that call. Two threads that both make
    the first call may each build one; the cache keeps one, and they are equal."""
    parser = argparse.ArgumentParser(
        prog="ruinbounds",
        description="Lundberg-type ruin probability bounds for non-homogeneous discrete-time risk models.",
        epilog="external_a/external_b in `compare` are the published reference curves "
               "1502*exp(-0.01269 u) and 178*exp(-u/20), evaluated from their printed constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strict=True, seed=False, bound=False):
        p.add_argument("--model", required=True, help="model config path, or the name of a bundled config")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if strict:
            p.add_argument("--strict", action="store_true", help="exit 3 when any result is uncertified")
        p.add_argument("--kmax", type=int, default=None, help="sup/scan truncation index (default 10000, auto-raised with u)")
        p.add_argument("--tol", type=float, default=1e-10, help="root tolerance (default 1e-10)")
        if bound:  # the flags that _BOUND_METHODS reads
            p.add_argument("--h", type=float, default=None, help="exponent for fixed_h/union, or sub-root at_h for periodic variants")
            p.add_argument("--l", type=int, default=None, help="period length (default: inferred cycle length)")
            p.add_argument("--m", type=int, default=None, help="start index for shift_window (default 1)")
            p.add_argument("--lstar", type=float, default=None, help="exponent for shift_window")

    p = sub.add_parser("adjustment", help="solve all applicable adjustment coefficients")
    common(p)
    p.add_argument("--l", type=int, default=None, help="period length (default: inferred cycle length)")
    p.set_defaults(func=cmd_adjustment)

    p = sub.add_parser("bound", help="evaluate a bound method over a u-grid")
    common(p, bound=True)
    p.add_argument("--u", required=True, help=_U_HELP)
    p.add_argument("--method", choices=tuple(_BOUND_METHODS), default="optimized")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo ruin frequency with exact intervals")
    common(p, seed=True, bound=True)
    p.add_argument("--u", required=True, help=_U_HELP)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=5000)
    p.add_argument("--stop-gap", dest="stop_gap", type=float, default=None,
                   help="retire a path once it falls this far below its running maximum (approximation)")
    p.add_argument("--bound-method", dest="bound_method", choices=(*_BOUND_METHODS, "none"), default="optimized",
                   help="bound for the dominance column (default optimized; 'none' disables)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="our bounds vs the union baseline, external reference curves, and MC")
    common(p, strict=False, seed=True)
    p.add_argument("--u", required=True, help=_U_HELP)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=5000)
    p.add_argument("--stop-gap", dest="stop_gap", type=float, default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PeriodHypothesisError as e:
        print(f"config error: model violates the method's hypotheses: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, ModelIndexError) as e:  # ConfigError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
