"""Command-line front end.

Subcommands: adjustment (coefficients for a model), bound (upper-bound curves
over a u-grid), simulate (seeded Monte Carlo with exact intervals and bound
dominance), compare (our bounds side by side with the union baseline, two
externally published reference curves, and a simulation estimate).

Exit codes: 0 success, 2 configuration error, 3 uncertified results under
--strict, 4 a simulated estimate escaped above its bound.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources

from .adjustment import solve_kappa, solve_partial_sum, solve_per_increment, solve_period_root
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

_BOUND_METHODS = ("optimized", "fixed_h", "per_increment", "periodic", "scaled_periodic", "shift_window", "kappa", "union")


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
            if step <= 0 or stop < start:
                raise ValueError("range needs step > 0 and stop >= start")
            out = []
            k = 0
            while True:
                v = start + k * step
                if v > stop + 1e-12 * max(1.0, abs(stop)):
                    break
                out.append(v)
                k += 1
            return out
        out = [float(p) for p in spec.split(",") if p.strip()]
        if not out:
            raise ValueError("empty u list")
        return out
    except ValueError as e:
        raise ConfigError(f"cannot parse --u {spec!r}: {e}") from e


def _check_u_grid(us: list[float]) -> list[float]:
    if any(not (u > 0.0) or u == INF for u in us):
        raise ConfigError("--u values must be strictly positive reals")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ConfigError("--u values must be strictly increasing")
    return us


def _resolve_model_path(name: str) -> str:
    if os.path.exists(name):
        return name
    if "/" not in name and "\\" not in name:
        base = resources.files("ruinbounds") / "configs" / f"{name}.json"
        if base.is_file():
            return str(base)
        bundled = sorted(p.name[:-5] for p in (resources.files("ruinbounds") / "configs").iterdir() if p.name.endswith(".json"))
        raise ConfigError(f"no file {name!r} and no bundled config of that name (bundled: {', '.join(bundled)})")
    raise ConfigError(f"model file not found: {name}")


def _load(args) -> RiskModel:
    model = load_model(_resolve_model_path(args.model))
    if isinstance(model, EventModel):
        model = reduce_event_model(model)
    return model


def _policy(args, us=None) -> TruncationPolicy:
    policy = TruncationPolicy() if args.kmax is None else TruncationPolicy(k_max=args.kmax)
    if us:
        return TruncationPolicy(k_max=max(policy.k_max, int(10 * max(us))))
    return policy


def _emit(rows: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        payload = json.dumps(rows, indent=2)
        text = payload + "\n"
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
    if args.l:
        return args.l
    if not isinstance(model.increments, (Periodic, QuasiPeriodicScaled)):
        raise ConfigError("model has no cycle to infer --l from; pass --l")
    block = model._block
    if block is None:
        raise ConfigError("rates have no period, or the effective period is too long; pass --l")
    return block.length


# ---------------------------------------------------------------------------
# subcommands


def cmd_adjustment(args) -> int:
    model = _load(args)
    policy = _policy(args)
    tol = args.tol or 1e-10
    results = [solve_per_increment(model, tol, policy), solve_partial_sum(model, tol, policy)]
    if isinstance(model.increments, (Periodic, QuasiPeriodicScaled)) and model.rates.period() is not None:
        results.append(solve_period_root(model, _infer_l(model, args), tol))
    base = iid_base(model)
    if base is not None:
        results.append(solve_kappa(base, tol))
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


def _bound_for(model, u, args, policy):
    method = args.method
    tol = args.tol or 1e-10
    if method == "optimized":
        return bound_optimize(model, u, policy)
    if method == "fixed_h":
        if args.h is None:
            raise ConfigError("--method fixed_h needs --h")
        return bound_at_h(model, u, args.h, policy)
    if method == "per_increment":
        return bound_per_increment(model, u, tol, policy)
    if method in ("periodic", "scaled_periodic"):
        return bound_periodic(model, _infer_l(model, args), method, u=u, at_h=args.h, tol=tol, policy=policy)
    if method == "shift_window":
        if args.lstar is None:
            raise ConfigError("--method shift_window needs --lstar")
        return bound_periodic(model, _infer_l(model, args), "shift_window", u=u,
                              start_index=args.m or 1, exponent=args.lstar, tol=tol, policy=policy)
    if method == "kappa":
        return bound_kappa(model, u, tol)
    if method == "union":
        if args.h is None:
            raise ConfigError("--method union needs --h")
        return bound_union(model, u, args.h, policy)
    raise ConfigError(f"unknown method {method!r} (choices: {', '.join(_BOUND_METHODS)})")


def _bound_row(b) -> dict:
    cert_c = cert_l = None
    if b.certificate is not None:
        cert_c = math.exp(b.certificate.log_c) if b.certificate.log_c < 700.0 else INF
        cert_l = b.certificate.exponent
    return {
        "u": b.u, "method": b.method, "h_star": b.h_star, "log10_bound": b.log10_bound,
        "C": cert_c, "L": cert_l, "certified": b.certified,
    }


def cmd_bound(args) -> int:
    model = _load(args)
    us = _check_u_grid(_parse_u_spec(args.u))
    policy = _policy(args, us)
    bounds = [_bound_for(model, u, args, policy) for u in us]
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
    sims = simulate_ruin_grid(model, us, cfg)
    bounds = None
    if args.bound_method != "none":
        bound_args = argparse.Namespace(**vars(args))
        bound_args.method = args.bound_method
        policy = _policy(args, us)
        bounds = [_bound_for(model, u, bound_args, policy) for u in us]
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
    tol = args.tol or 1e-10
    cfg = SimConfig(n_paths=args.paths, horizon=args.horizon, seed=args.seed, stop_gap=args.stop_gap)
    sims = simulate_ruin_grid(model, us, cfg)
    rows = []
    for u, sim in zip(us, sims):
        opt = bound_optimize(model, u, policy)
        uni = bound_union(model, u, opt.h_star if opt.h_star not in (0.0, INF) else 1.0, policy)
        per = bound_per_increment(model, u, tol, policy)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinbounds",
        description="Lundberg-type ruin probability bounds for non-homogeneous discrete-time risk models.",
        epilog="external_a/external_b in `compare` are the published reference curves "
               "1502*exp(-0.01269 u) and 178*exp(-u/20), evaluated from their printed constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strict=True, seed=False):
        p.add_argument("--model", required=True, help="model config path, or the name of a bundled config")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if strict:
            p.add_argument("--strict", action="store_true", help="exit 3 when any result is uncertified")
        p.add_argument("--kmax", type=int, default=None, help="sup/scan truncation index (default 10000, auto-raised with u)")
        p.add_argument("--tol", type=float, default=None, help="root tolerance (default 1e-10)")

    p = sub.add_parser("adjustment", help="solve all applicable adjustment coefficients")
    common(p)
    p.add_argument("--l", type=int, default=None, help="period length (default: inferred cycle length)")
    p.set_defaults(func=cmd_adjustment)

    p = sub.add_parser("bound", help="evaluate a bound method over a u-grid")
    common(p)
    p.add_argument("--u", required=True, help="u grid: comma list or start:stop:step")
    p.add_argument("--method", choices=_BOUND_METHODS, default="optimized")
    p.add_argument("--h", type=float, default=None, help="exponent for fixed_h/union, or sub-root at_h for periodic variants")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="start index for shift_window")
    p.add_argument("--lstar", type=float, default=None, help="exponent for shift_window")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo ruin frequency with exact intervals")
    common(p, seed=True)
    p.add_argument("--u", required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=5000)
    p.add_argument("--stop-gap", dest="stop_gap", type=float, default=None,
                   help="retire a path once it falls this far below its running maximum (approximation)")
    p.add_argument("--bound-method", dest="bound_method", choices=_BOUND_METHODS + ("none",), default="optimized",
                   help="bound for the dominance column (default optimized; 'none' disables)")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--lstar", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="our bounds vs the union baseline, external reference curves, and MC")
    common(p, strict=False, seed=True)
    p.add_argument("--u", required=True)
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
