"""Correctness gate of the benchmark.

Every request is checked three ways:
- it gives the same rows in every round;
- seed-independent oracles: the classical model's exact ruin probability
  0.5 exp(-u/2) lies inside every simulated interval and under every certified
  bound, and every optimized bound curve is nonincreasing in u;
- at the default seed, its rows match the frozen reference rows taken at the
  commit that introduced the benchmark.

Reference matching: numbers agree to 12 significant digits, and simulated
ruin counts exactly. A certified bound may drop below its reference (a tighter
bound is a gain) but not rise; a certified row may not turn uncertified, while
an uncertified one may become certified.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CLASSICAL = "classical_poisson_exponential"
_LOG10 = math.log(10.0)


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


def _same12(a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = _num(a), _num(b)
    return math.isclose(x, y, rel_tol=1e-11, abs_tol=1e-300)


def _compare_row(got: dict, ref: dict) -> str | None:
    """Why got fails against its reference row, or None."""
    if set(got) != set(ref):
        return f"columns {sorted(got)} != {sorted(ref)}"
    for col in ("u", "method", "flavor", "n_paths", "K", "ruin_count"):
        if col in ref and got[col] != ref[col] and not (col == "u" and _same12(got[col], ref[col])):
            return f"{col} {got[col]} != {ref[col]}"
    if "certified" in ref:
        if ref["certified"] == "true" and got["certified"] != "true":
            return "row turned uncertified"
        if ref["certified"] == "false" and got["certified"] == "true":
            return None  # newly certified: the uncertified reference value was only a lower estimate
    if "log10_bound" in ref and got["certified"] == "true" and _num(got["log10_bound"]) < _num(ref["log10_bound"]) \
            and not _same12(got["log10_bound"], ref["log10_bound"]):
        return None  # a tighter certified bound
    for col, cell in ref.items():
        if col not in ("method", "flavor", "certified") and not _same12(got[col], cell):
            return f"{col} {got[col]} != {cell}"
    return None


def _oracles(request: tuple, rows: list[dict]) -> str | None:
    if request[0] == "cli":
        argv = request[1]
        model = argv[argv.index("--model") + 1].lstrip("@")
    else:
        model = request[1]
    for row in rows:
        if "log10_bound" in row:
            lb = _num(row["log10_bound"])
            if not lb <= 0.0:
                return f"log10_bound {lb} > 0"
            exact = math.log(0.5) / _LOG10 - _num(row["u"]) / (2.0 * _LOG10)
            if model == CLASSICAL and row["certified"] == "true" and lb < exact - 1e-9:
                return f"certified bound {lb} below the exact log10 psi {exact} at u={row['u']}"
        if "ruin_count" in row:
            if not 0 <= int(row["ruin_count"]) <= int(row["n_paths"]):
                return "ruin count out of range"
            exact = 0.5 * math.exp(-0.5 * _num(row["u"]))
            if model == CLASSICAL and not _num(row["ci_low"]) <= exact <= _num(row["ci_high"]):
                return f"exact psi {exact} outside [{row['ci_low']}, {row['ci_high']}] at u={row['u']}"
    optimized = [_num(r["log10_bound"]) for r in rows if r.get("method") == "optimized"]
    if any(b > a + 1e-9 for a, b in zip(optimized, optimized[1:])):
        return "optimized curve increases in u"
    return None


def load_reference(workload: str) -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def gate(requests: list, outputs: list, reference: dict | None) -> list[str | None]:
    """One verdict per request: None when it passed, else the reason it failed.

    outputs[i] lists, per round, the rows request i gave (or the exception it
    raised). reference is None away from the default seed.
    """
    from workloads import key

    verdicts = []
    curves: dict[str, list] = {}
    for request, runs in zip(requests, outputs):
        errors = [r for r in runs if isinstance(r, BaseException)]
        if errors:
            verdicts.append(f"raised {type(errors[0]).__name__}: {errors[0]}")
            continue
        first = runs[0]
        if any(r != first for r in runs[1:]):
            verdicts.append("rows differ between rounds")
            continue
        why = _oracles(request, first)
        if why is None and reference is not None:
            ref = reference.get(key(request))
            if ref is None:
                why = "no reference rows for this request"
            elif len(ref) != len(first):
                why = f"{len(first)} rows, reference has {len(ref)}"
            else:
                why = next((w for w in map(_compare_row, first, ref) if w), None)
        if why is None and request[0] == "bound_optimize":
            curves.setdefault(request[1], []).append((request[2], len(verdicts), first[0]))
        verdicts.append(why)
    # library-call optimized curves span several requests: check them per model
    for points in curves.values():
        points.sort()
        for (_, _, a), (_, j, b) in zip(points, points[1:]):
            if _num(b["log10_bound"]) > _num(a["log10_bound"]) + 1e-9:
                verdicts[j] = "optimized curve increases in u"
    return verdicts
