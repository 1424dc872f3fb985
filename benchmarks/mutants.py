"""Mutation checks: small edits of the package that named tests must catch.

    python3 benchmarks/mutants.py [--only NAME ...] [--timeout SECONDS]

Outside the test suite's testpaths, so plain `python -m pytest` skips it.
Each entry of MUTANTS is (name, file under src/ruinbounds, edits, pytest node
ids), where each edit is (exact old text, new text). A mutant is applied in a
temporary copy of src/, tests/ and pyproject.toml, never in the checkout: every
occurrence of each old text is replaced, and the named tests run there with -x,
a fixed Hypothesis seed and a time limit. The mutant is

- killed when the tests fail (or run past the time limit),
- survived when they pass: a test is missing, or the edit changes nothing,
- stale when an old text is not in the file: the code it mutates has moved,
  and the entry must follow it.

The named tests first run once on an unmutated copy; if they fail there, no
verdict means anything, and the script exits 2. Otherwise it prints one line
per mutant and then the verdicts as one JSON line, and exits 0 only if every
mutant is killed.

A change that adds a certificate, a shortcut or a cache adds the mutants
that its tests must kill; a change that moves mutated code updates the
entries that went stale, which tests/test_mutants.py finds without running
a mutant.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ONE_PASS = ("tests/test_properties.py::TestOnePassBlockSup", "tests/test_properties.py::TestSignedTailEnvelope",
             "tests/test_models.py::TestSupLogMgf")
_KERNELS = ("tests/test_properties.py::TestBlockKernels",)
_CACHE = ("tests/test_serialize_cli.py::TestCliModelCache",)
_CHORDS = ("tests/test_properties.py::TestChordCertificates",)
_CHORD_ORACLE = ("tests/test_properties.py::TestRoundingBound::test_a_closed_chord_probe_bounds_its_rounding",)
_RECORD = ("tests/test_bounds.py::TestGridMemo",)
_KEPT = ("tests/test_properties.py::TestKeptSolves",)
_WINDOW = ("tests/test_adjustment.py::TestWindowExponent",)

# name: (file, ((old, new), ...), node ids)
MUTANTS = {
    # models._sup_periodic, the one-pass block sup and its tail envelope
    "envelope_positive_mass_unfiltered": ("models.py", (
        ("if term > 0.0:\n                pos += term", "if True:\n                pos += term"),), _ONE_PASS),
    "envelope_top_carried_across_periods": ("models.py", (
        ("        pos, total, top = 0.0, -0.0, -INF\n        for k, w in zip(tail",
         "        pos, total = 0.0, -0.0\n        for k, w in zip(tail"),), _ONE_PASS),
    "tail_overflow_check_dropped": ("models.py", (
        ("        if best == INF:\n            return SupLogMgf(INF, arg,", "        if False:\n            return SupLogMgf(INF, arg,"),),
        _ONE_PASS),
    "head_nan_stop_dropped": ("models.py", (("elif g != g:", "elif False:"),), _ONE_PASS),
    "period_sum_over_the_prefix": ("models.py", (("        if j > P:\n", "        if j > 0:\n"),), _ONE_PASS),
    # the walk's own calls of the slots' kernels, and the tail's loop
    "kernel_zero_guard_dropped": ("models.py", (("k(t) if t else 0.0", "k(t)"),), _KERNELS),
    "tail_first_maximum_not_strict": ("models.py", (("            if g > best:\n", "            if g >= best:\n"),), _KERNELS),
    # bounds.bound_optimize, the bracket that closes at the first rise past the values' rounding
    "bracket_rise_not_strict": ("bounds.py", (("fh - fs[-1] > 2.0 * (carried(h) + carried(pts[-1]))", "fh >= fs[-1]"),),
                                ("tests/test_bounds.py::TestOptimize",)),
    "bracket_rise_without_rounding": ("bounds.py", (("2.0 * (carried(h) + carried(pts[-1]))", "0.0"),),
                                      ("tests/test_properties.py::TestFirstRiseBracket",)),
    # models._sup_scan's stop at the first value that is not a number, and
    # log_mgf_terms' cut after the first +inf
    "scan_nan_stop_dropped": ("models.py", (("            if top != top:\n", "            if False:\n"),),
                              ("tests/test_models.py::TestSupLogMgf::test_a_scan_stops_at_a_value_that_is_not_a_number",)),
    "terms_uncut_at_inf": ("models.py", (("    return terms[:cut[0] + 1] if cut.size else terms\n", "    return terms\n"),),
                           ("tests/test_properties.py::TestTermKernelParity",)),
    # models._require_h, the one input contract for h
    "inf_h_accepted": ("models.py", (("0.0 <= h < INF", "0.0 <= h"),), _KERNELS),
    # models._sup_shrinking, the per-increment limit of cycles past _BLOCK_MAX
    "shrinking_without_decay": ("models.py", (
        ("    if laws.log_ratio < 0.0 or not model.zero_rates():\n", "    if True:\n"),),
        ("tests/test_adjustment.py::TestLongPeriodCycles",)),
    # cli._load, the models kept per process
    "cache_keyed_by_path": ("cli.py", (
        ("_MODELS.get(raw)", "_MODELS.get(path)"),
        ("_MODELS.move_to_end(raw)", "_MODELS.move_to_end(path)"),
        ("_MODELS[raw] = model", "_MODELS[path] = model")), _CACHE),
    "cache_keeps_errors": ("cli.py", (
        ("    model = load_model(path)\n",
         "    try:\n        model = load_model(path)\n    except ConfigError as e:\n"
         "        _MODELS[raw] = e\n        raise\n"),), _CACHE),
    # models._keep_scan and _chord_probe, the chord certificates of finite-horizon scans
    "chord_lam_one": ("models.py", (("    lam = h / h0\n", "    lam = 1.0\n"),), _CHORDS),
    "chord_without_lam_d": ("models.py", (
        ("values[-1] + bound <= best - margin", "values[-1] <= best - margin"),), _CHORDS),
    "chord_margin_of_the_wrong_sign": ("models.py", (
        ("values[-1] + bound <= best - margin", "values[-1] + bound <= best + margin"),), _CHORDS),
    "chord_shifted_d": ("models.py", (("rest, S0 = finite[n:].cumsum()", "rest, S0 = finite[n:].cumsum() - finite[n]"),),
                        _CHORDS),
    "chord_wrong_subset_rows": ("models.py", (
        ("plan.subset(np.concatenate((np.arange(n), J[k:], J[:k])))",
         "plan.subset(np.concatenate((np.arange(n), J[k:] - 1, J[:k])))"),), _CHORDS),
    # the chord margins' E: models._rounding_scale of the reference's range, and models._error
    "chord_margin_without_domain_part": ("models.py", (
        ("    scale = _rounding_scale(model, K)\n", "    scale = (*_rounding_scale(model, K)[:5], 0.0, INF)\n"),),
        _CHORD_ORACLE),
    "chord_margin_without_logs": ("models.py", (
        ("    scale = _rounding_scale(model, K)\n",
         "    scale = (*_rounding_scale(model, K)[:4], 0.0, *_rounding_scale(model, K)[5:])\n"),),
        _CHORD_ORACLE),
    "margin_without_rounding_bound": ("models.py", (
        ("    return (a * (top + parts[0]) + b * parts[1]) / (1.0 - a) + 1e-300 if", "    return 0.0 if"),), _CHORD_ORACLE),
    # models._unpacked and the searches that take a record in place of the model
    "record_policy_check_dropped": ("models.py", (
        ("if policy is not None and policy != model.policy:", "if False:"),), _RECORD),
    "bound_makes_a_fresh_record": ("bounds.py", (
        ("search = search or Search(model, policy)", "search = Search(model, policy)"),), _RECORD),
    "solve_ignores_its_record": ("adjustment.py", (
        ("search, sup = search or Search(model, policy),", "search, sup = Search(model, policy),"),), _RECORD),
    # adjustment._solved, the coefficients kept on the model, and models._Memo's cap on them
    "solve_key_without_tol": ("adjustment.py", (("(flavor, tol, policy)", "(flavor, policy)"),), _KEPT),
    "solve_key_without_policy": ("adjustment.py", (("(flavor, tol, policy)", "(flavor, tol)"),), _KEPT),
    "period_root_key_without_tol": ("adjustment.py", (('("period_root", l, tol)', '("period_root", l)'),), _KEPT),
    "period_root_key_without_l": ("adjustment.py", (('("period_root", l, tol)', '("period_root", tol)'),), _KEPT),
    "solves_kept_past_the_cap": ("models.py", ((" and self.solves + solves <= _SOLVES_KEPT", ""),), _KEPT),
    # adjustment.verify_window_exponent, the period shift that extends the checked windows
    "window_unfit_guard_skipped": ("adjustment.py", (("    elif _block_unfit(model):\n", "    elif False:\n"),),
                                   ("tests/test_adjustment.py::TestWindowExponent::test_amplifying_tail_is_unverifiable",)),
    "window_prefix_ignored": ("adjustment.py", (("max(m, block.prefix + 1)", "max(m, 1)"),), _WINDOW),
    "window_divergent_exit_dropped": ("adjustment.py", (("    if terms[-1] == INF:\n", "    if False:\n"),), _WINDOW),
}


def _copy(directory: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, directory / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", directory / "pyproject.toml")


def _pytest(directory: Path, node_ids, timeout: float) -> str | None:
    """None if the tests pass in the copy, else what failed: the first failing
    test, or the time limit."""
    env = dict(os.environ, PYTHONPATH=str(directory / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           *node_ids]
    try:
        done = subprocess.run(cmd, cwd=directory, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"the time limit of {timeout:g} s"
    if done.returncode == 0:
        return None
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return failed[0] if failed else f"pytest exit code {done.returncode}"


def run_mutant(name: str, timeout: float) -> tuple[str, str | None]:
    """(verdict, the failure that killed the mutant, or None)."""
    file, edits, node_ids = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        directory = Path(tmp)
        _copy(directory)
        path = directory / "src" / "ruinbounds" / file
        text = path.read_text(encoding="utf-8")
        for old, new in edits:
            if old not in text:
                return "stale", None
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
        failure = _pytest(directory, node_ids, timeout)
        return ("killed" if failure else "survived"), failure


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", choices=tuple(MUTANTS), help="run only these mutants")
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per test run (default 300)")
    args = ap.parse_args(argv)
    names = args.only or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        _copy(Path(tmp))
        node_ids = list(dict.fromkeys(node for name in names for node in MUTANTS[name][2]))
        failure = _pytest(Path(tmp), node_ids, args.timeout)
        if failure:
            print(f"without a mutant the named tests fail ({failure}); no verdict is possible")
            return 2
    verdicts = {}
    for name in names:
        t0 = time.perf_counter()
        verdicts[name], failure = run_mutant(name, args.timeout)
        by = f" by {failure}" if failure else ""
        print(f"{name:>36}: {verdicts[name]}{by} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(json.dumps({"verdicts": verdicts, "killed": sum(v == "killed" for v in verdicts.values()),
                      "mutants": len(verdicts)}))
    return 0 if all(v == "killed" for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
