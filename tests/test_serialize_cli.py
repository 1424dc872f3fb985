"""Config round-trips, error diagnostics, and the command-line surface."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest

from ruinbounds import (
    BoundResult,
    ConstantRates,
    EventModel,
    ExplicitRates,
    Normal,
    Periodic,
    PeriodicRates,
    QuasiPeriodicScaled,
    RiskModel,
    bound_optimize,
    bound_per_increment,
    bound_periodic,
    reduce_event_model,
)
from ruinbounds import cli
from ruinbounds.serialize import (
    ConfigError,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
)


BUNDLED = (
    "alternating_normals",
    "classical_poisson_exponential",
    "linear_drift_normals",
    "two_point_decay",
    "uniform_exponential_cycle",
)


def bundled_path(name):
    return cli._resolve_model_path(name)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def src_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# dict round-trips


class TestRoundTrips:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_configs_round_trip(self, name):
        model = load_model(bundled_path(name))
        again = model_from_dict(model_to_dict(model))
        assert again == model
        assert model.label  # every shipped config is labelled

    def test_bare_number_rates_shorthand(self):
        m = model_from_dict({
            "increments": {"kind": "indexed_normal", "slope": -0.5, "intercept": 0.25},
            "rates": 0.05,
        })
        assert m.rates == ConstantRates(0.05)
        # the shorthand is normalized on the way back out
        assert model_to_dict(m)["rates"] == {"kind": "constant", "rate": 0.05}

    def test_rates_default_to_zero(self):
        m = model_from_dict({"increments": {"kind": "indexed_two_point"}})
        assert m.rates == ConstantRates(0.0)

    def test_nested_families_round_trip(self):
        cfg = {
            "increments": {
                "kind": "prefix_tail",
                "prefix": [
                    {"family": "degenerate", "value": -1.5},
                    {"family": "scaled", "factor": 0.5,
                     "inner": {"family": "two_point", "x1": 1.0, "p1": 0.25, "x2": -1.0}},
                ],
                "tail": {
                    "kind": "periodic",
                    "cycle": [
                        {"family": "finite_discrete",
                         "atoms": [[-1.0, 0.75], [2.0, 0.25]]},
                    ],
                },
            },
            "rates": {"kind": "periodic", "values": [0.0, 0.1]},
            "label": "mixed families",
        }
        m = model_from_dict(cfg)
        assert model_from_dict(model_to_dict(m)) == m

    def test_quasi_periodic_and_explicit_rates_round_trip(self):
        cfg = {
            "increments": {
                "kind": "quasi_periodic",
                "scale": 0.5,
                "cycle": [{"family": "uniform", "lower": -2.0, "upper": 1.0}],
            },
            "rates": {"kind": "explicit", "values": [0.1, 0.0, 0.2]},
        }
        m = model_from_dict(cfg)
        assert m.rates == ExplicitRates((0.1, 0.0, 0.2))
        assert model_from_dict(model_to_dict(m)) == m

    def test_event_model_round_trip_and_reduction(self):
        cfg = {
            "claim": {"kind": "periodic",
                      "cycle": [{"family": "shifted_exponential", "rate": 1.0}]},
            "interarrival": {"kind": "periodic",
                             "cycle": [{"family": "shifted_exponential", "rate": 0.5}]},
            "premium_rate": 1.2,
            "reserve_interest": 0.1,
            "premium_interest": 0.05,
            "label": "interest-bearing classical",
        }
        em = model_from_dict(cfg)
        assert isinstance(em, EventModel)
        assert model_from_dict(model_to_dict(em)) == em
        reduced = reduce_event_model(em)
        assert isinstance(reduced, RiskModel)
        assert reduced.rates == ConstantRates(0.1)

    def test_label_omitted_when_empty(self):
        m = RiskModel(Periodic((Normal(-0.5, 1.0),)))
        assert "label" not in model_to_dict(m)


# ---------------------------------------------------------------------------
# diagnostics


class TestDiagnostics:
    @pytest.mark.parametrize("cfg, fragment", [
        ({"increments": {"kind": "periodic",
                         "cycle": [{"family": "normal", "mean": 0.0,
                                    "variance": 1.0, "extra": 3}]}},
         "$.increments.cycle[0]: unknown key 'extra'"),
        ({"increments": {"kind": "periodic"}},
         "$.increments: missing required key 'cycle'"),
        ({"increments": {"kind": "periodic",
                         "cycle": [{"family": "normal", "mean": True, "variance": 1.0}]}},
         "'mean' must be a number, got True"),
        ({"increments": {"kind": "periodic",
                         "cycle": [{"family": "normal", "mean": 0.0, "variance": -1.0}]}},
         "$.increments.cycle[0]: Normal.variance must be positive"),
        ({"increments": {"kind": "nope"}},
         "unknown increments kind 'nope'"),
        ({"increments": {"kind": "periodic", "cycle": []}},
         "'cycle' must be a nonempty list"),
        ({"increments": {"kind": "periodic", "cycle": [{"family": "martian"}]}},
         "unknown distribution family 'martian'"),
        ({"increments": {"kind": "indexed_two_point"}, "rates": {"kind": "bogus"}},
         "$.rates: unknown rates kind 'bogus'"),
        ({"increments": {"kind": "indexed_two_point"}, "typo": 1},
         "unknown key 'typo'"),
        ({"increments": {"kind": "indexed_two_point"}, "rates": {"kind": "periodic", "values": 5}},
         "$.rates: 'values' must be a list of numbers, got 5"),
        ({"increments": {"kind": "indexed_two_point"}, "rates": {"kind": "periodic", "values": None}},
         "$.rates: 'values' must be a list of numbers, got None"),
        ({"increments": {"kind": "periodic",
                         "cycle": [{"family": "finite_discrete", "atoms": [[1, {}]]}]}},
         "$.increments.cycle[0]: 'atoms[0][1]' must be a number, got {}"),
        ({"increments": {"kind": "indexed_two_point"}, "rates": {"kind": "periodic", "values": ["0.1", True]}},
         "$.rates: 'values[0]' must be a number, got '0.1'"),
        ({"increments": {"kind": "indexed_two_point"}, "rates": {"kind": "explicit", "values": [0.1, True]}},
         "$.rates: 'values[1]' must be a number, got True"),
        ({"increments": {"kind": "indexed_two_point"}, "rates": -1},
         "$.rates: ConstantRates entries must be finite and >= 0"),
        ({"increments": {"kind": "indexed_normal", "slope": 10**400, "intercept": 0}},
         "$.increments: 'slope' is out of the float range"),
        ({"increments": {"kind": "indexed_two_point"}, "label": 7},
         "$: 'label' must be a string, got 7"),
    ])
    def test_bad_configs_carry_positions(self, cfg, fragment):
        with pytest.raises(ConfigError) as exc:
            model_from_dict(cfg)
        assert fragment in str(exc.value)

    def test_nested_law_error_is_positioned_once(self):
        cfg = {"increments": {"kind": "explicit", "dists": [
            {"family": "compound", "claim": 3, "premium_rate": 1.0,
             "interarrival": {"family": "shifted_exponential", "rate": 1.0}}]}}
        with pytest.raises(ConfigError) as exc:
            model_from_dict(cfg)
        assert str(exc.value) == "$.increments.dists[0].claim: distribution must be an object, got int"

    def test_second_cycle_entry_is_indexed(self):
        cfg = {"increments": {"kind": "periodic", "cycle": [
            {"family": "normal", "mean": 0.0, "variance": 1.0},
            {"family": "uniform", "lower": 2.0, "upper": 1.0},
        ]}}
        with pytest.raises(ConfigError, match=r"\$\.increments\.cycle\[1\]"):
            model_from_dict(cfg)

    def test_deep_nesting_is_a_config_error(self):
        law = {"family": "degenerate", "value": -1.0}
        for _ in range(300):
            law = {"family": "scaled", "factor": 1.0, "inner": law}
        with pytest.raises(ConfigError, match="nests objects too deeply"):
            model_from_dict({"increments": {"kind": "periodic", "cycle": [law]}})

    def test_model_must_be_an_object(self):
        with pytest.raises(ConfigError, match="model must be an object, got list"):
            model_from_dict([1, 2])

    def test_config_error_is_a_value_error(self):
        # callers that only guard against ValueError still catch config trouble
        assert issubclass(ConfigError, ValueError)


# ---------------------------------------------------------------------------
# file I/O


class TestLoadDump:
    def test_dump_then_load_is_identity(self, tmp_path):
        model = load_model(bundled_path("uniform_exponential_cycle"))
        out = tmp_path / "copy.json"
        dump_model(model, str(out))
        assert load_model(str(out)) == model
        # dumps are plain indented JSON with a trailing newline
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        json.loads(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_model(str(tmp_path / "absent.json"))

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"increments": \n  oops}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"invalid JSON .* at line 2 column 3"):
            load_model(str(p))


# ---------------------------------------------------------------------------
# command line: happy paths


class TestCliBound:
    def test_csv_golden(self, capsys):
        rc, out, err = run_cli(
            ["bound", "--model", "alternating_normals", "--u", "2,4"], capsys)
        assert rc == 0
        assert err == ""
        assert out == (
            "u,method,h_star,log10_bound,C,L,certified\n"
            "2,optimized,1,-0.760015343331,1.28402541669,1,true\n"
            "4,optimized,1,-1.62860430714,1.28402541669,1,true\n"
        )

    def test_json_rows_carry_a_finite_log10_c(self, capsys):
        # past u ~ 149 the certified C of this curve is too large for a float
        argv = ["bound", "--model", "linear_drift_normals", "--u", "140:200:20"]
        rc, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert rc == 0
        rows = json.loads(out)
        assert all(row["certified"] for row in rows) and [row["C"] == "inf" for row in rows] == [False, True, True, True]
        assert all(isinstance(row["log10_C"], float) and math.isfinite(row["log10_C"]) for row in rows)
        assert rows[0]["log10_C"] == pytest.approx(math.log10(rows[0]["C"]), rel=1e-12)
        for row in rows:  # the certificate's bound at u, min(1, C e^{-L u}), is the row's
            assert min(0.0, row["log10_C"] - row["L"] * row["u"] / math.log(10.0)) == pytest.approx(
                row["log10_bound"], rel=1e-12)
        rc, out, _ = run_cli(argv, capsys)
        assert out.splitlines()[0] == "u,method,h_star,log10_bound,C,L,certified"

    def test_json_matches_library(self, capsys):
        rc, out, err = run_cli(
            ["bound", "--model", "alternating_normals", "--u", "3",
             "--format", "json"], capsys)
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 1
        model = load_model(bundled_path("alternating_normals"))
        ref = bound_optimize(model, 3.0)
        assert rows[0]["log10_bound"] == pytest.approx(ref.log10_bound, rel=1e-12)
        assert rows[0]["certified"] is True

    @pytest.mark.parametrize("command", [["adjustment"], ["bound", "--u", "1,2"]])
    def test_json_spells_non_finite_values_as_strings(self, command, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"increments": {"kind": "periodic", "cycle": [
            {"family": "uniform", "lower": -2.0, "upper": -1.0}]}}), encoding="utf-8")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rc, out, _ = run_cli([command[0], "--model", str(p), *command[1:], "--format", "json"], capsys)
        assert rc == 0
        rows = json.loads(out, parse_constant=reject)
        cells = [v for row in rows for v in row.values()]
        assert "inf" in cells
        if command[0] == "bound":
            assert all(row["log10_bound"] == "-inf" for row in rows)

    GRID = (1.0, 2.5, 5.0, 10.0, 20.0)

    @pytest.mark.parametrize("model, method, extra, call", [
        ("alternating_normals", "optimized", [], lambda m, u: bound_optimize(m, u)),
        ("scan", "optimized", [], lambda m, u: bound_optimize(m, u)),
        ("alternating_normals", "per_increment", [], lambda m, u: bound_per_increment(m, u)),
        ("alternating_normals", "periodic", [], lambda m, u: bound_periodic(m, 2, "periodic", u=u)),
        ("alternating_normals", "scaled_periodic", ["--h", "0.5"],
         lambda m, u: bound_periodic(m, 2, "scaled_periodic", u=u, at_h=0.5)),
        ("alternating_normals", "shift_window", ["--lstar", "0.3", "--m", "2"],
         lambda m, u: bound_periodic(m, 2, "shift_window", u=u, start_index=2, exponent=0.3)),
    ], ids=["optimized", "optimized_scan", "per_increment", "periodic", "scaled_periodic", "shift_window"])
    def test_grid_rows_match_per_u_library_calls(self, model, method, extra, call, tmp_path, capsys):
        # the rows of one grid share a memo; each library call here starts afresh
        if model == "scan":
            path = tmp_path / "scan.json"
            path.write_text(json.dumps({"increments": {"kind": "indexed_normal", "slope": -0.5, "intercept": 0.25},
                                        "rates": {"kind": "constant", "rate": 0.01}}), encoding="utf-8")
            model = str(path)
        rc, out, err = run_cli(["bound", "--model", model, "--u", ",".join("%g" % u for u in self.GRID),
                                "--method", method, *extra], capsys)
        assert rc == 0 and err == ""
        m = load_model(model if model.endswith(".json") else bundled_path(model))
        columns = ["u", "method", "h_star", "log10_bound", "C", "L", "certified"]
        rows = [cli._bound_row(call(m, u)) for u in self.GRID]
        lines = [",".join(columns)] + [",".join(cli._fmt(row[c]) for c in columns) for row in rows]
        assert out == "\n".join(lines) + "\n"

    def test_colon_range_is_inclusive(self, capsys):
        rc, out, _ = run_cli(
            ["bound", "--model", "alternating_normals", "--u", "1:3:0.5"], capsys)
        assert rc == 0
        lines = out.strip().split("\n")
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "1.5", "2", "2.5", "3"]

    def test_periodic_method_reports_period_root(self, capsys):
        rc, out, _ = run_cli(
            ["bound", "--model", "uniform_exponential_cycle", "--u", "5",
             "--method", "periodic"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(0.7185814123725071, abs=1e-8)
        assert row[6] == "true"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["bound", "--model", "two_point_decay", "--u", "6"]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        dest = tmp_path / "rows.csv"
        rc2, out2, _ = run_cli(argv + ["--out", str(dest)], capsys)
        assert rc2 == 0
        assert out2 == ""
        assert dest.read_text(encoding="utf-8") == out

    def test_rerun_on_dumped_copy_is_byte_identical(self, tmp_path, capsys):
        copy = tmp_path / "again.json"
        dump_model(load_model(bundled_path("uniform_exponential_cycle")), str(copy))
        argv = ["--u", "2,5,10"]
        rc1, out1, _ = run_cli(
            ["bound", "--model", "uniform_exponential_cycle"] + argv, capsys)
        rc2, out2, _ = run_cli(["bound", "--model", str(copy)] + argv, capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_unit_ratio_over_long_period(self, tmp_path, capsys):
        # exact rho = 1 from factors 2^1500 and 2^-1500 that overflow separately
        path = tmp_path / "long_period.json"
        dump_model(RiskModel(QuasiPeriodicScaled((Normal(-1.0, 1.0),), 2.0), PeriodicRates((1.0,) * 1500)), str(path))
        rc, out, _ = run_cli(["bound", "--model", str(path), "--u", "5"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(-10.0 / math.log(10.0), abs=1e-6)
        assert row[6] == "true"


    @pytest.mark.parametrize("method", ["fixed_h", "union"])
    def test_huge_exponent_gives_a_trivial_row(self, method, capsys):
        # e^800 leaves the float range; the row is the trivial bound, not a traceback
        rc, out, _ = run_cli(["bound", "--model", "two_point_decay", "--u", "1", "--method", method, "--h", "800"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) == 0.0 and row[6] == "true"

    def test_deep_two_point_row_is_fast(self, capsys):
        start = time.perf_counter()
        rc, out, _ = run_cli(["bound", "--model", "two_point_decay", "--u", "1000"], capsys)
        assert time.perf_counter() - start < 2.0
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[6] == "true" and float(row[3]) < -100.0

    def test_bound_path_does_not_import_scipy(self):
        code = ("import sys, ruinbounds; from ruinbounds import cli; "
                "assert cli.main(['bound', '--model', 'alternating_normals', '--u', '1,2']) == 0; "
                "assert 'scipy' not in sys.modules, 'scipy was imported'")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_package_import_leaves_the_thread_pool_unloaded(self):
        # the simulator imports its pool where more than one worker runs
        code = ("import sys, ruinbounds; "
                "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_simulator_paths_do_not_import_scipy(self):
        # the intervals are computed without scipy, so no path of the package imports it
        mc = "'--paths', '2000', '--horizon', '200', '--stop-gap', '60'"
        code = ("import sys, ruinbounds; from ruinbounds import cli, SimConfig, simulate_ruin_grid, load_model; "
                "model = load_model(cli._resolve_model_path('classical_poisson_exponential')); "
                "sims = simulate_ruin_grid(model, [1.0, 2.0], SimConfig(n_paths=2000, horizon=200, stop_gap=60.0, workers=1)); "
                "assert 0.0 < sims[0].ci_low < sims[0].ci_high < 1.0; "
                f"assert cli.main(['simulate', '--model', 'classical_poisson_exponential', '--u', '1,2', {mc}]) == 0; "
                f"assert cli.main(['compare', '--model', 'classical_poisson_exponential', '--u', '2', {mc}]) == 0; "
                "assert 'scipy' not in sys.modules, 'scipy was imported'")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestCliAdjustment:
    def test_classical_reports_all_flavors(self, capsys):
        rc, out, err = run_cli(
            ["adjustment", "--model", "classical_poisson_exponential"], capsys)
        assert rc == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "flavor,value,certified,bracket_low,bracket_high,boundary,note"
        table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert set(table) == {"per_increment", "partial_sum", "period_root", "kappa"}
        for row in table.values():
            assert float(row[1]) == pytest.approx(0.5, abs=1e-8)
            assert row[2] == "true"

    def test_two_cycle_model_omits_kappa(self, capsys):
        rc, out, _ = run_cli(
            ["adjustment", "--model", "alternating_normals"], capsys)
        assert rc == 0
        flavors = [row.split(",")[0] for row in out.strip().split("\n")[1:]]
        assert "kappa" not in flavors
        assert "period_root" in flavors

    def test_a_sum_that_is_not_a_number_is_no_traceback(self, tmp_path, capsys):
        # at large h the prefix terms are -inf and +inf, and their sum is not a
        # number: those probes are undetermined, and the command still exits
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "increments": {"kind": "prefix_tail",
                           "prefix": [{"family": "degenerate", "value": -1e300},
                                      {"family": "normal", "mean": 1e300, "variance": 3.0}],
                           "tail": {"kind": "periodic", "cycle": [{"family": "degenerate", "value": 0.0}]}},
            "rates": {"kind": "periodic", "values": [0.01, 0.0]},
        }), encoding="utf-8")
        rc, out, err = run_cli(["adjustment", "--model", str(p)], capsys)
        assert rc in (0, 2) and "Traceback" not in err

    @pytest.mark.parametrize("increments, rates, l, why", [
        # scale 1.0005 per period: both coefficients are a certified 0
        ({"kind": "quasi_periodic", "cycle": [{"family": "normal", "mean": -1.0, "variance": 1.0}], "scale": 1.0005},
         {"kind": "constant", "rate": 0.0}, 1, "scale times discount over one period"),
        # an effective period of lcm(317, 331) epochs, past the block limit
        ({"kind": "periodic", "cycle": [{"family": "normal", "mean": -0.5, "variance": 1.0}] * 317},
         {"kind": "periodic", "values": [0.01] * 331}, 317 * 331, "the effective period is too long to reduce"),
    ], ids=["amplifying", "long_period"])
    def test_period_root_only_where_its_hypotheses_hold(self, increments, rates, l, why, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"increments": increments, "rates": rates}), encoding="utf-8")
        rc, out, _ = run_cli(["adjustment", "--model", str(p)], capsys)
        rows = out.strip().split("\n")[1:]
        assert rc == 0
        assert [row.split(",")[0] for row in rows] == ["per_increment", "partial_sum"]
        if increments["kind"] == "quasi_periodic":
            assert [row.split(",", 1)[1] for row in rows] == ["0,true,0,0,false,criterion is +inf at every h > 0"] * 2
        # an explicit --l still asks for the period root, and its hypotheses fail
        rc, out, err = run_cli(["adjustment", "--model", str(p), "--l", str(l)], capsys)
        assert (rc, out) == (2, "") and why in err


class TestCliCompare:
    def test_winner_is_the_row_minimum(self, capsys):
        rc, out, err = run_cli(
            ["compare", "--model", "classical_poisson_exponential", "--u", "30",
             "--paths", "20000", "--horizon", "400", "--stop-gap", "60",
             "--seed", "1"], capsys)
        assert rc == 0
        header, row = [line.split(",") for line in out.strip().split("\n")]
        assert header == ["u", "log10_optimized", "log10_union", "log10_per_increment",
                          "log10_external_a", "log10_external_b",
                          "mc_estimate", "mc_ci_high", "winner"]
        rec = dict(zip(header, row))
        methods = ("optimized", "union", "per_increment", "external_a", "external_b")
        values = {m: float(rec[f"log10_{m}"]) for m in methods}
        assert rec["winner"] == min(values, key=values.get)
        # at this horizon the tuned exponent beats both external reference curves,
        # which have already clamped to the trivial certificate
        assert values["external_a"] == 0.0
        assert values["external_b"] == 0.0
        assert values[rec["winner"]] == pytest.approx(-6.514, abs=1e-2)


class TestCliSimulate:
    def test_dominated_rows_frozen(self, capsys):
        rc, out, err = run_cli(
            ["simulate", "--model", "classical_poisson_exponential", "--u", "2,4",
             "--paths", "20000", "--horizon", "400", "--stop-gap", "60",
             "--seed", "0"], capsys)
        assert rc == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "u,n_paths,K,ruin_count,estimate,ci_low,ci_high,bound,dominated"
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert int(first[3]) == 3694
        assert int(second[3]) == 1357
        assert first[8] == second[8] == "true"

    def test_bound_method_none_leaves_columns_blank(self, capsys):
        rc, out, _ = run_cli(
            ["simulate", "--model", "classical_poisson_exponential", "--u", "2",
             "--paths", "5000", "--horizon", "200", "--stop-gap", "60",
             "--bound-method", "none"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[7] == "" and row[8] == ""

    def test_thread_env_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        argv = ["simulate", "--model", "uniform_exponential_cycle", "--u", "5",
                "--paths", "30000", "--horizon", "300", "--stop-gap", "60",
                "--seed", "9"]
        outs = []
        for threads in ("1", "6"):
            monkeypatch.setenv("RUINBOUND_THREADS", threads)
            rc, out, _ = run_cli(argv, capsys)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# command line: failure modes


class TestCliConfigErrors:
    @pytest.mark.parametrize("argv, fragment", [
        (["bound", "--model", "no_such_model", "--u", "1"],
         "no bundled config of that name"),
        (["bound", "--model", "alternating_normals", "--u", "3,2"],
         "strictly increasing"),
        (["bound", "--model", "alternating_normals", "--u", "0"],
         "strictly positive"),
        (["bound", "--model", "alternating_normals", "--u", "abc"],
         "cannot parse --u"),
        (["bound", "--model", "alternating_normals", "--u", "1", "--method", "fixed_h"],
         "--method fixed_h needs --h"),
        (["bound", "--model", "alternating_normals", "--u", "1",
          "--method", "shift_window"],
         "--method shift_window needs --lstar"),
        (["adjustment", "--model", "alternating_normals", "--tol", "0"],
         "tol must be positive"),
        (["bound", "--model", "alternating_normals", "--u", "1",
          "--method", "shift_window", "--lstar", "1", "--m", "0"],
         "start_index must be a positive integer"),
        (["bound", "--model", "alternating_normals", "--u", "1",
          "--method", "periodic", "--l", "0"],
         "l=0 is not a multiple of the cycle length"),
        (["adjustment", "--model", "alternating_normals", "--l", "0"],
         "l=0 is not a multiple of the cycle length"),
        (["bound", "--model", "alternating_normals", "--u", "1", "--method", "optimized", "--lstar", "3"],
         "--method optimized does not read --lstar"),
        (["bound", "--model", "alternating_normals", "--u", "1",
          "--method", "shift_window", "--lstar", "1", "--h", "0.5"],
         "--method shift_window does not read --h"),
        (["simulate", "--model", "alternating_normals", "--u", "1", "--bound-method", "none", "--h", "1"],
         "--bound-method none does not read --h"),
        # u ranges that would never end, or hold 1e10 points
        (["bound", "--model", "alternating_normals", "--u", "1:2:nan"], "range needs a finite start, stop and step"),
        (["bound", "--model", "alternating_normals", "--u", "1:inf:1"], "range needs a finite start, stop and step"),
        (["bound", "--model", "alternating_normals", "--u", "0:1e-300:1e-310"], "range holds more than 1,000,000 points"),
    ])
    def test_exit_two_with_diagnostic(self, argv, fragment, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("config, fragment", [
        ({"rates": {"kind": "periodic", "values": 5}}, "$.rates: 'values' must be a list of numbers"),
        ({"rates": {"kind": "periodic", "values": None}}, "$.rates: 'values' must be a list of numbers"),
        ({"increments": {"kind": "periodic", "cycle": [{"family": "finite_discrete", "atoms": [[1, {}]]}]}},
         "$.increments.cycle[0]: 'atoms[0][1]' must be a number"),
        ({"rates": {"kind": "periodic", "values": ["0.1", True]}}, "$.rates: 'values[0]' must be a number"),
    ])
    def test_malformed_lists_exit_two(self, config, fragment, tmp_path, capsys):
        normal = {"family": "normal", "mean": -0.5, "variance": 1.0}
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"increments": {"kind": "periodic", "cycle": [normal]}, **config}), encoding="utf-8")
        rc, out, err = run_cli(["bound", "--model", str(p), "--u", "1"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("config error:") and "Traceback" not in err
        assert fragment in err

    @pytest.mark.parametrize("depth", [600, 5000])
    def test_deep_nesting_exits_two(self, depth, tmp_path, capsys):
        # 600 levels overflow the config reader's recursion, 5000 the JSON parser's
        scaled = '{"family": "scaled", "factor": 1.0, "inner": '
        law = scaled * depth + '{"family": "degenerate", "value": -1.0}' + "}" * depth
        p = tmp_path / "deep.json"
        p.write_text('{"increments": {"kind": "periodic", "cycle": [' + law + ']}}', encoding="utf-8")
        rc, out, err = run_cli(["bound", "--model", str(p), "--u", "1"], capsys)
        assert rc == 2
        assert err.startswith("config error:") and "nests objects too deeply" in err

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", "alternating_normals", "--u", "1", "--seed", "1"],
        ["adjustment", "--model", "alternating_normals", "--seed", "1"],
        ["compare", "--model", "classical_poisson_exponential", "--u", "2", "--strict"],
    ])
    def test_flags_the_subcommand_does_not_read_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_name_lists_bundled_configs(self, capsys):
        rc, _, err = run_cli(["bound", "--model", "missing", "--u", "1"], capsys)
        assert rc == 2
        for name in BUNDLED:
            assert name in err

    def test_broken_config_file_position_reaches_stderr(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "increments": {"kind": "periodic",
                           "cycle": [{"family": "normal", "mean": 0.0}]},
        }), encoding="utf-8")
        rc, _, err = run_cli(["bound", "--model", str(p), "--u", "1"], capsys)
        assert rc == 2
        assert "$.increments.cycle[0]: missing required key 'variance'" in err

    @pytest.mark.parametrize("argv, line", [
        (["--u", "1", "--method", "fixed_h"], "--method fixed_h needs --h"),
        (["--u", "1", "--method", "optimized", "--lstar", "3"], "--method optimized does not read --lstar"),
        (["--u", "1:x:1"], "cannot parse --u '1:x:1': could not convert string to float: 'x'"),
        (["--u", "2,1"], "--u values must be strictly increasing"),
        (["--u", "0,1"], "--u values must be strictly positive reals"),
        (["--u", "1", "--method", "periodic", "--model", "two_point_decay"],
         "model has no cycle to infer --l from; pass --l"),
        (["--u", "1", "--model", "no/such.json"], "model file not found: no/such.json"),
    ])
    def test_command_line_errors_name_no_config_position(self, argv, line, capsys):
        rc, out, err = run_cli(["bound", "--model", "alternating_normals", *argv], capsys)
        assert (rc, out, err) == (2, "", f"config error: {line}\n")

    def test_a_range_step_below_the_float_spacing_fails_at_the_first_repeat(self):
        # 1e18 + 1 == 1e18: the range repeats its start; it fails there, not
        # after about 1e6 copies of it
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="strictly increasing"):
            cli._parse_u_spec("1e18:1e18:1")
        assert time.perf_counter() - t0 < 0.2

    @pytest.mark.parametrize("spec", ["1:2:nan", "1:inf:1", "0:1e-300:1e-310", "1:1000001:1"])
    def test_a_range_that_never_ends_or_is_too_long_fails_before_it_is_built(self, spec):
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="finite start|more than 1,000,000 points"):
            cli._parse_u_spec(spec)
        assert time.perf_counter() - t0 < 0.2

    def test_ranges_below_the_cap_keep_their_values(self):
        assert cli._parse_u_spec("5:50:5") == [5.0 + k * 5.0 for k in range(10)]
        assert cli._parse_u_spec("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert len(cli._parse_u_spec("1:1000000:1")) == cli._U_RANGE_MAX

    @pytest.mark.parametrize("command", [
        ["bound"],
        ["simulate", "--paths", "100", "--horizon", "10"],
        ["compare", "--paths", "100", "--horizon", "10"],
    ])
    def test_a_u_whose_truncation_index_overflows_exits_two(self, command, capsys):
        # 10 u, the grid's truncation index, is inf as a float
        rc, out, err = run_cli([*command, "--model", "alternating_normals", "--u", "1e308"], capsys)
        assert (rc, out, err) == (2, "", "config error: --u 1e+308 is too large: the truncation index 10 u is not finite\n")

    def test_rates_without_period_need_l(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "increments": {"kind": "periodic", "cycle": [{"family": "normal", "mean": -1.0, "variance": 1.0}]},
            "rates": {"kind": "explicit", "values": [0.01, 0.02]},
        }), encoding="utf-8")
        rc, out, err = run_cli(["bound", "--model", str(p), "--u", "1", "--method", "periodic"], capsys)
        assert (rc, out, err) == (2, "", "config error: rates have no period, or the effective period is too long; pass --l\n")

    def test_config_file_errors_keep_their_path(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"increments": {"kind": "periodic", "cycle": [{"family": "normal", "mean": 0.0}]}}),
                     encoding="utf-8")
        rc, out, err = run_cli(["bound", "--model", str(p), "--u", "1"], capsys)
        assert (rc, out, err) == (2, "", "config error: $.increments.cycle[0]: missing required key 'variance'\n")


class TestCliSharedParser:
    """main() parses every call with one parser per process and keeps nothing
    between calls but the parser and the models of the configs it read."""

    ARGVS = (
        ["bound", "--model", "alternating_normals", "--u", "1,2", "--method", "union", "--h", "0.5",
         "--strict", "--format", "json"],
        ["bound", "--model", "alternating_normals", "--u", "1,2", "--method", "optimized"],
        ["adjustment", "--model", "classical_poisson_exponential", "--format", "json"],
        ["adjustment", "--model", "classical_poisson_exponential"],
        ["bound", "--model", "alternating_normals", "--u", "1", "--method", "fixed_h"],
    )

    def test_calls_in_one_process_print_what_fresh_processes_print(self, capsys):
        code = "import sys; from ruinbounds import cli; sys.exit(cli.main(sys.argv[1:]))"
        for argv in self.ARGVS:
            fresh = subprocess.run([sys.executable, "-c", code, *argv], env=src_env(),
                                   capture_output=True, text=True, timeout=120)
            assert run_cli(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_usage_errors_and_help_leave_the_next_call_unchanged(self, capsys):
        argv = self.ARGVS[1]
        before = run_cli(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--model", "alternating_normals", "--u", "1", "--h", "x", "--seed", "1"])
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--help"])
        assert exc.value.code == 0
        shared_help = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(["bound", "--help"])
        assert shared_help == capsys.readouterr().out
        assert "--method" in shared_help
        assert run_cli(argv, capsys) == before

    def test_threads_write_the_files_of_sequential_calls(self, tmp_path, capsys):
        argvs = [[*argv, "--out", None] for argv in self.ARGVS[:4]] * 3
        argvs += [["simulate", "--model", "uniform_exponential_cycle", "--u", "2,5", "--paths", "2000",
                   "--horizon", "100", "--stop-gap", "60", "--out", None]] * 2

        def run(side, i):
            argv = list(argvs[i])
            argv[-1] = str(tmp_path / f"{side}-{i}.out")
            return cli.main(argv)

        sequential = [run("sequential", i) for i in range(len(argvs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run, "threaded", i) for i in range(len(argvs))]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        capsys.readouterr()
        assert threaded == sequential
        for i in range(len(argvs)):
            assert (tmp_path / f"threaded-{i}.out").read_bytes() == (tmp_path / f"sequential-{i}.out").read_bytes()

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        run_cli(self.ARGVS[0], capsys)
        once = list(built)
        assert len(once) == 5  # the program's parser and one per subcommand
        for argv in self.ARGVS:
            run_cli(argv, capsys)
        assert built == once


class TestCliModelCache:
    """main() keeps the model of each config it read, by the bytes of the
    file, up to a fixed number of configs; a config that fails is not kept."""

    NORMALS = {"increments": {"kind": "periodic", "cycle": [{"family": "normal", "mean": -0.5, "variance": 1.0}]}}
    SHIFTED = {"increments": {"kind": "periodic", "cycle": [{"family": "normal", "mean": -1.0, "variance": 1.0}]}}
    EVENTS = {"claim": {"kind": "periodic", "cycle": [{"family": "shifted_exponential", "rate": 1.0}]},
              "interarrival": {"kind": "periodic", "cycle": [{"family": "shifted_exponential", "rate": 0.5}]},
              "premium_rate": {"kind": "periodic", "values": [1.0, 1.2]}}

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        """An empty cache for each test, whatever ran before; the calls of
        load_model (the builds) and of reduce_event_model, counted."""
        monkeypatch.setattr(cli, "_MODELS", OrderedDict())
        self.loads, self.reductions = [], []
        load, reduce = cli.load_model, cli.reduce_event_model
        monkeypatch.setattr(cli, "load_model", lambda path: self.loads.append(path) or load(path))
        monkeypatch.setattr(cli, "reduce_event_model", lambda em: self.reductions.append(em) or reduce(em))

    @staticmethod
    def write(path, config):
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    def bound(self, path, capsys):
        return run_cli(["bound", "--model", path, "--u", "1,2,5"], capsys)

    def test_one_file_builds_one_model(self, tmp_path, capsys):
        path = self.write(tmp_path / "m.json", self.NORMALS)
        first = self.bound(path, capsys)
        assert first[0] == 0
        for _ in range(3):
            assert self.bound(path, capsys) == first
        assert run_cli(["adjustment", "--model", path], capsys)[0] == 0
        assert self.loads == [path]
        # the same bytes at another path are the same model
        other = self.write(tmp_path / "copy.json", self.NORMALS)
        assert self.bound(other, capsys) == first
        assert self.loads == [path]

    def test_a_rewritten_file_gets_a_new_model(self, tmp_path, capsys):
        path = self.write(tmp_path / "m.json", self.NORMALS)
        before = self.bound(path, capsys)
        self.write(tmp_path / "m.json", self.SHIFTED)
        after = self.bound(path, capsys)
        assert self.loads == [path, path]
        assert after[0] == 0 and after[1] != before[1]
        cli._MODELS.clear()
        assert self.bound(path, capsys) == after

    def test_an_event_model_is_reduced_once(self, tmp_path, capsys):
        path = self.write(tmp_path / "events.json", self.EVENTS)
        first = self.bound(path, capsys)
        assert first[0] == 0 and self.bound(path, capsys) == first
        assert run_cli(["adjustment", "--model", path], capsys)[0] == 0
        assert len(self.loads) == len(self.reductions) == 1
        assert isinstance(next(iter(cli._MODELS.values())), RiskModel)

    @pytest.mark.parametrize("text", ["{", json.dumps({"increments": {"kind": "periodic", "cycle": []}})])
    def test_a_bad_config_fails_every_time_and_is_not_kept(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_model(str(path))
        for _ in range(2):
            assert self.bound(str(path), capsys) == (2, "", f"config error: {exc.value}\n")
        assert len(self.loads) == 2 and not cli._MODELS

    def test_a_missing_file_is_not_kept(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert self.bound(path, capsys) == (2, "", f"config error: model file not found: {path}\n")
        assert not self.loads and not cli._MODELS

    def test_the_least_recently_used_model_goes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MODELS_KEPT", 2)
        paths = [self.write(tmp_path / f"m{i}.json", {**self.NORMALS, "label": f"m{i}"}) for i in range(3)]
        self.bound(paths[0], capsys)
        self.bound(paths[1], capsys)
        self.bound(paths[0], capsys)  # m1 is now the least recently used
        self.bound(paths[2], capsys)
        assert [m.label for m in cli._MODELS.values()] == ["m0", "m2"]
        self.bound(paths[0], capsys)
        self.bound(paths[1], capsys)
        assert self.loads == [paths[0], paths[1], paths[2], paths[1]]
        assert len(cli._MODELS) == 2

    def test_threads_that_miss_and_evict_print_what_one_thread_prints(self, tmp_path, capsys, monkeypatch):
        # three configs through a cache of two: the threads build, hit and evict
        # models concurrently, and each call writes what it writes alone
        monkeypatch.setattr(cli, "_MODELS_KEPT", 2)
        paths = [self.write(tmp_path / f"{name}.json", config)
                 for name, config in (("n", self.NORMALS), ("s", self.SHIFTED), ("e", self.EVENTS))]

        def run(side, i):
            out = str(tmp_path / f"{side}-{i}.csv")
            return cli.main(["bound", "--model", paths[i % 3], "--u", "1,2,5", "--out", out])

        sequential = [run("sequential", i) for i in range(24)]
        cli._MODELS.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                threaded = [f.result(timeout=120) for f in [pool.submit(run, "threaded", i) for i in range(24)]]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential == [0] * 24
        for i in range(24):
            assert (tmp_path / f"threaded-{i}.csv").read_bytes() == (tmp_path / f"sequential-{i}.csv").read_bytes()
        assert len(cli._MODELS) == 2


class TestCliStrictAndDominance:
    @pytest.fixture
    def uncertain_model(self, tmp_path):
        # slope zero leaves the scan no family-level decrease proof, so the
        # partial-sum coefficient stays a lower estimate
        p = tmp_path / "uncertain.json"
        p.write_text(json.dumps({
            "increments": {"kind": "indexed_normal", "slope": 0.0, "intercept": -1.0},
            "rates": 2.0,
        }), encoding="utf-8")
        return str(p)

    def test_adjustment_warns_without_strict(self, uncertain_model, capsys):
        rc, out, err = run_cli(
            ["adjustment", "--model", uncertain_model, "--kmax", "60"], capsys)
        assert rc == 0
        assert "warning: uncertified coefficients" in err
        table = {row.split(",")[0]: row.split(",") for row in out.strip().split("\n")[1:]}
        assert table["partial_sum"][2] == "false"
        assert "lower estimate" in table["partial_sum"][6]

    def test_adjustment_strict_exits_three(self, uncertain_model, capsys):
        rc, out, err = run_cli(
            ["adjustment", "--model", uncertain_model, "--kmax", "60", "--strict"],
            capsys)
        assert rc == 3
        assert "partial_sum" in err

    def test_dominance_violation_exits_four(self, capsys, monkeypatch):
        def impossibly_small(model, u, policy=None, **kwargs):
            return BoundResult(u=u, log_bound=-50.0, h_star=1.0,
                               method="optimized", certificate=None, certified=True)

        monkeypatch.setattr(cli, "bound_optimize", impossibly_small)
        rc, out, err = run_cli(
            ["simulate", "--model", "classical_poisson_exponential", "--u", "2",
             "--paths", "5000", "--horizon", "200", "--stop-gap", "60",
             "--strict"], capsys)
        assert rc == 4
        assert "escaped above its bound" in err
        assert out.strip().split("\n")[1].split(",")[8] == "false"


class TestCliFiniteModels:
    """Simulation horizons past a finite model's horizon, and truncation caps
    below one, are configuration errors: exit 2 with a diagnostic."""

    @pytest.fixture(params=["explicit_prefix", "explicit_rates"])
    def finite_model(self, request, tmp_path):
        normal = {"family": "normal", "mean": -0.5, "variance": 1.0}
        if request.param == "explicit_prefix":
            config, horizon = {"increments": {"kind": "explicit", "dists": [normal] * 3}}, 3
        else:
            # two rates fix the discounts through v_2, hence increments through 3
            config = {"increments": {"kind": "periodic", "cycle": [normal]},
                      "rates": {"kind": "explicit", "values": [0.01, 0.02]}}
            horizon = 3
        p = tmp_path / f"{request.param}.json"
        p.write_text(json.dumps(config), encoding="utf-8")
        return str(p), horizon

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_horizon_past_the_model_exits_two(self, command, finite_model, capsys):
        path, horizon = finite_model
        rc, out, err = run_cli([command, "--model", path, "--u", "1", "--paths", "100", "--horizon", "10"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("config error:") and "Traceback" not in err
        assert "simulation horizon 10" in err and f"model's horizon {horizon}" in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_horizon_at_the_model_runs(self, command, finite_model, capsys):
        path, horizon = finite_model
        rc, out, _ = run_cli([command, "--model", path, "--u", "1", "--paths", "100",
                              "--horizon", str(horizon)], capsys)
        assert rc == 0
        assert len(out.strip().split("\n")) == 2

    @pytest.fixture
    def amplifying_model(self, tmp_path):
        p = tmp_path / "amplifying.json"
        p.write_text(json.dumps({
            "increments": {"kind": "quasi_periodic", "cycle": [{"family": "normal", "mean": -1.0, "variance": 1.0}],
                           "scale": 1.0005},
        }), encoding="utf-8")
        return str(p)

    @pytest.mark.parametrize("kmax", ["0", "-5"])
    @pytest.mark.parametrize("command", ["bound", "adjustment"])
    def test_nonpositive_kmax_exits_two(self, kmax, command, amplifying_model, capsys):
        argv = [command, "--model", amplifying_model, "--kmax", kmax] + (["--u", "1"] if command == "bound" else [])
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("config error:") and "k_max must be a positive integer" in err
