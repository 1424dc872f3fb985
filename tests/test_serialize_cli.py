"""Config round-trips, error diagnostics, and the command-line surface."""

import json
import math
import os
import subprocess
import sys
import time

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
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, ruinbounds; from ruinbounds import cli; "
                "assert cli.main(['bound', '--model', 'alternating_normals', '--u', '1,2']) == 0; "
                "assert 'scipy' not in sys.modules, 'scipy was imported'")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_simulator_paths_do_not_import_scipy(self):
        # the intervals are computed without scipy, so no path of the package imports it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        mc = "'--paths', '2000', '--horizon', '200', '--stop-gap', '60'"
        code = ("import sys, ruinbounds; from ruinbounds import cli, SimConfig, simulate_ruin_grid, load_model; "
                "model = load_model(cli._resolve_model_path('classical_poisson_exponential')); "
                "sims = simulate_ruin_grid(model, [1.0, 2.0], SimConfig(n_paths=2000, horizon=200, stop_gap=60.0, workers=1)); "
                "assert 0.0 < sims[0].ci_low < sims[0].ci_high < 1.0; "
                f"assert cli.main(['simulate', '--model', 'classical_poisson_exponential', '--u', '1,2', {mc}]) == 0; "
                f"assert cli.main(['compare', '--model', 'classical_poisson_exponential', '--u', '2', {mc}]) == 0; "
                "assert 'scipy' not in sys.modules, 'scipy was imported'")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
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
    ])
    def test_exit_two_with_diagnostic(self, argv, fragment, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("config error:")
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


class TestCliStrictAndDominance:
    @pytest.fixture
    def uncertain_model(self, tmp_path):
        # strong discounting flattens the scan terms before a certifying run
        # can accumulate, so the partial-sum coefficient stays a lower estimate
        p = tmp_path / "uncertain.json"
        p.write_text(json.dumps({
            "increments": {"kind": "indexed_normal", "slope": -1.0, "intercept": 0.0},
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
