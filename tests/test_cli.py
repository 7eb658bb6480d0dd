import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hhr import cli, hawkes, sde
from hhr.config import config_from_dict, default_config_dict, load_config, parse_grid
from hhr.errors import ConfigError
from hhr.measure import MeasureConfig

from conftest import count_stepper_inits

ROOT = Path(__file__).resolve().parents[1]

@pytest.fixture()
def small_config(tmp_path):
    d = default_config_dict()
    d["run"].update(paths=1500, steps=64, grid="16x16x10x6", seed=99)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    return path


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = config_from_dict(default_config_dict())
        assert cfg.model.S0 == 100.0
        assert cfg.dist.rate == 2.0
        assert cfg.policy is not None
        assert cfg.run.grid == (64, 48, 24, 16)

    def test_grid_parse(self):
        assert parse_grid("8x4x2x1") == (8, 4, 2, 1)
        with pytest.raises(ConfigError):
            parse_grid("8x4x2")
        with pytest.raises(ConfigError):
            parse_grid("axbxcxd")

    def test_missing_model_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"run": {}})

    def test_missing_jump_rejected(self):
        d = default_config_dict()
        del d["model"]["jump"]
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_bad_policy_rejected(self):
        d = default_config_dict()
        d["policy"] = {"states": ["a"], "intensities": [{"from": "a"}]}
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_unknown_keys_named(self):
        d = default_config_dict()
        d["model"]["mu"] = d["model"].pop("mu_breakpoints")
        d["run"]["path"] = 500
        d["measure"]["A"] = 1.0
        with pytest.raises(ConfigError, match="model.mu, measure.A, run.path$"):
            config_from_dict(d)

    @pytest.mark.parametrize("section, key, value, named", [
        ("measure", "a", "0.5", "measure.a must be a number"),
        ("measure", "fraction_of_bound", None, "measure.fraction_of_bound must be a number"),
        ("measure", "level", "Q", "measure.level must be one of E, Em, EmQS"),
        (None, "model", "desk", "model must be an object"),
        ("model", "jump", "exponential", "model.jump must be an object"),
        (None, "measure", [], "measure must be an object"),
        (None, "run", "fast", "run must be an object"),
        ("run", "tolerances", {"rn_density": 2.0}, "unknown config keys: run.tolerances"),
        ("run", "paths", "many", "bad run section"),
        ("run", "seed", True, "bad run section"),
        ("run", "paths", 1500.9, "bad run section"),
        ("run", "steps", "1500", "bad run section"),
        ("run", "paths", 0, "run.paths must be >= 1, got 0"),
        ("run", "out_dir", None, "run.out_dir must be a string, got None"),
        ("measure", "a", 0.1, "give measure.a or measure.fraction_of_bound, not both"),
        ("measure", "epsilon1", math.nan, "measure.epsilon1 must be a number, got nan"),
        ("measure", "epsilon1", 0.0, "measure.epsilon1 must be > 0, got 0.0"),
        ("measure", "epsilon1", -1.0, "measure.epsilon1 must be > 0, got -1.0"),
        ("measure", "epsilon2", -1, "measure.epsilon2 must be > 0, got -1.0"),
        ("model", "kappa", True, "model.kappa must be a number, got True"),
        ("model", "kappa", "2.0", "model.kappa must be a number, got '2.0'"),
        ("model", "S0", math.inf, "model.S0 must be a number, got inf"),
        ("model", "mu_breakpoints", [[0.0, "0.05"]], "model.mu_breakpoints must be a number"),
        ("model", "mu_breakpoints", [[0.1, 0.05]],
         "model.mu_breakpoints: first breakpoint must be t=0"),
        ("model", "jump", {"kind": "exponential", "rate": "2"},
         "model.jump.rate must be a number, got '2'"),
        ("model", "jump", {"kind": "constant"}, "model.jump.value must be a number, got None"),
        ("model", "jump", {"kind": 5, "rate": 2.0},
         "model.jump.kind must be constant or exponential, got 5"),
        ("policy", "horizon", "1", "policy.horizon must be a number, got '1'"),
        ("policy", "horizon", True, "policy.horizon must be a number, got True"),
        ("policy", "intensities",
         [{"from": "alive", "to": "dead", "rate_segments": [["0", "0.02"]]}],
         "policy.intensities[0].rate_segments must be a number, got '0'"),
        ("policy", "terminal",
         [{"state": "alive", "payoff": {"kind": "guarantee", "value": "103"}}],
         "policy.terminal[0].payoff.value must be a number, got '103'"),
        ("run", "grid", [8.9, 12, 8, True], "bad run section: run.grid entries must be integers"),
        ("run", "grid", ["64", 48, 24, 16], "bad run section: run.grid entries must be integers"),
        ("run", "grid", [64, 48, 24, False], "bad run section: run.grid entries must be integers"),
    ], ids=["a-string", "fraction-null", "level", "model", "jump", "measure", "run",
            "tolerances", "paths", "seed-bool", "paths-float", "steps-string", "paths-zero",
            "out-dir-null", "a-and-fraction", "epsilon-nan", "epsilon1-zero",
            "epsilon1-minus-one", "epsilon2-minus-one", "kappa-bool", "kappa-string", "S0-inf",
            "mu-string", "mu-late-start", "jump-rate-string", "jump-value-missing", "jump-kind-int",
            "horizon-string", "horizon-bool", "rate-segments-string", "payoff-value-string",
            "grid-float", "grid-string", "grid-bool"])
    def test_malformed_values_refused(
        self, section, key, value, named, tmp_path, capsys
    ):
        d = default_config_dict()
        (d if section is None else d[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = cli.main(["--config", str(path), "price", "--payoff", "constant",
                       "--grid", "4x12x8x8", "--out", str(tmp_path / "price.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_config_before_subcommand_survives(self, small_config):
        args = cli._parse(["--config", str(small_config), "admissible"])
        assert args.config == str(small_config)
        assert cli._load(args).run.seed == 99

    def test_flags_replace_settings_and_keep_the_document(self, small_config):
        args = cli._parse(["--config", str(small_config), "--seed", "7", "--out", "o", "price",
                           "--payoff", "constant", "--grid", "4x12x8x8", "--a", "0.3"])
        cfg = cli._load(args)
        assert (cfg.run.seed, cfg.run.out_dir, cfg.run.grid) == (7, "o", (4, 12, 8, 8))
        assert cfg.run.paths == 1500 and cfg.run.steps == 64
        assert cfg.measure == MeasureConfig(level="EmQS", a=0.3, epsilon1=0.1, epsilon2=0.1)
        assert cfg.raw == json.loads(small_config.read_text())

    @pytest.mark.parametrize("flag, value, message", [
        ("--a", "nan", "error: measure.a must be a number, got nan"),
        ("--grid", "4x12", "error: bad run section: grid must be TxXxYxZ, got '4x12'"),
    ], ids=["a-nan", "grid-short"])
    def test_bad_flag_is_one_error_line(self, small_config, tmp_path, capsys, flag, value,
                                        message):
        rc = cli.main(["--config", str(small_config), "price", "--payoff", "constant",
                       flag, value, "--out", str(tmp_path / "price.csv")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_built_in_defaults_match_desk_file(self):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
        assert default_config_dict() == json.loads(desk.read_text())


class TestAdmissible:
    def test_json_to_stdout(self, small_config, capsys):
        rc = cli.main(["--config", str(small_config), "admissible"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("c_l", "bound_e", "bound_em", "bound_em_qs", "q1", "q2", "conditions"):
            assert key in doc
        assert set(doc["conditions"]) == {
            "correlation_below_threshold",
            "drift_gap_moment",
            "feller_margin",
        }


class TestSimulate:
    def test_csv_columns(self, small_config, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        rc = cli.main(
            ["--config", str(small_config), "simulate", "--measure", "Q",
             "--paths", "3", "--steps", "64", "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "t", "S", "v", "lambda", "N", "L", "X"]
        assert len(rows) >= 3 * 65 + 1
        assert {r[0] for r in rows[1:]} == {"0", "1", "2"}

    def test_event_log(self, small_config, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        ev = tmp_path / "events.csv"
        rc = cli.main(
            ["--config", str(small_config), "simulate", "--paths", "8",
             "--steps", "64", "--out", str(out), "--events-out", str(ev)]
        )
        assert rc == 0
        header = ev.read_text().splitlines()[0]
        assert header == "path_id,event_index,time,mark,lambda_after"
        with open(out) as fh:
            nodes = {(r["path_id"], r["t"]): r for r in csv.DictReader(fh)}
        with open(ev) as fh:
            events = list(csv.DictReader(fh))
        assert events
        assert ev.read_bytes() == _rewritten(ev)
        # each event is a node of its path, with the post-jump lambda and N
        for e in events:
            node = nodes[e["path_id"], e["time"]]
            assert float(node["lambda"]) == pytest.approx(float(e["lambda_after"]), rel=1e-13)
            assert int(node["N"]) == int(e["event_index"]) + 1


    def test_too_few_steps_is_one_error_line(self, small_config, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hhr", "--config", str(small_config), "simulate",
             "--steps", "10", "--out", str(tmp_path / "paths.csv")],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: n_steps must be >= 50, got 10"]
        assert "Traceback" not in proc.stderr

    def test_zero_steps_reach_the_step_check(self, small_config, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        rc = cli.main(["--config", str(small_config), "simulate", "--paths", "2",
                       "--steps", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: n_steps must be >= 50, got 0"]
        assert not out.exists()

    @pytest.mark.parametrize("paths", [0, -3])
    def test_no_paths_is_one_error_line(self, small_config, tmp_path, paths):
        proc = subprocess.run(
            [sys.executable, "-m", "hhr", "--config", str(small_config), "simulate",
             "--paths", str(paths), "--steps", "64", "--out", str(tmp_path / "paths.csv")],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: n_paths must be >= 1, got {paths}"]
        assert not (tmp_path / "paths.csv").exists()


class TestPrice:
    def test_slice_csv(self, small_config, tmp_path, capsys):
        out = tmp_path / "price.csv"
        rc = cli.main(
            ["--config", str(small_config), "price", "--payoff", "guarantee:103.05",
             "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "z", "U"]
        assert len(rows) == 1 + 12 * 8 * 4

    def test_bad_payoff(self, small_config, tmp_path, capsys):
        out = tmp_path / "price.csv"
        for spec, message in [
            ("swaption", "unknown payoff kind 'swaption'"),
            ("guarantee", "guarantee payoff needs a level, e.g. guarantee:120"),
            ("guarantee:abc", "payoff level must be a finite number, got 'abc'"),
            ("guarantee:nan", "payoff level must be a finite number, got 'nan'"),
        ]:
            rc = cli.main(["--config", str(small_config), "price", "--payoff", spec, "--out", str(out)])
            assert rc == 2, spec
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_explicit_tilt_override(self, small_config, tmp_path, capsys):
        out = tmp_path / "price.csv"
        rc = cli.main(
            ["--config", str(small_config), "price", "--payoff", "constant",
             "--a", "0.3", "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_maturity_past_horizon_refused(self, small_config, tmp_path, capsys):
        out = tmp_path / "price.csv"
        rc = cli.main(
            ["--config", str(small_config), "price", "--payoff", "constant",
             "--maturity", "5", "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "maturity 5 exceeds the model horizon T = 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("maturity", ["0", "-0.5", "nan"])
    def test_nonpositive_maturity_is_one_error_line(self, small_config, tmp_path, capsys,
                                                     maturity):
        out = tmp_path / "price.csv"
        rc = cli.main(
            ["--config", str(small_config), "price", "--payoff", "constant",
             "--maturity", maturity, "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: maturity must be > 0, got {float(maturity):g}"]
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["16x2x8x8", "16x12x2x8", "16x12x8x2", "16x1x8x8"],
                             ids=["x2", "y2", "z2", "x1"])
    def test_too_few_axis_nodes_is_one_error_line(self, small_config, tmp_path, capsys, grid):
        # LAPACK's tridiagonal factorisation refuses 2 rows; x needs an interior
        out = tmp_path / "price.csv"
        rc = cli.main(
            ["--config", str(small_config), "price", "--payoff", "guarantee:103.05",
             "--grid", grid, "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: grid needs nx >= 3 and ny, nz of 1 or >= 3")
        assert not out.exists()


def _rename(d, old, new):
    d[new] = d.pop(old)


# a policy edit, and the one error line it must give
POLICY_TYPOS = {
    "section-key": (lambda p: _rename(p, "terminal", "terminals"),
                    "error: unknown config keys: policy.terminals"),
    "item-key": (lambda p: p["transition"][0].update(rate_segments=[[0.0, 0.02]]),
                 "error: unknown config keys: policy.transition[0].rate_segments"),
    "payoff-key": (lambda p: _rename(p["terminal"][0]["payoff"], "value", "valeu"),
                   "error: unknown config keys: policy.terminal[0].payoff.valeu"),
    "terminal-state": (lambda p: p["terminal"][0].update(state="alvie"),
                       "error: bad policy section: undeclared states 'alvie'"),
    "rate-state": (lambda p: p.update(rate=[{"state": "Alive", "payoff": "constant:1"}]),
                   "error: bad policy section: undeclared states 'Alive'"),
    "transition-state": (lambda p: p["transition"][0].update(to="ded"),
                         "error: bad policy section: undeclared states 'ded'"),
    "guarantee-value": (lambda p: p["terminal"][0]["payoff"].pop("value"),
                        "error: bad policy section: guarantee payoff needs a value"),
}


class TestReserve:
    def test_both_methods_with_rel_diff(self, small_config, tmp_path, capsys):
        out = tmp_path / "reserve.csv"
        rc = cli.main(
            ["--config", str(small_config), "reserve", "--method", "both",
             "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["state", "t", "x", "y", "z", "V", "rel_diff"]
        body = rows[1:]
        assert len(body) == 2 * 12 * 8 * 4
        alive = [r for r in body if r[0] == "alive"]
        assert max(float(r[6]) for r in alive) < 0.05

    def test_both_methods_march_through_one_stepper(self, small_config, tmp_path, monkeypatch):
        built = count_stepper_inits(monkeypatch)
        rc = cli.main(["--config", str(small_config), "reserve", "--method", "both",
                       "--grid", "16x12x8x4", "--out", str(tmp_path / "reserve.csv")])
        assert rc == 0 and len(built) == 1

    def test_policy_file_override(self, small_config, tmp_path, capsys):
        pol = {
            "policy": {
                "states": ["alive", "dead"],
                "horizon": 1.0,
                "intensities": [
                    {"from": "alive", "to": "dead", "rate_segments": [[0.0, 0.05]]}
                ],
                "terminal": [{"state": "alive", "payoff": {"kind": "constant", "value": 1.0}}],
            }
        }
        ppath = tmp_path / "policy.json"
        ppath.write_text(json.dumps(pol))
        out = tmp_path / "reserve.csv"
        rc = cli.main(
            ["--config", str(small_config), "reserve", "--policy", str(ppath),
             "--method", "quadrature", "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_policy_horizon_past_model_refused(self, small_config, tmp_path, capsys):
        pol = default_config_dict()["policy"] | {"horizon": 5.0}
        ppath = tmp_path / "policy.json"
        ppath.write_text(json.dumps({"policy": pol}))
        out = tmp_path / "reserve.csv"
        rc = cli.main(
            ["--config", str(small_config), "reserve", "--policy", str(ppath),
             "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 2
        assert "maturity 5 exceeds the model horizon T = 1" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_horizon_zero_is_one_error_line(self, small_config, tmp_path, capsys):
        pol = default_config_dict()["policy"] | {"horizon": 0}
        ppath = tmp_path / "policy.json"
        ppath.write_text(json.dumps({"policy": pol}))
        out = tmp_path / "reserve.csv"
        rc = cli.main(
            ["--config", str(small_config), "reserve", "--policy", str(ppath),
             "--grid", "16x12x8x4", "--out", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: maturity must be > 0, got 0"]
        assert not out.exists()

    @pytest.mark.parametrize("typo", sorted(POLICY_TYPOS))
    def test_policy_typo_is_one_error_line(self, small_config, tmp_path, capsys, typo):
        edit, message = POLICY_TYPOS[typo]
        pol = default_config_dict()["policy"]
        edit(pol)
        ppath = tmp_path / "policy.json"
        ppath.write_text(json.dumps({"policy": pol}))
        out = tmp_path / "reserve.csv"
        rc = cli.main(
            ["--config", str(small_config), "reserve", "--policy", str(ppath),
             "--grid", "4x12x8x8", "--out", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        (None, "error: cannot read policy "), ("{not json", "error: policy "),
        ("[]", "error: policy must be an object"),
    ], ids=["missing", "malformed", "list"])
    def test_policy_file_error_is_one_error_line(self, small_config, tmp_path, capsys,
                                                 text, named):
        ppath = tmp_path / "policy.json"
        if text is not None:
            ppath.write_text(text)
        rc = cli.main(
            ["--config", str(small_config), "reserve", "--policy", str(ppath),
             "--grid", "4x12x8x8", "--out", str(tmp_path / "reserve.csv")]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(named)


def _rewritten(path) -> bytes:
    """csv.writer's bytes for the rows csv.reader reads back from path."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


_AWKWARD = 'a,"b"\nc'  # a comma, a double quote and a newline


class TestCsvWriter:
    """The joined writer gives csv.writer's bytes, \r\n included."""

    def test_helper_matches_csv_writer(self, tmp_path):
        names = [_AWKWARD, "", " lead", "plain", 'q"', "cr\r"]
        values = [0.0, -0.0, 1.5, 1e-300, -2.5e16, 0.1]
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["state", "n", "V"])
        for name in names:
            w.writerows((name, n, v) for n, v in enumerate(values))
        out = tmp_path / "rows.csv"
        cli._write_csv(out, ["state", "n", "V"], (
            (itertools.repeat(cli._field(name)), [str(n) for n in range(len(values))],
             cli._reprs(values))
            for name in names
        ))
        assert out.read_bytes() == buf.getvalue().encode()

    def test_reserve_with_an_awkward_state_name(self, small_config, tmp_path, capsys):
        pol = {
            "states": [_AWKWARD, "dead"],
            "horizon": 1.0,
            "intensities": [{"from": _AWKWARD, "to": "dead", "rate_segments": [[0.0, 0.05]]}],
            "terminal": [{"state": _AWKWARD, "payoff": {"kind": "guarantee", "value": 103.05}}],
        }
        ppath = tmp_path / "policy.json"
        ppath.write_text(json.dumps({"policy": pol}))
        out = tmp_path / "reserve.csv"
        rc = cli.main(["--config", str(small_config), "reserve", "--policy", str(ppath),
                       "--method", "both", "--grid", "8x6x4x3", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == _rewritten(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == [_AWKWARD] * 72 + ["dead"] * 72

    @pytest.mark.parametrize("command", [
        ["price", "--payoff", "guarantee:103.05", "--grid", "8x6x4x3"],
        ["simulate", "--paths", "3", "--steps", "64"],
    ])
    def test_price_and_simulate(self, small_config, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert cli.main(["--config", str(small_config), *command, "--out", str(out)]) == 0
        assert out.read_bytes() == _rewritten(out)


class TestVerify:
    def test_passes_and_is_deterministic(self, small_config, tmp_path, capsys):
        rc1 = cli.main(["--config", str(small_config), "verify", "--out", str(tmp_path / "a")])
        rc2 = cli.main(["--config", str(small_config), "verify", "--out", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        j1 = (tmp_path / "a" / "verification.json").read_bytes()
        j2 = (tmp_path / "b" / "verification.json").read_bytes()
        assert j1 == j2
        doc = json.loads(j1)
        assert len(doc["checks"]) >= 12
        kinds = {c["kind"] for c in doc["checks"]}
        assert kinds <= {"exact-identity", "closed-form", "independent-oracle"}

    def test_zero_paths_is_one_error_line(self, tmp_path):
        d = default_config_dict()
        d["run"]["paths"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-m", "hhr", "--config", str(path), "verify",
             "--out", str(tmp_path / "verify")],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: bad run section: run.paths must be >= 1, got 0"
        ]
        assert not (tmp_path / "verify").exists()

    def test_odd_steps_is_one_error_line(self, small_config, tmp_path, capsys):
        # X is probed at T/2, which an odd step count does not reach; the
        # sample draws and the residual test have their own least sizes
        for key, value, message in (
            ("steps", 99, "verify probes X at T/2, so run.steps must be even, got 99"),
            ("steps", 40, f"run.steps must be >= {sde.MIN_STEPS}, got 40"),
            ("paths", 500, f"run.paths must be >= {hawkes.MIN_RESIDUAL_PATHS}, got 500"),
        ):
            d = json.loads(small_config.read_text())
            d["run"][key] = value
            config = tmp_path / f"{key}{value}.json"
            config.write_text(json.dumps(d))
            out = tmp_path / f"verify_{key}{value}"
            assert cli.main(["--config", str(config), "verify", "--out", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
            assert not (out / "verification.json").exists()

    def test_one_z_node_refused_before_any_draw(self, small_config, tmp_path, capsys,
                                                monkeypatch):
        calls = _count_simulate(monkeypatch)
        d = json.loads(small_config.read_text())
        d["run"]["grid"] = "16x16x10x1"
        config = tmp_path / "nz1.json"
        config.write_text(json.dumps(d))
        out = tmp_path / "verify"
        assert cli.main(["--config", str(config), "verify", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "one-node z-axis" in err[0]
        assert calls == [] and not out.exists()

    def test_inadmissible_tilt_refused(self, tmp_path, capsys):
        d = default_config_dict()
        d["measure"] = {"level": "EmQS", "a": 5.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = cli.main(["--config", str(path), "verify"])
        assert rc == 2
        assert "bound" in capsys.readouterr().err


def _count_simulate(monkeypatch):
    """The measures of the sde.simulate calls made from here on, by any
    command, until the monkeypatch is undone."""
    from hhr import verification

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return simulate(*args, **kwargs)

    simulate = sde.simulate
    for mod in (sde, cli, verification):
        monkeypatch.setattr(mod, "simulate", counted)
    return calls


class TestOutputPaths:
    @pytest.mark.parametrize("command, refusal", [
        (["verify", "--out", "{taken}"], "is not a directory"),
        (["price", "--payoff", "guarantee:103.05", "--out", "{missing}/price.csv"],
         "no directory"),
        (["reserve", "--out", "{missing}/reserve.csv"], "no directory"),
        (["admissible", "--out", "{missing}/adm.json"], "no directory"),
        (["simulate", "--out", "{tmp}/paths.csv", "--events-out", "{taken}/events.csv"],
         "no directory"),
    ], ids=["verify", "price", "reserve", "admissible", "simulate"])
    def test_unusable_output_refused_before_any_work(self, small_config, tmp_path, capsys,
                                                     monkeypatch, command, refusal):
        # an existing file where a directory is needed, or a missing directory
        (tmp_path / "taken").write_text("")
        names = dict(taken=tmp_path / "taken", missing=tmp_path / "missing", tmp=tmp_path)
        steppers, calls = count_stepper_inits(monkeypatch), _count_simulate(monkeypatch)
        argv = [arg.format(**names) for arg in command]
        assert cli.main(["--config", str(small_config), *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot ") and refusal in err[0]
        assert steppers == [] and calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


# Run in a fresh interpreter: the import-hygiene test cannot share this one,
# whose tests import scipy's heavier subpackages themselves.
_IMPORT_PROBE = """
import json, sys

from hhr import cli, pide, special
from hhr.config import load_config

config, out = sys.argv[1:]
cfg = load_config(config)
m = cfg.validated_model()
pide.build_grid(m, m.T, *cfg.run.grid)
grid = ["--grid", "4x12x8x8"]
for command in (
    ["price", "--payoff", "guarantee:103.05", *grid, "--out", f"{out}/price.csv"],
    ["reserve", "--method", "both", *grid, "--out", f"{out}/reserve.csv"],
    ["simulate", "--paths", "4", "--steps", "98", "--out", f"{out}/paths.csv"],
    ["admissible", "--out", f"{out}/adm"],
    ["verify", "--out", f"{out}/verify"],
):
    rc = cli.main(["--config", config, *command])
    assert rc == 0, command
scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
values = [special.cir_neg_moment(2.0, 0.3, 0.5, 0.2, 0.5, 1.0)]
print(json.dumps({"scipy": scipy, "values": [v.hex() for v in values]}))
"""


class TestImports:
    def test_price_and_reserve_load_no_scipy_solver(self, tmp_path):
        """No scipy module at all is loaded through the import, a grid, and
        every command, verify (on the desk model at 2000 paths, 64 steps and
        a 32x24x12x8 grid) included: numpy is the only run-time dependency.
        The closed-form oracles give the same floats as here."""
        from hhr import special

        d = json.loads((ROOT / "configs" / "desk.json").read_text())
        d["run"].update(paths=2000, steps=64, grid="32x24x12x8")
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(config), str(tmp_path)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe["scipy"] == []
        values = [special.cir_neg_moment(2.0, 0.3, 0.5, 0.2, 0.5, 1.0)]
        assert probe["values"] == [v.hex() for v in values]
