import csv
import json
from pathlib import Path

import pytest

from hhr import cli
from hhr.config import config_from_dict, default_config_dict, load_config, parse_grid
from hhr.errors import ConfigError


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

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_config_before_subcommand_survives(self, small_config):
        args = cli._parse(["--config", str(small_config), "admissible"])
        assert args.config == str(small_config)
        assert cli._load(args).run.seed == 99

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

    def test_bad_payoff(self, small_config, capsys):
        with pytest.raises(ValueError):
            cli.main(["--config", str(small_config), "price", "--payoff", "swaption"])

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

    def test_inadmissible_tilt_refused(self, tmp_path, capsys):
        d = default_config_dict()
        d["measure"] = {"level": "EmQS", "a": 5.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = cli.main(["--config", str(path), "verify"])
        assert rc == 2
        assert "bound" in capsys.readouterr().err
