import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msis import cli


TINY = {
    "sim": {"n": 500, "seed": 3},
    "train": {"epochs": 2, "patience": 1, "batch_size": 128, "seeds": [0, 1]},
}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, tiny_config):
    out = tmp_path_factory.mktemp("data")
    rc = cli.main(["simulate", "--config", tiny_config, "--out", str(out)])
    assert rc == 0
    return out


class TestConfig:
    def test_defaults_without_file(self):
        cfg = cli.load_config(None, [])
        assert cfg.sim.n == 100000
        assert cfg.train.seeds == (0, 1, 2, 3, 4)
        assert cfg.cutoff_day == 292

    def test_file_and_set_precedence(self, tiny_config):
        cfg = cli.load_config(tiny_config, ["sim.n=123", "train.epochs=9"])
        assert cfg.sim.n == 123          # flag beats file
        assert cfg.train.epochs == 9
        assert cfg.train.batch_size == 128  # file beats default
        assert cfg.sim.acceptance_rate == 0.3

    def test_unknown_field_rejected(self, tiny_config):
        with pytest.raises(cli.ConfigError, match="sim.frobnicate"):
            cli.load_config(tiny_config, ["sim.frobnicate=1"])

    def test_invalid_value_rejected(self, tiny_config):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tiny_config, ["sim.acceptance_rate=2.0"])

    def test_gamma_overrides_merge(self, tiny_config):
        cfg = cli.load_config(tiny_config, ["loss.gammas.mob6=0.01"])
        assert cfg.loss.gamma("mob6") == 0.01
        assert cfg.loss.gamma("mob1") == 6e-4

    def test_env_var_default(self, tiny_config, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, tiny_config)
        cfg = cli.load_config(None, [])
        assert cfg.sim.n == 500


class TestCommands:
    def test_simulate_is_deterministic(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", tiny_config, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", tiny_config, "--out", str(b)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "counterfactuals.csv").read_bytes() == \
            (b / "counterfactuals.csv").read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["artifacts"] == \
            json.loads((b / "manifest.json").read_text())["artifacts"]

    def test_train_then_evaluate(self, tiny_config, data_dir, tmp_path):
        run = tmp_path / "run"
        assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                         "--out", str(run)]) == 0
        assert (run / "checkpoint-msis-seed0.json").exists()
        assert (run / "checkpoint-msis-seed1.json").exists()
        assert (run / "train-log-msis-seed0.csv").exists()

        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--config", tiny_config, "--data", str(data_dir),
                         "--run", str(run), "--scope", "full",
                         "--out", str(out)]) == 0
        assert (out / "metrics-runs-msis-full.csv").exists()
        report = (out / "metrics-report-msis-full.csv").read_text()
        assert "mob6" in report

    def test_train_baseline_model(self, tiny_config, data_dir, tmp_path):
        run = tmp_path / "run"
        assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                         "--model", "single_task:mob6", "--out", str(run)]) == 0
        assert (run / "checkpoint-single_task-mob6-seed0.json").exists()

    def test_evaluate_metrics_reproducible(self, tiny_config, data_dir, tmp_path):
        run = tmp_path / "run"
        cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                  "--out", str(run)])
        outs = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            assert cli.main(["evaluate", "--config", tiny_config, "--data",
                             str(data_dir), "--run", str(run), "--out",
                             str(out)]) == 0
            outs.append((out / "metrics-runs-msis-observed.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_gradcheck_small(self, tiny_config, tmp_path):
        out = tmp_path / "gc"
        rc = cli.main(["gradcheck", "--config", tiny_config, "--batch", "16",
                       "--set", "model.shared_widths=[8]",
                       "--set", "model.tower_widths=[4]",
                       "--set", "model.corridor_dim=4",
                       "--set", "train.seeds=[0,1]",
                       "--out", str(out)])
        assert rc == 0
        assert "PASS" in (out / "gradcheck.txt").read_text()

    def test_sweep_writes_row_per_value(self, tiny_config, data_dir, tmp_path):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", tiny_config, "--data", str(data_dir),
                       "--param", "corridor_dim", "--out", str(out),
                       "--set", "sweep.corridor_dim=[2,4]",
                       "--set", "train.epochs=2"])
        assert rc == 0
        dat = (out / "sweep-corridor_dim-mob6.dat").read_text().strip().splitlines()
        assert len(dat) == 3  # comment header + one row per value
        assert dat[1].split()[0] == "2"
        assert dat[2].split()[0] == "4"

    def test_report_aggregates_runs(self, tiny_config, data_dir, tmp_path):
        run = tmp_path / "run"
        cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                  "--out", str(run)])
        ev_dir = tmp_path / "ev"
        cli.main(["evaluate", "--config", tiny_config, "--data", str(data_dir),
                  "--run", str(run), "--out", str(ev_dir)])
        rows = ev_dir / "metrics-runs-msis-observed.csv"
        out = tmp_path / "rep"
        rc = cli.main(["report", "--config", tiny_config, "--out", str(out),
                       "--baseline", "msis", f"msis={rows}", f"other={rows}"])
        assert rc == 0
        content = (out / "comparison.csv").read_text()
        assert "other" in content

    def test_bad_config_exits_one(self, tmp_path):
        rc = cli.main(["simulate", "--set", "sim.acceptance_rate=3.0",
                       "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_unknown_section_in_file_exits_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"baselines": ["single_task"]}))
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_unknown_command_exits_two(self):
        # the child imports msis from wherever this process found it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "msis.cli", "frobnicate"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_checkpoint_is_config_error(self, tiny_config, data_dir,
                                                tmp_path):
        rc = cli.main(["evaluate", "--config", tiny_config, "--data", str(data_dir),
                       "--run", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
