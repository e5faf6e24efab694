import json
import os
import shutil
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
        for assignment, fragment in (("sim.acceptance_rate=2.0", "acceptance_rate"),
                                     ("loss.gammas.mob_6=0", "mob_6"),
                                     ("loss.stage_weights.gbx=2", "gbx")):
            with pytest.raises(cli.ConfigError, match=fragment):
                cli.load_config(tiny_config, [assignment])

    def test_gamma_overrides_merge(self, tiny_config):
        cfg = cli.load_config(tiny_config, ["loss.gammas.mob6=0.01"])
        assert cfg.loss.gamma("mob6") == 0.01
        assert cfg.loss.gamma("mob1") == 6e-4

    def test_config_hash_is_of_the_canonical_json(self, tiny_config):
        # pinned: the hashes that earlier manifests hold for these configs
        assert cli.load_config(None, []).sha256() == \
            "b0275fe779e8e1fd39f07e685b0e833545216a6fa132cefffbe73b09e7f912d1"
        cfg = cli.load_config(tiny_config, ["loss.gammas.mob6=0.01", "split.seed=4"])
        assert cfg.sha256() == \
            "56d0971cf8ead3ff79541cb483b181809abc6361e7247b14024a48922b1c5668"
        assert cli.load_config(None, ["train.learning_rate=1"]).sha256() == \
            cli.load_config(None, ["train.learning_rate=1.0"]).sha256()

    @pytest.mark.parametrize("body, fragment", [
        (None, "No such file"), ('{"sim": {"n": 5', "Expecting"), ("[1, 2]", "an object")])
    def test_unreadable_config_file_is_config_error(self, tmp_path, body, fragment):
        path = tmp_path / "cfg.json"
        if body is not None:
            path.write_text(body)
        with pytest.raises(cli.ConfigError, match=f"cfg.json.*{fragment}"):
            cli.load_config(str(path), [])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, tiny_config, data_dir):
    out = tmp_path_factory.mktemp("run")
    assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                     "--out", str(out)]) == 0
    return out


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

    def test_evaluate_reads_the_runs_standardizer(self, tiny_config, data_dir, tmp_path,
                                                   capsys):
        # the test rows are standardized as the run's training rows were, so
        # a split seed other than the run's does not change the metrics
        run = tmp_path / "run"
        assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                         "--out", str(run)]) == 0
        outs = []
        for seed in (0, 5):
            out = tmp_path / f"e{seed}"
            assert cli.main(["evaluate", "--config", tiny_config, "--data", str(data_dir),
                             "--run", str(run), "--out", str(out),
                             "--set", f"split.seed={seed}"]) == 0
            outs.append((out / "metrics-runs-msis-observed.csv").read_bytes())
        assert outs[0] == outs[1]
        (run / "standardizer.json").unlink()
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", tiny_config, "--data", str(data_dir),
                         "--run", str(run), "--out", str(tmp_path / "e-none")]) == 1
        assert "missing standardizer" in capsys.readouterr().err

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

    def test_missing_dataset_is_config_error(self, tiny_config, tmp_path, capsys):
        rc = cli.main(["train", "--config", tiny_config, "--data", str(tmp_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "missing dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["evaluate", "--run", "nowhere"], ["ablate"],
                                         ["sweep", "--param", "gamma"]],
                             ids=lambda command: command[0])
    def test_one_seed_aggregate_exits_one_without_a_run_dir(self, tiny_config, data_dir,
                                                             tmp_path, capsys, command):
        out = tmp_path / "x"
        assert cli.main([*command, "--config", tiny_config, "--data", str(data_dir),
                         "--set", "train.seeds=[0]", "--out", str(out)]) == 1
        assert "at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, fragment", [
        (None, "configuration error: missing rows file"),
        ("seed,target,auc\n0,mob6\n", "rows.csv, line 2"),
        ("seed,target,auc\n0,mob6,0.7\n1,mob6,high\n", "rows.csv, line 3"),
        ("seed,target,auc\n0,mob6,nan\n", "rows.csv, line 2")])
    def test_bad_rows_file_exits_one_with_one_line(self, tmp_path, capsys, body, fragment):
        rows = tmp_path / "rows.csv"
        if body is not None:
            rows.write_text(body)
        out = tmp_path / "rep"
        assert cli.main(["report", "--out", str(out), f"a={rows}", f"b={rows}"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and fragment in err and "Traceback" not in err
        assert not out.exists()

    def test_divergence_exits_one_with_one_line(self, tiny_config, data_dir, tmp_path,
                                                capsys):
        # batches of 128 diverge at a later step's loss; one batch per epoch
        # diverges at the epoch's last step, which the diagnostics' forward meets
        for batch_size, message in ((128, "error: non-finite loss"),
                                    (4096, "error: non-finite parameters")):
            assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                             "--set", "train.learning_rate=1e300",
                             "--set", f"train.batch_size={batch_size}",
                             "--out", str(tmp_path / f"run{batch_size}")]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith(message), err

    @pytest.mark.parametrize("damage", ["narrow_standardizer", "pre_fusion_checkpoint"])
    def test_typed_errors_exit_one_with_one_line(self, tiny_config, data_dir, run_dir,
                                                 tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        if damage == "narrow_standardizer":  # a DimensionError on apply
            (run / "standardizer.json").write_text(
                json.dumps({"mean": [0.0] * 3, "std": [1.0] * 3}))
        else:  # a ContractError from load_checkpoint
            ckpt = run / "checkpoint-msis-seed0.json"
            payload = json.loads(ckpt.read_text())
            payload["config"]["attention_input"] = "pre_fusion"
            ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", tiny_config, "--data", str(data_dir),
                         "--run", str(run), "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
