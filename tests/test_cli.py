import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_simulate_manifest_holds_the_resolved_config(self, tiny_config, tmp_path):
        # the run directory says which horizons made label_draw_30 and label_draw_90
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", tiny_config,
                         "--set", "sim.draw_horizons=[10,40]", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sim"]["draw_horizons"] == [10, 40]
        canonical = json.dumps(manifest["config"], sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == manifest["config_sha256"]

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
        ("seed,target,auc\n0,mob6,nan\n", "rows.csv, line 2"),
        ("0,mob6,0.7\n1,mob6,0.8\n2,mob6,0.9\n", "rows.csv, line 1"),
        ("seed,target,score\n0,mob6,0.7\n", "rows.csv, line 1"),
        ("", "rows.csv, line 1")])
    def test_bad_rows_file_exits_one_with_one_line(self, tmp_path, capsys, body, fragment):
        rows = tmp_path / "rows.csv"
        if body is not None:
            rows.write_text(body)
        out = tmp_path / "rep"
        assert cli.main(["report", "--out", str(out), f"a={rows}", f"b={rows}"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and fragment in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("damaged", ["dataset.csv", "counterfactuals.csv"])
    def test_undecodable_data_file_exits_one_without_a_run_dir(self, tiny_config, data_dir,
                                                                tmp_path, capsys, damaged):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        raw = bytearray((data / damaged).read_bytes())
        raw[50] = 0xFF
        (data / damaged).write_bytes(raw)
        out = tmp_path / "run"
        command = "train" if damaged == "dataset.csv" else "ablate"
        assert cli.main([command, "--config", tiny_config, "--data", str(data),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith(f"error: {data / damaged}: byte 0xff"), err
        assert not out.exists()

    @pytest.mark.parametrize("assignment", ["train.beta1=1.0", "train.beta2=2.0",
                                            "train.epsilon=-1"])
    def test_bad_adam_hyperparameter_exits_one_without_a_run_dir(
            self, tiny_config, data_dir, tmp_path, capsys, assignment):
        # a beta1 of 1 used to end in a non-finite loss, the others trained
        out = tmp_path / "run"
        assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                         "--set", assignment, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        field = assignment[len("train."):assignment.index("=")]
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"configuration error: {field} must"), err
        assert not out.exists()

    def test_unweighted_stage_exits_one_without_a_run_dir(self, tiny_config, data_dir,
                                                          tmp_path, capsys):
        # used to fail on the first loss, after standardizer.json was written
        out = tmp_path / "run"
        assert cli.main(["train", "--config", tiny_config, "--data", str(data_dir),
                         "--set", 'model.stages=[["xx",["credit"]]]', "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("configuration error: model.stages ['xx'] have no "), err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
                                             ("--tol", "inf"), ("--batch", "0")])
    def test_bad_gradcheck_flag_exits_one_without_a_run_dir(self, tiny_config, tmp_path,
                                                            capsys, flag, value):
        # a NaN or negative tol used to sweep every scalar and print FAIL, an
        # infinite one PASS
        out = tmp_path / "gc"
        assert cli.main(["gradcheck", "--config", tiny_config, "--set", "model.shared_widths=[8]",
                         "--set", "model.tower_widths=[4]", "--set", "model.corridor_dim=4",
                         "--set", "train.seeds=[0]", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"configuration error: {flag} must")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--set", "sim.n=10000000000000000000000"],
        ["gradcheck", "--set", "model.shared_widths=[100000000000000000000]",
         "--set", "train.seeds=[0]"]], ids=lambda command: command[0])
    def test_unindexable_size_exits_one_without_a_run_dir(self, tmp_path, capsys, command):
        # sizes NumPy refuses before it allocates anything, which used to
        # escape as its ValueError's traceback
        out = tmp_path / "run"
        assert cli.main([*command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith("configuration error: ") and "one array can hold" in err, err
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


# every field of every section, as --set names it
FIELDS = [f"{name}.{field.name}"
          for name, section in typing.get_type_hints(cli.ExperimentConfig).items()
          for field in dataclasses.fields(section)]

# values a field may accept, and huge, non-finite and mistyped ones
JSON_SCALARS = st.one_of(
    st.integers(-3, 300), st.floats(-1.0, 2.0), st.integers(-10**30, 10**30),
    st.sampled_from([2**63, -2**63 - 1, 10**22]), st.floats(allow_nan=True, allow_infinity=True),
    st.none(), st.booleans(), st.text(max_size=8))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
# a JSON text (NaN and Infinity included, as Python's json reads them) or a raw string
SET_VALUES = st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=12))


@pytest.fixture(scope="module")
def rows_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    path.write_text("seed,target,auc\n0,mob6,0.7\n1,mob6,0.8\n")
    return path


def report_exits_zero_or_one_with_one_line(rows_file, args):
    """`msis report` with extra arguments: exit 0 with its table, or exit 1
    with one stderr line, no traceback and no run directory."""
    out = rows_file.parent / "rep"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["report", *args, "--out", str(out), f"a={rows_file}", f"b={rows_file}"])
    err = stderr.getvalue()
    assert rc in (0, 1), (args, rc)
    if rc == 1:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (args, err)
        assert not out.exists(), args
    else:
        assert (out / "comparison.csv").exists(), args
        shutil.rmtree(out)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(assignments=st.lists(st.tuples(st.sampled_from(FIELDS), SET_VALUES),
                            min_size=1, max_size=2))
def test_any_set_value_exits_zero_or_one_with_one_line(rows_file, assignments):
    args = [arg for field, value in assignments for arg in ("--set", f"{field}={value}")]
    report_exits_zero_or_one_with_one_line(rows_file, args)


# a section's overrides: some of its fields, each any JSON value
SECTION_OVERRIDES = [
    st.tuples(st.just(name), st.one_of(
        st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(section)]),
                        JSON_VALUES, max_size=3),
        JSON_VALUES))
    for name, section in typing.get_type_hints(cli.ExperimentConfig).items()]
# a config file's JSON: sections with their overrides, an unknown key or any value
CONFIG_FILES = st.one_of(
    st.lists(st.one_of(*SECTION_OVERRIDES, st.tuples(st.text(max_size=6), JSON_VALUES)),
             max_size=4).map(dict),
    JSON_VALUES)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(body=CONFIG_FILES)
def test_any_config_file_exits_zero_or_one_with_one_line(rows_file, body):
    path = rows_file.parent / "config.json"
    path.write_text(json.dumps(body))
    report_exits_zero_or_one_with_one_line(rows_file, ["--config", str(path)])
