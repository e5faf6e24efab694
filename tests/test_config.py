import json

import pytest

from msis import cli
from msis import funnel_sim as fs
from msis import loss as ls
from msis import model as M
from msis import trainer as tr
from msis.config import from_dict, to_dict
from msis.errors import ConfigError


@pytest.mark.parametrize("config", [fs.SimConfig(n=100000), M.MsisConfig(),
                                    ls.LossConfig(), tr.TrainConfig(),
                                    cli.ExperimentConfig()],
                         ids=lambda c: type(c).__name__)
def test_json_roundtrip(config):
    obj = json.loads(json.dumps(to_dict(config)))
    assert from_dict(type(config), obj) == config


def test_to_dict_writes_tuples_as_lists():
    assert to_dict(M.MsisConfig())["stages"] == [
        ["ar", ["credit"]], ["ws", ["draw_30", "draw_90"]],
        ["gb", ["mob1", "mob3", "mob6"]]]


def test_integral_numbers_become_ints():
    cfg = from_dict(fs.SimConfig, {**to_dict(fs.SimConfig(n=5)), "n": 1e5})
    assert cfg.n == 100000 and type(cfg.n) is int
    cfg = from_dict(tr.TrainConfig, {**to_dict(tr.TrainConfig()), "learning_rate": 1})
    assert type(cfg.learning_rate) is float


@pytest.mark.parametrize("cls, field, value, fragment", [
    (M.MsisConfig, "corridor_enabled", "False", "true or false"),
    (M.MsisConfig, "corridor_enabled", 0, "true or false"),
    (M.MsisConfig, "corridor_dim", 2.5, "whole number"),
    (M.MsisConfig, "corridor_dim", True, "whole number"),
    (M.MsisConfig, "shared_widths", [64, "x"], r"shared_widths\[1\]"),
    (M.MsisConfig, "stages", [["ar", "credit"]], "must be a list"),
    (M.MsisConfig, "input_dim", "32", "whole number"),
    (fs.SimConfig, "draw_horizons", [30, 60, 90], "2 values"),
    (fs.SimConfig, "seed", "abc", "whole number"),
    (fs.SimConfig, "acceptance_rate", "0.3", "finite number"),
    (tr.TrainConfig, "learning_rate", float("nan"), "finite number"),
    (ls.LossConfig, "gammas", {"mob6": None}, r"gammas\.mob6"),
    (ls.LossConfig, "stage_weights", [1.0], "object"),
])
def test_bad_values_are_config_errors(cls, field, value, fragment):
    base = to_dict(cls(n=500) if cls is fs.SimConfig else cls())
    with pytest.raises(ConfigError, match=fragment):
        from_dict(cls, {**base, field: value})


def test_takes_exactly_the_fields():
    base = to_dict(M.MsisConfig())
    del base["corridor_dim"]
    with pytest.raises(ConfigError, match=r"missing fields \['corridor_dim'\]"):
        from_dict(M.MsisConfig, base, where="model")
    with pytest.raises(ConfigError, match=r"unknown fields \['extra'\]"):
        from_dict(M.MsisConfig, {**to_dict(M.MsisConfig()), "extra": 1})


class TestCliBooleans:
    @pytest.mark.parametrize("raw", ["False", "no", "0", "true_"])
    def test_non_json_booleans_rejected(self, raw):
        with pytest.raises(ConfigError, match="model.corridor_enabled"):
            cli.load_config(None, [f"model.corridor_enabled={raw}"])

    def test_json_false_disables_the_corridor(self):
        cfg = cli.load_config(None, ["model.corridor_enabled=false"])
        assert cfg.model.corridor_enabled is False

    def test_bad_boolean_exits_one_without_a_run_dir(self, tmp_path):
        out = tmp_path / "x"
        assert cli.main(["simulate", "--set", "model.corridor_enabled=no",
                         "--out", str(out)]) == 1
        assert not out.exists()


def test_defaults_are_the_dataclass_defaults():
    cfg = cli.load_config(None, [])
    assert cfg.sim == fs.SimConfig(n=100000)
    assert cfg.model == M.MsisConfig()
    assert cfg.loss == ls.LossConfig()
    assert cfg.train == tr.TrainConfig()
    assert cfg.split == cli.SplitConfig()
    assert cfg.sweep == cli.SweepConfig()


class TestCliSplit:
    @pytest.mark.parametrize("assignment, fragment", [
        ("split.seed=abc", "split.seed must be a whole number"),
        ("split.cutoff_day=2.5", "split.cutoff_day must be a whole number"),
        ("sweep.gamma=abc", "sweep.gamma must be a list"),
        ("sweep.gamma=5", "sweep.gamma must be a list"),
        ("sweep.corridor_dim=[2.5]", "sweep.corridor_dim[0] must be a whole number"),
        ("sweep.corridor_dim=[2,0]", "sweep.corridor_dim value 0: corridor_dim must be >= 1"),
        ("sweep.gamma=[-1.0]", "sweep.gamma value -1.0: semi-supervised weights"),
        ("split.seed=-1", "split.seed must be >= 0"),
        ("sim.seed=-3", "seed must be >= 0, got -3"),
        ("train.seeds=[0,-1]", "seeds must be >= 0, got [0, -1]"),
    ])
    def test_bad_split_values_exit_one_without_a_run_dir(self, tmp_path, capsys,
                                                         assignment, fragment):
        out = tmp_path / "x"
        assert cli.main(["simulate", "--set", assignment, "--out", str(out)]) == 1
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_split_values_are_typed(self):
        cfg = cli.load_config(None, ["split.seed=7", "split.cutoff_day=200"])
        assert (cfg.split.seed, cfg.cutoff_day) == (7, 200)
        assert cli.load_config(None, ["split.cutoff_day=null"]).cutoff_day == 292


def test_unknown_model_exits_one_without_a_run_dir(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--model", "frob",
                     "--out", str(out)]) == 1
    assert "unknown model 'frob'" in capsys.readouterr().err
    assert not out.exists()
