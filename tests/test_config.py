import copy
import dataclasses
import json
import pickle
import re

import numpy as np
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


@pytest.mark.parametrize("field, value, fragment", [
    ("beta1", 1.0, r"beta1 must lie in \[0, 1\), got 1.0"),
    ("beta1", -0.1, "beta1 must lie in"),
    ("beta2", 2.0, r"beta2 must lie in \[0, 1\), got 2.0"),
    ("beta2", 1.0, "beta2 must lie in"),
    ("epsilon", -1.0, "epsilon must be positive, got -1.0"),
    ("epsilon", 0.0, "epsilon must be positive"),
])
def test_adam_hyperparameters_are_validated(field, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        tr.TrainConfig(**{field: value})
    tr.TrainConfig(beta1=0.0, beta2=0.0)  # no momentum is a valid Adam


LARGEST = np.iinfo(np.intp).max // 8


# one invalid value per check, with the message it raises
@pytest.mark.parametrize("base, changes, message", [
    (fs.SimConfig(n=500), {"n": 0}, "n must be positive, got 0"),
    (fs.SimConfig(n=500), {"feature_dim": 0}, "feature_dim must be positive, got 0"),
    (fs.SimConfig(n=500), {"acceptance_rate": 1.0}, "acceptance_rate must lie in (0, 1), got 1.0"),
    (fs.SimConfig(n=500), {"policy_alignment": 1.5},
     "policy_alignment must lie in [0, 1], got 1.5"),
    (fs.SimConfig(n=500), {"oot_fraction": 0.0}, "oot_fraction must lie in (0, 1), got 0.0"),
    (fs.SimConfig(n=500), {"draw_horizons": (90, 30)}, "draw_horizons must increase, got (90, 30)"),
    (fs.SimConfig(n=500), {"seed": -1}, "seed must be >= 0, got -1"),
    (fs.SimConfig(n=500), {"n_terms": 5}, "n_terms must be >= 6 to define the term-6 label, got 5"),
    (fs.SimConfig(n=500), {"n": LARGEST}, "more than one array can hold"),
    (M.MsisConfig(), {"input_dim": 0}, "input_dim must be >= 1, got 0"),
    (M.MsisConfig(), {"corridor_dim": 0}, "corridor_dim must be >= 1, got 0"),
    (M.MsisConfig(), {"shared_widths": (0,)}, "layer widths must be positive"),
    (M.MsisConfig(), {"stages": (("ar", ()),)}, "every stage needs at least one target"),
    (M.MsisConfig(), {"stages": (("ar", ("credit",)), ("ws", ("credit",)))},
     "targets must be unique across stages"),
    (M.MsisConfig(), {"stages": (("ar", ("frob",)),)}, "unknown targets ['frob']; must be among"),
    (M.MsisConfig(), {"tower_widths": ()}, "corridor requires at least one tower layer"),
    (M.MsisConfig(), {"tower_widths": (16, 4)}, "tower output width 4 must equal corridor_dim 8"),
    (M.MsisConfig(), {"shared_widths": (LARGEST // 33,)}, "the model's parameters need an array"),
    (ls.LossConfig(), {"gammas": {"mob_6": 0.0}}, "gammas for unknown targets ['mob_6']"),
    (ls.LossConfig(), {"stage_weights": {"gbx": 2.0}}, "stage_weights for unknown stages ['gbx']"),
    (ls.LossConfig(), {"stage_weights": {"ar": -1.0}}, "stage weights must be non-negative"),
    (ls.LossConfig(), {"gammas": {"mob1": -1e-3}}, "semi-supervised weights must be non-negative"),
    (ls.LossConfig(), {"unlabeled_reduction": "median"},
     "unlabeled_reduction must be sum or mean, got 'median'"),
    (tr.TrainConfig(), {"learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
    (tr.TrainConfig(), {"beta1": 1.0}, "beta1 must lie in [0, 1), got 1.0"),
    (tr.TrainConfig(), {"beta2": -0.1}, "beta2 must lie in [0, 1), got -0.1"),
    (tr.TrainConfig(), {"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
    (tr.TrainConfig(), {"patience": 50}, "patience must lie in (0, epochs), got 50 vs 50"),
    (tr.TrainConfig(), {"batch_size": 0}, "batch_size must be >= 1, got 0"),
    (tr.TrainConfig(), {"seeds": ()}, "at least one seed is required"),
    (tr.TrainConfig(), {"seeds": (0, -1)}, "seeds must be >= 0, got [0, -1]"),
    (tr.TrainConfig(), {"seeds": (3, 1, 3)}, "seeds must not repeat, got [3, 1, 3]"),
    (cli.SplitConfig(), {"seed": -1}, "split.seed must be >= 0, got -1"),
    (cli.ExperimentConfig(), {"sweep": cli.SweepConfig(corridor_dim=(2, 0))},
     "sweep.corridor_dim value 0: corridor_dim must be >= 1, got 0"),
    (cli.ExperimentConfig(), {"sweep": cli.SweepConfig(gamma=(-1.0,))},
     "sweep.gamma value -1.0: semi-supervised weights must be non-negative"),
    (cli.ExperimentConfig(), {"model": M.MsisConfig(stages=(("xx", ("credit",)),))},
     "model.stages ['xx'] have no loss.stage_weights entry"),
], ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v)
   else ",".join(v) if isinstance(v, dict) else None)
def test_a_config_checks_itself_when_built(base, changes, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(base, **changes)


def test_loss_config_keeps_its_own_dicts():
    weights, gammas = {"ar": 1.0, "ws": 1.0, "gb": 1.0}, ls.default_gammas()
    cfg = ls.LossConfig(stage_weights=weights, gammas=gammas)
    weights["ar"], gammas["mob1"] = -1.0, -1.0
    assert cfg == ls.LossConfig()


DICT_EDITS = {
    "setitem": lambda d: d.__setitem__("mob1", -1.0),
    "delitem": lambda d: d.__delitem__(next(iter(d))),
    "update": lambda d: d.update(zz=2.0),
    "ior": lambda d: d.__ior__({"zz": 2.0}),
    "setdefault": lambda d: d.setdefault("zz", 2.0),
    "pop": lambda d: d.pop(next(iter(d))),
    "popitem": lambda d: d.popitem(),
    "clear": lambda d: d.clear(),
}


@pytest.mark.parametrize("edit", sorted(DICT_EDITS))
@pytest.mark.parametrize("name", ["gammas", "stage_weights"])
def test_a_built_loss_config_refuses_edits(name, edit):
    cfg = ls.LossConfig()
    with pytest.raises(TypeError, match="read-only"):
        DICT_EDITS[edit](getattr(cfg, name))
    assert cfg == ls.LossConfig()


def test_a_read_only_loss_config_pickles_copies_and_hashes_as_before():
    cfg = dataclasses.replace(ls.LossConfig(), gammas={"mob6": 0.01})
    for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
        assert twin == cfg and to_dict(twin) == to_dict(cfg)
        with pytest.raises(TypeError, match="read-only"):
            twin.gammas["mob6"] = -1.0
    assert to_dict(cfg)["gammas"] == {"mob6": 0.01}
    experiment = cli.ExperimentConfig()
    assert pickle.loads(pickle.dumps(experiment)).sha256() == experiment.sha256()


def test_array_sizes_past_numpy_are_config_errors():
    # checked by arithmetic alone: nothing of either size is allocated
    largest = np.iinfo(np.intp).max // 8
    fs.SimConfig(n=largest // 32)
    with pytest.raises(ConfigError, match="n=.*feature_dim=32 and n_terms=6"):
        fs.SimConfig(n=largest // 32 + 1)
    width = largest // 33  # a 32-wide input: shared.0's block is (33, width)
    with pytest.raises(ConfigError, match="the model's parameters"):
        M.MsisConfig(shared_widths=(width,))
    M.MsisConfig(shared_widths=(10**6,), tower_widths=(8,))


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
