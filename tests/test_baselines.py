import numpy as np
import pytest

from msis import baselines as bl
from msis import dataset as ds
from msis import evaluation as ev
from msis import funnel_sim as fs
from msis import model as M
from msis import trainer as T
from msis.errors import ConfigError


@pytest.fixture(scope="module")
def sim_splits():
    cfg = fs.SimConfig(n=2000, seed=6)
    examples = fs.observe(fs.generate(cfg))
    splits = ds.split_oot(examples, fs.oot_cutoff_day(cfg))
    std = ds.Standardizer.fit(splits.train)
    return ds.Splits(std.apply(splits.train), std.apply(splits.validation),
                     std.apply(splits.test))


FAST = T.TrainConfig(epochs=2, patience=1, batch_size=256, seeds=(0,))


def test_single_task_capacity_matches_staged_model():
    staged = M.init_params(M.MsisConfig(), 0).n_scalars()
    single = M.init_params(bl.baseline_model_config(bl.BaselineKind.SINGLE_TASK, "mob6"),
                           0).n_scalars()
    assert staged == 10822
    assert single == 11281
    assert abs(single - staged) / staged <= 0.10


def test_single_task_requires_gb_target():
    with pytest.raises(ConfigError):
        bl.baseline_model_config(bl.BaselineKind.SINGLE_TASK, "credit")
    with pytest.raises(ConfigError):
        bl.baseline_model_config(bl.BaselineKind.SINGLE_TASK, None)


def test_single_task_trains_on_labeled_subset_only(sim_splits):
    params, history, cfg = bl.train_baseline(
        bl.BaselineKind.SINGLE_TASK, "mob6", sim_splits, FAST, seed=0)
    n_labeled = sum(1 for ex in sim_splits.train if ex.labels["mob6"] is not None)
    rec = history.epochs[0]
    assert rec.supervised["mob6"] > 0.0
    assert cfg.stages == (("gb", ("mob6",)),)
    # entropy never contributes: every training row carries the label
    assert all(r.entropy["mob6"] == 0.0 for r in history.epochs)
    assert n_labeled < len(sim_splits.train)


def test_zero_gb_labels_is_config_error(sim_splits):
    stripped = ds.Batch.from_examples([
        ds.Example(ex.id, ex.timestamp, ex.features,
                   {**ex.labels, "mob1": None, "mob3": None, "mob6": None})
        for ex in sim_splits.train])
    splits = ds.Splits(stripped, sim_splits.validation, sim_splits.test)
    with pytest.raises(ConfigError):
        bl.train_baseline(bl.BaselineKind.SINGLE_TASK, "mob6", splits, FAST, seed=0)


def test_flat_multitask_has_no_corridor_parameters(sim_splits):
    params, _, cfg = bl.train_baseline(
        bl.BaselineKind.FLAT_MULTITASK, None, sim_splits, FAST, seed=0)
    assert not any(name.startswith(("intra.", "corridor.", "fuse."))
                   for name in params.names())
    assert set(cfg.all_targets()) == set(ds.TARGETS)


def test_entropy_variant_with_zero_gamma_is_identical(sim_splits):
    run_a = bl.train_baseline(bl.BaselineKind.SINGLE_TASK, "mob3", sim_splits,
                              FAST, seed=4)
    run_b = bl.train_baseline(bl.BaselineKind.SINGLE_TASK_ENTROPY, "mob3",
                              sim_splits, FAST, seed=4, gamma=0.0)
    for (na, a), (nb, b) in zip(run_a[0].items(), run_b[0].items()):
        assert na == nb
        np.testing.assert_array_equal(a.value, b.value)
    assert [r.train_loss for r in run_a[1].epochs] == \
        [r.train_loss for r in run_b[1].epochs]


def test_entropy_variant_uses_unlabeled_rows(sim_splits):
    _, history, _ = bl.train_baseline(
        bl.BaselineKind.SINGLE_TASK_ENTROPY, "mob6", sim_splits, FAST, seed=0,
        gamma=6e-4)
    assert history.epochs[0].entropy["mob6"] > 0.0


def test_baselines_share_evaluation_path(sim_splits):
    params, _, cfg = bl.train_baseline(
        bl.BaselineKind.SINGLE_TASK, "mob6", sim_splits, FAST, seed=0)
    out = ev.evaluate(params, cfg, sim_splits.test, ev.OBSERVED)
    assert set(out) == {"mob6"}
    assert out["mob6"] is None or 0.0 <= out["mob6"] <= 1.0
