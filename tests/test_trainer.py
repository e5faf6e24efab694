import gc

import numpy as np
import numpy.testing as npt
import pytest

from msis import dataset as ds
from msis import evaluation as ev
from msis import funnel_sim as fs
from msis import loss as L
from msis import model as M
from msis import numerics as nm
from msis import trainer as T
from msis.errors import ConfigError, ContractError, DimensionError, DomainError


def random_label_examples(n, seed=0, dim=32):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        labels = {t: bool(rng.integers(0, 2)) for t in ds.TARGETS}
        out.append(ds.Example(i, 0, rng.normal(size=dim), labels))
    return ds.Batch.from_examples(out)


def separable_ar_examples(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = rng.normal(size=8)
        labels = {t: None for t in ds.TARGETS}
        labels["credit"] = bool(x[0] > 0)
        out.append(ds.Example(i, 0, x, labels))
    return ds.Batch.from_examples(out)


AR_ONLY = M.MsisConfig(input_dim=8, shared_widths=(16,), tower_widths=(8, 4),
                       corridor_dim=4, stages=(("ar", ("credit",)),),
                       corridor_enabled=False)


@pytest.fixture(scope="module")
def sim_splits():
    cfg = fs.SimConfig(n=3000, seed=2)
    examples = fs.observe(fs.generate(cfg))
    splits = ds.split_oot(examples, fs.oot_cutoff_day(cfg))
    std = ds.Standardizer.fit(splits.train)
    return ds.Splits(std.apply(splits.train), std.apply(splits.validation),
                     std.apply(splits.test))


class TestTrainRun:
    def test_separable_loss_strictly_decreases(self):
        examples = separable_ar_examples(256, seed=1)
        splits = ds.Splits(examples, examples[:0], examples[:1])
        cfg = T.TrainConfig(epochs=6, patience=5, batch_size=32, seeds=(0,))
        _, history = T.train_run(AR_ONLY, L.LossConfig().supervised_only(),
                                 cfg, splits, seed=0)
        losses = [rec.train_loss for rec in history.epochs[:5]]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_same_seed_identical_history(self, sim_splits):
        cfg = T.TrainConfig(epochs=3, patience=2, batch_size=256, seeds=(0,))
        _, h1 = T.train_run(M.MsisConfig(), L.LossConfig(), cfg, sim_splits, seed=7)
        _, h2 = T.train_run(M.MsisConfig(), L.LossConfig(), cfg, sim_splits, seed=7)
        assert h1.best_epoch == h2.best_epoch
        for a, b in zip(h1.epochs, h2.epochs):
            assert a.train_loss == b.train_loss
            assert a.val_auc == b.val_auc
            assert a.unlabeled_entropy == b.unlabeled_entropy

    def test_overfit_capacity_on_64_examples(self):
        examples = random_label_examples(64, seed=0)
        splits = ds.Splits(examples, examples[:0], examples[:1])
        cfg = T.TrainConfig(epochs=200, patience=199, batch_size=8,
                            learning_rate=3e-3, seeds=(0,))
        params, _ = T.train_run(M.MsisConfig(), L.LossConfig().supervised_only(),
                                cfg, splits, seed=0)
        batch = ds.make_batch(examples)
        probs = M.predict_probs(params, M.MsisConfig(), batch.features)
        for t in ds.TARGETS:
            idx, y = batch.observed(t)
            assert ev.auc(probs[t][idx], y) >= 0.99, t

    def test_divergence_aborts_with_diagnostics(self):
        examples = random_label_examples(32, seed=3)
        splits = ds.Splits(examples, examples[:0], examples[:1])
        cfg = T.TrainConfig(epochs=5, patience=4, batch_size=16,
                            learning_rate=1e100, seeds=(0,))
        with pytest.raises(T.TrainingDiverged) as err:
            T.train_run(M.MsisConfig(), L.LossConfig(), cfg, splits, seed=0)
        assert err.value.epoch == 1
        assert "epoch 1" in str(err.value)

    @pytest.mark.parametrize("learning_rate", [1e300, float("inf")])
    def test_divergence_on_an_epochs_last_step(self, learning_rate):
        # one batch per epoch: its step leaves parameters that overflow the
        # diagnostics' forward pass (1e300) or are non-finite (inf), and no
        # later step's loss check sees them first
        cfg = fs.SimConfig(n=400, seed=0)
        examples = fs.observe(fs.generate(cfg))
        splits = ds.split_oot(examples, fs.oot_cutoff_day(cfg))
        std = ds.Standardizer.fit(splits.train)
        splits = ds.Splits(std.apply(splits.train), std.apply(splits.validation),
                           std.apply(splits.test))
        train_cfg = T.TrainConfig(epochs=2, patience=1, batch_size=4096,
                                  learning_rate=learning_rate, seeds=(0,))
        with pytest.raises(T.TrainingDiverged) as err:
            T.train_run(M.MsisConfig(), L.LossConfig(), train_cfg, splits, seed=0)
        assert (err.value.epoch, err.value.batch_index) == (1, 0)
        assert str(err.value).startswith("non-finite parameters")
        assert not np.isfinite(err.value.value) or err.value.value > 1e299

    def test_best_checkpoint_restored(self, sim_splits):
        cfg = T.TrainConfig(epochs=8, patience=3, batch_size=256, seeds=(0,))
        params, history = T.train_run(M.MsisConfig(), L.LossConfig(), cfg,
                                      sim_splits, seed=1)
        assert 1 <= history.best_epoch <= len(history.epochs)
        best = history.best_record()
        val = ds.make_batch(sim_splits.validation)
        probs = M.predict_probs(params, M.MsisConfig(), val.features)
        for t in ("mob1", "mob3", "mob6"):
            idx, y = val.observed(t)
            got = ev.try_auc(probs[t][idx], y)
            if got is not None and best.val_auc[t] is not None:
                npt.assert_allclose(got, best.val_auc[t], atol=1e-12)

    def test_entropy_minimization_takes_effect(self):
        cfg = fs.SimConfig(n=5000, seed=2)
        examples = fs.observe(fs.generate(cfg))
        splits = ds.split_oot(examples, fs.oot_cutoff_day(cfg))
        std = ds.Standardizer.fit(splits.train)
        splits = ds.Splits(std.apply(splits.train), std.apply(splits.validation),
                           std.apply(splits.test))
        tcfg = T.TrainConfig(epochs=15, patience=14, batch_size=64, seeds=(0,))
        _, history = T.train_run(M.MsisConfig(),
                                 L.LossConfig(unlabeled_reduction="sum"),
                                 tcfg, splits, seed=0)
        first = history.epochs[0].unlabeled_entropy
        best = history.best_record().unlabeled_entropy
        for t in ("mob1", "mob3", "mob6"):
            assert best[t] < first[t], t

    def test_config_validation(self, sim_splits):
        with pytest.raises(ConfigError):
            T.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            T.TrainConfig(patience=50, epochs=50)
        with pytest.raises(ConfigError):
            T.TrainConfig(seeds=())


class LoopAdam:
    """The per-tensor Adam loop that the flat-vector step replaced: the
    oracle for Adam.step."""

    def __init__(self, params, cfg):
        self.params, self.cfg, self.t = params, cfg, 0
        self.m = {name: np.zeros_like(node.value) for name, node in params.items()}
        self.v = {name: np.zeros_like(node.value) for name, node in params.items()}

    def step(self):
        self.t += 1
        cfg = self.cfg
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name, node in self.params.items():
            g, m, v = node.adjoint, self.m[name], self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            node.value -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


class TestAdam:
    def test_flat_step_matches_per_tensor_loop(self):
        cfg = T.TrainConfig(learning_rate=3e-3)
        fused, looped = M.init_params(M.MsisConfig(), 4), M.init_params(M.MsisConfig(), 4)
        adam, oracle = T.Adam(fused, cfg), LoopAdam(looped, cfg)
        frozen = "intra.ws.g1.w"  # its gradient stays zero throughout
        frozen_start = fused[frozen].value.copy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            for name, node in fused.items():
                g = 0.0 if name == frozen else rng.normal(size=node.value.shape)
                node.adjoint[...] = g
                looped[name].adjoint[...] = g
            adam.step()
            oracle.step()
        m, v = fused.as_named(adam._m), fused.as_named(adam._v)
        for name, node in fused.items():
            assert node.value.tobytes() == looped[name].value.tobytes(), name
            assert m[name].tobytes() == oracle.m[name].tobytes(), name
            assert v[name].tobytes() == oracle.v[name].tobytes(), name
        assert fused[frozen].value.tobytes() == frozen_start.tobytes()
        assert not np.array_equal(fused["intra.ws.g2.w"].value,
                                  M.init_params(M.MsisConfig(), 4)["intra.ws.g2.w"].value)


# per-epoch train_loss of the run below, recorded with the per-tensor Adam
# loop and per-tensor parameter storage that the flat store replaced
PINNED_TRAIN_LOSS = [1.4612907511614064, 1.0130146986410151,
                     0.8143424145260282, 0.8152919226820146]


def test_loss_trajectory_pinned(sim_splits):
    # a relative tolerance, not a digest: a change that only reorders a sum
    # moves the last digits, a broken gradient or update moves far more
    cfg = T.TrainConfig(epochs=4, patience=3, batch_size=64, seeds=(0,))
    _, history = T.train_run(M.MsisConfig(), L.LossConfig(), cfg, sim_splits, seed=5)
    npt.assert_allclose([rec.train_loss for rec in history.epochs],
                        PINNED_TRAIN_LOSS, rtol=1e-9, atol=0.0)


def test_history_csv(tmp_path, sim_splits):
    cfg = T.TrainConfig(epochs=2, patience=1, batch_size=512, seeds=(0,))
    _, history = T.train_run(M.MsisConfig(), L.LossConfig(), cfg, sim_splits, seed=0)
    path = tmp_path / "log.csv"
    T.write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,target,")
    assert len(lines) == 1 + 2 * 6  # 2 epochs x 6 targets


# ---------------------------------------------------------------------------
# recorded steps: one tape per batch row count, replayed in place
# ---------------------------------------------------------------------------

def rejected_examples(n, seed=0, dim=32):
    """Applications the platform turned down: only the credit label exists."""
    rng = np.random.default_rng(seed)
    labels = {t: None for t in ds.TARGETS}
    return ds.Batch.from_examples([ds.Example(i, 0, rng.normal(size=dim),
                                              dict(labels, credit=False))
                                   for i in range(n)])


class TestReplayedStep:
    CFG = M.MsisConfig()

    @pytest.fixture(scope="class")
    def step_batches(self, sim_splits):
        train = sim_splits.train
        a, b = ds.make_batch(train[:64]), ds.make_batch(train[64:128])
        assert any(not np.array_equal(a.masks[t], b.masks[t]) for t in ds.TARGETS)
        return {"a": a, "b": b, "rejected": ds.make_batch(rejected_examples(64, seed=9))}

    def fresh(self, params, batch, lcfg):
        params.zero_adjoints()
        loss = L.total_loss(M.forward(params, self.CFG, batch.features), batch, lcfg,
                            self.CFG.stages)
        nm.backward_sweep(loss.total)
        return loss, params.grads.copy()

    def sweep(self, params, step):
        params.zero_adjoints()
        nm.backward_sweep(step.loss.total, step.order)
        return step.loss, params.grads.copy()

    @pytest.mark.parametrize("lcfg", [L.LossConfig(), L.LossConfig().supervised_only()],
                             ids=["entropy", "supervised"])
    @pytest.mark.parametrize("first,replays", [("a", ("b", "rejected", "a")),
                                               ("rejected", ("a", "rejected"))])
    def test_replay_equals_a_fresh_tape(self, step_batches, lcfg, first, replays):
        params = M.init_params(self.CFG, seed=3)
        step = T._Step(params, self.CFG, lcfg, step_batches[first])
        self.sweep(params, step)
        for name in replays:
            batch = step_batches[name]
            weights = L.loss_weights([batch], lcfg, self.CFG.stages)[0]
            step.replay(batch, weights)
            got, got_grads = self.sweep(params, step)
            want, want_grads = self.fresh(params, batch, lcfg)
            npt.assert_array_equal(got.total.value, want.total.value, err_msg=name)
            npt.assert_array_equal(L.target_terms(weights, got), L.target_terms(weights, want),
                                   err_msg=name)
            npt.assert_array_equal(got_grads, want_grads, err_msg=name)

    @pytest.mark.parametrize("cfg", [CFG, M.MsisConfig(corridor_enabled=False)],
                             ids=["corridor", "no_corridor"])
    def test_a_sweep_writes_every_gradient(self, step_batches, cfg):
        # train_run zero-fills no gradient before a step's sweep
        params = M.init_params(cfg, seed=3)
        lcfg = L.LossConfig()
        step = T._Step(params, cfg, lcfg, step_batches["a"])
        batch = step_batches["b"]
        step.replay(batch, L.loss_weights([batch], lcfg, cfg.stages)[0])
        params.grads.fill(np.nan)
        nm.backward_sweep(step.loss.total, step.order)
        got = params.grads.copy()
        params.zero_adjoints()
        nm.backward_sweep(L.total_loss(M.forward(params, cfg, batch.features), batch, lcfg,
                                       cfg.stages).total)
        assert got.tobytes() == params.grads.tobytes()

    def test_the_features_leaf_gets_no_adjoint(self, step_batches):
        step = T._Step(M.init_params(self.CFG, seed=3), self.CFG, L.LossConfig(),
                       step_batches["a"])
        leaves = [node for node in step.order if not node.parents]
        features = [node for node in leaves if node.value is step.features]
        assert len(features) == 1 and features[0].adjoint is None
        assert all(node.adjoint is not None for node in leaves if node is not features[0])

    def test_a_64_row_step_records_49_nodes(self, step_batches):
        # each attention is one op, each fusion's candidates one join of its
        # two dense sides, the loss one op
        step = T._Step(M.init_params(self.CFG, seed=3), self.CFG, L.LossConfig(),
                       step_batches["a"])
        assert len(step.order) == 49

    @pytest.mark.parametrize("lcfg", [L.LossConfig(), L.LossConfig().supervised_only()],
                             ids=["entropy", "supervised"])
    def test_a_sweep_writes_every_adjoint_before_reading_it(self, step_batches, lcfg):
        params = M.init_params(self.CFG, seed=3)
        step = T._Step(params, self.CFG, lcfg, step_batches["a"])
        _, clean = self.sweep(params, step)
        for node in step.order:
            if node.parents:
                node.adjoint.fill(np.nan)
        _, poisoned = self.sweep(params, step)
        assert np.isfinite(clean).all()
        assert poisoned.tobytes() == clean.tobytes()

    def test_each_row_count_records_one_tape(self, monkeypatch):
        examples = random_label_examples(150, seed=5)  # batches of 64, 64 and 22
        splits = ds.Splits(examples, examples[:0], examples[:1])
        recorded = []

        def recording_forward(params, config, features):
            recorded.append(features.shape[0])
            return M.forward(params, config, features)

        monkeypatch.setattr(T, "forward", recording_forward)
        cfg = T.TrainConfig(epochs=3, patience=2, batch_size=64, seeds=(0,))
        T.train_run(self.CFG, L.LossConfig(), cfg, splits, seed=0)
        assert recorded == [64, 22]


@pytest.mark.parametrize("poison,error", [("feature", DomainError),
                                          ("label", ContractError)])
def test_bad_row_in_a_replayed_batch_raises_its_typed_error(poison, error):
    # the bad row sits in the second batch of the first epoch, which would
    # replay the 64-row tape the first recorded: train_run's feature check
    # and the epoch's loss weights meet it before any step
    examples = random_label_examples(200, seed=4)
    row = ds.batches(examples, 64, 0, 1)[1].features[0]
    victim = np.flatnonzero((examples.features == row).all(axis=1))[0]
    if poison == "feature":
        examples.features[victim, 3] = np.nan
    else:
        examples.labels["mob3"][victim] = np.nan  # a NaN label under a set mask
    splits = ds.Splits(examples, examples[:0], examples[:1])
    cfg = T.TrainConfig(epochs=2, patience=1, batch_size=64, seeds=(0,))
    with pytest.raises(error) as err:
        T.train_run(M.MsisConfig(), L.LossConfig(), cfg, splits, seed=0)
    assert not isinstance(err.value, T.TrainingDiverged)


@pytest.mark.parametrize("split", ["train", "validation"])
def test_bad_features_raise_before_the_first_step(monkeypatch, split):
    examples = random_label_examples(200, seed=4)
    splits = ds.Splits(examples[:150], examples[150:], examples[:1])
    getattr(splits, split).features[5, 3] = np.nan
    built = []
    monkeypatch.setattr(T, "forward", lambda *args: built.append(1) or M.forward(*args))
    cfg = T.TrainConfig(epochs=2, patience=1, batch_size=64, seeds=(0,))
    with pytest.raises(DomainError):
        T.train_run(M.MsisConfig(), L.LossConfig(), cfg, splits, seed=0)
    assert not built


def test_empty_training_split_is_a_dimension_error():
    examples = random_label_examples(10)
    splits = ds.Splits(examples[:0], examples, examples[:1])
    cfg = T.TrainConfig(epochs=2, patience=1, batch_size=64, seeds=(0,))
    with pytest.raises(DimensionError, match="no rows"):
        T.train_run(M.MsisConfig(), L.LossConfig(), cfg, splits, seed=0)


def test_recorded_tapes_leave_no_reference_cycles(sim_splits):
    cfg = T.TrainConfig(epochs=2, patience=1, batch_size=64, seeds=(0,))
    gc.collect()
    gc.disable()
    try:
        T.train_run(M.MsisConfig(), L.LossConfig(), cfg, sim_splits, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()
