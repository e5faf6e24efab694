import math

import numpy as np
import numpy.testing as npt
import pytest

from msis import dataset as ds
from msis import funnel_sim as fs
from msis import loss as ls
from msis import model as M
from msis import numerics as nm
from msis.errors import ConfigError, ContractError

LN2 = math.log(2.0)


def batch_of(features, labels, masks):
    """A Batch with the given label and mask rows by target; the targets
    left out are unobserved."""
    n = len(features)
    y, m = np.full((len(ds.TARGETS), n), np.nan), np.zeros((len(ds.TARGETS), n))
    for t in labels:
        y[ds.TARGET_INDEX[t]], m[ds.TARGET_INDEX[t]] = labels[t], masks[t]
    return ds.Batch(np.arange(n), np.zeros(n, dtype=np.int64), features, y, m)


def one_target_loss(probs, labels, mask, reduction="mean", gamma=0.0):
    """total_loss on a one-target model whose probabilities are given."""
    p = nm.constant(np.asarray(probs, dtype=np.float64).reshape(1, -1))  # (targets, rows)
    n = p.shape[1]
    batch = batch_of(np.zeros((n, 1)), {"mob1": labels}, {"mob1": mask})
    lcfg = ls.LossConfig(gammas={"mob1": gamma}, unlabeled_reduction=reduction)
    breakdown = ls.total_loss(M.ForwardResult({}, {}, p), batch, lcfg,
                              (("gb", ("mob1",)),))
    return breakdown, p


class TestMaskedBce:
    def test_perfect_predictions_near_zero(self):
        out, _ = one_target_loss([nm.CLAMP_EPS, 1.0 - nm.CLAMP_EPS], [0.0, 1.0], [1.0, 1.0])
        assert 0.0 <= out.per_target["mob1"].supervised < 1e-11

    def test_half_everywhere_is_ln2(self):
        out, _ = one_target_loss([0.5, 0.5, 0.5], [1.0, 0.0, 1.0], np.ones(3))
        npt.assert_allclose(out.per_target["mob1"].supervised, LN2, rtol=1e-15)
        npt.assert_allclose(out.total.value, [[LN2]], rtol=1e-15)

    def test_all_masked_returns_zero(self):
        out, p = one_target_loss([0.3, 0.9], [np.nan, np.nan], np.zeros(2))
        assert out.per_target["mob1"].supervised == 0.0
        assert out.per_target["mob1"].labeled == 0
        # nothing labeled and gamma zero: no gradient reaches the probabilities
        nm.backward_sweep(out.total)
        assert out.total.value[0, 0] == 0.0
        npt.assert_array_equal(p.adjoint, 0.0)

    def test_poison_trips(self):
        with pytest.raises(ContractError):
            one_target_loss([0.3], [np.nan], [1.0])

    def test_hand_computed_mix(self):
        out, _ = one_target_loss([0.8, 0.1, 0.6], [1.0, 0.0, np.nan], [1.0, 1.0, 0.0])
        expected = -(math.log(0.8) + math.log(0.9)) / 2.0
        npt.assert_allclose(out.per_target["mob1"].supervised, expected, rtol=1e-14)
        assert np.isfinite(out.total.value[0, 0])


class TestEntropyRegularizer:
    def test_single_unlabeled_half(self):
        out, _ = one_target_loss([0.5], [np.nan], [0.0])
        npt.assert_allclose(out.per_target["mob1"].entropy, LN2, rtol=1e-15)

    def test_vanishes_at_certainty(self):
        for p in (nm.CLAMP_EPS, 1.0 - nm.CLAMP_EPS):
            out, _ = one_target_loss([p], [np.nan], [0.0])
            assert 0.0 <= out.per_target["mob1"].entropy < 1e-10

    def test_sum_mode_three_halves(self):
        out, _ = one_target_loss([0.5, 0.5, 0.5], np.full(3, np.nan), np.zeros(3),
                                 reduction="sum", gamma=0.5)
        npt.assert_allclose(out.per_target["mob1"].entropy, 3.0 * LN2, rtol=1e-15)
        npt.assert_allclose(out.total.value, [[0.5 * 3.0 * LN2]], rtol=1e-15)

    def test_no_unlabeled_returns_zero(self):
        out, _ = one_target_loss([0.5], [1.0], [1.0], gamma=0.5)
        assert out.per_target["mob1"].entropy == 0.0

    def test_non_negative_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            mask = (rng.random(10) < 0.5).astype(float)
            labels = np.where(mask == 1.0, (rng.random(10) < 0.5).astype(float), np.nan)
            out, _ = one_target_loss(rng.uniform(1e-9, 1 - 1e-9, size=10), labels, mask)
            assert out.per_target["mob1"].entropy >= 0.0


def synthetic_batch(n=64, seed=5):
    examples = fs.observe(fs.generate(fs.SimConfig(n=max(200, n * 3), seed=seed)))[:n]
    return ds.make_batch(ds.Standardizer.fit(examples).apply(examples))


def tape_size(root):
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class TestTotalLoss:
    def test_two_example_hand_computation(self):
        # fully labeled 2-row batch, unit weights, gamma zero everywhere
        cfg = M.MsisConfig(input_dim=4, shared_widths=(6,), tower_widths=(3, 2),
                           corridor_dim=2)
        params = M.init_params(cfg, seed=0)
        labels = {"credit": np.array([1.0, 0.0]), "draw_30": np.array([0.0, 1.0]),
                  "draw_90": np.array([1.0, 1.0]), "mob1": np.array([0.0, 0.0]),
                  "mob3": np.array([1.0, 0.0]), "mob6": np.array([0.0, 1.0])}
        batch = batch_of(np.random.default_rng(1).normal(size=(2, 4)),
                         labels, {t: np.ones(2) for t in ds.TARGETS})
        result = M.forward(params, cfg, batch.features)
        breakdown = ls.total_loss(result, batch, ls.LossConfig().supervised_only(),
                                  cfg.stages)

        def bce(t):
            p = result.probs[t].value.ravel()
            y = labels[t]
            return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())

        expected = bce("credit") \
            + (bce("draw_30") + bce("draw_90")) / 2.0 \
            + (bce("mob1") + bce("mob3") + bce("mob6")) / 3.0
        npt.assert_allclose(breakdown.total.value, [[expected]], rtol=1e-12)

    def test_breakdown_consistency(self):
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=2)
        batch = synthetic_batch()
        lcfg = ls.LossConfig(stage_weights={"ar": 0.7, "ws": 1.3, "gb": 2.0})
        result = M.forward(params, cfg, batch.features)
        breakdown = ls.total_loss(result, batch, lcfg, cfg.stages)
        manual = 0.0
        for sname, targets in cfg.stages:
            stage = 0.0
            for t in targets:
                tl = breakdown.per_target[t]
                stage += tl.supervised + lcfg.gamma(t) * tl.entropy
            manual += lcfg.stage_weight(sname) * stage / len(targets)
        npt.assert_allclose(breakdown.total.value[0, 0], manual, atol=1e-10)
        assert breakdown.total.value[0, 0] >= 0.0

    def test_zero_gamma_reproduces_supervised_objective(self):
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=3)
        batch = synthetic_batch(seed=7)
        result = M.forward(params, cfg, batch.features)
        with_ent = ls.total_loss(result, batch, ls.LossConfig(), cfg.stages)
        without = ls.total_loss(result, batch, ls.LossConfig().supervised_only(),
                                cfg.stages)
        sup_only = sum(
            sum(with_ent.per_target[t].supervised for t in targets) / len(targets)
            for _, targets in cfg.stages)
        npt.assert_allclose(without.total.value[0, 0], sup_only, rtol=1e-12)
        assert without.total.value[0, 0] != with_ent.total.value[0, 0]

    def test_zero_stage_weight_detaches_stage(self):
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=4)
        batch = synthetic_batch(seed=9)
        lcfg = ls.LossConfig(stage_weights={"ar": 1.0, "ws": 1.0, "gb": 0.0})
        base = ls.total_loss(M.forward(params, cfg, batch.features), batch, lcfg,
                             cfg.stages).total.value[0, 0]
        params["head.mob3.w"].value[0, 0] += 2.0
        bumped = ls.total_loss(M.forward(params, cfg, batch.features), batch, lcfg,
                               cfg.stages).total.value[0, 0]
        params["head.mob3.w"].value[0, 0] -= 2.0
        assert bumped == base

    def test_fully_rejected_batch(self):
        examples = [ds.Example(i, 0, np.random.default_rng(i).normal(size=32),
                               {"credit": False, "draw_30": None, "draw_90": None,
                                "mob1": None, "mob3": None, "mob6": None})
                    for i in range(8)]
        batch = ds.make_batch(examples)
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=5)
        breakdown = ls.total_loss(M.forward(params, cfg, batch.features), batch,
                                  ls.LossConfig(), cfg.stages)
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            assert breakdown.per_target[t].supervised == 0.0
            assert breakdown.per_target[t].entropy > 0.0
            assert breakdown.per_target[t].unlabeled == 8
        assert breakdown.per_target["credit"].supervised > 0.0

    def test_tape_size_independent_of_label_pattern(self):
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=0)
        rejected = ds.make_batch([
            ds.Example(i, 0, np.random.default_rng(i).normal(size=32),
                       {"credit": False, "draw_30": None, "draw_90": None,
                        "mob1": None, "mob3": None, "mob6": None})
            for i in range(64)])
        batches = [synthetic_batch(seed=s) for s in (5, 7, 9)] + [rejected]
        patterns, sizes = set(), set()
        for batch in batches:
            patterns.add(tuple(int(batch.masks[t].sum()) for t in ds.TARGETS))
            # one loss graph, with or without the entropy term: the
            # bernoulli_loglik node and its sum over the forward's probabilities
            for lcfg in (ls.LossConfig(), ls.LossConfig().supervised_only()):
                result = M.forward(params, cfg, batch.features)
                root = ls.total_loss(result, batch, lcfg, cfg.stages).total
                assert tape_size(root) == tape_size(result.stacked) + 2
                sizes.add(tape_size(root))
        assert len(patterns) == len(batches)
        assert len(sizes) == 1 and sizes.pop() <= 100

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ls.LossConfig(stage_weights={"ar": -1.0, "ws": 1, "gb": 1}).validate()
        with pytest.raises(ConfigError):
            ls.LossConfig(gammas={"mob1": -1e-3}).validate()
        with pytest.raises(ConfigError):
            ls.LossConfig(unlabeled_reduction="median").validate()
        with pytest.raises(ConfigError, match="mob_6"):
            ls.LossConfig(gammas={**ls.default_gammas(), "mob_6": 0.0}).validate()
        with pytest.raises(ConfigError, match="gbx"):
            ls.LossConfig(stage_weights={"ar": 1.0, "ws": 1.0, "gb": 1.0,
                                         "gbx": 2.0}).validate()

    def test_config_validated_where_a_loss_is_built(self):
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=0)
        batch = synthetic_batch(n=8)
        bad = ls.LossConfig(unlabeled_reduction="median")
        with pytest.raises(ConfigError, match="median"):
            ls.total_loss(M.forward(params, cfg, batch.features), batch, bad, cfg.stages)
        with pytest.raises(ConfigError, match="median"):
            ls.make_fast_loss_value_fn(params, cfg, bad, batch)

    def test_default_gammas(self):
        assert ls.default_gammas() == ls.LossConfig().gammas
        assert ls.default_gammas(0.5) == {t: 0.0 if t == "credit" else 0.5
                                          for t in ds.TARGETS}


class TestGradients:
    def test_full_loss_gradcheck_mixed_batches(self):
        cfg = M.MsisConfig(input_dim=6, shared_widths=(8,), tower_widths=(4,),
                           corridor_dim=4)
        examples = fs.observe(fs.generate(fs.SimConfig(n=500, feature_dim=6, seed=21)))
        examples = ds.Standardizer.fit(examples).apply(examples)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            rows = [examples[i] for i in rng.choice(len(examples), 32, replace=False)]
            batch = ds.make_batch(rows)
            for lcfg in (ls.LossConfig(),
                         ls.LossConfig(unlabeled_reduction="sum"),
                         ls.LossConfig().supervised_only()):
                params = M.init_params(cfg, seed=seed)
                loss_fn = lambda: ls.total_loss(
                    M.forward(params, cfg, batch.features), batch, lcfg,
                    cfg.stages).total
                report = nm.finite_diff_check(
                    params, loss_fn,
                    value_fn=ls.make_fast_loss_value_fn(params, cfg, lcfg, batch))
                assert report.passed, f"seed {seed}: {report}"

    def test_full_loss_gradcheck_catches_a_scaled_backward(self, monkeypatch):
        # the checker's mutation test: every adjoint of the model 0.1% off
        cfg = M.MsisConfig(input_dim=6, shared_widths=(8,), tower_widths=(4,),
                           corridor_dim=4)
        examples = fs.observe(fs.generate(fs.SimConfig(n=500, feature_dim=6, seed=21)))
        batch = ds.covering_batch(ds.Standardizer.fit(examples).apply(examples), 32, 0)
        lcfg = ls.LossConfig()
        params = M.init_params(cfg, seed=0)
        loss_fn = lambda: ls.total_loss(
            M.forward(params, cfg, batch.features), batch, lcfg, cfg.stages).total
        value_fn = ls.make_fast_loss_value_fn(params, cfg, lcfg, batch)
        assert nm.finite_diff_check(params, loss_fn, value_fn=value_fn).passed
        sweep = nm.backward_sweep
        monkeypatch.setattr(nm, "backward_sweep",
                            lambda root: sweep(nm.mul(root, nm.constant([[1.001]]))))
        report = nm.finite_diff_check(params, loss_fn, value_fn=value_fn)
        assert not report.passed, report
        assert report.n_remeasured > 0

    def test_fast_value_is_total_loss_over_the_fused_forward(self):
        cfg = M.MsisConfig()
        batch = synthetic_batch(seed=32)
        for lcfg in (ls.LossConfig(), ls.LossConfig(unlabeled_reduction="sum"),
                     ls.LossConfig().supervised_only()):
            params = M.init_params(cfg, seed=9)
            fused = nm.constant(M.make_fused_forward(params, cfg, batch.features)())
            ref = ls.total_loss(M.ForwardResult({}, {}, fused), batch, lcfg,
                                cfg.stages).total.value[0, 0]
            fast = ls.make_fast_loss_value_fn(params, cfg, lcfg, batch)
            assert fast() == ref, lcfg
            assert fast() == ref, lcfg  # replayed again

    def test_fast_value_survives_scoring_between_calls(self):
        cfg = M.MsisConfig()
        batch = synthetic_batch(seed=33)
        params = M.init_params(cfg, seed=10)
        value_fn = ls.make_fast_loss_value_fn(params, cfg, ls.LossConfig(), batch)
        first = value_fn()
        rng = np.random.default_rng(6)
        # another row count on the same scratch, then a chunk that grows it
        for rows in (5, len(batch), 300):
            M.predict_probs(params, cfg, rng.normal(size=(rows, 32)))
            assert value_fn() == first, rows

    def test_fast_value_matches_tape_total(self):
        cfg = M.MsisConfig()
        batch = synthetic_batch(seed=31)
        for lcfg in (ls.LossConfig(), ls.LossConfig(unlabeled_reduction="sum")):
            params = M.init_params(cfg, seed=6)
            ref = ls.total_loss(M.forward(params, cfg, batch.features), batch,
                                lcfg, cfg.stages).total.value[0, 0]
            fast = ls.make_fast_loss_value_fn(params, cfg, lcfg, batch)()
            npt.assert_allclose(fast, ref, rtol=1e-12)
