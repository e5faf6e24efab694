import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msis import dataset as ds
from msis import evaluation as ev
from msis import funnel_sim as fs
from msis import model as M
from msis.errors import ConfigError, ContractError


def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly,
    ties worth half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_spec_example(self):
        value = ev.auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert value == pairwise_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_ordering(self):
        assert ev.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_scores_equal(self):
        assert ev.auc(np.full(10, 0.3), [0, 1] * 5) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ev.UndefinedMetricError):
            ev.auc([0.1, 0.2], [1, 1])
        assert ev.try_auc([0.1, 0.2], [1, 1]) is None

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for case in range(200):
            n = int(rng.integers(2, 501))
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1 if case % 2 else 3)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            fast = ev.auc(scores, labels)
            slow = pairwise_auc(scores, labels)
            assert abs(fast - slow) < 1e-12
            assert 0.0 <= fast <= 1.0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=300)
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        base = ev.auc(scores, labels)
        for transform in (np.exp, np.tanh, lambda s: 3 * s - 7,
                          lambda s: s ** 3):
            assert abs(ev.auc(transform(scores), labels) - base) < 1e-12


@pytest.fixture(scope="module")
def sim_world():
    cfg = fs.SimConfig(n=4000, seed=17)
    population = fs.generate(cfg)
    examples = fs.observe(population)
    splits = ds.split_oot(examples, fs.oot_cutoff_day(cfg))
    std = ds.Standardizer.fit(splits.train)
    return population, std.apply(examples), std.apply(splits.test)


# scores from a small set, so most draws hold ties within and across classes
TIED_SCORES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1e-12, -3.0])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(TIED_SCORES, st.booleans()), min_size=1, max_size=40))
def test_auc_is_the_pairwise_count(rows):
    scores, labels = (np.array(col, dtype=float) for col in zip(*rows))
    if 0 < labels.sum() < labels.size:
        # both count the same half-integer U statistic exactly, over the same divisor
        assert ev.auc(scores, labels) == pairwise_auc(scores, labels)
        assert ev.try_auc(scores, labels) == ev.auc(scores, labels)
    else:  # one class present
        assert ev.try_auc(scores, labels) is None
        with pytest.raises(ev.UndefinedMetricError):
            ev.auc(scores, labels)


class TestEvaluate:
    def test_latent_quality_score_beats_chance(self, sim_world):
        population, examples, _ = sim_world
        truth = fs.counterfactual_table(population).lookup(examples.ids)
        scores = 1.0 - population.latent_quality  # examples hold its rows in order
        for t in ("mob1", "mob3", "mob6"):
            assert ev.auc(scores, truth[t]) > 0.6

    def test_constant_model_is_chance(self, sim_world):
        population, examples, _ = sim_world
        y = fs.counterfactual_table(population).lookup(examples.ids)["mob6"]
        assert ev.auc(np.zeros(len(examples)), y) == 0.5

    def test_observed_scope_on_rejected_subset_is_absent(self, sim_world):
        _, examples, _ = sim_world
        rejected = ds.Batch.from_examples(
            [ex for ex in examples if ex.labels["credit"] is False][:100])
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=0)
        out = ev.evaluate(params, cfg, rejected, scope=ev.OBSERVED)
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            assert out[t] is None

    def test_full_population_requires_counterfactuals(self, sim_world):
        _, examples, _ = sim_world
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            ev.evaluate(params, cfg, examples[:50], scope=ev.FULL_POPULATION)

    def test_full_population_missing_ids_are_contract_errors(self, sim_world):
        population, examples, _ = sim_world
        cf = fs.counterfactual_table(population)
        subset = examples[:50]
        kept = ~np.isin(cf.ids, subset.ids[10:20])
        cf = fs.Counterfactuals(cf.ids[kept], cf.label_matrix[:, kept])
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=0)
        ids = [ex.id for ex in subset[10:15]]
        with pytest.raises(ContractError, match=re.escape(
                f"10 of 50 scored ids have no counterfactual labels, e.g. {ids}")):
            ev.evaluate(params, cfg, subset, scope=ev.FULL_POPULATION,
                        counterfactuals=cf)

    def test_full_population_scores_every_record(self, sim_world):
        population, examples, _ = sim_world
        cf = fs.counterfactual_table(population)
        cfg = M.MsisConfig()
        params = M.init_params(cfg, seed=1)
        subset = examples[:500]
        out = ev.evaluate(params, cfg, subset, scope=ev.FULL_POPULATION,
                          counterfactuals=cf)
        for t, v in out.items():
            assert v is None or 0.0 <= v <= 1.0
        # same records, observed scope: fewer contribute
        obs = ev.evaluate(params, cfg, subset, scope=ev.OBSERVED)
        n_gb_observed = sum(1 for ex in subset if ex.labels["mob6"] is not None)
        assert n_gb_observed < len(subset)  # full scope uses strictly more rows


def reference_evaluate(params, cfg, examples, scope, counterfactuals):
    """evaluate row by row, with the counterfactual labels in a dict by id."""
    rows = list(examples)
    probs = M.predict_probs(params, cfg, np.stack([ex.features for ex in rows]))
    out = {}
    for t in cfg.all_targets():
        if scope == ev.OBSERVED:
            idx = [i for i, ex in enumerate(rows) if ex.labels[t] is not None]
            y = np.array([float(rows[i].labels[t]) for i in idx])
            out[t] = ev.try_auc(probs[t][idx], y) if idx else None
        else:
            y = np.array([float(counterfactuals[ex.id][t]) for ex in rows])
            out[t] = ev.try_auc(probs[t], y)
    return out


def test_evaluate_equals_the_per_row_reference(sim_world):
    population, _, test = sim_world
    by_id = {int(i): dict(zip(ds.TARGETS, col.tolist()))
             for i, col in zip(population.ids, population.label_matrix.T)}
    cfg = M.MsisConfig()
    params = M.init_params(cfg, seed=2)
    shuffled = ds.make_batch(test, np.random.default_rng(3).permutation(len(test)))
    for rows in (test, shuffled, shuffled[:97]):
        for scope in (ev.OBSERVED, ev.FULL_POPULATION):
            got = ev.evaluate(params, cfg, rows, scope, fs.counterfactual_table(population))
            assert got == reference_evaluate(params, cfg, rows, scope, by_id), scope


class TestReport:
    def test_mean_and_sample_std(self):
        rows = [{"mob6": 0.6}, {"mob6": 0.62}]
        rep = ev.report(rows)
        m = rep.per_target["mob6"]
        npt.assert_allclose(m.mean, 0.61)
        npt.assert_allclose(m.std, 0.014142135623730963, rtol=1e-9)

    def test_identical_runs_zero_std(self):
        rep = ev.report([{"mob1": 0.7}] * 5)
        assert rep.per_target["mob1"].std == 0.0

    def test_gain_vs_itself_is_zero(self):
        rows = [{"mob3": 0.55}, {"mob3": 0.65}]
        rep = ev.report(rows, baseline_rows=rows, baseline_name="self")
        assert rep.per_target["mob3"].gain == 0.0

    def test_needs_two_runs(self):
        with pytest.raises(ConfigError):
            ev.report([{"mob6": 0.5}])

    def test_csv_and_text_outputs(self, tmp_path):
        rows = [{"mob1": 0.6, "mob3": 0.61}, {"mob1": 0.62, "mob3": 0.63}]
        base = [{"mob1": 0.5, "mob3": 0.52}, {"mob1": 0.52, "mob3": 0.5}]
        rep = ev.report(rows, base, baseline_name="single_task",
                        scope=ev.FULL_POPULATION)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        content = path.read_text()
        assert "single_task" in content and "mob3" in content
        text = rep.to_text()
        assert "gain vs single_task" in text


class TestVariantRuns:
    def test_no_semi_supervised_zeroes_gammas(self):
        runs = ev.variant_runs(ev.AblationVariant.NO_SEMI_SUPERVISED,
                               M.MsisConfig(), __import__(
                                   "msis.loss", fromlist=["LossConfig"]).LossConfig())
        assert len(runs) == 1
        assert all(g == 0.0 for g in runs[0].loss_cfg.gammas.values())
        assert runs[0].model_cfg == M.MsisConfig()

    def test_one_auxiliary_stage_drops_middle(self):
        from msis.loss import LossConfig
        runs = ev.variant_runs(ev.AblationVariant.ONE_AUXILIARY_STAGE,
                               M.MsisConfig(), LossConfig())
        stage_names = [s for s, _ in runs[0].model_cfg.stages]
        assert stage_names == ["ar", "gb"]
        params = M.init_params(runs[0].model_cfg, seed=0)
        assert not any(name.startswith("tower.draw") for name in params.names())

    def test_no_corridor_has_no_corridor_params(self):
        from msis.loss import LossConfig
        runs = ev.variant_runs(ev.AblationVariant.NO_CORRIDOR,
                               M.MsisConfig(), LossConfig())
        params = M.init_params(runs[0].model_cfg, seed=0)
        assert not any(name.startswith(("intra.", "corridor.", "fuse."))
                       for name in params.names())

    def test_single_intra_target_one_run_per_label(self):
        from msis.loss import LossConfig
        runs = ev.variant_runs(ev.AblationVariant.SINGLE_INTRA_TARGET,
                               M.MsisConfig(), LossConfig())
        assert [r.scored_targets for r in runs] == [("mob1",), ("mob3",), ("mob6",)]
        for r in runs:
            assert all(len(targets) == 1 for _, targets in r.model_cfg.stages)
            assert r.model_cfg.stages[1][1] == ("draw_90",)
