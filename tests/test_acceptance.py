"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output). The experiment criteria train real models at full scale
and dominate the suite's runtime, so their independent training runs are
spread over two worker processes; everything is deterministic, so a green
run stays green. Every test here carries the `acceptance` marker, so
`pytest -m "not acceptance"` runs the rest of the suite alone.
"""

import dataclasses
import functools
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from msis import baselines as bl
from msis import cli
from msis import dataset as ds
from msis import evaluation as ev
from msis import funnel_sim as fs
from msis import loss as lo
from msis import model as mo
from msis import numerics as nm
from msis import trainer as tr

pytestmark = pytest.mark.acceptance

GB_TARGETS = ("mob1", "mob3", "mob6")


def _verdict(name: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def _gradcheck_worst(seed: int) -> float:
    examples = fs.observe(fs.generate(fs.SimConfig(n=400, seed=12)))
    examples = ds.Standardizer.fit(examples).apply(examples)
    batch = ds.covering_batch(examples, 64, seed)
    labeled = int((batch.masks["mob6"] == 1.0).sum())
    assert 0 < labeled < 64, "batch must mix labeled and unlabeled rows"
    model_cfg = mo.MsisConfig()
    loss_cfg = lo.LossConfig()
    params = mo.init_params(model_cfg, seed)
    loss_fn = lambda: lo.total_loss(
        mo.forward(params, model_cfg, batch.features), batch, loss_cfg,
        model_cfg.stages).total
    value_fn = lo.make_fast_loss_value_fn(params, model_cfg, loss_cfg, batch)
    report = nm.finite_diff_check(params, loss_fn, value_fn=value_fn)
    return report.worst_rel_error


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        worsts = list(pool.map(_gradcheck_worst, range(5)))
    elapsed = time.perf_counter() - start
    worst = max(worsts)
    _verdict("criterion 1 (gradient correctness)",
             worst < 1e-4 and elapsed < 30.0,
             f"worst rel. error { worst:.3e} over 5 seeds x 10822 scalars "
             f"in {elapsed:.1f}s (tol 1e-4, budget 30s)")


# ---------------------------------------------------------------------------
# criterion 2: AUC oracle equivalence
# ---------------------------------------------------------------------------

def _pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_2_auc_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 501))
        scores = np.round(rng.normal(size=n), 1 if case % 2 else 4)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(ev.auc(scores, labels) - _pairwise_auc(scores, labels)))
    elapsed = time.perf_counter() - start
    _verdict("criterion 2 (AUC oracle equivalence)",
             worst < 1e-12 and elapsed < 5.0,
             f"max |rank - pairwise| = {worst:.2e} over 200 instances "
             f"in {elapsed:.2f}s (tol 1e-12, budget 5s)")


# ---------------------------------------------------------------------------
# criterion 3: simulator invariants at n=100,000
# ---------------------------------------------------------------------------

def test_criterion_3_simulator_invariants():
    cfg = fs.SimConfig(n=100000, seed=0)
    pop = fs.generate(cfg)
    cutoff = fs.oot_cutoff_day(cfg)
    pre = [r for r in pop if r.timestamp < cutoff]
    fraction = np.mean([r.labels["credit"] for r in pre])
    nested = all(
        (not r.labels["draw_30"] or r.labels["draw_90"]) and
        (not r.labels["mob1"] or r.labels["mob3"]) and
        (not r.labels["mob3"] or r.labels["mob6"]) for r in pop)
    z_rej = np.mean([r.latent_quality for r in pop if not r.labels["credit"]])
    z_acc = np.mean([r.latent_quality for r in pop if r.labels["credit"]])
    again = fs.generate(cfg)
    identical = all(
        a.id == b.id and a.timestamp == b.timestamp and
        np.array_equal(a.features, b.features) and
        a.latent_quality == b.latent_quality and a.draw_day == b.draw_day and
        a.first_default_term == b.first_default_term and a.labels == b.labels
        for a, b in zip(pop, again))
    passed = abs(fraction - 0.3) <= 0.01 and nested and z_rej < z_acc and identical
    _verdict("criterion 3 (simulator invariants)", passed,
             f"acceptance {fraction:.4f} (target 0.3 +- 0.01), nesting "
             f"{'100%' if nested else 'VIOLATED'}, mean z rej/acc "
             f"{z_rej:.3f} < {z_acc:.3f}: {z_rej < z_acc}, regeneration "
             f"{'identical' if identical else 'DIFFERS'}")


# ---------------------------------------------------------------------------
# criterion 4: attention contracts
# ---------------------------------------------------------------------------

def test_criterion_4_attention_contracts():
    model_cfg = mo.MsisConfig()
    worst_gap = 0.0
    alpha_exact = True
    rng = np.random.default_rng(4)
    for seed in range(5):
        params = mo.init_params(model_cfg, seed)
        features = rng.normal(size=(32, model_cfg.input_dim))
        result = mo.forward(params, model_cfg, features)
        for state in result.corridor.values():
            a = state.alpha.value
            worst_gap = max(worst_gap, float(np.abs(a.sum(axis=1) - 1.0).max()))
            if np.any(a < 0.0):
                worst_gap = 1.0
            for beta in state.betas.values():
                b = beta.value
                worst_gap = max(worst_gap, float(np.abs(b.sum(axis=1) - 1.0).max()))
                if np.any(b < 0.0):
                    worst_gap = 1.0
        ar_alpha = result.corridor[("ar", "ws")].alpha.value
        alpha_exact = alpha_exact and np.array_equal(ar_alpha, np.ones((32, 1)))
    _verdict("criterion 4 (attention contracts)",
             worst_gap < 1e-12 and alpha_exact,
             f"worst simplex deviation {worst_gap:.2e} (tol 1e-12); "
             f"single-target stage alpha == [1] exactly: {alpha_exact}")


# ---------------------------------------------------------------------------
# criteria 5-7: the full synthetic-funnel experiment
# ---------------------------------------------------------------------------

ACCEPT_SEEDS = (0, 1, 2, 3, 4)
ACCEPT_TRAIN_CFG = tr.TrainConfig(epochs=25, batch_size=64, patience=5,
                                  seeds=ACCEPT_SEEDS)
ACCEPT_LOSS_CFG = lo.LossConfig(unlabeled_reduction="sum")
ABLATIONS = (ev.AblationVariant.NO_SEMI_SUPERVISED,
             ev.AblationVariant.SINGLE_INTRA_TARGET,
             ev.AblationVariant.ONE_AUXILIARY_STAGE,
             ev.AblationVariant.NO_CORRIDOR)
ABLATION_WINS_NEEDED = 3


@functools.lru_cache(maxsize=1)
def _funnel_world():
    cfg = fs.SimConfig(n=100000, seed=0)
    population = fs.generate(cfg)
    counterfactuals = fs.counterfactual_table(population)
    examples = fs.observe(population)
    splits = ds.split_oot(examples, fs.oot_cutoff_day(cfg))
    std = ds.Standardizer.fit(splits.train)
    splits = ds.Splits(std.apply(splits.train), std.apply(splits.validation),
                       std.apply(splits.test))
    return splits, counterfactuals


def _gb_row(params, model_cfg, splits, counterfactuals):
    out = ev.evaluate(params, model_cfg, splits.test, ev.FULL_POPULATION,
                      counterfactuals)
    return {t: out[t] for t in GB_TARGETS if t in out}


def _experiment_run(job):
    """One training run of the experiment, scored on the full out-of-time
    population. ``job`` is ``(kind, seed index, target)``: kind "msis" is the
    staged model (returns its GB row and history), "single" the single-task
    baseline for ``target`` (returns its AUC), and an ablation variant's
    value that variant's GB row. Runs are independent, so they are spread
    over worker processes; each worker builds the (deterministic) world once."""
    kind, si, target = job
    splits, counterfactuals = _funnel_world()
    seed = ACCEPT_SEEDS[si]
    if kind == "msis":
        model_cfg = mo.MsisConfig()
        params, history = tr.train_run(model_cfg, ACCEPT_LOSS_CFG,
                                       ACCEPT_TRAIN_CFG, splits, seed)
        return si, (_gb_row(params, model_cfg, splits, counterfactuals), history)
    if kind == "single":
        params, _, cfg = bl.train_baseline(bl.BaselineKind.SINGLE_TASK, target,
                                           splits, ACCEPT_TRAIN_CFG, seed)
        return si, _gb_row(params, cfg, splits, counterfactuals)[target]
    result = ev.ablate(ev.AblationVariant(kind), mo.MsisConfig(), ACCEPT_LOSS_CFG,
                       dataclasses.replace(ACCEPT_TRAIN_CFG, seeds=(seed,)),
                       splits, splits.test, counterfactuals)
    return si, result.rows[0]


@pytest.fixture(scope="session")
def bias_experiment():
    """Criterion 5's experiment: staged model and single-task baseline, five
    seeds each, scored on the full out-of-time population. Also feeds
    criteria 6 and 7 (histories, full-model rows)."""
    n = len(ACCEPT_SEEDS)
    jobs = [("msis", si, None) for si in range(n)]
    jobs += [("single", si, t) for si in range(n) for t in GB_TARGETS]
    start = time.perf_counter()
    with multiprocessing.Pool(2) as pool:
        results = [r for _, r in pool.map(_experiment_run, jobs, chunksize=1)]
    elapsed = time.perf_counter() - start
    msis_rows = [row for row, _ in results[:n]]
    histories = [history for _, history in results[:n]]
    singles = iter(results[n:])
    single_rows = [{t: next(singles) for t in GB_TARGETS} for _ in range(n)]
    return msis_rows, single_rows, histories, elapsed


def test_criterion_5_bias_remediation(bias_experiment):
    msis_rows, single_rows, _, elapsed = bias_experiment
    msis_mean = float(np.mean([np.mean(list(r.values())) for r in msis_rows]))
    single_mean = float(np.mean([np.mean(list(r.values())) for r in single_rows]))
    margin = msis_mean - single_mean
    _verdict("criterion 5 (bias remediation)",
             margin >= 0.005 and elapsed < 600.0,
             f"full-population mean GB AUC {msis_mean:.4f} (staged) vs "
             f"{single_mean:.4f} (single-task on accepted-and-drawn), margin "
             f"{margin:+.4f} (need >= 0.005), experiment {elapsed:.0f}s "
             f"(budget 600s)")


def test_criterion_6_ablation_direction(bias_experiment):
    """Every variant must lose to the full model on at least 3 of 5 seeds.
    Once a variant has lost on 3 seeds the verdict is settled, so the
    remaining runs are not trained."""
    full_means = [np.mean(list(r.values())) for r in bias_experiment[0]]
    n = len(ACCEPT_SEEDS)
    wins = {}
    settled_by = None
    with multiprocessing.Pool(2) as pool:  # exiting terminates unneeded runs
        for variant in ABLATIONS:
            jobs = [(variant.value, si, None) for si in range(n)]
            won = lost = 0
            # in seed order, so the early stop and its report do not depend
            # on which worker finishes first
            for si, row in pool.imap(_experiment_run, jobs):
                if full_means[si] >= np.mean(list(row.values())):
                    won += 1
                else:
                    lost += 1
                if n - lost < ABLATION_WINS_NEEDED:
                    break
            wins[variant.value] = (won, won + lost)
            if n - lost < ABLATION_WINS_NEEDED:
                settled_by = variant.value
                break
    detail = ", ".join(f"{k} {w}/{d}" + ("" if d == n else " seeds run")
                       for k, (w, d) in wins.items())
    if settled_by is not None:
        detail += (f"; {settled_by} can no longer reach {ABLATION_WINS_NEEDED}/{n},"
                   " later variants not run")
    _verdict("criterion 6 (ablation direction)",
             settled_by is None and all(w >= ABLATION_WINS_NEEDED
                                        for w, _ in wins.values()),
             "full >= variant (mean full-population GB AUC, per seed): "
             + detail + f" (need {ABLATION_WINS_NEEDED}/{n})")


def test_criterion_7_entropy_minimization(bias_experiment):
    histories = bias_experiment[2]
    per_seed = []
    for history in histories:
        first = history.epochs[0].unlabeled_entropy
        best = history.best_record().unlabeled_entropy
        per_seed.append(all(
            best[t] <= 0.9 * first[t] for t in GB_TARGETS if first[t] > 0))
    count = sum(per_seed)
    _verdict("criterion 7 (entropy minimization effect)",
             count >= 4,
             f"unlabeled-entropy drop >= 10% per GB target on {count}/5 seeds "
             f"(need 4/5); per-seed {per_seed}")


# ---------------------------------------------------------------------------
# criterion 8: reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "sim": {"n": 600, "seed": 11},
        "train": {"epochs": 2, "patience": 1, "batch_size": 128, "seeds": [0, 1]},
    }))
    digests = []
    for attempt in ("a", "b"):
        data = tmp_path / f"data-{attempt}"
        run = tmp_path / f"run-{attempt}"
        out = tmp_path / f"eval-{attempt}"
        assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(run)]) == 0
        assert cli.main(["evaluate", "--config", str(config), "--data", str(data),
                         "--run", str(run), "--scope", "full", "--out", str(out)]) == 0
        digests.append({
            "dataset": (data / "dataset.csv").read_bytes(),
            "counterfactuals": (data / "counterfactuals.csv").read_bytes(),
            "log0": (run / "train-log-msis-seed0.csv").read_bytes(),
            "log1": (run / "train-log-msis-seed1.csv").read_bytes(),
            "rows": (out / "metrics-runs-msis-full.csv").read_bytes(),
            "report": (out / "metrics-report-msis-full.csv").read_bytes(),
        })
    same = {k: digests[0][k] == digests[1][k] for k in digests[0]}
    _verdict("criterion 8 (reproducibility)", all(same.values()),
             "byte-identical artifacts across repeated runs: " + str(same))
