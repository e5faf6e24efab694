"""Mini-batch training with adaptive moments and validation-based early
stopping, one seeded run at a time.

A run is bitwise reproducible from (configs, seed): the seed fixes the
parameter draw, every epoch's shuffle, and nothing else is random. The
reported model is the checkpoint of the best validation epoch, scored by
the mean AUC of the final stage's targets.

A step's tape depends on the batch's row count alone, so a run builds it
(`model.forward`, `loss.total_loss`) once per row count, typically full
batches and one tail, and replays it in place on every later batch of
that count. A replay gives the bytes a freshly built tape would.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .dataset import Batch, Splits, batches
from .errors import ConfigError, TrainingDiverged
from .evaluation import try_auc
from .loss import LossBreakdown, LossConfig, LossWeights, loss_weights, target_terms, total_loss
from .model import MsisConfig, check_features, forward, init_params, predict_probs
from .numerics import ParamStore


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    patience: int = 5
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        # a beta of 1 zeroes Adam's bias correction, one above 1 grows the moments
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= beta < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {beta}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.patience < self.epochs:
            raise ConfigError(
                f"patience must lie in (0, epochs), got {self.patience} vs {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        # each seed names a run: its checkpoint file and its rows in the metrics
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")


class Adam:
    """Adaptive-moment updates over the store's flat parameter and gradient
    vectors: one step is the same five element-wise updates, applied once
    to the whole model, in place, so every view of the parameter vector
    (named tensors, stacked groups) stays live."""

    def __init__(self, params: ParamStore, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        # a store keeps its two vectors for life
        self._values, self._grads = params.values, params.grads
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)

    def step(self) -> None:
        self.t += 1
        cfg = self.cfg
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        g, m, v = self._grads, self._m, self._v
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        self._values -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    supervised: dict[str, float]
    entropy: dict[str, float]
    val_auc: dict[str, float | None]
    unlabeled_entropy: dict[str, float]


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    def best_record(self) -> EpochRecord:
        return self.epochs[self.best_epoch - 1]


class _Step:
    """One training step's tape, built on the first batch of its row count
    and replayed on every later one: the batch's features and folded loss
    weights (its slice of the epoch's, `loss.loss_weights`) are copied into
    the constants the tape owns, and its ops re-run in place over the same
    buffers."""

    def __init__(self, params: ParamStore, model_cfg: MsisConfig, loss_cfg: LossConfig,
                 batch: Batch):
        result = forward(params, model_cfg, batch.features)
        self.features = result.features.value
        self.loss: LossBreakdown = total_loss(result, batch, loss_cfg, model_cfg.stages)
        self.order = nm.record(self.loss.total)

    def replay(self, batch: Batch, weights: LossWeights) -> None:
        np.copyto(self.features, batch.features)
        weights.folded(out=self.loss.weights)
        nm.replay(self.order)


def _mean_entropy(probs: np.ndarray) -> float:
    # the loss op's value under the entropy weight alone is -H(p)
    return float(-nm.bernoulli_loglik_value(probs, 0.0, 0.0, 1.0).mean()) if probs.size else 0.0


def _epoch_diagnostics(params, model_cfg, train_eval: Batch,
                       val_eval: Batch | None) -> tuple[dict, dict]:
    val_auc: dict[str, float | None] = {}
    if val_eval is not None:
        val_probs = predict_probs(params, model_cfg, val_eval.features)
        for t in model_cfg.all_targets():
            idx, y = val_eval.observed(t)
            val_auc[t] = try_auc(val_probs[t][idx], y) if idx.size else None
    train_probs = predict_probs(params, model_cfg, train_eval.features)
    unlabeled_entropy = {
        t: _mean_entropy(train_probs[t][train_eval.unobserved_idx(t)])
        for t in model_cfg.all_targets()}
    return val_auc, unlabeled_entropy


def train_run(model_cfg: MsisConfig, loss_cfg: LossConfig, train_cfg: TrainConfig,
              splits: Splits, seed: int) -> tuple[ParamStore, TrainHistory]:
    # checked once, here: every batch is a take of the training rows
    check_features(model_cfg, splits.train.features)
    val_eval = splits.validation if len(splits.validation) else None
    if val_eval is not None:
        check_features(model_cfg, val_eval.features)
    params = init_params(model_cfg, seed)
    optimizer = Adam(params, train_cfg)
    targets = model_cfg.all_targets()
    final_targets = model_cfg.stages[-1][1]

    history = TrainHistory()
    steps: dict[int, _Step] = {}  # by batch rows
    best_metric = -math.inf
    best_values = params.values.copy()
    for epoch in range(1, train_cfg.epochs + 1):
        loss_sum = 0.0
        sup_sums, ent_sums = np.zeros(len(targets)), np.zeros(len(targets))
        epoch_batches = batches(splits.train, train_cfg.batch_size, seed, epoch)
        epoch_weights = loss_weights(epoch_batches, loss_cfg, model_cfg.stages)
        # a diverging step overflows inside NumPy: TrainingDiverged reports the
        # non-finite loss in place of NumPy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for bi, (batch, weights) in enumerate(zip(epoch_batches, epoch_weights)):
                step = steps.get(len(batch))
                if step is None:
                    step = steps[len(batch)] = _Step(params, model_cfg, loss_cfg, batch)
                else:
                    step.replay(batch, weights)
                breakdown = step.loss
                value = float(breakdown.total.value[0, 0])
                if not math.isfinite(value):
                    raise TrainingDiverged(epoch, bi, value)
                params.zero_adjoints()
                nm.backward_sweep(breakdown.total, step.order)
                optimizer.step()
                loss_sum += value
                supervised, entropy = target_terms(weights, breakdown)
                sup_sums += supervised
                ent_sums += entropy

        n_batches = len(epoch_batches)
        try:  # no loss check follows the epoch's last step
            with np.errstate(over="raise", invalid="raise"):
                if not np.isfinite(params.values).all():
                    raise FloatingPointError("non-finite parameters")
                val_auc, unlabeled_entropy = _epoch_diagnostics(
                    params, model_cfg, splits.train, val_eval)
        except FloatingPointError:
            raise TrainingDiverged(epoch, n_batches - 1, float(np.abs(params.values).max()),
                                   parameters=True) from None
        history.epochs.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n_batches,
            supervised={t: float(sup_sums[i] / n_batches) for i, t in enumerate(targets)},
            entropy={t: float(ent_sums[i] / n_batches) for i, t in enumerate(targets)},
            val_auc=val_auc,
            unlabeled_entropy=unlabeled_entropy))

        defined = [val_auc[t] for t in final_targets if val_auc.get(t) is not None]
        if not defined:
            defined = [v for v in val_auc.values() if v is not None]
        metric = float(np.mean(defined)) if defined else -loss_sum / n_batches
        if metric > best_metric:
            best_metric = metric
            history.best_epoch = epoch
            best_values[...] = params.values
        elif epoch - history.best_epoch >= train_cfg.patience:
            break
    params.values[...] = best_values
    return params, history


def write_history_csv(history: TrainHistory, path: str | Path) -> None:
    """One row per (epoch, target): loss terms, validation AUC, and the mean
    prediction entropy on unlabeled training rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "target", "supervised", "entropy", "val_auc",
                         "unlabeled_entropy", "best_epoch"])
        for rec in history.epochs:
            for t in rec.supervised:
                auc = rec.val_auc.get(t)
                writer.writerow([
                    rec.epoch, t, repr(rec.supervised[t]), repr(rec.entropy[t]),
                    "" if auc is None else repr(auc),
                    repr(rec.unlabeled_entropy[t]), history.best_epoch])
