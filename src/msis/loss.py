"""Training objective: masked supervised cross-entropy per target, an
entropy penalty on unlabeled rows, and the stage-weighted total.

The whole objective is one weighted sum over the (n_targets, batch)
matrix of probabilities that the forward pass stacks: each labeled row
weights log p and log(1-p) by its label, each unlabeled row weights the
binary entropy, and every normalizer (labeled count, gamma, unlabeled
reduction, targets per stage, stage weight) is folded into the weights.
`loss_weights` builds them for a whole epoch's batches in one pass, each
batch normalized by its own counts, so the graph's shapes depend on the
batch size alone, never on its label pattern. Labels are zeroed
wherever their mask is not set: the NaN poison behind a zero mask never
reaches a product, so it cannot leak into a gradient, while a NaN under
a set mask raises ContractError. On the tape, for every config,
the sum is one `numerics.bernoulli_loglik` node, which sums its own
terms into the (1, 1) root; the gradient check's value-only loss
(`make_fast_loss_value_fn`) sums that op's value function over the fused
forward's probabilities, as the node does.

The entropy term reads probabilities alone: pushing unlabeled predictions
away from 0.5 is what lets the selection-censored stages say something
about the rows they never got labels for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import numerics as nm
from .dataset import DEFAULT_STAGES, TARGET_INDEX, TARGETS, Batch
from .config import ReadOnlyDict
from .errors import ConfigError, ContractError
from .model import MsisConfig, make_fused_forward
from .numerics import Node

DEFAULT_GAMMA = 6e-4


def default_gammas(gamma: float = DEFAULT_GAMMA) -> dict[str, float]:
    """gamma for every target but credit, which carries no entropy weight."""
    return {t: 0.0 if t == "credit" else gamma for t in TARGETS}


@dataclass(frozen=True)
class LossConfig:
    stage_weights: dict[str, float] = field(
        default_factory=lambda: {"ar": 1.0, "ws": 1.0, "gb": 1.0})
    gammas: dict[str, float] = field(default_factory=default_gammas)
    unlabeled_reduction: str = "mean"  # or "sum"

    def __post_init__(self) -> None:
        # its own read-only copies: no edit, through the caller's dicts or
        # through the config's, can unmake what is checked below
        object.__setattr__(self, "stage_weights", ReadOnlyDict(self.stage_weights))
        object.__setattr__(self, "gammas", ReadOnlyDict(self.gammas))
        unknown = sorted(set(self.gammas) - set(TARGETS))
        if unknown:
            raise ConfigError(f"gammas for unknown targets {unknown}; must be among {TARGETS}")
        stages = tuple(name for name, _ in DEFAULT_STAGES)
        unknown = sorted(set(self.stage_weights) - set(stages))
        if unknown:
            raise ConfigError(f"stage_weights for unknown stages {unknown}; "
                              f"must be among {stages}")
        if any(w < 0 for w in self.stage_weights.values()):
            raise ConfigError("stage weights must be non-negative")
        if any(g < 0 for g in self.gammas.values()):
            raise ConfigError("semi-supervised weights must be non-negative")
        if self.unlabeled_reduction not in ("sum", "mean"):
            raise ConfigError(
                f"unlabeled_reduction must be sum or mean, got {self.unlabeled_reduction!r}")

    def gamma(self, target: str) -> float:
        return self.gammas.get(target, 0.0)

    def stage_weight(self, stage: str) -> float:
        try:
            return self.stage_weights[stage]
        except KeyError:
            raise ConfigError(f"no stage weight configured for stage {stage!r}") from None

    def supervised_only(self) -> "LossConfig":
        return replace(self, gammas={t: 0.0 for t in self.gammas})


@dataclass
class LossBreakdown:
    """A batch's loss: the tape's (1, 1) root, which is its one
    bernoulli_loglik node (`total`), the arrays that node reads
    (`weights`), the stacked probabilities `probs`, and 1 - p, log p and
    log(1 - p) of them (`logs`), which the node writes on every run and its
    backward reads. A replay of the tape on another batch of the same rows
    copies that batch's folded weights into `weights` and rewrites `logs`."""

    total: Node
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    probs: Node
    logs: tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# per-row weights
# ---------------------------------------------------------------------------

@dataclass
class LossWeights:
    """Per-row weights of one batch's loss terms.

    pos, neg and unl are (n_targets, batch), targets in stage order as in
    the forward pass's stacked probabilities: the label on labeled rows,
    one minus it, and one on unlabeled rows, each zero elsewhere. A
    target's supervised loss is
    -sum(pos log p + neg log(1-p)) / max(labeled, 1) and its entropy term
    -sum(unl (p log p + (1-p) log(1-p))) / ent_div. sup and ent are the
    (n_targets, 1) factors that fold every normalizer into them."""

    pos: np.ndarray
    neg: np.ndarray
    unl: np.ndarray
    labeled: np.ndarray      # (n_targets,) row counts
    ent_div: np.ndarray      # (n_targets,) unlabeled count for "mean", 1 for "sum"
    sup: np.ndarray
    ent: np.ndarray

    def folded(self, out=(None, None, None)) -> tuple[np.ndarray, ...]:
        """Weights of log p, log(1-p) and p log p + (1-p) log(1-p) whose
        weighted sum is the stage-weighted total, written into `out` when
        given. The scalar factors are combined in the order the chain rule
        combines them through a sum of per-target means, which keeps
        training gradients bit-identical to that formulation."""
        return tuple(np.multiply(w, f, out=o) for w, f, o in
                     zip((self.pos, self.neg, self.unl), (self.sup, self.sup, self.ent), out))


def loss_weights(batches: Sequence[Batch], config: LossConfig,
                 stages: tuple[tuple[str, tuple[str, ...]], ...]) -> list[LossWeights]:
    """The loss weights of each of a run of non-empty batches, such as an
    epoch's. They are built in one pass over all the rows, each batch's
    counts normalizing its own rows, and each batch's arrays are views of
    that pass's. Raises ContractError on a non-finite label under a set
    mask."""
    targets = tuple(t for _, stage_targets in stages for t in stage_targets)
    rows = [TARGET_INDEX[t] for t in targets]
    bounds = np.cumsum([0] + [len(batch) for batch in batches])
    masks = np.concatenate([batch.mask_matrix[rows] for batch in batches], axis=1)
    obs, unobs = masks == 1.0, masks == 0.0
    y = np.concatenate([batch.label_matrix[rows] for batch in batches], axis=1)
    np.copyto(y, 0.0, where=~obs)
    if not np.isfinite(y).all():
        bad = [t for t, ok in zip(targets, np.isfinite(y).all(axis=1)) if not ok]
        raise ContractError(f"poisoned label consumed for targets {bad}")
    # (n_targets, n_batches) counts and factors
    labeled = np.add.reduceat(obs, bounds[:-1], axis=1, dtype=np.int64)
    unlabeled = np.add.reduceat(unobs, bounds[:-1], axis=1, dtype=np.int64)
    ent_div = (np.maximum(unlabeled, 1.0) if config.unlabeled_reduction == "mean"
               else np.ones(labeled.shape))
    stage_coef = np.array([[(1.0 / len(stage_targets)) * config.stage_weight(sname)]
                           for sname, stage_targets in stages for _ in stage_targets])
    gamma = np.array([[config.gamma(t)] for t in targets])
    sup = -stage_coef / np.maximum(labeled, 1)
    ent = -(stage_coef * gamma) / ent_div
    neg = np.subtract(1.0, y, out=masks)  # the masks are spent: their buffer is reused
    np.copyto(neg, 0.0, where=~obs)
    unl = unobs.astype(np.float64)
    return [LossWeights(y[:, a:b], neg[:, a:b], unl[:, a:b], labeled[:, i], ent_div[:, i],
                        sup[:, i:i + 1], ent[:, i:i + 1])
            for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


# ---------------------------------------------------------------------------
# tape loss
# ---------------------------------------------------------------------------

def total_loss(result, batch: Batch, config: LossConfig,
               stages: tuple[tuple[str, tuple[str, ...]], ...]) -> LossBreakdown:
    """Per target: supervised + gamma * entropy; targets average within their
    stage; stages combine under the configured weights. Reads the forward
    result's stacked (n_targets, batch) probabilities."""
    weights = loss_weights([batch], config, stages)[0].folded()
    p = result.stacked
    total, logs = nm.bernoulli_loglik(p, *weights)
    return LossBreakdown(total, weights, p, logs)


def target_terms(w: LossWeights, loss: LossBreakdown) -> tuple[np.ndarray, np.ndarray]:
    """Per target, the supervised loss and the entropy term of one batch,
    as (n_targets,) arrays, outside the tape: from the loss's stacked
    probabilities and the logs its node kept on its last run."""
    p = loss.probs.value
    q, log_p, log_q = loss.logs
    supervised = -(w.pos * log_p + w.neg * log_q).sum(axis=1) / np.maximum(w.labeled, 1)
    entropy = -(w.unl * (p * log_p + q * log_q)).sum(axis=1) / w.ent_div
    return supervised, entropy


# ---------------------------------------------------------------------------
# value-only loss (finite differences)
# ---------------------------------------------------------------------------

def make_fast_loss_value_fn(params, model_cfg: MsisConfig, loss_cfg: LossConfig,
                            batch: Batch):
    """Build a scalar evaluator of the total loss at the current parameter
    values: the store's fused evaluator for the batch (make_fused_forward),
    then the value function of total_loss's one op over its output, summed
    as that op sums it.

    Each call copies the batch's features in again and reruns the forward,
    because the evaluator is the store's one for the batch's row count,
    which a predict_probs call of that many rows may run on other features
    between two calls. The value is total_loss's on the fused
    probabilities bit for bit, and agrees with the tape total to float
    rounding (tested at 1e-12 relative). Gradient checking over every
    scalar of the default model needs roughly a hundred thousand loss
    evaluations; this is the path that makes that affordable."""
    run = make_fused_forward(params, model_cfg, batch.features)
    weights = loss_weights([batch], loss_cfg, model_cfg.stages)[0].folded()

    def value() -> float:
        return float(nm.bernoulli_loglik_value(run(), *weights).sum())

    return value
