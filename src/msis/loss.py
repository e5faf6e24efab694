"""Training objective: masked supervised cross-entropy per target, an
entropy penalty on unlabeled rows, and the stage-weighted total.

The whole objective is one weighted sum over the (n_targets, batch)
matrix of probabilities that the forward pass stacks: each labeled row
weights log p and log(1-p) by its label, each unlabeled row weights the
binary entropy, and every normalizer (labeled count, gamma, unlabeled
reduction, targets per stage, stage weight) is folded into the weights.
`loss_weights` builds them once per batch, so the graph's shapes depend
on the batch size alone, never on its label pattern. Labels enter
through np.where(mask, labels, 0): the NaN poison behind a zero mask
never reaches a product, so it cannot leak into a gradient, while a NaN
under a set mask raises ContractError. The gradient check's value-only
loss (`make_fast_loss_value_fn`) is this same graph, replayed over the
fused forward's probabilities.

The entropy term reads probabilities alone: pushing unlabeled predictions
away from 0.5 is what lets the selection-censored stages say something
about the rows they never got labels for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .dataset import DEFAULT_STAGES, TARGET_INDEX, TARGETS, Batch
from .errors import ConfigError, ContractError
from .model import ForwardResult, MsisConfig, make_fused_forward
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

    def validate(self) -> None:
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
        return LossConfig(dict(self.stage_weights), {t: 0.0 for t in self.gammas},
                          self.unlabeled_reduction)


@dataclass
class TargetLoss:
    supervised: float
    entropy: float
    labeled: int
    unlabeled: int


@dataclass
class LossBreakdown:
    """A batch's loss: the per-target numbers of the training log and the
    tape's (1, 1) root. A replay of the tape on another batch of the same
    rows copies that batch's folded weights into `weights`, the arrays
    the tape's mul_const ops read, and takes the per-target numbers from
    the replayed `probs`: the nodes of p, log p, 1 - p and log(1 - p)."""

    per_target: dict[str, TargetLoss]
    total: Node
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    probs: tuple[Node, Node, Node, Node]


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
    -sum(unl (p log p + (1-p) log(1-p))) / ent_div."""

    targets: tuple[str, ...]
    pos: np.ndarray
    neg: np.ndarray
    unl: np.ndarray
    labeled: np.ndarray      # (n_targets,) row counts
    unlabeled: np.ndarray
    ent_div: np.ndarray      # (n_targets,) unlabeled count for "mean", 1 for "sum"
    gamma: np.ndarray
    stage_coef: np.ndarray   # stage weight / targets in the stage

    def folded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights of log p, log(1-p) and p log p + (1-p) log(1-p) whose
        weighted sum is the stage-weighted total. The scalar factors are
        combined in the order the chain rule combines them through a sum of
        per-target means, which keeps training gradients bit-identical to
        that formulation."""
        sup = (-self.stage_coef / np.maximum(self.labeled, 1))[:, None]
        ent = (-(self.stage_coef * self.gamma) / self.ent_div)[:, None]
        return self.pos * sup, self.neg * sup, self.unl * ent

    @property
    def needs_entropy(self) -> bool:
        return bool((self.gamma * self.stage_coef).any())


def loss_weights(batch: Batch, config: LossConfig,
                 stages: tuple[tuple[str, tuple[str, ...]], ...]) -> LossWeights:
    """The loss weights of one batch; raises ContractError on a non-finite
    label under a set mask."""
    config.validate()
    targets = tuple(t for _, stage_targets in stages for t in stage_targets)
    rows = [TARGET_INDEX[t] for t in targets]
    masks = batch.mask_matrix[rows]
    obs, unobs = masks == 1.0, masks == 0.0
    y = np.where(obs, batch.label_matrix[rows], 0.0)
    if not np.isfinite(y).all():
        bad = [t for t, ok in zip(targets, np.isfinite(y).all(axis=1)) if not ok]
        raise ContractError(f"poisoned label consumed for targets {bad}")
    labeled, unlabeled = obs.sum(axis=1), unobs.sum(axis=1)
    ent_div = (np.maximum(unlabeled, 1.0) if config.unlabeled_reduction == "mean"
               else np.ones(len(targets)))
    stage_coef = np.array([(1.0 / len(stage_targets)) * config.stage_weight(sname)
                           for sname, stage_targets in stages for _ in stage_targets])
    gamma = np.array([config.gamma(t) for t in targets])
    return LossWeights(targets, y, np.where(obs, 1.0 - y, 0.0), unobs.astype(np.float64),
                       labeled, unlabeled, ent_div, gamma, stage_coef)


# ---------------------------------------------------------------------------
# tape loss
# ---------------------------------------------------------------------------

def total_loss(result, batch: Batch, config: LossConfig,
               stages: tuple[tuple[str, tuple[str, ...]], ...]) -> LossBreakdown:
    """Per target: supervised + gamma * entropy; targets average within their
    stage; stages combine under the configured weights. Reads the forward
    result's stacked (n_targets, batch) probabilities."""
    w = loss_weights(batch, config, stages)
    weights = w_p, w_q, w_ent = w.folded()
    p = result.stacked
    q = nm.affine(p, -1.0, 1.0)
    log_p, log_q = nm.log(p), nm.log(q)
    terms = nm.add(nm.mul_const(log_p, w_p), nm.mul_const(log_q, w_q))
    if w.needs_entropy:
        h = nm.add(nm.mul(p, log_p), nm.mul(q, log_q))
        terms = nm.add(terms, nm.mul_const(h, w_ent))
    probs = (p, log_p, q, log_q)
    return LossBreakdown(per_target_losses(w, probs), nm.sum_all(terms), weights, probs)


def per_target_losses(w: LossWeights, probs: tuple[Node, Node, Node, Node]
                      ) -> dict[str, TargetLoss]:
    """The training log's per-target numbers, from the values of the
    tape's p, log p, 1 - p and log(1 - p) nodes, outside the tape."""
    p, log_p, q, log_q = (node.value for node in probs)
    supervised = -(w.pos * log_p + w.neg * log_q).sum(axis=1) / np.maximum(w.labeled, 1)
    entropy = -(w.unl * (p * log_p + q * log_q)).sum(axis=1) / w.ent_div
    return {t: TargetLoss(float(supervised[i]), float(entropy[i]),
                          int(w.labeled[i]), int(w.unlabeled[i]))
            for i, t in enumerate(w.targets)}


# ---------------------------------------------------------------------------
# value-only loss (finite differences)
# ---------------------------------------------------------------------------

def make_fast_loss_value_fn(params, model_cfg: MsisConfig, loss_cfg: LossConfig,
                            batch: Batch):
    """Build a scalar evaluator of the total loss at the current parameter
    values: the store's fused evaluator for the batch (make_fused_forward),
    then total_loss, recorded once over a leaf that holds the evaluator's
    output and replayed on every call.

    Each call copies the batch's features in again and reruns the forward,
    because the evaluator shares the store's scratch with its others,
    which predict_probs may run between two calls. The value is
    total_loss's on the fused probabilities bit for bit, and agrees with
    the tape total to float rounding (tested at 1e-12 relative). Gradient
    checking over every scalar of the default model needs roughly a
    hundred thousand loss evaluations; this is the path that makes that
    affordable."""
    run = make_fused_forward(params, model_cfg, batch.features)
    probs = nm.constant(run())
    total = total_loss(ForwardResult({}, {}, probs), batch, loss_cfg, model_cfg.stages).total
    order = nm.record(total)

    def value() -> float:
        probs.value[...] = run()
        nm.replay(order)
        return float(total.value[0, 0])

    return value
