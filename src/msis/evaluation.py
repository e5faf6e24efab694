"""Rank-based AUC, evaluation over observed or counterfactual labels,
mean/std reporting with gains, and the ablation runner.

Full-population scope is the measurement a real platform cannot make:
every through-the-door applicant is scored against the simulator's
counterfactual labels, rejected and silent ones included, so selection
bias shows up directly in the numbers rather than staying invisible
behind the missing labels. A scoring pass is one id lookup of those
labels, one `predict_probs` over the feature matrix, and the AUCs.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import Batch, Splits
from .errors import ConfigError
from .funnel_sim import Counterfactuals
from .loss import LossConfig
from .model import MsisConfig, predict_probs
from .numerics import ParamStore


class UndefinedMetricError(ValueError):
    """AUC is undefined without both a positive and a negative example."""


def auc(scores, labels) -> float:
    """Mann-Whitney AUC via average ranks, ties counted half.

    Equivalent to the O(n^2) pairwise comparison count; this form is
    O(n log n)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError(f"scores {scores.shape} and labels {labels.shape} "
                          "must be equal-length vectors")
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"need both classes, got {n_pos} positives and {n_neg} negatives")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def try_auc(scores, labels) -> float | None:
    """auc, with an absent result instead of an error on one-class input."""
    try:
        return auc(scores, labels)
    except UndefinedMetricError:
        return None


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

OBSERVED = "observed-only"
FULL_POPULATION = "full-population"


def evaluate(params: ParamStore, model_cfg: MsisConfig, batch: Batch,
             scope: str = OBSERVED, counterfactuals: Counterfactuals | None = None,
             ) -> dict[str, float | None]:
    """Per-target AUC of a trained model on (already standardized) rows.

    Observed-only scope masks each target to the rows a platform would
    have labels for; full-population scope scores every row against its
    counterfactual labels, looked up by id in the simulator sidecar."""
    if scope not in (OBSERVED, FULL_POPULATION):
        raise ConfigError(f"unknown scope {scope!r}")
    if scope == FULL_POPULATION and counterfactuals is None:
        raise ConfigError("full-population scope requires counterfactual labels")
    truth = counterfactuals.lookup(batch.ids) if scope == FULL_POPULATION else None
    probs = predict_probs(params, model_cfg, batch.features)
    out: dict[str, float | None] = {}
    for t in model_cfg.all_targets():
        if truth is None:
            idx, y = batch.observed(t)
            out[t] = try_auc(probs[t][idx], y) if idx.size else None
        else:
            out[t] = try_auc(probs[t], truth[t])
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class TargetMetrics:
    mean: float
    std: float
    n: int
    gain: float | None = None


@dataclass
class MetricsReport:
    scope: str
    per_target: dict[str, TargetMetrics]
    baseline_name: str | None = None

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target", "auc_mean", "auc_std", "runs", "gain",
                             "baseline", "scope"])
            for t, m in self.per_target.items():
                writer.writerow([t, repr(m.mean), repr(m.std), m.n,
                                 "" if m.gain is None else repr(m.gain),
                                 self.baseline_name or "", self.scope])

    def to_text(self) -> str:
        lines = [f"{'target':<10} {'auc mean':>10} {'std':>8} {'gain':>8}   "
                 f"({self.scope}"
                 + (f", gain vs {self.baseline_name})" if self.baseline_name else ")")]
        for t, m in self.per_target.items():
            gain = f"{m.gain:+.4f}" if m.gain is not None else "-"
            lines.append(f"{t:<10} {m.mean:>10.4f} {m.std:>8.4f} {gain:>8}")
        return "\n".join(lines)


def report(rows: list[dict[str, float | None]],
           baseline_rows: list[dict[str, float | None]] | None = None,
           baseline_name: str | None = None,
           scope: str = OBSERVED) -> MetricsReport:
    """Aggregate per-seed AUC rows: mean, sample (n-1) std, and the gain of
    the mean over a named baseline's mean."""
    if len(rows) < 2:
        raise ConfigError("report needs at least 2 runs")
    targets = [t for t in rows[0]]
    per_target = {}
    for t in targets:
        values = [r[t] for r in rows if r.get(t) is not None]
        if not values:
            continue
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        gain = None
        if baseline_rows is not None:
            base = [r[t] for r in baseline_rows if r.get(t) is not None]
            if base:
                gain = mean - float(np.mean(base))
        per_target[t] = TargetMetrics(mean, std, len(values), gain)
    return MetricsReport(scope, per_target, baseline_name)


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

class AblationVariant(str, Enum):
    FULL = "full"
    SINGLE_INTRA_TARGET = "single_intra_target"
    NO_SEMI_SUPERVISED = "no_semi_supervised"
    ONE_AUXILIARY_STAGE = "one_auxiliary_stage"
    NO_CORRIDOR = "no_corridor"


@dataclass
class VariantRun:
    model_cfg: MsisConfig
    loss_cfg: LossConfig
    scored_targets: tuple[str, ...]


def variant_runs(variant: AblationVariant, model_cfg: MsisConfig,
                 loss_cfg: LossConfig) -> list[VariantRun]:
    """Translate an ablation variant into the training runs it needs.

    Removing the intra-stage targets leaves one target per stage, so each
    final-stage label gets its own model (middle stages keep their last,
    longest-horizon target); the other variants are single runs."""
    variant = AblationVariant(variant)
    final_targets = model_cfg.stages[-1][1]
    if variant is AblationVariant.FULL:
        return [VariantRun(model_cfg, loss_cfg, final_targets)]
    if variant is AblationVariant.NO_SEMI_SUPERVISED:
        return [VariantRun(model_cfg, loss_cfg.supervised_only(), final_targets)]
    if variant is AblationVariant.NO_CORRIDOR:
        return [VariantRun(dataclasses.replace(model_cfg, corridor_enabled=False),
                           loss_cfg, final_targets)]
    if variant is AblationVariant.ONE_AUXILIARY_STAGE:
        stages = (model_cfg.stages[0], model_cfg.stages[-1])
        return [VariantRun(dataclasses.replace(model_cfg, stages=stages),
                           loss_cfg, final_targets)]
    runs = []
    for label in final_targets:
        stages = tuple(
            (sname, (label,) if si == len(model_cfg.stages) - 1 else (targets[-1],))
            for si, (sname, targets) in enumerate(model_cfg.stages))
        runs.append(VariantRun(dataclasses.replace(model_cfg, stages=stages),
                               loss_cfg, (label,)))
    return runs


@dataclass
class AblationResult:
    variant: AblationVariant
    rows: list[dict[str, float | None]]  # one row per seed, final-stage targets


def ablate(variant: AblationVariant, model_cfg: MsisConfig, loss_cfg: LossConfig,
           train_cfg, splits: Splits, test: Batch,
           counterfactuals: Counterfactuals | None = None,
           scope: str = FULL_POPULATION) -> AblationResult:
    """Train and evaluate one ablation variant under the identical protocol
    as the full model: same splits, seeds, optimizer, and scoring."""
    from .trainer import train_run  # deferred: trainer uses this module's AUC

    runs = variant_runs(variant, model_cfg, loss_cfg)
    rows: list[dict[str, float | None]] = [dict() for _ in train_cfg.seeds]
    for run in runs:
        for si, seed in enumerate(train_cfg.seeds):
            params, _ = train_run(run.model_cfg, run.loss_cfg, train_cfg, splits, seed)
            metrics = evaluate(params, run.model_cfg, test, scope, counterfactuals)
            for t in run.scored_targets:
                rows[si][t] = metrics[t]
    return AblationResult(AblationVariant(variant), rows)
