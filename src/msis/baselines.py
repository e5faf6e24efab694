"""Reference competitors sharing the full pipeline: a per-label MLP trained
on the labeled subset only, the same MLP with the entropy penalty over
unlabeled rows, and the corridor-free flat multi-task network.

Everything except the model/loss wiring (splits, standardization, seeds,
optimizer, early stopping, scoring) is identical to the staged model's
protocol, so measured gaps are attributable to the method.
"""

from __future__ import annotations

import dataclasses
from enum import Enum

import numpy as np

from .dataset import Splits, make_batch
from .errors import ConfigError
from .loss import DEFAULT_GAMMA, LossConfig
from .model import DEFAULT_STAGES, MsisConfig
from .numerics import ParamStore
from .trainer import TrainConfig, TrainHistory, train_run

GB_TARGETS = DEFAULT_STAGES[-1][1]

# hidden widths sized so the single-task MLP lands within 10% of the
# default staged model's 10822 trainable scalars (32->120->60->1 = 11281)
SINGLE_TASK_WIDTHS = (120, 60)


class BaselineKind(str, Enum):
    SINGLE_TASK = "single_task"
    SINGLE_TASK_ENTROPY = "single_task_entropy"
    FLAT_MULTITASK = "flat_multitask"


def baseline_kind(name: str) -> BaselineKind:
    try:
        return BaselineKind(name)
    except ValueError:
        raise ConfigError(f"unknown model {name!r}; must be msis or one of "
                          f"{[k.value for k in BaselineKind]}") from None


def baseline_model_config(kind: BaselineKind, target: str | None = None,
                          base: MsisConfig | None = None) -> MsisConfig:
    kind = baseline_kind(kind)
    base = base or MsisConfig()
    if kind is BaselineKind.FLAT_MULTITASK:
        return dataclasses.replace(base, corridor_enabled=False)
    if target not in GB_TARGETS:
        raise ConfigError(
            f"single-task baselines take exactly one repayment target, got {target!r}")
    return MsisConfig(input_dim=base.input_dim, shared_widths=SINGLE_TASK_WIDTHS,
                      tower_widths=(), corridor_dim=base.corridor_dim,
                      stages=(("gb", (target,)),), corridor_enabled=False)


def train_baseline(kind: BaselineKind, target: str | None, splits: Splits,
                   train_cfg: TrainConfig, seed: int,
                   gamma: float = DEFAULT_GAMMA,
                   unlabeled_reduction: str = "mean",
                   base: MsisConfig | None = None,
                   loss_cfg: LossConfig | None = None,
                   ) -> tuple[ParamStore, TrainHistory, MsisConfig]:
    """Train one baseline under the staged model's exact protocol.

    The plain single-task model sees only rows where its label was
    observed; the entropy variant additionally feeds unlabeled rows to the
    regularizer (with gamma zero it degenerates to the plain one, batch
    for batch)."""
    kind = baseline_kind(kind)
    model_cfg = baseline_model_config(kind, target, base)
    if kind is BaselineKind.FLAT_MULTITASK:
        lcfg = loss_cfg or LossConfig()
        return (*train_run(model_cfg, lcfg, train_cfg, splits, seed), model_cfg)

    train = splits.train
    labeled = np.flatnonzero(train.masks[target] == 1.0)
    if not labeled.size:
        raise ConfigError(f"no training rows carry an observed {target!r} label")
    effective_gamma = gamma if kind is BaselineKind.SINGLE_TASK_ENTROPY else 0.0
    # unlabeled rows only join when the entropy term can read them
    if effective_gamma <= 0.0:
        train = make_batch(train, labeled)
    lcfg = LossConfig(stage_weights={"gb": 1.0}, gammas={target: effective_gamma},
                      unlabeled_reduction=unlabeled_reduction)
    subset = Splits(train, splits.validation, splits.test)
    params, history = train_run(model_cfg, lcfg, train_cfg, subset, seed)
    return params, history, model_cfg
