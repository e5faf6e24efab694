"""Example storage, out-of-time splitting, standardization, and batching.

The CSV interchange schema is
``id,timestamp,f0..f{d-1},label_credit,label_draw_30,label_draw_90,label_mob1,label_mob3,label_mob6``
with finite features and labels in {0, 1, empty}; an empty field means
the label was never observed for that application. Unobserved labels are
carried through batches as NaN behind a zero mask so that any code path
consuming one trips immediately instead of training on garbage.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError

# the funnel's stages in order, each with the targets it decides
DEFAULT_STAGES = (
    ("ar", ("credit",)),
    ("ws", ("draw_30", "draw_90")),
    ("gb", ("mob1", "mob3", "mob6")),
)
TARGETS = tuple(t for _, targets in DEFAULT_STAGES for t in targets)
LABEL_COLUMNS = tuple("label_" + t for t in TARGETS)

STD_FLOOR = 1e-8


@dataclass
class Example:
    """One credit application: features plus six optional labels."""

    id: int
    timestamp: int
    features: np.ndarray
    labels: dict[str, bool | None]

    def __post_init__(self):
        if self.labels.get("credit") is None:
            raise ContractError(f"example {self.id}: credit label must be observed")


def feature_dim(examples: list[Example]) -> int:
    return len(examples[0].features)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _header(d: int) -> list[str]:
    return ["id", "timestamp"] + [f"f{i}" for i in range(d)] + list(LABEL_COLUMNS)


def save_csv(examples: list[Example], path: str | Path) -> None:
    d = feature_dim(examples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(d))
        for ex in examples:
            row = [str(ex.id), str(ex.timestamp)]
            row += [repr(float(v)) for v in ex.features]
            for t in TARGETS:
                v = ex.labels[t]
                row.append("" if v is None else str(int(v)))
            writer.writerow(row)


def load_csv(path: str | Path) -> list[Example]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        d = len(header) - 2 - len(LABEL_COLUMNS)
        if d < 1 or header != _header(d):
            raise ParseError(f"{path}, line 1: header does not match schema")
        examples = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                ex_id = int(row[0])
                ts = int(row[1])
                feats = np.array([float(v) for v in row[2:2 + d]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from None
            labels: dict[str, bool | None] = {}
            for t, raw in zip(TARGETS, row[2 + d:]):
                if raw == "":
                    labels[t] = None
                elif raw in ("0", "1"):
                    labels[t] = bool(int(raw))
                else:
                    raise ParseError(
                        f"{path}, line {lineno}: label_{t} must be 0, 1 or empty, got {raw!r}")
            if labels["credit"] is None:
                raise ParseError(f"{path}, line {lineno}: label_credit is absent")
            examples.append(Example(ex_id, ts, feats, labels))
    # checked in one pass: a NumPy call per row adds about 10% to parsing
    features = np.array([ex.features for ex in examples]).reshape(-1, d)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}, line {bad[0] + 2}: features must be finite")
    return examples


# ---------------------------------------------------------------------------
# out-of-time split
# ---------------------------------------------------------------------------

@dataclass
class Splits:
    train: list[Example]
    validation: list[Example]
    test: list[Example]


def split_oot(examples: list[Example], cutoff_timestamp: int, seed: int = 0) -> Splits:
    """Test = everything at or past the cutoff; the rest splits 80/20 into
    train/validation by seeded shuffle."""
    test = [ex for ex in examples if ex.timestamp >= cutoff_timestamp]
    pre = [ex for ex in examples if ex.timestamp < cutoff_timestamp]
    if not test:
        raise ConfigError(f"cutoff {cutoff_timestamp} leaves the test split empty")
    if not pre:
        raise ConfigError(f"cutoff {cutoff_timestamp} leaves the training split empty")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pre))
    n_train = int(len(pre) * 0.8)
    if n_train == 0:
        raise ConfigError(f"cutoff {cutoff_timestamp} leaves the training split empty")
    train = [pre[i] for i in order[:n_train]]
    validation = [pre[i] for i in order[n_train:]]
    return Splits(train, validation, test)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass
class Standardizer:
    """Per-feature mean/std fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train: list[Example]) -> "Standardizer":
        if not train:
            raise ConfigError("cannot fit a standardizer on an empty training split")
        x = np.stack([ex.features for ex in train])
        std = x.std(axis=0)
        return cls(x.mean(axis=0), np.maximum(std, STD_FLOOR))

    def apply(self, examples: list[Example]) -> list[Example]:
        return [Example(ex.id, ex.timestamp, (ex.features - self.mean) / self.std,
                        dict(ex.labels)) for ex in examples]

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump({"mean": self.mean.tolist(), "std": self.std.tolist()}, fh)

    @classmethod
    def from_json(cls, path: str | Path) -> "Standardizer":
        with open(path) as fh:
            obj = json.load(fh)
        return cls(np.array(obj["mean"], dtype=np.float64),
                   np.array(obj["std"], dtype=np.float64))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """A mini-batch with one label/mask pair per target.

    Labels are NaN wherever the mask is zero; consumers must go through
    observed()/unobserved_idx() rather than reading the raw label arrays.
    """

    features: np.ndarray
    labels: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    masks: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def __len__(self) -> int:
        return self.features.shape[0]

    def observed(self, target: str) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, label values) where this target was observed."""
        idx = np.flatnonzero(self.masks[target] == 1.0)
        y = self.labels[target][idx]
        if not np.isfinite(y).all():
            raise ContractError(f"poisoned label consumed for target {target!r}")
        return idx, y

    def unobserved_idx(self, target: str) -> np.ndarray:
        return np.flatnonzero(self.masks[target] == 0.0)


def make_batch(examples: list[Example]) -> Batch:
    n = len(examples)
    features = np.ascontiguousarray(np.stack([ex.features for ex in examples]))
    labels = {}
    masks = {}
    for t in TARGETS:
        y = np.full(n, np.nan)
        m = np.zeros(n)
        for i, ex in enumerate(examples):
            v = ex.labels[t]
            if v is not None:
                y[i] = float(v)
                m[i] = 1.0
        labels[t] = y
        masks[t] = m
    return Batch(features, labels, masks)


def batches(examples: list[Example], batch_size: int, seed: int,
            epoch: int = 0) -> list[Batch]:
    """One epoch of shuffled mini-batches; order is a pure function of
    (seed, epoch) and every example appears exactly once."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(examples))
    out = []
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start:start + batch_size]]
        out.append(make_batch(chunk))
    return out


def covering_batch(examples: list[Example], size: int, seed: int) -> Batch:
    """A seeded batch of `size` distinct rows that holds, for every target,
    at least one labeled and one unlabeled row wherever `examples` has one.

    Rows are taken in the order of one seeded permutation: first, for each
    (target, labeled or unlabeled) class the batch still lacks, the earliest
    row of that class; then the earliest rows not yet taken, until the
    batch is full. Without the first step this is a uniform draw, and a
    uniform draw of 64 rows often holds no labeled mob6 row at all (few
    applicants are accepted, draw and reach month six), so a gradient check
    on it never exercises that target's supervised term."""
    if not 0 < size <= len(examples):
        raise ConfigError(f"batch size must lie in [1, {len(examples)}], got {size}")
    order = np.random.default_rng(seed).permutation(len(examples))
    labeled = np.array([[ex.labels[t] is not None for t in TARGETS] for ex in examples])
    chosen: list[int] = []
    for j in range(len(TARGETS)):
        for want in (True, False):
            if not (labeled[chosen, j] == want).any():
                hits = order[labeled[order, j] == want]
                chosen.extend(hits[:1].tolist())
    if len(chosen) > size:
        raise ConfigError(
            f"{size} rows cannot hold a labeled and an unlabeled row of every target; "
            f"{len(chosen)} are needed")
    taken = set(chosen)
    chosen += [int(i) for i in order if i not in taken][:size - len(chosen)]
    return make_batch([examples[i] for i in chosen])
