"""Row sets, CSV storage, out-of-time splitting, standardization, and
batching.

Rows are stored column-wise in one type, `Batch`, whether they make a
whole data set, a split or a mini-batch: ids and timestamps as int64
vectors, features as one C-contiguous (rows, d) float64 matrix, and the
six targets' labels and masks as (targets, rows) float matrices. An
unobserved label is NaN behind a zero mask, so that any code path
consuming one trips immediately instead of training on garbage.
`make_batch` takes rows of a Batch by index; `Example` is the view of one
row, and the unit to build a Batch from by hand.

The CSV interchange schema is
``id,timestamp,f0..f{d-1},label_credit,label_draw_30,label_draw_90,label_mob1,label_mob3,label_mob6``
with finite features and labels in {0, 1, empty}; an empty field means
the label was never observed for that application. `label_draw_30` and
`label_draw_90` mean "drew within `SimConfig.draw_horizons[0]` days" and
"within `draw_horizons[1]` days": the names keep the default horizons,
(30, 90). The horizons are part of the resolved config that a run's
manifest hashes (`config_sha256`).
"""

from __future__ import annotations

import csv
import json
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, ParseError

# the funnel's stages in order, each with the targets it decides
DEFAULT_STAGES = (
    ("ar", ("credit",)),
    ("ws", ("draw_30", "draw_90")),
    ("gb", ("mob1", "mob3", "mob6")),
)
TARGETS = tuple(t for _, targets in DEFAULT_STAGES for t in targets)
TARGET_INDEX = {t: j for j, t in enumerate(TARGETS)}
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


def by_target(matrix: np.ndarray) -> dict[str, np.ndarray]:
    """The rows of a (targets, rows) matrix by target name, as views."""
    return dict(zip(TARGETS, matrix))


@dataclass(eq=False)
class Batch:
    """Rows of credit applications, one array per column.

    `label_matrix` and `mask_matrix` hold one row per target in TARGETS
    order; `labels[t]` and `masks[t]` are views of a target's row. Labels
    are NaN wherever the mask is zero; consumers must go through
    observed()/unobserved_idx() rather than reading the raw label arrays.
    Indexing with an integer gives that row as an Example (its features a
    view), with a slice a Batch of its own."""

    ids: np.ndarray
    timestamps: np.ndarray
    features: np.ndarray
    label_matrix: np.ndarray = field(repr=False)
    mask_matrix: np.ndarray = field(repr=False)

    @classmethod
    def from_examples(cls, examples: Sequence[Example]) -> Batch:
        """The rows of `examples`, in order."""
        labels = [[ex.labels[t] for t in TARGETS] for ex in examples]
        return cls(np.array([ex.id for ex in examples], dtype=np.int64),
                   np.array([ex.timestamp for ex in examples], dtype=np.int64),
                   np.ascontiguousarray(np.stack([ex.features for ex in examples]),
                                        dtype=np.float64),
                   np.array([[np.nan if v is None else float(v) for v in row]
                             for row in labels]).T.copy(),
                   np.array([[v is not None for v in row] for row in labels],
                            dtype=np.float64).T.copy())

    @property
    def labels(self) -> dict[str, np.ndarray]:
        return by_target(self.label_matrix)

    @property
    def masks(self) -> dict[str, np.ndarray]:
        return by_target(self.mask_matrix)

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return make_batch(self, np.arange(len(self))[key])
        i = operator.index(key)
        seen = self.mask_matrix[:, i].tolist()
        values = self.label_matrix[:, i].tolist()
        # a label that is not 0 or 1 under a set mask is poison, and stays so
        return Example(int(self.ids[i]), int(self.timestamps[i]), self.features[i],
                       {t: (bool(v) if v in (0.0, 1.0) else v) if m else None
                        for t, v, m in zip(TARGETS, values, seen)})

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def observed(self, target: str) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, label values) where this target was observed."""
        idx = np.flatnonzero(self.masks[target] == 1.0)
        y = self.labels[target][idx]
        if not np.isfinite(y).all():
            raise ContractError(f"poisoned label consumed for target {target!r}")
        return idx, y

    def unobserved_idx(self, target: str) -> np.ndarray:
        return np.flatnonzero(self.masks[target] == 0.0)


def make_batch(examples: Batch | Sequence[Example], rows=None) -> Batch:
    """The rows at the indices `rows` of a row set, in that order; the
    whole set when `rows` is None. A sequence of Examples is built into a
    Batch first. A take copies; the whole set is returned as it is. Every
    other function of msis takes a Batch."""
    table = examples if isinstance(examples, Batch) else Batch.from_examples(examples)
    if rows is None:
        return table
    return Batch(table.ids[rows], table.timestamps[rows], table.features[rows],
                 table.label_matrix[:, rows], table.mask_matrix[:, rows])


def python_rows(*columns: np.ndarray):
    """The rows of equal-length arrays as tuples of Python values (a matrix
    gives a list per row), converted a few thousand rows at a time."""
    for start in range(0, len(columns[0]), 4096):
        yield from zip(*(c[start:start + 4096].tolist() for c in columns))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

# a label's CSV field by code: 0, 1, or -1 for unobserved
_LABEL_FIELD = ("0", "1", "")
_LABEL_CODE = {"0": 0, "1": 1, "": -1}


def _header(d: int) -> list[str]:
    return ["id", "timestamp"] + [f"f{i}" for i in range(d)] + list(LABEL_COLUMNS)


def save_csv(table: Batch, path: str | Path) -> None:
    codes = np.where(table.mask_matrix == 1.0, table.label_matrix, -1).astype(np.int8)
    # no field can hold a delimiter or a quote, so rows are joined as
    # csv.writer would write them, without its per-field quoting checks
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_header(table.features.shape[1])) + "\r\n")
        for ex_id, ts, x, labels in python_rows(table.ids, table.timestamps,
                                                table.features, codes.T):
            fh.write(",".join([str(ex_id), str(ts), *map(repr, x),
                               *[_LABEL_FIELD[c] for c in labels]]) + "\r\n")


def csv_rows(path: str | Path, fh):
    """csv.reader over a data file opened as text, raising ParseError, named
    after the file, where its bytes do not decode or csv rejects them."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not "
                         f"{exc.encoding} text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_csv(path: str | Path) -> Batch:
    with open(path, newline="") as fh:
        reader = csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        d = len(header) - 2 - len(LABEL_COLUMNS)
        if d < 1 or header != _header(d):
            raise ParseError(f"{path}, line 1: header does not match schema")
        # filled row by row: no column is ever held as Python objects
        ids, stamps, features, codes = array("q"), array("q"), array("d"), array("b")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                ids.append(int(row[0]))
                stamps.append(int(row[1]))
                features.extend(map(float, row[2:2 + d]))
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from None
            fields = row[2 + d:]
            try:
                codes.extend(map(_LABEL_CODE.__getitem__, fields))
            except KeyError:
                t, raw = next((t, raw) for t, raw in zip(TARGETS, fields)
                              if raw not in _LABEL_CODE)
                raise ParseError(
                    f"{path}, line {lineno}: label_{t} must be 0, 1 or empty, "
                    f"got {raw!r}") from None
            if fields[0] == "":
                raise ParseError(f"{path}, line {lineno}: label_credit is absent")
    x = np.frombuffer(features, dtype=np.float64).reshape(len(ids), d)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}, line {bad[0] + 2}: features must be finite")
    code = np.ascontiguousarray(
        np.frombuffer(codes, dtype=np.int8).reshape(len(ids), len(TARGETS)).T)
    seen = code >= 0
    return Batch(np.frombuffer(ids, dtype=np.int64), np.frombuffer(stamps, dtype=np.int64),
                 x, np.where(seen, code, np.nan), seen.astype(np.float64))


# ---------------------------------------------------------------------------
# out-of-time split
# ---------------------------------------------------------------------------

@dataclass
class Splits:
    train: Batch
    validation: Batch
    test: Batch


def split_oot(table: Batch, cutoff_timestamp: int, seed: int = 0) -> Splits:
    """Test = everything at or past the cutoff; the rest splits 80/20 into
    train/validation by seeded shuffle."""
    late = table.timestamps >= cutoff_timestamp
    test, pre = np.flatnonzero(late), np.flatnonzero(~late)
    if not test.size:
        raise ConfigError(f"cutoff {cutoff_timestamp} leaves the test split empty")
    if not pre.size:
        raise ConfigError(f"cutoff {cutoff_timestamp} leaves the training split empty")
    rng = np.random.default_rng(seed)
    order = pre[rng.permutation(pre.size)]
    n_train = int(pre.size * 0.8)
    if n_train == 0:
        raise ConfigError(f"cutoff {cutoff_timestamp} leaves the training split empty")
    return Splits(make_batch(table, order[:n_train]), make_batch(table, order[n_train:]),
                  make_batch(table, test))


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass
class Standardizer:
    """Per-feature mean/std fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train: Batch) -> Standardizer:
        if not len(train):
            raise ConfigError("cannot fit a standardizer on an empty training split")
        # C order, as a stack of rows: the axis-0 sums then run in row order
        x = np.ascontiguousarray(train.features)
        std = x.std(axis=0)
        return cls(x.mean(axis=0), np.maximum(std, STD_FLOOR))

    def apply(self, table: Batch) -> Batch:
        """The rows with standardized features; ids, timestamps, labels and
        masks are the input's own arrays."""
        if table.features.shape[1:] != self.mean.shape:
            raise DimensionError(f"features {table.features.shape} do not match the "
                                 f"standardizer's {self.mean.size} columns")
        return replace(table, features=(table.features - self.mean) / self.std)

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump({"mean": self.mean.tolist(), "std": self.std.tolist()}, fh)

    @classmethod
    def from_json(cls, path: str | Path) -> Standardizer:
        try:
            with open(path) as fh:
                obj = json.load(fh)
            mean = np.array(obj["mean"], dtype=np.float64)
            std = np.array(obj["std"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: not a standardizer file ({exc!r})") from None
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ParseError(f"{path}: mean {mean.shape} and std {std.shape} "
                             "must be vectors of one length")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0.0).all()):
            raise ParseError(f"{path}: mean must be finite and std finite and positive")
        return cls(mean, std)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def batches(table: Batch, batch_size: int, seed: int, epoch: int = 0) -> list[Batch]:
    """One epoch of shuffled mini-batches; order is a pure function of
    (seed, epoch) and every example appears exactly once."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(table))
    return [make_batch(table, order[start:start + batch_size])
            for start in range(0, len(table), batch_size)]


def covering_batch(table: Batch, size: int, seed: int) -> Batch:
    """A seeded batch of `size` distinct rows that holds, for every target,
    at least one labeled and one unlabeled row wherever `table` has one.

    Rows are taken in the order of one seeded permutation: first, for each
    (target, labeled or unlabeled) class the batch still lacks, the earliest
    row of that class; then the earliest rows not yet taken, until the
    batch is full. Without the first step this is a uniform draw, and a
    uniform draw of 64 rows often holds no labeled mob6 row at all (few
    applicants are accepted, draw and reach month six), so a gradient check
    on it never exercises that target's supervised term."""
    if not 0 < size <= len(table):
        raise ConfigError(f"batch size must lie in [1, {len(table)}], got {size}")
    order = np.random.default_rng(seed).permutation(len(table))
    labeled = table.mask_matrix.T == 1.0
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
    chosen += order[~np.isin(order, chosen)][:size - len(chosen)].tolist()
    return make_batch(table, chosen)
