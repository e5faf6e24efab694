"""Synthetic loan-funnel generator with counterfactual labels.

Applications flow through three gates: the platform grants credit to the
top share of its own score, granted users draw funds (or stay silent)
after a geometric waiting time, and drawn loans default term by term
according to a quality-driven hazard. Because the generator keeps the
latent quality and all six outcome labels for every record, including
rejected and silent ones, full-population evaluation stays possible even
though `observe` hides exactly what a real platform could not see.

Accepted records are systematically better than rejected ones whenever
the policy alignment is positive: the platform's score shares a component
with the true quality direction. The selection is still ignorable given
all the features: both gates see only the features and their own noise,
and the quality noise that drives default is unseen by either, so it is
missing-not-at-random only for a model that does not see every feature.

The draw labels are named for the default horizons: `draw_30` means
"drew within `draw_horizons[0]` days" and `draw_90` "within
`draw_horizons[1]` days", in `Population.labels` and in the
`label_draw_30` and `label_draw_90` columns of `dataset.csv` alike. The
horizons are part of the resolved config that a run's manifest hashes
(`config_sha256`).

A population is stored column-wise (`Population`, one array per field);
`observe` returns the `dataset.Batch` a platform would see, and
`Counterfactuals` holds every record's labels by id, with a vectorized
lookup for full-population scoring.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .config import check_array_entries
from .dataset import DEFAULT_STAGES, TARGETS, Batch, by_target, csv_rows, python_rows
from .errors import ConfigError, ContractError, ParseError

HORIZON_DAYS = 365

# mechanics constants; see SimConfig for the knobs that vary per experiment.
# Calibrated jointly so that, at the default config, the funnel keeps a clear
# quality gap between accepted and rejected applicants, repayment labels are
# scarce (a mostly silent market), and the short-horizon label stays rare
# enough that single-task learning is genuinely starved.
QUALITY_SHARPNESS = 3.0    # norm of the true-quality direction; saturates the
                           # quality sigmoid into near good/bad clusters
QUALITY_NOISE = 0.5        # noise on the latent-quality index
SCORE_NOISE = 1.0          # platform score imperfection
DRAW_QUALITY_LOADING = -0.7    # low-quality users draw faster (adverse selection)
DRAW_INTERCEPT = -8.1      # daily draw log-odds at an average profile
HAZARD_QUALITY_SLOPE = 6.0     # b > 0: low quality defaults earlier
HAZARD_INTERCEPT = -0.6    # sets bad-cluster per-term default risk


@dataclass(frozen=True)
class SimConfig:
    n: int
    feature_dim: int = 32
    acceptance_rate: float = 0.3
    policy_alignment: float = 0.6
    draw_horizons: tuple[int, int] = (30, 90)
    n_terms: int = 6
    drift_shift: float = 0.5
    oot_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.feature_dim <= 0:
            raise ConfigError(f"feature_dim must be positive, got {self.feature_dim}")
        if not 0.0 < self.acceptance_rate < 1.0:
            raise ConfigError(
                f"acceptance_rate must lie in (0, 1), got {self.acceptance_rate}")
        if not 0.0 <= self.policy_alignment <= 1.0:
            raise ConfigError(
                f"policy_alignment must lie in [0, 1], got {self.policy_alignment}")
        if not 0.0 < self.oot_fraction < 1.0:
            raise ConfigError(
                f"oot_fraction must lie in (0, 1), got {self.oot_fraction}")
        if self.draw_horizons[0] >= self.draw_horizons[1]:
            raise ConfigError(f"draw_horizons must increase, got {self.draw_horizons}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_terms < 6:
            raise ConfigError(
                f"n_terms must be >= 6 to define the term-6 label, got {self.n_terms}")
        # the widest of generate's (n, ·) arrays: the features or the term draws
        check_array_entries(self.n * max(self.feature_dim, self.n_terms),
                            f"n={self.n}, feature_dim={self.feature_dim} and "
                            f"n_terms={self.n_terms}")


@dataclass(eq=False)
class Population:
    """A through-the-door population, one array per field, with its latent
    state and all six outcome labels, always known. `label_matrix` holds
    one bool row per target in TARGETS order; `labels[t]` is a view of a
    target's row."""

    ids: np.ndarray                 # int64
    timestamps: np.ndarray          # int64, day of application
    features: np.ndarray            # (n, d) float64
    latent_quality: np.ndarray      # float64
    draw_day: np.ndarray            # int64, 0: never drew
    first_default_term: np.ndarray  # int64, 0: never defaulted
    label_matrix: np.ndarray = field(repr=False)

    @property
    def labels(self) -> dict[str, np.ndarray]:
        return by_target(self.label_matrix)

    def __len__(self) -> int:
        return self.ids.size


def oot_cutoff_day(config: SimConfig) -> int:
    return int(round(HORIZON_DAYS * (1.0 - config.oot_fraction)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate(config: SimConfig) -> Population:
    """Draw a through-the-door population, deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    n, d = config.n, config.feature_dim
    rho = config.policy_alignment

    w_true = _unit(rng.standard_normal(d))
    raw = rng.standard_normal(d)
    w_perp = _unit(raw - (raw @ w_true) * w_true)
    raw = rng.standard_normal(d)
    w_dperp = _unit(raw - (raw @ w_true) * w_true)
    w_draw = DRAW_QUALITY_LOADING * w_true + \
        np.sqrt(1.0 - DRAW_QUALITY_LOADING ** 2) * w_dperp

    timestamps = rng.integers(0, HORIZON_DAYS, size=n)
    cutoff = oot_cutoff_day(config)
    x = rng.standard_normal((n, d))
    x[timestamps >= cutoff, :d // 2] += config.drift_shift

    quality_index = x @ (QUALITY_SHARPNESS * w_true)
    z = expit(quality_index + QUALITY_NOISE * rng.standard_normal(n))

    w_plat = rho * w_true + np.sqrt(1.0 - rho ** 2) * w_perp
    s = expit(x @ w_plat + SCORE_NOISE * rng.standard_normal(n))
    pre = timestamps < cutoff
    n_pre = int(pre.sum())
    if n_pre == 0 or n_pre == n:
        raise ConfigError("timestamp draw left one side of the OOT cutoff empty")
    n_accept = int(np.ceil(config.acceptance_rate * n_pre))
    threshold = np.sort(s[pre])[n_pre - n_accept]
    credit = s >= threshold

    p_draw = np.clip(expit(DRAW_INTERCEPT + x @ w_draw), 1e-12, 1.0 - 1e-12)
    draw_day = rng.geometric(p_draw)

    hazard = expit(HAZARD_INTERCEPT - HAZARD_QUALITY_SLOPE * z)
    term_default = rng.random((n, config.n_terms)) < hazard[:, None]
    any_default = term_default.any(axis=1)
    first_term = np.where(any_default, term_default.argmax(axis=1) + 1, 0)

    h30, h90 = config.draw_horizons
    defaulted = first_term >= 1
    outcomes = {
        "credit": credit,
        "draw_30": draw_day <= h30,
        "draw_90": draw_day <= h90,
        "mob1": defaulted & (first_term <= 1),
        "mob3": defaulted & (first_term <= 3),
        "mob6": defaulted & (first_term <= 6),
    }
    return Population(np.arange(n, dtype=np.int64), timestamps, x, z, draw_day, first_term,
                      np.stack([outcomes[t] for t in TARGETS]))


def observe(population: Population) -> Batch:
    """Apply the two selection gates: rejected applicants hide everything past
    the credit decision, silent users (no draw within the longer horizon,
    the population's own `draw_90` label) hide repayment. Label values are
    never altered, only their visibility."""
    credit = population.labels["credit"]
    drawn = credit & population.labels["draw_90"]
    (_, ws_targets), (_, gb_targets) = DEFAULT_STAGES[1:]
    visible = {"credit": np.ones_like(credit)}
    visible.update({t: credit for t in ws_targets})
    visible.update({t: drawn for t in gb_targets})
    seen = np.stack([visible[t] for t in TARGETS])
    return Batch(population.ids, population.timestamps, population.features,
                 np.where(seen, population.label_matrix, np.nan), seen.astype(np.float64))


# ---------------------------------------------------------------------------
# counterfactual sidecar
# ---------------------------------------------------------------------------

COUNTERFACTUAL_HEADER = ["id", "z", "draw_day", "first_default_term"] + \
    ["cf_" + t for t in TARGETS]


@dataclass(eq=False)
class Counterfactuals:
    """The simulator's six outcome labels of every record, by id: the truth
    that full-population scoring reads. `label_matrix` holds one bool row
    per target in TARGETS order."""

    ids: np.ndarray
    label_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._order = np.argsort(self.ids, kind="stable")
        self._sorted = self.ids[self._order]
        if (self._sorted[1:] == self._sorted[:-1]).any():
            raise ContractError("counterfactual ids must be distinct")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Counterfactuals):
            return NotImplemented
        return (np.array_equal(self.ids, other.ids)
                and np.array_equal(self.label_matrix, other.label_matrix))

    def lookup(self, ids: np.ndarray) -> dict[str, np.ndarray]:
        """The labels of `ids`, in their order; ContractError if any id has
        none."""
        pos = np.searchsorted(self._sorted, ids).clip(0, max(self.ids.size - 1, 0))
        found = self._sorted[pos] == ids if self.ids.size else np.zeros(ids.shape, bool)
        if not found.all():
            missing = ids[~found]
            raise ContractError(
                f"{missing.size} of {ids.size} scored ids have no counterfactual "
                f"labels, e.g. {missing[:5].tolist()}")
        return by_target(self.label_matrix[:, self._order[pos]])


def counterfactual_table(population: Population) -> Counterfactuals:
    return Counterfactuals(population.ids, population.label_matrix)


def save_counterfactuals(population: Population, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTERFACTUAL_HEADER)
        for rec_id, z, day, term, labels in python_rows(
                population.ids, population.latent_quality, population.draw_day,
                population.first_default_term, population.label_matrix.T):
            writer.writerow([str(rec_id), repr(z), str(day) if day else "",
                             str(term) if term else ""] + [str(int(v)) for v in labels])


def load_counterfactuals(path: str | Path) -> Counterfactuals:
    ids, flags, seen = array("q"), bytearray(), set()
    with open(path, newline="") as fh:
        reader = csv_rows(path, fh)
        header = next(reader, None)
        if header != COUNTERFACTUAL_HEADER:
            raise ParseError(f"{path}, line 1: counterfactual header does not match schema")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(COUNTERFACTUAL_HEADER):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(COUNTERFACTUAL_HEADER)} fields")
            try:
                rec_id = int(row[0])
                ids.append(rec_id)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from None
            if rec_id in seen:
                raise ParseError(f"{path}, line {lineno}: id {rec_id} repeats an earlier row")
            seen.add(rec_id)
            raws = row[4:]
            if raws.count("0") + raws.count("1") != len(TARGETS):
                t, raw = next((t, raw) for t, raw in zip(TARGETS, raws) if raw not in ("0", "1"))
                raise ParseError(f"{path}, line {lineno}: cf_{t} must be 0 or 1, got {raw!r}")
            flags.extend([raw == "1" for raw in raws])
    labels = np.frombuffer(flags, dtype=bool).reshape(len(ids), len(TARGETS)).T
    return Counterfactuals(np.frombuffer(ids, dtype=np.int64), np.ascontiguousarray(labels))
