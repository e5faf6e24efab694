"""Synthetic loan-funnel generator with counterfactual labels.

Applications flow through three gates: the platform grants credit to the
top share of its own score, granted users draw funds (or stay silent)
after a geometric waiting time, and drawn loans default term by term
according to a quality-driven hazard. Because the generator keeps the
latent quality and all six outcome labels for every record, including
rejected and silent ones, full-population evaluation stays possible even
though `observe` hides exactly what a real platform could not see.

Selection is missing-not-at-random whenever the policy alignment is
positive: the platform's score shares a component with the true quality
direction, so accepted records are systematically better than rejected
ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .dataset import DEFAULT_STAGES, TARGETS, Example
from .errors import ConfigError, ParseError

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

    def validate(self) -> None:
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
        if self.n_terms < 6:
            raise ConfigError(
                f"n_terms must be >= 6 to define the term-6 label, got {self.n_terms}")


@dataclass
class PopulationRecord:
    """One application with its latent state and always-known outcome labels."""

    id: int
    timestamp: int
    features: np.ndarray
    latent_quality: float
    draw_day: int | None
    first_default_term: int | None
    labels: dict[str, bool] = field(repr=False, default_factory=dict)


def oot_cutoff_day(config: SimConfig) -> int:
    return int(round(HORIZON_DAYS * (1.0 - config.oot_fraction)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate(config: SimConfig) -> list[PopulationRecord]:
    """Draw a through-the-door population, deterministic given the seed."""
    config.validate()
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
    records = []
    for i in range(n):
        t = int(first_term[i]) or None
        dd = int(draw_day[i])
        labels = {
            "credit": bool(credit[i]),
            "draw_30": dd <= h30,
            "draw_90": dd <= h90,
            "mob1": t is not None and t <= 1,
            "mob3": t is not None and t <= 3,
            "mob6": t is not None and t <= 6,
        }
        records.append(PopulationRecord(
            id=i, timestamp=int(timestamps[i]), features=x[i].copy(),
            latent_quality=float(z[i]), draw_day=dd, first_default_term=t,
            labels=labels))
    return records


def observe(population: list[PopulationRecord],
            draw_horizons: tuple[int, int] = (30, 90)) -> list[Example]:
    """Apply the two selection gates: rejected applicants hide everything past
    the credit decision, silent users (no draw within the longer horizon)
    hide repayment. Label values are never altered, only their visibility."""
    h90 = draw_horizons[1]
    (_, ws_targets), (_, gb_targets) = DEFAULT_STAGES[1:]
    examples = []
    for rec in population:
        credit = rec.labels["credit"]
        drawn = credit and rec.draw_day is not None and rec.draw_day <= h90
        labels: dict[str, bool | None] = {"credit": credit}
        for t in ws_targets:
            labels[t] = rec.labels[t] if credit else None
        for t in gb_targets:
            labels[t] = rec.labels[t] if drawn else None
        examples.append(Example(rec.id, rec.timestamp, rec.features, labels))
    return examples


# ---------------------------------------------------------------------------
# counterfactual sidecar
# ---------------------------------------------------------------------------

COUNTERFACTUAL_HEADER = ["id", "z", "draw_day", "first_default_term"] + \
    ["cf_" + t for t in TARGETS]


def counterfactual_table(population: list[PopulationRecord]) -> dict[int, dict[str, bool]]:
    return {rec.id: dict(rec.labels) for rec in population}


def save_counterfactuals(population: list[PopulationRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTERFACTUAL_HEADER)
        for rec in population:
            writer.writerow([
                str(rec.id), repr(rec.latent_quality),
                "" if rec.draw_day is None else str(rec.draw_day),
                "" if rec.first_default_term is None else str(rec.first_default_term),
            ] + [str(int(rec.labels[t])) for t in TARGETS])


def load_counterfactuals(path: str | Path) -> dict[int, dict[str, bool]]:
    table: dict[int, dict[str, bool]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != COUNTERFACTUAL_HEADER:
            raise ParseError(f"{path}, line 1: counterfactual header does not match schema")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(COUNTERFACTUAL_HEADER):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(COUNTERFACTUAL_HEADER)} fields")
            try:
                rec_id = int(row[0])
            except ValueError as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from None
            if rec_id in table:
                raise ParseError(f"{path}, line {lineno}: id {rec_id} repeats an earlier row")
            raws = row[4:]
            if raws.count("0") + raws.count("1") != len(TARGETS):
                t, raw = next((t, raw) for t, raw in zip(TARGETS, raws) if raw not in ("0", "1"))
                raise ParseError(f"{path}, line {lineno}: cf_{t} must be 0 or 1, got {raw!r}")
            table[rec_id] = dict(zip(TARGETS, [raw == "1" for raw in raws]))
    return table
