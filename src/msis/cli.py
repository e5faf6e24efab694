"""Experiment driver: simulate, train, evaluate, ablate, sweep, gradcheck,
and report as reproducible runs.

The configuration is `ExperimentConfig`: six frozen dataclass sections
(sim, model, loss, train, split, sweep) whose fields and defaults are the
schema. ``--config`` (a JSON file) and then each ``--set section.key=value``
are merged over the defaults (flags > file > defaults) and read back with
each field's annotated type by `msis.config`, so ``split.cutoff_day=2.5``
or ``model.corridor_enabled=False`` (not JSON ``false``) is a ConfigError.
Every command writes a manifest with the canonical resolved config and
its hash, the seed list, and a checksum per artifact, so any result can be
re-derived. An `msis.errors` error exits 1 with one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
import typing
from pathlib import Path

from . import baselines as bl
from . import dataset as ds
from . import evaluation as ev
from . import funnel_sim as fs
from . import loss as lo
from . import model as mo
from . import numerics as nm
from . import trainer as tr
from .config import from_dict, to_dict
from .errors import ConfigError, MsisError, ParseError


@dataclasses.dataclass(frozen=True)
class SplitConfig:
    seed: int = 0
    cutoff_day: int | None = None  # None: the simulator's out-of-time cutoff

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"split.seed must be >= 0, got {self.seed}")


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """The grid `msis sweep --param <field>` trains over, one per field."""
    corridor_dim: tuple[int, ...] = (2, 4, 8, 16, 24)
    gamma: tuple[float, ...] = (6e-5, 2e-4, 6e-4, 2e-3, 6e-3)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    sim: fs.SimConfig = dataclasses.field(default_factory=lambda: fs.SimConfig(n=100000))
    model: mo.MsisConfig = mo.MsisConfig()
    loss: lo.LossConfig = dataclasses.field(default_factory=lo.LossConfig)
    train: tr.TrainConfig = tr.TrainConfig()
    split: SplitConfig = SplitConfig()
    sweep: SweepConfig = SweepConfig()

    def __post_init__(self) -> None:
        unweighted = [name for name, _ in self.model.stages
                      if name not in self.loss.stage_weights]
        if unweighted:
            raise ConfigError(f"model.stages {unweighted} have no loss.stage_weights entry")
        # every grid value, before a sweep trains the ones before it
        for param in (f.name for f in dataclasses.fields(SweepConfig)):
            for value in getattr(self.sweep, param):
                try:
                    self.sweep_point(param, value)
                except ConfigError as exc:
                    raise ConfigError(f"sweep.{param} value {value}: {exc}") from None

    def sweep_point(self, param: str, value) -> tuple[mo.MsisConfig, lo.LossConfig]:
        """The model and loss configs `msis sweep --param <param>` trains at `value`."""
        if param == "corridor_dim":
            return self.model.with_corridor_dim(value), self.loss
        return self.model, dataclasses.replace(self.loss, gammas=lo.default_gammas(value))

    @property
    def cutoff_day(self) -> int:
        if self.split.cutoff_day is None:
            return fs.oot_cutoff_day(self.sim)
        return self.split.cutoff_day

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(to_dict(self), sort_keys=True).encode()).hexdigest()


def _merge(cls, base: dict, override: dict, path: str = "") -> dict:
    """The JSON values `base` of dataclass cls updated by `override`: a
    section recurses, a dict-typed field is updated key by key, and any
    other value is replaced."""
    hints = typing.get_type_hints(cls)
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {where!r}")
        tp = hints[key]
        if dataclasses.is_dataclass(tp) and isinstance(value, dict):
            out[key] = _merge(tp, base[key], value, where)
        elif typing.get_origin(tp) is dict and isinstance(value, dict):
            out[key] = {**base[key], **value}
        else:
            out[key] = value
    return out


def load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    resolved = to_dict(ExperimentConfig())
    if path:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold an object, "
                              f"got {type(file_cfg).__name__}")
        resolved = _merge(ExperimentConfig, resolved, file_cfg)
    for assignment in overrides:
        dotted, eq, raw = assignment.partition("=")
        if not eq:
            raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # not JSON: the raw string
        for part in reversed(dotted.split(".")):
            value = {part: value}
        resolved = _merge(ExperimentConfig, resolved, value)
    return from_dict(ExperimentConfig, resolved, where="")


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------

def _run_dir(args, cfg: ExperimentConfig) -> tuple[Path, bool]:
    """The command's output directory, and whether this call made it."""
    if args.out:
        path = Path(args.out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        path = Path("runs") / f"{stamp}-{cfg.sha256()[:8]}"
    made = not path.exists()
    path.mkdir(parents=True, exist_ok=True)
    return path, made


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out: Path, command: str, cfg: ExperimentConfig,
                   artifacts: list[Path]) -> None:
    """manifest.json: the command, the resolved config and its hash (the
    config, written back as canonical JSON, hashes to `config_sha256`), the
    seeds, and a checksum per artifact."""
    manifest = {
        "command": command,
        "config": to_dict(cfg),
        "config_sha256": cfg.sha256(),
        "seeds": list(cfg.train.seeds),
        "artifacts": {p.name: _sha256_file(p) for p in artifacts},
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# shared data plumbing
# ---------------------------------------------------------------------------

def _split(data_dir: Path, cfg: ExperimentConfig) -> ds.Splits:
    path = data_dir / "dataset.csv"
    if not path.exists():
        raise ConfigError(f"missing dataset {path}")
    examples = ds.load_csv(path)
    return ds.split_oot(examples, cfg.cutoff_day, seed=cfg.split.seed)


def _load_splits(data_dir: Path, cfg: ExperimentConfig):
    """The splits standardized by a standardizer fitted on their training rows."""
    splits = _split(data_dir, cfg)
    standardizer = ds.Standardizer.fit(splits.train)
    return ds.Splits(standardizer.apply(splits.train),
                     standardizer.apply(splits.validation),
                     standardizer.apply(splits.test)), standardizer


def _load_counterfactuals(data_dir: Path):
    path = data_dir / "counterfactuals.csv"
    if not path.exists():
        raise ConfigError(f"full-population scope needs {path}")
    return fs.load_counterfactuals(path)


def _scope(name: str, data_dir: Path):
    """The evaluation scope named on the command line, with the
    counterfactual labels that the full-population scope reads."""
    if name == "full":
        return ev.FULL_POPULATION, _load_counterfactuals(data_dir)
    return ev.OBSERVED, None


ROWS_HEADER = ["seed", "target", "auc"]


def _write_rows_csv(path: Path, rows: list[dict], seeds) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROWS_HEADER)
        for seed, row in zip(seeds, rows):
            for target, value in row.items():
                writer.writerow([seed, target,
                                 "" if value is None else repr(value)])


def _read_rows_csv(path: Path) -> list[dict]:
    """The per-seed rows that _write_rows_csv wrote. A missing file is a
    ConfigError, a wrong header or a malformed line a ParseError naming
    the file and line."""
    if not path.is_file():
        raise ConfigError(f"missing rows file {path}")
    by_seed: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ROWS_HEADER:
            raise ParseError(f"{path}, line 1: expected the header "
                             f"{','.join(ROWS_HEADER)}, got {header!r}")
        for line, row in enumerate(reader, 2):
            try:
                seed, target, value = row
                auc = float(value) if value else None
                if auc is not None and not 0.0 <= auc <= 1.0:  # NaN too
                    raise ValueError
            except ValueError:
                raise ParseError(f"{path}, line {line}: expected seed,target,auc with an "
                                 f"auc in [0, 1] or empty, got {row!r}") from None
            by_seed.setdefault(seed, {})[target] = auc
    return list(by_seed.values())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: ExperimentConfig, out: Path) -> int:
    population = fs.generate(cfg.sim)
    examples = fs.observe(population)
    ds.save_csv(examples, out / "dataset.csv")
    fs.save_counterfactuals(population, out / "counterfactuals.csv")
    write_manifest(out, "simulate", cfg,
                   [out / "dataset.csv", out / "counterfactuals.csv"])
    accepted = int(population.labels["credit"].sum())
    print(f"simulated {len(population)} applications ({accepted} accepted) "
          f"into {out}")
    return 0


def cmd_train(args, cfg: ExperimentConfig, out: Path) -> int:
    data_dir = Path(args.data)
    splits, standardizer = _load_splits(data_dir, cfg)
    standardizer.to_json(out / "standardizer.json")
    artifacts = [out / "standardizer.json"]
    name = args.model
    for seed in cfg.train.seeds:
        if name == "msis":
            params, history = tr.train_run(cfg.model, cfg.loss, cfg.train,
                                           splits, seed)
            model_cfg = cfg.model
        else:
            kind, _, target = name.partition(":")
            params, history, model_cfg = bl.train_baseline(
                kind, target or None, splits, cfg.train, seed,
                base=cfg.model, loss_cfg=cfg.loss)
        tag = name.replace(":", "-")
        ckpt = out / f"checkpoint-{tag}-seed{seed}.json"
        log = out / f"train-log-{tag}-seed{seed}.csv"
        mo.save_checkpoint(params, model_cfg, ckpt)
        tr.write_history_csv(history, log)
        artifacts += [ckpt, log]
        print(f"{name} seed {seed}: best epoch {history.best_epoch} "
              f"of {len(history.epochs)}")
    write_manifest(out, f"train {name}", cfg, artifacts)
    return 0


def cmd_evaluate(args, cfg: ExperimentConfig, out: Path) -> int:
    data_dir = Path(args.data)
    run_dir = Path(args.run)
    # the test rows standardized as the run's training rows were
    std_path = run_dir / "standardizer.json"
    if not std_path.exists():
        raise ConfigError(f"missing standardizer {std_path}")
    test = ds.Standardizer.from_json(std_path).apply(_split(data_dir, cfg).test)
    scope, counterfactuals = _scope(args.scope, data_dir)
    tag = args.model.replace(":", "-")
    rows = []
    seeds = []
    for seed in cfg.train.seeds:
        ckpt = run_dir / f"checkpoint-{tag}-seed{seed}.json"
        if not ckpt.exists():
            raise ConfigError(f"missing checkpoint {ckpt}")
        params, model_cfg = mo.load_checkpoint(ckpt)
        rows.append(ev.evaluate(params, model_cfg, test, scope, counterfactuals))
        seeds.append(seed)
    rows_path = out / f"metrics-runs-{tag}-{args.scope}.csv"
    _write_rows_csv(rows_path, rows, seeds)
    rep = ev.report(rows, scope=scope)
    rep_path = out / f"metrics-report-{tag}-{args.scope}.csv"
    rep.to_csv(rep_path)
    print(rep.to_text())
    write_manifest(out, f"evaluate {args.model} {args.scope}", cfg,
                   [rows_path, rep_path])
    return 0


def cmd_ablate(args, cfg: ExperimentConfig, out: Path) -> int:
    data_dir = Path(args.data)
    splits, _ = _load_splits(data_dir, cfg)
    scope, counterfactuals = _scope(args.scope, data_dir)
    artifacts = []
    results: dict[str, ev.AblationResult] = {}
    variants = [ev.AblationVariant.FULL] + [
        v for v in ev.AblationVariant if v is not ev.AblationVariant.FULL]
    for variant in variants:
        result = ev.ablate(variant, cfg.model, cfg.loss, cfg.train, splits,
                           splits.test, counterfactuals, scope)
        results[variant.value] = result
        path = out / f"ablation-rows-{variant.value}.csv"
        _write_rows_csv(path, result.rows, cfg.train.seeds)
        artifacts.append(path)
        print(f"ablation {variant.value}: done")
    full_rows = results["full"].rows
    table_path = out / "ablation-report.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "target", "auc_mean", "auc_std",
                         "gap_vs_full"])
        for variant, result in results.items():
            rep = ev.report(result.rows, baseline_rows=full_rows,
                            baseline_name="full", scope=scope)
            for target, m in rep.per_target.items():
                writer.writerow([variant, target, repr(m.mean), repr(m.std),
                                 "" if m.gain is None else repr(m.gain)])
    artifacts.append(table_path)
    write_manifest(out, "ablate", cfg, artifacts)
    print(f"ablation report written to {table_path}")
    return 0


def cmd_sweep(args, cfg: ExperimentConfig, out: Path) -> int:
    data_dir = Path(args.data)
    splits, _ = _load_splits(data_dir, cfg)
    counterfactuals = _load_counterfactuals(data_dir)
    final_targets = cfg.model.stages[-1][1]
    table: list[tuple[float, dict]] = []
    artifacts = []
    for value in getattr(cfg.sweep, args.param):
        model_cfg, loss_cfg = cfg.sweep_point(args.param, value)
        rows = []
        for seed in cfg.train.seeds:
            params, _ = tr.train_run(model_cfg, loss_cfg, cfg.train, splits, seed)
            rows.append(ev.evaluate(params, model_cfg, splits.test,
                                    ev.FULL_POPULATION, counterfactuals))
        rep = ev.report(rows, scope=ev.FULL_POPULATION)
        table.append((value, rep.per_target))
        print(f"{args.param}={value}: " + " ".join(
            f"{t}={rep.per_target[t].mean:.4f}" for t in final_targets
            if t in rep.per_target))
    csv_path = out / f"sweep-{args.param}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "target", "auc_mean", "auc_std"])
        for value, per_target in table:
            for t, m in per_target.items():
                writer.writerow([value, t, repr(m.mean), repr(m.std)])
    artifacts.append(csv_path)
    for t in final_targets:
        dat_path = out / f"sweep-{args.param}-{t}.dat"
        with open(dat_path, "w") as fh:
            fh.write(f"# {args.param}  auc_mean ({t}, full-population)\n")
            for value, per_target in table:
                if t in per_target:
                    fh.write(f"{value} {per_target[t].mean!r}\n")
        artifacts.append(dat_path)
    write_manifest(out, f"sweep {args.param}", cfg, artifacts)
    return 0


def cmd_gradcheck(args, cfg: ExperimentConfig, out: Path) -> int:
    sim_cfg = dataclasses.replace(cfg.sim, n=max(256, 4 * args.batch))
    examples = fs.observe(fs.generate(sim_cfg))
    examples = ds.Standardizer.fit(examples).apply(examples)
    worst = 0.0
    lines = []
    for seed in cfg.train.seeds:
        batch = ds.covering_batch(examples, args.batch, seed)
        params = mo.init_params(cfg.model, seed)
        loss_fn = lambda: lo.total_loss(
            mo.forward(params, cfg.model, batch.features), batch, cfg.loss,
            cfg.model.stages).total
        value_fn = lo.make_fast_loss_value_fn(params, cfg.model, cfg.loss, batch)
        report = nm.finite_diff_check(params, loss_fn, tol=args.tol,
                                      value_fn=value_fn)
        worst = max(worst, report.worst_rel_error)
        labeled = {t: int(batch.masks[t].sum()) for t in ds.TARGETS}
        coverage = " ".join(f"{t} {n}/{len(batch) - n}" for t, n in labeled.items())
        lines.append(f"seed {seed}: rows labeled/unlabeled per target: {coverage}")
        lines.append(f"seed {seed}: {report}")
        print("\n".join(lines[-2:]))
    passed = worst < args.tol
    summary = f"worst over seeds: {worst:.3e} (tol {args.tol:g}) -> " \
        + ("PASS" if passed else "FAIL")
    lines.append(summary)
    print(summary)
    report_path = out / "gradcheck.txt"
    report_path.write_text("\n".join(lines) + "\n")
    write_manifest(out, "gradcheck", cfg, [report_path])
    return 0 if passed else 1


def _read_runs(args) -> dict[str, list[dict]]:
    """`msis report`'s rows files by run name, each read and checked, with
    the baseline among the names."""
    named_rows: dict[str, list[dict]] = {}
    for item in args.runs:
        if "=" not in item:
            raise ConfigError(f"report expects name=rows.csv, got {item!r}")
        name, path = item.split("=", 1)
        named_rows[name] = _read_rows_csv(Path(path))
    if args.baseline and args.baseline not in named_rows:
        raise ConfigError(f"baseline {args.baseline!r} not among run names")
    return named_rows


def cmd_report(args, cfg: ExperimentConfig, out: Path) -> int:
    named_rows = args.named_rows
    baseline_rows = named_rows.get(args.baseline) if args.baseline else None
    table_path = out / "comparison.csv"
    lines = []
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "target", "auc_mean", "auc_std", "gain",
                         "baseline"])
        for name, rows in named_rows.items():
            rep = ev.report(rows, baseline_rows=baseline_rows,
                            baseline_name=args.baseline)
            lines.append(f"== {name} ==\n{rep.to_text()}")
            for target, m in rep.per_target.items():
                writer.writerow([name, target, repr(m.mean), repr(m.std),
                                 "" if m.gain is None else repr(m.gain),
                                 args.baseline or ""])
    print("\n".join(lines))
    write_manifest(out, "report", cfg, [table_path])
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msis",
        description="Staged credit-decision experiments on a synthetic loan funnel")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field, e.g. sim.n=5000")
        p.add_argument("--out", help="output directory (default runs/<stamp>-<hash>)")

    p = sub.add_parser("simulate", help="generate the synthetic loan funnel")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train a model across the configured seeds")
    common(p)
    p.add_argument("--data", required=True, help="directory with dataset.csv")
    p.add_argument("--model", default="msis",
                   help="msis | flat_multitask | single_task:<label> | "
                        "single_task_entropy:<label>")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score trained checkpoints on the test split")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True, help="directory with checkpoints")
    p.add_argument("--model", default="msis")
    p.add_argument("--scope", choices=["observed", "full"], default="observed")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the component-removal study")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--scope", choices=["observed", "full"], default="full")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep the corridor width or entropy weight")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--param", required=True,
                   choices=[f.name for f in dataclasses.fields(SweepConfig)])
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    common(p)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="aggregate per-seed metric files across models")
    common(p)
    p.add_argument("--baseline", help="run name the gains are measured against")
    p.add_argument("runs", nargs="+", metavar="NAME=ROWS.CSV")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set or [])
        if args.command == "train" and args.model != "msis":  # before any file is written
            kind, _, target = args.model.partition(":")
            bl.baseline_model_config(kind, target or None, cfg.model)
        if args.command == "gradcheck" and not 0 < args.tol < math.inf:
            raise ConfigError(f"--tol must be a finite number > 0, got {args.tol}")
        if args.command == "gradcheck" and args.batch < 1:
            raise ConfigError(f"--batch must be >= 1, got {args.batch}")
        if args.command in ("evaluate", "ablate", "sweep") and len(cfg.train.seeds) < 2:
            raise ConfigError(f"{args.command} reports over seeds and needs at least 2 "
                              f"in train.seeds, got {list(cfg.train.seeds)}")
        if args.command == "report":
            args.named_rows = _read_runs(args)
        out, made = _run_dir(args, cfg)
        try:
            return args.fn(args, cfg, out)
        except MsisError:
            if made and not any(out.iterdir()):  # failed before writing, as on bad data
                out.rmdir()
            raise
    except MsisError as exc:
        kind = "configuration error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
