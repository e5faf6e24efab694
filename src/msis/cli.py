"""Experiment driver: simulate, train, evaluate, ablate, sweep, gradcheck,
and report as reproducible runs.

Configuration comes from a JSON file with nested sections (sim, model,
loss, train, split, sweep) merged over built-in defaults;
``--set section.key=value`` overrides single fields from the command line
(flags > file > defaults). The sim, model, loss, train and split sections
are the config dataclasses, defaults included, read back by `msis.config`
with their annotated types, so ``model.corridor_enabled=False`` (not JSON
``false``) or ``split.cutoff_day=2.5`` is a ConfigError. Every command
writes a manifest with the resolved-config hash, the seed list, and a
checksum per artifact, so any result can be re-derived.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
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
from .errors import ConfigError

CONFIG_ENV_VAR = "MSIS_CONFIG"

# the config sections that are dataclasses; their defaults are the dataclasses' own
SECTIONS = {"sim": fs.SimConfig, "model": mo.MsisConfig, "loss": lo.LossConfig,
            "train": tr.TrainConfig}


@dataclasses.dataclass(frozen=True)
class SplitConfig:
    seed: int = 0
    cutoff_day: int | None = None  # None: the simulator's out-of-time cutoff


DEFAULTS: dict = {
    "sim": to_dict(fs.SimConfig(n=100000)),
    "model": to_dict(mo.MsisConfig()),
    "loss": to_dict(lo.LossConfig()),
    "train": to_dict(tr.TrainConfig()),
    "split": to_dict(SplitConfig()),
    "sweep": {"corridor_dim": [2, 4, 8, 16, 24],
              "gamma": [6e-5, 2e-4, 6e-4, 2e-3, 6e-3]},
}


@dataclasses.dataclass
class ExperimentConfig:
    sim: fs.SimConfig
    model: mo.MsisConfig
    loss: lo.LossConfig
    train: tr.TrainConfig
    split_seed: int
    cutoff_day: int
    sweep: dict
    resolved: dict

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved, sort_keys=True).encode()).hexdigest()


# map-valued fields whose keys are target/stage names, not a fixed schema
OPEN_KEYED = ("gammas", "stage_weights")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            if key in OPEN_KEYED:
                merged = dict(base[key])
                merged.update(value)
                out[key] = merged
            else:
                out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _apply_set(resolved: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = resolved
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config field {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    open_keyed = len(parts) > 1 and parts[-2] in OPEN_KEYED
    if not isinstance(node, dict) or (leaf not in node and not open_keyed):
        raise ConfigError(f"unknown config field {dotted!r}")
    node[leaf] = value


def load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    resolved = json.loads(json.dumps(DEFAULTS))  # deep copy
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path) as fh:
            file_cfg = json.load(fh)
        resolved = _merge(resolved, file_cfg)
    for assignment in overrides:
        _apply_set(resolved, assignment)
    sections = {}
    for name, cls in SECTIONS.items():
        sections[name] = from_dict(cls, resolved[name], where=name)
        sections[name].validate()
    split = from_dict(SplitConfig, resolved["split"], where="split")
    cutoff = split.cutoff_day
    if cutoff is None:
        cutoff = fs.oot_cutoff_day(sections["sim"])
    return ExperimentConfig(**sections,
                            split_seed=split.seed,
                            cutoff_day=cutoff,
                            sweep=resolved["sweep"], resolved=resolved)


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------

def _run_dir(args, cfg: ExperimentConfig) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        path = Path("runs") / f"{stamp}-{cfg.sha256()[:8]}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out: Path, command: str, cfg: ExperimentConfig,
                   artifacts: list[Path]) -> None:
    manifest = {
        "command": command,
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

def _load_splits(data_dir: Path, cfg: ExperimentConfig):
    examples = ds.load_csv(data_dir / "dataset.csv")
    splits = ds.split_oot(examples, cfg.cutoff_day, seed=cfg.split_seed)
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


def _write_rows_csv(path: Path, rows: list[dict], seeds) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "target", "auc"])
        for seed, row in zip(seeds, rows):
            for target, value in row.items():
                writer.writerow([seed, target,
                                 "" if value is None else repr(value)])


def _read_rows_csv(path: Path) -> list[dict]:
    by_seed: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for seed, target, value in reader:
            by_seed.setdefault(seed, {})[target] = float(value) if value else None
    return list(by_seed.values())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: ExperimentConfig, out: Path) -> int:
    population = fs.generate(cfg.sim)
    examples = fs.observe(population, cfg.sim.draw_horizons)
    ds.save_csv(examples, out / "dataset.csv")
    fs.save_counterfactuals(population, out / "counterfactuals.csv")
    write_manifest(out, "simulate", cfg,
                   [out / "dataset.csv", out / "counterfactuals.csv"])
    accepted = sum(1 for r in population if r.labels["credit"])
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
                gamma=max(cfg.loss.gammas.values()),
                unlabeled_reduction=cfg.loss.unlabeled_reduction,
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
    splits, _ = _load_splits(data_dir, cfg)
    scope, counterfactuals = _scope(args.scope, data_dir)
    tag = args.model.replace(":", "-")
    rows = []
    seeds = []
    for seed in cfg.train.seeds:
        ckpt = run_dir / f"checkpoint-{tag}-seed{seed}.json"
        if not ckpt.exists():
            raise ConfigError(f"missing checkpoint {ckpt}")
        params, model_cfg = mo.load_checkpoint(ckpt)
        rows.append(ev.evaluate(params, model_cfg, splits.test, scope,
                                counterfactuals))
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
    values = cfg.sweep[args.param]
    final_targets = cfg.model.stages[-1][1]
    table: list[tuple[float, dict]] = []
    artifacts = []
    for value in values:
        if args.param == "corridor_dim":
            model_cfg = cfg.model.with_corridor_dim(int(value))
            loss_cfg = cfg.loss
        else:
            model_cfg = cfg.model
            loss_cfg = lo.LossConfig(
                dict(cfg.loss.stage_weights),
                {t: (0.0 if t == "credit" else float(value))
                 for t in cfg.loss.gammas},
                cfg.loss.unlabeled_reduction)
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
    examples = fs.observe(fs.generate(sim_cfg), sim_cfg.draw_horizons)
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


def cmd_report(args, cfg: ExperimentConfig, out: Path) -> int:
    named_rows: dict[str, list[dict]] = {}
    for item in args.runs:
        if "=" not in item:
            raise ConfigError(f"report expects name=rows.csv, got {item!r}")
        name, path = item.split("=", 1)
        named_rows[name] = _read_rows_csv(Path(path))
    baseline_rows = named_rows.get(args.baseline) if args.baseline else None
    if args.baseline and baseline_rows is None:
        raise ConfigError(f"baseline {args.baseline!r} not among run names")
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
        p.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV_VAR})")
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
    p.add_argument("--param", choices=["corridor_dim", "gamma"], required=True)
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
        return args.fn(args, cfg, _run_dir(args, cfg))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
