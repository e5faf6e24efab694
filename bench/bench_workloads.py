"""Workloads, correctness checks and metrics of the msis benchmark.

run.py puts the repository's ``src`` first on the import path before this
module is imported. Every call into the program goes through a module
attribute of a public msis function (``mo.predict_probs``, not a name bound
here), so a traced run sees it.

One process and one closed-loop client make all the load: the next request
is sent when the previous one has returned. Nothing here starts a thread or
a process.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from msis import cli
from msis import dataset as ds
from msis import evaluation as ev
from msis import funnel_sim as fs
from msis import loss as lo
from msis import model as mo
from msis import numerics as nm
from msis import trainer as tr

from bench_tracing import (BOOKKEEPING, MSIS_TARGETS, SPAN_NAMES, Tracer,
                           TracingError, analyse, write_spans)

perf = time.perf_counter
GB_TARGETS = ("mob1", "mob3", "mob6")
ONLINE_REL_TOL = 1e-12
_NO_SPAN = contextlib.nullcontext()


def _untraced(kind: str):
    return _NO_SPAN


@dataclass(frozen=True)
class Size:
    n: int                   # applications simulated per set-up
    setups: int              # set-ups per run; setup_s is their median
    train_epochs: int        # epoch budget of each train_staged train_run
    ckpt_epochs: int         # epoch budget of the score_mixed checkpoint
    online_per_bulk: int     # single-applicant requests between bulk passes
    check_every: int         # every k-th online request is checked on the tape
    gc_batch: int            # rows in each gradient-check batch
    gc_model: mo.MsisConfig  # model swept by the gradient check


SIZES = {
    "full": Size(n=4000, setups=3, train_epochs=3, ckpt_epochs=2,
                 online_per_bulk=100, check_every=20, gc_batch=64,
                 gc_model=mo.MsisConfig()),
    # for the smoke test: every code path, a few seconds per workload
    "tiny": Size(n=600, setups=1, train_epochs=2, ckpt_epochs=2,
                 online_per_bulk=20, check_every=5, gc_batch=8,
                 gc_model=mo.MsisConfig(shared_widths=(8,), tower_widths=(2,),
                                        corridor_dim=2)),
}

# reported with --trace 0: the same four on every workload
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "request_ms_p50": "ms",
}

# reported with --trace 1. Span self times that some workload never
# exercises appear in the printed report, not here.
PER_LAYER_UNITS = {
    "cli.simulate_s": "s",
    "funnel_sim.generate_s": "s",
    "funnel_sim.observe_s": "s",
    "funnel_sim.save_counterfactuals_s": "s",
    "dataset.save_csv_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.csv_bytes": "count",
    "dataset.make_batch_s": "s",
    "dataset.batches_calls": "count",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.predict_probs_calls": "count",
    "model.predict_probs_rows": "count",
    "loss.total_loss_s": "s",
    "loss.fast_value_calls": "count",
    "numerics.backward_sweep_s": "s",
    "numerics.tape_nodes_per_step": "count",
    "trainer.steps": "count",
    "trainer.epochs": "count",
    "trainer.diagnostics_share": "share",
    "evaluation.auc_calls": "count",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.spans": "count",
    "trace.overhead_share": "share",
}


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95),
                     ("p90", 0.90), ("p75", 0.75)):
        if n * (1.0 - q) >= 10:
            return label, float(np.quantile(samples, q))
    return None


def timing_lines(name: str, seconds: list[float]) -> list[str]:
    """Median and tail of a timing in ms, with the sample count."""
    ms = [s * 1e3 for s in seconds]
    lines = [f"{name}_ms_p50 = {statistics.median(ms):.6g} ms (n={len(ms)})"]
    t = tail(ms)
    lines.append(f"{name}_ms_{t[0]} = {t[1]:.6g} ms (n={len(ms)})" if t
                 else f"{name}_ms tail: fewer than 20 samples")
    return lines


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Kernel time the gated timings are scaled to; the kernel took 0.7 to 1.2 ms
# on the 2-vCPU host the bounds were set on.
REFERENCE_PROBE_S = 1.0e-3
PROBE_INTERVAL_S = 0.25
PROBE_REPEATS = 5


class HostClock:
    """Measures how fast the host runs right now.

    On a shared machine the speed of the whole host changes by tens of
    percent, within a run as well as between runs. A fixed kernel of small
    NumPy calls and interpreter work, which touches no msis code, is timed
    in short bursts between requests. Dividing a request's time by the
    kernel's slowdown in the bursts around it cancels the host's share of
    the change and keeps any change in msis itself."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 32))
        self._w = rng.standard_normal((32, 16))
        self.burst_t: list[float] = []   # when each burst ended
        self.burst_s: list[float] = []   # its median kernel time
        self._due = 0.0

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(100):
            h = self._x @ self._w
            np.maximum(h, 0.0, out=h)
            acc += float(h.sum())
            acc += sum({j: j * i for j in range(20)}.values())
        return acc

    def due(self) -> bool:
        return perf() >= self._due

    def probe(self) -> None:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf()
            self._kernel()
            times.append(perf() - t0)
        self.burst_t.append(perf())
        self.burst_s.append(statistics.median(times))
        self._due = perf() + PROBE_INTERVAL_S

    def slowdown(self, t0: float, t1: float) -> float:
        """How slow the host ran over [t0, t1]: 1.0 at the reference speed,
        2.0 at half of it. Uses the bursts inside the interval and the
        nearest one on each side."""
        lo = bisect.bisect_left(self.burst_t, t0)
        hi = bisect.bisect_right(self.burst_t, t1)
        return statistics.median(self.burst_s[max(lo - 1, 0):hi + 1]) / REFERENCE_PROBE_S


# ---------------------------------------------------------------------------
# run context and outcome bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Context:
    seed: int
    size: Size
    work_dir: Path
    attempted: int = 0
    failed: int = 0
    clock: HostClock = field(default_factory=HostClock)

    def calibrate(self, request, force: bool = False) -> None:
        if force or self.clock.due():
            with request("calibrate"):
                self.clock.probe()

    def record(self, ok: bool) -> None:
        """Count one operation; it failed if it raised or a check on its
        output failed."""
        self.attempted += 1
        self.failed += not ok


def check(ok: bool, what: str) -> bool:
    if not ok:
        print(f"FAILED: {what}", file=sys.stderr)
    return ok


def crashed(what: str) -> bool:
    print(f"FAILED: {what} raised", file=sys.stderr)
    traceback.print_exc()
    return False


@dataclass
class Phase:
    """What one measured phase produced: work rate and request times
    scaled to the reference host speed, and the raw work rate."""
    work_per_s: float
    request_s: list[float]
    raw_work_per_s: float
    raw_request_s: list[float]
    report: list[str]


@dataclass
class Data:
    splits: ds.Splits
    counterfactuals: dict | None


def prepare_data(ctx: Context, rep: int, with_counterfactuals: bool) -> Data:
    """Simulate through the CLI, load the CSV, split out of time and
    standardize on the training split."""
    out = ctx.work_dir / f"data{rep}"
    code = cli.main(["simulate", "--set", f"sim.n={ctx.size.n}",
                     "--set", f"sim.seed={ctx.seed}", "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"msis simulate exited with {code}")
    examples = ds.load_csv(out / "dataset.csv")
    counterfactuals = (fs.load_counterfactuals(out / "counterfactuals.csv")
                       if with_counterfactuals else None)
    cutoff = fs.oot_cutoff_day(fs.SimConfig(n=ctx.size.n, seed=ctx.seed))
    splits = ds.split_oot(examples, cutoff, seed=ctx.seed)
    standardizer = ds.Standardizer.fit(splits.train)
    splits = ds.Splits(*(standardizer.apply(part) for part in
                         (splits.train, splits.validation, splits.test)))
    return Data(splits, counterfactuals)


def train_config(epochs: int, seed: int) -> tr.TrainConfig:
    # patience epochs - 1 can stop a run only after its last epoch, so
    # every run does the whole budget
    return tr.TrainConfig(epochs=epochs, batch_size=64, patience=epochs - 1,
                          seeds=(seed,))


def param_bytes(params) -> bytes:
    return b"".join(name.encode() + node.value.tobytes() for name, node in params.items())


def gb_auc(aucs: dict, what: str) -> tuple[float, bool]:
    """Mean full-population AUC of the repayment targets, and whether all
    of them were defined."""
    values = [aucs.get(t) for t in GB_TARGETS]
    ok = check(all(v is not None and 0.0 <= v <= 1.0 for v in values),
               f"{what}: full-population AUC undefined for a repayment target: {aucs}")
    defined = [v for v in values if v is not None]
    return (float(np.mean(defined)) if defined else float("nan")), ok


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainStaged:
    """Researchers' loop: train_run on the default staged model again and
    again, then score full-population AUC on the test split."""

    name = "train_staged"
    required_spans = ("funnel_sim.load_counterfactuals", "dataset.batches",
                      "trainer.train_run", "trainer.adam_step", "model.predict_probs",
                      "evaluation.auc", "evaluation.evaluate")

    def setup(self, ctx: Context, rep: int):
        return prepare_data(ctx, rep, with_counterfactuals=True)

    def measure(self, ctx: Context, data: Data, seconds: float, request) -> Phase:
        model_cfg, loss_cfg = mo.MsisConfig(), lo.LossConfig()
        train_cfg = train_config(ctx.size.train_epochs, ctx.seed)
        n_train = len(data.splits.train)
        times, rates, spans = [], [], []
        reference = params = None
        ctx.calibrate(request, force=True)
        deadline = perf() + seconds
        while perf() < deadline:
            ctx.calibrate(request)
            with request("train"):
                t0 = perf()
                try:
                    params, history = tr.train_run(model_cfg, loss_cfg, train_cfg,
                                                   data.splits, ctx.seed)
                except Exception:
                    ctx.record(crashed("train_run"))
                    continue
                dt = perf() - t0
            times.append(dt)
            spans.append((t0, t0 + dt))
            rates.append(len(history.epochs) * n_train / dt)
            snapshot = param_bytes(params)
            reference = reference or snapshot
            ctx.record(
                check(snapshot == reference,
                      "train_run with the same seed returned different parameters")
                & check(len(history.epochs) == train_cfg.epochs,
                        f"train_run stopped after {len(history.epochs)} epochs")
                & check(all(math.isfinite(r.train_loss) for r in history.epochs),
                        "non-finite training loss"))
        if not times:
            raise RuntimeError("no train_run call succeeded")
        ctx.calibrate(request, force=True)
        with request("final_auc"):
            try:
                aucs = ev.evaluate(params, model_cfg, data.splits.test,
                                   ev.FULL_POPULATION, data.counterfactuals)
                auc_gb, ok = gb_auc(aucs, "final test scoring")
            except Exception:
                auc_gb, ok = float("nan"), crashed("evaluate")
        ctx.record(ok)
        report = [f"train.rows_per_s = {statistics.median(rates):.6g} rows/s "
                  f"(median of n={len(rates)} train_run calls, "
                  f"{train_cfg.epochs} epochs x {n_train} rows)",
                  f"train.auc_gb_full = {auc_gb:.6f} AUC"]
        report += timing_lines("train.run", times)
        slow = [ctx.clock.slowdown(a, b) for a, b in spans]
        return Phase(statistics.median(r * f for r, f in zip(rates, slow)),
                     [t / f for t, f in zip(times, slow)],
                     statistics.median(rates), times, report)


class ScoreMixed:
    """Serving a trained checkpoint: single-applicant requests with a
    periodic bulk rescoring of the whole test split."""

    name = "score_mixed"
    required_spans = ("funnel_sim.load_counterfactuals", "trainer.train_run",
                      "model.save_checkpoint", "model.load_checkpoint",
                      "model.predict_probs", "evaluation.evaluate", "evaluation.auc")

    def setup(self, ctx: Context, rep: int):
        data = prepare_data(ctx, rep, with_counterfactuals=True)
        model_cfg = mo.MsisConfig()
        trained, _ = tr.train_run(model_cfg, lo.LossConfig(),
                                  train_config(ctx.size.ckpt_epochs, ctx.seed),
                                  data.splits, ctx.seed)
        path = ctx.work_dir / f"checkpoint{rep}.json"
        mo.save_checkpoint(trained, model_cfg, path)
        params, loaded_cfg = mo.load_checkpoint(path)
        if param_bytes(params) != param_bytes(trained) or loaded_cfg != model_cfg:
            raise RuntimeError("checkpoint round trip changed the model")
        features = np.stack([ex.features for ex in data.splits.test])
        order = np.random.default_rng([ctx.seed, rep]).permutation(len(features))
        return data, params, loaded_cfg, features, order

    def measure(self, ctx: Context, state, seconds: float, request) -> Phase:
        data, params, model_cfg, features, order = state
        test = data.splits.test
        online, bulk, online_t, bulk_t = [], [], [], []
        reference = None
        aucs = {}
        i = 0
        ctx.calibrate(request, force=True)
        deadline = perf() + seconds
        while perf() < deadline:
            for _ in range(ctx.size.online_per_bulk):
                ctx.calibrate(request)
                row = features[order[i % len(order)]][None, :]
                checked = i % ctx.size.check_every == 0
                i += 1
                with request("online"):
                    t0 = perf()
                    try:
                        served = mo.predict_probs(params, model_cfg, row)
                    except Exception:
                        ctx.record(crashed("online predict_probs"))
                        continue
                    online.append(perf() - t0)
                    online_t.append(t0)
                if checked:
                    with request("check"):
                        ctx.record(self._matches_tape(params, model_cfg, row, served))
                else:
                    ctx.record(True)
            with request("bulk"):
                t0 = perf()
                try:
                    aucs = ev.evaluate(params, model_cfg, test, ev.FULL_POPULATION,
                                       data.counterfactuals)
                except Exception:
                    ctx.record(crashed("bulk evaluate"))
                    continue
                bulk.append(perf() - t0)
                bulk_t.append(t0)
            reference = reference or aucs
            ctx.record(check(aucs == reference, "bulk rescoring of a fixed model changed")
                       & gb_auc(aucs, "bulk rescoring")[1])
        if not online or not bulk:
            raise RuntimeError("no online or no bulk request succeeded")
        ctx.calibrate(request, force=True)
        report = timing_lines("score.online", online)
        report += [f"score.bulk_rows_per_s = {len(test) / statistics.median(bulk):.6g} rows/s "
                   f"(median of n={len(bulk)} passes over {len(test)} rows)",
                   f"score.auc_gb_full = {gb_auc(aucs, 'bulk rescoring')[0]:.6f} AUC"]
        report += timing_lines("score.bulk", bulk)
        clock = ctx.clock
        bulk_n = [dt / clock.slowdown(t, t + dt) for t, dt in zip(bulk_t, bulk)]
        online_n = [dt / clock.slowdown(t, t + dt) for t, dt in zip(online_t, online)]
        return Phase(len(test) / statistics.median(bulk_n), online_n,
                     len(test) / statistics.median(bulk), online, report)

    @staticmethod
    def _matches_tape(params, model_cfg, row, served) -> bool:
        try:
            tape = mo.forward(params, model_cfg, row).probs
        except Exception:
            return crashed("tape forward check")
        worst = max(abs(served[t][0] - tape[t].value[0, 0]) / abs(tape[t].value[0, 0])
                    for t in model_cfg.all_targets())
        return check(worst <= ONLINE_REL_TOL and served.keys() == tape.keys(),
                     f"served probability differs from the tape forward by {worst:.3g} "
                     "relative")


class GradcheckSweep:
    """msis gradcheck's inner loop: a finite-difference sweep over every
    scalar of the model with the fused value function."""

    name = "gradcheck_sweep"
    required_spans = ("numerics.finite_diff_check", "loss.make_fast_loss_value_fn",
                      "loss.fast_value", "model.make_fused_forward")

    def setup(self, ctx: Context, rep: int):
        return prepare_data(ctx, rep, with_counterfactuals=False)

    def measure(self, ctx: Context, data: Data, seconds: float, request) -> Phase:
        model_cfg, loss_cfg = ctx.size.gc_model, lo.LossConfig()
        examples = data.splits.train
        sweeps, evals_per_s, latencies, starts, sweep_t = [], [], [], [], []
        lat_append = latencies.append
        start_append = starts.append
        ns = time.perf_counter_ns
        k = 0
        ctx.calibrate(request, force=True)
        deadline = perf() + seconds
        while perf() < deadline:
            probing = [0.0]  # calibration time inside this sweep, left out of it
            # one sweep as msis gradcheck makes it for one seed
            with request("sweep"):
                t0 = perf()
                try:
                    rng = np.random.default_rng([ctx.seed, k])
                    rows = [examples[j] for j in rng.choice(len(examples), ctx.size.gc_batch,
                                                             replace=False)]
                    batch = ds.make_batch(rows)
                    params = mo.init_params(model_cfg, ctx.seed + k)
                    loss_fn = lambda: lo.total_loss(
                        mo.forward(params, model_cfg, batch.features), batch, loss_cfg,
                        model_cfg.stages).total
                    value_fn = lo.make_fast_loss_value_fn(params, model_cfg, loss_cfg, batch)

                    def timed_value():
                        if ctx.clock.due():
                            p0 = perf()
                            ctx.calibrate(request)
                            probing[0] += perf() - p0
                        start = ns()
                        value = value_fn()
                        lat_append(ns() - start)
                        start_append(start)
                        return value

                    report = nm.finite_diff_check(params, loss_fn, value_fn=timed_value)
                except Exception:
                    ctx.record(crashed(f"gradient check sweep {k}"))
                    k += 1
                    continue
                dt = perf() - t0 - probing[0]
            k += 1
            sweeps.append(dt)
            sweep_t.append((t0, perf()))
            # 2 per scalar, 2 determinism probes and one tape evaluation
            evals_per_s.append((2 * report.n_scalars + 3) / dt)
            ctx.record(check(report.passed, f"gradient check failed: {report}")
                       & check(report.n_scalars == params.n_scalars(),
                               f"swept {report.n_scalars} of {params.n_scalars()} scalars"))
        if not sweeps:
            raise RuntimeError("no gradient check sweep succeeded")
        ctx.calibrate(request, force=True)
        latency_s = [v / 1e9 for v in latencies]
        clock = ctx.clock
        slow = [clock.slowdown(a, b) for a, b in sweep_t]
        # perf_counter_ns and perf_counter read the same clock
        latency_n = [v / 1e9 / clock.slowdown(t / 1e9, (t + v) / 1e9)
                     for t, v in zip(starts, latencies)]
        report = [f"gradcheck.evals_per_s = {statistics.median(evals_per_s):.6g} evals/s "
                  f"(median of n={len(sweeps)} sweeps over "
                  f"{params.n_scalars()} scalars)"]
        report += timing_lines("gradcheck.sweep", sweeps)
        report += timing_lines("gradcheck.eval", latency_s)
        return Phase(statistics.median(e * f for e, f in zip(evals_per_s, slow)), latency_n,
                     statistics.median(evals_per_s), latency_s, report)


WORKLOADS = {w.name: w for w in (TrainStaged(), ScoreMixed(), GradcheckSweep())}

COMMON_SPANS = ("cli.simulate", "funnel_sim.generate", "funnel_sim.observe",
                "funnel_sim.save_counterfactuals", "dataset.save_csv", "dataset.load_csv",
                "dataset.make_batch", "model.forward", "loss.total_loss",
                "numerics.backward_sweep")


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def per_layer_metrics(tracer: Tracer, wall_s: float, overhead: float) -> dict[str, float]:
    """Every per-layer figure of a traced run: self time and calls per span,
    the counters, and the accounting of the traced wall time."""
    a = analyse(tracer.spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = a.self_s.get(name, 0.0)
        out[f"{name}_calls"] = a.calls.get(name, 0)
    steps = a.calls.get("trainer.adam_step", 0)
    sweeps = a.calls.get("numerics.backward_sweep", 0)
    saves = a.calls.get("dataset.save_csv", 0)
    out.update({
        "dataset.csv_bytes": tracer.counters["dataset.csv_bytes"] / saves if saves else 0,
        "model.predict_probs_rows": tracer.counters["model.predict_probs_rows"],
        "numerics.tape_nodes_per_step":
            tracer.counters["numerics.tape_nodes"] / sweeps if sweeps else 0,
        "trainer.steps": steps,
        "trainer.epochs": tracer.counters["trainer.epochs"],
        "trainer.diagnostics_share": a.diagnostics_share,
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - a.accounted_s,
        "trace.bookkeeping_s": a.self_s.get(BOOKKEEPING, 0.0),
        "trace.spans": len(tracer.spans),
        "trace.overhead_share": overhead,
    })
    for name, seconds in sorted(a.self_s.items()):
        if name.startswith("bench."):
            out[f"{name}_s"] = seconds
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, size_name: str) -> int:
    workload = WORKLOADS[workload_name]
    size = SIZES[size_name]
    out_dir = Path.cwd() / ".bench_out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    ctx = Context(seed, size, work_dir)
    tracer = Tracer(MSIS_TARGETS) if trace else None
    setup_times = []
    try:
        if tracer:
            tracer.install()
        request = tracer.request if tracer else _untraced
        t_start = perf()
        for rep in range(size.setups):
            ctx.calibrate(request, force=True)
            with request("setup"):
                t0 = perf()
                state = workload.setup(ctx, rep)
                setup_times.append((t0, perf() - t0))
            ctx.record(True)
        ctx.calibrate(request, force=True)
        setup_wall = perf() - t_start
        if tracer:
            tracer.uninstall()
        base = workload.measure(ctx, state, seconds, _untraced)
        if tracer:
            tracer.install()
            t0 = perf()
            traced = workload.measure(ctx, state, seconds, tracer.request)
            traced_wall = perf() - t0
            tracer.uninstall()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload_name} seed {seed} size {size_name} "
          f"measured {seconds:g} s per phase")
    for line in base.report:
        print(line)
    print(f"error_rate = {ctx.failed / max(ctx.attempted, 1):.6g} "
          f"({ctx.failed} of {ctx.attempted} operations failed)")

    rss = peak_rss_mb()
    raw = {
        "setup_s": statistics.median(dt for _, dt in setup_times),
        "peak_rss_mb": rss,
        "work_per_s": base.raw_work_per_s,
        "request_ms_p50": statistics.median(base.raw_request_s) * 1e3,
    }
    # timings at the reference host speed; see HostClock
    e2e = {
        "setup_s": statistics.median(dt / ctx.clock.slowdown(t, t + dt)
                                     for t, dt in setup_times),
        "peak_rss_mb": rss,
        "work_per_s": base.work_per_s,
        "request_ms_p50": statistics.median(base.request_s) * 1e3,
    }
    for name, value in raw.items():
        print(f"raw {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"host slowdown while measuring: {e2e['work_per_s'] / raw['work_per_s']:.4f} "
          f"(calibration kernel time / {REFERENCE_PROBE_S:g} s)")
    result = {"workload": workload_name, "seed": seed, "size": size_name,
              "seconds": seconds, "environment": env, "report": base.report,
              "setup_s_samples": [dt for _, dt in setup_times],
              "raw_end_to_end": raw, "end_to_end": e2e}
    if tracer:
        missing = [s for s in COMMON_SPANS + workload.required_spans
                   if not any(sp[0] == s for sp in tracer.spans)]
        if missing:
            raise TracingError(f"traced run of {workload_name} produced no span for "
                               f"{', '.join(missing)}: a traced function is no longer "
                               "reached through the name the tracer patched")
        overhead = base.work_per_s / traced.work_per_s - 1.0
        layers = per_layer_metrics(tracer, setup_wall + traced_wall, overhead)
        for name, value in layers.items():
            print(f"layer {name} = {value:.6g}")
        print(f"traced wall {layers['trace.wall_s']:.6g} s: span self times "
              f"{layers['trace.wall_s'] - layers['trace.unaccounted_s']:.6g} s, "
              f"unaccounted {layers['trace.unaccounted_s']:.6g} s; tracing overhead "
              f"{overhead:+.2%} on work_per_s")
        result["per_layer"] = layers
        spans_path = out_dir / f"spans-{workload_name}-seed{seed}.csv"
        write_spans(tracer.spans, spans_path)
        print(f"spans written to {spans_path}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    result_path = out_dir / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0
