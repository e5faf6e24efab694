"""Span recording for the benchmark's traced runs.

A Tracer wraps public msis functions with span recorders. Each span holds
its name, start and end (perf_counter nanoseconds), the index of the span
that was open when it started (its parent) and the id of the request it
belongs to. Spans stay in memory until the run ends.

A function is replaced at every module-level name in the msis package that
binds it, not only in the module that defines it: ``from .model import
predict_probs`` leaves a second reference in the importing module, and a
wrapper installed only at the definition would miss every call made through
that reference.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter_ns

# span name of the tracer's own counting work, kept out of the self time of
# the span around it
BOOKKEEPING = "trace.bookkeeping"


class TracingError(RuntimeError):
    """A traced function could not be found, or a span a workload must
    produce never appeared."""


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


@dataclass(frozen=True)
class Target:
    """One function to trace: ``qualname`` may be ``Class.method``.

    ``when`` decides per call whether to record a span; ``after`` runs once
    the span is closed and returns the value handed back to the caller."""

    module: str
    qualname: str
    span: str
    when: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        # each span: [name, start_ns, end_ns, parent index or -1, request id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._request_id = 0
        self._last_request_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, span: str, fn: Callable, when: Callable | None = None,
             after: Callable | None = None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            rec = [span, 0, 0, stack[-1] if stack else -1, self._request_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if after is not None:
                result = after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, kind: str):
        """A span ``bench.<kind>`` under a fresh request id; a request made
        inside another hands the id back to the outer one when it ends."""
        outer = self._request_id
        self._last_request_id += 1
        self._request_id = self._last_request_id
        try:
            with self.span(f"bench.{kind}"):
                yield
        finally:
            self._request_id = outer

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self._request_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _now()
        try:
            yield
        finally:
            rec[2] = _now()
            self._stack.pop()

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise TracingError("tracer is already installed")
        for target in self.targets:
            module = sys.modules.get(target.module)
            if module is None:
                raise TracingError(f"module {target.module} is not imported")
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                raise TracingError(f"{target.module}.{target.qualname} does not exist")
            wrapper = self.wrap(target.span, original, target.when, target.after)
            bindings = [(owner, attr)] if owner_name else _bindings(original)
            for holder, name in bindings:
                self._patches.append((holder, name, original))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) in the msis package bound to ``original``."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "msis" or modname.startswith("msis.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


# ---------------------------------------------------------------------------
# hooks for the msis functions the benchmark traces
# ---------------------------------------------------------------------------

def _graph_backend(args, kwargs) -> bool:
    # forward() with a value backend is the body of forward_values and
    # predict_probs; only the tape forward is a span of its own
    return len(args) < 4 and kwargs.get("ops") is None


def _count_rows(tracer, args, kwargs, result):
    tracer.counters["model.predict_probs_rows"] += _arg(args, kwargs, 2, "features").shape[0]
    return result


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.counters["dataset.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    return result


def _count_tape_nodes(tracer, args, kwargs, result):
    with tracer.span(BOOKKEEPING):
        root = _arg(args, kwargs, 0, "root")
        seen = {id(root)}
        todo = [root]
        while todo:
            for parent in todo.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        tracer.counters["numerics.tape_nodes"] += len(seen)
    return result


def _count_epochs(tracer, args, kwargs, result):
    tracer.counters["trainer.epochs"] += len(result[1].epochs)
    return result


def _trace_fused(tracer, args, kwargs, result):
    # the compiled evaluator is the fused forward path's per-call work
    return tracer.wrap("model.make_fused_forward", result)


def _trace_fast_value(tracer, args, kwargs, result):
    return tracer.wrap("loss.fast_value", result)


MSIS_TARGETS = [
    Target("msis.cli", "cmd_simulate", "cli.simulate"),
    Target("msis.funnel_sim", "generate", "funnel_sim.generate"),
    Target("msis.funnel_sim", "observe", "funnel_sim.observe"),
    Target("msis.funnel_sim", "save_counterfactuals", "funnel_sim.save_counterfactuals"),
    Target("msis.funnel_sim", "load_counterfactuals", "funnel_sim.load_counterfactuals"),
    Target("msis.dataset", "save_csv", "dataset.save_csv", after=_count_csv_bytes),
    Target("msis.dataset", "load_csv", "dataset.load_csv"),
    Target("msis.dataset", "batches", "dataset.batches"),
    Target("msis.dataset", "make_batch", "dataset.make_batch"),
    Target("msis.model", "forward", "model.forward", when=_graph_backend),
    Target("msis.model", "predict_probs", "model.predict_probs", after=_count_rows),
    Target("msis.model", "make_fused_forward", "model.make_fused_forward",
           after=_trace_fused),
    Target("msis.model", "save_checkpoint", "model.save_checkpoint"),
    Target("msis.model", "load_checkpoint", "model.load_checkpoint"),
    Target("msis.loss", "total_loss", "loss.total_loss"),
    Target("msis.loss", "make_fast_loss_value_fn", "loss.make_fast_loss_value_fn",
           after=_trace_fast_value),
    Target("msis.numerics", "backward_sweep", "numerics.backward_sweep",
           after=_count_tape_nodes),
    Target("msis.numerics", "finite_diff_check", "numerics.finite_diff_check"),
    Target("msis.trainer", "train_run", "trainer.train_run", after=_count_epochs),
    Target("msis.trainer", "Adam.step", "trainer.adam_step"),
    Target("msis.evaluation", "auc", "evaluation.auc"),
    Target("msis.evaluation", "evaluate", "evaluation.evaluate"),
]

# span names every traced run can report, in report order
SPAN_NAMES = [t.span for t in MSIS_TARGETS] + ["loss.fast_value"]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

@dataclass
class Analysis:
    self_s: dict[str, float]      # per span name, summed self time
    calls: dict[str, int]
    accounted_s: float            # summed self time of every span
    diagnostics_share: float      # of train_run time, see trainer.diagnostics_share


def analyse(spans: list[list]) -> Analysis:
    """Self time is a span's duration minus the time its child spans cover.

    Children run synchronously inside their parent, so they never overlap
    and the self times of all spans add up to the durations of the root
    spans exactly."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    diag_ns = 0
    train_ns = 0
    for i, (name, _, _, parent, _) in enumerate(spans):
        self_ns[name] += dur[i] - child[i]
        calls[name] += 1
        if name == "trainer.train_run":
            train_ns += dur[i]
        elif (name in ("model.predict_probs", "evaluation.auc") and parent >= 0
              and spans[parent][0] == "trainer.train_run"):
            diag_ns += dur[i]
    return Analysis(
        self_s={name: ns / 1e9 for name, ns in self_ns.items()},
        calls=dict(calls),
        accounted_s=sum(self_ns.values()) / 1e9,
        diagnostics_share=diag_ns / train_ns if train_ns else 0.0)


def write_spans(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        fh.write("index,parent,request,name,start_ns,end_ns\n")
        for i, (name, start, end, parent, request) in enumerate(spans):
            fh.write(f"{i},{parent},{request},{name},{start},{end}\n")
