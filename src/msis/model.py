"""The multi-stage network: shared bottom, per-target towers, and the
information corridor that chains stages together.

Stage order encodes the business funnel. Each stage's tower outputs are
aggregated by intra-stage attention into a corridor vector, transformed,
and fused into every target of the next stage by inter-stage attention,
so later stages can read earlier interaction signals but never the other
way around.

Both passes compute on stacked tensors, (n_targets, batch, d): every
target's tower and fusion is one batched matmul over a group of the flat
parameter store, and one head over every target feeds one clamped sigmoid.
Each dense layer's weight rows and bias row sit next to each other in the
store, one (d_in + 1, d_out) block. `forward` records that on the tape
(training, attention inspection); `make_fused_forward` compiles the same
math, with no tape, into one list of in-place steps, each writing a
buffer carved from one flat scratch vector where the step is built,
because a value-only evaluation costs a fraction of building tape nodes.
There every buffer a dense layer reads carries a ones column, so the
layer, bias included, is one matmul by its block. Tests hold the two to
1e-12 relative.

`make_fused_forward` is the one source of compiled evaluators, for
scoring (`predict_probs`) and the gradient check's loss alike. It
compiles once per store, config and row count: the parameter store keeps
the last few evaluators, which read its live weights, and all of them
share the store's one scratch vector, so evaluators of one store run one
at a time.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import numerics as nm
from .config import from_dict, to_dict
from .dataset import DEFAULT_STAGES, TARGETS
from .errors import ConfigError, ContractError, DimensionError, DomainError
from .numerics import ParamStore

@dataclass(frozen=True)
class MsisConfig:
    input_dim: int = 32
    shared_widths: tuple[int, ...] = (64, 32)
    tower_widths: tuple[int, ...] = (16, 8)
    corridor_dim: int = 8
    stages: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_STAGES
    corridor_enabled: bool = True

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.corridor_dim < 1:
            raise ConfigError(f"corridor_dim must be >= 1, got {self.corridor_dim}")
        if any(w < 1 for w in self.shared_widths + self.tower_widths):
            raise ConfigError("layer widths must be positive")
        if not self.stages or any(not targets for _, targets in self.stages):
            raise ConfigError("every stage needs at least one target")
        flat = self.all_targets()
        if len(set(flat)) != len(flat):
            raise ConfigError("targets must be unique across stages")
        unknown = [t for t in flat if t not in TARGETS]
        if unknown:
            raise ConfigError(f"unknown targets {unknown}; must be among {TARGETS}")
        if self.uses_corridor:
            if not self.tower_widths:
                raise ConfigError("corridor requires at least one tower layer")
            if self.tower_widths[-1] != self.corridor_dim:
                raise ConfigError(
                    f"tower output width {self.tower_widths[-1]} must equal "
                    f"corridor_dim {self.corridor_dim}")

    def all_targets(self) -> tuple[str, ...]:
        return tuple(t for _, targets in self.stages for t in targets)

    @property
    def uses_corridor(self) -> bool:
        """Derived, not an option: a corridor needs two stages to chain."""
        return self.corridor_enabled and len(self.stages) > 1

    @property
    def rep_dim(self) -> int:
        return self.shared_widths[-1] if self.shared_widths else self.input_dim

    @property
    def tower_out_dim(self) -> int:
        return self.tower_widths[-1] if self.tower_widths else self.rep_dim

    def with_corridor_dim(self, d: int) -> "MsisConfig":
        widths = self.tower_widths[:-1] + (d,) if self.tower_widths else self.tower_widths
        return replace(self, corridor_dim=d, tower_widths=widths)


@dataclass
class CorridorState:
    """Attention bookkeeping for one stage pair, batch-shaped.

    e_ou (the source stage's corridor vector) and e_in (its transform) are
    tape nodes. alpha has one column per source-stage target; betas holds
    one (rows, 2) simplex per destination target, column 0 weighting the
    incoming corridor vector and column 1 the target's own tower. alpha
    and betas are batch-major views of the stacked attention weights on
    the tape, for reading only, so a replay of the tape updates them."""

    src: str
    dst: str
    e_ou: object
    e_in: object
    alpha: object
    betas: dict[str, object]


@dataclass
class ForwardResult:
    probs: dict[str, object]   # target -> (rows, 1) node
    corridor: dict[tuple[str, str], CorridorState]
    stacked: object            # (n_targets, rows) node, targets in stage order
    features: object = None    # the (rows, input_dim) constant the tape reads


def attend(keys, queries, values, dim: int):
    """Attention over the leading axis of stacked candidates.

    Candidate i scores each row by <keys_i, queries_i> / sqrt(dim); the
    softmax of the scores over the candidates weights the values_i. Returns
    the weighted sum and the (n_candidates, ..., 1) weights. Intra-stage
    attention runs it over a stage's targets, inter-stage fusion over the
    pair (incoming corridor vector, own tower) of every destination target
    at once."""
    weights = nm.softmax(nm.row_dot(keys, queries, 1.0 / math.sqrt(dim)), axis=0)
    return nm.sum_axis(nm.mul(weights, values), axis=0), weights


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

# each fusion side's three projections, in the order of their group's lead
# axis: the candidate itself, then the two that score it
FUSE_IN_PARTS = ("proj_in", "score_in.g1", "score_in.g2")
FUSE_SELF_PARTS = ("proj_self", "score_self.g1", "score_self.g2")


def init_params(config: MsisConfig, seed: int) -> ParamStore:
    """Create every trainable tensor, in a fixed order, from one seed.

    Corridor projections are only created where they carry gradient:
    source-side attention exists for every stage but the last (and its
    g1/g2 pair only when that stage has multiple targets), fusion
    parameters for every stage but the first.

    The store is then packed into one flat vector, each layer's weight rows
    followed by its bias row, so every dense layer is one
    (d_in + 1, d_out) block of the store's groups. Per-target layers that
    the forward passes run together sit next to each other, stacked into
    one block: tower layer i and the heads over all targets,
    (n_targets, ...); each fusion side of a stage,
    (3 parts, n_stage_targets, ...). Checkpoints and every other reader
    see ordinary named 2-D tensors."""
    config.validate()
    ps = ParamStore(seed)
    targets = config.all_targets()
    d = config.corridor_dim

    prev = config.input_dim
    for i, width in enumerate(config.shared_widths):
        ps.add_dense(f"shared.{i}", prev, width)
        prev = width
    dims = (config.rep_dim,) + config.tower_widths
    for t in targets:
        for i, width in enumerate(config.tower_widths):
            ps.add_dense(f"tower.{t}.{i}", dims[i], width)
    for t in targets:
        ps.add_dense(f"head.{t}", config.tower_out_dim, 1)
    if config.uses_corridor:
        for si in range(len(config.stages) - 1):
            sname, stargets = config.stages[si]
            if len(stargets) > 1:
                ps.add_dense(f"intra.{sname}.g1", d, d)
                ps.add_dense(f"intra.{sname}.g2", d, d)
            ps.add_dense(f"intra.{sname}.g3", d, d)
            ps.add_dense(f"corridor.{sname}-{config.stages[si + 1][0]}.f", d, d)
        for _, stargets in config.stages[1:]:
            for t in stargets:
                for part in ("proj_in", "proj_self", "score_in.g1", "score_in.g2",
                             "score_self.g1", "score_self.g2"):
                    ps.add_dense(f"fuse.{t}.{part}", d, d)

    stacks = {f"tower.{i}": [f"tower.{t}.{i}" for t in targets]
              for i in range(len(config.tower_widths))}
    stacks["head"] = [f"head.{t}" for t in targets]
    if config.uses_corridor:
        for sname, stargets in config.stages[1:]:
            for side, parts in (("in", FUSE_IN_PARTS), ("self", FUSE_SELF_PARTS)):
                stacks[f"fuse_{side}.{sname}"] = [
                    [f"fuse.{t}.{part}" for t in stargets] for part in parts]
    ps.pack(stacks)
    return ps


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

# rows per fused-forward evaluation in predict_probs: a store's scratch
# vector, sized to its largest evaluator, stays at about 2 MB
PREDICT_CHUNK_ROWS = 256
# evaluators a store keeps, the least recently used dropped first: each
# holds about 16 kB of views and closures, and a store that serves a few
# request sizes and one bulk tail keeps all of its shapes
EVALUATORS_KEPT = 8


def check_features(config: MsisConfig, features: np.ndarray) -> None:
    """Reject a feature matrix the model cannot score: it must be a
    non-empty, finite (batch, input_dim) array."""
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise DimensionError(
            f"features {features.shape} do not match input_dim {config.input_dim}")
    if features.shape[0] == 0:
        raise DimensionError("features hold no rows")
    if not np.isfinite(features).all():
        raise DomainError("features hold NaN or infinite values")


def forward(params: ParamStore, config: MsisConfig,
            features: np.ndarray) -> ForwardResult:
    """Run the full pipeline on a (batch, input_dim) feature matrix; the
    result holds tape nodes ready for a backward sweep. The tape reads its
    own copy of the features (`result.features`): refill it and
    `numerics.replay` the recorded tape to run other rows of the same
    count.

    Every target's tower, head and fusion runs in one op over the store's
    groups, as (n_targets, batch, d) tensors."""
    check_features(config, features)
    G = params.groups
    d = config.corridor_dim

    def projection(name: str, v):
        # corridor projections rectify leakily: an exact-zero output row
        # would park every downstream pre-activation on its kink
        return nm.leaky_relu(nm.dense_forward(v, G[name]))

    shared = inputs = nm.constant(features)
    for i in range(len(config.shared_widths)):
        shared = nm.relu(nm.dense_forward(shared, G[f"shared.{i}"]))
    towers = shared  # without tower layers, every head reads the shared rep
    for i in range(len(config.tower_widths)):
        if i > 0:
            towers = nm.relu(towers)
        towers = nm.dense_forward(towers, G[f"tower.{i}"])

    corridor: dict[tuple[str, str], CorridorState] = {}
    top = towers
    if config.uses_corridor:
        outs = []
        start = 0
        e_ou = alpha = None
        for si, (sname, targets) in enumerate(config.stages):
            out = own = nm.index(towers, slice(start, start + len(targets)))
            start += len(targets)
            if si > 0:
                prev = config.stages[si - 1][0]
                e_in = projection(f"corridor.{prev}-{sname}.f", e_ou)
                # (candidate: incoming, own) x (part: value, key, query)
                sides = [nm.index(nm.dense_forward(v, G[f"fuse_{side}.{sname}"]), None)
                         for v, side in ((e_in, "in"), (own, "self"))]
                cand = nm.leaky_relu(nm.concat(sides, axis=0))
                value, key, query = (nm.index(cand, (slice(None), k)) for k in range(3))
                out, beta = attend(key, query, value, d)
                corridor[(prev, sname)] = CorridorState(
                    prev, sname, e_ou, e_in, alpha,
                    {t: nm.Node(beta.value[:, j, :, 0].T) for j, t in enumerate(targets)})
            outs.append(out)
            if si < len(config.stages) - 1:
                g3 = projection(f"intra.{sname}.g3", out)
                if len(targets) == 1:  # nothing to attend over: alpha is exactly [1]
                    e_ou = nm.index(g3, 0)
                    alpha = nm.constant(np.ones((features.shape[0], 1)))
                else:
                    e_ou, weights = attend(projection(f"intra.{sname}.g1", out),
                                           projection(f"intra.{sname}.g2", out), g3, d)
                    alpha = nm.Node(weights.value[:, :, 0].T)
        top = nm.concat(outs, axis=0)

    probs = nm.sigmoid(nm.dense_forward(top, G["head"]))
    per_target = {t: nm.index(probs, i) for i, t in enumerate(config.all_targets())}
    return ForwardResult(per_target, corridor, nm.index(probs, (Ellipsis, 0)), inputs)


def predict_probs(params: ParamStore, config: MsisConfig,
                  features: np.ndarray) -> dict[str, np.ndarray]:
    """Per-target probabilities as flat vectors of a fresh array, scored
    through the fused forward PREDICT_CHUNK_ROWS rows at a time. Each chunk
    runs on the store's evaluator for its row count (make_fused_forward), so
    calls on one store must not overlap. Each chunk checks its own rows'
    width and values; a matrix with no rows has no chunk to check it."""
    if features.ndim != 2 or features.shape[0] == 0:
        check_features(config, features)  # raises
    probs = np.empty((len(config.all_targets()), len(features)))
    for start in range(0, len(features), PREDICT_CHUNK_ROWS):
        chunk = slice(start, start + PREDICT_CHUNK_ROWS)
        probs[:, chunk] = make_fused_forward(params, config, features[chunk])()
    return {t: probs[i] for i, t in enumerate(config.all_targets())}


class _Carver:
    """Consecutive views, of any shape, of a flat float64 vector from its
    start. A view asked for `ones` has one more column, which a dense layer
    that reads it multiplies by its bias row; the carver records the flat
    offsets of that column in `ones`, for the evaluator to keep at 1.
    Without a vector it only counts the scalars asked for and hands out
    zero-stride views of the asked shapes, which is how a compile measures
    the scratch it needs."""

    def __init__(self, flat: np.ndarray | None):
        self.flat, self.used = flat, 0
        self.ones: list[np.ndarray] = []

    def __call__(self, *shape: int, ones: bool = False) -> np.ndarray:
        start = self.used
        if ones:
            shape = shape[:-1] + (shape[-1] + 1,)
        self.used += math.prod(shape)
        if ones:  # the last entry of every row, one row length apart
            self.ones.append(np.arange(start + shape[-1] - 1, self.used, shape[-1]))
        if self.flat is None:
            return np.broadcast_to(0.0, shape)
        return self.flat[start:self.used].reshape(shape)  # ValueError past its end


def _scratch_size(params: ParamStore, config: MsisConfig, rows: int) -> int:
    """Scalars of scratch that a fused evaluator of this many rows carves,
    its input included."""
    count = _Carver(None)
    _compile_fused(params, config, rows, count)
    return count.used


def make_fused_forward(params: ParamStore, config: MsisConfig, features: np.ndarray):
    """A zero-argument evaluator of per-target probabilities for a
    (batch, input_dim) feature matrix: each call copies `features` into
    the evaluator's input, so refilling the matrix re-scores new rows, and
    returns a (n_targets, batch) array.

    The evaluator is the one the store keeps for (config, batch), compiled
    on the first call of that shape; the store keeps the EVALUATORS_KEPT
    most recently used. The compile looks every parameter block up once
    and builds one list of in-place steps in the order of the tape
    forward, one head and the clamped sigmoid over every target last.
    Each dense layer is one matmul: every buffer a dense layer reads, the
    input included, carries a trailing ones column that meets the bias
    row of the layer's (d_in + 1, d_out) block. Each step writes a view
    carved, as the step is built, from the store's one scratch vector; the
    input and the returned array are such views too, so a run overwrites
    what any other evaluator of the store returned, ones columns
    included, and evaluators must run one at a time (msis is
    single-threaded). Each run sets its ones columns in its first step
    and writes every other buffer before reading it. When the scratch must
    grow for a new shape, the store drops the evaluators carved from the old
    vector; an evaluator already handed out keeps that vector alive and
    stays valid. An evaluator holds the store's groups (views into its
    flat parameter vector, kept live because training, load_values and
    the best-epoch restore write that vector in place) but not the store.

    This is the path for every value-only evaluation: scoring through
    predict_probs, and the gradient check, which re-evaluates the loss
    twice per scalar parameter. Tests hold it to the tape forward at 1e-12
    relative."""
    check_features(config, features)
    rows = features.shape[0]
    key = (config, rows)
    cached = params.evaluators.pop(key, None)
    if cached is None:
        config.validate()
        if "head" not in params.groups:
            raise ContractError(
                "make_fused_forward needs the stacked parameter groups of init_params")
        need = _scratch_size(params, config, rows)
        if params.scratch.size < need:  # the evaluators carved from the old vector go
            params.evaluators.clear()
            params.scratch = np.empty(need)
        elif len(params.evaluators) == EVALUATORS_KEPT:  # drop the least recently used
            del params.evaluators[next(iter(params.evaluators))]
        cached = _compile_fused(params, config, rows, _Carver(params.scratch))
    params.evaluators[key] = chunk, run = cached  # insertion order is recency order

    def evaluate() -> np.ndarray:
        chunk[...] = features
        return run()

    return evaluate


def _compile_fused(params: ParamStore, config: MsisConfig, b: int, take: _Carver):
    """The (b, input_dim) input buffer and the evaluator that reads it: each
    builder below carves its output from `take` and appends the in-place
    steps that fill it to `steps`, which the evaluator runs. A step is a
    ufunc call with its arguments bound (`out` positional, which spares the
    call a keyword, where NumPy allows it) or a closure of several. As on
    the tape, the stacked tower buffer, each stage's fused rows written over
    its slice, is the concat that one head and the clamped sigmoid read.
    Every buffer that a dense layer reads is carved with a ones column, so
    `x @ w + b` is one matmul by the layer's block; the first step sets all
    of those columns, which `relu` and `leaky` leave at 1."""
    G = lambda name: params.groups[name].value
    mm, add, mul, sub = np.matmul, np.add, np.multiply, np.subtract
    d, scale = config.corridor_dim, 1.0 / math.sqrt(config.corridor_dim)
    ones_d = np.ones(d)  # row sums over d as matmuls: axis-2 .sum() is several times slower
    steps = []
    x = take(b, config.input_dim, ones=True)
    # every leaky's temporary; the largest is a fusion side, (3, n_stage_targets, b, d)
    spare = take(3 * max(len(t) for _, t in config.stages) * b * d if config.uses_corridor else 0)

    def dense(src, wb, ones=False):
        # with ones, the output carries its own column for the dense that reads it
        d_out = wb.shape[-1]
        out = take(*np.broadcast_shapes(src.shape[:-2], wb.shape[:-2]), src.shape[-2], d_out,
                   ones=ones)
        steps.append(partial(mm, src, wb, out[..., :d_out]))
        return out

    def relu(buf):
        steps.append(lambda: np.maximum(buf, 0.0, out=buf))
        return buf

    def leaky(buf):
        tmp = spare[:buf.size].reshape(buf.shape)
        steps.extend((partial(mul, buf, nm.LEAKY_SLOPE, tmp),
                      lambda: np.maximum(buf, tmp, out=buf)))
        return buf

    def projection(name: str, src, ones=False):
        return leaky(dense(src, G(name), ones))

    def fuse(e_in, own, sname: str):
        # value, key and query of both candidates, (part, target, b, d) as the groups;
        # the fused rows overwrite `own` but its ones column, and only the
        # fuse_self dense reads the tower rows they replace
        e = leaky(dense(e_in, G(f"fuse_in.{sname}")))
        h = leaky(dense(own, G(f"fuse_self.{sname}")))
        fused = own[..., :d]
        prod, s_in, s_self = take(*fused.shape), take(*own.shape[:2]), take(*own.shape[:2])

        @steps.append
        def _():  # a two-candidate softmax is the logistic of the score difference
            mul(e[1], e[2], out=prod)
            mm(prod, ones_d, out=s_in)
            mul(h[1], h[2], out=prod)
            mm(prod, ones_d, out=s_self)
            sub(s_in, s_self, out=s_in)
            mul(s_in, scale, out=s_in)
            expit(s_in, out=s_in)
            sub(1.0, s_in, out=s_self)
            # each candidate weighed in place, so only the sum writes the towers' strided rows
            mul(s_in[:, :, None], e[0], out=e[0])
            mul(s_self[:, :, None], h[0], out=h[0])
            add(e[0], h[0], out=fused)

    def attend(reps, sname: str):
        # the stage's corridor vector, with the ones column of the dense that reads it
        g3 = projection(f"intra.{sname}.g3", reps, ones=len(reps) == 1)
        if len(reps) == 1:  # nothing to attend over: alpha is exactly [1]
            return g3[0]
        g1 = projection(f"intra.{sname}.g1", reps)
        g2 = projection(f"intra.{sname}.g2", reps)
        score, zrow, e_ou = take(*reps.shape[:2]), take(b), take(b, d, ones=True)

        @steps.append
        def _():
            mul(g1, g2, out=g1)
            mm(g1, ones_d, out=score)
            mul(score, scale, out=score)
            score.max(axis=0, out=zrow)
            sub(score, zrow, out=score)
            np.exp(score, out=score)
            score.sum(axis=0, out=zrow)
            np.divide(score, zrow, out=score)
            mul(score[:, :, None], g3, out=g3)
            g3.sum(axis=0, out=e_ou[:, :d])
        return e_ou

    top = x
    for i in range(len(config.shared_widths)):
        top = relu(dense(top, G(f"shared.{i}"), ones=True))
    for i in range(len(config.tower_widths)):  # no tower layers: the heads read the shared rep
        top = dense(relu(top) if i else top, G(f"tower.{i}"), ones=True)

    if config.uses_corridor:  # each stage's slice of the towers becomes its fused rows
        start = 0
        for si, (sname, targets) in enumerate(config.stages):
            out = top[start:start + len(targets)]
            start += len(targets)
            if si > 0:
                prev = config.stages[si - 1][0]
                fuse(projection(f"corridor.{prev}-{sname}.f", e_ou, ones=True), out, sname)
            if si < len(config.stages) - 1:
                e_ou = attend(out, sname)

    probs = dense(top, G("head"))[:, :, 0]
    steps.extend((partial(expit, probs, probs),
                  partial(np.clip, probs, nm.CLAMP_EPS, 1.0 - nm.CLAMP_EPS, probs)))
    steps.insert(0, partial(operator.setitem, take.flat, np.concatenate(take.ones), 1.0))

    def run() -> np.ndarray:
        for step in steps:
            step()
        return probs

    return x[:, :-1], run


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "msis-checkpoint-v1"


def save_checkpoint(params: ParamStore, config: MsisConfig, path: str | Path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "seed": params.seed,
        "config": to_dict(config),
        "params": [[name, list(node.value.shape), node.value.ravel().tolist()]
                   for name, node in params.items()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str | Path) -> tuple[ParamStore, MsisConfig]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:
        raise ContractError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ContractError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    config = payload.get("config")
    # older files name the intra-stage attention's input; post_fusion is the only model
    if isinstance(config, dict) and config.pop("attention_input", "post_fusion") != "post_fusion":
        raise ContractError(f"{path}: only post_fusion attention_input models load")
    try:
        config = from_dict(MsisConfig, config, where="config")
        config.validate()
    except ConfigError as exc:
        raise ContractError(f"{path}: {exc}") from None
    seed = payload.get("seed")
    if type(seed) is not int or seed < 0:  # not a bool, not a float to truncate
        raise ContractError(f"{path}: seed must be a whole number >= 0, got {seed!r}")
    try:
        values = {name: np.array(flat, dtype=np.float64).reshape(shape)
                  for name, shape, flat in payload["params"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"{path}: malformed params ({exc!r})") from None
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ContractError(f"{path}: parameter {name!r} holds non-finite values")
    params = init_params(config, seed=seed)
    try:
        params.load_values(values)
    except (ContractError, DimensionError) as exc:
        raise ContractError(f"{path}: {exc}") from None
    return params, config
