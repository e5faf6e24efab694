"""The multi-stage network: shared bottom, per-target towers, and the
information corridor that chains stages together.

Stage order encodes the business funnel. Each stage's tower outputs are
aggregated by intra-stage attention into a corridor vector, transformed,
and fused into every target of the next stage by inter-stage attention,
so later stages can read earlier interaction signals but never the other
way around.

Both passes compute on stacked tensors, (n_targets, batch, d): every
target's tower and fusion is one batched matmul over a group of the flat
parameter store, a stage's three intra-stage projections are one more,
and one head over every target feeds one clamped sigmoid. Each dense
layer's weight rows and bias row sit next to each other in the store, one
(d_in + 1, d_out) block. `forward` records that on the tape
(training, attention inspection), each attention, intra-stage and
inter-stage alike, one `numerics.attention` op over a part-major
(3 parts, n_candidates, ...) node of keys, queries and values, laid out
as the fused evaluator lays out a fusion's candidates: there, too, both
fusion sides' dense layers write their halves of one candidate buffer in
place (`dense_forward`'s `out`), which one `numerics.join` node presents
to the attention with no copy. A step of the default model, loss
included, is 49 tape nodes. `make_fused_forward` compiles the same
math, with no tape, into one list of in-place steps, each writing a
buffer allocated where the step is built, because a value-only
evaluation costs a fraction of building tape nodes. There every buffer a
dense layer reads carries a ones column, set once at compile time, so
the layer, bias included, is one matmul by its block, and both
candidates of a fusion share one buffer, so one step scores them. Tests
hold the two to 1e-12 relative.

`make_fused_forward` is the one source of compiled evaluators, for
scoring (`predict_probs`) and the gradient check's loss alike. It
compiles once per store, config and row count: the parameter store keeps
the last few evaluators, which read its live weights. Each evaluator
owns its buffers, so evaluators of one store share no memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import numerics as nm
from .config import check_array_entries, from_dict, to_dict
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

    def __post_init__(self) -> None:
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
        # the store lays out every parameter in one vector
        check_array_entries(sum((fan_in + 1) * fan_out for _, fan_in, fan_out
                                in dense_layers(self)), "the model's parameters")

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
    and betas are batch-major views of the weights buffers of the tape's
    attention ops, for reading only, so a replay of the tape updates them."""

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


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

# each fusion side's three projections, in the order of their group's lead
# axis: the candidate itself, then the two that score it
FUSE_IN_PARTS = ("proj_in", "score_in.g1", "score_in.g2")
FUSE_SELF_PARTS = ("proj_self", "score_self.g1", "score_self.g2")


def dense_layers(config: MsisConfig) -> list[tuple[str, int, int]]:
    """Every dense layer of a valid config as (name, fan_in, fan_out), in
    the order init_params creates them.

    Corridor projections are only created where they carry gradient:
    source-side attention exists for every stage but the last (and its
    g1/g2 pair only when that stage has multiple targets), fusion
    parameters for every stage but the first."""
    targets = config.all_targets()
    d = config.corridor_dim
    widths = (config.input_dim,) + config.shared_widths
    layers = [(f"shared.{i}", widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    dims = (config.rep_dim,) + config.tower_widths
    layers += [(f"tower.{t}.{i}", dims[i], dims[i + 1])
               for t in targets for i in range(len(config.tower_widths))]
    layers += [(f"head.{t}", config.tower_out_dim, 1) for t in targets]
    if config.uses_corridor:
        for si in range(len(config.stages) - 1):
            sname, stargets = config.stages[si]
            names = ["g1", "g2", "g3"] if len(stargets) > 1 else ["g3"]
            layers += [(f"intra.{sname}.{g}", d, d) for g in names]
            layers.append((f"corridor.{sname}-{config.stages[si + 1][0]}.f", d, d))
        layers += [(f"fuse.{t}.{part}", d, d) for _, stargets in config.stages[1:]
                   for t in stargets
                   for part in ("proj_in", "proj_self", "score_in.g1", "score_in.g2",
                                "score_self.g1", "score_self.g2")]
    return layers


def param_shapes(config: MsisConfig) -> dict[str, tuple[int, int]]:
    """The name and shape of every tensor init_params creates: each dense
    layer's weight `.w`, (fan_in, fan_out), and bias `.b`, (1, fan_out)."""
    return {f"{name}.{part}": shape for name, fan_in, fan_out in dense_layers(config)
            for part, shape in (("w", (fan_in, fan_out)), ("b", (1, fan_out)))}


def param_groups(config: MsisConfig) -> dict[str, str | list]:
    """The store's groups of dense layers, in layout order.

    First the per-target layers that the forward passes run together,
    each stack one block: tower layer i and the heads over all targets,
    (n_targets, ...); each fusion side of a stage,
    (3 parts, n_stage_targets, ...); and the g1, g2 and g3 projections of
    a stage with more than one target that feeds a corridor, (3, 1, ...),
    which broadcasts against the stage's (n_stage_targets, batch, d + 1)
    rows. Then every other layer of `dense_layers`, in its order, as its
    own 0-lead block."""
    targets = config.all_targets()
    groups: dict[str, str | list] = {
        f"tower.{i}": [f"tower.{t}.{i}" for t in targets]
        for i in range(len(config.tower_widths))}
    groups["head"] = [f"head.{t}" for t in targets]
    if config.uses_corridor:
        for sname, stargets in config.stages[:-1]:
            if len(stargets) > 1:
                groups[f"intra.{sname}"] = [[f"intra.{sname}.{g}"] for g in ("g1", "g2", "g3")]
        for sname, stargets in config.stages[1:]:
            for side, parts in (("in", FUSE_IN_PARTS), ("self", FUSE_SELF_PARTS)):
                groups[f"fuse_{side}.{sname}"] = [
                    [f"fuse.{t}.{part}" for t in stargets] for part in parts]
    stacked = {m for members in groups.values() for m in np.asarray(members, dtype=object).flat}
    groups.update((name, name) for name, _, _ in dense_layers(config) if name not in stacked)
    return groups


def init_params(config: MsisConfig, seed: int) -> ParamStore:
    """Every trainable tensor, drawn from one seed: the layers of
    `dense_layers` in their order, each weight `.w` uniform in
    +-sqrt(6 / (fan_in + fan_out)) (Glorot) and each bias `.b` zero, in a
    store laid out by `param_groups`. The order of the draws is part of the
    determinism contract: the same config and seed give the same bytes.

    Each dense layer is one (d_in + 1, d_out) block of the store's flat
    vector, its weight rows followed by its bias row, and each stack of
    `param_groups` one (*lead, d_in + 1, d_out) block. Checkpoints and
    every other reader see ordinary named 2-D tensors."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, fan_in, fan_out in dense_layers(config):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        tensors[f"{name}.w"] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        tensors[f"{name}.b"] = np.zeros((1, fan_out))
    return ParamStore(seed, tensors, param_groups(config))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

# rows per fused-forward evaluation in predict_probs: the default model's
# evaluator of a full chunk owns about 1.6 MB of buffers
PREDICT_CHUNK_ROWS = 256
# evaluators a store keeps, the least recently used dropped first: each
# owns buffers that grow with its rows (about 24 kB at 1 row for the
# default model), and a store that serves a few request sizes and one bulk
# tail keeps all of its shapes
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
    groups, as (n_targets, batch, d) tensors. A fusion's two sides write
    their halves, along axis 1, of one (part: value, key, query) x
    (candidate: incoming, own) buffer, joined with no copy, and a stage's
    intra-stage projections are (part: key, query, value) x (target); one
    `numerics.attention` op reads each."""
    check_features(config, features)
    G = params.groups
    scale = 1.0 / math.sqrt(config.corridor_dim)

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
                # (part: value, key, query) x (candidate: incoming, own), each
                # side's dense writing its candidate in place
                cand = np.empty((3, 2) + own.shape)
                keys = [(slice(None), 0), (slice(None), 1)]
                sides = [nm.dense_forward(v, G[f"fuse_{side}.{sname}"], out=cand[key])
                         for v, side, key in zip((e_in, own), ("in", "self"), keys)]
                out, beta = nm.attention(nm.leaky_relu(nm.join(sides, cand, keys)), scale, "vkq")
                corridor[(prev, sname)] = CorridorState(
                    prev, sname, e_ou, e_in, alpha,
                    {t: nm.Node(beta[:, j, :, 0].T) for j, t in enumerate(targets)})
            outs.append(out)
            if si < len(config.stages) - 1:
                if len(targets) == 1:  # nothing to attend over: alpha is exactly [1]
                    e_ou = nm.index(projection(f"intra.{sname}.g3", out), 0)
                    alpha = nm.constant(np.ones((features.shape[0], 1)))
                else:  # (part: key g1, query g2, value g3) x (target)
                    e_ou, weights = nm.attention(projection(f"intra.{sname}", out), scale)
                    alpha = nm.Node(weights[:, :, 0].T)
        top = nm.concat(outs, axis=0)

    probs = nm.sigmoid(nm.dense_forward(top, G["head"]))
    per_target = {t: nm.index(probs, i) for i, t in enumerate(config.all_targets())}
    return ForwardResult(per_target, corridor, nm.index(probs, (Ellipsis, 0)), inputs)


def predict_probs(params: ParamStore, config: MsisConfig,
                  features: np.ndarray) -> dict[str, np.ndarray]:
    """Per-target probabilities as flat vectors of a fresh array, scored
    through the fused forward PREDICT_CHUNK_ROWS rows at a time. Each chunk
    runs on the store's evaluator for its row count (make_fused_forward),
    whose buffers two overlapping calls of that row count would share. Each
    chunk checks its own rows' width and values; a matrix with no rows has
    no chunk to check it."""
    if features.ndim != 2 or features.shape[0] == 0:
        check_features(config, features)  # raises
    probs = np.empty((len(config.all_targets()), len(features)))
    for start in range(0, len(features), PREDICT_CHUNK_ROWS):
        chunk = slice(start, start + PREDICT_CHUNK_ROWS)
        probs[:, chunk] = make_fused_forward(params, config, features[chunk])()
    return {t: probs[i] for i, t in enumerate(config.all_targets())}


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
    row of the layer's (d_in + 1, d_out) block. Each stacked block is one
    matmul too: a stage's intra-stage projections, and each fusion side,
    whose output is its half of the stage's candidate buffer. The default
    model runs 34 steps at every row count. Each step writes a buffer of
    the evaluator's own, allocated as the step is built, and its input and
    the returned array are its own too: a run overwrites only what the
    same evaluator returned before, and evaluators of one store share no
    memory. The ones columns are set at compile time, and a run writes
    every other buffer before reading it. An evaluator holds the store's
    groups (views into its flat parameter vector, kept live because
    training and the best-epoch restore write that vector in place) but
    not the store.

    This is the path for every value-only evaluation: scoring through
    predict_probs, and the gradient check, which re-evaluates the loss
    twice per scalar parameter. Tests hold it to the tape forward at 1e-12
    relative."""
    check_features(config, features)
    rows = features.shape[0]
    key = (config, rows)
    cached = params.evaluators.pop(key, None)
    if cached is None:
        if "head" not in params.groups:
            raise ContractError(
                "make_fused_forward needs the stacked parameter groups of init_params")
        if len(params.evaluators) == EVALUATORS_KEPT:  # drop the least recently used
            del params.evaluators[next(iter(params.evaluators))]
        cached = _compile_fused(params, config, rows)
    params.evaluators[key] = chunk, run = cached  # insertion order is recency order

    def evaluate() -> np.ndarray:
        chunk[...] = features
        return run()

    return evaluate


def _compile_fused(params: ParamStore, config: MsisConfig, b: int):
    """The (b, input_dim) input buffer and the evaluator that reads it: each
    builder below allocates its output with `take` and appends the
    in-place steps that fill it to `steps`, which the evaluator runs. A
    step is a ufunc call with its arguments bound (`out` positional, which
    spares the call a keyword, where NumPy allows it) or a closure of
    several. As on the tape, the stacked tower buffer, each stage's fused
    rows written over its slice, is the concat that one head and the
    clamped sigmoid read. Every buffer that a dense layer reads is
    allocated with a ones column, set here once, so `x @ w + b` is one
    matmul by the layer's block; no step writes those columns but `relu`
    and `leaky`, which leave them at 1. A fusion allocates value, key and
    query of both its candidates as one (3, 2, n_stage_targets, b, d)
    buffer, part-major so that each part of a candidate stays one
    contiguous block: the two fusion sides' matmuls write its halves, and
    one `leaky` and one closure of eight ufunc calls finish it. Every view
    a closure reads is bound where it is built. The temporaries of `leaky`
    and of the closures, none of which outlives its step, share one spare
    buffer."""
    G = lambda name: params.groups[name].value
    mm, add, mul, sub = np.matmul, np.add, np.multiply, np.subtract
    d, scale = config.corridor_dim, 1.0 / math.sqrt(config.corridor_dim)
    ones_d = np.ones(d)  # row sums over d as matmuls: axis-2 .sum() is several times slower
    steps = []

    def take(*shape: int, ones: bool = False) -> np.ndarray:
        buf = np.empty(shape[:-1] + (shape[-1] + 1,) if ones else shape)
        if ones:  # the column that meets the bias row of the dense reading the buffer
            buf[..., -1] = 1.0
        return buf

    x = take(b, config.input_dim, ones=True)
    # the largest temporary is a leaky's over a stage's fusion candidates
    spare = take(6 * max(len(t) for _, t in config.stages) * b * d if config.uses_corridor else 0)

    def temporaries(*shapes):
        views, used = [], 0
        for shape in shapes:
            views.append(spare[used:used + math.prod(shape)].reshape(shape))
            used += math.prod(shape)
        return views

    def dense(src, wb, ones=False, out=None):
        # with ones, the output carries its own column for the dense that reads it
        d_out = wb.shape[-1]
        if out is None:
            out = take(*np.broadcast_shapes(src.shape[:-2], wb.shape[:-2]), src.shape[-2],
                       d_out, ones=ones)
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
        # value, key and query of both candidates in one buffer, (part,
        # candidate: incoming then own, target, b, d); the fused rows
        # overwrite `own` but its ones column, and only the fuse_self dense
        # reads the tower rows they replace
        cand = take(3, 2, *own.shape[:2], d)
        dense(e_in, G(f"fuse_in.{sname}"), out=cand[:, 0])
        dense(own, G(f"fuse_self.{sname}"), out=cand[:, 1])
        value, key, query = leaky(cand)
        prod, score = temporaries(key.shape, key.shape[:-1])
        s_in, s_self, beta = score[0], score[1], score[..., None]
        v_in, v_self, fused = value[0], value[1], own[..., :d]

        @steps.append
        def _():  # a two-candidate softmax is the logistic of the score difference
            mul(key, query, out=prod)
            mm(prod, ones_d, out=score)
            sub(s_in, s_self, out=s_in)
            mul(s_in, scale, out=s_in)
            expit(s_in, out=s_in)
            sub(1.0, s_in, out=s_self)
            # both candidates weighed in place, so only the sum writes the towers' strided rows
            mul(beta, value, out=value)
            add(v_in, v_self, out=fused)

    def attend(reps, sname: str):
        if len(reps) == 1:  # nothing to attend over: alpha is exactly [1]
            # the stage's corridor vector, with the ones column of the dense that reads it
            return projection(f"intra.{sname}.g3", reps, ones=True)[0]
        g1, g2, g3 = projection(f"intra.{sname}", reps)  # key, query and value of each target
        e_ou = take(b, d, ones=True)
        score, zrow = temporaries(reps.shape[:2], (b,))
        alpha, e_sum = score[:, :, None], e_ou[:, :d]

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
            mul(alpha, g3, out=g3)
            g3.sum(axis=0, out=e_sum)
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
    """The store and config a checkpoint file holds. Its config, seed and
    tensors are checked first: every tensor finite, and exactly the names
    and shapes of `param_shapes`. The store is then built from the file's
    values alone, in `param_shapes` order and laid out by `param_groups`
    as `init_params` lays out its own, with no random draw. Any fault is
    a ContractError that names the file."""
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
    # checked before the store is built: it holds exactly the config's tensors
    shapes = param_shapes(config)
    wrong = [f"{name} {values[name].shape if name in values else 'missing'} "
             f"(config: {shapes.get(name, 'none')})"
             for name in sorted(values.keys() | shapes.keys(), key=str)
             if name not in values or values[name].shape != shapes.get(name)]
    if wrong:
        raise ContractError(f"{path}: parameters do not match the config: "
                            f"{', '.join(wrong[:3])}{', ...' if len(wrong) > 3 else ''}")
    return ParamStore(seed, {name: values[name] for name in shapes}, param_groups(config)), config
