"""Dense float64 tensors with a reverse-mode tape.

Tape values are arrays of any rank. The model stacks per-target tensors
on a leading axis, (n_targets, batch, d) activations against
(n_targets, d_in + 1, d_out) weight/bias blocks, so one op runs every
target: `dense_forward` broadcasts like NumPy, and its backward sums each
adjoint back to its operand's shape (`unbroadcast`). As in the fused
evaluator, a dense layer multiplies its own copy of the input, which
carries a ones column, by the whole block: one matmul forward, bias
included, and one for the block's adjoint, bias row included; given
`out`, it writes its product into a view of a buffer that other layers
share, and `join` makes that buffer one node with no copy, its parts'
adjoints views of its own. `attention` runs a whole attention as one op
over one part-major (3, n_cand, ..., d) node of keys, queries and values;
its sums along the last axis are matmuls by ones too. `index` and
`concat` work along an axis. `bernoulli_loglik`, the sum of weighted
log-likelihoods of probabilities, is the loss's one op, and a (1, 1)
root itself.
Calling the ops builds the tape (a dynamic graph). `record` fixes its
topological order once; `replay` then re-runs the same ops in place on new
contents of the leaves, so a training loop builds one tape per batch
shape and replays it on every later batch of that shape. `backward_sweep`
walks the order in reverse from a (1, 1) root, writing the first
contribution to each part of an adjoint into the buffer it already
holds, so no adjoint is zero-filled but where some of its entries get no
contribution. Value-only evaluation of the model skips the tape and runs
the model's fused forward (`model.make_fused_forward`); the gradient
check's loss value is `bernoulli_loglik_value` over that forward's
output, with no tape at all.

Trainable tensors live in a `ParamStore`, which lays all of them out,
when it is built, in one contiguous parameter vector and one gradient
vector: each tensor's value and adjoint are reshaped views into those, so
the optimizer updates the whole model with a few vector operations. Each
dense layer's bias row follows its weight rows there, and the layers of
a group follow each other, so a group is one stacked block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

CLAMP_EPS = 1e-12
LEAKY_SLOPE = 0.01
# `logistic` caps its exponent here: exp(700) ~ 1e304 is finite, so no
# overflow flag is raised, and 1 / (1 + exp(700)) ~ 1e-304 is far below
# CLAMP_EPS, so the cap changes no clamped value
EXP_CAP = 700.0
# a `Node.first` flag of an `index` read: write its part after zero-filling
# the parent's adjoint (see `record`); truthy, as every first write is
CLEAR = 2


def tensor2d(data) -> np.ndarray:
    """Coerce to a C-contiguous float64 matrix."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D tensor, got shape {arr.shape}")
    return arr


class Node:
    """A tape entry: a value, slots for its adjoint, and its provenance.

    forward_fn recomputes the value in place (`replay`); backward_fn adds
    the node's adjoint into its parents' adjoints, `first[i]` telling it
    that its contribution is the first of the sweep to reach its part of
    parent i's adjoint, which it writes instead (`record`). An `index`
    node's `key` is the part of its parent it reads; every other node reads
    the whole of each parent, its key None. A `join` node's `keys` are the
    parts of its value that its parents are; every other node's are None."""

    __slots__ = ("value", "adjoint", "parents", "backward_fn", "forward_fn", "first", "key",
                 "keys")

    def __init__(self, value: np.ndarray, parents: tuple["Node", ...] = (),
                 backward_fn: Callable[[np.ndarray, tuple[bool, ...]], None] | None = None,
                 forward_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        self.value = value
        self.adjoint: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.forward_fn = forward_fn
        self.first: tuple[bool, ...] = ()
        self.key = None
        self.keys = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def constant(data) -> Node:
    """A leaf holding its own copy of data, which a replayed tape may
    overwrite with new inputs."""
    return Node(np.array(data, dtype=np.float64, order="C"))


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the adjoint of a broadcast result back down to an operand's
    shape: over the leading axes the operand lacks, and over its size-1
    axes that the result stretched."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _give(node: Node, contribution, first: bool) -> None:
    """Add one contribution to a node's adjoint; the first of a sweep is
    written over the buffer instead, which gives the same bytes as adding
    it to zeros."""
    if first:
        np.copyto(node.adjoint, contribution)
    else:
        node.adjoint += contribution


def _give_product(node: Node, a: np.ndarray, b, first: bool) -> None:
    """_give(node, a * b, first), with a first product written straight
    into the adjoint."""
    if first:
        np.multiply(a, b, out=node.adjoint)
    else:
        node.adjoint += a * b


def _op(compute: Callable, parents: tuple[Node, ...], backward: Callable) -> Node:
    """A tape node whose value compute(out=None) allocates and whose
    replay re-runs compute(out=value). A 0-d result is kept as an array,
    not the NumPy scalar a reduction returns, so a replay can write it."""
    return Node(np.asarray(compute()), parents, backward, compute)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------
#
# Each op computes its value with one function of an optional output
# buffer: called once without one when the op is recorded, then with the
# node's own value on every replay. The functions and the backward
# closures read the operands' value arrays, which stay in place across
# replays, and never the op's own output node: a node reachable from its
# own closure is a reference cycle that keeps the whole tape alive until
# the cyclic garbage collector runs.

def dense_forward(x: Node, wb: Node, out: np.ndarray | None = None) -> Node:
    """x @ w + b over the last two axes, wb being a dense layer's
    (..., d_in + 1, d_out) block: the rows of w, then b's one row. Leading
    axes broadcast, so a (batch, d_in) input against a stacked
    (n, d_in + 1, d_out) block runs n layers in one op. Given `out`, a view
    of the product's shape, every run writes the product there and the
    node's value is that view, as a `join`'s parts are.

    As in the fused evaluator, the bias rides inside the matmul: the node
    keeps its own copy of x with a trailing ones column, set once here, and
    each run copies x into it and multiplies it by the whole block. The
    backward is one matmul for the block too, x1^T @ g, whose last row (the
    sums of g over the rows) is the bias's adjoint. A stacked input read by
    one layer, or by a block stacked only on size-1 axes where the input is
    stacked (the model's (3, 1, d + 1, d) intra-stage projections over a
    stage's (n, rows, d) rows), folds its lead axes into the rows: one
    product per layer, x1 laid out as (lead·rows, d_in + 1). x's adjoint
    is g @ w^T; a stacked block's w^T is a contiguous copy, refreshed at the
    start of each backward, which multiplies faster than a strided view of
    the block and gives the same bytes."""
    d_in = x.shape[-1]
    if len(wb.shape) < 2 or d_in + 1 != wb.shape[-2]:
        raise DimensionError(f"dense: input {x.shape} and weight/bias block {wb.shape} "
                             f"do not conform")
    xv, wbv = x.value, wb.value
    x1 = np.ones(x.shape[:-1] + (d_in + 1,))
    body = x1[..., :-1]

    def compute(out=None):
        np.copyto(body, xv)
        return np.matmul(x1, wbv, out=out)

    try:
        value = compute(out)
    except ValueError as exc:
        into = "" if out is None else f" into {out.shape}"
        raise DimensionError(f"dense: lead axes of input {x.shape} and weight/bias block "
                             f"{wb.shape} do not broadcast{into}") from exc
    w_t_view = np.swapaxes(wbv[..., :-1, :], -1, -2)
    stacked = wbv.ndim > 2
    w_t = np.empty(w_t_view.shape) if stacked else w_t_view
    # an input the product does not broadcast gets g @ w^T written straight
    # into its adjoint on the first contribution
    x_direct = value.shape[:-1] + (d_in,) == x.shape and xv.flags.c_contiguous
    x1_t = np.swapaxes(x1, -1, -2)
    lead = wb.shape[:-2]
    while lead and lead[-1] == 1:
        lead = lead[:-1]
    if wb.shape[:-2] == value.shape[:-2]:  # one product per block matrix
        block_grad = partial(np.matmul, x1_t)
    elif value.shape[:-2] == lead + x.shape[:-2]:
        # each layer over a stack, the block stacked only on size-1 axes
        # where the input is: all of a layer's rows in one product
        rows_t = x1.reshape(-1, d_in + 1).T
        d_out = value.shape[-1]

        def block_grad(g, out=None):
            out = None if out is None else out.reshape(lead + (d_in + 1, d_out))
            grad = np.matmul(rows_t, g.reshape(lead + (-1, d_out)), out=out)
            return grad.reshape(wb.shape)
    else:

        def block_grad(g, out=None):
            grad = unbroadcast(np.matmul(x1_t, g), wb.shape)
            return grad if out is None else np.copyto(out, grad)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        if stacked:
            np.copyto(w_t, w_t_view)
        if x_direct and first[0]:
            np.matmul(g, w_t, out=x.adjoint)
        else:
            _give(x, unbroadcast(g @ w_t, x.shape), first[0])
        if first[1]:
            block_grad(g, out=wb.adjoint)
        else:
            wb.adjoint += block_grad(g)

    return Node(value, (x, wb), backward, compute)


def _give_rectified(x: Node, g: np.ndarray, slope: float, first: bool) -> None:
    """_give(x, g * factor, first), factor being a rectifier's slope at x:
    1 above zero, `slope` (in [0, 1)) below, and the symmetric subgradient
    halfway between, (1 - slope) / 2 + slope, at exactly zero, where the
    central difference sees the average of the one-sided slopes. A first
    contribution builds the factor in the adjoint itself."""
    factor = x.adjoint if first else np.empty_like(g)
    np.sign(x.value, out=factor)
    if slope:  # -1, 0, 1 -> halfway - 1 (below 0), halfway, halfway + 1, then clamped
        factor += 0.5 * (1.0 - slope) + slope
        np.maximum(factor, slope, out=factor)
        np.minimum(factor, 1.0, out=factor)
    else:
        factor += 1.0
        factor *= 0.5
    if first:
        factor *= g
    else:
        x.adjoint += g * factor


def relu(x: Node) -> Node:
    xv = x.value

    def compute(out=None):
        return np.maximum(xv, 0.0, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give_rectified(x, g, 0.0, first[0])

    return _op(compute, (x,), backward)


def leaky_relu(x: Node, slope: float = LEAKY_SLOPE) -> Node:
    """max(x, slope*x), 0 <= slope < 1: rectification that never flattens
    to an exact zero, so downstream layers cannot sit on a kink for whole
    rows."""
    if not 0.0 <= slope < 1.0:
        raise DomainError(f"leaky_relu: slope must lie in [0, 1), got {slope}")
    xv = x.value

    def compute(out=None):
        out = np.multiply(xv, slope, out=out)
        return np.maximum(xv, out, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give_rectified(x, g, slope, first[0])

    return _op(compute, (x,), backward)


def scalar(value: float) -> np.ndarray:
    """A 0-d float64 operand for a bound ufunc call: a Python float operand
    is converted to an array on every call, which costs about 0.4 us, a
    large share of a 1-row call."""
    return np.array(value, dtype=np.float64)


_EXP_CAP, _ONE, _LOW, _HIGH = map(scalar, (EXP_CAP, 1.0, CLAMP_EPS, 1.0 - CLAMP_EPS))


def logistic(out: np.ndarray, x: np.ndarray | None = None,
             clamp: bool = True) -> tuple[Callable[[], np.ndarray], ...]:
    """The bound, in-place ufunc calls that write 1 / (1 + exp(-x)) into
    `out`: the model's one logistic. They negate x into out (with x None,
    out already holds -x, as where a caller folds the sign into a scale,
    which is exact), cap the exponent at EXP_CAP, exp, add one, take the
    reciprocal and, with clamp, clamp to [CLAMP_EPS, 1 - CLAMP_EPS] so
    downstream logs are safe. The cap keeps exp finite, so no overflow or
    invalid flag is raised (the trainer's diagnostics run with both
    raising); a capped entry's logistic, below 1e-304, clamps to CLAMP_EPS
    as the exact one does. NumPy's SIMD exp is not libm's, so an entry may
    differ from a libm-based 1 / (1 + exp(-x)) in its last bit;
    `funnel_sim`, whose populations are pinned byte for byte, keeps
    libm's. Every operand is an array (`scalar`), and the calls are
    returned rather than run, so the fused evaluator appends them to its
    steps."""
    calls = [] if x is None else [partial(np.negative, x, out)]
    calls += [partial(np.minimum, out, _EXP_CAP, out=out), partial(np.exp, out, out),
              partial(np.add, out, _ONE, out), partial(np.reciprocal, out, out)]
    if clamp:
        calls += [partial(np.maximum, out, _LOW, out=out), partial(np.minimum, out, _HIGH, out=out)]
    return tuple(calls)


def sigmoid(x: Node) -> Node:
    """The clamped logistic of x: `logistic`'s NumPy calls, the ones the
    fused evaluator runs, rerun in place on every replay."""
    xv = x.value
    s = np.empty(xv.shape)  # a 0-d result too stays an array, as in _op
    calls = logistic(s, xv)

    def compute(out=None):  # every run writes s, the node's value
        for call in calls:
            call()
        return s

    compute()

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give_product(x, g, s * (1.0 - s), first[0])

    return Node(s, (x,), backward, compute)


def attention(x: Node, scale: float, parts: str = "kqv") -> tuple[Node, np.ndarray]:
    """Attention over candidates, read from one part-major (3, n_cand, ...,
    d) node: `parts` names what each entry of axis 0 holds, k(eys),
    q(ueries) and v(alues), in any order. Candidate i scores each row by
    scale * <key_i, query_i>; the softmax of the scores over the candidates
    weights the values, and the node's value is their weighted sum,
    (..., d). Returns the node and its (n_cand, ..., 1) weights, a buffer
    of its own that every run rewrites.

    Its run is one closure over buffers of its own: the products, summed
    over d by a matmul by ones as in the fused evaluator, the max-subtracted
    softmax over axis 0 in place, then the weighted values and their sum;
    its reductions over the candidates write a buffer it owns too. Its
    backward writes the three parts of x's adjoint, which tile it, and uses
    the values' part as scratch before it writes it."""
    if sorted(parts) != ["k", "q", "v"]:
        raise ContractError(f"attention: parts must order k, q and v, got {parts!r}")
    if x.value.ndim < 3 or x.shape[0] != 3:
        raise DimensionError(f"attention: expected a (3, n_cand, ..., d) tensor, got {x.shape}")
    if x.shape[1] == 0:
        raise DomainError(f"attention over no candidates: a {x.shape} tensor")
    xv = x.value
    ki, qi, vi = (parts.index(part) for part in "kqv")
    k, q, v = xv[ki], xv[qi], xv[vi]
    prod = np.empty(k.shape)
    weights = np.empty(k.shape[:-1] + (1,))
    g_w, g_s = np.empty(weights.shape), np.empty(weights.shape)  # the backward's
    across = np.empty((1,) + weights.shape[1:])  # a reduction over the candidates
    ones = np.ones((k.shape[-1], 1))

    def compute(out=None):
        np.multiply(k, q, out=prod)
        np.matmul(prod, ones, out=weights)
        np.multiply(weights, scale, out=weights)
        np.maximum.reduce(weights, axis=0, keepdims=True, out=across)
        np.subtract(weights, across, out=weights)
        np.exp(weights, out=weights)
        np.add.reduce(weights, axis=0, keepdims=True, out=across)
        np.divide(weights, across, out=weights)
        np.multiply(weights, v, out=prod)
        return np.add.reduce(prod, axis=0, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        adj = x.adjoint if first[0] else np.empty_like(xv)
        g_v = adj[vi]
        np.matmul(np.multiply(g, v, out=g_v), ones, out=g_w)  # the weights'
        np.multiply(g, weights, out=g_v)
        # the scores': weights * (g_w - sum over the candidates of g_w * weights)
        np.multiply(g_w, weights, out=g_s)
        np.add.reduce(g_s, axis=0, keepdims=True, out=across)
        np.subtract(g_w, across, out=g_w)
        np.multiply(weights, g_w, out=g_s)
        np.multiply(g_s, scale, out=g_s)
        np.multiply(g_s, q, out=adj[ki])
        np.multiply(g_s, k, out=adj[qi])
        if not first[0]:
            x.adjoint += adj

    return _op(compute, (x,), backward), weights


def bernoulli_loglik_value(p: np.ndarray, w_pos: np.ndarray, w_neg: np.ndarray,
                           w_ent: np.ndarray, out: np.ndarray | None = None,
                           logs=(None, None, None)) -> np.ndarray:
    """w_pos log p + w_neg log(1-p) + w_ent (p log p + (1-p) log(1-p)),
    elementwise: the log-likelihood of a label, of its complement, and the
    expected one under p itself (the negative binary entropy), each under
    its own weight. p must lie inside (0, 1). 1 - p, log p and log(1 - p)
    are written into the three arrays of `logs` when given."""
    q = np.subtract(1.0, p, out=logs[0])
    log_p, log_q = np.log(p, out=logs[1]), np.log(q, out=logs[2])
    out = np.multiply(log_p, w_pos, out=out)
    out += log_q * w_neg
    out += (p * log_p + q * log_q) * w_ent
    return out


def bernoulli_loglik(p: Node, w_pos: np.ndarray, w_neg: np.ndarray, w_ent: np.ndarray
                     ) -> tuple[Node, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The sum of `bernoulli_loglik_value` over every entry, on the tape, as
    a (1, 1) node, its weights constant arrays of p's shape. The node reads
    them in place, so whoever owns them can refill them between replays,
    and sums the terms in a buffer of its own, so its total is
    `bernoulli_loglik_value(...).sum()` bit for bit. Returns the node and
    its 1 - p, log p and log(1 - p), buffers of its own that every run
    rewrites and its backward reads."""
    shapes = [w.shape for w in (w_pos, w_neg, w_ent)]
    if any(shape != p.shape for shape in shapes):
        raise DimensionError(
            f"bernoulli_loglik: weights {shapes} and probabilities {p.shape} differ")
    pv = p.value
    terms = np.empty(p.shape)
    logs = q, log_p, log_q = tuple(np.empty(p.shape) for _ in range(3))

    def compute(out=None):
        total = bernoulli_loglik_value(pv, w_pos, w_neg, w_ent, terms, logs).sum()
        if out is None:
            return np.array([[total]])
        out[0, 0] = total
        return out

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        # d/dp: w_ent log p + (w_pos + w_ent p) / p, less the same in 1 - p
        d = (w_pos + w_ent * pv) / pv + w_ent * log_p
        d -= (w_neg + w_ent * q) / q + w_ent * log_q
        _give_product(p, d, g[0, 0], first[0])

    return _op(compute, (p,), backward), logs


def index(x: Node, key) -> Node:
    """Basic indexing: integers, slices (strided too), None and Ellipsis.
    The value is a view, so it follows x through every replay and needs no
    forward_fn; each entry of x appears at most once in it. An integer for
    every axis reads a 0-d view, not NumPy's scalar copy.

    The one op that can write part of its operand's adjoint: `record`
    flags a read `CLEAR` where the reads of x leave some of its entries
    without a contribution, and that read zero-fills the adjoint before
    it writes its part."""
    value = x.value[key]
    if not isinstance(value, np.ndarray):
        key = (key if isinstance(key, tuple) else (key,)) + (Ellipsis,)
        value = x.value[key]

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        if not first[0]:
            x.adjoint[key] += g
            return
        if first[0] == CLEAR:
            x.adjoint.fill(0.0)
        x.adjoint[key] = g

    node = Node(value, (x,), backward)
    node.key = key
    return node


def join(parts: Sequence[Node], buffer: np.ndarray, keys: Sequence) -> Node:
    """The node whose value is `buffer`, which its parts write in place:
    each part's value is the view `buffer[key]` of its key (a `dense_forward`
    given `out`), and the keys tile the buffer. A join copies nothing, on a
    run or in the backward: `record` makes each part's adjoint the view of
    the join's adjoint at its key, so whatever writes the join's adjoint
    writes the parts'. That holds only while the join is a part's one
    reader; `record` raises ContractError where a part has another."""
    if len(parts) != len(keys):
        raise ContractError(f"join: {len(parts)} parts and {len(keys)} keys")
    touched = np.zeros(buffer.shape, dtype=bool)
    for part, key in zip(parts, keys):
        view = buffer[key]
        if (not isinstance(view, np.ndarray) or view.shape != part.shape
                or view.strides != part.value.strides
                or view.ctypes.data != part.value.ctypes.data):
            raise ContractError(f"join: a {part.shape} part is not the buffer's view at {key!r}")
        if touched[key].any():
            raise ContractError(f"join: the part at {key!r} overlaps another")
        touched[key] = True
    if not touched.all():
        raise ContractError("join: the parts leave some of the buffer unwritten")
    node = Node(buffer, tuple(parts))
    node.keys = tuple(keys)
    return node


def concat(parts: Sequence[Node], axis: int) -> Node:
    """Join tensors along an existing axis."""
    values = [p.value for p in parts]
    stops = np.cumsum([p.shape[axis] for p in parts])
    lead = (slice(None),) * (axis % values[0].ndim)
    pieces = [lead + (slice(stop - p.shape[axis], stop),) for p, stop in zip(parts, stops)]

    def compute(out=None):
        return np.concatenate(values, axis=axis, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        for p, piece, f in zip(parts, pieces, first):
            _give(p, g[piece], f)

    return _op(compute, tuple(parts), backward)


# ---------------------------------------------------------------------------
# recording, replay and the backward sweep
# ---------------------------------------------------------------------------

def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _first_writes(node: Node, readers: list[Node]) -> list:
    """The first-write flag of each read of node, the readers in the order
    a reverse sweep reaches them. A read whose part of node no earlier read
    touched writes it, one inside the parts already touched adds to them.
    Where that leaves entries without a contribution, or a read overlaps
    the touched parts only partly, the first read writes (an `index` read
    zero-filling the rest first, `CLEAR`) and every later one adds."""
    if any(reader.key is not None for reader in readers):
        touched = np.zeros(node.shape, dtype=bool)
        flags = []
        for reader in readers:
            part = touched if reader.key is None else touched[reader.key]
            if part.any() and not part.all():
                break
            flags.append(not part.any())
            part[...] = True
        else:
            if touched.all():
                return flags
    return [True if readers[0].key is None else CLEAR] + [False] * (len(readers) - 1)


def record(root: Node) -> list[Node]:
    """The topological order of root's graph, for `replay` and
    `backward_sweep`.

    Recording also readies the graph for sweeps: every node without an
    adjoint gets an (unfilled) buffer, and every node learns which of its
    reads of its parents reach their part first in a reverse sweep, so
    that contribution writes the parent's adjoint instead of adding to it
    (`_first_writes`): `index` reads that tile their operand, such as the
    model's per-stage slices of the towers, each write their own part,
    with no zero-fill. A `join`'s parts get views of its adjoint. The flags
    belong to this root: record a graph again before sweeping it from
    another. Raises ContractError when two leaves share adjoint memory (a
    store's group and one of its members), as each one's first write would
    clobber the other's, and when a joined part has a reader besides its
    join, whose contribution the join's would overwrite."""
    order = _toposort(root)
    leaves = [node.adjoint for node in order if not node.parents and node.adjoint is not None]
    for i, adjoint in enumerate(leaves):
        if any(np.may_share_memory(adjoint, other) for other in leaves[i + 1:]):
            raise ContractError("two leaves of one graph share adjoint memory")
    reads: dict[int, list[tuple[Node, int]]] = {}  # by parent, in sweep order
    for node in reversed(order):
        node.first = [False] * len(node.parents)
        for i, parent in enumerate(node.parents):
            reads.setdefault(id(parent), []).append((node, i))
    joins = [node for node in order if node.keys is not None]
    if any(len(reads[id(part)]) > 1 for node in joins for part in node.parents):
        raise ContractError("a joined part has a reader besides its join")
    for node in reversed(order):  # a join before its parts
        if node.adjoint is None:
            node.adjoint = np.empty_like(node.value)
        if node.keys is not None:
            for part, key in zip(node.parents, node.keys):
                part.adjoint = node.adjoint[key]
    for node in order:
        readers = reads.get(id(node))
        if readers:
            for (reader, i), flag in zip(readers, _first_writes(node, [r for r, _ in readers])):
                reader.first[i] = flag
    for node in order:
        node.first = tuple(node.first)
    return order


def replay(order: Sequence[Node]) -> None:
    """Recompute every value of a recorded graph in place, in topological
    order, from the current contents of its leaves: the parameters and
    the constants that the caller refilled."""
    for node in order:
        if node.forward_fn is not None:
            node.forward_fn(node.value)


def backward_sweep(root: Node, order: Sequence[Node] | None = None) -> None:
    """Populate adjoints of every ancestor of a scalar root.

    order is root's `record`; without one the graph is recorded here. The
    sweep walks it in reverse, and each node's first contribution to a
    part of a parent's adjoint is written over the buffer, the rest added,
    so after the sweep each node holds exactly
    d(root)/d(node) for this graph whatever its buffer held before. The
    buffers stay in place: a parameter's adjoint is a view into its
    store's gradient vector and must stay one, and a replayed tape reuses
    its own.
    """
    if root.value.shape != (1, 1):
        raise ContractError(
            f"backward_sweep root must be a 1x1 scalar, got shape {root.value.shape}")
    if order is None:
        order = record(root)
    root.adjoint.fill(1.0)
    for node in reversed(order):
        if node.backward_fn is not None:
            node.backward_fn(node.adjoint, node.first)


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable tensors in two contiguous float64 vectors, laid out
    once, when the store is built.

    `tensors` maps each name to its initial matrix; their order is the
    order of `items()` and of checkpoints. `groups` maps a group name to a
    dense layer, or to a nested list of dense layers of one shape, a dense
    layer `L` being the pair `L.w`, (d_in, d_out), and `L.b`, (1, d_out).
    A group's layers are laid out in list order, each layer's weight rows
    followed by its bias row, so the group is one (*lead, d_in + 1, d_out)
    block, lead being the nesting shape (none for a plain layer name). The
    tensors that no group lists follow, in their order.

    `values` holds every scalar in that layout and `grads` their adjoints.
    Every tensor's `Node.value` and `Node.adjoint`, and every group's, are
    reshaped views into those two vectors, so a whole-model update
    (`trainer.Adam`), zeroing, snapshot or restore is one vector operation.
    The model puts groups on the tape (`dense_forward`), so their gradients
    land in the members' adjoints too.

    Because the vectors never move, the store can also keep the fused
    evaluators that `model.make_fused_forward` compiles over them
    (`evaluators`, each with buffers of its own): they read the live
    weights, and they are freed with the store. `seed` is the one the
    tensors were drawn from, kept for checkpoints.
    """

    def __init__(self, seed: int, tensors: dict[str, np.ndarray],
                 groups: dict[str, str | Sequence]):
        self.seed = seed
        # model.make_fused_forward's compiled evaluators, keyed by (config, rows)
        self.evaluators: dict = {}
        tensors = {name: tensor2d(value) for name, value in tensors.items()}

        def block_shape(layer) -> tuple[int, int] | None:
            w, b = tensors.get(f"{layer}.w"), tensors.get(f"{layer}.b")
            if w is None or b is None or b.shape != (1, w.shape[1]):
                return None
            return w.shape[0] + 1, w.shape[1]

        order: list[str] = []
        blocks: dict[str, tuple[str, tuple[int, ...]]] = {}  # first tensor, block shape
        for group, members in groups.items():
            layers = np.asarray(members, dtype=object)
            shapes = [block_shape(m) for m in layers.flat]
            unknown = sorted(m for m, shape in zip(layers.flat, shapes) if shape is None)
            if unknown:
                raise ContractError(f"group {group!r} lists {unknown}, which are not dense layers")
            if len(set(shapes)) != 1:
                raise ContractError(f"group {group!r} mixes shapes {sorted(set(shapes))}")
            blocks[group] = (f"{layers.flat[0]}.w", layers.shape + shapes[0])
            order.extend(f"{m}.{p}" for m in layers.flat for p in "wb")
        grouped = set(order)
        if len(grouped) != len(order):
            raise ContractError("a parameter is listed in more than one group")
        order += [name for name in tensors if name not in grouped]

        self._slices: dict[str, slice] = {}
        offset = 0
        for name in order:
            self._slices[name] = slice(offset, offset + tensors[name].size)
            offset += tensors[name].size
        self.values = np.empty(offset)
        self.grads = np.zeros(offset)

        def leaf(span: slice, shape: tuple[int, ...]) -> Node:
            node = Node(self.values[span].reshape(shape))
            node.adjoint = self.grads[span].reshape(shape)
            return node

        self._params: dict[str, Node] = {}
        for name, value in tensors.items():
            node = self._params[name] = leaf(self._slices[name], value.shape)
            node.value[...] = value
        self.groups: dict[str, Node] = {}
        for group, (first, shape) in blocks.items():
            start = self._slices[first].start
            self.groups[group] = leaf(slice(start, start + math.prod(shape)), shape)

    def as_named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-name views of a vector laid out like `values`."""
        return {name: flat[self._slices[name]].reshape(node.value.shape)
                for name, node in self._params.items()}

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._params.items())

    def n_scalars(self) -> int:
        return self.values.size

    def zero_adjoints(self) -> None:
        self.grads.fill(0.0)


# ---------------------------------------------------------------------------
# finite-difference gradient check
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    worst_rel_error: float
    worst_name: str
    n_scalars: int
    tol: float
    n_remeasured: int

    @property
    def passed(self) -> bool:
        return self.worst_rel_error < self.tol

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {status}: worst rel. error {self.worst_rel_error:.3e} "
                f"at {self.worst_name!r} over {self.n_scalars} scalars, "
                f"{self.n_remeasured} re-measured at smaller steps (tol {self.tol:g})")


def finite_diff_check(params: ParamStore, loss_fn: Callable[[], Node],
                      step: float = 1e-6, tol: float = 1e-4,
                      value_fn: Callable[[], float] | None = None) -> GradCheckReport:
    """Compare analytic adjoints of loss_fn against central differences.

    loss_fn rebuilds the loss graph from the current parameter values; the
    optional value_fn is a cheaper evaluator of the same scalar used for the
    2 * n_scalars perturbed evaluations. Relative error uses a
    max(1, |analytic|) denominator.

    A rectifier kink inside the difference window (a pre-activation closer
    to zero than the step moves it) skews the central difference of a
    correct gradient. So a scalar whose error reaches tol is measured again
    at step/10 and step/100, and its smallest error counts: a kink leaves
    the window as it shrinks, while a wrong gradient stays wrong at every
    step. The report counts the scalars measured again.
    """
    if value_fn is None:
        value_fn = lambda: float(loss_fn().value[0, 0])

    if value_fn() != value_fn():
        raise ContractError("loss function is not deterministic under fixed parameters")

    params.zero_adjoints()
    backward_sweep(loss_fn())
    adjoints = params.as_named(params.grads.copy())

    def rel_error(flat: np.ndarray, i: int, analytic: float, h: float) -> float:
        orig = flat[i]
        flat[i] = orig + h
        f_plus = value_fn()
        flat[i] = orig - h
        f_minus = value_fn()
        flat[i] = orig
        fd = (f_plus - f_minus) / (2.0 * h)
        return abs(analytic - fd) / max(1.0, abs(analytic))

    worst = 0.0
    worst_name = ""
    n_checked = 0
    n_remeasured = 0
    for name, node in params.items():
        flat = node.value.reshape(-1)
        analytic = adjoints[name].reshape(-1)
        for i in range(flat.size):
            rel = rel_error(flat, i, analytic[i], step)
            if rel >= tol:
                n_remeasured += 1
                for h in (step / 10, step / 100):
                    rel = min(rel, rel_error(flat, i, analytic[i], h))
            if rel > worst:
                worst = rel
                worst_name = name
            n_checked += 1
    return GradCheckReport(worst, worst_name, n_checked, tol, n_remeasured)
