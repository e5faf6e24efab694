"""Dense float64 tensors with a reverse-mode tape.

Tape values are arrays of any rank. The model stacks per-target tensors
on a leading axis, (n_targets, batch, d) activations against
(n_targets, d_in + 1, d_out) weight/bias blocks, so one op runs every
target: `dense_forward`, `add` and `mul` broadcast like NumPy, and their backward
passes sum each adjoint back to its operand's shape (`unbroadcast`).
`index`, `row_dot`, `softmax`, `sum_axis` and `concat` work along an axis.
`bernoulli_loglik`, weighted log-likelihoods of probabilities, is the loss's one op.
Calling the ops builds the tape (a dynamic graph). `record` fixes its
topological order once; `replay` then re-runs the same ops in place on new
contents of the leaves, so a training loop builds one tape per batch
shape and replays it on every later batch of that shape. `backward_sweep`
walks the order in reverse from a (1, 1) root, writing each adjoint's
first contribution into the buffer it already holds. Value-only
evaluation of the model skips the tape and runs the model's fused
forward (`model.make_fused_forward`); the gradient check's loss value is
`bernoulli_loglik_value` over that forward's output, with no tape at all.

Trainable tensors live in a `ParamStore`, which packs all of them into
one contiguous parameter vector and one gradient vector: each tensor's
value and adjoint are reshaped views into those, so the optimizer updates
the whole model with a few vector operations. Each dense layer's bias row
follows its weight rows there, so the layer is one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import expit

from .errors import ContractError, DimensionError, DomainError

CLAMP_EPS = 1e-12
LEAKY_SLOPE = 0.01


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
    that parent i gets its first contribution of the sweep (`record`)."""

    __slots__ = ("value", "adjoint", "parents", "backward_fn", "forward_fn", "first")

    def __init__(self, value: np.ndarray, parents: tuple["Node", ...] = (),
                 backward_fn: Callable[[np.ndarray, tuple[bool, ...]], None] | None = None,
                 forward_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        self.value = value
        self.adjoint: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.forward_fn = forward_fn
        self.first: tuple[bool, ...] = ()

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
    replay re-runs compute(out=value)."""
    return Node(compute(), parents, backward, compute)


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

def dense_forward(x: Node, wb: Node) -> Node:
    """out = x @ w + b over the last two axes, wb being a dense layer's
    (..., d_in + 1, d_out) block: the rows of w, then b's one row. Leading
    axes broadcast, so a (batch, d_in) input against a stacked
    (n, d_in + 1, d_out) block runs n layers in one op. The weight and the
    bias are views of the block, and so are their adjoints."""
    if len(wb.shape) < 2 or x.shape[-1] + 1 != wb.shape[-2]:
        raise DimensionError(f"dense: input {x.shape} and weight/bias block {wb.shape} "
                             f"do not conform")
    xv, wv, bv = x.value, wb.value[..., :-1, :], wb.value[..., -1:, :]

    def compute(out=None):
        out = np.matmul(xv, wv, out=out)
        return np.add(out, bv, out=out)

    try:
        value = compute()
    except ValueError as exc:
        raise DimensionError(f"dense: lead axes of input {x.shape} and weight/bias block "
                             f"{wb.shape} do not broadcast") from exc
    w_t, x_t = np.swapaxes(wv, -1, -2), np.swapaxes(xv, -1, -2)
    # an operand the product does not broadcast gets g @ w^T (or x^T @ g)
    # written straight into its adjoint on the first contribution; a stacked
    # block's weight matrices are strided apart, but each one's rows are
    # contiguous, which is all matmul needs to write it in place
    x_direct = value.shape[:-1] + (wv.shape[-2],) == x.shape and xv.flags.c_contiguous
    w_direct = (value.shape[:-2] + wv.shape[-2:] == wv.shape
                and wv.strides[-1] == wv.itemsize
                and wv.strides[-2] == wv.shape[-1] * wv.itemsize)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        if x_direct and first[0]:
            np.matmul(g, w_t, out=x.adjoint)
        else:
            _give(x, unbroadcast(g @ w_t, x.shape), first[0])
        w_adj, b_adj = wb.adjoint[..., :-1, :], wb.adjoint[..., -1:, :]
        if not first[1]:
            w_adj += unbroadcast(x_t @ g, wv.shape)
            b_adj += unbroadcast(g, bv.shape)
            return
        if w_direct:
            np.matmul(x_t, g, out=w_adj)
        else:
            np.copyto(w_adj, unbroadcast(x_t @ g, wv.shape))
        np.copyto(b_adj, unbroadcast(g, bv.shape))

    return Node(value, (x, wb), backward, compute)


def _give_rectified(x: Node, g: np.ndarray, slope: float, first: bool) -> None:
    """_give(x, g * factor, first), factor being a rectifier's slope at x:
    1 above zero, `slope` below, and the symmetric subgradient halfway
    between at exactly zero, where the central difference sees the
    average of the one-sided slopes. A first contribution builds the
    factor in the adjoint itself."""
    factor = x.adjoint if first else np.empty_like(g)
    np.sign(x.value, out=factor)
    factor += 1.0
    factor *= 0.5
    if slope:
        factor *= 1.0 - slope
        factor += slope
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
    """max(x, slope*x): rectification that never flattens to an exact zero,
    so downstream layers cannot sit on a kink for whole rows."""
    xv = x.value

    def compute(out=None):
        out = np.multiply(xv, slope, out=out)
        return np.maximum(xv, out, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give_rectified(x, g, slope, first[0])

    return _op(compute, (x,), backward)


def sigmoid(x: Node) -> Node:
    """Stable logistic, clamped to [eps, 1-eps] so downstream logs are safe."""
    xv = x.value

    def compute(out=None):
        out = expit(xv, out=out)
        return np.clip(out, CLAMP_EPS, 1.0 - CLAMP_EPS, out=out)

    s = compute()

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give_product(x, g, s * (1.0 - s), first[0])

    return Node(s, (x,), backward, compute)


def _broadcast(ufunc, a: Node, b: Node) -> tuple[np.ndarray, Callable]:
    """The value and compute function of an elementwise binary op over
    operands that broadcast against each other."""
    av, bv = a.value, b.value

    def compute(out=None):
        return ufunc(av, bv, out=out)

    try:
        return compute(), compute
    except ValueError as exc:
        raise DimensionError(
            f"{ufunc.__name__}: shapes {a.shape} and {b.shape} do not broadcast") from exc


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of operands that broadcast against each other."""
    value, compute = _broadcast(np.add, a, b)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give(a, unbroadcast(g, a.shape), first[0])
        _give(b, unbroadcast(g, b.shape), first[1])

    return Node(value, (a, b), backward, compute)


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of operands that broadcast against each other,
    such as (n, batch, 1) weights against (n, batch, d) vectors."""
    value, compute = _broadcast(np.multiply, a, b)
    av, bv = a.value, b.value

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give(a, unbroadcast(g * bv, a.shape), first[0])
        _give(b, unbroadcast(g * av, b.shape), first[1])

    return Node(value, (a, b), backward, compute)


def bernoulli_loglik_value(p: np.ndarray, w_pos: np.ndarray, w_neg: np.ndarray,
                           w_ent: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """w_pos log p + w_neg log(1-p) + w_ent (p log p + (1-p) log(1-p)),
    elementwise: the log-likelihood of a label, of its complement, and the
    expected one under p itself (the negative binary entropy), each under
    its own weight. p must lie inside (0, 1)."""
    q = 1.0 - p
    log_p, log_q = np.log(p), np.log(q)
    out = np.multiply(log_p, w_pos, out=out)
    out += log_q * w_neg
    out += (p * log_p + q * log_q) * w_ent
    return out


def bernoulli_loglik(p: Node, w_pos: np.ndarray, w_neg: np.ndarray,
                     w_ent: np.ndarray) -> Node:
    """`bernoulli_loglik_value` on the tape, its weights constant arrays of
    p's shape. The node reads them in place, so whoever owns them can
    refill them between replays."""
    shapes = [w.shape for w in (w_pos, w_neg, w_ent)]
    if any(shape != p.shape for shape in shapes):
        raise DimensionError(
            f"bernoulli_loglik: weights {shapes} and probabilities {p.shape} differ")
    pv = p.value

    def compute(out=None):
        return bernoulli_loglik_value(pv, w_pos, w_neg, w_ent, out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        # d/dp: w_ent log p + (w_pos + w_ent p) / p, less the same in 1 - p
        q = 1.0 - pv
        d = (w_pos + w_ent * pv) / pv + w_ent * np.log(pv)
        d -= (w_neg + w_ent * q) / q + w_ent * np.log(q)
        _give_product(p, g, d, first[0])

    return _op(compute, (p,), backward)


def sum_all(x: Node) -> Node:
    """The sum of every entry, as a (1, 1) scalar."""
    xv = x.value

    def compute(out=None):
        if out is None:
            return np.array([[xv.sum()]])
        out[0, 0] = xv.sum()
        return out

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give(x, g[0, 0], first[0])

    return _op(compute, (x,), backward)


def sum_axis(x: Node, axis: int) -> Node:
    """Sum over one axis, which the result drops."""
    xv = x.value

    def compute(out=None):
        return np.sum(xv, axis=axis, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give(x, np.expand_dims(g, axis), first[0])

    return _op(compute, (x,), backward)


def index(x: Node, key) -> Node:
    """Basic indexing: integers, slices (strided too), None and Ellipsis.
    The value is a view, so it follows x through every replay and needs no
    forward_fn; each entry of x appears at most once in it."""
    value = x.value[key]
    whole = value.size == x.value.size

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        if not first[0]:
            x.adjoint[key] += g
            return
        # the one op that can write part of its operand's adjoint: the
        # first contribution zero-fills the rest
        if not whole:
            x.adjoint.fill(0.0)
        x.adjoint[key] = g

    return Node(value, (x,), backward)


def row_dot(a: Node, b: Node, scale: float) -> Node:
    """scale * <a, b> along the last axis, which is kept with size 1."""
    if a.shape != b.shape:
        raise DimensionError(f"row_dot: shapes {a.shape} and {b.shape} differ")
    av, bv = a.value, b.value
    prod = av * bv

    def compute(out=None):
        np.multiply(av, bv, out=prod)
        out = np.sum(prod, axis=-1, keepdims=True, out=out)
        return np.multiply(out, scale, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        gs = g * scale
        _give_product(a, gs, bv, first[0])
        _give_product(b, gs, av, first[1])

    return _op(compute, (a, b), backward)


def softmax(x: Node, axis: int) -> Node:
    """Softmax along one axis, computed with max-subtraction."""
    if x.shape[axis] == 0:
        raise DomainError(f"softmax over an empty axis of a {x.shape} tensor")
    xv = x.value

    def compute(out=None):
        out = np.subtract(xv, xv.max(axis=axis, keepdims=True), out=out)
        np.exp(out, out=out)
        return np.divide(out, out.sum(axis=axis, keepdims=True), out=out)

    s = compute()

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        _give_product(x, s, g - (g * s).sum(axis=axis, keepdims=True), first[0])

    return Node(s, (x,), backward, compute)


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


def record(root: Node) -> list[Node]:
    """The topological order of root's graph, for `replay` and
    `backward_sweep`.

    Recording also readies the graph for sweeps: every node without an
    adjoint gets an (unfilled) buffer, and every node learns which of its
    parents it reaches first in a reverse sweep, so that contribution
    writes the parent's adjoint instead of adding to it. The flags belong
    to this root: record a graph again before sweeping it from another.
    Raises ContractError when two leaves share adjoint memory (a store's
    group and one of its members): each one's first write would clobber
    the other's."""
    order = _toposort(root)
    leaves = [node.adjoint for node in order if not node.parents and node.adjoint is not None]
    for i, adjoint in enumerate(leaves):
        if any(np.may_share_memory(adjoint, other) for other in leaves[i + 1:]):
            raise ContractError("two leaves of one graph share adjoint memory")
    reached: set[int] = set()
    for node in reversed(order):
        if node.adjoint is None:
            node.adjoint = np.empty_like(node.value)
        first = []
        for parent in node.parents:
            first.append(id(parent) not in reached)
            reached.add(id(parent))
        node.first = tuple(first)
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
    parent's adjoint is written over the buffer (`index` zero-fills it
    first), the rest added, so after the sweep each node holds exactly
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
    """Named trainable tensors with deterministic, seeded initialization,
    stored in two contiguous float64 vectors.

    Weight matrices are drawn uniform(+-sqrt(6/(fan_in+fan_out))), biases
    start at zero. Insertion order is preserved and is part of the
    determinism contract: the same creation sequence under the same seed
    yields identical parameters.

    Tensors are created one by one (`add`, `add_dense`), then `pack` lays
    them all out in `values`, with their gradients at the same offsets in
    `grads`. From then on every tensor's `Node.value` and `Node.adjoint`
    are reshaped views into those two vectors, so a whole-model update
    (`trainer.Adam`), zeroing, snapshot or restore is one vector operation.
    A dense layer's weight rows are followed by its bias row, so each layer
    is one (d_in + 1, d_out) block, and `groups` holds one Node per block
    whose value and adjoint are views of it in the two vectors: every layer
    `add_dense` made, and every stack of same-shaped layers that `pack` was
    given, as one (*lead, d_in + 1, d_out) block. The model puts blocks on
    the tape (`dense_forward`), so their gradients land in the members'
    adjoints too. A store that was never packed explicitly is packed on
    first use of its vectors.

    Checkpoints keep the v1 per-name format: `load_values` copies each
    named tensor into its view, whatever the layout.

    Because the vectors never move after `pack`, the store can also keep
    the fused evaluators that `model.make_fused_forward` compiles over them
    (`evaluators`, with their shared `scratch`): they read the live
    weights, and they are freed with the store.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Node] = {}
        self._slices: dict[str, slice] = {}
        self._values: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        self._layers: list[str] = []  # add_dense's names, in creation order
        self.groups: dict[str, Node] = {}
        # model.make_fused_forward's compiled evaluators, keyed by (config,
        # rows), and the one scratch vector they all carve their buffers from
        self.evaluators: dict = {}
        self.scratch = np.empty(0)

    def add(self, name: str, value: np.ndarray) -> Node:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        if self._values is not None:
            raise ContractError(f"cannot add {name!r}: the store is already packed")
        node = Node(tensor2d(value))
        self._params[name] = node
        return node

    def add_dense(self, name: str, fan_in: int, fan_out: int) -> tuple[Node, Node]:
        """Create an initialized weight/bias pair, `name.w` then `name.b`,
        whose block is groups[name] once the store is packed."""
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = self._rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weight = self.add(name + ".w", w)
        bias = self.add(name + ".b", np.zeros((1, fan_out)))
        self._layers.append(name)
        return weight, bias

    def pack(self, stacks: dict[str, Sequence] | None = None) -> None:
        """Move every tensor into the flat `values`/`grads` vectors.

        stacks maps a group name to a (possibly nested) list of dense layers
        of one shape; each member's `.w` and then its `.b` are laid out in
        list order, and groups[name] becomes a Node over their
        (*lead, d_in + 1, d_out) block, lead being the nesting shape. The
        remaining tensors follow in insertion order, and each remaining
        layer, its `.w` and `.b` adjacent as `add_dense` made them, becomes
        the 0-lead block groups[layer]. Packing an already packed store
        without stacks does nothing."""
        if self._values is not None:
            if stacks:
                raise ContractError("the store is already packed")
            return
        order: list[str] = []
        blocks: dict[str, tuple[str, tuple[int, ...]]] = {}  # first tensor, block shape
        for group, members in (stacks or {}).items():
            layers = np.asarray(members, dtype=object)
            unknown = sorted(m for m in layers.flat if m not in self._layers)
            if unknown:
                raise ContractError(f"group {group!r} lists {unknown}, which are not dense layers")
            shapes = {self._block_shape(m) for m in layers.flat}
            if len(shapes) != 1:
                raise ContractError(f"group {group!r} mixes shapes {sorted(shapes)}")
            blocks[group] = (layers.flat[0] + ".w", layers.shape + shapes.pop())
            order.extend(f"{m}.{p}" for m in layers.flat for p in "wb")
        grouped = set(order)
        if len(grouped) != len(order):
            raise ContractError("a parameter is listed in more than one group")
        order += [name for name in self._params if name not in grouped]
        for layer in self._layers:
            if layer + ".w" not in grouped:
                blocks[layer] = (layer + ".w", self._block_shape(layer))

        offset = 0
        for name in order:
            size = self._params[name].value.size
            self._slices[name] = slice(offset, offset + size)
            offset += size
        self._values = np.empty(offset)
        self._grads = np.zeros(offset)
        for name in order:
            node = self._params[name]
            value = self._values[self._slices[name]].reshape(node.value.shape)
            value[...] = node.value
            adjoint = self._grads[self._slices[name]].reshape(node.value.shape)
            if node.adjoint is not None:
                adjoint[...] = node.adjoint
            node.value, node.adjoint = value, adjoint

        for group, (first, shape) in blocks.items():
            start = self._slices[first].start
            span = slice(start, start + math.prod(shape))
            node = self.groups[group] = Node(self._values[span].reshape(shape))
            node.adjoint = self._grads[span].reshape(shape)

    def _block_shape(self, layer: str) -> tuple[int, int]:
        d_in, d_out = self._params[layer + ".w"].value.shape
        return d_in + 1, d_out

    @property
    def values(self) -> np.ndarray:
        """Every parameter scalar, one contiguous vector in layout order."""
        self.pack()
        return self._values

    @property
    def grads(self) -> np.ndarray:
        """The adjoint of every parameter scalar, laid out like `values`."""
        self.pack()
        return self._grads

    def as_named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-name views of a vector laid out like `values`."""
        self.pack()
        return {name: flat[self._slices[name]].reshape(node.value.shape)
                for name, node in self._params.items()}

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._params.items())

    def n_scalars(self) -> int:
        return sum(node.value.size for node in self._params.values())

    def zero_adjoints(self) -> None:
        self.grads.fill(0.0)

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            missing = set(self._params) - set(values)
            extra = set(values) - set(self._params)
            raise ContractError(
                f"parameter name mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, arr in values.items():
            node = self._params[name]
            arr = tensor2d(arr)
            if arr.shape != node.value.shape:
                raise ContractError(
                    f"parameter {name!r}: shape {arr.shape} does not match {node.value.shape}")
            # copy in place: values are views into the flat vector
            node.value[...] = arr


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
