"""Dense float64 tensors with a reverse-mode tape.

Tape values are arrays of any rank. The model stacks per-target tensors
on a leading axis, (n_targets, batch, d) activations against
(n_targets, d_in, d_out) weights, so one op runs every target:
`dense_forward`, `add` and `mul` broadcast like NumPy, and their backward
passes sum each adjoint back to its operand's shape (`unbroadcast`).
`index`, `row_dot`, `softmax`, `sum_axis` and `concat` work along an axis.
The tape is rebuilt on every forward pass (dynamic graph);
`backward_sweep` walks it once in reverse topological order from a (1, 1)
root. Value-only evaluation of the model skips the tape altogether and
runs the model's fused forward (`model.make_fused_forward`).

Trainable tensors live in a `ParamStore`, which packs all of them into
one contiguous parameter vector and one gradient vector: each tensor's
value and adjoint are reshaped views into those, so the optimizer updates
the whole model with a few vector operations.
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
    """A tape entry: a value, slots for its adjoint, and its provenance."""

    __slots__ = ("value", "adjoint", "parents", "backward_fn")

    def __init__(self, value: np.ndarray, parents: tuple["Node", ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.value = value
        self.adjoint: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def constant(data) -> Node:
    return Node(np.ascontiguousarray(data, dtype=np.float64))


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


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def dense_forward(x: Node, w: Node, b: Node) -> Node:
    """out = x @ w + b over the last two axes. Leading axes broadcast, so a
    (batch, d_in) input against stacked (n, d_in, d_out) weights and
    (n, 1, d_out) biases runs n layers in one op."""
    if x.shape[-1] != w.shape[-2] or b.shape[-2:] != (1, w.shape[-1]):
        raise DimensionError(f"dense: input {x.shape}, weight {w.shape} and bias "
                             f"{b.shape} do not conform")
    try:
        value = x.value @ w.value + b.value
    except ValueError as exc:
        raise DimensionError(f"dense: lead axes of input {x.shape}, weight {w.shape} "
                             f"and bias {b.shape} do not broadcast") from exc

    def backward(g: np.ndarray) -> None:
        x.adjoint += unbroadcast(g @ np.swapaxes(w.value, -1, -2), x.shape)
        w.adjoint += unbroadcast(np.swapaxes(x.value, -1, -2) @ g, w.shape)
        b.adjoint += unbroadcast(g, b.shape)

    return Node(value, (x, w, b), backward)


def relu(x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0), (x,))

    def backward(g: np.ndarray) -> None:
        # symmetric subgradient 1/2 at exactly zero, where the central
        # difference sees the average of the one-sided slopes
        x.adjoint += g * ((np.sign(x.value) + 1.0) * 0.5)

    out.backward_fn = backward
    return out


def leaky_relu(x: Node, slope: float = LEAKY_SLOPE) -> Node:
    """max(x, slope*x): rectification that never flattens to an exact zero,
    so downstream layers cannot sit on a kink for whole rows."""
    out = Node(np.maximum(x.value, slope * x.value), (x,))

    def backward(g: np.ndarray) -> None:
        base = (np.sign(x.value) + 1.0) * 0.5
        x.adjoint += g * (slope + (1.0 - slope) * base)

    out.backward_fn = backward
    return out


def sigmoid(x: Node) -> Node:
    """Stable logistic, clamped to [eps, 1-eps] so downstream logs are safe."""
    # the backward pass reads the value array, never the output node: a
    # node reachable from its own closure is a reference cycle that keeps
    # the whole tape alive until the cyclic garbage collector runs
    s = np.clip(expit(x.value), CLAMP_EPS, 1.0 - CLAMP_EPS)

    def backward(g: np.ndarray) -> None:
        x.adjoint += g * (s * (1.0 - s))

    return Node(s, (x,), backward)


def log(x: Node) -> Node:
    out = Node(np.log(x.value), (x,))

    def backward(g: np.ndarray) -> None:
        x.adjoint += g / x.value

    out.backward_fn = backward
    return out


def _broadcast(op, a: Node, b: Node) -> np.ndarray:
    try:
        return op(a.value, b.value)
    except ValueError as exc:
        raise DimensionError(
            f"{op.__name__}: shapes {a.shape} and {b.shape} do not broadcast") from exc


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of operands that broadcast against each other."""

    def backward(g: np.ndarray) -> None:
        a.adjoint += unbroadcast(g, a.shape)
        b.adjoint += unbroadcast(g, b.shape)

    return Node(_broadcast(np.add, a, b), (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of operands that broadcast against each other,
    such as (n, batch, 1) weights against (n, batch, d) vectors."""

    def backward(g: np.ndarray) -> None:
        a.adjoint += unbroadcast(g * b.value, a.shape)
        b.adjoint += unbroadcast(g * a.value, b.shape)

    return Node(_broadcast(np.multiply, a, b), (a, b), backward)


def affine(x: Node, scale: float, shift: float = 0.0) -> Node:
    """scale * x + shift with float constants."""
    out = Node(scale * x.value + shift, (x,))

    def backward(g: np.ndarray) -> None:
        x.adjoint += scale * g

    out.backward_fn = backward
    return out


def mul_const(x: Node, c: np.ndarray) -> Node:
    """Elementwise product with a constant array of the same shape."""
    if c.shape != x.value.shape:
        raise DimensionError(f"mul_const: shapes {x.value.shape} and {c.shape} differ")
    out = Node(x.value * c, (x,))

    def backward(g: np.ndarray) -> None:
        x.adjoint += g * c

    out.backward_fn = backward
    return out


def sum_all(x: Node) -> Node:
    """The sum of every entry, as a (1, 1) scalar."""
    out = Node(np.array([[x.value.sum()]]), (x,))

    def backward(g: np.ndarray) -> None:
        x.adjoint += g[0, 0]

    out.backward_fn = backward
    return out


def sum_axis(x: Node, axis: int) -> Node:
    """Sum over one axis, which the result drops."""

    def backward(g: np.ndarray) -> None:
        x.adjoint += np.expand_dims(g, axis)

    return Node(x.value.sum(axis=axis), (x,), backward)


def index(x: Node, key) -> Node:
    """Basic indexing: integers, slices (strided too), None and Ellipsis.
    The value is a view; each entry of x appears at most once in it."""

    def backward(g: np.ndarray) -> None:
        x.adjoint[key] += g

    return Node(x.value[key], (x,), backward)


def row_dot(a: Node, b: Node, scale: float) -> Node:
    """scale * <a, b> along the last axis, which is kept with size 1."""
    if a.shape != b.shape:
        raise DimensionError(f"row_dot: shapes {a.shape} and {b.shape} differ")

    def backward(g: np.ndarray) -> None:
        a.adjoint += (g * scale) * b.value
        b.adjoint += (g * scale) * a.value

    return Node((a.value * b.value).sum(axis=-1, keepdims=True) * scale, (a, b), backward)


def softmax(x: Node, axis: int) -> Node:
    """Softmax along one axis, computed with max-subtraction."""
    if x.shape[axis] == 0:
        raise DomainError(f"softmax over an empty axis of a {x.shape} tensor")
    e = np.exp(x.value - x.value.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        x.adjoint += s * (g - (g * s).sum(axis=axis, keepdims=True))

    return Node(s, (x,), backward)


def concat(parts: Sequence[Node], axis: int) -> Node:
    """Join tensors along an existing axis."""
    value = np.concatenate([p.value for p in parts], axis=axis)
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def backward(g: np.ndarray) -> None:
        for p, piece in zip(parts, np.split(g, bounds, axis=axis)):
            p.adjoint += piece

    return Node(value, tuple(parts), backward)


# ---------------------------------------------------------------------------
# backward sweep
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


def backward_sweep(root: Node) -> None:
    """Populate adjoints of every ancestor of a scalar root.

    Adjoints of all reachable nodes are zeroed first, then accumulated
    additively in reverse topological order, so after the sweep each node
    holds exactly d(root)/d(node) for this graph. An adjoint that already
    exists is zeroed in place: a parameter's adjoint is a view into its
    store's gradient vector and must stay one.
    """
    if root.value.shape != (1, 1):
        raise ContractError(
            f"backward_sweep root must be a 1x1 scalar, got shape {root.value.shape}")
    order = _toposort(root)
    for node in order:
        if node.adjoint is None:
            node.adjoint = np.zeros_like(node.value)
        else:
            node.adjoint.fill(0.0)
    root.adjoint[0, 0] = 1.0
    for node in reversed(order):
        if node.backward_fn is not None:
            node.backward_fn(node.adjoint)


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
    `pack` can also stack runs of same-shaped tensors into `groups`: one
    Node per run whose value and adjoint are (*lead, *shape) views of the
    run in the two vectors. The model's stacked forward puts a group on
    the tape as one tensor, so its gradient lands in the members' adjoints
    too. A store that was never packed explicitly is packed on first use
    of its vectors.

    Checkpoints keep the v1 per-name format: `load_values` copies each
    named tensor into its view, whatever the layout.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Node] = {}
        self._slices: dict[str, slice] = {}
        self._values: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        self.groups: dict[str, Node] = {}

    def add(self, name: str, value: np.ndarray) -> Node:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        if self._values is not None:
            raise ContractError(f"cannot add {name!r}: the store is already packed")
        node = Node(tensor2d(value))
        self._params[name] = node
        return node

    def add_dense(self, name: str, fan_in: int, fan_out: int) -> tuple[Node, Node]:
        """Create an initialized weight/bias pair."""
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = self._rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weight = self.add(name + ".w", w)
        bias = self.add(name + ".b", np.zeros((1, fan_out)))
        return weight, bias

    def pack(self, stacks: dict[str, Sequence] | None = None) -> None:
        """Move every tensor into the flat `values`/`grads` vectors.

        stacks maps a group name to a (possibly nested) list of member
        names of one shape; the members are laid out next to each other in
        list order, and groups[name] becomes a Node over their
        (*lead, *shape) views, lead being the nesting shape. The remaining
        tensors follow in insertion order. Packing an already packed store without stacks
        does nothing."""
        if self._values is not None:
            if stacks:
                raise ContractError("the store is already packed")
            return
        order: list[str] = []
        runs: dict[str, tuple[int, tuple[int, ...]]] = {}  # first index in order, lead
        for group, members in (stacks or {}).items():
            names = np.asarray(members, dtype=object)
            shapes = {self._params[m].value.shape for m in names.flat}
            if len(shapes) != 1:
                raise ContractError(f"group {group!r} mixes shapes {sorted(shapes)}")
            runs[group] = (len(order), names.shape)
            order.extend(names.flat)
        grouped = set(order)
        if len(grouped) != len(order):
            raise ContractError("a parameter is listed in more than one group")
        order += [name for name in self._params if name not in grouped]

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

        for group, (first, lead) in runs.items():
            last = first + math.prod(lead) - 1
            span = slice(self._slices[order[first]].start, self._slices[order[last]].stop)
            shape = lead + self._params[order[first]].value.shape
            node = self.groups[group] = Node(self._values[span].reshape(shape))
            node.adjoint = self._grads[span].reshape(shape)

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
