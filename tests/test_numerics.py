import math
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msis import numerics as nm
from msis.errors import ContractError, DimensionError, DomainError


def central_diff(value_fn, arr, step=1e-3):
    """Independent central-difference gradient of value_fn w.r.t. arr entries."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = value_fn()
        flat[i] = orig - step
        f_minus = value_fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * step)
    return grad


def bce(p, y):
    """The mean binary cross-entropy of labels y, as a (1, 1) node."""
    return nm.bernoulli_loglik(p, -y / len(y), -(1.0 - y) / len(y), np.zeros_like(y))[0]


def block(w, b):
    """A dense layer's weight/bias block: w's rows, then b's row."""
    return nm.constant(np.concatenate([w, b], axis=-2))


def square(x: nm.Node) -> nm.Node:
    """x * x of a (1, 1) node: x times a dense layer whose weight is x."""
    return nm.dense_forward(x, nm.concat([x, nm.constant([[0.0]])], axis=0))


def scaled(x: nm.Node, factor: float) -> nm.Node:
    """factor * x of a (..., 1) node, as a dense layer."""
    return nm.dense_forward(x, nm.constant([[factor], [0.0]]))


def weighted_sum(x: nm.Node, w: np.ndarray) -> nm.Node:
    """sum(x * w) as a (1, 1) node, for a constant w of x's shape: the
    tests' fixed linear read-out of a graph's output."""
    xv = x.value

    def compute(out=None):
        total = np.sum(xv * w)
        if out is None:
            return np.array([[total]])
        out[0, 0] = total
        return out

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        if first[0]:
            np.multiply(w, g[0, 0], out=x.adjoint)
        else:
            x.adjoint += w * g[0, 0]

    return nm.Node(compute(), (x,), backward, compute)


def sum_all(x: nm.Node) -> nm.Node:
    """The sum of every entry of x, as a (1, 1) node."""
    xv = x.value

    def compute(out=None):
        if out is None:
            return np.array([[xv.sum()]])
        out[0, 0] = xv.sum()
        return out

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        if first[0]:
            np.copyto(x.adjoint, g[0, 0])
        else:
            x.adjoint += g[0, 0]

    return nm.Node(compute(), (x,), backward, compute)


def add(a: nm.Node, b: nm.Node) -> nm.Node:
    """The elementwise sum of two nodes whose shapes broadcast against each
    other; a 0-d sum stays an array, so a replay can write it."""
    av, bv = a.value, b.value

    def compute(out=None):
        return np.add(av, bv, out=out)

    def backward(g: np.ndarray, first: tuple[bool, ...]) -> None:
        for node, f in zip((a, b), first):
            contribution = nm.unbroadcast(g, node.shape)
            if f:
                np.copyto(node.adjoint, contribution)
            else:
                node.adjoint += contribution

    return nm.Node(np.asarray(compute()), (a, b), backward, compute)


class TestDenseForward:
    def test_one_by_one(self):
        out = nm.dense_forward(nm.constant([[3.0]]), block([[2.0]], [[1.0]]))
        npt.assert_array_equal(out.value, [[7.0]])

    def test_identity_weight(self):
        x = np.arange(12.0).reshape(3, 4)
        out = nm.dense_forward(nm.constant(x), block(np.eye(4), np.zeros((1, 4))))
        npt.assert_array_equal(out.value, x)

    def test_zero_weight_gives_bias_rows(self):
        b = np.array([[1.0, -2.0, 0.5]])
        out = nm.dense_forward(nm.constant(np.random.default_rng(0).normal(size=(5, 2))),
                               block(np.zeros((2, 3)), b))
        npt.assert_array_equal(out.value, np.repeat(b, 5, axis=0))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(5, 5\)"):
            nm.dense_forward(nm.constant(np.zeros((2, 3))),
                             block(np.zeros((4, 5)), np.zeros((1, 5))))

    def test_out_of_another_shape_names_it(self):
        with pytest.raises(DimensionError, match=r"into \(2, 4\)"):
            nm.dense_forward(nm.constant(np.zeros((2, 3))),
                             block(np.zeros((3, 5)), np.zeros((1, 5))), out=np.empty((2, 4)))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        out = nm.sigmoid(nm.constant([[0.0]]))
        npt.assert_array_equal(out.value, [[0.5]])

    def test_log3_identity(self):
        out = nm.sigmoid(nm.constant([[math.log(3.0)]]))
        npt.assert_allclose(out.value, [[0.75]], rtol=1e-15)

    def test_clamped_far_negative(self):
        out = nm.sigmoid(nm.constant([[-50.0]]))
        assert out.value[0, 0] >= nm.CLAMP_EPS
        out = nm.sigmoid(nm.constant([[-1e4]]))
        assert out.value[0, 0] == nm.CLAMP_EPS
        out = nm.sigmoid(nm.constant([[1e4]]))
        assert out.value[0, 0] == 1.0 - nm.CLAMP_EPS

    def test_edges_clamp_and_raise_no_flag(self):
        # the exact logistic, clamped; no flag at +-800, where a bare np.exp(800)
        # overflows, since the trainer's diagnostics raise on overflow and invalid
        v = np.array([[-800.0, -745.0, -709.5, 0.0, 800.0]])
        expected = [[nm.CLAMP_EPS, nm.CLAMP_EPS, nm.CLAMP_EPS, 0.5, 1.0 - nm.CLAMP_EPS]]
        with np.errstate(over="raise", invalid="raise"):
            x = nm.constant(np.zeros_like(v))
            out = nm.sigmoid(x)
            x.value[...] = v
            nm.replay([out])
            npt.assert_array_equal(out.value, expected)
            fresh = nm.sigmoid(nm.constant(v))
        npt.assert_array_equal(fresh.value, expected)


class TestSoftmaxVec:
    """attention's weights over candidates that score a vector of scores:
    keys the scores, queries one, scale one, so the weights are their
    softmax"""

    @staticmethod
    def softmax(scores):
        scores = np.asarray(scores, dtype=np.float64).reshape(-1, 1)
        parts = np.stack([scores, np.ones_like(scores), np.zeros_like(scores)])
        return nm.attention(nm.constant(parts), 1.0)[1].ravel()

    def test_symmetry(self):
        npt.assert_array_equal(self.softmax([0.0, 0.0]), [0.5, 0.5])

    def test_single_element(self):
        for c in (-100.0, 0.0, 3.7, 1e6):
            npt.assert_array_equal(self.softmax([c]), [1.0])

    def test_log_two(self):
        npt.assert_allclose(self.softmax([math.log(2.0), 0.0]),
                            [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            self.softmax([])

    def test_simplex_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            scores = rng.normal(scale=rng.uniform(0.1, 50.0), size=m)
            out = self.softmax(scores)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0.0) and np.all(out < 1.0 + 1e-15)


class TestBackwardSweep:
    def test_sigmoid_at_zero(self):
        x = nm.constant([[0.0]])
        root = nm.sigmoid(x)
        nm.backward_sweep(root)
        npt.assert_allclose(x.adjoint, [[0.25]], rtol=1e-15)

    def test_sum_of_vector_is_ones(self):
        v = nm.constant(np.arange(5.0).reshape(1, 5))
        nm.backward_sweep(sum_all(v))
        npt.assert_array_equal(v.adjoint, np.ones((1, 5)))

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractError):
            nm.backward_sweep(nm.constant(np.zeros((2, 2))))

    def test_fanout_accumulates(self):
        x = nm.constant([[3.0]])
        root = sum_all(add(square(x), x))  # x^2 + x -> 2x + 1 = 7
        nm.backward_sweep(root)
        npt.assert_allclose(x.adjoint, [[7.0]], rtol=1e-14)

    def test_mlp_bce_matches_central_differences(self):
        # independent oracle: central differences computed in this test
        rng = np.random.default_rng(42)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, size=8).astype(float).reshape(8, 1)
        w1 = rng.normal(scale=0.5, size=(5, 7))
        b1 = np.zeros((1, 7))
        w2 = rng.normal(scale=0.5, size=(7, 1))
        b2 = np.zeros((1, 1))
        params = [np.concatenate([w1, b1]), np.concatenate([w2, b2])]

        def build():
            nodes = [nm.Node(p) for p in params]
            h = nm.relu(nm.dense_forward(nm.constant(x), nodes[0]))
            p = nm.sigmoid(nm.dense_forward(h, nodes[1]))
            return nodes, bce(p, y)

        nodes, root = build()
        nm.backward_sweep(root)
        for node, arr in zip(nodes, params):
            fd = central_diff(lambda: float(build()[1].value[0, 0]), arr)
            rel = np.abs(node.adjoint - fd) / np.maximum(1.0, np.abs(node.adjoint))
            assert rel.max() < 1e-4

    def test_softmax_rows_gradient(self):
        # attention over 3 candidates of 4 rows, each candidate i keyed by its
        # column of scores (query 1, scale 1) and valued e_i: the output rows
        # are the softmax of the score rows
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(4, 3))

        def build():
            parts = np.zeros((3, 3, 4, 3))
            parts[0, ..., 0] = scores.T
            parts[1, ..., 0] = 1.0
            parts[2] = np.eye(3)[:, None, :]
            s = nm.Node(parts)
            return s, weighted_sum(nm.attention(s, 1.0)[0], weights)

        weights = rng.normal(size=(4, 3))
        s, root = build()
        nm.backward_sweep(root)
        fd = central_diff(lambda: float(build()[1].value[0, 0]), scores, step=1e-5)
        npt.assert_allclose(s.adjoint[0, ..., 0].T, fd, atol=1e-8)

    @pytest.mark.parametrize("key", [(0, 1), (1, -1)])
    def test_index_of_one_entry_follows_a_refill(self, key):
        # an integer for every axis reads a 0-d view of x, not a copy of the entry
        x = nm.constant(np.arange(6.0).reshape(2, 3))
        entry = nm.index(x, key)
        root = sum_all(add(entry, entry))
        order = nm.record(root)
        x.value[...] = 10.0
        nm.replay(order)
        assert entry.value.shape == () and root.value[0, 0] == 20.0
        nm.backward_sweep(root, order)
        expected = np.zeros((2, 3))
        expected[key] = 2.0
        npt.assert_array_equal(x.adjoint, expected)

    def test_column_gradients(self):
        rng = np.random.default_rng(11)
        x_arr = rng.normal(size=(6, 3))

        def build():
            xn = nm.Node(x_arr)
            c = nm.index(xn, (slice(None), slice(1, 2)))
            return xn, sum_all(nm.sigmoid(c))

        xn, root = build()
        nm.backward_sweep(root)
        fd = central_diff(lambda: float(build()[1].value[0, 0]), x_arr, step=1e-5)
        npt.assert_allclose(xn.adjoint, fd, atol=1e-8)


def dense_tensors(seed: int, *layers: tuple[str, int, int]) -> dict[str, np.ndarray]:
    """The `.w` and then the `.b` of each (name, d_in, d_out) layer, drawn
    normal."""
    rng = np.random.default_rng(seed)
    return {f"{name}.{part}": rng.normal(size=shape) for name, d_in, d_out in layers
            for part, shape in (("w", (d_in, d_out)), ("b", (1, d_out)))}


class TestParamStore:
    def test_same_seed_identical(self):
        def build(seed):
            return nm.ParamStore(seed, dense_tensors(seed, ("a", 4, 3), ("b", 3, 2)),
                                 {"b": "b", "a": "a"})

        p1, p2 = build(5), build(5)
        assert p1.seed == 5 and p1.values.tobytes() == p2.values.tobytes()
        for (n1, a), (n2, b) in zip(p1.items(), p2.items()):
            assert n1 == n2
            npt.assert_array_equal(a.value, b.value)

    def test_groups_are_laid_out_first_then_the_rest(self):
        tensors = {"x": np.array([[1.0, 2.0]]), **dense_tensors(0, ("a", 2, 1), ("b", 2, 1))}
        ps = nm.ParamStore(0, tensors, {"g": ["b", "a"]})
        assert ps.names() == ["x", "a.w", "a.b", "b.w", "b.b"]  # the tensors' order
        layout = ("b.w", "b.b", "a.w", "a.b", "x")
        npt.assert_array_equal(ps.values, np.concatenate([tensors[n].ravel() for n in layout]))
        npt.assert_array_equal(ps.groups["g"].value[0], np.vstack([tensors["b.w"],
                                                                   tensors["b.b"]]))
        tensors["x"][...] = 0.0  # the store holds its own copies
        npt.assert_array_equal(ps["x"].value, [[1.0, 2.0]])
        assert ps.n_scalars() == 8 and "a.w" in ps and "a" not in ps
        for name, node in ps.items():
            assert np.shares_memory(node.value, ps.values)
            npt.assert_array_equal(ps.as_named(ps.values)[name], node.value)

    def test_constructor_rejects_bad_groups(self):
        tensors = dense_tensors(0, ("a", 3, 3), ("b", 3, 3), ("c", 2, 3))
        tensors["d.w"], tensors["d.b"] = np.zeros((3, 3)), np.zeros((2, 3))
        for groups, message in (({"g": ["a", "c"]}, "mixes shapes"),
                                ({"g": ["a", "b"], "h": ["b"]}, "more than one group"),
                                ({"g": ["a", "b"], "a": "a"}, "more than one group"),
                                ({"g": ["a.w", "b.w"]}, "not dense layers"),
                                ({"g": "e"}, "not dense layers"),
                                ({"g": "d"}, "not dense layers")):  # a bias of two rows
            with pytest.raises(ContractError, match=message):
                nm.ParamStore(0, tensors, groups)
        ps = nm.ParamStore(0, tensors, {"g": ["a", "b"], "c": "c"})
        assert ps.groups.keys() == {"g", "c"}
        assert ps.groups["g"].shape == (2, 4, 3)
        assert ps.groups["c"].shape == (3, 3)  # a plain layer name is a 0-lead block

    def test_sweep_writes_into_the_gradient_vector(self):
        ps = nm.ParamStore(0, dense_tensors(0, ("l", 3, 2)), {"l": "l"})
        w, b = ps["l.w"], ps["l.b"]
        x = nm.constant(np.ones((4, 3)))
        for _ in range(2):  # the second sweep zeroes the views in place
            nm.backward_sweep(sum_all(nm.dense_forward(x, ps.groups["l"])))
        assert np.shares_memory(w.adjoint, ps.grads)
        assert np.shares_memory(b.adjoint, ps.grads)
        npt.assert_array_equal(ps.as_named(ps.grads)["l.b"], [[4.0, 4.0]])
        npt.assert_array_equal(ps.grads, np.full(8, 4.0))

    def test_group_and_member_on_one_graph_rejected(self):
        # each leaf's first contribution is written over its adjoint, so two
        # leaves whose adjoints overlap would clobber each other: a stacked
        # or a 0-lead block and one of its layer's tensors
        ps = nm.ParamStore(0, dense_tensors(0, ("l0", 3, 2), ("l1", 3, 2), ("l2", 3, 2)),
                           {"l": ["l1", "l2"], "l0": "l0"})
        x = nm.constant(np.ones((4, 3)))
        both = add(sum_all(nm.dense_forward(x, ps.groups["l"])),
                   sum_all(nm.dense_forward(x, ps.groups["l0"])))
        nm.backward_sweep(both)  # the blocks alone are fine
        for member in ("l1.b", "l0.w"):
            with pytest.raises(ContractError, match="share adjoint memory"):
                nm.backward_sweep(add(both, sum_all(ps[member])))


def scalar_store(name: str, value) -> tuple[nm.ParamStore, nm.Node]:
    """A store of one ungrouped tensor, and the tensor's leaf."""
    ps = nm.ParamStore(0, {name: np.array(value, dtype=np.float64)}, {})
    return ps, ps[name]


class TestFiniteDiffCheck:
    def test_square_function(self):
        ps, x = scalar_store("x", [[3.0]])
        report = nm.finite_diff_check(ps, lambda: square(x), step=1e-3, tol=1e-4)
        assert report.passed
        nm.backward_sweep(square(x))
        npt.assert_allclose(x.adjoint, [[6.0]], rtol=1e-12)

    def test_entropy_stationary_at_half(self):
        ps, p = scalar_store("p", [[0.5]])

        def loss():  # the binary entropy
            return nm.bernoulli_loglik(p, np.zeros((1, 1)), np.zeros((1, 1)),
                                       -np.ones((1, 1)))[0]

        report = nm.finite_diff_check(ps, loss, step=1e-4, tol=1e-4)
        assert report.passed
        nm.backward_sweep(loss())
        npt.assert_allclose(p.adjoint, [[0.0]], atol=1e-12)

    def test_kink_inside_the_window_is_remeasured(self):
        # the pre-activation 1.18 * w + b, at w = 0.5, sits 1e-7 above the ReLU
        # kink: a default 1e-6 step in w or b crosses it, a 1e-8 step does not
        ps, wb = scalar_store("wb", [[0.5], [-0.59 + 1e-7]])
        x = nm.constant(np.array([[1.18]]))
        report = nm.finite_diff_check(ps, lambda: nm.relu(nm.dense_forward(x, wb)))
        assert report.passed, report
        assert report.n_remeasured == 2
        assert "2 re-measured" in str(report)

    def test_wrong_gradient_fails_at_every_step(self, monkeypatch):
        # every adjoint 0.1% too large: no step size rescues it
        sweep = nm.backward_sweep
        monkeypatch.setattr(nm, "backward_sweep",
                            lambda root: sweep(scaled(root, 1.001)))
        ps, x = scalar_store("x", [[3.0]])
        report = nm.finite_diff_check(ps, lambda: square(x))
        assert not report.passed
        assert report.n_remeasured == 1
        assert report.worst_rel_error == pytest.approx(1e-3, rel=1e-2)

    def test_nondeterministic_loss_rejected(self):
        ps, x = scalar_store("x", [[1.0]])
        state = {"calls": 0}

        def loss():
            state["calls"] += 1
            return scaled(x, float(state["calls"]))

        with pytest.raises(ContractError):
            nm.finite_diff_check(ps, loss)

    def test_random_mlps_pass_over_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ps = nm.ParamStore(seed, dense_tensors(seed, ("l0", 4, 6), ("l1", 6, 1)),
                               {"l0": "l0", "l1": "l1"})
            x = rng.normal(size=(5, 4))
            y = rng.integers(0, 2, size=(5, 1)).astype(float)

            def loss():
                h = nm.relu(nm.dense_forward(nm.constant(x), ps.groups["l0"]))
                p = nm.sigmoid(nm.dense_forward(h, ps.groups["l1"]))
                return bce(p, y)

            report = nm.finite_diff_check(ps, loss, tol=1e-4)
            assert report.passed, f"seed {seed}: {report}"


# one graph per new or broadcasting op, each reduced to a scalar by fixed
# random weights; h is (2, 4, 5): a stacked lead axis over a 2-D input
BROADCAST_CASES = {
    "dense_stacked": lambda t: t.h,
    "add_size1_axes": lambda t: add(t.h, t.s),
    "index_none_strided": lambda t: nm.index(t.h, (slice(None), None, slice(0, 4, 2))),
    "index_ellipsis_none_int": lambda t: nm.index(t.h, (Ellipsis, None, 3)),
    "concat": lambda t: nm.concat([t.h, nm.index(t.h, (slice(None), slice(1, 3)))], axis=1),
}


@pytest.mark.parametrize("case", sorted(BROADCAST_CASES))
def test_broadcast_ops_pass_finite_differences(case):
    rng = np.random.default_rng(5)
    tensors = {name: np.zeros(shape) for name, shape in (("x", (4, 3)), ("s", (1, 5)))}
    ps = nm.ParamStore(0, tensors | dense_tensors(0, ("l0", 3, 5), ("l1", 3, 5)),
                       {"l": ["l0", "l1"]})
    ps.values[...] = rng.normal(size=ps.values.size)
    t = types.SimpleNamespace(s=ps["s"])

    def output():
        t.h = nm.dense_forward(ps["x"], ps.groups["l"])
        return BROADCAST_CASES[case](t)

    weights = rng.normal(size=output().shape)
    report = nm.finite_diff_check(
        ps, lambda: weighted_sum(output(), weights), tol=1e-6)
    assert report.passed, report
    # every operand the case reads has a gradient, through the group views too
    for name in ("x", "l0.w", "l1.w", "l0.b", "l1.b"):
        assert np.any(ps[name].adjoint != 0.0), name


def test_forward_determinism():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(1, 3))
    out1 = nm.sigmoid(nm.dense_forward(nm.constant(x), block(w, b)))
    out2 = nm.sigmoid(nm.dense_forward(nm.constant(x), block(w, b)))
    assert np.array_equal(out1.value, out2.value)


def poison(order) -> None:
    """Fill every non-leaf adjoint of a recorded tape with NaN: a sweep must
    write each before it reads it."""
    for node in order:
        if node.parents:
            node.adjoint.fill(np.nan)


def _passes_and_replays(ps: nm.ParamStore, outputs, weights, refill) -> None:
    """outputs() builds the graph under test over ps's leaves and returns
    its output nodes; the loss weighs each by its fixed array of `weights`
    and sums. The loss passes finite differences at tol 1e-6, and a tape
    recorded on other leaf values, refilled by refill() and replayed, gives
    the bytes of a fresh tape: values and every adjoint, though its
    adjoints were NaN before the sweep."""

    def loss():
        outs = outputs()
        terms = [weighted_sum(out, w) for out, w in zip(outs, weights)]
        root = terms[0]
        for term in terms[1:]:
            root = add(root, term)
        return outs, root

    report = nm.finite_diff_check(ps, lambda: loss()[1], tol=1e-6)
    assert report.passed, report

    outs, root = loss()
    order = nm.record(root)
    refill()
    nm.replay(order)
    poison(order)
    nm.backward_sweep(root, order)
    replayed = [out.value.tobytes() for out in outs] + [root.value.tobytes(),
                                                        ps.grads.tobytes()]
    fresh_outs, fresh_root = loss()
    nm.backward_sweep(fresh_root)
    assert replayed == [out.value.tobytes() for out in fresh_outs] + [
        fresh_root.value.tobytes(), ps.grads.tobytes()]


@st.composite
def dense_cases(draw):
    """(input lead, block lead, rows, d_in, d_out, uses, seed): a 2-D input,
    or one stacked on n or on 1 (which broadcasts), against a 0-lead block or
    one stacked on n or on (k, n), as the model's fusion sides are, on
    (k, 1), as a stage's intra-stage projections are over its (n, rows, d)
    rows, or on 1 (which broadcasts); the loss reads the layer once, or
    twice so that the block's adjoint adds up."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    wb_lead = draw(st.sampled_from([(), (n,), (k, n), (k, 1), (1,)]))
    x_lead = (n,) if wb_lead == (k, 1) else draw(st.sampled_from([(), (n,), (1,)]))
    return (x_lead, wb_lead, draw(st.integers(1, 70)), draw(st.integers(1, 5)),
            draw(st.integers(1, 5)), draw(st.integers(1, 2)), draw(st.integers(0, 2**16)))


def _store_view(node: nm.Node, shape: tuple[int, ...]) -> nm.Node:
    """A leaf over a stored tensor reshaped, its adjoint a view of the
    tensor's, as a group's is."""
    view = nm.Node(node.value.reshape(shape))
    view.adjoint = node.adjoint.reshape(shape)
    return view


def _leaves(seed: int, shapes: dict[str, tuple[int, ...]]
            ) -> tuple[nm.ParamStore, list[nm.Node]]:
    """A store of one tensor per name, and leaves of the given shapes over
    them, their adjoints views of the tensors'."""
    ps = nm.ParamStore(seed, {name: np.zeros((1, math.prod(shape)))
                              for name, shape in shapes.items()}, {})
    return ps, [_store_view(ps[name], shape) for name, shape in shapes.items()]


def _refill(ps: nm.ParamStore, rng: np.random.Generator, scale: float = 1.0):
    """A function that draws new normal values for every scalar of ps."""

    def draw_values():
        ps.values[...] = rng.normal(scale=scale, size=ps.values.size)
    return draw_values


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=dense_cases())
# both folds of a block's adjoint over a stacked input, each read twice
@example(case=((3,), (), 5, 2, 3, 2, 1))
@example(case=((3,), (2, 1), 5, 2, 3, 2, 1))
def test_dense_forward_on_random_broadcasting_shapes(case):
    x_lead, wb_lead, rows, d_in, d_out, uses, seed = case
    rng = np.random.default_rng(seed)
    layers = np.array([f"l{i}" for i in range(math.prod(wb_lead))]).reshape(wb_lead)
    tensors = {"x": np.zeros((math.prod(x_lead) * rows, d_in))}
    ps = nm.ParamStore(seed, tensors | dense_tensors(seed, *((name, d_in, d_out)
                                                           for name in layers.flat)),
                       {"wb": layers.tolist()})  # a 0-d array's list is its one name
    wb = ps.groups["wb"]
    x = _store_view(ps["x"], x_lead + (rows, d_in))
    out_shape = np.broadcast_shapes(x_lead, wb_lead) + (rows, d_out)
    weights = [rng.normal(size=out_shape) for _ in range(uses)]

    draw_values = _refill(ps, rng)
    draw_values()
    _passes_and_replays(ps, lambda: [nm.dense_forward(x, wb) for _ in weights], weights,
                        draw_values)


@st.composite
def elementwise_cases(draw):
    """(op, lead, rows, d, uses, zeros, seed) for the ops whose backward
    builds a rectifier's factor: `relu` and `leaky_relu` of a (lead, rows,
    d) operand. A share `zeros` of the leaf values is exactly zero, where a
    rectifier sits on its kink; the loss reads the op once, or twice so
    that the operand's adjoint adds up."""
    return (draw(st.sampled_from(["relu", "leaky_relu"])),
            draw(st.sampled_from([(), (3,), (2, 3)])), draw(st.integers(1, 16)),
            draw(st.integers(1, 8)), draw(st.integers(1, 2)),
            draw(st.sampled_from([0.0, 0.1, 0.5])), draw(st.integers(0, 2**16)))


ELEMENTWISE_OPS = {"relu": nm.relu, "leaky_relu": nm.leaky_relu}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=elementwise_cases())
def test_elementwise_ops_on_random_shapes(case):
    op, lead, rows, d, uses, zeros, seed = case
    rng = np.random.default_rng(seed)
    ps, (x,) = _leaves(seed, {"x": lead + (rows, d)})

    def draw_values():
        values = rng.normal(size=ps.values.size)
        values[rng.random(values.size) < zeros] = 0.0
        ps.values[...] = values

    draw_values()
    weights = [rng.normal(size=x.shape) for _ in range(uses)]
    _passes_and_replays(ps, lambda: [ELEMENTWISE_OPS[op](x) for _ in weights],
                        weights, draw_values)


@st.composite
def add_sigmoid_sum_cases(draw):
    """(op, a_shape, b_shape, uses, same, seed): `add` of two operands whose
    shapes broadcast against each other, suffixes of one shape of 0 to 3
    axes with some sizes 1, or of one operand with itself (same); `sigmoid`
    and `sum_all` of the second. 0-d and 1-axis operands are among them;
    the loss reads the op once, or twice so that the adjoints add up."""
    base = draw(st.lists(st.integers(1, 4), max_size=3))

    def operand():
        suffix = base[len(base) - draw(st.integers(0, len(base))):]
        return tuple(1 if draw(st.booleans()) else n for n in suffix)

    return (draw(st.sampled_from(["add", "sigmoid", "sum_all"])), operand(), operand(),
            draw(st.integers(1, 2)), draw(st.booleans()), draw(st.integers(0, 2**16)))


ADD_SIGMOID_SUM_OPS = {
    "add": lambda a, b, same: add(b, b) if same else add(a, b),
    "sigmoid": lambda a, b, same: nm.sigmoid(b),
    "sum_all": lambda a, b, same: sum_all(b),
}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=add_sigmoid_sum_cases())
def test_add_sigmoid_and_sum_all_on_random_shapes(case):
    op, a_shape, b_shape, uses, same, seed = case
    rng = np.random.default_rng(seed)
    ps, (a, b) = _leaves(seed, {"a": a_shape, "b": b_shape})
    draw_values = _refill(ps, rng)
    draw_values()
    out_shape = ADD_SIGMOID_SUM_OPS[op](a, b, same).shape
    weights = [rng.normal(size=out_shape) for _ in range(uses)]
    _passes_and_replays(ps, lambda: [ADD_SIGMOID_SUM_OPS[op](a, b, same) for _ in weights],
                        weights, draw_values)


@st.composite
def index_cases(draw):
    """(shape, axis, parts, seed): integer reads of a stacked tensor's
    parts along one lead axis, as the model reads the parts of a projection
    stack, (slice(None),) * axis + (part,): every part once, so that the
    reads tile the tensor, every part twice, so that the adjoint adds up,
    or some parts, so that the first read's zero fill shows; in any order."""
    lead = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    shape = tuple(lead) + (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    axis = draw(st.integers(0, len(lead) - 1))
    every = list(range(shape[axis]))
    reads = draw(st.sampled_from(["once", "twice", "some"]))
    if reads == "some":
        parts = draw(st.lists(st.sampled_from(every), min_size=1, max_size=len(every)))
    else:
        parts = draw(st.permutations(every * (2 if reads == "twice" else 1)))
    return shape, axis, parts, draw(st.integers(0, 2**16))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=index_cases())
def test_index_reads_on_random_shapes(case):
    shape, axis, parts, seed = case
    rng = np.random.default_rng(seed)
    ps, (x,) = _leaves(seed, {"x": shape})
    keys = [(slice(None),) * axis + (part,) for part in parts]
    draw_values = _refill(ps, rng)
    draw_values()
    weights = [rng.normal(size=x.value[key].shape) for key in keys]
    _passes_and_replays(ps, lambda: [nm.index(x, key) for key in keys], weights, draw_values)


@st.composite
def concat_cases(draw):
    """(shapes, axis, order, seed): one to three tensors of 1 to 3 axes
    that differ only along the joined axis (negative too), joined in any
    order, a tensor possibly more than once."""
    base = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    axis = draw(st.integers(-len(base), len(base) - 1))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shapes = []
    for size in sizes:
        shape = list(base)
        shape[axis] = size
        shapes.append(tuple(shape))
    order = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=4))
    return shapes, axis, order, draw(st.integers(0, 2**16))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=concat_cases())
def test_concat_on_random_shapes(case):
    shapes, axis, order, seed = case
    rng = np.random.default_rng(seed)
    ps, leaves = _leaves(seed, {f"p{i}": shape for i, shape in enumerate(shapes)})
    draw_values = _refill(ps, rng)
    draw_values()
    parts = [leaves[i] for i in order]
    out_shape = np.concatenate([p.value for p in parts], axis=axis).shape
    weights = [rng.normal(size=out_shape)]
    _passes_and_replays(ps, lambda: [nm.concat(parts, axis=axis)], weights, draw_values)


class TestJoin:
    @staticmethod
    def sides(buffer):
        """Two dense layers over one input, writing buffer[0] and buffer[1]."""
        x = nm.constant(np.arange(8.0).reshape(4, 2))
        return [nm.dense_forward(x, block(np.full((2, 3), i + 1.0), np.zeros((1, 3))),
                                 out=buffer[i]) for i in range(2)]

    def test_parts_write_the_buffer_and_read_views_of_its_adjoint(self):
        buffer = np.empty((2, 4, 3))
        parts = self.sides(buffer)
        joined = nm.join(parts, buffer, [0, 1])
        assert joined.value is buffer and joined.backward_fn is None
        npt.assert_array_equal(buffer[1], 2.0 * buffer[0])
        weights = np.arange(24.0).reshape(2, 4, 3)
        root = weighted_sum(joined, weights)
        nm.backward_sweep(root, nm.record(root))
        for i, part in enumerate(parts):
            assert np.shares_memory(part.adjoint, joined.adjoint)
            npt.assert_array_equal(part.adjoint, weights[i])

    def test_a_part_read_besides_its_join_is_rejected(self):
        buffer = np.empty((2, 4, 3))
        parts = self.sides(buffer)
        joined = nm.join(parts, buffer, [0, 1])
        for other in (sum_all(parts[1]), nm.relu(parts[0])):
            with pytest.raises(ContractError, match="besides its join"):
                nm.record(add(sum_all(joined), sum_all(other)))

    def test_parts_must_tile_the_buffer_as_its_views(self):
        buffer = np.empty((2, 4, 3))
        parts = self.sides(buffer)
        copy = nm.dense_forward(parts[0].parents[0], parts[0].parents[1])
        for joined, keys, message in ((parts, [0], "2 parts and 1 keys"),
                                      (parts, [1, 0], "not the buffer's view"),
                                      ([copy, parts[1]], [0, 1], "not the buffer's view"),
                                      ([parts[0]], [0], "unwritten"),
                                      ([parts[0], parts[0]], [0, 0], "overlaps")):
            with pytest.raises(ContractError, match=message):
                nm.join(joined, buffer, keys)


@st.composite
def join_cases(draw):
    """(lead, axis, sides, rows, d_in, d_out, uses, seed): one to three
    dense layers, each writing its (*lead, rows, d_out) product in place
    into its part of one buffer stacked on a new axis `axis`, as a fusion's
    two sides write its candidates. Each side's input and block are 2-D or
    stacked on lead, at least one of them stacked where lead is. The loss
    reads the join once, or twice so that its adjoint adds up."""
    lead = draw(st.sampled_from([(), (2,), (3, 2)]))
    sides = draw(st.lists(st.sampled_from([(lead, ()), ((), lead), (lead, lead)]),
                          min_size=1, max_size=3))
    return (lead, draw(st.integers(0, len(lead))), sides, draw(st.integers(1, 6)),
            draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2)),
            draw(st.integers(0, 2**16)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=join_cases())
def test_dense_out_and_join_on_random_shapes(case):
    lead, axis, sides, rows, d_in, d_out, uses, seed = case
    rng = np.random.default_rng(seed)
    ps, leaves = _leaves(seed, {f"{kind}{i}": shape for i, (x_lead, wb_lead) in enumerate(sides)
                                for kind, shape in (("x", x_lead + (rows, d_in)),
                                                    ("wb", wb_lead + (d_in + 1, d_out)))})
    layers = list(zip(leaves[::2], leaves[1::2]))
    shape = lead[:axis] + (len(sides),) + lead[axis:] + (rows, d_out)
    keys = [(slice(None),) * axis + (i,) for i in range(len(sides))]
    draw_values = _refill(ps, rng)
    draw_values()

    def joined():
        buffer = np.empty(shape)
        parts = [nm.dense_forward(x, wb, out=buffer[key]) for (x, wb), key in zip(layers, keys)]
        return nm.join(parts, buffer, keys)

    # each part's product, written in place, is the bytes of one of its own
    node = joined()
    for (x, wb), key in zip(layers, keys):
        npt.assert_array_equal(node.value[key], nm.dense_forward(x, wb).value)
    weights = [rng.normal(size=shape) for _ in range(uses)]
    _passes_and_replays(ps, lambda: [joined()] * uses, weights, draw_values)


@st.composite
def attention_cases(draw):
    """(parts, n_cand, lead, rows, d, uses, scale, seed): attention over
    one to four candidates of a (3, n_cand, *lead, rows, d) tensor, its
    parts in any order, its values drawn at a scale that leaves the
    softmax soft or nearly one-hot; the loss reads the op once, or twice so
    that the operand's adjoint adds up."""
    return ("".join(draw(st.permutations("kqv"))), draw(st.integers(1, 4)),
            draw(st.sampled_from([(), (2,), (2, 3)])), draw(st.integers(1, 8)),
            draw(st.integers(1, 5)), draw(st.integers(1, 2)),
            draw(st.sampled_from([0.3, 1.0, 3.0])), draw(st.integers(0, 2**16)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=attention_cases())
def test_attention_on_random_shapes(case):
    parts, n_cand, lead, rows, d, uses, scale, seed = case
    rng = np.random.default_rng(seed)
    ps, (x,) = _leaves(seed, {"x": (3, n_cand) + lead + (rows, d)})
    draw_values = _refill(ps, rng, scale)
    draw_values()

    out, weights = nm.attention(x, 1.0 / math.sqrt(d), parts)
    k, q, v = (x.value[parts.index(part)] for part in "kqv")
    scores = (k * q).sum(axis=-1, keepdims=True) / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=0))
    npt.assert_allclose(weights, e / e.sum(axis=0), rtol=1e-12, atol=1e-300)
    npt.assert_allclose(out.value, (weights * v).sum(axis=0), rtol=1e-12, atol=1e-12)

    read_out = [rng.normal(size=out.shape) for _ in range(uses)]
    _passes_and_replays(ps, lambda: [nm.attention(x, 1.0 / math.sqrt(d), parts)[0]
                                     for _ in read_out], read_out, draw_values)


@pytest.mark.parametrize("gap", [40.0, -40.0, 800.0, -800.0])
def test_two_candidates_far_apart(gap):
    # scaled score gaps of +-40 and +-800, the second past the exponent cap
    # in one direction and past exp's underflow in the other
    scale, rows, d = 0.25, 5, 3
    rng = np.random.default_rng(11)
    k = np.zeros((2, rows, d))
    k[0, :, 0], k[1, :, 0] = gap / (2 * scale), -gap / (2 * scale)
    q = np.zeros((2, rows, d))
    q[..., 0] = 1.0
    x = nm.constant(np.stack([k, q, rng.normal(size=(2, rows, d))]))
    with np.errstate(over="raise", invalid="raise"):
        out, weights = nm.attention(x, scale)
        nm.backward_sweep(weighted_sum(out, rng.normal(size=out.shape)))
    z = np.array([gap / 2, -gap / 2])[:, None, None] * np.ones((2, rows, 1))
    e = np.exp(z - z.max(axis=0))
    reference = e / e.sum(axis=0)
    npt.assert_allclose(weights, reference, rtol=1e-12, atol=1e-12)
    # a weight is above 0 wherever the exact softmax's is a float above 0;
    # past exp's underflow both are exactly 0
    assert (weights >= 0.0).all() and (weights[reference > 0.0] > 0.0).all()
    npt.assert_allclose(out.value, (reference * x.value[2]).sum(axis=0), rtol=1e-12, atol=1e-12)
    assert np.isfinite(x.adjoint).all()


def test_an_adjoint_free_constant_gets_no_adjoint():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(5, 3))
    x, free = nm.constant(data), nm.constant(data, adjoint=False)
    wb = nm.constant(rng.normal(size=(2, 4, 2)))
    w = rng.normal(size=(2, 5, 2))
    nm.backward_sweep(weighted_sum(nm.dense_forward(x, wb), w))
    kept = wb.adjoint.copy()
    nm.backward_sweep(weighted_sum(nm.dense_forward(free, wb), w))
    assert x.adjoint is not None and free.adjoint is None
    npt.assert_array_equal(wb.adjoint, kept)


def test_attention_checks_its_operand():
    for shape, error in (((2, 2, 3), DimensionError), ((3, 4), DimensionError),
                         ((3, 0, 2, 4), DomainError)):
        with pytest.raises(error):
            nm.attention(nm.constant(np.zeros(shape)), 1.0)
    with pytest.raises(ContractError, match="k, q and v"):
        nm.attention(nm.constant(np.zeros((3, 2, 4))), 1.0, "kqq")


@st.composite
def bernoulli_cases(draw):
    """(rows, cols, uses, seed): probabilities and weights of one shape, the
    op read once or twice so that p's adjoint adds up."""
    return (draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 2)),
            draw(st.integers(0, 2**16)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=bernoulli_cases())
def test_bernoulli_loglik_value_gradient_and_replay(case):
    rows, cols, uses, seed = case
    rng = np.random.default_rng(seed)
    # more than a difference step away from 0 and 1, with the clamp's extremes
    p_arr = rng.uniform(0.01, 0.99, size=(rows, cols))
    p_arr.flat[0] = 0.01
    ps = nm.ParamStore(seed, {"p": p_arr}, {})
    p = ps["p"]
    ws = [rng.normal(size=(rows, cols)) for _ in range(3)]
    scale = float(rng.normal())

    pv, (w_pos, w_neg, w_ent) = p.value, ws
    q = 1.0 - pv
    reference = (w_pos * np.log(pv) + w_neg * np.log(q)
                 + w_ent * (pv * np.log(pv) + q * np.log(q)))
    values = nm.bernoulli_loglik_value(pv, *ws)
    npt.assert_allclose(values, reference, rtol=1e-13, atol=1e-15)
    total, logs = nm.bernoulli_loglik(p, *ws)
    # the op sums its own terms: the value function's sum, bit for bit
    assert total.shape == (1, 1) and total.value[0, 0] == values.sum()
    for kept, expected in zip(logs, (q, np.log(pv), np.log(q))):
        npt.assert_array_equal(kept, expected)

    def loss():
        # an upstream adjoint other than one, and a second read when uses is 2
        terms = [scaled(nm.bernoulli_loglik(p, *ws)[0], scale) for _ in range(uses)]
        return terms[0] if uses == 1 else add(*terms)

    report = nm.finite_diff_check(ps, loss, tol=1e-6)
    assert report.passed, report

    # a tape recorded on other weights and probabilities, refilled in place
    # and replayed, gives the bytes of a fresh node
    root = loss()
    order = nm.record(root)
    for w in ws:
        w[...] = rng.normal(size=w.shape)
    ps.values[...] = rng.uniform(0.01, 0.99, size=ps.values.size)
    nm.replay(order)
    nm.backward_sweep(root, order)
    replayed = root.value.tobytes(), ps.grads.tobytes()
    fresh = loss()
    nm.backward_sweep(fresh)
    assert replayed == (fresh.value.tobytes(), ps.grads.tobytes())


def test_bernoulli_loglik_weights_must_match_the_probabilities():
    p = nm.constant(np.full((2, 3), 0.5))
    good, bad = np.ones((2, 3)), np.ones((1, 3))
    for weights in ((bad, good, good), (good, bad, good), (good, good, bad)):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 3\)"):
            nm.bernoulli_loglik(p, *weights)
