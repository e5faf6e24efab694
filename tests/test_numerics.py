import math
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
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


def bce_terms(p, y):
    """The per-row terms of the mean binary cross-entropy of labels y."""
    return nm.bernoulli_loglik(p, -y / len(y), -(1.0 - y) / len(y), np.zeros_like(y))


def block(w, b):
    """A dense layer's weight/bias block: w's rows, then b's row."""
    return nm.constant(np.concatenate([w, b], axis=-2))


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


class TestSoftmaxVec:
    """softmax over the only axis of a vector"""

    @staticmethod
    def softmax(scores):
        return nm.softmax(nm.constant(scores), axis=0).value

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
        nm.backward_sweep(nm.sum_all(v))
        npt.assert_array_equal(v.adjoint, np.ones((1, 5)))

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractError):
            nm.backward_sweep(nm.constant(np.zeros((2, 2))))

    def test_fanout_accumulates(self):
        x = nm.constant([[3.0]])
        root = nm.sum_all(nm.add(nm.mul(x, x), x))  # x^2 + x -> 2x + 1 = 7
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
            return nodes, nm.sum_all(bce_terms(p, y))

        nodes, root = build()
        nm.backward_sweep(root)
        for node, arr in zip(nodes, params):
            fd = central_diff(lambda: float(build()[1].value[0, 0]), arr)
            rel = np.abs(node.adjoint - fd) / np.maximum(1.0, np.abs(node.adjoint))
            assert rel.max() < 1e-4

    def test_softmax_rows_gradient(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(4, 3))

        def build():
            s = nm.Node(scores)
            sm = nm.softmax(s, axis=1)
            return s, nm.sum_all(nm.mul(sm, nm.constant(weights)))

        weights = rng.normal(size=(4, 3))
        s, root = build()
        nm.backward_sweep(root)
        fd = central_diff(lambda: float(build()[1].value[0, 0]), scores, step=1e-5)
        npt.assert_allclose(s.adjoint, fd, atol=1e-8)

    def test_column_gradients(self):
        rng = np.random.default_rng(11)
        x_arr = rng.normal(size=(6, 3))

        def build():
            xn = nm.Node(x_arr)
            c = nm.index(xn, (slice(None), slice(1, 2)))
            return xn, nm.sum_all(nm.mul(c, c))

        xn, root = build()
        nm.backward_sweep(root)
        fd = central_diff(lambda: float(build()[1].value[0, 0]), x_arr, step=1e-5)
        npt.assert_allclose(xn.adjoint, fd, atol=1e-8)


class TestParamStore:
    def test_glorot_bounds_and_zero_bias(self):
        ps = nm.ParamStore(seed=0)
        w, b = ps.add_dense("layer", 30, 10)
        limit = math.sqrt(6.0 / 40.0)
        assert np.all(np.abs(w.value) <= limit)
        npt.assert_array_equal(b.value, np.zeros((1, 10)))

    def test_same_seed_identical(self):
        def build(seed):
            ps = nm.ParamStore(seed)
            ps.add_dense("a", 4, 3)
            ps.add_dense("b", 3, 2)
            return ps

        p1, p2 = build(5), build(5)
        for (n1, a), (n2, b) in zip(p1.items(), p2.items()):
            assert n1 == n2
            npt.assert_array_equal(a.value, b.value)

    def test_duplicate_name_rejected(self):
        ps = nm.ParamStore(0)
        ps.add("x", np.zeros((1, 1)))
        with pytest.raises(ContractError):
            ps.add("x", np.zeros((1, 1)))

    def test_load_values_shape_mismatch(self):
        ps = nm.ParamStore(0)
        ps.add("x", np.zeros((2, 2)))
        with pytest.raises(ContractError):
            ps.load_values({"x": np.zeros((2, 3))})
        with pytest.raises(ContractError):
            ps.load_values({"y": np.zeros((2, 2))})

    def test_pack_rejects_mixed_groups_and_late_adds(self):
        ps = nm.ParamStore(0)
        ps.add_dense("a", 3, 3)
        ps.add_dense("b", 3, 3)
        ps.add_dense("c", 2, 3)
        with pytest.raises(ContractError, match="mixes shapes"):
            ps.pack({"g": ["a", "c"]})
        with pytest.raises(ContractError, match="more than one group"):
            ps.pack({"g": ["a", "b"], "h": ["b"]})
        with pytest.raises(ContractError, match="not dense layers"):
            ps.pack({"g": ["a.w", "b.w"]})
        ps.pack({"g": ["a", "b"]})
        assert ps.groups.keys() == {"g", "c"}
        assert ps.groups["g"].shape == (2, 4, 3)
        assert ps.groups["c"].shape == (3, 3)  # an unstacked layer is a 0-lead block
        with pytest.raises(ContractError, match="already packed"):
            ps.add("d", np.zeros((1, 1)))

    def test_sweep_writes_into_the_gradient_vector(self):
        ps = nm.ParamStore(0)
        w, b = ps.add_dense("l", 3, 2)
        ps.pack()
        x = nm.constant(np.ones((4, 3)))
        for _ in range(2):  # the second sweep zeroes the views in place
            nm.backward_sweep(nm.sum_all(nm.dense_forward(x, ps.groups["l"])))
        assert np.shares_memory(w.adjoint, ps.grads)
        assert np.shares_memory(b.adjoint, ps.grads)
        npt.assert_array_equal(ps.as_named(ps.grads)["l.b"], [[4.0, 4.0]])
        npt.assert_array_equal(ps.grads, np.full(8, 4.0))

    def test_group_and_member_on_one_graph_rejected(self):
        # each leaf's first contribution is written over its adjoint, so two
        # leaves whose adjoints overlap would clobber each other: a stacked
        # or a 0-lead block and one of its layer's tensors
        ps = nm.ParamStore(0)
        ps.add_dense("l0", 3, 2)
        ps.add_dense("l1", 3, 2)
        ps.add_dense("l2", 3, 2)
        ps.pack({"l": ["l1", "l2"]})
        x = nm.constant(np.ones((4, 3)))
        both = nm.add(nm.sum_all(nm.dense_forward(x, ps.groups["l"])),
                      nm.sum_all(nm.dense_forward(x, ps.groups["l0"])))
        nm.backward_sweep(both)  # the blocks alone are fine
        for member in ("l1.b", "l0.w"):
            with pytest.raises(ContractError, match="share adjoint memory"):
                nm.backward_sweep(nm.add(both, nm.sum_all(ps[member])))


class TestFiniteDiffCheck:
    def test_square_function(self):
        ps = nm.ParamStore(0)
        x = ps.add("x", np.array([[3.0]]))
        report = nm.finite_diff_check(ps, lambda: nm.mul(x, x), step=1e-3, tol=1e-4)
        assert report.passed
        nm.backward_sweep(nm.mul(x, x))
        npt.assert_allclose(x.adjoint, [[6.0]], rtol=1e-12)

    def test_entropy_stationary_at_half(self):
        ps = nm.ParamStore(0)
        p = ps.add("p", np.array([[0.5]]))

        def loss():  # the binary entropy
            return nm.bernoulli_loglik(p, np.zeros((1, 1)), np.zeros((1, 1)), -np.ones((1, 1)))

        report = nm.finite_diff_check(ps, loss, step=1e-4, tol=1e-4)
        assert report.passed
        nm.backward_sweep(loss())
        npt.assert_allclose(p.adjoint, [[0.0]], atol=1e-12)

    def test_kink_inside_the_window_is_remeasured(self):
        # the pre-activation 1.18 * w + b, at w = 0.5, sits 1e-7 above the ReLU
        # kink: a default 1e-6 step in w or b crosses it, a 1e-8 step does not
        ps = nm.ParamStore(0)
        wb = ps.add("wb", np.array([[0.5], [-0.59 + 1e-7]]))
        x = nm.constant(np.array([[1.18]]))
        report = nm.finite_diff_check(ps, lambda: nm.relu(nm.dense_forward(x, wb)))
        assert report.passed, report
        assert report.n_remeasured == 2
        assert "2 re-measured" in str(report)

    def test_wrong_gradient_fails_at_every_step(self, monkeypatch):
        # every adjoint 0.1% too large: no step size rescues it
        sweep = nm.backward_sweep
        monkeypatch.setattr(nm, "backward_sweep",
                            lambda root: sweep(nm.mul(root, nm.constant([[1.001]]))))
        ps = nm.ParamStore(0)
        x = ps.add("x", np.array([[3.0]]))
        report = nm.finite_diff_check(ps, lambda: nm.mul(x, x))
        assert not report.passed
        assert report.n_remeasured == 1
        assert report.worst_rel_error == pytest.approx(1e-3, rel=1e-2)

    def test_nondeterministic_loss_rejected(self):
        ps = nm.ParamStore(0)
        x = ps.add("x", np.array([[1.0]]))
        state = {"calls": 0}

        def loss():
            state["calls"] += 1
            return nm.mul(x, nm.constant([[float(state["calls"])]]))

        with pytest.raises(ContractError):
            nm.finite_diff_check(ps, loss)

    def test_random_mlps_pass_over_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ps = nm.ParamStore(seed)
            ps.add_dense("l0", 4, 6)
            ps.add_dense("l1", 6, 1)
            ps.pack()
            x = rng.normal(size=(5, 4))
            y = rng.integers(0, 2, size=(5, 1)).astype(float)

            def loss():
                h = nm.relu(nm.dense_forward(nm.constant(x), ps.groups["l0"]))
                p = nm.sigmoid(nm.dense_forward(h, ps.groups["l1"]))
                return nm.sum_all(bce_terms(p, y))

            report = nm.finite_diff_check(ps, loss, tol=1e-4)
            assert report.passed, f"seed {seed}: {report}"


# one graph per new or broadcasting op, each reduced to a scalar by fixed
# random weights; h is (2, 4, 5): a stacked lead axis over a 2-D input
BROADCAST_CASES = {
    "dense_stacked": lambda t: t.h,
    "add_size1_axes": lambda t: nm.add(t.h, t.s),
    "mul_size1_axes": lambda t: nm.mul(t.c, t.h),
    "index_none_strided": lambda t: nm.index(t.h, (slice(None), None, slice(0, 4, 2))),
    "index_ellipsis_none_int": lambda t: nm.index(t.h, (Ellipsis, None, 3)),
    "row_dot": lambda t: nm.row_dot(t.h, nm.mul(t.h, t.c), 0.5),
    "softmax_axis0": lambda t: nm.softmax(t.h, axis=0),
    "sum_axis": lambda t: nm.sum_axis(t.h, axis=1),
    "concat": lambda t: nm.concat([t.h, nm.index(t.h, (slice(None), slice(1, 3)))], axis=1),
}


@pytest.mark.parametrize("case", sorted(BROADCAST_CASES))
def test_broadcast_ops_pass_finite_differences(case):
    rng = np.random.default_rng(5)
    ps = nm.ParamStore(0)
    for name, shape in (("x", (4, 3)), ("s", (1, 5)), ("c", (4, 1))):
        ps.add(name, np.zeros(shape))
    ps.add_dense("l0", 3, 5)
    ps.add_dense("l1", 3, 5)
    ps.pack({"l": ["l0", "l1"]})
    ps.values[...] = rng.normal(size=ps.values.size)
    t = types.SimpleNamespace(s=ps["s"], c=ps["c"])

    def output():
        t.h = nm.dense_forward(ps["x"], ps.groups["l"])
        return BROADCAST_CASES[case](t)

    weights = rng.normal(size=output().shape)
    report = nm.finite_diff_check(
        ps, lambda: nm.sum_all(nm.mul(output(), nm.constant(weights))), tol=1e-6)
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


@st.composite
def dense_cases(draw):
    """(input lead, block lead, rows, d_in, d_out, uses, seed): a 2-D input,
    or one stacked on n or on 1 (which broadcasts), against a 0-lead block or
    one stacked on n or on (k, n), as the model's fusion sides are; the loss
    reads the layer once, or twice so that the block's adjoint adds up."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x_lead = draw(st.sampled_from([(), (n,), (1,)]))
    wb_lead = draw(st.sampled_from([(), (n,), (k, n)]))
    return (x_lead, wb_lead, draw(st.integers(1, 70)), draw(st.integers(1, 5)),
            draw(st.integers(1, 5)), draw(st.integers(1, 2)), draw(st.integers(0, 2**16)))


def _store_view(node: nm.Node, shape: tuple[int, ...]) -> nm.Node:
    """A leaf over a stored tensor reshaped, its adjoint a view of the
    tensor's, as a group's is."""
    view = nm.Node(node.value.reshape(shape))
    view.adjoint = node.adjoint.reshape(shape)
    return view


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=dense_cases())
def test_dense_forward_on_random_broadcasting_shapes(case):
    x_lead, wb_lead, rows, d_in, d_out, uses, seed = case
    rng = np.random.default_rng(seed)
    ps = nm.ParamStore(seed)
    x_node = ps.add("x", np.zeros((math.prod(x_lead) * rows, d_in)))
    layers = np.array([f"l{i}" for i in range(math.prod(wb_lead))]).reshape(wb_lead)
    for name in layers.flat:
        ps.add_dense(name, d_in, d_out)
    ps.pack({"wb": layers.tolist()} if wb_lead else {})
    wb = ps.groups["wb" if wb_lead else "l0"]
    x = _store_view(x_node, x_lead + (rows, d_in))
    out_shape = np.broadcast_shapes(x_lead, wb_lead) + (rows, d_out)
    weights = [rng.normal(size=out_shape) for _ in range(uses)]

    def loss():
        outs = [nm.dense_forward(x, wb) for _ in weights]
        terms = [nm.sum_all(nm.mul(out, nm.constant(w))) for out, w in zip(outs, weights)]
        return outs[0], terms[0] if uses == 1 else nm.add(*terms)

    ps.values[...] = rng.normal(size=ps.values.size)
    report = nm.finite_diff_check(ps, lambda: loss()[1], tol=1e-6)
    assert report.passed, report

    # a tape recorded on other leaf values, refilled and replayed, gives the
    # bytes of a fresh tape: values and every adjoint
    out, root = loss()
    order = nm.record(root)
    ps.values[...] = rng.normal(size=ps.values.size)
    nm.replay(order)
    nm.backward_sweep(root, order)
    replayed = out.value.tobytes(), root.value.tobytes(), ps.grads.tobytes()
    fresh_out, fresh_root = loss()
    nm.backward_sweep(fresh_root)
    assert replayed == (fresh_out.value.tobytes(), fresh_root.value.tobytes(),
                        ps.grads.tobytes())


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
    ps = nm.ParamStore(seed)
    # more than a difference step away from 0 and 1, with the clamp's extremes
    p_arr = rng.uniform(0.01, 0.99, size=(rows, cols))
    p_arr.flat[0] = 0.01
    p = ps.add("p", p_arr)
    ws = [rng.normal(size=(rows, cols)) for _ in range(3)]
    scale = nm.constant(rng.normal(size=(rows, cols)))

    pv, (w_pos, w_neg, w_ent) = p.value, ws
    q = 1.0 - pv
    reference = (w_pos * np.log(pv) + w_neg * np.log(q)
                 + w_ent * (pv * np.log(pv) + q * np.log(q)))
    npt.assert_allclose(nm.bernoulli_loglik(p, *ws).value, reference, rtol=1e-13, atol=1e-15)

    def loss():
        # an upstream adjoint other than one, and a second read when uses is 2
        terms = [nm.mul(nm.bernoulli_loglik(p, *ws), scale) for _ in range(uses)]
        return nm.sum_all(terms[0] if uses == 1 else nm.add(*terms))

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
