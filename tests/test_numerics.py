import math
import types

import numpy as np
import numpy.testing as npt
import pytest

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


class TestDenseForward:
    def test_one_by_one(self):
        out = nm.dense_forward(nm.constant([[3.0]]), nm.constant([[2.0]]),
                               nm.constant([[1.0]]))
        npt.assert_array_equal(out.value, [[7.0]])

    def test_identity_weight(self):
        x = np.arange(12.0).reshape(3, 4)
        out = nm.dense_forward(nm.constant(x), nm.constant(np.eye(4)),
                               nm.constant(np.zeros((1, 4))))
        npt.assert_array_equal(out.value, x)

    def test_zero_weight_gives_bias_rows(self):
        b = np.array([[1.0, -2.0, 0.5]])
        out = nm.dense_forward(nm.constant(np.random.default_rng(0).normal(size=(5, 2))),
                               nm.constant(np.zeros((2, 3))), nm.constant(b))
        npt.assert_array_equal(out.value, np.repeat(b, 5, axis=0))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            nm.dense_forward(nm.constant(np.zeros((2, 3))),
                             nm.constant(np.zeros((4, 5))),
                             nm.constant(np.zeros((1, 5))))


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
        params = [w1, b1, w2, b2]

        def build():
            nodes = [nm.Node(p) for p in params]
            h = nm.relu(nm.dense_forward(nm.constant(x), nodes[0], nodes[1]))
            p = nm.sigmoid(nm.dense_forward(h, nodes[2], nodes[3]))
            ll = nm.add(nm.mul_const(nm.log(p), y),
                        nm.mul_const(nm.log(nm.affine(p, -1.0, 1.0)), 1.0 - y))
            return nodes, nm.affine(nm.sum_all(ll), -1.0 / len(y))

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
            return s, nm.sum_all(nm.mul_const(sm, weights))

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
        ps.add_dense("a", 2, 3)
        ps.add_dense("b", 3, 3)
        with pytest.raises(ContractError, match="mixes shapes"):
            ps.pack({"g": ["a.w", "b.w"]})
        with pytest.raises(ContractError, match="more than one group"):
            ps.pack({"g": ["a.b", "b.b"], "h": ["b.b"]})
        ps.pack({"g": ["a.b", "b.b"]})
        assert ps.groups["g"].shape == (2, 1, 3)
        with pytest.raises(ContractError, match="already packed"):
            ps.add("c", np.zeros((1, 1)))

    def test_sweep_writes_into_the_gradient_vector(self):
        ps = nm.ParamStore(0)
        w, b = ps.add_dense("l", 3, 2)
        ps.pack()
        x = nm.constant(np.ones((4, 3)))
        for _ in range(2):  # the second sweep zeroes the views in place
            nm.backward_sweep(nm.sum_all(nm.dense_forward(x, w, b)))
        assert np.shares_memory(w.adjoint, ps.grads)
        assert np.shares_memory(b.adjoint, ps.grads)
        npt.assert_array_equal(ps.as_named(ps.grads)["l.b"], [[4.0, 4.0]])
        npt.assert_array_equal(ps.grads, np.full(8, 4.0))


    def test_group_and_member_on_one_graph_rejected(self):
        # each leaf's first contribution is written over its adjoint, so two
        # leaves whose adjoints overlap would clobber each other
        ps = nm.ParamStore(0)
        ps.add("w0", np.ones((3, 2)))
        ps.add("w1", np.ones((3, 2)))
        ps.pack({"w": ["w0", "w1"]})
        x = nm.constant(np.ones((4, 3)))
        both = nm.add(nm.sum_all(nm.mul_const(ps.groups["w"], np.ones((2, 3, 2)))),
                      nm.sum_all(nm.mul(x, nm.constant(np.ones((4, 3))))))
        nm.backward_sweep(both)  # the group alone is fine
        with pytest.raises(ContractError, match="share adjoint memory"):
            nm.backward_sweep(nm.add(both, nm.sum_all(ps["w0"])))


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

        def loss():
            h = nm.add(nm.mul(p, nm.log(p)),
                       nm.mul(nm.affine(p, -1.0, 1.0), nm.log(nm.affine(p, -1.0, 1.0))))
            return nm.affine(h, -1.0)

        report = nm.finite_diff_check(ps, loss, step=1e-4, tol=1e-4)
        assert report.passed
        nm.backward_sweep(loss())
        npt.assert_allclose(p.adjoint, [[0.0]], atol=1e-12)

    def test_kink_inside_the_window_is_remeasured(self):
        # the pre-activation 1.18 * 0.5 + b sits 1e-7 above the ReLU kink: a
        # default 1e-6 step in w or b crosses it, a 1e-8 step does not
        ps = nm.ParamStore(0)
        w = ps.add("w", np.array([[0.5]]))
        b = ps.add("b", np.array([[-0.59 + 1e-7]]))
        x = nm.constant(np.array([[1.18]]))
        report = nm.finite_diff_check(ps, lambda: nm.relu(nm.dense_forward(x, w, b)))
        assert report.passed, report
        assert report.n_remeasured == 2
        assert "2 re-measured" in str(report)

    def test_wrong_gradient_fails_at_every_step(self, monkeypatch):
        # every adjoint 0.1% too large: no step size rescues it
        sweep = nm.backward_sweep
        monkeypatch.setattr(nm, "backward_sweep",
                            lambda root: sweep(nm.affine(root, 1.001)))
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
            return nm.affine(x, float(state["calls"]))

        with pytest.raises(ContractError):
            nm.finite_diff_check(ps, loss)

    def test_random_mlps_pass_over_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ps = nm.ParamStore(seed)
            w1, b1 = ps.add_dense("l0", 4, 6)
            w2, b2 = ps.add_dense("l1", 6, 1)
            x = rng.normal(size=(5, 4))
            y = rng.integers(0, 2, size=(5, 1)).astype(float)

            def loss():
                h = nm.relu(nm.dense_forward(nm.constant(x), w1, b1))
                p = nm.sigmoid(nm.dense_forward(h, w2, b2))
                ll = nm.add(nm.mul_const(nm.log(p), y),
                            nm.mul_const(nm.log(nm.affine(p, -1.0, 1.0)), 1.0 - y))
                return nm.affine(nm.sum_all(ll), -1.0 / len(y))

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
    for name, shape in (("x", (4, 3)), ("w0", (3, 5)), ("w1", (3, 5)),
                        ("b0", (1, 5)), ("b1", (1, 5)), ("s", (1, 5)), ("c", (4, 1))):
        ps.add(name, rng.normal(size=shape))
    ps.pack({"w": ["w0", "w1"], "b": ["b0", "b1"]})
    t = types.SimpleNamespace(s=ps["s"], c=ps["c"])

    def output():
        t.h = nm.dense_forward(ps["x"], ps.groups["w"], ps.groups["b"])
        return BROADCAST_CASES[case](t)

    weights = rng.normal(size=output().shape)
    report = nm.finite_diff_check(
        ps, lambda: nm.sum_all(nm.mul_const(output(), weights)), tol=1e-6)
    assert report.passed, report
    # every operand the case reads has a gradient, through the group views too
    for name in ("x", "w0", "w1", "b0", "b1"):
        assert np.any(ps[name].adjoint != 0.0), name


def test_forward_determinism():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(1, 3))
    out1 = nm.sigmoid(nm.dense_forward(nm.constant(x), nm.constant(w), nm.constant(b)))
    out2 = nm.sigmoid(nm.dense_forward(nm.constant(x), nm.constant(w), nm.constant(b)))
    assert np.array_equal(out1.value, out2.value)
