import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msis import baselines as bl
from msis import dataset as ds
from msis import funnel_sim as fs
from msis import loss as ls
from msis import model as M
from msis import numerics as nm
from msis.errors import ConfigError, ContractError, DimensionError, DomainError, MsisError


def expected_param_count(cfg: M.MsisConfig) -> int:
    """Closed-form shape arithmetic, independent of init_params."""
    def dense(a, b):
        return a * b + b

    total = 0
    prev = cfg.input_dim
    for w in cfg.shared_widths:
        total += dense(prev, w)
        prev = w
    rep = prev
    nt = len(cfg.all_targets())
    tower = 0
    prev = rep
    for w in cfg.tower_widths:
        tower += dense(prev, w)
        prev = w
    total += nt * tower
    total += nt * dense(cfg.tower_out_dim, 1)
    if cfg.corridor_enabled and len(cfg.stages) > 1:
        d = cfg.corridor_dim
        for _, targets in cfg.stages[:-1]:
            if len(targets) > 1:
                total += 2 * dense(d, d)  # g1, g2
            total += 2 * dense(d, d)      # g3 and the stage-pair transform
        n_dst = sum(len(t) for _, t in cfg.stages[1:])
        total += n_dst * 6 * dense(d, d)
    return total


@pytest.fixture(scope="module")
def default_cfg():
    return M.MsisConfig()


@pytest.fixture(scope="module")
def batch_64():
    examples = fs.observe(fs.generate(fs.SimConfig(n=200, seed=5)))[:64]
    return ds.make_batch(ds.Standardizer.fit(examples).apply(examples))


class TestInitParams:
    def test_default_param_count_pinned(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        assert params.n_scalars() == expected_param_count(default_cfg) == 10822

    def test_same_seed_identical(self, default_cfg):
        a = M.init_params(default_cfg, seed=9)
        b = M.init_params(default_cfg, seed=9)
        assert a.names() == b.names()
        for (_, na), (_, nb) in zip(a.items(), b.items()):
            npt.assert_array_equal(na.value, nb.value)

    def test_glorot_bounds_and_zero_bias(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        for name, fan_in, fan_out in M.dense_layers(default_cfg):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = np.abs(params[f"{name}.w"].value)
            assert w.max() <= limit and w.max() > 0.5 * limit, name
            npt.assert_array_equal(params[f"{name}.b"].value, np.zeros((1, fan_out)))

    def test_corridor_dim_two(self):
        cfg = M.MsisConfig().with_corridor_dim(2)
        params = M.init_params(cfg, seed=0)
        x = np.zeros((3, 32))
        result = M.forward(params, cfg, x)
        state = result.corridor[("ar", "ws")]
        assert state.e_ou.value.shape == (3, 2)
        assert state.e_in.value.shape == (3, 2)

    def test_single_target_source_has_no_scorers(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        assert "intra.ar.g3.w" in params
        assert "intra.ar.g1.w" not in params
        assert "intra.gb.g3.w" not in params  # last stage emits nothing

    def test_tower_width_must_match_corridor(self):
        with pytest.raises(ConfigError):
            M.init_params(dataclasses.replace(M.MsisConfig(), tower_widths=(16, 4)), 0)


def _offset(flat: np.ndarray, view: np.ndarray) -> int:
    """Index in `flat` of the first scalar of `view`, a view into it."""
    start = view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
    return start // flat.itemsize


LAYOUT_VARIANTS = [
    M.MsisConfig(),
    dataclasses.replace(M.MsisConfig(), corridor_enabled=False),
    dataclasses.replace(M.MsisConfig(), shared_widths=()),
    bl.baseline_model_config(bl.BaselineKind.SINGLE_TASK, "mob6"),
]


class TestParamLayout:
    @pytest.mark.parametrize("cfg", LAYOUT_VARIANTS)
    def test_views_tile_the_flat_vectors(self, cfg):
        params = M.init_params(cfg, seed=3)
        values, grads = params.values, params.grads
        tensors = {}
        for name, node in params.items():
            assert np.shares_memory(node.value, values), name
            assert np.shares_memory(node.adjoint, grads), name
            start = _offset(values, node.value)
            assert _offset(grads, node.adjoint) == start, name
            assert node.value.flags.c_contiguous and node.adjoint.flags.c_contiguous
            tensors[start] = (name, node.value.shape, node.value.size)
        # no two tensors overlap and together they fill both vectors exactly
        spans = sorted((start, start + size) for start, (_, _, size) in tensors.items())
        assert spans[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert spans[-1][1] == values.size == grads.size == params.n_scalars() \
            == expected_param_count(cfg)
        # every group tiles whole dense layers of the store: each member
        # block is its layer's .w rows, then its .b row, and every layer is
        # in exactly one group
        members = []
        for key, group in params.groups.items():
            assert np.shares_memory(group.value, values), key
            assert np.shares_memory(group.adjoint, grads), key
            assert group.adjoint.shape == group.shape, key
            assert _offset(grads, group.adjoint) == _offset(values, group.value), key
            d_in, d_out = group.shape[-2] - 1, group.shape[-1]
            for idx in np.ndindex(group.shape[:-2]):
                block = group.value[idx]
                name, shape, _ = tensors[_offset(values, block)]
                assert name.endswith(".w") and shape == (d_in, d_out), (key, idx, name)
                layer = name[:-len(".w")]
                assert tensors[_offset(values, block[-1:])] == (layer + ".b", (1, d_out), d_out)
                members.append(layer)
        layers = [name[:-len(".w")] for name in params.names() if name.endswith(".w")]
        assert sorted(members) == sorted(layers)

    def test_load_values_reaches_the_fused_path(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        source = M.init_params(default_cfg, seed=1)
        params.values[...] = source.values  # as training and the best-epoch restore write it
        assert params.values.tobytes() == source.values.tobytes()
        x = np.random.default_rng(4).normal(size=(50, 32))
        served = M.predict_probs(params, default_cfg, x)
        tape = M.forward(source, default_cfg, x).probs
        for t, p in served.items():
            ref = tape[t].value.ravel()
            assert (np.abs(p - ref) / ref).max() <= 1e-12, t


class TestForward:
    def test_probabilities_and_simplices(self, default_cfg, batch_64):
        params = M.init_params(default_cfg, seed=1)
        result = M.forward(params, default_cfg, batch_64.features)
        assert set(result.probs) == set(default_cfg.all_targets())
        for p in result.probs.values():
            assert np.all(p.value > 0.0) and np.all(p.value < 1.0)
        for state in result.corridor.values():
            a = state.alpha.value
            assert np.all(a >= 0.0)
            npt.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
            for beta in state.betas.values():
                bv = beta.value
                assert bv.shape[1] == 2
                assert np.all(bv >= 0.0)
                npt.assert_allclose(bv.sum(axis=1), 1.0, atol=1e-12)

    def test_attention_weights_follow_a_replay(self, default_cfg, batch_64):
        # alpha and betas are views of the attention ops' weights buffers
        params = M.init_params(default_cfg, seed=1)
        result = M.forward(params, default_cfg, batch_64.features)
        order = nm.record(ls.total_loss(result, batch_64, ls.LossConfig(),
                                        default_cfg.stages).total)
        new_rows = np.random.default_rng(8).normal(size=batch_64.features.shape)
        result.features.value[...] = new_rows
        nm.replay(order)
        fresh = M.forward(params, default_cfg, new_rows)
        assert result.corridor.keys() == fresh.corridor.keys() == {("ar", "ws"), ("ws", "gb")}
        for pair, state in result.corridor.items():
            npt.assert_array_equal(state.alpha.value, fresh.corridor[pair].alpha.value)
            assert state.betas.keys() == fresh.corridor[pair].betas.keys()
            for t, beta in state.betas.items():
                npt.assert_array_equal(beta.value, fresh.corridor[pair].betas[t].value)
        alpha = result.corridor[("ws", "gb")].alpha.value
        assert alpha.shape == (64, 2) and not np.array_equal(alpha[:, 0], alpha[:, 1])

    def test_attention_weights_follow_a_replay_after_a_sweep(self, default_cfg, batch_64):
        # each fusion's two dense sides write one candidate buffer, joined
        # with no copy, and a sweep writes their adjoints through views of the
        # join's: replayed on new rows and swept again, the step moves alpha,
        # beta and the gradients as a fresh tape does
        params = M.init_params(default_cfg, seed=1)
        lcfg = ls.LossConfig()
        result = M.forward(params, default_cfg, batch_64.features)
        total = ls.total_loss(result, batch_64, lcfg, default_cfg.stages).total
        order = nm.record(total)
        joins = [node for node in order if node.keys is not None]
        assert len(joins) == len(result.corridor) == 2
        for join in joins:
            assert all(np.shares_memory(part.adjoint, join.adjoint) for part in join.parents)
        nm.backward_sweep(total, order)
        before = {(pair, t): beta.value.copy() for pair, state in result.corridor.items()
                  for t, beta in state.betas.items()}
        new_rows = np.random.default_rng(9).normal(size=batch_64.features.shape)
        result.features.value[...] = new_rows
        nm.replay(order)
        params.zero_adjoints()
        nm.backward_sweep(total, order)
        replayed = params.grads.copy()
        fresh = M.forward(params, default_cfg, new_rows)
        params.zero_adjoints()
        nm.backward_sweep(ls.total_loss(fresh, batch_64, lcfg, default_cfg.stages).total)
        assert replayed.tobytes() == params.grads.tobytes()
        for pair, state in result.corridor.items():
            npt.assert_array_equal(state.alpha.value, fresh.corridor[pair].alpha.value)
            for t, beta in state.betas.items():
                npt.assert_array_equal(beta.value, fresh.corridor[pair].betas[t].value)
                assert not np.array_equal(beta.value, before[(pair, t)])

    def test_single_target_stage_alpha_exactly_one(self, default_cfg, batch_64):
        params = M.init_params(default_cfg, seed=1)
        result = M.forward(params, default_cfg, batch_64.features)
        alpha = result.corridor[("ar", "ws")].alpha.value
        npt.assert_array_equal(alpha, np.ones((len(batch_64), 1)))

    def test_duplicated_row_gives_identical_outputs(self, default_cfg):
        params = M.init_params(default_cfg, seed=2)
        row = np.random.default_rng(0).normal(size=(1, 32))
        out = M.forward(params, default_cfg, np.repeat(row, 5, axis=0))
        # BLAS kernels may round the last ulp differently by row position
        for p in out.probs.values():
            npt.assert_allclose(p.value, np.repeat(p.value[:1], 5, axis=0),
                                rtol=0.0, atol=1e-14)

    def test_zero_input_gives_symmetric_attention(self, default_cfg):
        params = M.init_params(default_cfg, seed=3)
        result = M.forward(params, default_cfg, np.zeros((4, 32)))
        alpha = result.corridor[("ws", "gb")].alpha.value
        npt.assert_array_equal(alpha, np.full((4, 2), 0.5))
        for state in result.corridor.values():
            for beta in state.betas.values():
                npt.assert_array_equal(beta.value, np.full((4, 2), 0.5))

    def test_row_permutation_equivariance(self, default_cfg, batch_64):
        params = M.init_params(default_cfg, seed=4)
        x = batch_64.features[:16]
        perm = np.random.default_rng(1).permutation(16)
        out = M.forward(params, default_cfg, x)
        out_p = M.forward(params, default_cfg, x[perm])
        for t in default_cfg.all_targets():
            npt.assert_allclose(out.probs[t].value[perm], out_p.probs[t].value,
                                rtol=0.0, atol=1e-14)

    def test_feature_width_mismatch(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        with pytest.raises(DimensionError):
            M.forward(params, default_cfg, np.zeros((3, 31)))

    def test_fused_plan_matches_tape(self, batch_64):
        variants = [
            M.MsisConfig(),
            dataclasses.replace(M.MsisConfig(), corridor_enabled=False),
            dataclasses.replace(M.MsisConfig(),
                                stages=(("ar", ("credit",)), ("gb", ("mob1", "mob3", "mob6")))),
            dataclasses.replace(M.MsisConfig(),
                                stages=(("ar", ("credit",)), ("ws", ("draw_90",)),
                                        ("gb", ("mob6",)))),
            dataclasses.replace(M.MsisConfig(), tower_widths=(8,)),
            dataclasses.replace(M.MsisConfig(), tower_widths=(12, 10, 8)),
            M.MsisConfig().with_corridor_dim(4),
            dataclasses.replace(M.MsisConfig(), shared_widths=()),
            bl.baseline_model_config(bl.BaselineKind.SINGLE_TASK, "mob3"),
        ]
        for cfg in variants:
            params = M.init_params(cfg, seed=7)
            plan = M.make_fused_forward(params, cfg, batch_64.features)
            fused = plan()
            tape = M.forward(params, cfg, batch_64.features)
            for i, t in enumerate(cfg.all_targets()):
                ref = tape.probs[t].value.ravel()
                assert np.abs(fused[i] - ref).max() < 1e-12, (cfg, t)

    def test_fused_head_at_the_edges_clamps_and_raises_no_flag(self, default_cfg, batch_64):
        # zero head weights, so each target's logit is its bias; the expected
        # values are the exact logistic's, clamped
        params = M.init_params(default_cfg, seed=7)
        head = params.groups["head"].value
        head[:, :-1] = 0.0
        head[:, -1, 0] = [-800.0, -745.0, -709.5, 0.0, 800.0, 800.0]
        eps = nm.CLAMP_EPS
        with np.errstate(over="raise", invalid="raise"):
            fused = M.make_fused_forward(params, default_cfg, batch_64.features)()
            tape = M.forward(params, default_cfg, batch_64.features)
        npt.assert_array_equal(fused, np.repeat([[eps], [eps], [eps], [0.5], [1.0 - eps],
                                                 [1.0 - eps]], len(batch_64), axis=1))
        for i, t in enumerate(default_cfg.all_targets()):
            npt.assert_array_equal(tape.probs[t].value.ravel(), fused[i])

    def test_fused_fusion_weights_past_the_exponent_cap_raise_no_flag(self, default_cfg,
                                                                     batch_64):
        # fusion blocks scaled by 1e3 push some score differences past the
        # exponent cap: the fused logistic caps them, the tape's softmax
        # subtracts the max, and both agree
        params = M.init_params(default_cfg, seed=7)
        for name, group in params.groups.items():
            if name.startswith("fuse_"):
                group.value *= 1e3
        with np.errstate(over="raise", invalid="raise"):
            fused = M.make_fused_forward(params, default_cfg, batch_64.features)()
            tape = M.forward(params, default_cfg, batch_64.features)
        betas = np.concatenate([b.value.ravel() for state in tape.corridor.values()
                                for b in state.betas.values()])
        assert betas.min() < 1e-300  # some weights are past the cap
        for i, t in enumerate(default_cfg.all_targets()):
            ref = tape.probs[t].value.ravel()
            assert (np.abs(fused[i] - ref) / ref).max() < 1e-12, t

    def test_tape_is_freed_without_cycle_collection(self, default_cfg, batch_64):
        # a reference cycle through a backward closure keeps a whole tape's
        # arrays alive until the cyclic collector runs, which lets memory
        # grow over a training loop
        params = M.init_params(default_cfg, seed=0)
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                breakdown = ls.total_loss(M.forward(params, default_cfg, batch_64.features),
                                          batch_64, ls.LossConfig(), default_cfg.stages)
                nm.backward_sweep(breakdown.total)
            del breakdown
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_predict_probs_matches_tape(self, default_cfg):
        params = M.init_params(default_cfg, seed=8)
        rng = np.random.default_rng(3)
        # one row; a chunk less one, one chunk, a chunk and a one-row tail,
        # two chunks and a one-row tail (255, 256, 257 and 513 rows at 256
        # rows per chunk; the cached evaluators are reused)
        c = M.PREDICT_CHUNK_ROWS
        for rows in (1, c - 1, c, c + 1, 2 * c + 1):
            x = rng.normal(size=(rows, 32))
            served = M.predict_probs(params, default_cfg, x)
            tape = M.forward(params, default_cfg, x).probs
            assert served.keys() == tape.keys()
            for t, p in served.items():
                ref = tape[t].value.ravel()
                assert p.shape == (rows,)
                assert (np.abs(p - ref) / ref).max() <= 1e-12, (rows, t)


def _twin(params, cfg):
    """A second store holding the same values, with an empty evaluator cache."""
    twin = M.init_params(cfg, params.seed)
    twin.values[...] = params.values
    return twin


def _fresh(params, cfg, x) -> np.ndarray:
    """(n_targets, rows) probabilities from an evaluator compiled on a twin
    store, independent of params' cache."""
    return M.make_fused_forward(_twin(params, cfg), cfg, x)()


def _fresh_per_chunk(params, cfg, x) -> np.ndarray:
    """(n_targets, rows) probabilities with one newly compiled evaluator
    per predict_probs chunk."""
    step = M.PREDICT_CHUNK_ROWS
    return np.concatenate([_fresh(params, cfg, x[i:i + step])
                           for i in range(0, len(x), step)], axis=1)


def _stacked(cfg, served) -> np.ndarray:
    return np.stack([served[t] for t in cfg.all_targets()])


class TestEvaluatorCache:
    SHAPES = (1, 62, 255, 256, 257, 830, 2536)

    def test_returned_arrays_are_not_overwritten(self, default_cfg):
        params = M.init_params(default_cfg, seed=11)
        rng = np.random.default_rng(0)
        kept = []
        for rows in (5, 5, 300, 1, 5, 62):
            served = M.predict_probs(params, default_cfg, rng.normal(size=(rows, 32)))
            kept.append((served, {t: p.copy() for t, p in served.items()}))
        for served, copy in kept:
            for t, p in served.items():
                assert np.array_equal(p, copy[t]), t

    def test_cached_evaluator_reads_live_weights(self, default_cfg, batch_64):
        from msis import trainer as tr
        params = M.init_params(default_cfg, seed=12)
        x = np.random.default_rng(1).normal(size=(40, 32))

        def agrees():
            served = _stacked(default_cfg, M.predict_probs(params, default_cfg, x))
            fresh = _fresh(params, default_cfg, x)
            tape = M.forward(params, default_cfg, x).stacked.value
            for other in (fresh, tape):
                assert (np.abs(served - other) / other).max() <= 1e-12
            return served

        before = agrees()  # compiles and caches the 40-row evaluator
        adam = tr.Adam(params, tr.TrainConfig())
        for _ in range(3):
            params.zero_adjoints()
            total = ls.total_loss(M.forward(params, default_cfg, batch_64.features),
                                  batch_64, ls.LossConfig(), default_cfg.stages).total
            nm.backward_sweep(total)
            adam.step()
        stepped = agrees()
        assert not np.array_equal(stepped, before)
        params.values[...] = M.init_params(default_cfg, seed=13).values
        assert not np.array_equal(agrees(), stepped)

    def test_mixed_shapes_match_fresh_evaluators(self, default_cfg):
        params = M.init_params(default_cfg, seed=14)
        rng = np.random.default_rng(2)
        sequence = self.SHAPES + self.SHAPES[::-1] + self.SHAPES[::2]
        for rows in sequence:
            x = rng.normal(size=(rows, 32))
            served = _stacked(default_cfg, M.predict_probs(params, default_cfg, x))
            assert served.tobytes() == _fresh_per_chunk(params, default_cfg, x).tobytes()

    def test_evaluators_share_no_memory(self, default_cfg):
        params = M.init_params(default_cfg, seed=15)
        rng = np.random.default_rng(5)
        counts = (256, 1, 5, 64, 128, 247)  # a full chunk first, as a bulk score runs it
        for rows in counts:
            M.make_fused_forward(params, default_cfg, rng.normal(size=(rows, 32)))()
        evaluators = {rows: params.evaluators[(default_cfg, rows)] for rows in counts}
        for rows, (chunk, run) in evaluators.items():
            out = run()
            kept = chunk.copy(), out.copy()
            for other, (other_chunk, other_run) in evaluators.items():
                if other != rows:
                    other_chunk[...] = rng.normal(size=other_chunk.shape)
                    other_run()
            assert np.array_equal(chunk, kept[0]) and np.array_equal(out, kept[1]), rows
            for array in (chunk, out):
                assert not np.shares_memory(array, params.values), rows

    def test_cache_keeps_the_most_recently_used_shapes(self, default_cfg):
        params = M.init_params(default_cfg, seed=17)
        rng = np.random.default_rng(4)
        kept = M.EVALUATORS_KEPT
        # a full chunk first, which the misses below drop as the least recently used
        M.predict_probs(params, default_cfg, rng.normal(size=(M.PREDICT_CHUNK_ROWS, 32)))
        for rows in range(1, M.PREDICT_CHUNK_ROWS):
            x = rng.normal(size=(rows, 32))
            served = _stacked(default_cfg, M.predict_probs(params, default_cfg, x))
            assert served.tobytes() == _fresh_per_chunk(params, default_cfg, x).tobytes()
            assert len(params.evaluators) <= kept
        last = list(range(M.PREDICT_CHUNK_ROWS - kept, M.PREDICT_CHUNK_ROWS))
        assert [rows for _, rows in params.evaluators] == last
        # a hit makes its shape the most recent, so the next miss drops the
        # shape after it
        M.predict_probs(params, default_cfg, np.zeros((last[0], 32)))
        M.predict_probs(params, default_cfg, np.zeros((1, 32)))
        assert [rows for _, rows in params.evaluators] == last[2:] + [last[0], 1]

    def test_store_is_freed_without_cycle_collection(self, default_cfg):
        params = M.init_params(default_cfg, seed=16)
        gc.collect()
        gc.disable()
        try:
            M.predict_probs(params, default_cfg, np.zeros((300, 32)))
            assert params.evaluators
            ref = weakref.ref(params)
            del params
            assert ref() is None
        finally:
            gc.enable()


@st.composite
def msis_configs(draw) -> M.MsisConfig:
    """Valid configs: a subset of the targets in funnel order cut into
    consecutive stages, 0-2 shared and 1-3 tower widths, the corridor on
    (the last tower width then its corridor_dim) or off."""
    keep = draw(st.lists(st.booleans(), min_size=len(ds.TARGETS),
                         max_size=len(ds.TARGETS)).filter(any))
    targets = [t for t, kept in zip(ds.TARGETS, keep) if kept]
    cuts = draw(st.lists(st.booleans(), min_size=len(targets) - 1,
                         max_size=len(targets) - 1))
    stages = [[targets[0]]]
    for t, cut in zip(targets[1:], cuts):
        if cut:
            stages.append([])
        stages[-1].append(t)
    width = st.integers(1, 12)
    corridor, d = draw(st.booleans()), draw(st.integers(1, 8))
    towers = draw(st.lists(width, min_size=1, max_size=3))
    if corridor:
        towers[-1] = d
    return M.MsisConfig(
        input_dim=draw(st.integers(1, 8)),
        shared_widths=tuple(draw(st.lists(width, max_size=2))),
        tower_widths=tuple(towers), corridor_dim=d,
        stages=tuple((f"s{i}", tuple(s)) for i, s in enumerate(stages)),
        corridor_enabled=corridor)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(cfg=msis_configs(), rows=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_fused_evaluator_matches_tape_and_fresh_compiles(cfg, rows, seed):
    params = M.init_params(cfg, seed)
    x = np.random.default_rng(seed).normal(size=(rows, cfg.input_dim))
    served = _stacked(cfg, M.predict_probs(params, cfg, x))
    npt.assert_allclose(served, M.forward(params, cfg, x).stacked.value, rtol=1e-12, atol=0)
    # another shape's evaluator runs before the cached evaluators rerun
    M.predict_probs(params, cfg, x[:1] + 1.0)
    cached = _stacked(cfg, M.predict_probs(params, cfg, x))
    assert cached.tobytes() == _fresh_per_chunk(params, cfg, x).tobytes()


class TestFeatureChecks:
    def _entry_points(self, params, cfg):
        return (lambda x: M.forward(params, cfg, x),
                lambda x: M.make_fused_forward(params, cfg, x),
                lambda x: M.predict_probs(params, cfg, x))

    def test_wrong_shape_is_dimension_error(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        for call in self._entry_points(params, default_cfg):
            for x in (np.zeros(32), np.zeros((3, 31)), np.zeros((0, 32))):
                with pytest.raises(DimensionError):
                    call(x)

    def test_non_finite_features_are_domain_error(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        for call in self._entry_points(params, default_cfg):
            for bad in (np.nan, np.inf, -np.inf):
                x = np.zeros((4, 32))
                x[2, 5] = bad
                with pytest.raises(DomainError):
                    call(x)

    def test_nan_in_the_last_chunk_is_domain_error(self, default_cfg):
        # predict_probs leaves finiteness to each chunk's own check
        params = M.init_params(default_cfg, seed=0)
        x = np.zeros((600, 32))
        x[-1, 7] = np.nan
        assert 600 > 2 * M.PREDICT_CHUNK_ROWS
        with pytest.raises(DomainError):
            M.predict_probs(params, default_cfg, x)

    def test_cache_hit_checks_features(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        for call in self._entry_points(params, default_cfg)[1:]:
            x = np.random.default_rng(5).normal(size=(4, 32))
            M.predict_probs(params, default_cfg, x)  # caches the 4-row evaluator
            x[1, 3] = np.nan
            with pytest.raises(DomainError):
                call(x)

    @pytest.mark.parametrize("entry", range(3), ids=["forward", "make_fused_forward",
                                                     "predict_probs"])
    @pytest.mark.parametrize("make,error", [
        (lambda x: x.tolist(), DimensionError),
        (lambda x: x.astype(object), DomainError),
        (lambda x: x.astype(str), DomainError),
        (lambda x: x + 1j, DomainError),
    ], ids=["list", "object", "string", "complex"])
    def test_non_real_arrays_are_typed_errors(self, default_cfg, entry, make, error):
        params = M.init_params(default_cfg, seed=0)
        call = self._entry_points(params, default_cfg)[entry]
        with pytest.raises(error):
            call(make(np.random.default_rng(2).normal(size=(4, 32))))

    def test_bool_and_integer_arrays_score_as_floats(self, default_cfg):
        params = M.init_params(default_cfg, seed=0)
        x = np.random.default_rng(3).integers(-2, 3, size=(4, 32))
        for features in (x, x > 0, x.astype(np.uint8)):
            as_float = features.astype(np.float64)
            npt.assert_array_equal(M.forward(params, default_cfg, features).stacked.value,
                                   M.forward(params, default_cfg, as_float).stacked.value)
            fused = M.make_fused_forward(params, default_cfg, features)().copy()
            npt.assert_array_equal(fused, M.make_fused_forward(params, default_cfg, as_float)())
            probs = M.predict_probs(params, default_cfg, features)
            for t, p in M.predict_probs(params, default_cfg, as_float).items():
                npt.assert_array_equal(probs[t], p)


class TestInformationFlow:
    def _probs(self, params, cfg, x):
        return {t: p.copy() for t, p in M.predict_probs(params, cfg, x).items()}

    def test_corridor_is_one_directional(self, default_cfg, batch_64):
        x = batch_64.features[:8]
        params = M.init_params(default_cfg, seed=8)
        base = self._probs(params, default_cfg, x)

        params["tower.mob1.0.w"].value[0, 0] += 0.5
        bumped_gb = self._probs(params, default_cfg, x)
        params["tower.mob1.0.w"].value[0, 0] -= 0.5
        assert np.array_equal(bumped_gb["credit"], base["credit"])
        assert np.array_equal(bumped_gb["draw_30"], base["draw_30"])
        assert not np.array_equal(bumped_gb["mob1"], base["mob1"])

        params["tower.credit.0.w"].value[0, 0] += 0.5
        bumped_ar = self._probs(params, default_cfg, x)
        params["tower.credit.0.w"].value[0, 0] -= 0.5
        assert not np.array_equal(bumped_ar["credit"], base["credit"])
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            assert not np.array_equal(bumped_ar[t], base[t]), t

    def test_gradient_reaches_every_tensor(self, default_cfg):
        examples = fs.observe(fs.generate(fs.SimConfig(n=2000, seed=11)))
        examples = ds.Standardizer.fit(examples).apply(examples)
        lcfg = ls.LossConfig()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = [examples[i] for i in rng.choice(len(examples), 64, replace=False)]
            batch = ds.make_batch(rows)
            params = M.init_params(default_cfg, seed=seed)
            params.zero_adjoints()
            result = M.forward(params, default_cfg, batch.features)
            breakdown = ls.total_loss(result, batch, lcfg, default_cfg.stages)
            nm.backward_sweep(breakdown.total)
            dead = [name for name, node in params.items()
                    if not np.any(node.adjoint != 0.0)]
            assert dead == [], f"seed {seed}: dead tensors {dead}"

    def test_fully_masked_head_exception_when_supervised_only(self, default_cfg):
        # all-rejected batch, gamma=0: WS/GB heads receive no gradient at all
        examples = [ds.Example(i, 0, np.random.default_rng(i).normal(size=32),
                               {"credit": False, "draw_30": None, "draw_90": None,
                                "mob1": None, "mob3": None, "mob6": None})
                    for i in range(16)]
        batch = ds.make_batch(examples)
        params = M.init_params(default_cfg, seed=0)
        params.zero_adjoints()
        result = M.forward(params, default_cfg, batch.features)
        breakdown = ls.total_loss(result, batch, ls.LossConfig().supervised_only(),
                                  default_cfg.stages)
        nm.backward_sweep(breakdown.total)
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            npt.assert_array_equal(params[f"head.{t}.w"].adjoint, 0.0)
        assert np.any(params["head.credit.w"].adjoint != 0.0)


def attend(keys, queries, values, dim: int):
    """numerics.attention over the parts stacked in one constant, scaled by
    1 / sqrt(dim)."""
    return nm.attention(nm.constant(np.stack([keys, queries, values])), 1.0 / math.sqrt(dim))


class TestAttentionPrimitives:
    """nm.attention: candidates on axis 1 of the parts, as the stacked
    forward calls it for intra-stage attention (3, n_targets, rows, d) and
    for fusion (3, 2, n_targets, rows, d)."""

    def test_single_input_is_projection_only(self, default_cfg):
        h = np.random.default_rng(0).normal(size=(1, 3, 4))
        e_ou, alpha = attend(h, h, h + h, dim=4)
        npt.assert_array_equal(alpha, np.ones((1, 3, 1)))
        npt.assert_array_equal(e_ou.value, 2.0 * h[0])
        # in the model, a one-target stage's corridor vector is its g3 projection
        params = M.init_params(default_cfg, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 32))
        state = M.forward(params, default_cfg, x).corridor[("ar", "ws")]
        P = lambda name: params[name].value
        h = x
        for i in range(len(default_cfg.shared_widths)):
            h = np.maximum(h @ P(f"shared.{i}.w") + P(f"shared.{i}.b"), 0.0)
        tower = np.maximum(h @ P("tower.credit.0.w") + P("tower.credit.0.b"), 0.0)
        tower = tower @ P("tower.credit.1.w") + P("tower.credit.1.b")
        g3 = tower @ P("intra.ar.g3.w") + P("intra.ar.g3.b")
        npt.assert_allclose(state.e_ou.value, np.maximum(g3, nm.LEAKY_SLOPE * g3),
                            rtol=1e-14, atol=1e-15)
        npt.assert_array_equal(state.alpha.value, np.ones((5, 1)))

    def test_two_identical_inputs_split_evenly(self):
        h = np.random.default_rng(1).normal(size=(5, 4))
        stacked = np.stack([h, h])
        e_ou, alpha = attend(stacked, stacked, stacked, dim=4)
        npt.assert_allclose(alpha, np.full((2, 5, 1), 0.5), atol=1e-15)
        npt.assert_allclose(e_ou.value, h, atol=1e-12)

    def test_hand_computed_weights(self):
        # dim=1, identities: norms ln2 and 0 give scores (ln2, 0) -> (2/3, 1/3)
        h = np.array([[[math.sqrt(math.log(2.0))]], [[0.0]]])
        _, alpha = attend(h, h, h, dim=1)
        npt.assert_allclose(alpha.ravel(), [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_fusion_symmetric_candidates(self):
        v = np.random.default_rng(3).normal(size=(3, 6, 5))
        both = np.stack([v, v])  # (incoming, own) per target
        fused, beta = attend(both, both, both, dim=5)
        npt.assert_allclose(beta, np.full((2, 3, 6, 1), 0.5), atol=1e-15)
        npt.assert_allclose(fused.value, v, atol=1e-12)

    def test_fusion_beta_on_simplex(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k, q, v = (rng.normal(scale=3.0, size=(2, 3, 7, 4)) for _ in range(3))
            _, beta = attend(k, q, v, dim=4)
            assert np.all(beta >= 0.0)
            npt.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip(self, default_cfg, tmp_path):
        params = M.init_params(default_cfg, seed=13)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        loaded, cfg = M.load_checkpoint(path)
        assert cfg == default_cfg
        for (na, a), (nb, b) in zip(params.items(), loaded.items()):
            assert na == nb
            npt.assert_array_equal(a.value, b.value)
        x = np.random.default_rng(0).normal(size=(5, 32))
        npt.assert_array_equal(
            M.predict_probs(params, default_cfg, x)["mob6"],
            M.predict_probs(loaded, cfg, x)["mob6"])

    def test_reversed_entries_load_identically(self, default_cfg, tmp_path):
        import json
        params = M.init_params(default_cfg, seed=13)
        params.values[...] = np.random.default_rng(2).normal(size=params.values.size)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        payload = json.loads(path.read_text())
        payload["params"].reverse()
        path.write_text(json.dumps(payload))
        loaded, _ = M.load_checkpoint(path)
        assert loaded.names() == params.names()
        assert loaded.values.tobytes() == params.values.tobytes()
        for (_, a), (_, b) in zip(params.items(), loaded.items()):
            assert a.value.tobytes() == b.value.tobytes()

    def test_rejects_shape_mismatch(self, default_cfg, tmp_path):
        import json
        params = M.init_params(default_cfg, seed=0)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        payload = json.loads(path.read_text())
        payload["params"][3][1] = [1, 1]
        payload["params"][3][2] = [0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractError):
            M.load_checkpoint(path)

    def test_rejects_non_finite_values(self, default_cfg, tmp_path):
        import json
        params = M.init_params(default_cfg, seed=0)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        payload = json.loads(path.read_text())
        for bad in (float("nan"), float("inf")):
            payload["params"][2][2][0] = bad
            path.write_text(json.dumps(payload))
            with pytest.raises(ContractError):
                M.load_checkpoint(path)

    def test_rejects_name_mismatch(self, default_cfg, tmp_path):
        import json
        params = M.init_params(default_cfg, seed=0)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        payload = json.loads(path.read_text())
        payload["params"][0][0] = "no.such.tensor"
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractError):
            M.load_checkpoint(path)

    def test_malformed_file_names_the_file(self, default_cfg, tmp_path):
        import json
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(M.init_params(default_cfg, seed=0), default_cfg, path)
        text = path.read_text()
        payload = json.loads(text)
        bodies = [text[:len(text) // 2]]
        for seed in (2.7, True, -1, None):  # no truncation, no bool, no bare ValueError
            bodies.append(json.dumps({**payload, "seed": seed}))
        del payload["params"]
        bodies.append(json.dumps(payload))
        for body in bodies:
            path.write_text(body)
            with pytest.raises(ContractError, match="model.ckpt"):
                M.load_checkpoint(path)

    def test_config_field_mismatch_names_the_file(self, default_cfg, tmp_path):
        import json
        params = M.init_params(default_cfg, seed=0)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        saved = json.loads(path.read_text())
        for change in ("drop", "extra", "bool"):
            payload = json.loads(json.dumps(saved))
            if change == "drop":
                del payload["config"]["corridor_dim"]
            elif change == "extra":
                payload["config"]["dropout"] = 0.1
            else:
                payload["config"]["corridor_enabled"] = "False"
            path.write_text(json.dumps(payload))
            with pytest.raises(ContractError, match="model.ckpt"):
                M.load_checkpoint(path)

    def test_attention_input_of_older_files(self, default_cfg, tmp_path):
        # older checkpoints name which reps intra-stage attention reads:
        # post_fusion is the model msis builds, pre_fusion is no longer built
        import json
        params = M.init_params(default_cfg, seed=5)
        params.values[...] = np.random.default_rng(4).normal(size=params.values.size)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, default_cfg, path)
        payload = json.loads(path.read_text())
        assert "attention_input" not in payload["config"]
        payload["config"]["attention_input"] = "post_fusion"
        path.write_text(json.dumps(payload))
        loaded, cfg = M.load_checkpoint(path)
        assert cfg == default_cfg
        assert loaded.values.tobytes() == params.values.tobytes()
        x = np.random.default_rng(0).normal(size=(7, 32))
        assert (M.make_fused_forward(loaded, cfg, x)().tobytes()
                == M.make_fused_forward(params, default_cfg, x)().tobytes())
        payload["config"]["attention_input"] = "pre_fusion"
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractError, match="model.ckpt.*post_fusion"):
            M.load_checkpoint(path)


# ---------------------------------------------------------------------------
# mutated run files: each loads, or raises a typed error that names the file
# ---------------------------------------------------------------------------

TINY_CFG = M.MsisConfig(input_dim=3, shared_widths=(2,), tower_widths=(2,), corridor_dim=2)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
BYTES = st.sampled_from([b'"', b",", b"[", b"]", b"{", b"}", b"-", b"0", b"9", b"e", b".",
                         b"null", b"\xff", b" ", b""]) | st.binary(min_size=1, max_size=3)

# one edit of a JSON file: ("bytes", position, (bytes deleted, bytes
# inserted)), or ("set", node, value) and ("delete", node, None) on its
# parsed tree, the node a path or an index into `_paths`; indices wrap
MUTATIONS = (st.tuples(st.just("bytes"), st.integers(0, 10**6),
                       st.tuples(st.integers(0, 3), BYTES))
             | st.tuples(st.just("set"), st.integers(0, 10**6), JSON_VALUES)
             | st.tuples(st.just("delete"), st.integers(1, 10**6), st.none()))


def _paths(node, path=()):
    """Every path into a JSON tree, leaving out the elements after the first
    of a list of numbers (a parameter's values)."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        numbers = all(isinstance(v, (int, float)) for v in node)
        for i, child in enumerate(node[:1] if numbers else node):
            yield from _paths(child, path + (i,))


def _mutated(raw: bytes, mutation) -> bytes:
    kind, where, arg = mutation
    if kind == "bytes":
        at = where % (len(raw) + 1)
        deleted, inserted = arg
        return raw[:at] + inserted + raw[at + deleted:]
    tree = json.loads(raw)
    paths = list(_paths(tree))
    path = paths[where % len(paths)] if isinstance(where, int) else where
    if not path:  # the whole file
        return b"" if kind == "delete" else json.dumps(arg).encode()
    node = tree
    for key in path[:-1]:
        node = node[key]
    if kind == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = arg
    return json.dumps(tree).encode()


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """A tiny model's checkpoint, a standardizer's file and the two data
    files of a 60-application simulation, as written, and a path to write
    mutated copies to."""
    root = tmp_path_factory.mktemp("run_files")
    M.save_checkpoint(M.init_params(TINY_CFG, seed=1), TINY_CFG, root / "ckpt.json")
    ds.Standardizer(np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, 3.0])).to_json(
        root / "std.json")
    population = fs.generate(fs.SimConfig(n=60, seed=0))
    ds.save_csv(fs.observe(population), root / "dataset.csv")
    fs.save_counterfactuals(population, root / "counterfactuals.csv")
    return {"checkpoint": (root / "ckpt.json").read_bytes(),
            "standardizer": (root / "std.json").read_bytes(),
            "dataset": (root / "dataset.csv").read_bytes(),
            "counterfactuals": (root / "counterfactuals.csv").read_bytes(),
            "path": root / "mutated.json"}


def _loads_or_names_the_file(load, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load(path)
    except MsisError as exc:
        assert str(path) in str(exc), repr(exc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutation=MUTATIONS)
# each once raised an error that did not name the file: a 1-D parameter, a
# width of zero (from init_params), an unknown name
@example(mutation=("delete", ("params", 1, 1, 0), None))
@example(mutation=("set", ("config", "shared_widths", 0), 0))
@example(mutation=("set", ("params", 0, 0), "no.such.tensor"))
# a config far larger than the file's parameters: rejected before it allocates
@example(mutation=("set", ("config", "input_dim"), 10**9))
def test_mutated_checkpoint_loads_or_names_the_file(run_files, mutation):
    raw = _mutated(run_files["checkpoint"], mutation)
    _loads_or_names_the_file(M.load_checkpoint, run_files["path"], raw)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mutation=MUTATIONS)
def test_mutated_standardizer_loads_or_names_the_file(run_files, mutation):
    raw = _mutated(run_files["standardizer"], mutation)
    _loads_or_names_the_file(ds.Standardizer.from_json, run_files["path"], raw)


def test_oversized_config_rejected_before_init_params(run_files):
    # a few kB of file whose config asks for a 2000-wide model: the store
    # it implies would take tens of MB
    payload = json.loads(run_files["checkpoint"])
    payload["config"].update(input_dim=2000, shared_widths=[2000])
    path = run_files["path"]
    path.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        with pytest.raises(ContractError) as err:
            M.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(err.value) and "shared.0.w" in str(err.value)
    assert peak < 1 << 20


def test_load_checkpoint_builds_its_store_from_the_file_alone(run_files, monkeypatch):
    path = run_files["path"]
    path.write_bytes(run_files["checkpoint"])

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random values")

    with monkeypatch.context() as patch:
        patch.setattr(M, "init_params", refuse)
        patch.setattr(np.random, "default_rng", refuse)
        params, cfg = M.load_checkpoint(path)
    saved = M.init_params(TINY_CFG, seed=1)
    assert cfg == TINY_CFG and params.seed == 1 and params.names() == saved.names()
    assert params.values.tobytes() == saved.values.tobytes()
    assert [(k, g.shape) for k, g in params.groups.items()] == \
        [(k, g.shape) for k, g in saved.groups.items()]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(cfg=msis_configs())
def test_param_shapes_are_the_stores(cfg):
    params = M.init_params(cfg, seed=0)
    assert list(M.param_shapes(cfg).items()) == [(name, node.shape)
                                                 for name, node in params.items()]


CSV_FIELDS = st.sampled_from(["", "0", "1", "2", "-1", "0.5", "nan", "inf", "1e309", "x",
                              '"', ",", "\r", "\xff", "\u00e9", " 1", "9" * 30, "1" * 5000]) \
    | st.text(max_size=4)

# one edit of a CSV file: ("bytes", ...) as in MUTATIONS, ("field", index,
# text) replacing a field, or ("delete", index, "field" or "line"); the
# fields and lines are counted over the whole file, and indices wrap
CSV_MUTATIONS = (st.tuples(st.just("bytes"), st.integers(0, 10**6),
                           st.tuples(st.integers(0, 3), BYTES))
                 | st.tuples(st.just("field"), st.integers(0, 10**6), CSV_FIELDS)
                 | st.tuples(st.just("delete"), st.integers(0, 10**6),
                             st.sampled_from(["field", "line"])))


def _mutated_csv(raw: bytes, mutation) -> bytes:
    kind, where, arg = mutation
    if kind == "bytes":
        return _mutated(raw, mutation)
    lines = [line.split(",") for line in raw.decode().split("\r\n")]
    if arg == "line":
        del lines[where % len(lines)]
    else:
        cells = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        i, j = cells[where % len(cells)]
        if arg == "field":
            del lines[i][j]
        else:
            lines[i][j] = arg
    return "\r\n".join(",".join(line) for line in lines).encode()


@pytest.mark.parametrize("name,load", [("dataset", ds.load_csv),
                                       ("counterfactuals", fs.load_counterfactuals)])
@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(mutation=CSV_MUTATIONS)
# a byte that is not UTF-8 text escaped as a bare UnicodeDecodeError
@example(mutation=("bytes", 50, (1, b"\xff")))
def test_mutated_data_file_loads_or_names_the_file(run_files, name, load, mutation):
    raw = _mutated_csv(run_files[name], mutation)
    _loads_or_names_the_file(load, run_files["path"], raw)
