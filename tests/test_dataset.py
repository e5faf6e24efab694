import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

from msis import dataset as ds
from msis import funnel_sim as fs
from msis.errors import ConfigError, ContractError, DimensionError, ParseError


@pytest.fixture(scope="module")
def examples_1k():
    return fs.observe(fs.generate(fs.SimConfig(n=1000, seed=3)))


def assert_same_rows(a, b):
    """Byte equality of two row sets, NaN labels included."""
    for name in ("ids", "timestamps", "features", "label_matrix", "mask_matrix"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.features.flags.c_contiguous and b.features.flags.c_contiguous


def test_roundtrip_identity(tmp_path, examples_1k):
    path = tmp_path / "data.csv"
    ds.save_csv(examples_1k, path)
    assert_same_rows(ds.load_csv(path), examples_1k)


# sha256 of the files `msis simulate` writes, recorded before the row store
# became columnar; a change to the bytes is a change to the file format
PINNED_FILES = {
    (600, 11): ("6c6b97ae83a8f02af09b51a200a8ddc4219cb22f7403c6fffa1ca6afd9e5b133",
                "9c1b08143c0ae3cc7d7918fc221b76c964157e3699d6e25ad17174d5b670b6a6"),
    (4000, 1): ("d2cb0f9ca5e4801e6662aff30a07fe99c36afd9eb8d97dcdec30256abbb326b6",
                "7f9647a53a27177f3f24fcc182617201f4a974fed0279004cfa998c3e1981a78"),
}


@pytest.mark.parametrize("n,seed", sorted(PINNED_FILES))
def test_file_bytes_pinned(tmp_path, n, seed):
    population = fs.generate(fs.SimConfig(n=n, seed=seed))
    ds.save_csv(fs.observe(population), tmp_path / "dataset.csv")
    fs.save_counterfactuals(population, tmp_path / "counterfactuals.csv")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("dataset.csv", "counterfactuals.csv"))
    assert digests == PINNED_FILES[n, seed]


def test_take_equals_the_rows_it_names(examples_1k):
    idx = np.random.default_rng(0).choice(len(examples_1k), 300, replace=False)
    taken = ds.make_batch(examples_1k, idx)
    assert_same_rows(taken, ds.make_batch([examples_1k[i] for i in idx]))
    assert np.isnan(taken.label_matrix).any()
    assert_same_rows(examples_1k[10:50:3], ds.make_batch(examples_1k, np.arange(10, 50, 3)))


def test_row_view(examples_1k):
    i = np.int64(17)
    ex = examples_1k[i]
    assert (ex.id, ex.timestamp) == (int(examples_1k.ids[i]), int(examples_1k.timestamps[i]))
    npt.assert_array_equal(ex.features, examples_1k.features[i])
    for t in ds.TARGETS:
        m, y = examples_1k.masks[t][i], examples_1k.labels[t][i]
        assert ex.labels[t] is (None if m == 0.0 else bool(y))
    assert [e.id for e in examples_1k] == examples_1k.ids.tolist()


def test_row_view_keeps_a_poisoned_label(examples_1k):
    rows = examples_1k[:3]
    rows.labels["credit"][1] = np.nan
    assert np.isnan(rows[1].labels["credit"])
    with pytest.raises(ContractError, match="poisoned"):
        ds.make_batch(list(rows)).observed("credit")


def test_empty_label_field_means_absent(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,timestamp,f0,f1,label_credit,label_draw_30,label_draw_90,"
                    "label_mob1,label_mob3,label_mob6\n"
                    "0,5,1.5,-2.0,1,1,1,,1,1\n")
    ex = ds.load_csv(path)[0]
    assert ex.labels["mob1"] is None
    assert ex.labels["mob3"] is True


def test_parse_errors_carry_line_numbers(tmp_path):
    header = ("id,timestamp,f0,f1,label_credit,label_draw_30,label_draw_90,"
              "label_mob1,label_mob3,label_mob6\n")
    cases = [
        ("0,5,1.5,1,1,1,,1,1\n", "line 2"),            # missing field
        ("0,5,1.5,abc,1,1,1,,1,1\n", "line 2"),        # non-numeric feature
        ("0,5,1.5,-2.0,,1,1,,1,1\n", "label_credit"),  # credit absent
        ("0,5,1.5,-2.0,2,1,1,,1,1\n", "label_credit"), # bad label value
        ("0,5,1.5,-2.0,1,1,1,,1,1\n0,6,nan,1,1,1,1,,1,1\n", "line 3: features must be finite"),
        ("0,5,1.5,inf,1,1,1,,1,1\n", "line 2: features"),
        ("0,5,-Infinity,1,1,1,1,,1,1\n", "line 2: features"),
        ("99999999999999999999,5,1.5,1,1,1,1,,1,1\n", "line 2"),  # id past int64
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.csv"
        path.write_text(header + body)
        with pytest.raises(ParseError, match=fragment):
            ds.load_csv(path)
    path = tmp_path / "bad_header.csv"
    path.write_text("id,f0,label_credit\n")
    with pytest.raises(ParseError, match="line 1"):
        ds.load_csv(path)


def test_credit_always_observed_contract():
    with pytest.raises(ContractError):
        ds.Example(0, 0, np.zeros(2), {"credit": None, "draw_30": None,
                                       "draw_90": None, "mob1": None,
                                       "mob3": None, "mob6": None})


class TestSplitOot:
    def _mk(self, n, n_post):
        out = []
        for i in range(n):
            ts = 100 if i < n_post else 0
            out.append(ds.Example(i, ts, np.zeros(2), {
                "credit": True, "draw_30": None, "draw_90": None,
                "mob1": None, "mob3": None, "mob6": None}))
        return ds.Batch.from_examples(out)

    def test_partition_counts(self):
        splits = ds.split_oot(self._mk(100, 20), cutoff_timestamp=50)
        assert len(splits.test) == 20
        assert len(splits.train) == 64
        assert len(splits.validation) == 16
        ids = sorted(e.id for part in (splits.train, splits.validation, splits.test)
                     for e in part)
        assert ids == list(range(100))

    def test_same_rows_as_a_per_row_split(self, examples_1k):
        pre = [ex for ex in examples_1k if ex.timestamp < 292]
        order = np.random.default_rng(6).permutation(len(pre))
        splits = ds.split_oot(examples_1k, 292, seed=6)
        assert_same_rows(splits.train,
                         ds.make_batch([pre[i] for i in order[:int(len(pre) * 0.8)]]))
        assert_same_rows(splits.validation,
                         ds.make_batch([pre[i] for i in order[int(len(pre) * 0.8):]]))
        assert_same_rows(splits.test,
                         ds.make_batch([ex for ex in examples_1k if ex.timestamp >= 292]))

    def test_cutoff_beyond_all_timestamps(self):
        with pytest.raises(ConfigError):
            ds.split_oot(self._mk(10, 0), cutoff_timestamp=1000)

    def test_cutoff_at_minimum(self):
        with pytest.raises(ConfigError):
            ds.split_oot(self._mk(10, 10), cutoff_timestamp=0)

    def test_deterministic(self):
        examples = self._mk(50, 10)
        a = ds.split_oot(examples, 50, seed=4)
        b = ds.split_oot(examples, 50, seed=4)
        assert [e.id for e in a.train] == [e.id for e in b.train]
        assert [e.id for e in a.validation] == [e.id for e in b.validation]


class TestStandardizer:
    def test_train_mean_removed(self, examples_1k):
        splits = ds.split_oot(examples_1k, 292)
        std = ds.Standardizer.fit(splits.train)
        transformed = std.apply(splits.train)
        x = np.stack([e.features for e in transformed])
        assert np.abs(x.mean(axis=0)).max() < 1e-10
        assert np.abs(x.std(axis=0) - 1.0).max() < 1e-8

    def test_constant_column_zeroed(self):
        examples = ds.Batch.from_examples([ds.Example(i, 0, np.array([5.0, float(i)]), {
            "credit": True, "draw_30": None, "draw_90": None,
            "mob1": None, "mob3": None, "mob6": None}) for i in range(4)])
        std = ds.Standardizer.fit(examples)
        npt.assert_array_equal(std.apply(examples).features[:, 0], np.zeros(4))

    def test_same_bytes_as_per_row(self, examples_1k):
        train = ds.split_oot(examples_1k, 292).train
        x = np.stack([ex.features for ex in train])
        std = ds.Standardizer.fit(train)
        assert std.mean.tobytes() == x.mean(axis=0).tobytes()
        assert std.std.tobytes() == np.maximum(x.std(axis=0), ds.STD_FLOOR).tobytes()
        rows = np.stack([(ex.features - std.mean) / std.std for ex in examples_1k])
        assert std.apply(examples_1k).features.tobytes() == rows.tobytes()

    def test_wrong_width_is_dimension_error(self, examples_1k):
        std = ds.Standardizer.fit(examples_1k)
        narrow = ds.Batch.from_examples([ds.Example(0, 0, np.zeros(31), {
            t: (True if t == "credit" else None) for t in ds.TARGETS})])
        with pytest.raises(DimensionError, match="31"):
            std.apply(narrow)

    @pytest.mark.parametrize("body,fragment", [
        ({"mean": [0.0, 1.0], "std": [1.0]}, "one length"),
        ({"mean": [[0.0]], "std": [[1.0]]}, "one length"),
        ({"mean": [0.0, 1.0], "std": [1.0, 0.0]}, "positive"),
        ({"mean": [0.0, 1.0], "std": [1.0, -2.0]}, "positive"),
        ({"mean": [0.0, 1.0], "std": [1.0, float("inf")]}, "finite"),
        ({"mean": [0.0, float("nan")], "std": [1.0, 1.0]}, "finite"),
        ('{"mean": [0.0, 1.0], "std": [1.0', "std.json"),
        ({"mean": [0.0, 1.0]}, "std.json"),
    ])
    def test_bad_json_is_parse_error(self, tmp_path, body, fragment):
        path = tmp_path / "std.json"
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        with pytest.raises(ParseError, match=fragment):
            ds.Standardizer.from_json(path)

    def test_no_leakage_into_test(self, examples_1k):
        splits = ds.split_oot(examples_1k, 292)
        std = ds.Standardizer.fit(splits.train)
        test_x = np.stack([e.features for e in std.apply(splits.test)])
        # drifted test features keep a visible offset under train statistics
        assert np.abs(test_x.mean(axis=0)).max() > 0.05

    def test_json_roundtrip(self, tmp_path, examples_1k):
        std = ds.Standardizer.fit(examples_1k)
        std.to_json(tmp_path / "std.json")
        back = ds.Standardizer.from_json(tmp_path / "std.json")
        npt.assert_array_equal(std.mean, back.mean)
        npt.assert_array_equal(std.std, back.std)


class TestBatches:
    def test_sizes(self, examples_1k):
        out = ds.batches(examples_1k[:10], 4, seed=0)
        assert [len(b) for b in out] == [4, 4, 2]

    def test_epoch_covers_everything_once(self, examples_1k):
        out = ds.batches(examples_1k[:100], 7, seed=1, epoch=3)
        total = sum(len(b) for b in out)
        assert total == 100

    def test_same_rows_as_per_row_batches(self, examples_1k):
        rows = list(examples_1k[:100])
        order = np.random.default_rng([2, 5]).permutation(100)
        for start, batch in zip(range(0, 100, 8), ds.batches(examples_1k[:100], 8, 2, 5)):
            assert_same_rows(batch, ds.make_batch([rows[i] for i in order[start:start + 8]]))

    def test_same_seed_epoch_identical(self, examples_1k):
        a = ds.batches(examples_1k[:50], 8, seed=2, epoch=5)
        b = ds.batches(examples_1k[:50], 8, seed=2, epoch=5)
        for ba, bb in zip(a, b):
            npt.assert_array_equal(ba.features, bb.features)
        c = ds.batches(examples_1k[:50], 8, seed=2, epoch=6)
        assert any(not np.array_equal(ba.features, bc.features)
                   for ba, bc in zip(a, c))

    def test_rejected_example_masks(self):
        ex = ds.Example(0, 0, np.zeros(3), {"credit": False, "draw_30": None,
                                            "draw_90": None, "mob1": None,
                                            "mob3": None, "mob6": None})
        batch = ds.make_batch([ex])
        assert batch.masks["credit"][0] == 1.0
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            assert batch.masks[t][0] == 0.0
            assert np.isnan(batch.labels[t][0])

    def test_poison_trips_on_consumption(self):
        ex = ds.Example(0, 0, np.zeros(3), {"credit": True, "draw_30": None,
                                            "draw_90": None, "mob1": None,
                                            "mob3": None, "mob6": None})
        batch = ds.make_batch([ex])
        batch.masks["mob1"][0] = 1.0  # simulate a bookkeeping bug
        with pytest.raises(ContractError, match="poisoned"):
            batch.observed("mob1")

    def test_bad_batch_size(self, examples_1k):
        with pytest.raises(ConfigError):
            ds.batches(examples_1k[:10], 0, seed=0)


class TestCoveringBatch:
    @pytest.fixture(scope="class")
    def sparse_world(self):
        # few rows reach a mob6 label: a uniform 64-row draw often has none
        return fs.observe(fs.generate(fs.SimConfig(n=400, seed=12)))

    def test_covers_every_target(self, sparse_world):
        labeled = {t: sum(ex.labels[t] is not None for ex in sparse_world)
                   for t in ds.TARGETS}
        for seed in range(5):
            batch = ds.covering_batch(sparse_world, 64, seed)
            assert len(batch) == 64
            for t in ds.TARGETS:
                n_lab = int(batch.masks[t].sum())
                assert n_lab >= min(1, labeled[t]), (seed, t)
                assert 64 - n_lab >= min(1, len(sparse_world) - labeled[t]), (seed, t)

    def test_distinct_rows_and_seeded(self, sparse_world):
        a = ds.covering_batch(sparse_world, 64, seed=3)
        b = ds.covering_batch(sparse_world, 64, seed=3)
        c = ds.covering_batch(sparse_world, 64, seed=4)
        npt.assert_array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)
        assert len(np.unique(a.features, axis=0)) == 64

    def test_same_rows_as_a_per_row_draw(self, sparse_world):
        # the selection as a loop over rows, as it was written for Example lists
        rows = list(sparse_world)
        order = np.random.default_rng(3).permutation(len(rows))
        labeled = np.array([[ex.labels[t] is not None for t in ds.TARGETS] for ex in rows])
        chosen = []
        for j in range(len(ds.TARGETS)):
            for want in (True, False):
                if not (labeled[chosen, j] == want).any():
                    chosen.extend(order[labeled[order, j] == want][:1].tolist())
        chosen += [int(i) for i in order if i not in set(chosen)][:64 - len(chosen)]
        assert_same_rows(ds.covering_batch(sparse_world, 64, seed=3),
                         ds.make_batch([rows[i] for i in chosen]))

    def test_missing_class_is_skipped(self):
        rejected = ds.Batch.from_examples([
            ds.Example(i, 0, np.full(3, float(i)),
                       {"credit": False, **{t: None for t in ds.TARGETS[1:]}})
            for i in range(5)])
        batch = ds.covering_batch(rejected, 3, seed=0)
        assert len(batch) == 3
        for t in ds.TARGETS[1:]:
            assert batch.masks[t].sum() == 0.0

    def test_bad_sizes(self, sparse_world):
        for size in (0, len(sparse_world) + 1):
            with pytest.raises(ConfigError):
                ds.covering_batch(sparse_world, size, seed=0)
        with pytest.raises(ConfigError, match="are needed"):
            ds.covering_batch(sparse_world, 1, seed=0)
