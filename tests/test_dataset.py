import numpy as np
import numpy.testing as npt
import pytest

from msis import dataset as ds
from msis import funnel_sim as fs
from msis.errors import ConfigError, ContractError, ParseError


@pytest.fixture(scope="module")
def examples_1k():
    return fs.observe(fs.generate(fs.SimConfig(n=1000, seed=3)))


def test_roundtrip_identity(tmp_path, examples_1k):
    path = tmp_path / "data.csv"
    ds.save_csv(examples_1k, path)
    loaded = ds.load_csv(path)
    assert len(loaded) == len(examples_1k)
    for a, b in zip(examples_1k, loaded):
        assert a.id == b.id and a.timestamp == b.timestamp
        npt.assert_array_equal(a.features, b.features)
        assert a.labels == b.labels


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
        return out

    def test_partition_counts(self):
        splits = ds.split_oot(self._mk(100, 20), cutoff_timestamp=50)
        assert len(splits.test) == 20
        assert len(splits.train) == 64
        assert len(splits.validation) == 16
        ids = sorted(e.id for part in (splits.train, splits.validation, splits.test)
                     for e in part)
        assert ids == list(range(100))

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
        examples = [ds.Example(i, 0, np.array([5.0, float(i)]), {
            "credit": True, "draw_30": None, "draw_90": None,
            "mob1": None, "mob3": None, "mob6": None}) for i in range(4)]
        std = ds.Standardizer.fit(examples)
        out = np.stack([e.features for e in std.apply(examples)])
        npt.assert_array_equal(out[:, 0], np.zeros(4))

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

    def test_missing_class_is_skipped(self):
        rejected = [ds.Example(i, 0, np.full(3, float(i)),
                               {"credit": False, **{t: None for t in ds.TARGETS[1:]}})
                    for i in range(5)]
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
