import dataclasses
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msis import dataset as ds
from msis import funnel_sim as fs
from msis.errors import ConfigError, ContractError, ParseError


@pytest.fixture(scope="module")
def population_10k():
    return fs.generate(fs.SimConfig(n=10000, seed=1))


def test_acceptance_fraction_on_pre_cutoff(population_10k):
    cfg = fs.SimConfig(n=10000, seed=1)
    pre = population_10k.timestamps < fs.oot_cutoff_day(cfg)
    frac = population_10k.labels["credit"][pre].mean()
    assert abs(frac - 0.3) <= 1.0 / pre.sum() + 1e-12


def test_label_nesting(population_10k):
    labels = population_10k.labels
    for shorter, longer in (("draw_30", "draw_90"), ("mob1", "mob3"), ("mob3", "mob6")):
        assert not (labels[shorter] & ~labels[longer]).any()


def test_same_seed_identical():
    cfg = fs.SimConfig(n=500, seed=7)
    a = fs.generate(cfg)
    b = fs.generate(cfg)
    for f in dataclasses.fields(fs.Population):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def libm_logistic(v: float) -> float:
    """The per-element reference: 1 / (1 + exp(-v)) with libm's exp, 0.0
    where that exp overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def test_logistic_at_the_edges_raises_no_flag():
    v = np.array([-800.0, -745.0, -709.5, 0.0, 800.0,
                  -fs.EXP_MAX, -np.nextafter(fs.EXP_MAX, np.inf)])  # the overflow boundary
    with np.errstate(over="raise", invalid="raise"):
        out = fs.logistic(v)
    expected = np.array([libm_logistic(x) for x in v])
    assert out.tobytes() == expected.tobytes()
    assert out[0] == out[1] == out[-1] == 0.0 and out[-2] > 0.0
    assert out[3] == 0.5 and out[4] == 1.0


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(v=st.lists(st.floats(allow_nan=False) | st.floats(-800.0, 800.0), max_size=50))
def test_logistic_is_libms_per_element(v):
    v = np.array(v, dtype=np.float64)
    with np.errstate(over="raise", invalid="raise"):
        out = fs.logistic(v)
    assert out.tobytes() == np.array([libm_logistic(x) for x in v], dtype=np.float64).tobytes()


def test_selection_is_mnar_across_seeds():
    for seed in range(5):
        pop = fs.generate(fs.SimConfig(n=10000, seed=seed))
        credit = pop.labels["credit"]
        assert pop.latent_quality[~credit].mean() < pop.latent_quality[credit].mean()


def test_label_prevalence_calibration(population_10k):
    # scarce draws, and term-6 risk splits the drawn set roughly in half
    # while the first-term label stays rare
    labels = population_10k.labels
    sel = labels["credit"] & labels["draw_90"]
    assert 0.02 < sel.sum() / labels["credit"].sum() < 0.10
    mob6 = labels["mob6"][sel].mean()
    mob1 = labels["mob1"][sel].mean()
    assert 0.30 < mob6 < 0.60
    assert 0.05 < mob1 < 0.30


def test_config_validation():
    with pytest.raises(ConfigError):
        fs.generate(fs.SimConfig(n=0))
    with pytest.raises(ConfigError):
        fs.generate(fs.SimConfig(n=10, acceptance_rate=1.0))
    with pytest.raises(ConfigError):
        fs.generate(fs.SimConfig(n=10, policy_alignment=1.5))
    with pytest.raises(ConfigError):
        fs.generate(fs.SimConfig(n=10, n_terms=3))


class TestObserve:
    def _record(self, credit, draw_day, first_term):
        """A one-record population; a day or term of 0 means none."""
        labels = {
            "credit": credit,
            "draw_30": 0 < draw_day <= 30,
            "draw_90": 0 < draw_day <= 90,
            "mob1": 0 < first_term <= 1,
            "mob3": 0 < first_term <= 3,
            "mob6": 0 < first_term <= 6,
        }
        return fs.Population(np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros((1, 4)),
                             np.array([0.5]), np.array([draw_day]), np.array([first_term]),
                             np.array([[labels[t]] for t in ds.TARGETS]))

    def test_rejected_hides_five_labels(self):
        ex = fs.observe(self._record(False, 10, 2))[0]
        assert ex.labels["credit"] is False
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            assert ex.labels[t] is None

    def test_accepted_never_drew(self):
        ex = fs.observe(self._record(True, 0, 0))[0]
        assert ex.labels["draw_30"] is False
        assert ex.labels["draw_90"] is False
        for t in ("mob1", "mob3", "mob6"):
            assert ex.labels[t] is None

    def test_accepted_drawn_all_observed(self):
        ex = fs.observe(self._record(True, 10, 2))[0]
        assert ex.labels == {"credit": True, "draw_30": True, "draw_90": True,
                             "mob1": False, "mob3": True, "mob6": True}

    def test_silent_past_long_horizon(self):
        ex = fs.observe(self._record(True, 200, 1))[0]
        assert ex.labels["draw_30"] is False
        assert ex.labels["draw_90"] is False
        for t in ("mob1", "mob3", "mob6"):
            assert ex.labels[t] is None

    def test_gb_labels_follow_the_populations_own_horizon(self):
        population = fs.generate(fs.SimConfig(n=2000, seed=1, draw_horizons=(10, 40)))
        labels = population.labels
        # drawn past this population's longer horizon, within the default one
        assert (labels["credit"] & ~labels["draw_90"] & (population.draw_day <= 90)).any()
        observed = fs.observe(population)
        for t in ("mob1", "mob3", "mob6"):
            npt.assert_array_equal(observed.masks[t] == 1.0, labels["credit"] & labels["draw_90"])

    def test_observe_never_alters_values(self, population_10k):
        observed = fs.observe(population_10k)
        seen = observed.mask_matrix == 1.0
        assert seen.sum() > len(population_10k)
        npt.assert_array_equal(observed.label_matrix[seen],
                               population_10k.label_matrix[seen])
        assert np.isnan(observed.label_matrix[~seen]).all()


def test_counterfactual_roundtrip(tmp_path, population_10k):
    path = tmp_path / "cf.csv"
    fs.save_counterfactuals(population_10k, path)
    assert fs.load_counterfactuals(path) == fs.counterfactual_table(population_10k)


def test_counterfactual_lookup_follows_the_ids(population_10k):
    table = fs.counterfactual_table(population_10k)
    ids = np.random.default_rng(0).permutation(population_10k.ids)[:500]
    truth = table.lookup(ids)
    for t in ds.TARGETS:
        npt.assert_array_equal(truth[t], population_10k.labels[t][ids])


def test_counterfactual_lookup_names_missing_ids():
    table = fs.Counterfactuals(np.array([7, 3, 11]), np.ones((len(ds.TARGETS), 3), bool))
    with pytest.raises(ContractError, match=re.escape(
            "6 of 7 scored ids have no counterfactual labels, e.g. [12, 0, 2, 4, 8]")):
        table.lookup(np.array([12, 0, 2, 3, 4, 8, 99]))
    with pytest.raises(ContractError, match="distinct"):
        fs.Counterfactuals(np.array([1, 1]), np.ones((len(ds.TARGETS), 2), bool))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(ids=st.lists(st.integers(-50, 10**12), unique=True, max_size=30),
       picks=st.lists(st.integers(0, 10**6), max_size=30),
       missing=st.integers(-60, 10**12), seed=st.integers(0, 2**16))
def test_counterfactual_lookup_is_a_dict_lookup(ids, picks, missing, seed):
    # distinct ids in random order; queries in any order, repeats allowed
    rng = np.random.default_rng(seed)
    labels = rng.random((len(ds.TARGETS), len(ids))) < 0.5
    table = fs.Counterfactuals(np.array(ids, dtype=np.int64), labels)
    by_id = {i: labels[:, k] for k, i in enumerate(ids)}
    query = np.array([ids[j % len(ids)] for j in picks] if ids else [], dtype=np.int64)
    got = table.lookup(query)
    for ti, t in enumerate(ds.TARGETS):
        npt.assert_array_equal(got[t], np.array([by_id[i][ti] for i in query], dtype=bool))
    if missing not in by_id:
        at = int(rng.integers(0, query.size + 1))
        with pytest.raises(ContractError, match=f"1 of {query.size + 1} scored ids"):
            table.lookup(np.insert(query, at, missing))


def test_counterfactual_parse_errors_carry_line_numbers(tmp_path):
    header = ",".join(fs.COUNTERFACTUAL_HEADER) + "\n"
    good = "0,0.5,3,,1,1,1,0,0,0\n"
    cases = [
        (good + "1,0.5,3,,1,1,1,0,0\n", "line 3"),                   # missing field
        (good + "x,0.5,3,,1,1,1,0,0,0\n", "line 3"),                 # bad id
        (good + "1,0.5,3,,1,1,1,0,0,7\n", "line 3: cf_mob6"),        # label 7
        (good + "1,0.5,3,,1,,1,0,0,0\n", "line 3: cf_draw_30"),      # empty label
        (good + "0,0.5,3,,0,0,0,0,0,0\n", "line 3: id 0 repeats"),   # repeated id
    ]
    for body, fragment in cases:
        path = tmp_path / "cf.csv"
        path.write_text(header + body)
        with pytest.raises(ParseError, match=fragment):
            fs.load_counterfactuals(path)
    path.write_text(header + good)
    assert fs.load_counterfactuals(path) == fs.Counterfactuals(
        np.array([0]), np.array([[True], [True], [True], [False], [False], [False]]))
