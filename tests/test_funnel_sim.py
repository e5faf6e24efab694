import numpy as np
import pytest

from msis import funnel_sim as fs
from msis.errors import ConfigError, ParseError


@pytest.fixture(scope="module")
def population_10k():
    return fs.generate(fs.SimConfig(n=10000, seed=1))


def test_acceptance_fraction_on_pre_cutoff(population_10k):
    cfg = fs.SimConfig(n=10000, seed=1)
    cutoff = fs.oot_cutoff_day(cfg)
    pre = [r for r in population_10k if r.timestamp < cutoff]
    frac = np.mean([r.labels["credit"] for r in pre])
    assert abs(frac - 0.3) <= 1.0 / len(pre) + 1e-12


def test_label_nesting(population_10k):
    for rec in population_10k:
        if rec.labels["draw_30"]:
            assert rec.labels["draw_90"]
        if rec.labels["mob1"]:
            assert rec.labels["mob3"]
        if rec.labels["mob3"]:
            assert rec.labels["mob6"]


def test_same_seed_identical():
    cfg = fs.SimConfig(n=500, seed=7)
    a = fs.generate(cfg)
    b = fs.generate(cfg)
    for ra, rb in zip(a, b):
        assert ra.id == rb.id
        assert ra.timestamp == rb.timestamp
        assert np.array_equal(ra.features, rb.features)
        assert ra.latent_quality == rb.latent_quality
        assert ra.draw_day == rb.draw_day
        assert ra.first_default_term == rb.first_default_term
        assert ra.labels == rb.labels


def test_selection_is_mnar_across_seeds():
    for seed in range(5):
        pop = fs.generate(fs.SimConfig(n=10000, seed=seed))
        accepted = [r.latent_quality for r in pop if r.labels["credit"]]
        rejected = [r.latent_quality for r in pop if not r.labels["credit"]]
        assert np.mean(rejected) < np.mean(accepted)


def test_label_prevalence_calibration(population_10k):
    # scarce draws, and term-6 risk splits the drawn set roughly in half
    # while the first-term label stays rare
    sel = [r for r in population_10k
           if r.labels["credit"] and r.draw_day is not None and r.draw_day <= 90]
    acc = sum(1 for r in population_10k if r.labels["credit"])
    assert 0.02 < len(sel) / acc < 0.10
    mob6 = np.mean([r.labels["mob6"] for r in sel])
    mob1 = np.mean([r.labels["mob1"] for r in sel])
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
        labels = {
            "credit": credit,
            "draw_30": draw_day is not None and draw_day <= 30,
            "draw_90": draw_day is not None and draw_day <= 90,
            "mob1": first_term is not None and first_term <= 1,
            "mob3": first_term is not None and first_term <= 3,
            "mob6": first_term is not None and first_term <= 6,
        }
        return fs.PopulationRecord(0, 0, np.zeros(4), 0.5, draw_day, first_term, labels)

    def test_rejected_hides_five_labels(self):
        ex = fs.observe([self._record(False, 10, 2)])[0]
        assert ex.labels["credit"] is False
        for t in ("draw_30", "draw_90", "mob1", "mob3", "mob6"):
            assert ex.labels[t] is None

    def test_accepted_never_drew(self):
        ex = fs.observe([self._record(True, None, None)])[0]
        assert ex.labels["draw_30"] is False
        assert ex.labels["draw_90"] is False
        for t in ("mob1", "mob3", "mob6"):
            assert ex.labels[t] is None

    def test_accepted_drawn_all_observed(self):
        ex = fs.observe([self._record(True, 10, 2)])[0]
        assert ex.labels == {"credit": True, "draw_30": True, "draw_90": True,
                             "mob1": False, "mob3": True, "mob6": True}

    def test_silent_past_long_horizon(self):
        ex = fs.observe([self._record(True, 200, 1)])[0]
        assert ex.labels["draw_30"] is False
        assert ex.labels["draw_90"] is False
        for t in ("mob1", "mob3", "mob6"):
            assert ex.labels[t] is None

    def test_observe_never_alters_values(self, population_10k):
        for rec, ex in zip(population_10k, fs.observe(population_10k)):
            for t, v in ex.labels.items():
                if v is not None:
                    assert v == rec.labels[t]


def test_counterfactual_roundtrip(tmp_path, population_10k):
    path = tmp_path / "cf.csv"
    sample = population_10k[:200]
    fs.save_counterfactuals(sample, path)
    table = fs.load_counterfactuals(path)
    assert table == fs.counterfactual_table(sample)


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
    assert fs.load_counterfactuals(path) == {0: {
        "credit": True, "draw_30": True, "draw_90": True,
        "mob1": False, "mob3": False, "mob6": False}}
