"""Built-in scenarios: embedded survey data and the vessels simulator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextrep import (
    AnimalActsDataset,
    CountTable,
    InvalidCounts,
    OutcomeSet,
    VesselsConfig,
    VesselsOutcomeCounts,
    animal_acts_dataset,
    animal_acts_tables,
    is_product,
    marginals,
    simulate_vessels,
    vessels_joint_table,
)
from oracles import binomial_three_sigma, vessels_oracle


class TestAnimalActsDataset:
    def test_embedded_counts(self):
        ds = animal_acts_dataset()
        assert ds.animal_counts.as_mapping() == {"Horse": 43, "Bear": 38}
        assert ds.act_counts.as_mapping() == {"Growls": 39, "Whinnies": 42}
        assert ds.joint_counts == ((4, 51), (21, 5))
        assert ds.participants == 81

    def test_rejects_mismatched_totals(self):
        with pytest.raises(InvalidCounts):
            AnimalActsDataset(
                animal_counts=CountTable(OutcomeSet(("H", "B")), (43, 38)),
                act_counts=CountTable(OutcomeSet(("G", "W")), (39, 42)),
                joint_counts=((4, 51), (21, 6)),  # totals 82, not 81
            )

    @pytest.mark.parametrize("bad", [-4, True, 4.0, "4"])
    def test_rejects_bad_joint_count(self, bad):
        with pytest.raises(InvalidCounts, match=r"cell \(0, 0\)"):
            AnimalActsDataset(
                animal_counts=CountTable(OutcomeSet(("H", "B")), (43, 38)),
                act_counts=CountTable(OutcomeSet(("G", "W")), (39, 42)),
                joint_counts=((bad, 51), (21, 5)),
            )

    def test_rejects_bad_joint_shape(self):
        with pytest.raises(InvalidCounts):
            AnimalActsDataset(
                animal_counts=CountTable(OutcomeSet(("H", "B")), (43, 38)),
                act_counts=CountTable(OutcomeSet(("G", "W")), (39, 42)),
                joint_counts=((4, 51, 26),),
            )


class TestAnimalActsTables:
    def test_exact_values_and_displays(self):
        tables = animal_acts_tables()
        assert tables.animal.probs == (Fraction(43, 81), Fraction(38, 81))
        assert tables.act.probs == (Fraction(39, 81), Fraction(42, 81))
        assert tables.animal.displayed() == ("0.53", "0.47")
        assert tables.act.displayed() == ("0.48", "0.52")
        assert [
            f"{float(p):.2f}" for row in tables.joint.probs for p in row
        ] == ["0.05", "0.63", "0.26", "0.06"]

    def test_joint_is_entangled(self):
        tables = animal_acts_tables()
        report = is_product(tables.joint)
        assert report.verdict == "entangled"
        assert report.arithmetic == "exact"

    def test_joint_marginals_disagree_with_single_measurements(self):
        """The joint experiment's marginals differ from the standalone polls."""
        tables = animal_acts_tables()
        m = marginals(tables.joint)
        assert m.row.probs != tables.animal.probs
        assert m.col.probs != tables.act.probs


class TestVesselsConfig:
    def test_defaults(self):
        cfg = VesselsConfig(mode="separate", trials=10, seed=0)
        assert cfg.capacity == 20.0
        assert cfg.threshold == 10.0

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            VesselsConfig(mode="linked", trials=10, seed=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            VesselsConfig(mode="separate", trials=10, seed=0, threshold=25.0)
        with pytest.raises(ValueError):
            VesselsConfig(mode="separate", trials=10, seed=0, threshold=0.0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            VesselsConfig(mode="separate", trials=0, seed=0)

    def test_trials_too_long_for_str_are_named_in_the_message(self):
        with pytest.raises(ValueError, match="trials must be a positive integer, got a negative "
                                             "integer of 5001 digits"):
            VesselsConfig(mode="separate", trials=-(10**5000), seed=0)

    @pytest.mark.parametrize("name", ["capacity", "threshold"])
    @pytest.mark.parametrize("big", [10**400, -(10**5000), Fraction(10**400, 3)],
                             ids=["int", "int-beyond-the-str-limit", "fraction"])
    def test_rejects_a_geometry_too_large_for_a_float(self, name, big):
        """Refused as inf is, not left to float()'s OverflowError."""
        with pytest.raises(ValueError, match=f"{name} is too large for a float"):
            VesselsConfig(mode="separate", trials=10, seed=0, **{name: big})


class TestVesselsOutcomeCounts:
    def test_total_and_mapping(self):
        c = VesselsOutcomeCounts(1, 2, 3, 4)
        assert c.total == 10
        assert c.as_mapping() == {"MM": 1, "ML": 2, "LM": 3, "LL": 4}

    def test_rejects_negative(self):
        with pytest.raises(InvalidCounts):
            VesselsOutcomeCounts(-1, 0, 0, 1)

    @pytest.mark.parametrize("bad", [True, 1.0, None])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(InvalidCounts, match="invalid ll count"):
            VesselsOutcomeCounts(1, 0, 0, bad)


class TestSimulateVessels:
    def test_trials_conserved(self):
        counts = simulate_vessels(VesselsConfig(mode="separate", trials=9_999, seed=3))
        assert counts.total == 9_999

    def test_separate_frequencies_near_quarter(self):
        trials = 100_000
        counts = simulate_vessels(VesselsConfig(mode="separate", trials=trials, seed=5))
        bound = binomial_three_sigma(0.25, trials)
        for c in counts.as_mapping().values():
            assert abs(c / trials - 0.25) <= bound

    def test_connected_anticorrelation_is_exact(self):
        for seed in (0, 1, 7, 123, 99991):
            counts = simulate_vessels(
                VesselsConfig(mode="connected", trials=5_000, seed=seed)
            )
            assert counts.mm == 0
            assert counts.ll == 0

    def test_connected_halves_within_three_sigma(self):
        trials = 100_000
        counts = simulate_vessels(VesselsConfig(mode="connected", trials=trials, seed=6))
        bound = binomial_three_sigma(0.5, trials)
        assert abs(counts.ml / trials - 0.5) <= bound
        assert abs(counts.lm / trials - 0.5) <= bound

    def test_single_connected_trial_is_anticorrelated(self):
        counts = simulate_vessels(VesselsConfig(mode="connected", trials=1, seed=42))
        assert counts.mm == 0 and counts.ll == 0
        assert counts.ml + counts.lm == 1

    def test_chunking_preserves_totals(self):
        trials = (1 << 18) + 11
        counts = simulate_vessels(VesselsConfig(mode="connected", trials=trials, seed=8))
        assert counts.total == trials

    @pytest.mark.parametrize("mode", ["separate", "connected"])
    @pytest.mark.parametrize("trials", [1_000, (1 << 18) + 11])
    def test_threshold_hit_is_redrawn(self, mode, trials):
        """The first left volume lands exactly on the threshold, so that trial is redrawn."""
        capacity = 20.0
        threshold = capacity * np.random.default_rng(5).random()
        cfg = VesselsConfig(mode, trials, 5, capacity, threshold)
        c = simulate_vessels(cfg)
        assert (c.mm, c.ml, c.lm, c.ll) == vessels_oracle(mode, trials, 5, capacity, threshold)

    def test_reproducible(self):
        cfg = VesselsConfig(mode="separate", trials=10_000, seed=77)
        assert simulate_vessels(cfg) == simulate_vessels(cfg)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_connected_anticorrelation_for_arbitrary_seeds(self, seed):
        counts = simulate_vessels(VesselsConfig(mode="connected", trials=500, seed=seed))
        assert counts.mm == 0 and counts.ll == 0

    def test_scaled_capacity_keeps_anticorrelation(self):
        """The exactness argument needs threshold = capacity / 2, not 20 liters."""
        cfg = VesselsConfig(
            mode="connected", trials=5_000, seed=13, capacity=7.0, threshold=3.5
        )
        counts = simulate_vessels(cfg)
        assert counts.mm == 0 and counts.ll == 0

    def test_asymmetric_threshold_biases_separate_mode(self):
        trials = 50_000
        cfg = VesselsConfig(
            mode="separate", trials=trials, seed=21, capacity=20.0, threshold=5.0
        )
        counts = simulate_vessels(cfg)
        # P(M) = 0.75 per side, so MM should dominate at ~0.5625
        bound = binomial_three_sigma(0.5625, trials)
        assert abs(counts.mm / trials - 0.5625) <= bound


class TestVesselsJointTable:
    def test_layout(self):
        t = vessels_joint_table(VesselsOutcomeCounts(0, 500, 500, 0))
        assert t.probs == (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(0)),
        )
        assert t.row_outcomes.labels == ("M", "L")
        assert t.combined_labels() == ("MM", "ML", "LM", "LL")

    def test_uniform_counts_give_quarter_table(self):
        t = vessels_joint_table(VesselsOutcomeCounts(250, 250, 250, 250))
        assert all(p == Fraction(1, 4) for row in t.probs for p in row)

    def test_degenerate_counts(self):
        t = vessels_joint_table(VesselsOutcomeCounts(1000, 0, 0, 0))
        assert t.probs[0][0] == 1

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidCounts):
            vessels_joint_table(VesselsOutcomeCounts(0, 0, 0, 0))

    def test_connected_pipeline_verdict(self):
        counts = simulate_vessels(VesselsConfig(mode="connected", trials=20_000, seed=2))
        report = is_product(vessels_joint_table(counts))
        assert report.verdict == "entangled"
        assert float(report.residual) >= 0.2

    def test_separate_pipeline_converges(self):
        counts = simulate_vessels(VesselsConfig(mode="separate", trials=1_000_000, seed=3))
        report = is_product(vessels_joint_table(counts))
        assert float(report.residual) <= 0.005


#: simulate_vessels tallies (MM, ML, LM, LL), recorded before the trial batching
#: was shared with Monte Carlo; 300,000 trials span two 2^18-trial batches.
PINNED_VESSELS = {
    ("separate", 1000, 0): (244, 283, 222, 251),
    ("separate", 1000, 7): (246, 252, 243, 259),
    ("separate", 300000, 0): (74928, 74779, 75239, 75054),
    ("separate", 300000, 7): (75189, 75116, 74762, 74933),
    ("connected", 1000, 0): (0, 527, 473, 0),
    ("connected", 1000, 7): (0, 498, 502, 0),
    ("connected", 300000, 0): (0, 149563, 150437, 0),
    ("connected", 300000, 7): (0, 150332, 149668, 0),
}


class TestVesselsSeedContract:
    @pytest.mark.parametrize("mode, trials, seed", sorted(PINNED_VESSELS))
    def test_counts_pinned(self, mode, trials, seed):
        c = simulate_vessels(VesselsConfig(mode, trials, seed))
        assert (c.mm, c.ml, c.lm, c.ll) == PINNED_VESSELS[mode, trials, seed]
