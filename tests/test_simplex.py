"""Simplex representation, region classification, and hidden-variable sampling."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contextrep import (
    BOUNDARY_TOLERANCE,
    Boundary,
    ContextId,
    Deterministic,
    HiddenVariable,
    InvalidHiddenVariable,
    MonteCarloMeasurement,
    OutcomeSet,
    ProbabilityVector,
    build_real_context,
    classify_hidden_variable,
    monte_carlo_measurement,
    region_measure_ratio,
    sample_hidden_variables,
)
import contextrep.simplex as simplex
from contextrep.simplex import (
    _MC_BATCH,
    _OUTCOME_MAJOR_MAX,
    _classify_batch,
    _mc_workers,
    _reciprocals,
)
from oracles import (
    BETA_CDF_N4_AT_QUARTER,
    binomial_three_sigma,
    classify_batch_oracle,
    hull_measure_estimate,
    region_depths,
)

CTX = ContextId("test", "state", "measurement")


def make_context(values):
    labels = tuple(f"o{i}" for i in range(len(values)))
    return build_real_context(ProbabilityVector(OutcomeSet(labels), tuple(values)), CTX)


def interior_distributions(n):
    """Strictly positive float distributions of length n."""
    return (
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
        .map(lambda xs: tuple(x / sum(xs) for x in xs))
    )


class TestHiddenVariable:
    def test_rejects_negative_coordinate(self):
        with pytest.raises(InvalidHiddenVariable):
            HiddenVariable((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidHiddenVariable):
            HiddenVariable((0.4, 0.4))

    def test_accepts_vertex(self):
        HiddenVariable((1.0, 0.0, 0.0))

    @pytest.mark.parametrize("lam, index", [((10**400, 0), 0), ((0, -(10**5000)), 1)])
    def test_rejects_a_coordinate_too_large_for_a_float(self, lam, index):
        """Refused as out of range, not left to float()'s OverflowError."""
        with pytest.raises(InvalidHiddenVariable,
                           match=rf"coordinates\[{index}\] is too large for a float"):
            classify_hidden_variable(make_context((0.5, 0.5)), lam)


class TestClassify:
    def test_even_coin_example(self):
        """lambda = (0.9, 0.1) against the even coin lands in the second region."""
        v = make_context((0.5, 0.5))
        assert classify_hidden_variable(v, (0.9, 0.1)) == Deterministic(1)
        assert classify_hidden_variable(v, (0.1, 0.9)) == Deterministic(0)

    def test_context_point_is_common_boundary(self):
        """lambda = v is a vertex of every region, so everything ties."""
        v = make_context((0.2, 0.3, 0.5))
        assert classify_hidden_variable(v, (0.2, 0.3, 0.5)) == Boundary((0, 1, 2))

    def test_simplex_vertex_ties_all_other_regions(self):
        """h_j is a vertex of every region except its own replacement."""
        v = make_context((0.25, 0.25, 0.5))
        assert classify_hidden_variable(v, (1.0, 0.0, 0.0)) == Boundary((1, 2))

    def test_simplex_vertex_two_outcomes(self):
        v = make_context((0.3, 0.7))
        assert classify_hidden_variable(v, (1.0, 0.0)) == Deterministic(1)
        assert classify_hidden_variable(v, (0.0, 1.0)) == Deterministic(0)

    def test_zero_probability_outcome_never_wins(self):
        v = make_context((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        result = classify_hidden_variable(v, (0.2, 0.2, 0.6))
        assert result == Boundary((0, 1))
        assert classify_hidden_variable(v, (0.1, 0.3, 0.6)) == Deterministic(0)

    def test_zero_coordinate_wins_at_subnormal_probability(self):
        """1 / v_k overflows for a subnormal v_k; lambda_k = 0 must still be ratio 0, not 0/0."""
        v = make_context((1.0, 5e-324))
        assert classify_hidden_variable(v, (1.0, 0.0)) == Deterministic(1)

    def test_certain_outcome_wins_everywhere(self):
        v = make_context((Fraction(1), Fraction(0)))
        assert classify_hidden_variable(v, (0.3, 0.7)) == Deterministic(0)

    def test_dimension_mismatch(self):
        v = make_context((0.5, 0.5))
        with pytest.raises(InvalidHiddenVariable):
            classify_hidden_variable(v, (0.2, 0.3, 0.5))

    def test_negative_tolerance(self):
        v = make_context((0.5, 0.5))
        with pytest.raises(ValueError):
            classify_hidden_variable(v, (0.9, 0.1), tol=-1.0)

    def test_nan_tolerance(self):
        """A NaN tol is refused like a negative one, not misread as an empty tie."""
        v = make_context((0.5, 0.5))
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            classify_hidden_variable(v, (0.9, 0.1), tol=float("nan"))

    @settings(max_examples=150)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(interior_distributions(n), interior_distributions(n))
        )
    )
    def test_agrees_with_hull_membership_oracle(self, pair):
        """The ratio rule must match linear-system convex hull membership."""
        values, lam = pair
        v = make_context(values)
        result = classify_hidden_variable(v, lam)
        depths = region_depths(values, lam)
        if isinstance(result, Deterministic):
            assert result.outcome == int(np.argmax(depths))
            assert depths[result.outcome] >= -1e-9
        else:
            deepest = max(depths)
            for j in result.tied:
                assert depths[j] >= deepest - 1e-9

    @settings(max_examples=100)
    @given(st.integers(2, 6).flatmap(interior_distributions))
    def test_winning_region_contains_point(self, values):
        """Each sampled point is inside (never outside) its classified region."""
        v = make_context(values)
        lam = np.asarray(values[::-1])
        result = classify_hidden_variable(v, tuple(lam))
        candidates = result.tied if isinstance(result, Boundary) else (result.outcome,)
        for j in candidates:
            assert region_depths(values, tuple(lam))[j] >= -1e-9


class TestRegionMeasure:
    def test_equals_probability_exactly(self):
        v = make_context((Fraction(43, 81), Fraction(38, 81)))
        assert region_measure_ratio(v, 0) == Fraction(43, 81)
        assert region_measure_ratio(v, 1) == Fraction(38, 81)

    def test_index_out_of_range(self):
        v = make_context((0.5, 0.5))
        with pytest.raises(IndexError):
            region_measure_ratio(v, 2)

    def test_index_too_long_for_str_is_named_by_length(self):
        with pytest.raises(IndexError, match="outcome index an integer of 5001 digits"):
            region_measure_ratio(make_context((0.5, 0.5)), 10**5000)

    def test_matches_monte_carlo_hull_oracle(self):
        """Closed-form region shares vs rejection sampling with hull membership."""
        values = (0.1, 0.2, 0.3, 0.4)
        v = make_context(values)
        for j, p in enumerate(values):
            estimate = hull_measure_estimate(values, j, trials=40_000, seed=90 + j)
            assert abs(estimate - float(region_measure_ratio(v, j))) <= binomial_three_sigma(
                p, 40_000
            )


class TestSampling:
    def test_shape_and_simplex_constraints(self):
        lam = sample_hidden_variables(n=4, count=500, seed=1)
        assert lam.shape == (500, 4)
        assert (lam >= 0).all()
        np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-12)

    def test_reproducible(self):
        a = sample_hidden_variables(3, 100, seed=9)
        b = sample_hidden_variables(3, 100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_coordinate_marginal_matches_beta_law(self):
        """First coordinate of a uniform simplex point has CDF 1 - (1-x)^(n-1)."""
        lam = sample_hidden_variables(n=4, count=100_000, seed=17)
        empirical = float((lam[:, 0] <= 0.25).mean())
        bound = binomial_three_sigma(BETA_CDF_N4_AT_QUARTER, 100_000)
        assert abs(empirical - BETA_CDF_N4_AT_QUARTER) <= bound

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_hidden_variables(0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_hidden_variables(3, 0, seed=0)


class TestMonteCarloMeasurement:
    def test_frequencies_near_target(self):
        v = make_context((Fraction(43, 81), Fraction(38, 81)))
        mc = monte_carlo_measurement(v, trials=100_000, seed=23)
        assert mc.boundary_hits == 0
        for freq, p in zip(mc.frequencies.as_floats(), v.as_floats()):
            assert abs(freq - p) <= binomial_three_sigma(p, 100_000)

    def test_certain_outcome_is_exact(self):
        v = make_context((Fraction(1), Fraction(0)))
        mc = monte_carlo_measurement(v, trials=5_000, seed=4)
        assert mc.frequencies.as_floats() == (1.0, 0.0)
        assert mc.max_abs_deviation == 0.0

    def test_chunk_boundary_accumulates_all_trials(self):
        v = make_context((0.5, 0.5))
        trials = (1 << 18) + 37
        mc = monte_carlo_measurement(v, trials=trials, seed=2)
        assert sum(mc.counts) + mc.boundary_hits == trials

    def test_json_shape(self):
        v = make_context((Fraction(1, 4), Fraction(3, 4)))
        mc = monte_carlo_measurement(v, trials=1_000, seed=0)
        d = mc.to_json_dict()
        assert set(d) == {
            "context",
            "trials",
            "seed",
            "frequencies",
            "boundary_hits",
            "target",
            "max_abs_deviation",
        }
        assert d["trials"] == 1_000
        assert math.isclose(sum(d["frequencies"].values()), 1.0)

    def test_rejects_zero_trials(self):
        v = make_context((0.5, 0.5))
        with pytest.raises(ValueError):
            monte_carlo_measurement(v, trials=0, seed=0)

    @pytest.mark.parametrize("trials", [True, 2.5, 0])
    def test_rejects_trials_that_are_not_a_positive_integer(self, trials, monkeypatch):
        """The rule VesselsConfig applies, checked before any draw."""
        def no_draw(*args):
            raise AssertionError("a refused job drew")

        monkeypatch.setattr(simplex, "_exponential_batches", no_draw)
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials}"):
            monte_carlo_measurement(make_context((0.5, 0.5)), trials, seed=0)

    def test_trials_too_long_for_str_are_named_in_the_message(self):
        with pytest.raises(ValueError, match="trials must be a positive integer, got a negative "
                                             "integer of 5001 digits"):
            monte_carlo_measurement(make_context((0.5, 0.5)), -(10**5000), seed=0)

    def test_three_sigma_bounds(self):
        v = make_context((Fraction(1, 4), Fraction(3, 4)))
        mc = monte_carlo_measurement(v, trials=1_000, seed=0)
        assert mc.three_sigma_bounds() == {
            "o0": binomial_three_sigma(0.25, 1_000),
            "o1": binomial_three_sigma(0.75, 1_000),
        }
        assert mc.within_three_sigma

    def test_outside_three_sigma(self):
        """0.30 is 0.05 from 1/4, beyond its bound of 3 * sqrt(3/16 / 1000) = 0.041."""
        v = make_context((Fraction(1, 4), Fraction(3, 4)))
        assert MonteCarloMeasurement(v, 1_000, 0, (250, 750), 0).within_three_sigma
        assert not MonteCarloMeasurement(v, 1_000, 0, (300, 700), 0).within_three_sigma


#: Counts and boundary hits of monte_carlo_measurement, recorded before the
#: ratio rule and the trial batching were rewritten.  1,000 trials fit in one
#: 2^18-row batch and 300,000 trials span two, so both sides of a batch edge
#: are pinned.  (case, trials, seed) -> (counts, boundary_hits).
PINNED_MONTE_CARLO = {
    ("n2", 1000, 0): ((531, 469), 0),
    ("n2", 1000, 7): ((548, 452), 0),
    ("n2", 300000, 0): ((159119, 140881), 0),
    ("n2", 300000, 7): ((159453, 140547), 0),
    ("n8", 1000, 0): ((135, 0, 246, 121, 0, 121, 255, 122), 0),
    ("n8", 1000, 7): ((114, 0, 261, 129, 0, 118, 243, 135), 0),
    ("n8", 300000, 0): ((37593, 0, 75037, 37452, 0, 37528, 75088, 37302), 0),
    ("n8", 300000, 7): ((37377, 0, 75354, 37637, 0, 37285, 74665, 37682), 0),
    ("n32", 1000, 0): ((4, 5, 5, 12, 8, 11, 9, 15, 18, 20, 21, 22, 29, 30, 25, 33, 32, 36,
                        37, 44, 42, 46, 35, 37, 46, 48, 52, 50, 68, 51, 54, 55), 0),
    ("n32", 1000, 7): ((0, 4, 8, 6, 11, 11, 14, 13, 13, 17, 22, 23, 23, 18, 25, 40, 26, 39,
                        37, 44, 32, 44, 47, 48, 41, 49, 65, 49, 48, 65, 52, 66), 0),
    ("n32", 300000, 0): ((580, 1198, 1668, 2284, 2807, 3479, 3945, 4592, 5192, 5672, 6288,
                          6926, 7463, 7992, 8573, 9038, 9595, 10125, 10841, 11489, 11885,
                          12530, 13037, 13563, 14188, 14796, 15294, 15715, 16357, 17134,
                          17770, 17984), 0),
    ("n32", 300000, 7): ((577, 1107, 1691, 2221, 2791, 3354, 3949, 4595, 4990, 5631, 6311,
                          6971, 7366, 7928, 8442, 9156, 9683, 10269, 10692, 11552, 11738,
                          12422, 13408, 13570, 14278, 14519, 15296, 15954, 16351, 17036,
                          17709, 18443), 0),
    ("n3", 300000, 0): ((191016, 0, 108984), 0),
    ("n3", 300000, 7): ((190573, 0, 109427), 0),
    # Recorded before the kernel took rows of up to 16 outcomes outcome-major:
    # n16 is the widest such row, n17 the narrowest row-major one.
    ("n16", 30000, 0): ((1168, 392, 1611, 374, 2032, 3494, 717, 2356, 1909, 1137, 1986, 3057,
                         3498, 2763, 3506, 0), 0),
    ("n17", 30000, 0): ((789, 2838, 394, 3163, 808, 3142, 391, 3149, 763, 3125, 1620, 1876,
                         3555, 0, 1575, 2007, 805), 0),
}

#: Integer weights of each pinned context; n3, n16 and n17 have one
#: zero-probability outcome and n8 two.
PINNED_WEIGHTS = {
    "n2": (43, 38),
    "n3": (7, 0, 4),
    "n8": (1, 0, 2, 1, 0, 1, 2, 1),
    "n16": (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 0),
    "n17": (2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5, 2),
    "n32": tuple(range(1, 33)),
}


def weighted_context(weights):
    total = sum(weights)
    return make_context(tuple(Fraction(w, total) for w in weights))


class TestSeedContract:
    @pytest.mark.parametrize("case, trials, seed", sorted(PINNED_MONTE_CARLO))
    def test_counts_pinned(self, case, trials, seed):
        """The same seed gives the same counts and boundary hits as before."""
        mc = monte_carlo_measurement(weighted_context(PINNED_WEIGHTS[case]), trials, seed)
        assert (mc.counts, mc.boundary_hits) == PINNED_MONTE_CARLO[case, trials, seed]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(any),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_public_classifier(self, weights, trials, seed):
        """Monte Carlo tallies what classify_hidden_variable says of each drawn point."""
        v = weighted_context(weights)
        counts = [0] * v.n
        boundary_hits = 0
        for row in sample_hidden_variables(v.n, trials, seed):
            result = classify_hidden_variable(v, tuple(row))
            if isinstance(result, Deterministic):
                counts[result.outcome] += 1
            else:
                boundary_hits += 1
        mc = monte_carlo_measurement(v, trials, seed)
        assert (mc.counts, mc.boundary_hits) == (tuple(counts), boundary_hits)


class RecordingStream:
    """Stands in for the generator: draw i is a batch of i's, and its thread is recorded.

    `overdrawn` is set once more than `limit` batches have been drawn.
    """

    def __init__(self, limit=None):
        self.threads = []
        self.limit = limit
        self.overdrawn = threading.Event()

    def standard_exponential(self, size):
        self.threads.append(threading.get_ident())
        if self.limit is not None and len(self.threads) > self.limit:
            self.overdrawn.set()
        return np.full(size, float(len(self.threads) - 1))


class TestParallelBatches:
    @pytest.fixture
    def short_switch_interval(self):
        """Threads switch every microsecond, so a lost update between workers would show."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case, trials, seed", sorted(PINNED_MONTE_CARLO))
    def test_worker_count_leaves_counts_unchanged(
        self, case, trials, seed, monkeypatch, short_switch_interval
    ):
        """1, 2 or 3 workers, also more than the CPUs here, give the pinned counts."""
        v = weighted_context(PINNED_WEIGHTS[case])
        for workers in (1, 2, 3):
            monkeypatch.setattr(simplex, "_mc_workers", lambda: workers)
            mc = monte_carlo_measurement(v, trials, seed)
            assert (mc.counts, mc.boundary_hits) == PINNED_MONTE_CARLO[case, trials, seed]

    def test_batch_exception_reaches_caller_and_threads_end(self, monkeypatch):
        calls = itertools.count(1)

        def classify(g, inv_v, tol):
            if next(calls) == 3:
                raise RuntimeError("batch 3 failed")
            return _classify_batch(g, inv_v, tol)

        monkeypatch.setattr(simplex, "_mc_workers", lambda: 3)
        monkeypatch.setattr(simplex, "_classify_batch", classify)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch 3 failed"):
            monte_carlo_measurement(make_context((0.5, 0.5)), 10 * _MC_BATCH, seed=0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("trials", [1, _MC_BATCH])
    def test_single_batch_starts_no_thread(self, trials, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a single-batch job started a thread")

        monkeypatch.setattr(simplex, "_mc_workers", lambda: 3)
        monkeypatch.setattr(threading, "Thread", no_thread)
        mc = monte_carlo_measurement(make_context((0.5, 0.5)), trials, seed=0)
        assert sum(mc.counts) + mc.boundary_hits == trials

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_calling_thread_draws_every_batch_in_order(self, workers, monkeypatch):
        """Every draw runs on the calling thread, and results come back in batch order."""
        monkeypatch.setattr(simplex, "_mc_workers", lambda: workers)
        rng = RecordingStream()
        caller = threading.get_ident()
        results = simplex._exponential_batches(
            rng, 5 * _MC_BATCH + 1, 2, lambda g: (threading.get_ident(), int(g[0, 0]), len(g))
        )
        assert rng.threads == [caller] * 6
        assert [(i, size) for _, i, size in results] == [
            (i, _MC_BATCH) for i in range(5)] + [(5, 1)]
        classified_on = {thread for thread, _, _ in results}
        if workers == 1:
            assert classified_on == {caller}
        else:
            assert caller not in classified_on

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_batches_drawn_while_the_first_is_blocked(
        self, workers, monkeypatch
    ):
        """Batch 0 waits until more than `workers` batches are drawn, or 0.1 s.

        A correct runner waits out the 0.1 s; an eager one overdraws within microseconds.
        """
        monkeypatch.setattr(simplex, "_mc_workers", lambda: workers)
        rng = RecordingStream(limit=workers)
        drawn_at_release = []

        def work(g):
            if g[0, 0] == 0:
                rng.overdrawn.wait(timeout=0.1)
                drawn_at_release.append(len(rng.threads))
            return len(g)

        results = simplex._exponential_batches(rng, 4 * workers * _MC_BATCH, 2, work)
        assert results == [_MC_BATCH] * (4 * workers)
        assert drawn_at_release[0] <= workers

    @pytest.mark.parametrize("workers, failing", [(2, 1), (3, 1), (3, 4)])
    def test_failed_batch_stops_the_draws_and_the_pool(self, workers, failing, monkeypatch):
        """Batch `failing` (from 1) raises: batches after it are drawn only while it is pending."""
        monkeypatch.setattr(simplex, "_mc_workers", lambda: workers)
        rng = RecordingStream()

        def work(g):
            if g[0, 0] == failing - 1:
                raise RuntimeError(f"batch {failing} failed")
            return len(g)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"batch {failing} failed"):
            simplex._exponential_batches(rng, 10 * workers * _MC_BATCH, 2, work)
        assert len(rng.threads) <= failing - 1 + workers
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (3, 3), (64, 4)])
    def test_workers_follow_affinity_up_to_four(self, cpus, workers, monkeypatch):
        monkeypatch.setattr(simplex.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert _mc_workers() == workers

    def test_workers_without_affinity_use_cpu_count(self, monkeypatch):
        monkeypatch.delattr(simplex.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simplex.os, "cpu_count", lambda: None)
        assert _mc_workers() == 1
        monkeypatch.setattr(simplex.os, "cpu_count", lambda: 2)
        assert _mc_workers() == 2


@st.composite
def dyadic_distributions(draw):
    """Probabilities that are powers of two or zero, so 1 / v_k and g_k / v_k are exact.

    Halving parts of 1 gives n >= 1 positive outcomes; zero outcomes go
    anywhere, so a single positive outcome among zeros is reachable.  Some
    contexts are wider than `_OUTCOME_MAJOR_MAX`, so the kernel's row-major
    layout is drawn as well as its outcome-major one.
    """
    parts = [1.0]
    splits = st.integers(0, 4) | st.integers(_OUTCOME_MAJOR_MAX, _OUTCOME_MAJOR_MAX + 8)
    for _ in range(draw(splits)):
        i = draw(st.integers(0, len(parts) - 1))
        half = parts.pop(i) / 2
        parts[i:i] = [half, half]
    for _ in range(draw(st.integers(0, 3))):
        parts.insert(draw(st.integers(0, len(parts))), 0.0)
    return tuple(parts)


def row_sums(lam):
    """Sums of the rows of a 2-D array, taken as the kernel takes them."""
    return np.einsum("ij->i", lam)


@st.composite
def crafted_rows(draw, values):
    """A point of the simplex, often with an exact tie or a gap of tol * S +- 1 ulp.

    In some rows a third of the coordinates are exactly 0.0, and the others
    have none: two zeros at positive outcomes tie, so without such rows a wide
    context would hardly ever have a settled row.  A gap row puts the ratio of
    outcome b at the tie bound of the row minimum a, or one ulp to either side
    of it; renormalizing moves the bound, so b is set again until it holds.
    The row is kept as a batch of one, so its sum is the classifier's.
    """
    n = len(values)
    coords = st.one_of(st.floats(1e-3, 1.0), st.floats(0.25, 1.0))
    if draw(st.booleans()):
        coords = st.just(0.0) | coords
    lam = np.array([draw(st.lists(coords, min_size=n, max_size=n))])
    assume(lam.sum() > 0)
    lam /= row_sums(lam)
    row = lam[0]
    positive = [k for k in range(n) if values[k] > 0]
    craft = draw(st.sampled_from(["none", "tie", "gap"]))
    if craft == "none" or len(positive) < 2:
        return row
    a = min(positive, key=lambda k: row[k] / values[k])
    b = draw(st.sampled_from([k for k in positive if k != a]))
    if craft == "tie":
        row[b] = row[a] / values[a] * values[b]
        assume(row.sum() > 0)
        return row / row_sums(lam)  # dividing every coordinate keeps the tie exact
    ulps = draw(st.integers(-1, 1))

    def put_b_at_gap():
        target = row[a] / values[a] + BOUNDARY_TOLERANCE * row_sums(lam)[0]
        if ulps:
            target = np.nextafter(target, ulps * np.inf)
        row[b] = target * values[b]

    put_b_at_gap()
    lam /= row_sums(lam)
    for _ in range(3):
        put_b_at_gap()
    assume(abs(row_sums(lam)[0] - 1.0) <= 1e-13)
    return row


def oracle_tally(values, lam):
    """(counts, boundary tie masks) of the n-wide rule, tol scaled by each row sum."""
    tol = BOUNDARY_TOLERANCE * row_sums(lam)[:, None]
    winners, ties = classify_batch_oracle(np.array(values), lam, tol)
    boundary = ties.sum(axis=1) > 1
    return np.bincount(winners[~boundary], minlength=len(values)).tolist(), ties[boundary].tolist()


class TestKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_matches_oracle_on_unnormalized_rows(self, data):
        """The scale-free kernel classifies every row as the n-wide tie rule does.

        The kernel sees the points scaled by a power of two, so its ratios and
        tie bounds are the oracle's, scaled exactly.  A row sums the same alone
        as within its batch, so the classifier, which takes one row, gives each
        row the result that row has inside the batch.
        """
        values = data.draw(dyadic_distributions())
        v = make_context(values)
        lam = np.array(data.draw(st.lists(crafted_rows(values), min_size=1, max_size=6)))
        g = lam * 2.0 ** data.draw(st.integers(-30, 30))
        counts, ties = _classify_batch(g, _reciprocals(v), BOUNDARY_TOLERANCE)
        assert (counts.tolist(), ties.tolist()) == oracle_tally(values, lam)
        tol = BOUNDARY_TOLERANCE * row_sums(lam)[:, None]
        winners, masks = classify_batch_oracle(np.array(values), lam, tol)
        for row, winner, mask in zip(lam, winners, masks):
            in_batch = (
                Boundary(tuple(np.flatnonzero(mask).tolist()))
                if mask.sum() > 1
                else Deterministic(int(winner))
            )
            assert classify_hidden_variable(v, tuple(row)) == in_batch

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_batch_sums_are_each_rows_own_sum(self, n):
        """Every row of a Monte Carlo batch sums exactly as it does alone."""
        g = np.random.default_rng(n).standard_exponential((_MC_BATCH, n))
        assert row_sums(g).tolist() == [row_sums(row[None])[0] for row in g]
